import pytest


@pytest.fixture(scope="session")
def fixture_family():
    from conelab.rank3 import bundled_family_3_5_7

    return bundled_family_3_5_7()
