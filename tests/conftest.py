import pytest

from conelab import _kernels


# a single param, so the kernel tests keep their "[python]" ids
@pytest.fixture(params=[_kernels], ids=["python"], scope="session")
def kernels(request):
    return request.param


@pytest.fixture(scope="session")
def fixture_family():
    from conelab.rank3 import bundled_family_3_5_7

    return bundled_family_3_5_7()
