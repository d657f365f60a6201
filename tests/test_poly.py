from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab.poly import Poly, pdot, pnorm2, variables


def _poly_strategy(nvars=3, max_terms=4):
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars)
    coeff = st.integers(min_value=-9, max_value=9)
    return st.lists(st.tuples(exps, coeff), max_size=max_terms).map(
        lambda terms: sum(
            (Poly.const(nvars, c) * _monomial(nvars, e) for e, c in terms),
            Poly.zero(nvars),
        )
    )


def _monomial(nvars, exps):
    p = Poly.const(nvars, 1)
    for i, e in enumerate(exps):
        for _ in range(e):
            p = p * Poly.var(nvars, i)
    return p


def test_constructors_and_equality():
    x, y = variables(2)
    assert Poly.zero(2).is_zero()
    assert Poly.const(2, 0).is_zero()
    assert x != y
    assert x + y == y + x
    assert Poly.const(2, 3) + Poly.const(2, 4) == Poly.const(2, 7)


def test_pow_and_degree():
    x, y = variables(2)
    p = (x + y) ** 2
    assert p == x * x + 2 * x * y + y * y
    assert p.total_degree() == 2
    assert Poly.zero(2).total_degree() == 0
    assert (x * y * y).total_degree() == 3


def test_reflected_operators():
    x, = variables(1)
    assert 1 + x == x + 1
    assert 2 * x == x * 2
    assert 1 - x == -(x - 1)
    assert (3 - x) + (x - 3) == Poly.zero(1)


def test_rational_coefficients():
    x, = variables(1)
    p = Fraction(1, 2) * x
    assert p + p == x
    assert p.evaluate([4]) == 2


def test_evaluate_is_substitution():
    x, y, z = variables(3)
    p = x * y - 2 * z * z + 3
    assert p.evaluate([1, 2, 1]) == 1 * 2 - 2 + 3
    assert p.evaluate([0, 0, 0]) == 3
    with pytest.raises(ValueError):
        p.evaluate([1, 2])


@settings(max_examples=40, deadline=None)
@given(_poly_strategy(), _poly_strategy(), _poly_strategy())
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert p + (q + r) == (p + q) + r
    assert p * (q * r) == (p * q) * r


@settings(max_examples=40, deadline=None)
@given(
    _poly_strategy(),
    _poly_strategy(),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
)
def test_evaluate_is_ring_homomorphism(p, q, pt):
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


def test_pdot_pnorm2():
    x, y = variables(2)
    assert pdot([x], [y]) == x * y
    assert pdot([], []) == 0
    assert pnorm2([x, y]) == x * x + y * y
    assert pdot([1, Fraction(1, 2)], [3, 4]) == 5
    assert pnorm2([]) == 0


def test_hash_consistency():
    x, y = variables(2)
    assert hash(x + y) == hash(y + x)
    assert len({x + y, y + x, x * y}) == 2
