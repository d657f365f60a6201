"""The blockwise group action, group product and LDL against their dense oracles.

rho_act, group_compose and ldl_decompose work on sparse blocks; the dense
bodies they replaced live in dense_oracle.py. Both must give equal results on
interior, boundary, indefinite, unconstrained and zero-pivot points, and the
same exception type, block and message when the action leaves the space.
rho_act and group_compose scale Fraction inputs to integers and divide once at
the end; points whose every coordinate is a Fraction exercise that path, and
bases with entries other than 1 make the coordinates read back Fractions.
ldl_decompose is that action applied one column at a time.
"""

import random
from fractions import Fraction

import pytest

from conelab import _kernels, core, rank3
from conelab.core import (
    BlockPartition,
    VCollection,
    cone_element,
    group_compose,
    group_element,
    ldl_decompose,
    rho_act,
)
from conelab.doubling import iterate_construction
from conelab.errors import ClosureViolationError
from conelab.sampling import RationalSampler
from tests.dense_oracle import (
    dense_basis,
    dense_group_compose,
    dense_ldl_decompose,
    dense_ldl_steps,
    dense_rho_act,
)


def _rank3(F, side):
    return rank3.build_rank3_cone(F) if side == "cone" else rank3.build_rank3_dual(F)


CONES = {
    "omega2": lambda: VCollection(BlockPartition((2, 1)), {(2, 1): [[[1, 0]], [[0, 1]]]}),
    # bases with entries other than 1: coordinates read back as Fractions
    "scaled-1_1": lambda: VCollection(BlockPartition((1, 1)), {(2, 1): [[[2]]]}),
    "scaled-2_1": lambda: VCollection(
        BlockPartition((2, 1)), {(2, 1): [[[2, 0]], [[0, 3]]]}
    ),
    **{"doubled-%d" % r: (lambda r=r: iterate_construction(r)) for r in range(2, 8)},
    **{
        "%s-%s" % (name, side): (lambda make=make, side=side: _rank3(make(), side))
        for name, make in (
            ("3_5_7", rank3.bundled_family_3_5_7),
            ("8_16", lambda: rank3.composition_family(8, 16)),
            ("r0_2_3", lambda: rank3.CompositionFamily(0, 2, 3, [])),
        )
        for side in ("cone", "dual")
    },
}


def _points(V, sampler):
    """One point of each kind: (kind, x)."""
    pivots = [sampler.positive_rational() for _ in range(V.r)]
    pivots[-1] = -pivots[-1]
    indefinite = rho_act(sampler.group_element(V, unit=True), cone_element(V, pivots), V)
    zero_pivot = sampler.cone_element(V)
    zero_pivot = cone_element(V, (0,) + zero_pivot.diag[1:], zero_pivot.off)
    return [
        ("interior", sampler.interior_element(V)),
        ("boundary", sampler.boundary_element(V, zeros=1)),
        ("indefinite", indefinite),
        ("unconstrained", sampler.cone_element(V)),
        ("zero pivot", zero_pivot),
    ]


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), getattr(exc, "block", None), str(exc)


@pytest.mark.parametrize("name", sorted(CONES))
def test_blockwise_matches_dense_oracle(name):
    V = CONES[name]()
    sampler = RationalSampler(seed=sum(map(ord, name)))
    statuses = set()
    for kind, x in _points(V, sampler):
        h = sampler.group_element(V)
        assert rho_act(h, x, V) == dense_rho_act(h, x, V), kind
        res = ldl_decompose(x, V)
        assert res == dense_ldl_decompose(x, V), kind
        statuses.add(res.status)
        h2 = sampler.group_element(V)
        assert group_compose(h, h2, V) == dense_group_compose(h, h2, V)
    assert statuses == {"positive", "boundary", "indefinite"}


def test_closure_violation_matches_dense_oracle():
    # V_31 too small: acting can land outside the declared spaces
    V = VCollection(
        BlockPartition((1, 1, 1)),
        {(2, 1): [[[1]]], (3, 2): [[[1]]]},
    )
    h = group_element(V, (1, 1, 1), {(3, 2): (1,)})
    x = cone_element(V, (1, 1, 1), {(2, 1): (1,)})
    got = _outcome(rho_act, h, x, V)
    assert got == _outcome(dense_rho_act, h, x, V)
    assert got[:2] == (ClosureViolationError, (3, 1))
    h2 = group_element(V, (1, 1, 1), {(2, 1): (1,)})
    got = _outcome(group_compose, h, h2, V)
    assert got == _outcome(dense_group_compose, h, h2, V)
    assert got[:2] == (ClosureViolationError, (3, 1))


def _flipped(V, rng):
    """V with one basis entry flipped: a nonzero to 0, or a 0 to 1."""
    bases = {
        key: [[list(row) for row in E] for E in dense_basis(V, *key)]
        for key in V.spaces()
    }
    E = rng.choice(bases[rng.choice(sorted(bases))])
    u, v = rng.randrange(len(E)), rng.randrange(len(E[0]))
    E[u][v] = 0 if E[u][v] else 1
    return VCollection(V.partition, bases)


@pytest.mark.parametrize("name", ["doubled-3", "doubled-4", "3_5_7-cone", "8_16-dual"])
def test_flipped_realization_matches_dense_oracle(name):
    """On a realization with one entry flipped, both paths fail alike.

    ldl_decompose is compared exactly with the dense oracle of its own step
    order. The older elimination with Schur updates of its own checks other
    blocks in another order, so against it only the outcome must agree: both
    raise, or both return equal results.
    """
    rng = random.Random(name)
    sampler = RationalSampler(seed=len(name))
    failures = set()
    for _ in range(12):
        W = _flipped(CONES[name](), rng)
        h, h2 = sampler.group_element(W), sampler.group_element(W)
        x = sampler.cone_element(W)
        got = _outcome(rho_act, h, x, W)
        assert got == _outcome(dense_rho_act, h, x, W)
        assert _outcome(group_compose, h, h2, W) == _outcome(dense_group_compose, h, h2, W)
        res = _outcome(ldl_decompose, x, W)
        assert res == _outcome(dense_ldl_steps, x, W)
        old = _outcome(dense_ldl_decompose, x, W)
        assert isinstance(res, tuple) == isinstance(old, tuple)
        if not isinstance(res, tuple):
            assert res == old
        if isinstance(got, tuple):
            failures.add(got[0])
    assert ClosureViolationError in failures


def test_no_dense_matrix_on_the_action_path(monkeypatch):
    """rho_act, group_compose and ldl_decompose never embed into N x N."""
    V = iterate_construction(7)
    sampler = RationalSampler(seed=7)
    h, h2 = sampler.group_element(V), sampler.group_element(V)

    def dense(*args, **kwargs):
        raise AssertionError("dense N x N path taken")

    monkeypatch.setattr(core, "_embed", dense)
    monkeypatch.setattr(_kernels, "mat_mul", dense)
    monkeypatch.setattr(_kernels, "mat_mul_t", dense)
    x = rho_act(h, core.identity_element(V), V)
    assert ldl_decompose(x, V).status == "positive"
    assert group_compose(h, h2, V).diag == tuple(a * b for a, b in zip(h.diag, h2.diag))


def _fraction(rng, nonzero=False):
    """A rational with denominator 2..10 that is not an integer."""
    while True:
        q = Fraction(rng.randint(-100, 100), rng.randint(2, 10))
        if q.denominator > 1 and (q or not nonzero):
            return q


def _fraction_coords(V, rng):
    return {key: tuple(_fraction(rng) for _ in range(V.dim(*key))) for key in V.spaces()}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["doubled-4", "doubled-5", "3_5_7-cone", "3_5_7-dual"])
def test_integer_scaled_action_matches_dense_oracle(name, seed):
    """Fraction coordinates everywhere: the integer path equals the dense one."""
    V = CONES[name]()
    rng = random.Random("%s-%d" % (name, seed))
    diag = lambda: tuple(_fraction(rng, nonzero=True) for _ in range(V.r))
    h = group_element(V, diag(), _fraction_coords(V, rng))
    h2 = group_element(V, diag(), _fraction_coords(V, rng))
    x = cone_element(V, diag(), _fraction_coords(V, rng))
    got = rho_act(h, x, V)
    assert got == dense_rho_act(h, x, V)
    assert group_compose(h, h2, V) == dense_group_compose(h, h2, V)
    # integer and Fraction arguments mixed: only one side is scaled
    one = group_element(V, (1,) * V.r)
    assert rho_act(one, x, V) == x
    assert rho_act(h, core.identity_element(V), V) == dense_rho_act(
        h, core.identity_element(V), V
    )
    assert group_compose(one, h, V) == h == group_compose(h, one, V)


def test_integer_scaled_closure_violation_matches_dense_oracle():
    """Scaling keeps the failing block and message of the unscaled action."""
    V = VCollection(
        BlockPartition((1, 1, 1)),
        {(2, 1): [[[1]]], (3, 2): [[[1]]]},
    )
    h = group_element(
        V, (Fraction(1, 2), Fraction(2, 3), Fraction(5, 7)), {(3, 2): (Fraction(3, 4),)}
    )
    x = cone_element(V, (Fraction(1, 3), 1, Fraction(9, 4)), {(2, 1): (Fraction(1, 5),)})
    got = _outcome(rho_act, h, x, V)
    assert got == _outcome(dense_rho_act, h, x, V)
    assert got[:2] == (ClosureViolationError, (3, 1))
    h2 = group_element(V, (Fraction(7, 2), 1, 1), {(2, 1): (Fraction(1, 6),)})
    got = _outcome(group_compose, h, h2, V)
    assert got == _outcome(dense_group_compose, h, h2, V)
    assert got[:2] == (ClosureViolationError, (3, 1))
