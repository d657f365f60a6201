"""Composition families and the rank-3 cones built from them.

The elimination determinant and the trace form act as oracles for every
closed formula; the bundled (3, 5, 7) family pins down conventions against
known matrices.
"""

import math
import random
from fractions import Fraction

import pytest

from conelab import cli, linalg, poly
from conelab._kernels import dot
from conelab.core import VCollection, embed, verify_v_conditions
from conelab.degrees import rank3_table, sigma_from_dims
from conelab.errors import StructureError
from conelab.rank3 import (
    Classification,
    CompositionFamily,
    L_matrix,
    LRReport,
    R_matrix,
    _as_primal,
    build_rank3_cone,
    build_rank3_dual,
    bundled_family_3_5_7,
    classify_degrees,
    closed_form_invariants,
    composition_family,
    consistency_LR,
    coupling,
    coupling_decomposition_check,
    defect_witness,
    dims_refusal,
    det_rank3_closed,
    det_rank3_dual_closed,
    dual_family,
    dual_from_cone_element,
    dual_rank3_element,
    embed_rank3,
    embed_rank3_dual,
    from_cone_element,
    hurwitz_radon_number,
    primal_values,
    rank3_element,
    relative_invariance_check,
    shape_refusal,
    to_cone_element,
    transposed_action_defect,
    verify_composition,
)
from conelab.sampling import RationalSampler
from tests.dense_oracle import dense_verify_composition


def _family(r, n):
    return composition_family(r, n)


def _zero_family(s, n):
    return CompositionFamily(0, s, n, [])


# r = s = n, the bundled (3, 5, 7) and an r = 0 family (whose swap has s = 0)
_CASE_FAMILIES = {
    "square": lambda: _family(2, 2),
    "fixture": bundled_family_3_5_7,
    "r0": lambda: _zero_family(2, 3),
}


# Hurwitz-Radon arithmetic


def test_hurwitz_radon_values():
    assert [hurwitz_radon_number(n) for n in (1, 2, 3, 4, 5, 6, 7, 8)] == [
        1, 2, 1, 4, 1, 2, 1, 8,
    ]
    assert hurwitz_radon_number(16) == 9
    assert hurwitz_radon_number(32) == 10
    assert hurwitz_radon_number(64) == 12
    assert hurwitz_radon_number(128) == 16
    assert hurwitz_radon_number(12) == 4
    assert hurwitz_radon_number(24) == 8
    assert hurwitz_radon_number(48) == 9


def test_hurwitz_radon_bound_is_sharp_for_generated_families():
    for n in (1, 2, 4, 8, 16):
        r = hurwitz_radon_number(n)
        F = _family(r, n)
        assert verify_composition(F).passed
        with pytest.raises(StructureError, match="Hurwitz-Radon"):
            composition_family(r + 1, n)


# family generation


def test_family_first_matrix_is_identity():
    for (r, n) in [(1, 1), (2, 2), (4, 4), (8, 8), (9, 16), (4, 12)]:
        F = _family(r, n)
        assert F.mats[0] == tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )


def test_family_entries_are_signs():
    for (r, n) in [(2, 2), (4, 4), (8, 8), (9, 16), (10, 32)]:
        F = _family(r, n)
        for A in F.mats:
            for row in A:
                assert set(row) <= {-1, 0, 1}
                assert sum(1 for e in row if e) == 1  # signed permutation


def test_family_2_2_convention():
    F = _family(2, 2)
    assert F.mats[1] == ((0, -1), (1, 0))


def test_family_pairwise_relations_small():
    for (r, n) in [(1, 1), (2, 2), (4, 4), (8, 8)]:
        report = verify_composition(_family(r, n))
        assert report.passed and report.pair is None


def test_family_odd_factor_kron():
    F = _family(4, 12)
    assert F.n == 12 and F.s == 12
    assert verify_composition(F).passed


def test_verify_composition_catches_sign_flip():
    F = _family(4, 4)
    mats = [list(map(list, A)) for A in F.mats]
    # flipping one entry breaks either a cross relation or normalization
    mats[1][0][1] = -mats[1][0][1]
    bad = CompositionFamily(4, 4, 4, mats)
    report = verify_composition(bad)
    assert not report.passed
    assert report.pair is not None


def test_verify_composition_matches_dense_oracle(fixture_family):
    """The sparse check names the same first failing pair as the dense one."""
    rng = random.Random(17)
    families = [fixture_family, _family(4, 4), _family(8, 16), _family(2, 6)]
    families += [dual_family(F) for F in families]
    families.append(dual_family(_zero_family(2, 3)))
    checked = failed = 0
    for F in families:
        assert verify_composition(F).pair == dense_verify_composition(F) is None
        for _ in range(25 if F.r and F.s else 0):
            mats = [[list(row) for row in A] for A in F.mats]
            i, u, v = rng.randrange(F.r), rng.randrange(F.n), rng.randrange(F.s)
            mats[i][u][v] = rng.choice([0, -mats[i][u][v], Fraction(1, 2), 2, -1])
            bad = CompositionFamily(F.r, F.s, F.n, mats)
            want = dense_verify_composition(bad)
            report = verify_composition(bad)
            assert report.pair == want and report.passed == (want is None)
            checked += 1
            failed += want is not None
    assert checked >= 150 and failed >= 100


def test_composition_family_validation():
    with pytest.raises(StructureError):
        composition_family(0, 4)
    with pytest.raises(StructureError, match="Hurwitz-Radon"):
        composition_family(3, 2)


def test_family_shape_validation():
    with pytest.raises(StructureError):
        CompositionFamily(1, 2, 1, [[[1, 0]]])  # n < s
    with pytest.raises(StructureError):
        CompositionFamily(2, 1, 1, [[[1]]])  # wrong count
    with pytest.raises(StructureError):
        CompositionFamily(1, 1, 2, [[[1], [0], [0]]])  # bad shape


# L and R matrices


def test_L_matrix_reproduces_generators():
    F = _family(4, 4)
    for i in range(4):
        coords = [1 if t == i else 0 for t in range(4)]
        assert L_matrix(F, coords) == [list(row) for row in F.mats[i]]


def test_L_R_bilinear_consistency_random():
    rng = random.Random(21)
    for (r, n) in [(2, 2), (4, 4), (3, 8)]:
        F = _family(r, n)
        for _ in range(5):
            xs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(F.r)]
            ys = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(F.s)]
            Lx = L_matrix(F, xs)
            Ry = R_matrix(F, ys)
            assert [dot(row, ys) for row in Lx] == [dot(row, xs) for row in Ry]


def test_composition_law_norm_identity():
    # |L(x) y|^2 = |x|^2 |y|^2 is the whole point of a composition family
    rng = random.Random(22)
    F = _family(8, 8)
    for _ in range(5):
        xs = [rng.randint(-4, 4) for _ in range(8)]
        ys = [rng.randint(-4, 4) for _ in range(8)]
        z = [dot(row, ys) for row in L_matrix(F, xs)]
        assert sum(e * e for e in z) == sum(e * e for e in xs) * sum(
            e * e for e in ys
        )


def test_consistency_LR_fixture_golden(fixture_family):
    report = consistency_LR(fixture_family)
    assert report.passed and report.mismatch is None
    # paper-pinned R(y) layout via marker substitution
    y = [1, 10, 100, 1000, 10000]
    assert R_matrix(fixture_family, y) == [
        [1, 1000, -100],
        [10, -100, -1000],
        [100, 10, 1],
        [1000, -1, 10],
        [10000, 0, 0],
        [0, 10000, 0],
        [0, 0, 10000],
    ]


def test_consistency_LR_detects_corruption(fixture_family):
    mats = [list(map(list, A)) for A in fixture_family.mats]
    mats[2][6][4] = 0  # break L without touching the (1,1) normalization
    bad = CompositionFamily(3, 5, 7, mats)
    report = consistency_LR(bad)
    assert not report.passed


@pytest.mark.parametrize("rn", [None, (8, 16), (4, 8), (3, 4)], ids=str)
def test_consistency_LR_matches_dense_oracle(rn):
    """One- and two-entry corruptions: the same verdict and first pair."""
    F = bundled_family_3_5_7() if rn is None else _family(*rn)
    assert consistency_LR(F) == LRReport(True)
    assert consistency_LR(dual_family(F)) == LRReport(True)
    rng = random.Random(31)
    failed = 0
    for _ in range(100):
        mats = [[list(row) for row in A] for A in F.mats]
        for _ in range(rng.choice([1, 2])):
            i, u, v = rng.randrange(F.r), rng.randrange(F.n), rng.randrange(F.s)
            mats[i][u][v] = rng.choice([0, -mats[i][u][v], Fraction(1, 2), 2, -1, 1])
        bad = CompositionFamily(F.r, F.s, F.n, mats)
        want = dense_verify_composition(bad)
        report = consistency_LR(bad)
        assert report.passed == (want is None)
        assert report.mismatch == (None if want is None else ("RR", *want))
        failed += want is not None
    assert failed >= 50


def test_fixture_matches_paper_family(fixture_family):
    F = fixture_family
    assert (F.r, F.s, F.n) == (3, 5, 7)
    assert verify_composition(F).passed
    I5 = tuple(tuple(1 if i == j else 0 for j in range(5)) for i in range(5))
    assert F.mats[0][:5] == I5
    assert F.mats[0][5] == (0, 0, 0, 0, 0)


# realizations built from families


def test_build_1_1_1():
    V = build_rank3_cone(_family(1, 1))
    assert V.partition.sizes == (1, 1, 1)
    assert verify_v_conditions(V).passed


def test_build_fixture_shapes(fixture_family):
    V = build_rank3_cone(fixture_family)
    assert V.partition.sizes == (7, 3, 1)
    assert V.partition.total == 11
    t = V.dims_table()
    assert (t.d(2, 1), t.d(3, 1), t.d(3, 2)) == (5, 7, 3)
    assert verify_v_conditions(V).passed

    Vd = build_rank3_dual(fixture_family)
    assert Vd.partition.sizes == (7, 5, 1)
    assert Vd.partition.total == 13
    td = Vd.dims_table()
    assert (td.d(2, 1), td.d(3, 1), td.d(3, 2)) == (3, 7, 5)
    assert verify_v_conditions(Vd).passed


def test_build_r0_layout():
    V = build_rank3_cone(_zero_family(2, 3))
    assert V.partition.sizes == (5, 1, 1)
    assert V.dims_table().d(3, 2) == 0
    assert verify_v_conditions(V).passed
    Vd = build_rank3_dual(_zero_family(2, 3))
    assert Vd.partition.sizes == (3, 2, 1)
    assert verify_v_conditions(Vd).passed


# the swapped family: the bundled one, the generated ones at the Hurwitz-Radon
# bound, and r = 0 ones (whose swap has s = 0)
_SWAP_FAMILIES = {
    "fixture": bundled_family_3_5_7,
    **{
        "rho-%d" % n: (lambda n=n: _family(hurwitz_radon_number(n), n))
        for n in (1, 2, 4, 8, 16)
    },
    "r0-2-3": lambda: _zero_family(2, 3),
    "r0-3-4": lambda: _zero_family(3, 4),
}


@pytest.mark.parametrize("name", list(_SWAP_FAMILIES))
def test_dual_family_is_a_composition_family(name):
    F = _SWAP_FAMILIES[name]()
    D = dual_family(F)
    assert (D.r, D.s, D.n) == (F.s, F.r, F.n)
    # build_rank3_dual checks F only: D passes exactly when F does
    assert verify_composition(F).passed and verify_composition(D).passed
    assert consistency_LR(D).passed
    assert dual_family(D) == F


@pytest.mark.parametrize("name", list(_SWAP_FAMILIES))
def test_dual_family_swaps_L_and_R(name):
    F = _SWAP_FAMILIES[name]()
    D = dual_family(F)
    rng = random.Random(23)
    xs = [rng.randint(-5, 5) for _ in range(F.r)]
    ys = [rng.randint(-5, 5) for _ in range(F.s)]
    # R(y) by its definition: column i is A_i y
    cols = [[dot(row, ys) for row in A] for A in F.mats]
    assert L_matrix(D, ys) == R_matrix(F, ys)
    assert R_matrix(F, ys) == [[c[u] for c in cols] for u in range(F.n)]
    assert R_matrix(D, xs) == L_matrix(F, xs)


def _bumped(F, i, u, v):
    mats = [list(map(list, A)) for A in F.mats]
    mats[i][u][v] += 1
    return CompositionFamily(F.r, F.s, F.n, mats)


def test_broken_family_fails_on_both_sides(fixture_family):
    F = fixture_family
    bad = _bumped(F, 1, 0, 0)
    assert verify_composition(bad).pair == (1, 2)
    assert verify_composition(dual_family(bad)).pair == (1, 1)
    with pytest.raises(StructureError, match=r"pair \(1, 2\)"):
        build_rank3_dual(bad)
    for i in range(F.r):
        for u in range(F.n):
            for v in range(F.s):
                bad = _bumped(F, i, u, v)
                assert not verify_composition(bad).passed
                assert not verify_composition(dual_family(bad)).passed


@pytest.mark.parametrize("name", list(_SWAP_FAMILIES))
def test_build_rank3_dual_layout(name):
    F = _SWAP_FAMILIES[name]()
    Vd = build_rank3_dual(F)
    assert Vd.partition.sizes == (F.n, F.s, 1)
    t = Vd.dims_table()
    assert (t.d(2, 1), t.d(3, 1), t.d(3, 2)) == (F.r, F.n, F.s)


def test_build_degrees_2_2_2():
    V = build_rank3_cone(_family(2, 2))
    from conelab.degrees import degrees_from_sigma

    degs = degrees_from_sigma(sigma_from_dims(V.dims_table()))
    assert degs == (1, 2, 3)


def test_embed_rank3_layout_literal():
    # the module docstring's layouts, written out by hand with distinct entries
    F = _family(2, 2)
    assert F.mats == (((1, 0), (0, 1)), ((0, -1), (1, 0)))
    X = rank3_element(F, 2, 3, 5, x=(7, 11), y=(13, 17), z=(19, 23))
    # R(y) = [[13, -17], [17, 13]]: column i is A_i y
    assert embed_rank3(X, F) == [
        [2, 0, 13, -17, 19],
        [0, 2, 17, 13, 23],
        [13, 17, 3, 0, 7],
        [-17, 13, 0, 3, 11],
        [19, 23, 7, 11, 5],
    ]
    # r = 0: block diagonal on (s + n, 1, 1), y against the first s slots
    # and z against the last n
    F0 = _zero_family(2, 3)
    X0 = rank3_element(F0, 2, 3, 5, y=(13, 17), z=(19, 23, 29))
    assert embed_rank3(X0, F0) == [
        [2, 0, 0, 0, 0, 13, 0],
        [0, 2, 0, 0, 0, 17, 0],
        [0, 0, 2, 0, 0, 0, 19],
        [0, 0, 0, 2, 0, 0, 23],
        [0, 0, 0, 0, 2, 0, 29],
        [13, 17, 0, 0, 0, 3, 0],
        [0, 0, 19, 23, 29, 0, 5],
    ]


@pytest.mark.parametrize("name", list(_CASE_FAMILIES))
def test_embed_rank3_dual_is_reversed_realization(name):
    # the display layout reverses the block order of the stored realization
    # (order inside each block kept), so dets and spectra agree
    sampler = RationalSampler(seed=32)
    F = _CASE_FAMILIES[name]()
    s, n = F.s, F.n
    Vd = build_rank3_dual(F)
    N = Vd.partition.total
    perm = [n + s] + [n + b for b in range(s)] + list(range(n))
    for _ in range(5):
        Xi = sampler.dual_rank3_element(F)
        display = embed_rank3_dual(Xi, F)
        stored = embed(to_cone_element(_as_primal(Xi), dual_family(F), Vd), Vd)
        assert len(display) == N
        for p in range(N):
            for q in range(N):
                assert display[p][q] == stored[perm[p]][perm[q]]
        assert linalg.det_exact(display) == linalg.det_exact(stored)


@pytest.mark.parametrize("name", list(_CASE_FAMILIES))
def test_round_trip_elements(name):
    sampler = RationalSampler(seed=33)
    F = _CASE_FAMILIES[name]()
    V = build_rank3_cone(F)
    Vd = build_rank3_dual(F)
    for _ in range(5):
        X = sampler.rank3_element(F)
        assert from_cone_element(to_cone_element(X, F, V), F) == X
        Xi = sampler.dual_rank3_element(F)
        e = to_cone_element(_as_primal(Xi), dual_family(F), Vd)
        assert e.diag == (Xi.xi33, Xi.xi22, Xi.xi11)
        assert dual_from_cone_element(e, F) == Xi


def test_sampler_rank3_draws_are_pinned():
    # a seed fixes the draws: three diagonal values, then the vectors of
    # lengths r, s, n, in the same order for both kinds of point
    F = _family(1, 2)
    sampler = RationalSampler(seed=0, max_numerator=9, max_denominator=1)
    assert sampler.rank3_element(F) == rank3_element(F, 3, -8, 7, (3,), (6, 9), (7, 0))
    assert sampler.dual_rank3_element(F) == dual_rank3_element(
        F, -6, 8, 0, (-7,), (6, 2), (1, 8)
    )


def test_element_builders_validate(fixture_family):
    F = fixture_family
    with pytest.raises(StructureError):
        rank3_element(F, 1, 1, 1, x=(1,))
    with pytest.raises(StructureError):
        dual_rank3_element(F, 1, 1, 1, zeta=(1,) * 6)


# determinants


@pytest.mark.parametrize("rn", [(1, 1), (2, 2), (4, 4), (1, 2)])
def test_det_identity_is_one(rn):
    r, n = rn
    F = _family(r, n)
    assert det_rank3_closed(rank3_element(F, 1, 1, 1), F) == 1
    assert det_rank3_dual_closed(dual_rank3_element(F, 1, 1, 1), F) == 1


def test_det_identity_is_one_nonsquare(fixture_family):
    F = fixture_family
    assert det_rank3_closed(rank3_element(F, 1, 1, 1), F) == 1
    assert det_rank3_dual_closed(dual_rank3_element(F, 1, 1, 1), F) == 1
    F0 = _zero_family(2, 3)
    assert det_rank3_closed(rank3_element(F0, 1, 1, 1), F0) == 1
    assert det_rank3_dual_closed(dual_rank3_element(F0, 1, 1, 1), F0) == 1


def test_det_diagonal_forms(fixture_family):
    F = fixture_family
    X = rank3_element(F, 2, 3, 5)
    assert det_rank3_closed(X, F) == 2**7 * 3**3 * 5
    Xi = dual_rank3_element(F, 2, 3, 5)
    assert det_rank3_dual_closed(Xi, F) == 2 * 3**5 * 5**7


def test_det_oracle_fixture(fixture_family):
    sampler = RationalSampler(seed=34, max_numerator=12, max_denominator=4)
    F = fixture_family
    for _ in range(10):
        X = sampler.rank3_element(F)
        assert det_rank3_closed(X, F) == linalg.det_exact(embed_rank3(X, F))
        Xi = sampler.dual_rank3_element(F)
        assert det_rank3_dual_closed(Xi, F) == linalg.det_exact(
            embed_rank3_dual(Xi, F)
        )


@pytest.mark.parametrize("rn", [(1, 1), (2, 2), (1, 2), (8, 8)])
def test_det_oracle_square_families(rn):
    r, n = rn
    F = _family(r, n)
    sampler = RationalSampler(seed=35, max_numerator=9, max_denominator=3)
    for _ in range(8):
        X = sampler.rank3_element(F)
        assert det_rank3_closed(X, F) == linalg.det_exact(embed_rank3(X, F))
        Xi = sampler.dual_rank3_element(F)
        assert det_rank3_dual_closed(Xi, F) == linalg.det_exact(
            embed_rank3_dual(Xi, F)
        )


def test_det_oracle_r0():
    F = _zero_family(3, 4)
    sampler = RationalSampler(seed=36, max_numerator=9, max_denominator=3)
    for _ in range(8):
        X = sampler.rank3_element(F)
        assert det_rank3_closed(X, F) == linalg.det_exact(embed_rank3(X, F))
        Xi = sampler.dual_rank3_element(F)
        assert det_rank3_dual_closed(Xi, F) == linalg.det_exact(
            embed_rank3_dual(Xi, F)
        )


# coupling and duality


def test_coupling_identities(fixture_family):
    F = fixture_family
    assert coupling(rank3_element(F, 1, 1, 1), dual_rank3_element(F, 1, 1, 1)) == 3


def test_coupling_1_1_1_example():
    F = _family(1, 1)
    X = rank3_element(F, 2, 1, 1, x=(1,))
    Xi = dual_rank3_element(F, 1, 1, 1)
    assert coupling(X, Xi) == 4


def test_coupling_is_orthonormal_inner_product(fixture_family):
    # identify dual coordinates with primal ones; the pairing becomes the
    # realization inner product (all bases involved are orthonormal)
    from conelab.core import inner_product_V

    sampler = RationalSampler(seed=37)
    F = fixture_family
    V = build_rank3_cone(F)
    for _ in range(5):
        X = sampler.rank3_element(F)
        Xi = sampler.dual_rank3_element(F)
        as_primal = rank3_element(F, Xi.xi11, Xi.xi22, Xi.xi33, Xi.xi, Xi.eta, Xi.zeta)
        lhs = coupling(X, Xi)
        rhs = inner_product_V(
            to_cone_element(X, F, V), to_cone_element(as_primal, F, V), V
        )
        assert lhs == rhs


def test_coupling_decomposition_interior_pairs(fixture_family):
    F = fixture_family
    sampler = RationalSampler(seed=38, max_numerator=8, max_denominator=3)
    V = build_rank3_cone(F)
    Vd = build_rank3_dual(F)
    for _ in range(5):
        X = sampler.interior_rank3(F, V)
        Xi = sampler.interior_rank3_dual(F, Vd)
        res = coupling_decomposition_check(X, Xi, F)
        assert res.passed
        assert res.lhs == res.rhs
        assert res.lhs > 0
        assert res.det_ratio_primal_ok and res.det_ratio_dual_ok


def test_coupling_decomposition_r0():
    F = _zero_family(2, 3)
    sampler = RationalSampler(seed=39, max_numerator=8, max_denominator=3)
    for _ in range(5):
        X = sampler.interior_rank3(F)
        Xi = sampler.interior_rank3_dual(F)
        res = coupling_decomposition_check(X, Xi, F)
        assert res.passed and res.lhs > 0


@pytest.mark.parametrize(
    "family",
    [
        bundled_family_3_5_7,
        lambda: _family(4, 8),
        lambda: _family(8, 8),
        lambda: _family(8, 16),
        lambda: _family(10, 32),
        lambda: _zero_family(2, 3),
        lambda: _zero_family(1, 1),
        lambda: _zero_family(4, 7),
    ],
    ids=["3_5_7", "4_8", "8_8", "8_16", "10_32", "r0_2_3", "r0_1_1", "r0_4_7"],
)
def test_coupling_bordered_solve_matches_solve_linear(monkeypatch, family):
    # the closed-form solve of the bordered block of embed_rank3_dual against
    # elimination of that block; the coupling check itself calls no solver
    from conelab import rank3

    F = family()
    sampler = RationalSampler(seed=40, max_numerator=9, max_denominator=4)
    V, Vd = (build_rank3_cone(F), build_rank3_dual(F)) if F.r else (None, None)
    points = [
        (sampler.interior_rank3(F, V), sampler.interior_rank3_dual(F, Vd))
        for _ in range(3)
    ]
    for _, Xi in points:
        big = [row[1:] for row in embed_rank3_dual(Xi, F)[1:]]
        v = list(Xi.eta) + list(Xi.zeta)
        B, LB = rank3._bordered_solve(Xi, L_matrix(F, Xi.xi), v, F.s)
        assert [Fraction(b, LB) for b in B] == linalg.solve_linear(big, v)
    solves = []
    solve_linear = linalg.solve_linear
    monkeypatch.setattr(
        linalg, "solve_linear", lambda A, b: solves.append(1) or solve_linear(A, b)
    )
    assert all(coupling_decomposition_check(X, Xi, F).passed for X, Xi in points)
    assert solves == []


def test_coupling_refuses_broken_family_with_its_pair(monkeypatch):
    # A_2 = A_1 = I breaks tA_1 A_2 + tA_2 A_1 = 0, so tL L != |xi|^2 I and
    # the closed-form solve fails its check: F is refused, as by build_rank3_cone
    from conelab import rank3

    F = CompositionFamily(2, 2, 2, [[[1, 0], [0, 1]], [[1, 0], [0, 1]]])
    X = rank3_element(F, 4, 5, 6, (1, 0), (1, 1), (0, 1))
    Xi = dual_rank3_element(F, 7, 9, 8, (1, 1), (1, 2), (2, 1))
    v = list(Xi.eta) + list(Xi.zeta)
    assert rank3._bordered_solve(Xi, L_matrix(F, Xi.xi), v, F.s) is None
    solves = []
    monkeypatch.setattr(linalg, "solve_linear", lambda A, b: solves.append(1))
    with pytest.raises(StructureError, match=r"pair \(1, 2\)"):
        coupling_decomposition_check(X, Xi, F)
    assert solves == []
    # on a family that keeps its relations a failed check is an internal fault
    G = _family(2, 2)
    monkeypatch.setattr(rank3, "_bordered_solve", lambda *args: None)
    X, Xi = rank3_element(G, 1, 1, 1), dual_rank3_element(G, 1, 1, 1)
    with pytest.raises(RuntimeError, match="bordered solve"):
        coupling_decomposition_check(X, Xi, G)


@pytest.mark.parametrize(
    "primal, dual, message",
    [
        ((-1, 1, 1), (1, 1, 1), "x11 must be positive"),
        ((1, 0, 1), (1, 1, 1), "x22 - |y|^2/x11 must be positive"),
        ((1, 1, 1), (1, 1, -1), "xi33 must be positive"),
        ((1, 1, 1), (1, 0, 1), "xi22 - |xi|^2/xi33 must be positive"),
    ],
    ids=["x11", "primal-schur", "xi33", "dual-schur"],
)
def test_coupling_decomposition_preconditions(fixture_family, primal, dual, message):
    F = fixture_family
    X, Xi = rank3_element(F, *primal), dual_rank3_element(F, *dual)
    with pytest.raises(StructureError) as exc:
        coupling_decomposition_check(X, Xi, F)
    assert str(exc.value) == message


# closed-form invariants and relative invariance


def test_invariant_degrees_by_case(fixture_family):
    assert closed_form_invariants(_family(2, 2)).degrees == (1, 2, 3)
    assert closed_form_invariants(_family(1, 2)).degrees == (1, 2, 4)
    assert closed_form_invariants(fixture_family).degrees == (1, 2, 4)
    assert closed_form_invariants(_zero_family(2, 3)).degrees == (1, 2, 2)
    assert closed_form_invariants(_family(2, 2), "dual").degrees == (3, 2, 1)
    assert closed_form_invariants(_family(1, 2), "dual").degrees == (3, 2, 1)
    assert closed_form_invariants(fixture_family, "dual").degrees == (4, 2, 1)
    assert closed_form_invariants(_zero_family(2, 3), "dual").degrees == (3, 1, 1)


# each test below gives the exponents of the three listed invariants of a
# _CASE_FAMILIES family in the determinant


@pytest.mark.parametrize(
    "name, exps",
    [("square", (0, 1, 1)), ("fixture", (3, 2, 1)), ("r0", (3, 1, 1))],
    ids=["square", "fixture", "r0"],
)
def test_invariants_evaluate_to_det_factors(name, exps):
    # det X = x11^(n-r-1) * D2^(r-1) * D3 for 1 <= r < n, D2^(r-1) * D3 for
    # r = n, and x11^(s+n-2) * D2 * D3 in the block-diagonal r = 0 layout
    F = _CASE_FAMILIES[name]()
    inv = closed_form_invariants(F)
    sampler = RationalSampler(seed=40, max_numerator=7, max_denominator=3)
    for _ in range(5):
        X = sampler.rank3_element(F)
        vals = primal_values(X)
        d1, d2, d3 = (p.evaluate(vals) for p in inv.polys)
        e1, e2, e3 = exps
        assert d1**e1 * d2**e2 * d3**e3 == linalg.det_exact(embed_rank3(X, F))


@pytest.mark.parametrize(
    "name, exps",
    [("square", (1, 1, 0)), ("fixture", (1, 4, 1)), ("r0", (1, 1, 2))],
    ids=["square", "fixture", "r0"],
)
def test_dual_invariants_evaluate_to_det_factors(name, exps):
    # listed top degree first: det Xi = top * q2^(s-1) * xi33^(n-s-1), with
    # xi33^0 for s = n; for r = 0 the list (top, xi22, xi33) has (1, s-1, n-1)
    F = _CASE_FAMILIES[name]()
    inv = closed_form_invariants(F, "dual")
    sampler = RationalSampler(seed=41, max_numerator=7, max_denominator=3)
    for _ in range(5):
        Xi = sampler.dual_rank3_element(F)
        vals = primal_values(Xi)
        d1, d2, d3 = (p.evaluate(vals) for p in inv.polys)
        e1, e2, e3 = exps
        assert d1**e1 * d2**e2 * d3**e3 == linalg.det_exact(embed_rank3_dual(Xi, F))


def test_case4_dual_invariant_formula():
    F = _zero_family(2, 3)
    inv = closed_form_invariants(F, "dual")
    nv = 3 + 0 + 2 + 3
    vs = poly.variables(nv)
    a11, a22, a33 = vs[0], vs[1], vs[2]
    eta = vs[3:5]
    zeta = vs[5:]
    expected = a11 * a22 * a33 - a22 * poly.pnorm2(zeta) - a33 * poly.pnorm2(eta)
    assert inv.polys[0] == expected


def test_case2_interior_positivity_and_boundary_zero():
    F = _family(1, 2)  # (1, 2, 2), case 2
    inv = closed_form_invariants(F)
    assert inv.polys[2].total_degree() == 4
    V = build_rank3_cone(F)
    sampler = RationalSampler(seed=42, max_numerator=6, max_denominator=3)
    for _ in range(20):
        X = sampler.interior_rank3(F, V)
        vals = primal_values(X)
        assert all(p.evaluate(vals) > 0 for p in inv.polys)
    # boundary points kill the product of the invariants
    for _ in range(10):
        Xb = from_cone_element(sampler.boundary_element(V), F)
        vals = primal_values(Xb)
        prod = 1
        for p in inv.polys:
            prod *= p.evaluate(vals)
        assert prod == 0
        assert det_rank3_closed(Xb, F) == 0


def test_relative_invariance_diagonal_example():
    # diagonal h = (2, 3, 5) acting on case-2 invariants: D_2 picks up
    # t1^2 t2^2 = 36
    F = _family(1, 2)
    inv = closed_form_invariants(F)
    V = build_rank3_cone(F)
    from conelab.core import group_element, rho_act

    h = group_element(V, (2, 3, 5))
    sampler = RationalSampler(seed=43)
    X = sampler.rank3_element(F)
    hx = from_cone_element(rho_act(h, to_cone_element(X, F, V), V), F)
    base = inv.polys[1].evaluate(primal_values(X))
    acted = inv.polys[1].evaluate(primal_values(hx))
    assert acted == 36 * base


def test_relative_invariance_case2():
    F = _family(1, 2)
    sampler = RationalSampler(seed=44, max_numerator=9, max_denominator=3)
    sigma = sigma_from_dims(rank3_table(d21=F.s, d31=F.n, d32=F.r))
    report = relative_invariance_check(F, closed_form_invariants(F), sigma, sampler, samples=5)
    assert report.passed and report.checked == 15
    dual_sigma = sigma_from_dims(rank3_table(d21=F.r, d31=F.n, d32=F.s))
    report = relative_invariance_check(
        F, closed_form_invariants(F, "dual"), dual_sigma, sampler, samples=5
    )
    assert report.passed


def test_relative_invariance_case4():
    F = _zero_family(2, 3)
    sampler = RationalSampler(seed=45, max_numerator=9, max_denominator=3)
    sigma = sigma_from_dims(rank3_table(d21=F.s, d31=F.n, d32=0))
    report = relative_invariance_check(F, closed_form_invariants(F), sigma, sampler, samples=5)
    assert report.passed
    dual_sigma = sigma_from_dims(rank3_table(d21=0, d31=F.n, d32=F.s))
    report = relative_invariance_check(
        F, closed_form_invariants(F, "dual"), dual_sigma, sampler, samples=5
    )
    assert report.passed


# defects and splitting


# the dual defect |tL(xi) zeta|^2 - |xi|^2 |zeta|^2 is the primal one of
# dual_family(F)


def test_defects_vanish_iff_square():
    F = _family(2, 2)  # r = s = n
    assert transposed_action_defect(F) == 0
    assert transposed_action_defect(dual_family(F)) == 0
    assert defect_witness(F) is None
    assert defect_witness(dual_family(F)) is None


def test_defects_case2():
    F = _family(1, 2)  # r < s = n: dual defect zero, primal defect not
    assert transposed_action_defect(dual_family(F)) == 0
    assert transposed_action_defect(F) != 0
    w = defect_witness(F)
    assert w is not None and w[2] != 0


def test_defects_case3(fixture_family):
    D = dual_family(fixture_family)
    assert transposed_action_defect(fixture_family) != 0
    assert transposed_action_defect(D) != 0
    assert defect_witness(fixture_family) is not None
    assert defect_witness(D) is not None


def test_defect_witness_values_check_out(fixture_family):
    F = fixture_family
    u, v, value = defect_witness(F)
    Rv = R_matrix(F, list(u))
    w = [dot(col, v) for col in zip(*Rv)]
    lhs = sum(e * e for e in w)
    nu = sum(e * e for e in u)
    nv = sum(e * e for e in v)
    assert lhs - nu * nv == value and value != 0


# classification


def test_classify_published_cases():
    assert classify_degrees(2, 2, 2).case == 1
    assert classify_degrees(1, 2, 2).case == 2
    assert classify_degrees(3, 5, 7).case == 3
    assert classify_degrees(0, 4, 9).case == 4
    assert classify_degrees(2, 2, 2).primal == (1, 2, 3)
    assert classify_degrees(1, 2, 2).dual == (3, 2, 1)
    assert classify_degrees(3, 5, 7).primal == (1, 2, 4)
    assert classify_degrees(3, 5, 7).dual == (4, 2, 1)
    assert classify_degrees(0, 4, 9).primal == (1, 2, 2)
    assert classify_degrees(0, 4, 9).dual == (3, 1, 1)


def test_classify_normalizes_by_swap():
    c = classify_degrees(5, 3, 7)
    assert c.swapped and c.normalized == (3, 5, 7)
    assert c.case == 3


def _hopf_stiefel_odd_k(r, s, n):
    return next((k for k in range(n - s + 1, r) if math.comb(n, k) % 2), None)


def test_classify_hopf_stiefel_refusals_exit_2(capsys):
    """Every triple 1 <= r <= s <= n <= 16 whose parity check fails exits 2."""
    refuted = 0
    for n in range(1, 17):
        for s in range(1, n + 1):
            for r in range(1, s + 1):
                k = _hopf_stiefel_odd_k(r, s, n)
                code = cli.main(["rank3", "classify", "--triple", str(r), str(s), str(n)])
                out = capsys.readouterr()
                if k is None:
                    continue
                assert code == 2 and out.out == ""
                if s == n:
                    # refused before by the stronger Hurwitz-Radon bound
                    assert "C(" not in out.err
                    continue
                refuted += 1
                assert "C(%d, %d) = %d is odd" % (n, k, math.comb(n, k)) in out.err
    assert refuted == 148
    code = cli.main(["rank3", "classify", "--triple", "5", "5", "6"])
    assert code == 2 and "C(6, 2) = 15 is odd" in capsys.readouterr().err


@pytest.mark.parametrize(
    "triple, case, primal, dual, normalized, swapped",
    [
        ((3, 5, 7), 3, (1, 2, 4), (4, 2, 1), (3, 5, 7), False),
        ((5, 3, 7), 3, (1, 2, 4), (4, 2, 1), (3, 5, 7), True),
        ((0, 5, 7), 4, (1, 2, 2), (3, 1, 1), (0, 5, 7), False),
        ((0, 4, 9), 4, (1, 2, 2), (3, 1, 1), (0, 4, 9), False),
        ((1, 2, 2), 2, (1, 2, 4), (3, 2, 1), (1, 2, 2), False),
        ((2, 2, 2), 1, (1, 2, 3), (3, 2, 1), (2, 2, 2), False),
        ((8, 16, 16), 2, (1, 2, 4), (3, 2, 1), (8, 16, 16), False),
    ],
)
def test_classify_realizable_triples_unchanged(triple, case, primal, dual, normalized, swapped):
    assert classify_degrees(*triple) == Classification(
        case=case, primal=primal, dual=dual, triple=triple,
        normalized=normalized, swapped=swapped,
    )


def test_shape_refusal_finds_the_first_odd_binomial_by_bits():
    # Lucas' theorem against the binomials themselves, every triple with
    # n <= 40; beyond n = 64 the binomial's value is left out
    for n in range(1, 41):
        for s in range(1, n):
            for r in range(1, s + 1):
                k = _hopf_stiefel_odd_k(r, s, n)
                reason = shape_refusal(r, s, n)
                if k is None:
                    assert reason is None
                else:
                    assert reason == "C(%d, %d) = %d is odd (Hopf-Stiefel)" % (
                        n, k, math.comb(n, k)
                    )
    assert shape_refusal(16385, 16385, 24576) == "C(24576, 8192) is odd (Hopf-Stiefel)"
    assert shape_refusal(16383, 16383, 16384) is None


def _dropped(V, rng):
    """V without one to three of its basis elements, chosen by rng."""
    entries = {key: list(V.entries(*key)) for key in V.spaces()}
    for _ in range(rng.randint(1, 3)):
        key = rng.choice(sorted(entries))
        del entries[key][rng.randrange(len(entries[key]))]
        if not entries[key]:
            del entries[key]
    return VCollection.from_entries(V.partition, entries)


def test_dims_refusal_spares_every_verified_realization():
    # the (V1) product of a realization is a nonsingular bilinear map, so the
    # dims table of anything that passes (V1)-(V3) is never refuted
    from conelab.doubling import iterate_construction

    rng = random.Random(7)
    bases = [iterate_construction(r) for r in range(1, 11)]
    for F in (bundled_family_3_5_7(), composition_family(8, 16),
              composition_family(4, 8), composition_family(3, 4)):
        bases += [build_rank3_cone(F), build_rank3_dual(F)]
    checked = list(bases)
    for V in bases[2:6] + bases[10:]:
        for _ in range(30):
            W = _dropped(V, rng)
            if verify_v_conditions(W).passed:
                checked.append(W)
    assert len(checked) > len(bases) + 50
    for V in checked:
        assert verify_v_conditions(V).passed
        assert dims_refusal(V.dims_table()) is None


def _dims_refusal_per_triple(table):
    """dims_refusal as one shape_refusal call per triple, in (k, j, i) order."""
    for k in range(3, table.r + 1):
        for j in range(2, k):
            for i in range(1, j):
                a, b, c = table.d(k, j), table.d(j, i), table.d(k, i)
                if not (a and b):
                    continue
                reason = shape_refusal(min(a, b), max(a, b), c)
                if reason is not None:
                    return (
                        "no realization has this dimension table: at (i, j, k) = "
                        "(%d, %d, %d), (V1) makes V_%d%d x V_%d%d -> V_%d%d a "
                        "nonsingular bilinear map R^%d x R^%d -> R^%d, and %s"
                        % (i, j, k, k, j, j, i, k, i, a, b, c, reason)
                    )
    return None


def test_dims_refusal_matches_the_per_triple_loop():
    # each distinct shape is decided once, yet the first refused triple and
    # its message are those of the loop: every rank-4 table with entries
    # <= 3, seeded rank-5..8 tables, and the extremal table at r = 60
    import itertools

    from conelab.degrees import DimTable

    keys = [(k, j) for k in range(2, 5) for j in range(1, k)]
    refused = 0
    for values in itertools.product(range(4), repeat=len(keys)):
        table = DimTable(4, dict(zip(keys, values)))
        want = _dims_refusal_per_triple(table)
        assert dims_refusal(table) == want, values
        refused += want is not None
    assert 0 < refused < 4**6
    rng = random.Random(21)
    for r in range(5, 9):
        keys = [(k, j) for k in range(2, r + 1) for j in range(1, k)]
        for _ in range(300):
            values = [rng.choice((0, 1, 2, 3, 4, 8, 16)) for _ in keys]
            table = DimTable(r, dict(zip(keys, values)))
            assert dims_refusal(table) == _dims_refusal_per_triple(table)
    extremal = cli._extremal_dims(60)
    assert dims_refusal(extremal) is _dims_refusal_per_triple(extremal) is None


def test_classify_rejections():
    # r = s = n is the r = n case of the Hurwitz-Radon bound
    with pytest.raises(StructureError, match=r"bound rho\(3\) = 1"):
        classify_degrees(3, 3, 3)
    with pytest.raises(StructureError, match=r"r = 16 exceeds .* rho\(16\) = 9"):
        classify_degrees(16, 16, 16)
    assert classify_degrees(8, 8, 8).case == 1
    with pytest.raises(StructureError):
        classify_degrees(2, 5, 4)  # n < s
    with pytest.raises(StructureError, match="Hurwitz-Radon"):
        classify_degrees(3, 6, 6)  # rho(6) = 2
    assert classify_degrees(2, 4, 4).case == 2  # rho(4) = 4 allows r = 2
    assert classify_degrees(4, 4, 4).case == 1
