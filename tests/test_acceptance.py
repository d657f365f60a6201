"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single
"CRITERION n PASS/FAIL" line to the terminal, bypassing capture, so the
suite's verdict can be read off even from a quiet pytest run.
"""

import contextlib
import json
import time
from fractions import Fraction

from conelab import cli
from conelab.core import embed, is_member, verify_v_conditions
from conelab.degrees import (
    DimTable,
    degrees_from_sigma,
    dual_degrees_rank3,
    rank3_table,
    sigma_from_dims,
)
from conelab.doubling import iterate_construction
from conelab.linalg import det_exact
from conelab.rank3 import (
    CompositionFamily,
    R_matrix,
    build_rank3_cone,
    build_rank3_dual,
    classify_degrees,
    closed_form_invariants,
    composition_family,
    consistency_LR,
    coupling,
    coupling_decomposition_check,
    det_rank3_closed,
    det_rank3_dual_closed,
    embed_rank3,
    embed_rank3_dual,
    hurwitz_radon_number,
    relative_invariance_check,
    verify_composition,
)
from conelab.sampling import RationalSampler
from tests.dense_oracle import is_positive_definite_minors


@contextlib.contextmanager
def _criterion(capsys, num, label):
    note = {}
    try:
        yield note
    except BaseException:
        with capsys.disabled():
            print("CRITERION %d FAIL: %s" % (num, label))
        raise
    suffix = " (%s)" % note["detail"] if "detail" in note else ""
    with capsys.disabled():
        print("CRITERION %d PASS: %s%s" % (num, label, suffix))


def _extremal_table(r):
    return DimTable(
        r, {(k, j): 2 ** (k - j) for k in range(2, r + 1) for j in range(1, k)}
    )


def test_criterion_1_extremal_pipeline(capsys):
    label = "theorem pipeline verifies ranks 2..7 with extremal dimensions"
    with _criterion(capsys, 1, label) as note:
        start = time.monotonic()
        for r in range(2, 8):
            assert cli.main(["theorem", "--rank", str(r)]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["verified"] is True
            assert out["N"] == 2**r - 1
            for k in range(2, r + 1):
                for j in range(1, k):
                    key = "d%d%d" % (k, j) if k < 10 else "d%d_%d" % (k, j)
                    assert out["dims"][key] == 2 ** (k - j)
            assert out["degrees"] == [2 ** (i - 1) for i in range(1, r + 1)]
            assert out["degrees"][-1] == 2 ** (r - 1)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0
        note["detail"] = "%.2fs for 6 ranks" % elapsed


def test_criterion_2_sigma_closed_form(capsys):
    label = "sigma matrix matches 2^(i-j-1) for ranks 2..12"
    with _criterion(capsys, 2, label) as note:
        for r in range(2, 13):
            sigma = sigma_from_dims(_extremal_table(r))
            for i in range(1, r + 1):
                for j in range(1, r + 1):
                    if i == j:
                        assert sigma.entry(i, j) == 1
                    elif i > j:
                        assert sigma.entry(i, j) == 2 ** (i - j - 1)
                    else:
                        assert sigma.entry(i, j) == 0
            degs = degrees_from_sigma(sigma)
            assert degs == tuple(2 ** (i - 1) for i in range(1, r + 1))
        note["detail"] = "11 ranks"


def test_criterion_3_classification_rederived(capsys):
    label = "all four classification degree pairs re-derived from sigma"
    cases = {
        1: ((2, 2, 2), (1, 2, 3), (3, 2, 1)),
        2: ((1, 2, 2), (1, 2, 4), (3, 2, 1)),
        3: ((3, 5, 7), (1, 2, 4), (4, 2, 1)),
        4: ((0, 5, 7), (1, 2, 2), (3, 1, 1)),
    }
    with _criterion(capsys, 3, label):
        for case, ((r, s, n), primal, dual) in cases.items():
            got = classify_degrees(r, s, n)
            assert got.case == case
            assert got.primal == primal and got.dual == dual
            # independent derivation straight from the sigma algorithm
            derived = degrees_from_sigma(
                sigma_from_dims(rank3_table(d21=s, d31=n, d32=r))
            )
            assert derived == primal
            assert dual_degrees_rank3(r, s, n) == dual


def _det_families():
    yield (1, 1, 1), composition_family(1, 1)
    yield (2, 2, 2), composition_family(2, 2)
    yield (4, 4, 4), composition_family(4, 4)
    yield (8, 8, 8), composition_family(8, 8)
    yield (1, 2, 2), composition_family(1, 2)


def test_criterion_4_determinants_vs_oracle(capsys, fixture_family):
    label = "closed-form determinants match exact elimination on 6 shapes"
    with _criterion(capsys, 4, label) as note:
        start = time.monotonic()
        families = list(_det_families()) + [((3, 5, 7), fixture_family)]
        checked = 0
        for triple, F in families:
            sampler = RationalSampler(
                seed=sum(triple), max_numerator=20, max_denominator=5
            )
            for _ in range(100):
                X = sampler.rank3_element(F)
                assert det_rank3_closed(X, F) == det_exact(embed_rank3(X, F))
                Xi = sampler.dual_rank3_element(F)
                assert det_rank3_dual_closed(Xi, F) == det_exact(
                    embed_rank3_dual(Xi, F)
                )
                checked += 2
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        note["detail"] = "%d determinants in %.2fs" % (checked, elapsed)


def test_criterion_5_coupling_decomposition(capsys, fixture_family):
    label = "coupling decomposes positively and stays positive up to the boundary"
    F = fixture_family
    with _criterion(capsys, 5, label) as note:
        V = build_rank3_cone(F)
        Vd = build_rank3_dual(F)
        sampler = RationalSampler(seed=5)
        pairs = 0
        for _ in range(100):
            X = sampler.interior_rank3(F, V)
            Xi = sampler.interior_rank3_dual(F, Vd)
            check = coupling_decomposition_check(X, Xi, F)
            assert check.passed
            assert check.det_ratio_primal_ok and check.det_ratio_dual_ok
            assert check.lhs == check.rhs
            assert check.lhs > 0
            pairs += 1
        # nonzero boundary points of the closure still pair strictly positively
        # with interior points of the dual cone
        for i in range(60):
            Xb = sampler.boundary_rank3(F, V, zeros=1 + i % 2)
            Xi = sampler.interior_rank3_dual(F, Vd)
            assert coupling(Xb, Xi) > 0
        note["detail"] = "%d interior pairs, 60 boundary pairs" % pairs


def test_criterion_6_relative_invariance(capsys):
    label = "invariants transform by the squared-sigma character in cases 2 and 4"
    with _criterion(capsys, 6, label) as note:
        setups = [
            (composition_family(1, 2), (1, 2, 2)),  # case 2
            (CompositionFamily(0, 2, 3, []), (0, 2, 3)),  # case 4
        ]
        pairs = equations = 0
        for F, (r, s, n) in setups:
            primal_sigma = sigma_from_dims(rank3_table(d21=s, d31=n, d32=r))
            dual_sigma = sigma_from_dims(rank3_table(d21=r, d31=n, d32=s))
            for which, sigma in (("primal", primal_sigma), ("dual", dual_sigma)):
                sampler = RationalSampler(seed=6 + F.r)
                report = relative_invariance_check(
                    F, closed_form_invariants(F, which), sigma, sampler, samples=50
                )
                assert report.passed, report.witness
                assert report.checked >= 3 * 50
                pairs += 50
                equations += report.checked
        note["detail"] = "%d (h, x) pairs, %d equations" % (pairs, equations)


def test_criterion_7_composition_families(capsys, fixture_family):
    label = "generated families satisfy the relations; bundled family reproduces R(y)"
    with _criterion(capsys, 7, label) as note:
        for n in (1, 2, 4, 8, 16):
            rho = hurwitz_radon_number(n)
            F = composition_family(rho, n)
            assert F.r == rho and F.s == n and F.n == n
            assert verify_composition(F).passed
        F = fixture_family
        assert verify_composition(F).passed
        assert consistency_LR(F).passed
        # distinct powers of ten make every signed sum of markers unique, so
        # each entry pins down exactly one signed coordinate
        m = [10, 100, 1000, 10000, 100000]
        m1, m2, m3, m4, m5 = m
        expected = [
            [m1, m4, -m3],
            [m2, -m3, -m4],
            [m3, m2, m1],
            [m4, -m1, m2],
            [m5, 0, 0],
            [0, m5, 0],
            [0, 0, m5],
        ]
        assert R_matrix(F, m) == expected
        note["detail"] = "rho(16) = %d" % hurwitz_radon_number(16)


def test_criterion_8_membership_vs_minors(capsys, fixture_family):
    label = "exact pivot membership agrees with the principal-minor oracle"
    with _criterion(capsys, 8, label) as note:
        # (cone, points), the points cycling unconstrained, interior, boundary;
        # the minors oracle takes about 0.05 s per rank-6 point and 0.65 s per
        # rank-7 point, so the high ranks get few points
        cones = [
            (iterate_construction(2), 180),
            (iterate_construction(3), 180),
            (build_rank3_cone(fixture_family), 180),
            (iterate_construction(5), 20),
            (iterate_construction(6), 20),
            (iterate_construction(7), 3),
        ]
        sampler = RationalSampler(seed=8)
        rounds = members = 0
        for V, count in cones:
            r = V.partition.r
            for i in range(count):
                if i % 3 == 0:
                    x = sampler.cone_element(V)
                elif i % 3 == 1:
                    x = sampler.interior_element(V)
                else:
                    x = sampler.boundary_element(V, zeros=1 + rounds % (r - 1))
                    rounds += 1
                verdict = is_member(x, V)
                oracle, _minors = is_positive_definite_minors(embed(x, V))
                assert verdict == oracle
                members += 1 if verdict else 0
        total = sum(count for _, count in cones)
        assert members > 0 and members < total  # both verdicts exercised
        note["detail"] = "%d points, %d members" % (total, members)
