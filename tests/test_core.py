"""Realization data model: embedding, projection, the group action, and the
block elimination membership test.

The 3x3 realization with partition (2, 1) and the standard slab basis is
small enough to check everything by hand; larger cases lean on oracles
(naive determinants, trace forms, minors).
"""

import random
from fractions import Fraction

import pytest

from conelab import _kernels, core, linalg
from conelab.core import (
    BlockPartition,
    VCollection,
    cone_element,
    embed,
    embed_group,
    group_compose,
    group_element,
    identity_element,
    inner_product_V,
    is_member,
    ldl_decompose,
    project,
    project_group,
    rho_act,
    verify_v_conditions,
)
from conelab.errors import (
    ClosureViolationError,
    NotInSpaceError,
    StructureError,
)
from conelab.sampling import RationalSampler
from tests.dense_oracle import dense_basis, is_positive_definite_minors


@pytest.fixture(scope="module")
def omega2():
    return VCollection(BlockPartition((2, 1)), {(2, 1): [[[1, 0]], [[0, 1]]]})


@pytest.fixture(scope="module")
def omega3():
    from conelab.doubling import iterate_construction

    return iterate_construction(3)


def test_block_partition_basics():
    p = BlockPartition((4, 2, 1))
    assert p.r == 3 and p.total == 7
    assert p.size(1) == 4 and p.size(3) == 1
    assert p.offset(1) == 0 and p.offset(2) == 4 and p.offset(3) == 6
    with pytest.raises(StructureError):
        BlockPartition(())
    with pytest.raises(StructureError):
        BlockPartition((2, 0))


def test_vcollection_shape_checks():
    cases = [
        ({(1, 2): [[[1, 0]]]}, "bad space index (1, 2) for rank 2"),
        ({(2, 1): [[[1], [0]]]}, "basis element 1 of V_21 is not 1 x 2"),
        ({(2, 1): [[[1, 0]], [[1, 0, 0]]]}, "basis element 2 of V_21 is not 1 x 2"),
        ({(2, 1): [[[0.5, 0]]]}, "non-rational entry in basis of V_21"),
        # zero entries are checked too
        ({(2, 1): [[[1, 0.0]]]}, "non-rational entry in basis of V_21"),
        ({(2, 1): [[[True, 0]]]}, "non-rational entry in basis of V_21"),
    ]
    for bases, message in cases:
        with pytest.raises(StructureError) as exc:
            VCollection(BlockPartition((2, 1)), bases)
        assert str(exc.value) == message


def test_vcollection_dims_and_pairs(omega2, omega3):
    assert omega2.dim(2, 1) == 2
    assert omega2.pairs() == [(2, 1)]
    assert omega3.dims_table().d(3, 1) == 4
    assert omega3.spaces() == [(2, 1), (3, 1), (3, 2)]


def test_cone_element_canonicalization(omega2):
    x = cone_element(omega2, (1, 2))
    assert x.off[(2, 1)] == (0, 0)
    with pytest.raises(StructureError):
        cone_element(omega2, (1,))
    with pytest.raises(StructureError):
        cone_element(omega2, (1, 1), {(3, 1): (1,)})
    with pytest.raises(StructureError):
        cone_element(omega2, (1, 1), {(2, 1): (1,)})
    with pytest.raises(StructureError):
        cone_element(omega2, (1.5, 1))


def test_group_element_rejects_zero_diag(omega2):
    with pytest.raises(StructureError, match="nonzero"):
        group_element(omega2, (0, 1))


def test_identity_and_zero(omega2):
    e = identity_element(omega2)
    assert e.diag == (1, 1) and not any(e.off[(2, 1)])
    assert e != cone_element(omega2, (0, 0))
    h = group_element(omega2, (1, 1))
    assert h.diag == (1, 1) and not any(h.lower[(2, 1)])


def test_embed_omega2_example(omega2):
    x = cone_element(omega2, (1, 1), {(2, 1): (1, 0)})
    assert embed(x, omega2) == [[1, 0, 1], [0, 1, 0], [1, 0, 1]]


def test_embed_project_round_trip(omega2, omega3):
    sampler = RationalSampler(seed=3)
    for V in (omega2, omega3):
        for _ in range(10):
            x = sampler.cone_element(V)
            assert project(embed(x, V), V) == x


def test_project_rejects_outside_V(omega3):
    M = linalg.identity(7)
    M[1][0] = M[0][1] = 1
    with pytest.raises(NotInSpaceError, match="diagonal"):
        project(M, omega3)
    with pytest.raises(StructureError, match="symmetric"):
        project([[0, 1], [0, 0]], VCollection(BlockPartition((1, 1)), {}))


def test_project_zero_dim_block_must_vanish():
    V = VCollection(BlockPartition((1, 1)), {})
    M = [[1, 1], [1, 1]]
    with pytest.raises(NotInSpaceError) as err:
        project(M, V)
    assert err.value.block == (2, 1)


def test_group_round_trip(omega2, omega3):
    sampler = RationalSampler(seed=4)
    for V in (omega2, omega3):
        for _ in range(10):
            h = sampler.group_element(V)
            assert project_group(embed_group(h, V), V) == h


def test_project_group_rejects_upper_entries(omega2):
    M = embed_group(group_element(omega2, (1, 1)), omega2)
    M[0][2] = 1
    with pytest.raises(StructureError, match="lower"):
        project_group(M, omega2)


def test_sym_pair_scalar_examples():
    # (X tY + Y tX)/2 = c I gives c; a non-scalar symmetrization gives None
    X = [[1, 0]]
    Y = [[0, 1]]
    assert _kernels.sym_pair_scalar(X, Y) == 0
    assert _kernels.sym_pair_scalar(X, X) == 1
    assert _kernels.sym_pair_scalar([[1, 0], [0, 1]], [[0, 1], [0, 0]]) is None


def test_inner_product_V_single_coordinate(omega2):
    x = cone_element(omega2, (0, 0), {(2, 1): (1, 0)})
    assert inner_product_V(x, x, omega2) == 2


def test_inner_product_V_trace_oracle(omega3):
    # block trace form: <X,Y> on V_kj equals tr(X tY)/n_k
    sampler = RationalSampler(seed=5)
    part = omega3.partition
    for _ in range(10):
        x = sampler.cone_element(omega3)
        y = sampler.cone_element(omega3)
        expected = sum(
            a * b for a, b in zip(x.diag, y.diag)
        )
        from conelab.core import block_from_coords

        for (k, j) in omega3.spaces():
            X = block_from_coords(omega3, k, j, x.off[(k, j)])
            Y = block_from_coords(omega3, k, j, y.off[(k, j)])
            t = 0
            for u in range(part.size(k)):
                for v in range(part.size(j)):
                    t += X[u][v] * Y[u][v]
            expected += 2 * Fraction(t) / part.size(k)
        assert inner_product_V(x, y, omega3) == expected


def test_rho_act_unipotent_example(omega2):
    h = group_element(omega2, (1, 1), {(2, 1): (1, 0)})
    x = rho_act(h, identity_element(omega2), omega2)
    assert x.diag == (1, 2)
    assert x.off[(2, 1)] == (1, 0)


def test_rho_act_matches_matrix_conjugation(omega2, omega3):
    sampler = RationalSampler(seed=6)
    for V in (omega2, omega3):
        for _ in range(8):
            h = sampler.group_element(V)
            x = sampler.cone_element(V)
            H = embed_group(h, V)
            X = embed(x, V)
            HX = [[sum(H[i][k] * X[k][j] for k in range(len(X))) for j in range(len(X))] for i in range(len(X))]
            HXHt = [
                [sum(HX[i][k] * H[j][k] for k in range(len(X))) for j in range(len(X))]
                for i in range(len(X))
            ]
            assert embed(rho_act(h, x, V), V) == HXHt


def test_rho_act_scaling_diag(omega2):
    h = group_element(omega2, (2, 3))
    x = cone_element(omega2, (1, 1), {(2, 1): (1, 1)})
    y = rho_act(h, x, omega2)
    assert y.diag == (4, 9)
    assert y.off[(2, 1)] == (6, 6)


def test_group_compose_is_matrix_product(omega3):
    sampler = RationalSampler(seed=7)
    for _ in range(8):
        h1 = sampler.group_element(omega3)
        h2 = sampler.group_element(omega3)
        H = embed_group(group_compose(h1, h2, omega3), omega3)
        H1 = embed_group(h1, omega3)
        H2 = embed_group(h2, omega3)
        prod = [
            [sum(H1[i][k] * H2[k][j] for k in range(7)) for j in range(7)]
            for i in range(7)
        ]
        assert H == prod


def test_rho_is_group_action(omega3):
    sampler = RationalSampler(seed=8)
    for _ in range(5):
        h1 = sampler.group_element(omega3)
        h2 = sampler.group_element(omega3)
        x = sampler.cone_element(omega3)
        lhs = rho_act(group_compose(h1, h2, omega3), x, omega3)
        rhs = rho_act(h1, rho_act(h2, x, omega3), omega3)
        assert lhs == rhs


def test_closure_violation_detected():
    # V_31 too small: acting can land outside the declared spaces
    V = VCollection(
        BlockPartition((1, 1, 1)),
        {(2, 1): [[[1]]], (3, 2): [[[1]]]},
    )
    h = group_element(V, (1, 1, 1), {(3, 2): (1,)})
    x = cone_element(V, (1, 1, 1), {(2, 1): (1,)})
    with pytest.raises(ClosureViolationError):
        rho_act(h, x, V)


def test_verify_v_conditions_good(omega2, omega3):
    for V in (omega2, omega3):
        report = verify_v_conditions(V)
        assert report.passed and report.orthonormal
        assert report.v1.passed and report.v2.passed and report.v3.passed


def test_verify_v2_counterexample():
    V = VCollection(
        BlockPartition((1, 1, 1)),
        {(2, 1): [[[1]]], (3, 1): [[[1]]]},
    )
    report = verify_v_conditions(V)
    assert not report.passed
    assert not report.v2.passed
    assert report.v2.counterexample == (1, 2, 3, 1, 1)


def test_verify_v1_counterexample():
    # X_32 X_21 must land in V_31, which is empty here
    V = VCollection(
        BlockPartition((1, 1, 1)),
        {(2, 1): [[[1]]], (3, 2): [[[1]]]},
    )
    report = verify_v_conditions(V)
    assert not report.passed
    assert not report.v1.passed
    assert report.v1.counterexample == (1, 2, 3, 1, 1)


def test_verify_v3_counterexample():
    V = VCollection(
        BlockPartition((2, 2)),
        {(2, 1): [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]},
    )
    report = verify_v_conditions(V)
    assert not report.passed
    assert not report.v3.passed
    assert report.v3.counterexample == (2, 1, 1, 2)


def test_verify_scalar_products_computed_once(monkeypatch):
    # (V3) and the orthonormal flag share one Gram pass: one (V3) kernel call
    # per declared space (10 at rank 5), and gram()/is_orthonormal() reuse it
    from conelab.doubling import iterate_construction

    V = iterate_construction(5)
    calls = []
    original = _kernels.gram_violation

    def counting(elements, index, n):
        calls.append(1)
        return original(elements, index, n)

    monkeypatch.setattr(_kernels, "gram_violation", counting)
    report = verify_v_conditions(V)
    assert report.passed and report.orthonormal
    assert len(calls) == len(V.spaces()) == 10
    before = len(calls)
    for key in V.spaces():
        V.gram(*key)
    assert V.is_orthonormal()
    assert len(calls) == before


def _gram_sources():
    """Doubled ranks 1-8, rank-3 cones and duals, and seeded variants and
    entry mutants of them, many failing (V3) or losing independence."""
    import itertools

    from conelab import rank3
    from conelab.doubling import iterate_construction
    from tests.test_dense_oracle import _mutants

    rng = random.Random(23)
    doubled = [iterate_construction(r) for r in range(1, 9)]
    cones = []
    for F in (rank3.bundled_family_3_5_7(), rank3.composition_family(4, 8),
              rank3.composition_family(1, 2)):
        cones += [rank3.build_rank3_cone(F), rank3.build_rank3_dual(F)]
    sources = doubled + cones
    for V in doubled[2:7] + cones:
        sources += [_variant(V, rng) for _ in range(10)]
    for V in doubled[2:5] + cones:
        sources += itertools.islice(_mutants(V, rng), 10)
    return sources


def _orthonormal_by_rows(V):
    """is_orthonormal as a walk over every Gram row, space by space."""
    for key in V.spaces():
        if any(row != {a: 1} for a, row in enumerate(V.gram(*key))):
            return False
    return True


def _outcome_of(call, V):
    try:
        return call(V)
    except StructureError as exc:
        return "StructureError: %s" % exc


def test_cached_gram_facts_match_the_gram_rows():
    # the diagonal and identity flags recorded with each cached Gram matrix
    # equal a reading of its rows; before any Gram is cached _orthogonal is
    # False and leaves nothing behind
    failing_v3 = rescaled = 0
    for source in _gram_sources():
        # a fresh copy: building a rank-3 cone verifies it
        V = VCollection.from_entries(
            source.partition, {key: source.entries(*key) for key in source.spaces()}
        )
        assert not any(V._orthogonal(*key) for key in V.spaces())
        assert V._grams == {} and V._gram_facts == {}
        report = _outcome_of(verify_v_conditions, V)
        for key in V.spaces():
            if V.v3_violation(*key) is not None:
                failing_v3 += 1
                assert not V._orthogonal(*key) and key not in V._gram_facts
                message = r"^\(V3\) violation in V_%d%d" % key
                with pytest.raises(StructureError, match=message):
                    V.gram(*key)
                continue
            G = V.gram(*key)
            diagonal = all(list(row) == [a] and row[a] for a, row in enumerate(G))
            identity = all(row == {a: 1} for a, row in enumerate(G))
            rescaled += diagonal and not identity
            assert V._orthogonal(*key) == diagonal
            assert V._gram_facts[key] == (diagonal, identity)
        assert _outcome_of(VCollection.is_orthonormal, V) == _outcome_of(_orthonormal_by_rows, V)
        if not isinstance(report, str):
            assert report.orthonormal == (report.v3.passed and _orthonormal_by_rows(V))
    assert failing_v3 > 20 and rescaled > 20


def _counting_decisions(monkeypatch):
    """Wrap the (V1)/(V2) kernel; the list it returns collects each call's
    count of nonzero products decided against a span."""
    decided = []
    original = _kernels.span_violation

    def counting(*args):
        count, bad = original(*args)
        decided.append(count)
        return count, bad

    monkeypatch.setattr(_kernels, "span_violation", counting)
    return decided


def _is_full(V, k, t):
    """Whether V_kt is the whole space of n_k x n_t matrices."""
    return V.dim(k, t) == V.partition.size(k) * V.partition.size(t)


def _nonzero_products(V):
    """Nonzero (V1) and (V2) basis products, by naive all-pairs products.

    "v1_open" counts the (V1) ones whose target V_ki is not full: a full
    target holds every product, so verification decides no other (V1)
    product against a span.
    """
    from conelab._kernels import mat_mul, mat_mul_t

    counts = {"v1": 0, "v2": 0, "v1_open": 0}
    for k in range(3, V.r + 1):
        for j in range(2, k):
            for i in range(1, j):
                conditions = (("v1", (k, j), mat_mul), ("v2", (k, i), mat_mul_t))
                for cond, left, mul in conditions:
                    nonzero = sum(
                        any(any(row) for row in mul(E, F))
                        for E in dense_basis(V, *left)
                        for F in dense_basis(V, j, i)
                    )
                    counts[cond] += nonzero
                    if cond == "v1" and not _is_full(V, k, i):
                        counts["v1_open"] += nonzero
    return counts


@pytest.mark.parametrize("rank, nonzero", [(5, 184), (7, 1608)])
def test_verify_span_queries_follow_nonzero_products(monkeypatch, rank, nonzero):
    # of the nonzero (V1)/(V2) products only the (V1) ones into a target
    # that is not full are decided against a span: (V2) passes by its trace
    # identity; at rank 7 the basis pairs number 7596
    from conelab.doubling import iterate_construction

    V = iterate_construction(rank)
    counts = _nonzero_products(V)
    assert counts["v1"] + counts["v2"] == nonzero
    decided = _counting_decisions(monkeypatch)
    assert verify_v_conditions(V).passed
    assert sum(decided) == counts["v1_open"]


@pytest.mark.parametrize(
    "r, products", [(2, 0), (3, 8), (4, 48), (5, 184), (6, 576), (7, 1608), (8, 4176)]
)
def test_verify_query_and_solver_counts(monkeypatch, r, products):
    # products counts the nonzero (V1) and (V2) basis products, equally many
    # in the doubled family (see the test above). Its last-row spaces V_rj
    # are full (n_r = 1, d_rj = n_j), so the triples (i, j, r) form no
    # product: one kernel call per triple with k < r, one span decision per
    # nonzero (V1) product into a target that is not full, none for (V2),
    # and one solver for each target V_ki, k < r, that those calls read;
    # the other spaces have orthogonal bases, independent by (V3)
    from conelab.doubling import iterate_construction

    V = iterate_construction(r)
    counts = _nonzero_products(V)
    assert counts["v1"] + counts["v2"] == products
    assert counts["v1_open"] == (0, 0, 4, 24, 92, 288, 804)[r - 2]
    inits = {"count": 0}
    init = linalg.SpanSolver.__init__

    def counting_init(self, *args, **kwargs):
        inits["count"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(linalg.SpanSolver, "__init__", counting_init)
    decided = _counting_decisions(monkeypatch)
    assert verify_v_conditions(V).passed
    assert inits == {"count": (r - 2) * (r - 3) // 2}
    assert len(decided) == (r - 1) * (r - 2) * (r - 3) // 6
    assert sum(decided) == counts["v1_open"]


def test_verify_reports_first_failing_pair_in_order():
    # V_21 fails (V3) at (1, 2) and (1, 3), V_31 x t(V_21) fails (V2) at
    # (1, 2) and (1, 3); in both joins the first entry of the left element
    # meets element 3 before any entry meets element 2
    from tests.dense_oracle import dense_verify

    V = VCollection(
        BlockPartition((4, 2, 2)),
        {
            (2, 1): [
                [[1, 0, 0, 0], [0, 1, 0, 0]],
                [[0, 1, 0, 0], [0, 0, 1, 0]],
                [[0, 0, 0, 1], [1, 0, 0, 0]],
            ],
            (3, 1): [[[0, 0, 0, 1], [0, 0, 1, 0]]],
            (3, 2): [[[1, 0], [0, 1]]],
        },
    )
    report = verify_v_conditions(V)
    assert report.v3.counterexample == (2, 1, 1, 2)
    assert report.v2.counterexample == (1, 2, 3, 1, 2)
    assert report == dense_verify(V)


def test_verify_skewed_basis_passes_but_not_orthonormal():
    V = VCollection(BlockPartition((2, 1)), {(2, 1): [[[1, 1]], [[1, 0]]]})
    report = verify_v_conditions(V)
    assert report.passed
    assert not report.orthonormal


def _triple_holds(V, i, j, k, transposed):
    """The span_violation verdict of (V1), or of (V2) when transposed, on one
    triple, as _product_condition runs it."""
    left, target = ((k, i), (k, j)) if transposed else ((k, j), (k, i))
    S = V.solver(*target)
    right = V._index(j, i, by_row=not transposed)
    width = V.partition.size(target[1])
    _, bad = _kernels.span_violation(
        V.entries(*left), right, width, S.rows, S.pivots, S.piv_invs
    )
    return bad is None


def _identity_verdicts(V):
    """(identity verdict, kernel verdict) of (V2) on every triple with both
    product spaces V_ki, V_ji nonzero, (V1) holding, and frames on both."""
    out = []
    for k in range(3, V.r + 1):
        for j in range(2, k):
            for i in range(1, j):
                if not (V.dim(k, i) and V.dim(j, i)):
                    continue
                if V.frame(j, i) is None or V.frame(k, i) is None:
                    continue
                if not _triple_holds(V, i, j, k, transposed=False):
                    continue
                identity = core._v2_excess(V, i, j, k) == 0
                out.append((identity, _triple_holds(V, i, j, k, transposed=True)))
    return out


def _bases_for_identity():
    from conelab import rank3
    from conelab.doubling import iterate_construction

    out = [iterate_construction(r) for r in range(2, 10)]
    families = [
        rank3.bundled_family_3_5_7(),
        rank3.composition_family(8, 16),
        rank3.composition_family(4, 8),
        rank3.composition_family(3, 4),
    ]
    for F in families:
        out += [rank3.build_rank3_cone(F), rank3.build_rank3_dual(F)]
    return out


def _variant(V, rng):
    """V with one to three basis elements dropped or rescaled."""
    entries = {key: list(V.entries(*key)) for key in V.spaces()}
    for _ in range(rng.randint(1, 3)):
        key = rng.choice(sorted(entries))
        elements = entries[key]
        a = rng.randrange(len(elements))
        if rng.random() < 0.5:
            del elements[a]
            if not elements:
                del entries[key]
        else:
            c = rng.choice([2, -1, 3, Fraction(1, 2), Fraction(-2, 3)])
            elements[a] = tuple((u, v, c * e) for u, v, e in elements[a])
    return VCollection.from_entries(V.partition, entries)


def test_v2_trace_identity_agrees_with_kernel():
    # the identity tr(Q_ji Q_ki) = n_k d_kj d_ji decides (V2) on a triple
    # exactly as the kernel does, wherever (V1) holds there and both spaces
    # have frames: doubled ranks 2-9, four rank-3 families primal and dual,
    # seeded variants with dropped and rescaled basis elements
    rng = random.Random(19)
    bases = _bases_for_identity()
    verdicts = []
    for V in bases:
        verdicts += _identity_verdicts(V)
    for V in bases[1:6] + bases[8:]:
        for _ in range(40):
            verdicts += _identity_verdicts(_variant(V, rng))
    assert all(identity == kernel for identity, kernel in verdicts)
    assert len(verdicts) > 2000
    assert sum(not kernel for _, kernel in verdicts) > 200


def test_v2_trace_identity_fails_where_v1_and_v3_pass():
    # V_32 = 0 holds (V1) vacuously and (V3) on every space, yet
    # X_31 t(X_21) = [1] is not in V_32: the trace is 1 against 0, and the
    # kernel names the pair
    from tests.dense_oracle import dense_verify

    V = VCollection(BlockPartition((1, 1, 1)), {(2, 1): [[[1]]], (3, 1): [[[1]]]})
    assert core._v2_excess(V, 1, 2, 3) == 1
    report = verify_v_conditions(V)
    assert report.v1.passed and report.v3.passed
    assert report.v2.counterexample == (1, 2, 3, 1, 1)
    assert report == dense_verify(V)


def test_v2_trace_identity_on_frames_with_off_diagonal_entries():
    # partition (2, 1, 1) with V_21 = V_31 = span{(1 1)}: each frame is
    # t(1 1)(1 1) / 2, whose off-diagonal entries come from pairing the two
    # entries of one row, and its trace with the other frame sums them
    from tests.dense_oracle import dense_verify

    row = [[1, 1]]
    V = VCollection(
        BlockPartition((2, 1, 1)), {(2, 1): [row], (3, 1): [row], (3, 2): [[[1]]]}
    )
    half = Fraction(1, 2)
    for key in ((2, 1), (3, 1)):
        assert V.frame(*key) == ([half, half], {(0, 1): half, (1, 0): half})
    assert core._v2_excess(V, 1, 2, 3) == 0
    report = verify_v_conditions(V)
    assert report.passed and report == dense_verify(V)
    # without V_32, X_31 t(X_21) = [2] leaves it: the trace is 1 against 0
    V = VCollection(BlockPartition((2, 1, 1)), {(2, 1): [row], (3, 1): [row]})
    assert core._v2_excess(V, 1, 2, 3) == 1
    report = verify_v_conditions(V)
    assert report.v1.passed and report.v3.passed
    assert report.v2.counterexample == (1, 2, 3, 1, 1)
    assert report == dense_verify(V)
    # X_32 X_21 = (1 2) is not in V_31 = span{(2 1)}
    V = VCollection(
        BlockPartition((2, 1, 1)),
        {(2, 1): [[[1, 2]]], (3, 1): [[[2, 1]]], (3, 2): [[[1]]]},
    )
    report = verify_v_conditions(V)
    assert report.v1.counterexample == (1, 2, 3, 1, 1)
    assert report == dense_verify(V)


def test_full_targets_hold_every_product():
    # verify_v_conditions runs no kernel on a triple whose target is full;
    # run directly on each such triple, the kernel finds no failing pair:
    # doubled ranks 1-7, the rank-3 cones and duals, and seeded variants and
    # entry mutants of them that keep their bases independent
    import itertools

    from conelab import rank3
    from conelab.doubling import iterate_construction
    from tests.test_dense_oracle import _mutants

    rng = random.Random(21)
    bases = [iterate_construction(r) for r in range(1, 8)]
    for F in (rank3.bundled_family_3_5_7(), rank3.composition_family(4, 8),
              rank3.composition_family(1, 2)):
        bases += [rank3.build_rank3_cone(F), rank3.build_rank3_dual(F)]
    sources = list(bases)
    for V in bases[2:]:
        sources += [_variant(V, rng) for _ in range(20)]
        sources += itertools.islice(_mutants(V, rng), 20)
    checked = failing = 0
    for V in sources:
        try:
            failing += not verify_v_conditions(V).passed
        except StructureError:
            continue
        for k in range(3, V.r + 1):
            for j in range(2, k):
                for i in range(1, j):
                    sides = ((False, (k, j), i), (True, (k, i), j))
                    for transposed, left, t in sides:
                        if V.dim(*left) and V.dim(j, i) and _is_full(V, k, t):
                            assert _triple_holds(V, i, j, k, transposed)
                            checked += 1
    assert checked > 2000 and failing > 100


def test_v2_forms_no_product_on_passing_doubled_realization(monkeypatch):
    # at rank 7 every kernel call is a (V1) call: the 20 triples with k < 7,
    # 288 decisions
    from conelab.doubling import iterate_construction

    V = iterate_construction(7)
    decided = _counting_decisions(monkeypatch)
    assert verify_v_conditions(V).passed
    assert (len(decided), sum(decided)) == (20, 288)
    v1_calls = len(decided)
    core._product_condition(V, transposed=False)
    assert len(decided) == 2 * v1_calls


def test_v2_skewed_basis_takes_the_kernel_path(monkeypatch):
    # doubled rank 4 with V_21 spanned by (I 0) and (I I): the same space,
    # but its Gram matrix is not diagonal, so V_21 has no frame and the
    # kernel decides (V2) on (1, 2, 3), whose target V_32 is not full; the
    # other triples with V_21 or V_31 on the left go into full spaces V_4j
    from conelab.doubling import iterate_construction

    V = iterate_construction(4)
    entries = {key: list(V.entries(*key)) for key in V.spaces()}
    first, second = entries[(2, 1)]
    entries[(2, 1)] = [first, first + second]
    V = VCollection.from_entries(V.partition, entries)
    decided = _counting_decisions(monkeypatch)
    report = verify_v_conditions(V)
    assert report.passed and not report.orthonormal
    assert V.frame(2, 1) is None and V.frame(3, 1) is not None
    assert not _is_full(V, 3, 2)
    assert len(decided) == 2


def test_v2_identity_that_the_kernel_refutes_is_an_internal_error(monkeypatch):
    # a trace above n_k d_kj d_ji on a triple the kernel passes, or one below
    # it, cannot happen; either raises instead of reporting
    from conelab.doubling import iterate_construction

    V = iterate_construction(4)
    monkeypatch.setattr(_kernels, "frame_trace", lambda P, Q: 10**6)
    with pytest.raises(RuntimeError, match="fails but every product"):
        verify_v_conditions(V)
    monkeypatch.setattr(_kernels, "frame_trace", lambda P, Q: -1)
    with pytest.raises(RuntimeError, match="falls below"):
        verify_v_conditions(iterate_construction(4))


def test_verify_dependent_basis_rejected():
    # the first dependent space in sorted order is named, before any product
    # is formed: a zero element has no (V3) scalar, so its space is
    # eliminated like one whose Gram matrix is not diagonal, and no Gram
    # matrix is formed after the first (V3) failure, so every later space
    # is eliminated too
    fails_v3 = [[[1], [0]]]  # X tX has rank 1, so it is not scalar
    cases = [
        ((2, 1), {(2, 1): [[[1, 0]], [[2, 0]]]}, "V_21 (vector 2)"),
        ((2, 1), {(2, 1): [[[1, 0]], [[0, 0]]]}, "V_21 (vector 2)"),
        ((1, 2, 1), {(2, 1): fails_v3, (3, 1): [[[1]], [[2]]]}, "V_31 (vector 2)"),
        ((1, 2, 1), {(2, 1): fails_v3 + [[[2], [0]]]}, "V_21 (vector 2)"),
        ((1, 2, 1), {(2, 1): fails_v3, (3, 2): [[[1, 0]], [[0, 0]]]}, "V_32 (vector 2)"),
    ]
    for sizes, bases, where in cases:
        V = VCollection(BlockPartition(sizes), bases)
        with pytest.raises(StructureError) as exc:
            verify_v_conditions(V)
        assert str(exc.value) == "linearly dependent basis in " + where


def test_ldl_identity(omega2, omega3):
    for V in (omega2, omega3):
        res = ldl_decompose(identity_element(V), V)
        assert res.status == "positive" and res.is_member
        assert res.pivots == (1,) * V.r


def test_ldl_member_example(omega2):
    x = cone_element(omega2, (2, 1), {(2, 1): (1, 0)})
    res = ldl_decompose(x, omega2)
    assert res.is_member and res.pivots == (2, Fraction(1, 2))
    # pivot determinant identity against the embedded matrix
    assert linalg.det_exact(embed(x, omega2)) == 2


def test_ldl_non_member_example(omega2):
    x = cone_element(omega2, (1, 1), {(2, 1): (2, 0)})
    res = ldl_decompose(x, omega2)
    assert not res.is_member and res.pivots == (1, -3)
    assert res.status == "indefinite"


def test_ldl_boundary(omega2):
    x = cone_element(omega2, (1, 1), {(2, 1): (1, 0)})
    res = ldl_decompose(x, omega2)
    assert res.status == "boundary" and not res.is_member
    assert res.pivots == (1, 0)


def test_ldl_zero_pivot_over_nonzero_column_is_indefinite(omega2):
    # [[0, 0, 1], [0, 0, 0], [1, 0, 1]] has the minor [[0, 1], [1, 1]] of
    # determinant -1: eigenvalues of both signs, and no factor
    x = cone_element(omega2, (0, 1), {(2, 1): (1, 0)})
    res = ldl_decompose(x, omega2)
    assert res.status == "indefinite"
    assert res.unit is None
    assert res.pivots == (0,)
    assert not res.is_member


def _rebuild(res, V):
    """U D tU from an LdlResult, by schoolbook sums."""
    part = V.partition
    N = part.total
    U = embed_group(res.unit, V)
    D = [[0] * N for _ in range(N)]
    for i in range(1, part.r + 1):
        for t in range(part.size(i)):
            D[part.offset(i) + t][part.offset(i) + t] = res.pivots[i - 1]
    UD = [[sum(U[a][b] * D[b][c] for b in range(N)) for c in range(N)] for a in range(N)]
    return [
        [sum(UD[a][b] * U[c][b] for b in range(N)) for c in range(N)]
        for a in range(N)
    ]


def test_ldl_reconstruction(omega3):
    sampler = RationalSampler(seed=9)
    part = omega3.partition
    for _ in range(10):
        x = sampler.interior_element(omega3)
        res = ldl_decompose(x, omega3)
        assert res.is_member
        assert _rebuild(res, omega3) == embed(x, omega3)
        # det X = prod pivot^block-size
        det = 1
        for i in range(1, 4):
            det *= res.pivots[i - 1] ** part.size(i)
        assert linalg.det_exact(embed(x, omega3)) == det


def test_ldl_agrees_with_minors(omega2, omega3):
    sampler = RationalSampler(seed=10, max_numerator=20)
    for V in (omega2, omega3):
        for _ in range(40):
            x = sampler.cone_element(V)
            verdict, _ = is_positive_definite_minors(embed(x, V))
            assert is_member(x, V) == verdict


def test_interior_sampler_members(omega2, omega3):
    sampler = RationalSampler(seed=11)
    for V in (omega2, omega3):
        for _ in range(10):
            assert is_member(sampler.interior_element(V), V)


def test_boundary_sampler(omega3):
    # a zero pivot inside the elimination leaves blocks that cancel exactly;
    # they must not read as a nonzero column under that pivot
    from conelab.doubling import iterate_construction

    sampler = RationalSampler(seed=12)
    for V in (omega3, iterate_construction(5)):
        for _ in range(10):
            x = sampler.boundary_element(V, zeros=1)
            res = ldl_decompose(x, V)
            assert res.status == "boundary"
            assert x != cone_element(V, (0,) * V.r)
            assert _rebuild(res, V) == embed(x, V)


@pytest.mark.parametrize("rank", [6, 7, 8])
def test_ldl_pivots_are_equivariant(rank):
    # h.(U D tU) = U' (A D A) tU' with A = diag(h) and U' = h U A^-1 unit
    from conelab.doubling import iterate_construction

    V = iterate_construction(rank)
    sampler = RationalSampler(seed=rank)
    for x in (sampler.cone_element(V), sampler.interior_element(V)):
        h = sampler.group_element(V)
        d = ldl_decompose(x, V).pivots
        assert len(d) == rank
        moved = ldl_decompose(rho_act(h, x, V), V).pivots
        assert moved == tuple(a * a * p for a, p in zip(h.diag, d))
