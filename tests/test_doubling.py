from fractions import Fraction

import pytest

from conelab import doubling
from conelab.core import BlockPartition, VCollection, verify_v_conditions
from conelab.degrees import degrees_from_sigma, sigma_from_dims
from conelab.doubling import DEFAULT_RANK_CAP, double, iterate_construction
from conelab.errors import StructureError
from tests.dense_oracle import dense_basis


def test_double_half_line_gives_omega2():
    V1 = VCollection(BlockPartition((1,)), {})
    V2 = double(V1)
    assert V2.partition.sizes == (2, 1)
    assert dense_basis(V2, 2, 1) == (((1, 0),), ((0, 1),))
    assert verify_v_conditions(V2).passed


def test_double_omega2_structure():
    V3 = iterate_construction(3)
    assert V3.partition.sizes == (4, 2, 1)
    t = V3.dims_table()
    assert (t.d(2, 1), t.d(3, 1), t.d(3, 2)) == (2, 4, 2)
    # new first column: identity slabs
    assert dense_basis(V3, 2, 1)[0] == ((1, 0, 0, 0), (0, 1, 0, 0))
    assert dense_basis(V3, 2, 1)[1] == ((0, 0, 1, 0), (0, 0, 0, 1))
    # widened copies of the old V_21 rows, left slab then right slab
    assert dense_basis(V3, 3, 1) == (
        ((1, 0, 0, 0),),
        ((0, 1, 0, 0),),
        ((0, 0, 1, 0),),
        ((0, 0, 0, 1),),
    )
    # the old first column reappears shifted
    assert dense_basis(V3, 3, 2) == (((1, 0),), ((0, 1),))


def test_double_requires_valid_input():
    bad = VCollection(
        BlockPartition((1, 1, 1)),
        {(2, 1): [[[1]]], (3, 1): [[[1]]]},
    )
    with pytest.raises(StructureError, match="closure"):
        double(bad)


def test_double_honours_rank_cap(monkeypatch):
    monkeypatch.setattr(doubling, "DEFAULT_RANK_CAP", 3)
    V3 = iterate_construction(3)
    with pytest.raises(StructureError, match="rank 4 exceeds the cap 3"):
        double(V3)
    assert double(iterate_construction(2)).partition.sizes == (4, 2, 1)


@pytest.mark.parametrize("r", range(2, 8))
def test_construction_restricts_to_previous_rank(r):
    # blocks 2..r of the rank-r result are the rank-(r-1) result, so one
    # verification of the rank-r result covers every doubling step
    V, W = iterate_construction(r), iterate_construction(r - 1)
    assert V.partition.sizes[1:] == W.partition.sizes
    assert V.partition.size(1) == 2 * W.partition.size(1)
    for k, j in W.pairs():
        assert dense_basis(V, k + 1, j + 1) == dense_basis(W, k, j)
    assert all(V.dim(k, 1) for k in range(2, r + 1))


@pytest.mark.parametrize("r", range(1, 10))
def test_doubling_stores_canonical_entries(r):
    # _double_unchecked stores its entries without from_entries' checks
    V = iterate_construction(r)
    entries = {key: V.entries(*key) for key in V.spaces()}
    assert VCollection.from_entries(V.partition, entries) == V
    for (k, j), elements in entries.items():
        nk, nj = V.partition.size(k), V.partition.size(j)
        for E in elements:
            positions = [(u, v) for u, v, _ in E]
            assert positions == sorted(set(positions))
            assert all(0 <= u < nk and 0 <= v < nj for u, v in positions)
            assert all(type(e) is int and e for _, _, e in E)


def test_from_entries_matches_dense_construction():
    third = Fraction(1, 3)
    part = BlockPartition((2, 1))
    dense = VCollection(part, {(2, 1): [[[1, 1]], [[third, 0]]]})
    # unsorted entries and explicit zeros are canonicalized
    sparse = VCollection.from_entries(
        part, {(2, 1): [[(0, 1, 1), (0, 0, 1)], [(0, 0, third), (0, 1, 0)]]}
    )
    assert sparse == dense
    assert dense_basis(sparse, 2, 1) == dense_basis(dense, 2, 1)
    assert dense_basis(dense, 2, 1) == (((1, 1),), ((third, 0),))
    bad_elements = (
        [(0, 2, 1)], [(1, 0, 1)], [(0.0, 0, 1)], [(0, 0, 1), (0, 0, 2)], [(0, 0, 0.5)]
    )
    for bad in bad_elements:
        with pytest.raises(StructureError):
            VCollection.from_entries(part, {(2, 1): [bad]})


def test_double_preserves_verification_rank4():
    V = iterate_construction(4)
    report = verify_v_conditions(V)
    assert report.passed
    assert V.partition.sizes == (8, 4, 2, 1)
    assert all(v == 2 ** (k - j) for (k, j), v in V.dims_table().items())


def test_iterate_rank5_totals_and_degree():
    V = iterate_construction(5)
    assert V.partition.total == 31
    degs = degrees_from_sigma(sigma_from_dims(V.dims_table()))
    assert degs[-1] == 16


def test_iterate_validates_rank():
    with pytest.raises(StructureError):
        iterate_construction(0)
    with pytest.raises(StructureError):
        iterate_construction(True)
    with pytest.raises(StructureError, match="exceeds the cap"):
        iterate_construction(DEFAULT_RANK_CAP + 1)


def test_rank_cap_is_a_constant_read_at_call_time(monkeypatch):
    assert DEFAULT_RANK_CAP == 13
    with pytest.raises(StructureError, match=r"^rank 14 exceeds the cap 13$"):
        iterate_construction(14)
    monkeypatch.setattr(doubling, "DEFAULT_RANK_CAP", 3)
    with pytest.raises(StructureError, match="exceeds the cap 3"):
        iterate_construction(4)
    assert iterate_construction(3).partition.total == 7


def test_double_general_input_not_from_iteration():
    # a skew but valid basis still doubles into a valid realization
    V = VCollection(BlockPartition((2, 1)), {(2, 1): [[[1, 1]], [[1, 0]]]})
    assert verify_v_conditions(V).passed
    W = double(V)
    report = verify_v_conditions(W)
    assert report.passed
    assert W.partition.sizes == (4, 2, 1)
    assert W.dims_table().d(3, 1) == 4
    assert dense_basis(W, 3, 2) == (((1, 1),), ((1, 0),))


# the doubled family in closed form: an oracle independent of the kernels


def _closed_form(r, k, j):
    """E^{kj}_s = e_s^T (x) I_{n_k} for s < m_kj = 2^(k-j), as sorted entries."""
    nk = 2 ** (r - k)
    return tuple(
        tuple((u, s * nk + u, 1) for u in range(nk)) for s in range(2 ** (k - j))
    )


def _sparse_product(A, B, transposed):
    """A·B, or A·tB when transposed, from entries; {(u, v): value} of nonzeros."""
    rows = {}
    for u, v, e in B:
        w, col = (v, u) if transposed else (u, v)
        rows.setdefault(w, []).append((col, e))
    out = {}
    for u, w, x in A:
        for v, y in rows.get(w, ()):
            out[(u, v)] = out.get((u, v), 0) + x * y
    return {key: z for key, z in out.items() if z}


@pytest.mark.parametrize("r", range(1, 11))
def test_iterate_construction_is_the_closed_form(r):
    V = iterate_construction(r)
    assert V.partition.sizes == tuple(2 ** (r - k) for k in range(1, r + 1))
    assert V.spaces() == V.pairs()
    for k, j in V.pairs():
        assert V.entries(k, j) == _closed_form(r, k, j)
    # and r - 1 copying steps (_copying_double below) build the same
    W = VCollection(BlockPartition((1,)), {})
    for _ in range(r - 1):
        W = _copying_double(W)
    assert V == W


@pytest.mark.parametrize("r", range(3, 8))
def test_doubled_products_follow_the_structure_constants(r):
    # (V1) E^kj_s E^ji_t = E^ki_{s + t m_kj}; (V2) E^ki_c tE^ji_t =
    # E^kj_{c - t m_kj} when t m_kj <= c < (t + 1) m_kj, and 0 otherwise
    V = iterate_construction(r)
    nonzero = 0
    for k in range(3, r + 1):
        for j in range(2, k):
            for i in range(1, j):
                m = 2 ** (k - j)
                right = V.entries(j, i)
                for left, target, transposed in (
                    ((k, j), (k, i), False),
                    ((k, i), (k, j), True),
                ):
                    basis = _closed_form(r, *target)
                    for a, A in enumerate(V.entries(*left)):
                        for t, B in enumerate(right):
                            P = _sparse_product(A, B, transposed)
                            if not transposed:
                                want = a + t * m
                            elif t * m <= a < (t + 1) * m:
                                want = a - t * m
                            else:
                                assert P == {}
                                continue
                            assert P == {(u, v): 1 for u, v, _ in basis[want]}
                            nonzero += 1
    # the count of nonzero products the (V1)/(V2) kernel decides
    assert nonzero == {3: 8, 4: 48, 5: 184, 6: 576, 7: 1608}[r]


@pytest.mark.parametrize("r", range(2, 8))
def test_doubled_bases_are_orthonormal_in_v3(r):
    # E^kj_s tE^kj_s' = delta_ss' I_{n_k}
    V = iterate_construction(r)
    for k, j in V.pairs():
        identity = {(u, u): 1 for u in range(V.partition.size(k))}
        basis = V.entries(k, j)
        for s, X in enumerate(basis):
            for t, Y in enumerate(basis):
                assert _sparse_product(X, Y, True) == (identity if s == t else {})


# the step with (E 0) built as a fresh copy of each E: the oracle that the
# shared left slab must reproduce


def _copying_double(V):
    """The doubling step, every new first-column element written out anew."""
    part = V.partition
    n1 = part.size(1)
    entries = {(2, 1): [[(t, half * n1 + t, 1) for t in range(n1)] for half in range(2)]}
    for k in range(2, part.r + 1):
        old = V.entries(k, 1)
        if old:
            entries[(k + 1, 1)] = [
                [(u, half * n1 + v, e) for u, v, e in E] for half in range(2) for E in old
            ]
    for k, j in V.spaces():
        entries[(k + 1, j + 1)] = V.entries(k, j)
    return VCollection.from_entries(BlockPartition((2 * n1,) + part.sizes), entries)


def _rank3_input(family, dual):
    from conelab import rank3

    F = (
        rank3.bundled_family_3_5_7()
        if family == "3_5_7"
        else rank3.composition_family(*map(int, family.split("_")))
    )
    return (rank3.build_rank3_dual if dual else rank3.build_rank3_cone)(F)


@pytest.mark.parametrize("family", ["3_5_7", "4_8", "1_2"])
@pytest.mark.parametrize("dual", [False, True])
def test_double_of_rank3_cones_passes_with_the_doubled_table(family, dual):
    # the rank-free statement of the module docstring on inputs that are
    # not doubled: d_21 = 2, d_(k+1)1 = 2 d_k1, d_(k+1)(j+1) = d_kj; the
    # result is the copying step's
    V = _rank3_input(family, dual)
    W = double(V)
    assert W == _copying_double(V)
    assert verify_v_conditions(W).passed
    t, u = V.dims_table(), W.dims_table()
    assert u.d(2, 1) == 2
    for k in range(2, V.r + 1):
        assert u.d(k + 1, 1) == 2 * t.d(k, 1)
        for j in range(1, k):
            assert u.d(k + 1, j + 1) == t.d(k, j)


@pytest.mark.parametrize("source", ["doubled-6", "3_5_7-cone", "4_8-dual"])
def test_left_slab_is_the_old_first_column(source):
    # the step allocates no (E 0): W_(k+1)1 starts with V_k1's own elements,
    # followed by as many right-slab copies
    if source.startswith("doubled"):
        V = iterate_construction(int(source[-1]))
    else:
        family, side = source.split("-")
        V = _rank3_input(family, side == "dual")
    W = double(V)
    for k in range(2, V.r + 1):
        old, new = V.entries(k, 1), W.entries(k + 1, 1)
        assert len(new) == 2 * len(old)
        assert all(a is b for a, b in zip(new, old))
