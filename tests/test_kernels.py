"""Kernel tests for conelab._kernels.

Oracles are deliberately naive: permutation-expansion determinants, cofactor
minors, and schoolbook matrix products over Fraction arithmetic.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab import _kernels
from conelab.errors import StructureError
from conelab.linalg import SpanSolver
from tests.dense_oracle import DenseSpan, bareiss_minors


# a single param, so the tests keep their "[python]" ids
@pytest.fixture(params=[_kernels], ids=["python"], scope="module")
def kernels(request):
    return request.param


def naive_mat_mul(A, B):
    n, inner, m = len(A), len(B), len(B[0]) if B else 0
    return [
        [sum(A[i][k] * B[k][j] for k in range(inner)) for j in range(m)]
        for i in range(n)
    ]


def naive_det(A):
    n = len(A)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            while seen[i] != i:
                j = seen[i]
                seen[i], seen[j] = seen[j], seen[i]
                sign = -sign
        prod = sign
        for i in range(n):
            prod *= A[i][perm[i]]
        total += prod
    return total


def _rand_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


ints = st.integers(min_value=-30, max_value=30)


@given(st.lists(st.tuples(ints, ints), max_size=8))
def test_dot_matches_sum(kernels, pairs):
    u = [p[0] for p in pairs]
    v = [p[1] for p in pairs]
    assert kernels.dot(u, v) == sum(a * b for a, b in zip(u, v))


def test_dot_empty(kernels):
    assert kernels.dot([], []) == 0


def test_mat_mul_matches_naive(kernels):
    rng = random.Random(1)
    for _ in range(30):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        A = _rand_matrix(rng, n, k)
        B = _rand_matrix(rng, k, m)
        assert kernels.mat_mul(A, B) == naive_mat_mul(A, B)


def test_mat_mul_fractions(kernels):
    A = [[Fraction(1, 2), Fraction(1, 3)], [0, Fraction(-2, 5)]]
    B = [[Fraction(3, 7), 1], [Fraction(5, 2), Fraction(1, 6)]]
    assert kernels.mat_mul(A, B) == naive_mat_mul(A, B)


def test_mat_mul_t_is_mul_by_transpose(kernels):
    rng = random.Random(2)
    for _ in range(20):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        A = _rand_matrix(rng, n, k)
        B = _rand_matrix(rng, m, k)
        Bt = [[B[j][i] for j in range(m)] for i in range(k)]
        assert kernels.mat_mul_t(A, B) == naive_mat_mul(A, Bt)


def test_sym_pair_scalar_identity_pair(kernels):
    X = [[1, 0], [0, 1]]
    assert kernels.sym_pair_scalar(X, X) == 1


def test_sym_pair_scalar_orthogonal_slabs(kernels):
    X = [[1, 0, 0, 0], [0, 1, 0, 0]]
    Y = [[0, 0, 1, 0], [0, 0, 0, 1]]
    assert kernels.sym_pair_scalar(X, Y) == 0
    assert kernels.sym_pair_scalar(X, X) == 1


def test_sym_pair_scalar_rows(kernels):
    # 1x2 rows: the symmetrized product is the 1x1 matrix (2 u.v)
    assert kernels.sym_pair_scalar([[1, 1]], [[1, 0]]) == 1
    assert kernels.sym_pair_scalar([[1, 2]], [[1, 2]]) == 5


def test_sym_pair_scalar_rejects_non_scalar(kernels):
    X = [[1, 0], [0, 1]]
    N = [[0, 1], [0, 0]]
    assert kernels.sym_pair_scalar(X, N) is None


def test_sym_pair_scalar_halves_odd_values(kernels):
    v = kernels.sym_pair_scalar([[1, 1]], [[1, 0]])
    assert v == 1 and isinstance(v, int)
    assert kernels.sym_pair_scalar([[1]], [[3]]) == 3


def test_bareiss_det_matches_naive(kernels):
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        A = _rand_matrix(rng, n, n)
        assert kernels.bareiss_det(A) == naive_det(A)


def test_bareiss_det_singular_and_pivoting(kernels):
    assert kernels.bareiss_det([[0, 1], [1, 0]]) == -1
    assert kernels.bareiss_det([[0, 0], [0, 0]]) == 0
    assert kernels.bareiss_det([[1, 2], [2, 4]]) == 0
    # zero leading pivot forces a row swap mid-elimination
    A = [[0, 2, 1], [3, 0, 0], [1, 1, 1]]
    assert kernels.bareiss_det(A) == naive_det(A)


def test_bareiss_det_zero_multiplier_rows_rescale(kernels):
    # rows with a zero under the pivot still need the prev-divisor rescale
    A = [[2, 0, 1], [0, 3, 1], [4, 0, 5]]
    assert kernels.bareiss_det(A) == naive_det(A)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
        min_size=4,
        max_size=4,
    )
)
def test_bareiss_det_property(kernels, rows):
    assert kernels.bareiss_det(rows) == naive_det(rows)


def test_bareiss_minors_match_cofactor_dets(kernels):
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(1, 5)
        A = _rand_matrix(rng, n, n)
        minors, completed = bareiss_minors(A)
        expected = [naive_det([row[: k + 1] for row in A[: k + 1]]) for k in range(n)]
        assert minors == expected[: len(minors)]
        if completed:
            assert len(minors) == n
        else:
            assert 0 in minors[:-1] or minors[-1] == 0


def test_bareiss_minors_stop_on_zero(kernels):
    minors, completed = bareiss_minors([[0, 1], [1, 0]])
    assert minors == [0] and not completed
    minors, completed = bareiss_minors([[1, 1], [1, 1]])
    assert minors == [1, 0] and completed


def test_reduce_and_collect_residual_identity(kernels):
    # sparse rows {index: value}, pivots at their smallest index
    rows = [{0: 1, 2: 2}, {1: 1, 2: -1}]
    pivots = {0: 0, 1: 1}
    piv_invs = [1, 1]
    v = {0: 3, 1: 4, 2: 1}
    coeffs = kernels.reduce_and_collect(v, rows, pivots, piv_invs)
    assert coeffs == [3, 4]
    # v now holds the residual: original - 3*row0 - 4*row1
    assert v == {2: 1 - 6 + 4}


def test_reduce_and_collect_fraction_pivots(kernels):
    rows = [{0: Fraction(2)}, {1: Fraction(3)}]
    piv_invs = [Fraction(1, 2), Fraction(1, 3)]
    v = {0: Fraction(1), 1: Fraction(1)}
    coeffs = kernels.reduce_and_collect(v, rows, {0: 0, 1: 1}, piv_invs)
    assert coeffs == [Fraction(1, 2), Fraction(1, 3)]
    assert v == {}


def _sparse_rand_matrix(rng, rows, cols):
    values = (0, 0, 0, 1, -1, 2, Fraction(1, 3))
    return [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]


def _as_sparse_vector(M):
    width = len(M[0])
    return {u * width + v: e for u, row in enumerate(M) for v, e in enumerate(row) if e}


def _naive_pairs(left, right, transposed):
    """{(a, b): nonzero product as a sparse vector} over all basis pairs."""
    out = {}
    for a, A in enumerate(left):
        for b, B in enumerate(right):
            if transposed:
                B = [list(col) for col in zip(*B)]
            P = _as_sparse_vector(naive_mat_mul(A, B))
            if P:
                out[(a, b)] = P
    return out


def _span(rng, vectors, width):
    """A span of some independent vectors, some of them given: its SpanSolver
    rows and the membership test of the dense oracle."""
    pool = list(vectors) + [
        _as_sparse_vector(_sparse_rand_matrix(rng, 1, width)) for _ in range(3)
    ]
    rng.shuffle(pool)
    chosen = []
    for v in pool[: rng.randint(0, len(pool))]:
        try:
            SpanSolver([dict(w) for w in chosen + [v]])
        except StructureError:
            continue
        chosen.append(v)
    S = SpanSolver([dict(v) for v in chosen])
    oracle = DenseSpan([[v.get(i, 0) for i in range(width)] for v in chosen])
    return (S.rows, S.pivots, S.piv_invs), oracle


def _first_outside(products, oracle, width):
    """(decided, bad) over the naive nonzero products, by the dense oracle."""
    decided = 0
    for pair in sorted(products):
        decided += 1
        if not oracle.contains([products[pair].get(i, 0) for i in range(width)]):
            return decided, pair
    return decided, None


def _violation(kernels, left, right, transposed, width, span):
    index = kernels.space_index(
        [kernels.sparse_entries(B) for B in right], by_row=not transposed
    )
    left = [kernels.sparse_entries(A) for A in left]
    return kernels.span_violation(left, index, width, *span)


def test_span_violation_matches_naive_products(kernels):
    rng = random.Random(5)
    outcomes = set()
    for _ in range(200):
        n, inner, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        left = [_sparse_rand_matrix(rng, n, inner) for _ in range(rng.randint(1, 4))]
        right = [_sparse_rand_matrix(rng, inner, m) for _ in range(rng.randint(1, 4))]
        right_t = [_sparse_rand_matrix(rng, m, inner) for _ in right]
        for R, transposed in ((right, False), (right_t, True)):
            products = _naive_pairs(left, R, transposed)
            # spans that hold some of the products, so both verdicts occur,
            # and sometimes the zero-dimensional span
            half = rng.sample(list(products.values()), len(products) // 2)
            span, oracle = _span(rng, half, n * m)
            if rng.random() < 0.2:
                span, oracle = ((), {}, ()), DenseSpan([])
            want = _first_outside(products, oracle, n * m)
            assert _violation(kernels, left, R, transposed, m, span) == want
            outcomes.add(want[1] is None)
    assert outcomes == {True, False}


def test_span_violation_skips_cancelled_products(kernels):
    # A_0·B_0 cancels to zero entirely, so it is not decided even against a
    # zero-dimensional span; A_0·B_1 cancels in one entry only
    left = [[[1, 1], [2, 2]]]
    right = [[[1, 0], [-1, 0]], [[1, 1], [-1, 1]]]
    assert _naive_pairs(left, right, False) == {(0, 1): {1: 2, 3: 4}}
    assert _violation(kernels, left, right, False, 2, ((), {}, ())) == (1, (0, 1))
    inside = ([{1: 1, 3: 2}], {1: 0}, [1])
    assert _violation(kernels, left, right, False, 2, inside) == (1, None)
    # an entry that is not in the product but in the combination fails it
    wider = ([{1: 1, 2: 5, 3: 2}], {1: 0}, [1])
    assert _violation(kernels, left, right, False, 2, wider) == (1, (0, 1))


def test_gram_violation_matches_sym_pair_scalar(kernels):
    rng = random.Random(6)
    seen = set()
    for _ in range(300):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        X = _sparse_rand_matrix(rng, n, m)
        # multiples of X, random and zero elements: scalar and non-scalar
        # pairs, and pairs whose product is zero
        elements = [X]
        for _ in range(rng.randint(0, 3)):
            elements.append(rng.choice((
                [[-e for e in row] for row in X],
                [[2 * e for e in row] for row in X],
                _sparse_rand_matrix(rng, n, m),
                [[0] * m for _ in range(n)],
            )))
        want_G = [{} for _ in elements]
        want_bad = None
        for a, b in itertools.combinations_with_replacement(range(len(elements)), 2):
            c = kernels.sym_pair_scalar(elements[a], elements[b])
            if c is None:
                want_bad = (a, b)
                break
            if c:
                want_G[a][b] = want_G[b][a] = c
        sparse = [kernels.sparse_entries(E) for E in elements]
        G, bad = kernels.gram_violation(sparse, kernels.space_index(sparse, False), n)
        assert (G, bad) == (want_G, want_bad)
        seen.add(bad is None)
    assert seen == {True, False}


def _gram(kernels, elements):
    sparse = [kernels.sparse_entries(E) for E in elements]
    return kernels.gram_violation(sparse, kernels.space_index(sparse, False), len(elements[0]))


def test_gram_violation_cancelled_and_partial_diagonal(kernels):
    # X_0·tX_1 sums 1 - 1 to zero: the pair is scalar 0 with no Gram entry
    assert _gram(kernels, [[[1, 1]], [[1, -1]]]) == ([{0: 2}, {1: 2}], None)
    # I·tX_1 is skew, so it pairs to 0; I·tX_2 has a diagonal entry on one
    # of its two rows only, which is not scalar; the rows decided before it
    # are returned
    identity, skew, corner = [[1, 0], [0, 1]], [[0, 1], [-1, 0]], [[1, 0], [0, 0]]
    assert _gram(kernels, [identity, skew, corner]) == ([{0: 1}, {}, {}], (0, 2))


def _row_dict(M):
    return {u: {v: e for v, e in enumerate(row) if e} for u, row in enumerate(M) if any(row)}


def test_block_kernels_match_naive(kernels):
    rng = random.Random(7)
    for _ in range(200):
        n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        A, B = _sparse_rand_matrix(rng, n, k), _sparse_rand_matrix(rng, k, m)
        C = _sparse_rand_matrix(rng, n, m)
        f = rng.choice((1, -1, Fraction(2, 3)))
        want = [
            [f * c + p for c, p in zip(rc, rp)]
            for rc, rp in zip(C, naive_mat_mul(A, B))
        ]
        acc = kernels.block_add({}, _row_dict(C), f)
        acc = kernels.block_addmul(acc, _row_dict(A), _row_dict(B))
        assert kernels.block_strip(acc) == _row_dict(want)
        lower = kernels.block_addmul({}, _row_dict(A), _row_dict(B), lower=True)
        assert kernels.block_strip(lower) == _row_dict(
            [[p if w <= u else 0 for w, p in enumerate(row)]
             for u, row in enumerate(naive_mat_mul(A, B))]
        )
        assert kernels.block_transpose(_row_dict(A)) == _row_dict(
            [list(col) for col in zip(*A)]
        )
        acc = kernels.block_add(_row_dict(C), _row_dict(C), -1)
        assert kernels.block_strip(acc) == {}


def test_block_scalar(kernels):
    assert kernels.block_scalar({}, 3) == 0
    assert kernels.block_scalar({0: {0: 5}, 1: {1: 5}, 2: {2: 5}}, 3) == 5
    assert kernels.block_scalar({0: {0: 5}, 1: {1: 5}}, 3) is None  # a zero row
    assert kernels.block_scalar({0: {0: 5}, 1: {1: 4}}, 2) is None
    assert kernels.block_scalar({0: {0: 5}, 1: {0: 1, 1: 5}}, 2) is None
    assert kernels.block_scalar({0: {0: 5, 1: 0}, 1: {0: 0, 1: 5}}, 2) == 5
    # a symmetric block is read below the diagonal only
    assert kernels.block_scalar({0: {0: 5, 1: 7}, 1: {1: 5}}, 2) == 5
