import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conelab import _kernels, linalg
from conelab.errors import StructureError
from tests.dense_oracle import (
    bareiss_minors,
    dense_det,
    dense_solve_linear,
    is_positive_definite_minors,
    leading_principal_minors,
    mat_sub,
    scalar_mul,
)
from tests.test_kernels import naive_det, naive_mat_mul


def _rand_frac(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def test_identity_zeros_transpose():
    assert linalg.identity(2) == [[1, 0], [0, 1]]
    assert linalg.transpose([[1, 2, 3], [4, 5, 6]]) == [[1, 4], [2, 5], [3, 6]]


def test_mat_vec_and_arithmetic():
    A = [[1, 2], [3, 4]]
    assert linalg.mat_vec(A, [1, -1]) == [-1, -1]
    assert mat_sub(A, A) == [[0, 0], [0, 0]]
    assert scalar_mul(Fraction(1, 2), A) == [
        [Fraction(1, 2), 1],
        [Fraction(3, 2), 2],
    ]


def test_kron_block_structure():
    P = [[0, 1], [1, 0]]
    I2 = linalg.identity(2)
    K = linalg.kron(P, I2)
    assert K == [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]
    # mixed-size sanity: (A kron B)(C kron D) = AC kron BD
    rng = random.Random(11)
    A = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
    B = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
    C = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
    D = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
    lhs = naive_mat_mul(linalg.kron(A, B), linalg.kron(C, D))
    rhs = linalg.kron(naive_mat_mul(A, C), naive_mat_mul(B, D))
    assert lhs == rhs


def test_vec_matrix_row_major():
    assert linalg.vec_matrix([[1, 2], [3, 4]]) == [1, 2, 3, 4]


def test_is_symmetric():
    assert linalg.is_symmetric([[1, 2], [2, 3]])
    assert not linalg.is_symmetric([[1, 2], [0, 3]])


def test_exact_inv_and_div():
    assert linalg.exact_inv(2) == Fraction(1, 2)
    assert linalg.exact_inv(Fraction(-3, 7)) == Fraction(-7, 3)
    assert linalg.exact_div(1, 3) == Fraction(1, 3)
    assert linalg.exact_div(4, 2) == 2
    with pytest.raises(ZeroDivisionError):
        linalg.exact_inv(0)


def test_normalize_rational():
    assert linalg.normalize_rational(Fraction(4, 2)) == 2
    assert isinstance(linalg.normalize_rational(Fraction(4, 2)), int)
    assert linalg.normalize_rational(Fraction(1, 3)) == Fraction(1, 3)
    assert linalg.normalize_rational(7) == 7


def test_clear_denominators():
    A = [[Fraction(1, 2), 1], [Fraction(1, 3), 0]]
    A_int, scale = linalg.clear_denominators(A)
    assert scale == 6
    assert A_int == [[3, 6], [2, 0]]


def test_det_exact_matches_naive():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(1, 4)
        A = [[_rand_frac(rng) for _ in range(n)] for _ in range(n)]
        assert linalg.det_exact(A) == naive_det(A)
    assert linalg.det_exact([]) == 1


def test_leading_principal_minors():
    A = [[2, 1], [1, 1]]
    minors, completed = leading_principal_minors(A)
    assert minors == [2, 1] and completed
    A = [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
    minors, completed = leading_principal_minors(A)
    assert minors == [Fraction(1, 2), Fraction(1, 4)] and completed
    minors, completed = leading_principal_minors([[0, 1], [1, 0]])
    assert minors == [0] and not completed


def test_is_positive_definite_minors():
    ok, minors = is_positive_definite_minors([[2, 1], [1, 1]])
    assert ok and minors == [2, 1]
    ok, _ = is_positive_definite_minors([[1, 2], [2, 1]])
    assert not ok
    ok, _ = is_positive_definite_minors([[0, 0], [0, 1]])
    assert not ok


def test_solve_linear():
    A = [[2, 1], [1, 3]]
    b = [3, 5]
    x = linalg.solve_linear(A, b)
    assert linalg.mat_vec(A, x) == b
    with pytest.raises(StructureError, match="singular"):
        linalg.solve_linear([[1, 1], [1, 1]], [1, 0])


def test_solve_linear_matches_fraction_gauss():
    """The fraction-free solve against the Fraction elimination it replaced."""
    half = Fraction(1, 2)
    # zero leading entry: the first column needs a row swap, twice over
    swap = [[0, 2, 1], [0, half, 3], [Fraction(1, 3), 1, 0]]
    b = [1, Fraction(-2, 7), 5]
    assert linalg.solve_linear(swap, b) == dense_solve_linear(swap, b)
    assert linalg.mat_vec(swap, linalg.solve_linear(swap, b)) == b
    singular = [[half, 1, 0], [1, 2, 0], [0, 0, Fraction(3, 5)]]
    for solve in (linalg.solve_linear, dense_solve_linear):
        with pytest.raises(StructureError, match="singular"):
            solve(singular, [1, 1, 1])
    assert linalg.solve_linear([], []) == dense_solve_linear([], []) == []
    # rows that skip pivot columns, then take part: each step leaves most
    # rows as they are and divides a row by the pivot it last saw
    arrow = [
        [3, 0, 0, 1, Fraction(2, 3)],
        [0, 3, 0, 0, 1],
        [0, 0, 3, Fraction(-1, 2), 1],
        [1, 0, Fraction(-1, 2), 5, 0],
        [Fraction(2, 3), 1, 1, 0, 5],
    ]
    b = [1, Fraction(1, 4), 0, -2, 3]
    assert linalg.solve_linear(arrow, b) == dense_solve_linear(arrow, b)
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 7)
        A = [
            [_rand_frac(rng) if rng.random() < 0.6 else 0 for _ in range(n)]
            for _ in range(n)
        ]
        b = [_rand_frac(rng) for _ in range(n)]
        try:
            want = dense_solve_linear(A, b)
        except StructureError:
            with pytest.raises(StructureError, match="singular"):
                linalg.solve_linear(A, b)
            continue
        assert linalg.solve_linear(A, b) == want


def _random_system(rng, n, density):
    """A random rational n x n matrix and right side.

    Each row has a nonzero in the column a random permutation gives it, so
    most are regular however sparse; about one in four is made singular, and
    a zero first column entry forces a row swap.
    """
    A = [
        [_rand_frac(rng) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(n)
    ]
    for i, j in enumerate(rng.sample(range(n), n)):
        A[i][j] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
    if n >= 2 and rng.random() < 0.25:
        i, j = rng.sample(range(n), 2)
        A[i] = [2 * e for e in A[j]]
    if n and rng.random() < 0.5:
        A[0][0] = 0
    return A, [_rand_frac(rng) for _ in range(n)]


@pytest.mark.parametrize("density", [0.25, 0.6, 1.0])
def test_det_and_solve_match_dense_oracles(density):
    """det_exact and solve_linear against the Fraction eliminations."""
    rng = random.Random(int(density * 100))
    seen = {"singular": 0, "swap": 0}
    for _ in range(150):
        A, b = _random_system(rng, rng.randint(0, 8), density)
        det = dense_det(A)
        assert linalg.det_exact(A) == det
        assert linalg.det_exact([tuple(row) for row in A]) == det
        if det == 0:
            seen["singular"] += 1
            with pytest.raises(StructureError, match="singular"):
                linalg.solve_linear(A, b)
            continue
        seen["swap"] += bool(A) and not A[0][0]
        assert linalg.solve_linear(A, b) == dense_solve_linear(A, b)
    assert seen["singular"] >= 10 and seen["swap"] >= 10


def test_bareiss_pivots_are_leading_minors_of_permuted_matrix():
    """The Bareiss invariant: each pivot is a leading principal minor.

    A lost exact division (a row whose divisor is not brought up to date)
    still yields exact answers, but its pivots are multiples of these minors.
    """
    rng = random.Random(41)
    completed = singular = 0
    for _ in range(300):
        n = rng.randint(1, 9)
        A = [
            [rng.randint(-9, 9) if rng.random() < 0.35 else 0 for _ in range(n)]
            for _ in range(n)
        ]
        for i, j in enumerate(rng.sample(range(n), n)):
            A[i][j] = rng.choice([-1, 1]) * rng.randint(1, 9)
        if n >= 2 and rng.random() < 0.2:
            A[-1] = list(A[0])
        M = [row + [rng.randint(-9, 9)] for row in A]
        pivots, perm, sign = _kernels.bareiss_eliminate(M, n)
        assert sorted(perm) == list(range(n))
        permuted = [A[i] for i in perm]
        minors, _ = bareiss_minors(permuted)
        assert pivots == minors[: len(pivots)]
        assert 0 not in pivots
        det = dense_det(A)
        if len(pivots) == n:
            completed += 1
            assert sign * pivots[-1] == det
            # the row order's parity is the sign
            assert sign == linalg.det_exact([[int(i == j) for j in perm] for i in range(n)])
        else:
            singular += 1
            assert det == 0
    assert completed >= 100 and singular >= 20


def test_solve_linear_random_residuals():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(1, 5)
        A = [[_rand_frac(rng) for _ in range(n)] for _ in range(n)]
        if linalg.det_exact(A) == 0:
            continue
        b = [_rand_frac(rng) for _ in range(n)]
        x = linalg.solve_linear(A, b)
        assert linalg.mat_vec(A, x) == b


def test_span_solver_membership_and_coords():
    solver = linalg.SpanSolver([[1, 0, 1], [0, 1, 0]], label="test")
    assert solver.contains([2, 3, 2])
    assert solver.solve([2, 3, 2]) == [2, 3]
    assert not solver.contains([1, 0, 0])
    assert solver.solve([1, 0, 0]) is None


def test_span_solver_rejects_dependent_basis():
    with pytest.raises(StructureError):
        linalg.SpanSolver([[1, 1], [2, 2]], label="dep")


def test_span_solver_fraction_basis():
    solver = linalg.SpanSolver([[Fraction(1, 2), 0], [0, Fraction(2, 3)]])
    assert solver.solve([1, 2]) == [2, 3]


def test_span_solver_random_sparse_bases():
    # back-reduction fills in entries at later pivots; every row must still
    # vanish at every other row's pivot, and coordinates must come back exact
    from tests.dense_oracle import DenseSpan

    rng = random.Random(8)
    values = (0, 0, 0, 1, -1, 2, Fraction(1, 3))
    built = 0
    for _ in range(200):
        n = rng.randint(2, 7)
        basis = [[rng.choice(values) for _ in range(n)] for _ in range(rng.randint(1, n))]
        try:
            solver = linalg.SpanSolver(basis)
        except StructureError:
            with pytest.raises(StructureError):
                DenseSpan(basis)
            continue
        built += 1
        for col, t in solver.pivots.items():
            assert [u for u, row in enumerate(solver.rows) if row.get(col)] == [t]
        coords = [rng.choice(values) for _ in basis]
        combo = [sum(c * v[i] for c, v in zip(coords, basis)) for i in range(n)]
        assert solver.solve(combo) == coords
        probe = [rng.choice(values) for _ in range(n)]
        assert solver.contains(probe) == DenseSpan(basis).contains(probe)
    assert built > 100


_SPAN_VALUES = st.sampled_from((0, 0, 0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 2)))


@st.composite
def _span_cases(draw):
    # every vector draws from the same indexes, so supports overlap and the
    # back-reduction fills in; Fraction values give Fraction pivots
    n = draw(st.integers(1, 7))
    vector = st.lists(_SPAN_VALUES, min_size=n, max_size=n)
    basis = draw(st.lists(vector, min_size=1, max_size=n))
    coords = draw(st.lists(_SPAN_VALUES, min_size=len(basis), max_size=len(basis)))
    at = draw(st.integers(0, n - 1))
    bump = draw(st.sampled_from((1, -1, Fraction(1, 2))))
    return basis, coords, at, bump


@settings(max_examples=300, deadline=None)
@given(_span_cases())
def test_span_solver_contains_matches_dense_oracle(case):
    from tests.dense_oracle import DenseSpan

    basis, coords, at, bump = case
    try:
        oracle = DenseSpan(basis)
    except StructureError:
        assume(False)
    solver = linalg.SpanSolver(basis)
    member = [sum(c * v[i] for c, v in zip(coords, basis)) for i in range(len(basis[0]))]
    bumped = list(member)
    bumped[at] += bump
    for probe in (member, bumped):
        expected = oracle.contains(probe)
        assert solver.contains(probe) == expected
        sparse = {i: x for i, x in enumerate(probe) if x}
        before = dict(sparse)
        assert solver.contains(sparse) == expected
        assert sparse == before
    assert solver.contains(member)


@st.composite
def _disjoint_cases(draw):
    # nonzero vectors on pairwise disjoint index sets, pivots anywhere in
    # each, some of them Fractions; dense or sparse
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    n = sum(sizes) + draw(st.integers(0, 3))
    order = draw(st.permutations(range(n)))
    values = st.sampled_from((1, -1, 2, Fraction(1, 3), Fraction(-5, 2)))
    vectors = []
    for size in sizes:
        vectors.append({i: draw(values) for i in order[:size]})
        order = order[size:]
    if draw(st.booleans()):
        return [[v.get(i, 0) for i in range(n)] for v in vectors]
    return vectors


@settings(max_examples=200, deadline=None)
@given(_disjoint_cases())
def test_span_solver_disjoint_supports_store_the_elimination_state(vectors):
    # vectors with pairwise disjoint supports are stored as they are; the
    # state equals what the general elimination builds from the same input
    solver = linalg.SpanSolver([v.copy() for v in vectors])
    general = linalg.SpanSolver.__new__(linalg.SpanSolver)
    general._eliminate([linalg._sparse_vector(v) for v in vectors], "")
    for name in ("rows", "pivots", "piv_invs", "trans"):
        assert getattr(solver, name) == getattr(general, name), name
    assert solver.dim == len(vectors)
