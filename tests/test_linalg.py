import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conelab import linalg
from conelab.errors import StructureError
from tests.dense_oracle import dense_solve_linear, mat_sub, scalar_mul
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
    minors, completed = linalg.leading_principal_minors(A)
    assert minors == [2, 1] and completed
    A = [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
    minors, completed = linalg.leading_principal_minors(A)
    assert minors == [Fraction(1, 2), Fraction(1, 4)] and completed
    minors, completed = linalg.leading_principal_minors([[0, 1], [1, 0]])
    assert minors == [0] and not completed


def test_is_positive_definite_minors():
    ok, minors = linalg.is_positive_definite_minors([[2, 1], [1, 1]])
    assert ok and minors == [2, 1]
    ok, _ = linalg.is_positive_definite_minors([[1, 2], [2, 1]])
    assert not ok
    ok, _ = linalg.is_positive_definite_minors([[0, 0], [0, 1]])
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
