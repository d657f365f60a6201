"""Exact rational linear algebra on row-major list matrices.

Everything here is exact: scalars are ints or Fractions, determinants go
through fraction-free integer elimination after clearing denominators, and
span membership is decided by Gaussian elimination against a fixed basis.
"""

from __future__ import annotations

import math
from fractions import Fraction

from conelab import _kernels as kernels
from conelab.errors import StructureError

dot = kernels.dot
mat_mul = kernels.mat_mul
mat_mul_t = kernels.mat_mul_t


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def mat_vec(A, v):
    return [dot(row, v) for row in A]


def kron(A, B):
    """Kronecker product of two row-major matrices."""
    if not A or not B:
        return []
    out = []
    for ra in A:
        for rb in B:
            out.append([a * b if a and b else 0 for a in ra for b in rb])
    return out


def vec_matrix(A):
    """Row-major flattening."""
    return [e for row in A for e in row]


def is_symmetric(A):
    n = len(A)
    return all(A[i][j] == A[j][i] for i in range(n) for j in range(i + 1, n))


def exact_inv(x):
    """1/x as an exact rational; x must be nonzero."""
    if isinstance(x, int):
        return Fraction(1, x)
    return 1 / x


def exact_div(a, b):
    return a * exact_inv(b)


def _as_int_ratio(x):
    if isinstance(x, int):
        return x, 1
    return x.numerator, x.denominator


def normalize_rational(x):
    """Collapse Fractions with denominator 1 to plain ints."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def clear_denominators(A):
    """Scale a rational matrix to an integer one; returns (A_int, scale)."""
    scale = 1
    for row in A:
        for e in row:
            _, den = _as_int_ratio(e)
            scale = scale * den // math.gcd(scale, den)
    out = []
    for row in A:
        int_row = []
        for e in row:
            num, den = _as_int_ratio(e)
            int_row.append(num * (scale // den))
        out.append(int_row)
    return out, scale


def det_exact(A):
    """Determinant of a square rational matrix."""
    n = len(A)
    if n == 0:
        return 1
    A_int, scale = clear_denominators(A)
    d = kernels.bareiss_det(A_int)
    return normalize_rational(Fraction(d, scale**n))


def leading_principal_minors(A):
    """Leading principal minors of a square rational matrix.

    Returns (minors, completed); completed is False when a zero minor stopped
    the fraction-free recurrence before the last position.
    """
    A_int, scale = clear_denominators(A)
    raw, completed = kernels.bareiss_minors(A_int)
    minors = [
        normalize_rational(Fraction(m, scale ** (k + 1))) for k, m in enumerate(raw)
    ]
    return minors, completed


def is_positive_definite_minors(A):
    """Sylvester test: all leading principal minors positive.

    The independent membership oracle; returns (verdict, minors).
    """
    minors, completed = leading_principal_minors(A)
    return completed and all(m > 0 for m in minors), minors


def solve_linear(A, b):
    """Solve A·x = b exactly; raises StructureError if A is singular.

    Fraction-free: [A | b] is scaled to integers and reduced by Bareiss
    elimination, the pivot in each column being the first nonzero entry at
    or below the diagonal. Bareiss would multiply a row with a zero in the
    pivot column by p_k / p_(k-1); these factors telescope, so such a row is
    left as it is and den[i] records the pivot it was last divided by: it
    is the Bareiss row times den[i] / p_(k-1), and its next update divides
    by den[i]. The last pivot D is det(A) up to sign, back substitution
    finds the integers D·x_k, and each unknown costs one exact division.
    """
    n = len(A)
    M, _ = clear_denominators([list(row) + [bv] for row, bv in zip(A, b)])
    den = [1] * n
    prev = 1
    for k in range(n):
        piv_row = next((i for i in range(k, n) if M[i][k]), None)
        if piv_row is None:
            raise StructureError("singular system")
        if piv_row != k:
            M[k], M[piv_row] = M[piv_row], M[k]
            den[k], den[piv_row] = den[piv_row], den[k]
        Mk = M[k]
        if den[k] != prev:
            d = den[k]
            for j in range(k, n + 1):
                if Mk[j]:
                    Mk[j] = Mk[j] * prev // d
        p = Mk[k]
        for i in range(k + 1, n):
            Mi = M[i]
            c = Mi[k]
            if c:
                d = den[i]
                for j in range(k + 1, n + 1):
                    Mi[j] = (Mi[j] * p - c * Mk[j]) // d
                Mi[k] = 0
                den[i] = p
        prev = p
    # y_k = D x_k are integers (Cramer), and M[k][k] divides the right side
    D = prev
    y = [0] * n
    for k in range(n - 1, -1, -1):
        Mk = M[k]
        acc = D * Mk[n]
        for j in range(k + 1, n):
            if Mk[j] and y[j]:
                acc -= Mk[j] * y[j]
        y[k] = acc // Mk[k]
    return [Fraction(v, D) for v in y]


def _sparse_vector(vector):
    """A fresh {index: value} of a vector's nonzeros.

    A dict is a sparse vector already (nonzeros only) and is copied as is.
    """
    if isinstance(vector, dict):
        return dict(vector)
    return {i: x for i, x in enumerate(vector) if x}


def _add_multiple(target, f, source):
    """target += f * source on sparse vectors, dropping entries that cancel."""
    get = target.get
    for j, x in source.items():
        y = get(j, 0) + f * x
        if y:
            target[j] = y
        else:
            target.pop(j, None)


class SpanSolver:
    """Row space of a fixed list of vectors, echelonized once.

    Builds a mutually reduced (Gauss-Jordan) echelon basis of sparse rows,
    each pivot taken at the smallest index of the vector as reduced when it
    is added, together with a transform back to the original vectors.
    Vectors may be dense sequences or sparse {index: value} dicts of
    nonzeros. A dict given to the constructor becomes a row and is changed in
    place, so each row is built once; pass dicts that nothing else holds. A
    dependent input vector is a StructureError: declared bases must be
    linearly independent.

    contains reads a query's coefficients off its values at the pivots and
    neither copies nor changes it; solve costs one elimination pass over a
    copy of the query's nonzeros.
    """

    def __init__(self, vectors, label=""):
        rows = []
        trans = []
        pivots = {}
        piv_invs = []
        # non-pivot index -> the rows with a nonzero there, so the
        # back-reduction at a new pivot visits only the rows it changes
        holders = {}
        for idx, start in enumerate(vectors):
            v = start if isinstance(start, dict) else _sparse_vector(start)
            t = {idx: 1}
            for col in v.keys() & pivots.keys():
                u = pivots[col]
                f = -v[col] * piv_invs[u]
                _add_multiple(v, f, rows[u])
                _add_multiple(t, f, trans[u])
            if not v:
                raise StructureError(
                    "linearly dependent basis%s (vector %d)"
                    % (" in " + label if label else "", idx + 1)
                )
            pc = min(v)
            p = v[pc]
            inv = normalize_rational(p if p == 1 or p == -1 else exact_inv(p))
            for u in holders.pop(pc, ()):
                row = rows[u]
                f = -row[pc] * inv
                for j, x in v.items():
                    y = row.get(j, 0) + f * x
                    if y:
                        if j not in row:
                            holders.setdefault(j, []).append(u)
                        row[j] = y
                    else:
                        del row[j]
                        if j != pc:
                            holders[j].remove(u)
                _add_multiple(trans[u], f, t)
            new = len(rows)
            for j in v:
                if j != pc:
                    hs = holders.get(j)
                    if hs is None:
                        holders[j] = [new]
                    else:
                        hs.append(new)
            pivots[pc] = new
            rows.append(v)
            trans.append(t)
            piv_invs.append(inv)
        self.rows = rows
        self.trans = trans
        self.pivots = pivots
        self.piv_invs = piv_invs
        self.dim = len(rows)

    def solve(self, vector):
        """Coordinates of vector in the original basis, or None if outside."""
        v = _sparse_vector(vector)
        coeffs = kernels.reduce_and_collect(v, self.rows, self.pivots, self.piv_invs)
        if v:
            return None
        out = [0] * self.dim
        for u, f in enumerate(coeffs):
            if f:
                for a, x in self.trans[u].items():
                    fx = f if x == 1 else f * x
                    out[a] = out[a] + fx if out[a] else fx
        return out

    def contains(self, vector):
        """Whether vector lies in the span; a dict vector is left unchanged."""
        if not isinstance(vector, dict):
            vector = _sparse_vector(vector)
        return kernels.span_contains(vector, self.rows, self.pivots, self.piv_invs)
