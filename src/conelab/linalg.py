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


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def mat_vec(A, v):
    return [kernels.dot(row, v) for row in A]


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


def normalize_rational(x):
    """Collapse Fractions with denominator 1 to plain ints."""
    if type(x) is int:  # spares the ABC instance check on the common case
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def clear_denominators(A):
    """Scale a rational matrix to an integer one; returns (A_int, scale)."""
    scale = 1
    for row in A:
        for e in row:
            if not isinstance(e, int):
                den = e.denominator
                if scale % den:
                    scale = scale * den // math.gcd(scale, den)
    out = [
        [e * scale if isinstance(e, int) else e.numerator * (scale // e.denominator)
         for e in row]
        for row in A
    ]
    return out, scale


def det_exact(A):
    """Determinant of a square rational matrix.

    The rows and columns are reordered alike, sparsest row first, which
    keeps the determinant: the elimination then meets the dense rows last,
    and rows with a zero in the pivot column cost nothing.
    """
    n = len(A)
    if n == 0:
        return 1
    order = sorted(range(n), key=lambda i: n - A[i].count(0))
    A_int, scale = clear_denominators([[A[i][j] for j in order] for i in order])
    d = kernels.bareiss_det(A_int)
    return normalize_rational(Fraction(d, scale**n))


def solve_linear(A, b):
    """Solve A·x = b exactly; raises StructureError if A is singular.

    Fraction-free: [A | b] is scaled to integers and reduced by
    kernels.bareiss_eliminate. The last pivot D is det(A) up to sign, back
    substitution finds the integers D·x_k, and each unknown costs one exact
    division.
    """
    n = len(A)
    M, _ = clear_denominators([list(row) + [bv] for row, bv in zip(A, b)])
    pivots, _, _ = kernels.bareiss_eliminate(M, n)
    if len(pivots) < n:
        raise StructureError("singular system")
    # y_k = D x_k are integers (Cramer), and M[k][k] divides the right side
    D = pivots[-1] if n else 1
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


def _coords(coeffs, trans):
    """sum_u coeffs[u]·trans[u] over sparse rows, as {index: value} of nonzeros.

    With the rows of a SpanSolver's transform this maps coefficients on its
    echelon rows to coordinates in the original vectors.
    """
    out = {}
    for f, t in zip(coeffs, trans):
        if f:
            for a, x in t.items():
                fx = f if x == 1 else f * x
                if a in out:
                    fx += out[a]
                    if not fx:
                        del out[a]
                        continue
                out[a] = fx
    return out


def _pivot_inverse(p):
    """1/p for a pivot value, kept exact and an int where it is one."""
    return normalize_rational(p if p == 1 or p == -1 else exact_inv(p))


class SpanSolver:
    """Row space of a fixed list of vectors, echelonized once.

    Builds a mutually reduced (Gauss-Jordan) echelon basis of sparse rows,
    each pivot taken at the smallest index of the vector as reduced when it
    is added, together with a transform back to the original vectors:
    rows[u] = sum_a trans[u][a]·vectors[a]. Vectors may be dense sequences
    or sparse {index: value} dicts of nonzeros. A dict given to the
    constructor becomes a row and is changed in place, so each row is built
    once; pass dicts that nothing else holds. A dependent input vector is a
    StructureError: declared bases must be linearly independent.

    Nonzero vectors with pairwise disjoint supports are their own reduced
    echelon form: no vector meets another's pivot, so the elimination would
    change none of them. They are stored as they are, with the rows, pivots,
    piv_invs and trans the elimination would build.

    solve costs one reduction pass over a copy of the query's nonzeros.
    """

    def __init__(self, vectors, label=""):
        vectors = [v if isinstance(v, dict) else _sparse_vector(v) for v in vectors]
        if all(vectors) and sum(map(len, vectors)) == len(set().union(*vectors)):
            self.rows = vectors
            self.trans = [{idx: 1} for idx in range(len(vectors))]
            self.pivots = {}
            self.piv_invs = []
            for idx, v in enumerate(vectors):
                pc = min(v)
                self.pivots[pc] = idx
                self.piv_invs.append(_pivot_inverse(v[pc]))
        else:
            self._eliminate(vectors, label)
        self.dim = len(self.rows)

    def _eliminate(self, vectors, label):
        """Gauss-Jordan elimination of sparse vectors, taken over as rows.

        Each vector is reduced as a query is, and its transform row is its
        own index less the query's coordinates. Its pivot is then cleared
        from every earlier row that holds it, so the rows stay mutually
        reduced.
        """
        rows = self.rows = []
        trans = self.trans = []
        pivots = self.pivots = {}
        piv_invs = self.piv_invs = []
        for idx, v in enumerate(vectors):
            coeffs = kernels.reduce_and_collect(v, rows, pivots, piv_invs)
            if not v:
                raise StructureError(
                    "linearly dependent basis%s (vector %d)"
                    % (" in " + label if label else "", idx + 1)
                )
            t = {idx: 1}
            for a, x in _coords(coeffs, trans).items():
                t[a] = -x
            pc = min(v)
            inv = _pivot_inverse(v[pc])
            for u, row in enumerate(rows):
                if pc in row:
                    (f,) = kernels.reduce_and_collect(row, [v], {pc: 0}, [inv])
                    trans[u] = _coords((1, -f), (trans[u], t))
            pivots[pc] = idx
            rows.append(v)
            trans.append(t)
            piv_invs.append(inv)

    def solve(self, vector):
        """Coordinates of vector in the original basis, or None if outside."""
        v = _sparse_vector(vector)
        coeffs = kernels.reduce_and_collect(v, self.rows, self.pivots, self.piv_invs)
        if v:
            return None
        coords = _coords(coeffs, self.trans)
        return [coords.get(a, 0) for a in range(self.dim)]

    def contains(self, vector):
        """Whether vector lies in the span; a dict vector is left unchanged."""
        return self.solve(vector) is not None
