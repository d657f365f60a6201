"""Hot kernels: the exact inner loops of the matrix and elimination code.

Scalars are Python ints or fractions.Fraction, never floats. Matrices are
lists (or tuples) of rows; results are always fresh lists.
"""

from fractions import Fraction


def dot(u, v):
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc += a * b
    return acc


def mat_mul(A, B):
    """Product of two row-major matrices, skipping zero entries."""
    n = len(A)
    inner = len(B)
    m = len(B[0]) if inner else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        Ci = out[i]
        for k in range(inner):
            a = Ai[k]
            if a:
                Bk = B[k]
                for j in range(m):
                    b = Bk[j]
                    if b:
                        Ci[j] += a * b
    return out


def mat_mul_t(A, B):
    """A times transpose(B), without materializing the transpose."""
    n = len(A)
    m = len(B)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        Ci = out[i]
        for j in range(m):
            Ci[j] = dot(Ai, B[j])
    return out


def _halve(v):
    if isinstance(v, int):
        q, rem = divmod(v, 2)
        return q if rem == 0 else Fraction(v, 2)
    return v / 2


def sym_pair_scalar(X, Y):
    """Scalar c with (X·ᵗY + Y·ᵗX)/2 == c·I, or None if there is no such c.

    X and Y must have the same shape; the symmetrized product is square of
    size len(X). Bails out on the first entry that breaks scalarity.
    """
    n = len(X)
    if n == 0:
        return 0
    c2 = None
    for i in range(n):
        for j in range(i, n):
            v = dot(X[i], Y[j]) + dot(Y[i], X[j])
            if i == j:
                if c2 is None:
                    c2 = v
                elif v != c2:
                    return None
            elif v:
                return None
    return _halve(c2)


def bareiss_minors(A):
    """All leading principal minors of an integer matrix, fraction-free.

    Returns (minors, completed). The k-th entry is the k×k leading minor.
    A zero minor stops the recurrence (its successor needs division by it),
    so completed is False and the list is short unless the zero occurs in
    the last position.
    """
    n = len(A)
    M = [list(row) for row in A]
    minors = []
    prev = 1
    for k in range(n):
        piv = M[k][k]
        minors.append(piv)
        if k == n - 1:
            return minors, True
        if piv == 0:
            return minors, False
        Mk = M[k]
        for i in range(k + 1, n):
            Mi = M[i]
            mik = Mi[k]
            for j in range(k + 1, n):
                Mi[j] = (Mi[j] * piv - mik * Mk[j]) // prev
        prev = piv
    return minors, True


def bareiss_det(A):
    """Exact determinant of an integer matrix, fraction-free with pivoting."""
    n = len(A)
    if n == 0:
        return 1
    M = [list(row) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        Mk = M[k]
        piv = Mk[k]
        for i in range(k + 1, n):
            Mi = M[i]
            mik = Mi[k]
            if mik:
                for j in range(k + 1, n):
                    Mi[j] = (Mi[j] * piv - mik * Mk[j]) // prev
                Mi[k] = 0
            elif prev != piv:
                for j in range(k + 1, n):
                    if Mi[j]:
                        Mi[j] = (Mi[j] * piv) // prev
        prev = piv
    return sign * M[n - 1][n - 1]


def reduce_and_collect(v, rows, piv_cols, piv_invs):
    """Eliminate v in place against mutually reduced echelon rows.

    rows[t] has its pivot at column piv_cols[t] and zeros at every other
    row's pivot column; piv_invs[t] is the exact inverse of the pivot value.
    Returns the multipliers f with v_original = sum(f[t]*rows[t]) + residual,
    leaving the residual in v.
    """
    coeffs = []
    width = len(v)
    for t in range(len(rows)):
        c = v[piv_cols[t]]
        if c:
            f = c * piv_invs[t]
            row = rows[t]
            for j in range(width):
                rj = row[j]
                if rj:
                    v[j] -= f * rj
            coeffs.append(f)
        else:
            coeffs.append(0)
    return coeffs
