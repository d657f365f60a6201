"""Hot kernels: the exact inner loops of the matrix and elimination code.

Scalars are Python ints or fractions.Fraction, never floats. Dense matrices
are lists (or tuples) of rows; results are always fresh lists. A sparse
matrix is the tuple of its nonzero entries (u, v, value) in row-major order,
and a sparse vector is a dict {index: value} holding nonzeros only.
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


def sparse_entries(M):
    """Nonzero entries (u, v, value) of a row-major matrix, in row-major order."""
    return tuple((u, v, e) for u, row in enumerate(M) for v, e in enumerate(row) if e)


def sparse_index(entries, by_row):
    """Map each row (by_row) or each column of a sparse matrix to its nonzeros.

    by_row maps row w to the pairs (v, value) of row w; otherwise column w
    maps to the pairs (u, value) of column w. Pairs are tuples.
    """
    index = {}
    for u, v, e in entries:
        if by_row:
            index.setdefault(u, []).append((v, e))
        else:
            index.setdefault(v, []).append((u, e))
    return {w: tuple(pairs) for w, pairs in index.items()}


def sparse_join(entries, index, width):
    """Product of a sparse A with a second factor, joined on A's column index.

    entries are A's nonzeros (u, w, a); index maps w to pairs (v, b). With
    index = sparse_index(B, by_row=True) the result is A·B, with
    sparse_index(B, by_row=False) it is A·tB. Returns the product as a sparse
    vector in row-major order, {u*width + v: value}, without zeros.
    """
    out = {}
    get = out.get
    for u, w, a in entries:
        hits = index.get(w)
        if hits:
            base = u * width
            for v, b in hits:
                key = base + v
                out[key] = get(key, 0) + a * b
    if 0 in out.values():
        out = {key: x for key, x in out.items() if x}
    return out


def sparse_sym_pair(X, Y_cols, n):
    """sym_pair_scalar over nonzeros: X sparse, Y given by its column index.

    X and Y are n-row matrices of one shape; Y_cols is
    sparse_index(Y, by_row=False). Returns c with (X·ᵗY + Y·ᵗX)/2 == c·I,
    or None if there is no such c.
    """
    S = sparse_join(X, Y_cols, n)  # S = X·ᵗY; the sum is S + ᵗS
    c = 0
    on_diagonal = 0
    for key, s in S.items():
        u, v = divmod(key, n)
        if u == v:
            if on_diagonal and s != c:
                return None
            c = s
            on_diagonal += 1
        elif s + S.get(v * n + u, 0):
            return None
    if on_diagonal and on_diagonal != n:
        return None
    return c


def reduce_and_collect(v, rows, pivots, piv_invs):
    """Eliminate the sparse vector v in place against mutually reduced rows.

    rows[t] is a sparse vector that is zero at every other row's pivot;
    pivots maps each pivot index to its row t and piv_invs[t] is the exact
    inverse of that row's pivot value. Returns the
    multipliers f, one per row, with v_original = sum(f[t]*rows[t]) +
    residual, leaving the residual in v (zeros removed). Only the nonzeros of
    v that sit on a pivot are visited: eliminating one row leaves v unchanged
    at every other pivot.
    """
    coeffs = [0] * len(rows)
    for col in v.keys() & pivots.keys():
        t = pivots[col]
        f = v[col] * piv_invs[t]
        get = v.get
        for j, rj in rows[t].items():
            x = get(j, 0) - f * rj
            if x:
                v[j] = x
            else:
                v.pop(j, None)
        coeffs[t] = f
    return coeffs
