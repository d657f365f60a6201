"""Hot kernels: the exact inner loops of the matrix and elimination code.

Scalars are Python ints or fractions.Fraction, never floats. Dense matrices
are lists (or tuples) of rows; results are always fresh lists. A sparse
matrix is the tuple of its nonzero entries (u, v, value) in row-major order,
and a sparse vector is a dict {index: value} holding nonzeros only.

The basis elements of one space share a single index (space_index) from a
row or column w to the entries of every element on it, tagged with the
element's number. The (V1)-(V3) kernels join the left elements against such
an index one at a time (Gustavson's row-wise sparse product), so they form
only the pairs of basis elements whose product is nonzero, and decide each
product in the loop that formed it: span_violation tests (V1)/(V2)
membership against a span's reduced rows, gram_violation tests (V3)
scalarity and collects the Gram rows. Either returns the first failing pair.
frame sums tX·X/g over the basis of a space, and frame_trace pairs two such
sums: the trace identity that decides (V2) on a triple without forming a
product (see core.verify_v_conditions).

A span is a list of mutually reduced (Gauss-Jordan) sparse rows: each row is
zero at every other row's pivot. reduce_and_collect eliminates a vector
against it and returns the multipliers, for coordinate recovery.

The group action and the block elimination work on row-dict blocks: a block
is a dict {u: {v: value}} from row to its entries. The block_* kernels
accumulate into such a dict in place and may leave zeros and empty rows
behind; block_strip removes them, after which every stored value is nonzero.
"""

from fractions import Fraction
from operator import mul


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


def bareiss_eliminate(M, n):
    """Fraction-free (Bareiss) elimination of the first n columns, in place.

    M is a list of integer rows at least n wide; the pivot of column k is the
    first nonzero entry at or below row k. Bareiss would multiply a row with
    a zero in the pivot column by p_k / p_(k-1); these factors telescope, so
    such a row is left as it is and den[i] records the pivot it was last
    divided by: it is the Bareiss row times den[i] / p_(k-1), and it is
    brought up to date when it becomes the pivot row. Returns (pivots, perm,
    sign): with the rows in the order perm (sign its parity), pivots[k] is
    the leading (k+1) x (k+1) minor, and M is left in that order as the
    Bareiss echelon form. A column without a pivot ends the elimination, so
    pivots is shorter than n exactly when the first n columns are dependent.
    """
    den = [1] * len(M)
    perm = list(range(len(M)))
    pivots = []
    sign = 1
    prev = 1
    for k in range(n):
        piv_row = next((i for i in range(k, len(M)) if M[i][k]), None)
        if piv_row is None:
            break
        if piv_row != k:
            M[k], M[piv_row] = M[piv_row], M[k]
            den[k], den[piv_row] = den[piv_row], den[k]
            perm[k], perm[piv_row] = perm[piv_row], perm[k]
            sign = -sign
        Mk = M[k]
        width = len(Mk)
        if den[k] != prev:
            d = den[k]
            for j in range(k, width):
                if Mk[j]:
                    Mk[j] = Mk[j] * prev // d
        p = Mk[k]
        for i in range(k + 1, len(M)):
            Mi = M[i]
            c = Mi[k]
            if c:
                d = den[i]
                for j in range(k + 1, width):
                    b = Mk[j]
                    if b:
                        Mi[j] = (Mi[j] * p - c * b) // d
                    elif Mi[j]:
                        Mi[j] = Mi[j] * p // d
                Mi[k] = 0
                den[i] = p
        pivots.append(p)
        prev = p
    return pivots, perm, sign


def bareiss_det(A):
    """Exact determinant of an integer matrix, fraction-free with pivoting."""
    n = len(A)
    pivots, _, sign = bareiss_eliminate([list(row) for row in A], n)
    if len(pivots) < n:
        return 0
    return sign * pivots[-1] if n else 1


def sparse_entries(M):
    """Nonzero entries (u, v, value) of a row-major matrix, in row-major order."""
    return tuple((u, v, e) for u, row in enumerate(M) for v, e in enumerate(row) if e)


def space_index(elements, by_row):
    """Index the nonzeros of every basis element of one space by row or column.

    elements are the sparse basis elements of the space, in order. by_row maps
    row w to the triples (b, v, value) of every entry (w, v, value) of element
    b; otherwise column w maps to the triples (b, u, value) of every entry
    (u, w, value). Each triple list is a tuple sorted by b.
    """
    index = {}
    for b, E in enumerate(elements):
        for u, v, e in E:
            if by_row:
                index.setdefault(u, []).append((b, v, e))
            else:
                index.setdefault(v, []).append((b, u, e))
    return {w: tuple(hits) for w, hits in index.items()}


def span_violation(left, index, width, rows, pivots, piv_invs):
    """First pair whose product leaves a span, deciding each where it is formed.

    left are sparse matrices A_a, joined on their column w against index =
    space_index(B, ...): with by_row the product of A_a and B_b is A_a·B_b,
    otherwise A_a·tB_b, a sparse vector {u*width + v: value}. rows, pivots
    and piv_invs are a span as for reduce_and_collect (no rows: dimension
    0). Returns (decided, bad): bad is the first pair (a, b) in (a, b) order
    whose product is not in the span, or None; decided counts the nonzero
    products tested. Zero products, which lie in every span, are not formed.
    A one-entry A_a needs no sort (its hits are in b order) and sums no two
    terms, and only a summed entry can be zero.

    Row t is the only row nonzero at its pivot, so P is in the span iff it
    equals sum(c_t * rows[t]) with c_t = P[pivot_t] * piv_invs[t] over the
    pivots in P's support; one row with multiplier 1 enters uncopied, and a
    one-entry P needs the pivot of a one-entry row (rows hold no zeros).
    """
    decided = 0
    get_row = pivots.get
    for a, A in enumerate(left):
        products = {}
        summed = False
        for u, w, x in A:
            hits = index.get(w)
            if hits:
                base = u * width
                for b, v, y in hits:
                    P = products.get(b)
                    if P is None:
                        products[b] = {base + v: x * y}
                        continue
                    key = base + v
                    old = P.get(key)
                    if old is None:
                        P[key] = x * y
                    else:
                        P[key] = old + x * y
                        summed = True
        for b in products if len(A) == 1 else sorted(products):
            P = products[b]
            if summed and 0 in P.values():
                P = {key: z for key, z in P.items() if z}
                if not P:
                    continue
            decided += 1
            if len(P) == 1:
                for col in P:
                    t = get_row(col)
                if t is None or len(rows[t]) != 1:
                    return decided, (a, b)
                continue
            combo = None
            for col, x in P.items():
                t = get_row(col)
                if t is None:
                    continue
                f = x * piv_invs[t]
                row = rows[t]
                if combo is None:
                    shared = f == 1
                    combo = row if shared else {j: f * y for j, y in row.items()}
                    continue
                if shared:
                    combo = dict(combo)
                    shared = False
                get = combo.get
                for j, y in row.items():
                    combo[j] = get(j, 0) + f * y
            # only entries that cancelled to zero can make combo the longer
            if combo != P and (
                combo is None
                or len(combo) <= len(P)
                or {j: y for j, y in combo.items() if y} != P
            ):
                return decided, (a, b)
    return decided, None


def gram_violation(elements, index, n):
    """Gram rows of a space in the scalar product of (V3), or its first bad pair.

    elements are sparse n-row matrices X_a, index = space_index(elements,
    by_row=False). The pairs b >= a are joined as in span_violation and
    decided in (a, b) order where S = X_a·tX_b is formed: (S + tS)/2 must be
    c·I, and a zero product pairs to c = 0. Returns (G, bad): bad is the
    first pair that breaks this, or None; G[a] is a dict {b: c} of the
    nonzero scalars, filled symmetrically for the pairs decided before bad.
    """
    G = [{} for _ in elements]
    n1 = n + 1
    for a, A in enumerate(elements):
        products = {}
        summed = False
        for u, w, x in A:
            hits = index.get(w)
            if hits:
                base = u * n
                for b, v, y in hits:
                    if b < a:
                        continue
                    S = products.get(b)
                    if S is None:
                        products[b] = {base + v: x * y}
                        continue
                    key = base + v
                    old = S.get(key)
                    if old is None:
                        S[key] = x * y
                    else:
                        S[key] = old + x * y
                        summed = True
        for b in products if len(A) == 1 else sorted(products):
            S = products[b]
            if summed and 0 in S.values():
                S = {key: z for key, z in S.items() if z}
            c = None
            on_diagonal = 0
            for key, s in S.items():
                if key % n1 == 0:  # u == v, as |u - v| < n + 1
                    if c is None:
                        c = s
                    elif s != c:
                        return G, (a, b)
                    on_diagonal += 1
                    continue
                u, v = divmod(key, n)
                if s + S.get(v * n + u, 0):
                    return G, (a, b)
            if c is not None:
                if on_diagonal != n:
                    return G, (a, b)
                G[a][b] = G[b][a] = c
    return G, None


def frame(elements, gram, n):
    """The symmetric n x n matrix sum_c tX_c·X_c / g_c.

    elements are sparse matrices X_c with n columns and gram their Gram
    rows as gram_violation returns them, each row c exactly {c: g_c} (see
    core.VCollection._orthogonal). Returns (diag, off): diag the list of
    the n diagonal entries, off a dict {(v, w): value} of the nonzero
    entries with v != w, both triangles stored. Row u of X_c adds
    X_c[u][v]·X_c[u][w] / g_c at (v, w): each entry adds to the diagonal,
    and pairs of entries in one row add off it, so the work is the sum of
    the squared row lengths.
    """
    diag = [0] * n
    off = {}
    for c, E in enumerate(elements):
        g = gram[c][c]
        inv = 1 if g == 1 else 1 / Fraction(g)
        last = None
        for u, v, e in E:
            s = e if inv == 1 else e * inv
            if u != last:
                # row-major order: the entries of one row are consecutive
                last, earlier = u, []
            else:
                for w, f in earlier:
                    x = s * f
                    off[(v, w)] = off.get((v, w), 0) + x
                    off[(w, v)] = off.get((w, v), 0) + x
            earlier.append((v, e))
            diag[v] += s * e
    return diag, {key: x for key, x in off.items() if x}


def frame_trace(P, Q):
    """tr(P·Q) of two frames of one size, as frame returns them."""
    (p_diag, p_off), (q_diag, q_off) = P, Q
    acc = sum(map(mul, p_diag, q_diag))
    get = q_off.get
    for key, x in p_off.items():
        y = get(key)
        if y:
            # Q is symmetric: Q[w][v] == Q[v][w]
            acc += x * y
    return acc


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
        inv = piv_invs[t]
        # pivots and row entries are mostly 1: skip those rational products
        f = v[col] if inv == 1 else v[col] * inv
        get = v.get
        for j, rj in rows[t].items():
            x = get(j, 0) - (f if rj == 1 else f * rj)
            if x:
                v[j] = x
            else:
                v.pop(j, None)
        coeffs[t] = f
    return coeffs


def block_transpose(A):
    """Transpose of a row-dict block."""
    out = {}
    for u, row in A.items():
        for v, x in row.items():
            col = out.get(v)
            if col is None:
                out[v] = {u: x}
            else:
                col[u] = x
    return out


def block_add(acc, A, f):
    """acc += f·A on row-dict blocks, in place; returns acc."""
    if f:
        for u, Au in A.items():
            row = acc.get(u)
            if row is None:
                acc[u] = dict(Au) if f == 1 else {v: f * x for v, x in Au.items()}
                continue
            get = row.get
            for v, x in Au.items():
                if f != 1:
                    x = f * x
                old = get(v)
                row[v] = x if old is None else old + x
    return acc


def block_addmul(acc, A, B, lower=False):
    """acc += A·B on row-dict blocks, in place; returns acc.

    Only the pairs of nonzeros that meet on a shared index are multiplied.
    lower forms only the entries (u, w) with w <= u, for a square result
    whose upper half is known to mirror the lower one.
    """
    for u, Au in A.items():
        row = acc.get(u)
        if row is None:
            row = acc[u] = {}
        get = row.get
        for v, x in Au.items():
            Bv = B.get(v)
            if Bv:
                for w, y in Bv.items():
                    if lower and w > u:
                        continue
                    # a first product is stored, not added to 0: with
                    # Fractions that saves a rational addition
                    old = get(w)
                    row[w] = x * y if old is None else old + x * y
    return acc


def block_strip(A):
    """Drop the zero entries and empty rows of a row-dict block in place."""
    for u in list(A):
        row = A[u]
        if 0 in row.values():
            row = A[u] = {v: x for v, x in row.items() if x}
        if not row:
            del A[u]
    return A


def block_scalar(A, n):
    """The c with A == c·I_n for a symmetric n x n row-dict block, or None.

    Only the entries on or below the diagonal are read, so the ones above it
    may be missing; stored zeros are allowed. A block with fewer than n rows
    has a zero diagonal entry, so c is 0; the work follows the stored rows,
    not n.
    """
    c = None if len(A) == n else 0
    for u, row in A.items():
        x = row.get(u, 0)
        if c is None:
            c = x
        elif x != c:
            return None
        for v, y in row.items():
            if v < u and y:
                return None
    return c
