"""Block matrix realizations of homogeneous cones and their group action.

A realization is a partition N = n_1 + ... + n_r together with declared
subspaces V_kj of the real n_k x n_j matrices for 1 <= j < k <= r. The
symmetric matrices with scalar diagonal blocks x_ii I and lower blocks taken
from the V_kj form the ambient space V; the block lower triangular matrices
with scalar diagonal blocks and the same off-diagonal spans act on V by
h.x = h x th, and the positive definite elements of V form the cone.

Three closure conditions make this work, checked here on basis elements:

  (V1)  X_kj * X_ji lies in V_ki            for i < j < k,
  (V2)  X_ki * t(X_ji) lies in V_kj         for i < j < k,
  (V3)  X_kj * t(Y_kj) + Y_kj * t(X_kj) is a multiple of the identity.

The group action (rho_act) and the group product (group_compose) work block
by block on sparse blocks built from the basis entries, and build no N x N
matrix; embed and project give the dense N x N view of an element. The
block LDL elimination (ldl_decompose) is the group action applied one
column at a time, so it has no block arithmetic of its own. Everything is
exact rational arithmetic; no floats enter at any point.
"""

from __future__ import annotations

from fractions import Fraction

from conelab import _kernels as kernels
from conelab import linalg
from conelab._record import Record
from conelab.degrees import DimTable
from conelab.errors import ClosureViolationError, NotInSpaceError, StructureError

_RATIONAL_TYPES = (int, Fraction)


def _is_rational(x):
    return isinstance(x, _RATIONAL_TYPES) and not isinstance(x, bool)


class BlockPartition(Record):
    """Sizes (n_1, ..., n_r) of the diagonal blocks."""

    sizes: tuple

    def __post_init__(self):
        if not self.sizes:
            raise StructureError("partition must have at least one block")
        for n in self.sizes:
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise StructureError("block sizes must be positive integers")
        object.__setattr__(self, "sizes", tuple(self.sizes))

    @property
    def r(self):
        return len(self.sizes)

    @property
    def total(self):
        return sum(self.sizes)

    def size(self, i):
        return self.sizes[i - 1]

    def offset(self, i):
        return sum(self.sizes[: i - 1])


def _space_shape(partition, k, j):
    """(n_k, n_j) for a valid lower index pair of the partition."""
    if not (1 <= j < k <= partition.r):
        raise StructureError(
            "bad space index (%d, %d) for rank %d" % (k, j, partition.r)
        )
    return partition.size(k), partition.size(j)


class VCollection:
    """A block partition plus declared off-diagonal spaces (lower triangle).

    bases maps (k, j) with 1 <= j < k <= r to a list of n_k x n_j basis
    matrices with rational entries. Missing pairs (or empty lists) declare a
    zero-dimensional space, which is legal. Each basis element is stored once,
    as its nonzero entries (u, v, value), which entries() returns.
    The (V1)-(V3) checks join whole spaces on a per-space index from each row
    or column to the entries of every basis element on it, built on first
    use, so a collection that is never verified builds none. Treat a
    constructed collection as immutable.
    """

    def __init__(self, partition, bases):
        if not isinstance(partition, BlockPartition):
            partition = BlockPartition(tuple(partition))
        for (k, j), mats in bases.items():
            nk, nj = _space_shape(partition, k, j)
            for idx, mat in enumerate(mats):
                if len(mat) != nk or any(len(row) != nj for row in mat):
                    raise StructureError(
                        "basis element %d of V_%d%d is not %d x %d"
                        % (idx + 1, k, j, nk, nj)
                    )
        # every entry, zeros included, so a float zero is refused like any float
        entries = {
            key: [
                [(u, v, e) for u, row in enumerate(mat) for v, e in enumerate(row)]
                for mat in mats
            ]
            for key, mats in bases.items()
        }
        self._store(partition, self.from_entries(partition, entries)._bases)

    @classmethod
    def from_entries(cls, partition, entries):
        """A collection whose basis elements are given by their entries.

        entries maps (k, j) to a list of basis elements, each an iterable of
        (u, v, value) with 0 <= u < n_k and 0 <= v < n_j; absent positions are
        zero. This builds no dense matrix, so it serves large constructions.
        """
        if not isinstance(partition, BlockPartition):
            partition = BlockPartition(tuple(partition))
        stored = {}
        for (k, j), elements in entries.items():
            nk, nj = _space_shape(partition, k, j)
            canonical = []
            for idx, element in enumerate(elements):
                seen = {}
                for u, v, e in element:
                    inside = (
                        isinstance(u, int) and isinstance(v, int)
                        and 0 <= u < nk and 0 <= v < nj
                    )
                    if not inside or (u, v) in seen:
                        raise StructureError(
                            "basis element %d of V_%d%d has a bad or repeated "
                            "position (%r, %r)" % (idx + 1, k, j, u, v)
                        )
                    if not _is_rational(e):
                        raise StructureError(
                            "non-rational entry in basis of V_%d%d" % (k, j)
                        )
                    seen[(u, v)] = e
                canonical.append(
                    tuple((u, v, e) for (u, v), e in sorted(seen.items()) if e)
                )
            if canonical:
                stored[(k, j)] = tuple(canonical)
        return cls._from_canonical(partition, stored)

    @classmethod
    def _from_canonical(cls, partition, stored):
        """A collection that takes over already canonical entries unchecked.

        stored maps each (k, j) of a nonzero-dimensional space to a tuple of
        basis elements, each a tuple of in-range (u, v, value) in row-major
        order with rational nonzero values: the form from_entries produces.
        """
        V = cls.__new__(cls)
        V._store(partition, stored)
        return V

    def _store(self, partition, stored):
        self.partition = partition
        self._bases = stored
        self._indexes = {}
        self._solvers = {}
        self._grams = {}
        self._gram_facts = {}
        self._frames = {}

    @property
    def r(self):
        return self.partition.r

    def pairs(self):
        """All lower index pairs (k, j), declared or not."""
        r = self.partition.r
        return [(k, j) for k in range(2, r + 1) for j in range(1, k)]

    def spaces(self):
        """Index pairs with a nonzero-dimensional declared space, sorted."""
        return sorted(self._bases)

    def entries(self, k, j):
        """Basis elements of V_kj as tuples of nonzero entries (u, v, value)."""
        return self._bases.get((k, j), ())

    def dim(self, k, j):
        return len(self._bases.get((k, j), ()))

    def dims_table(self):
        return DimTable(self.r, {(k, j): self.dim(k, j) for (k, j) in self.pairs()})

    def _index(self, k, j, by_row):
        """The space_index of V_kj by row or by column, built on first use."""
        key = (k, j, by_row)
        if key not in self._indexes:
            self._indexes[key] = kernels.space_index(self.entries(k, j), by_row)
        return self._indexes[key]

    def solver(self, k, j):
        """Span solver for V_kj; building it checks linear independence."""
        key = (k, j)
        if key not in self._solvers:
            nj = self.partition.size(j)
            # fresh dicts: the solver takes each over as one of its rows
            vectors = ({u * nj + v: e for u, v, e in E} for E in self.entries(k, j))
            self._solvers[key] = linalg.SpanSolver(vectors, label="V_%d%d" % key)
        return self._solvers[key]

    def v3_violation(self, k, j):
        """First basis pair (a, b), 1-indexed, of V_kj that breaks (V3).

        None when every symmetrized product is scalar; the Gram matrix is then
        cached, with whether it is diagonal (row c is {c: g_c}) and whether
        it is the identity, which _orthogonal, frame() and is_orthonormal()
        read. One kernel call joins the space with its own column index and
        decides the pairs b >= a in the order (1, 1), (1, 2), ..., (1, d),
        (2, 2), ... where their products are formed; a zero product pairs to
        the scalar 0, so the first failing pair is the first in that order
        among all pairs.
        """
        key = (k, j)
        if key in self._grams:
            return None
        G, bad = kernels.gram_violation(
            self.entries(k, j), self._index(k, j, by_row=False), self.partition.size(k)
        )
        if bad is not None:
            return (bad[0] + 1, bad[1] + 1)
        G = self._grams[key] = tuple(G)
        diagonal = all(len(row) == 1 and a in row for a, row in enumerate(G))
        identity = diagonal and all(row[a] == 1 for a, row in enumerate(G))
        self._gram_facts[key] = (diagonal, identity)
        return None

    def _orthogonal(self, k, j):
        """Whether V_kj is known to pass (V3) with a diagonal Gram matrix.

        Only the facts recorded with a cached Gram matrix are read, so this
        is False before v3_violation has passed V_kj. The Gram matrix holds
        nonzero values only, so row c must be {c: g_c} with g_c nonzero; a
        zero element has an empty row. The basis is then orthogonal in
        <X, Y> = tr(X tY), and so linearly independent.
        """
        return self._gram_facts.get((k, j), (False,))[0]

    def gram(self, k, j):
        """Gram matrix of the basis of V_kj in the scalar product of (V3).

        Row a is a dict {b: value} of its nonzero entries; treat it as
        read-only.
        """
        bad = self.v3_violation(k, j)
        if bad is not None:
            raise StructureError(
                "(V3) violation in V_%d%d: symmetrized product of "
                "basis elements %d and %d is not scalar" % (k, j, *bad)
            )
        return self._grams[(k, j)]

    def frame(self, k, j):
        """The frame sum_c tX_c X_c / g_c of V_kj, or None.

        g_c is the (V3) scalar of basis element X_c (X_c tX_c = g_c I), and
        the frame exists only when (V3) holds on V_kj with a diagonal Gram
        matrix. It is the n_j x n_j matrix of _kernels.frame, built on first
        use; verify_v_conditions decides (V2) by the trace of two frames.
        """
        key = (k, j)
        if key not in self._frames:
            self.v3_violation(k, j)
            self._frames[key] = (
                kernels.frame(
                    self.entries(k, j), self._grams[key], self.partition.size(j)
                )
                if self._orthogonal(k, j)
                else None
            )
        return self._frames[key]

    def is_orthonormal(self):
        for k, j in self.spaces():
            self.gram(k, j)
            if not self._gram_facts[(k, j)][1]:
                return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, VCollection)
            and self.partition == other.partition
            and self._bases == other._bases
        )


class ConeElement(Record):
    """diag holds (x_11, ..., x_rr); off maps (k, j) to basis coordinates."""

    diag: tuple
    off: dict

    __hash__ = None


class GroupElement(Record):
    """Block lower triangular: nonzero diag scalars plus lower coordinates."""

    diag: tuple
    lower: dict

    __hash__ = None


def _canonical_coords(V, diag, coords):
    """Checked diagonal tuple and coordinate dict, absent spaces filled with 0."""
    diag = tuple(diag)
    if len(diag) != V.r:
        raise StructureError("need %d diagonal values" % V.r)
    if not all(_is_rational(c) for c in diag):
        raise StructureError("diagonal values must be rational")
    out = {}
    coords = dict(coords or {})
    for key in V.spaces():
        d = V.dim(*key)
        vals = tuple(coords.pop(key, (0,) * d))
        if len(vals) != d:
            raise StructureError(
                "V_%d%d expects %d coordinates, got %d" % (*key, d, len(vals))
            )
        if not all(_is_rational(c) for c in vals):
            raise StructureError("coordinates must be rational")
        out[key] = vals
    if coords:
        raise StructureError("coordinates for undeclared spaces: %r" % sorted(coords))
    return diag, out


def cone_element(V, diag, off=None):
    """Build a canonical ConeElement for V, filling absent coordinates with 0."""
    diag, off = _canonical_coords(V, diag, off)
    return ConeElement(diag=diag, off=off)


def group_element(V, diag, lower=None):
    """Build a canonical GroupElement for V; diagonal scalars must be nonzero."""
    diag, lower = _canonical_coords(V, diag, lower)
    if 0 in diag:
        raise StructureError("group diagonal values must be nonzero rationals")
    return GroupElement(diag=diag, lower=lower)


def identity_element(V):
    return cone_element(V, (1,) * V.r)


def block_from_coords(V, k, j, coords):
    """Materialize sum(coords[a] * E_a) as an n_k x n_j matrix."""
    nk, nj = V.partition.size(k), V.partition.size(j)
    out = [[0] * nj for _ in range(nk)]
    for c, E in zip(coords, V.entries(k, j)):
        if c:
            for u, v, e in E:
                out[u][v] += c * e
    return out


def _embed(V, diag, coords, symmetric):
    """N x N matrix with scalar diagonal blocks and the given lower blocks.

    symmetric mirrors every lower block into the upper triangle.
    """
    part = V.partition
    N = part.total
    M = [[0] * N for _ in range(N)]
    for i in range(1, part.r + 1):
        o = part.offset(i)
        c = diag[i - 1]
        if c:
            for t in range(part.size(i)):
                M[o + t][o + t] = c
    for (k, j), cs in coords.items():
        if not any(cs):
            continue
        block = block_from_coords(V, k, j, cs)
        ok, oj = part.offset(k), part.offset(j)
        for u, row in enumerate(block):
            for v, e in enumerate(row):
                if e:
                    M[ok + u][oj + v] = e
                    if symmetric:
                        M[oj + v][ok + u] = e
    return M


def embed(x, V):
    """Symmetric N x N matrix of a ConeElement."""
    return _embed(V, x.diag, x.off, symmetric=True)


def _extract_block(M, part, k, j):
    ok, oj = part.offset(k), part.offset(j)
    nk, nj = part.size(k), part.size(j)
    return [M[ok + u][oj:oj + nj] for u in range(nk)]


def _scalar_of_diag_block(M, part, i):
    """The value c with block (i, i) == c I, or None."""
    o = part.offset(i)
    n = part.size(i)
    c = M[o][o]
    for u in range(n):
        row = M[o + u]
        for v in range(n):
            want = c if u == v else 0
            if row[o + v] != want:
                return None
    return c


def _project(M, V, symmetric):
    """Diagonal scalars and lower-block coordinates of an N x N matrix.

    symmetric demands M == tM; otherwise every block above the diagonal must
    vanish. Raises NotInSpaceError at the first block outside V.
    """
    part = V.partition
    N = part.total
    if len(M) != N or any(len(row) != N for row in M):
        raise StructureError("matrix is not %d x %d" % (N, N))
    if symmetric:
        if not linalg.is_symmetric(M):
            raise StructureError("matrix is not symmetric")
    else:
        for k, j in V.pairs():
            if any(any(row) for row in _extract_block(M, part, j, k)):
                raise StructureError(
                    "matrix is not block lower triangular at (%d, %d)" % (j, k)
                )
    diag = []
    for i in range(1, part.r + 1):
        c = _scalar_of_diag_block(M, part, i)
        if c is None:
            raise NotInSpaceError(
                "diagonal block %d is not a scalar matrix" % i, ("diag", i)
            )
        diag.append(c)
    coords = {}
    for k, j in V.pairs():
        block = _extract_block(M, part, k, j)
        if V.dim(k, j) == 0:
            if any(any(row) for row in block):
                raise NotInSpaceError(
                    "block (%d, %d) must vanish (zero-dimensional space)" % (k, j),
                    (k, j),
                )
            continue
        cs = V.solver(k, j).solve(linalg.vec_matrix(block))
        if cs is None:
            raise NotInSpaceError(
                "block (%d, %d) is outside its declared span" % (k, j), (k, j)
            )
        coords[(k, j)] = tuple(cs)
    return tuple(diag), coords


def project(M, V):
    """Inverse of embed; raises NotInSpaceError at the first offending block."""
    diag, off = _project(M, V, symmetric=True)
    return ConeElement(diag=diag, off=off)


def embed_group(h, V):
    """Block lower triangular N x N matrix of a GroupElement."""
    return _embed(V, h.diag, h.lower, symmetric=False)


def project_group(M, V):
    """Inverse of embed_group for block lower triangular matrices."""
    diag, lower = _project(M, V, symmetric=False)
    if 0 in diag:
        raise StructureError("diagonal block %d vanishes" % (diag.index(0) + 1))
    return GroupElement(diag=diag, lower=lower)


def _bilinear(a, G, b):
    acc = 0
    for u, av in enumerate(a):
        if av:
            for v, g in G[u].items():
                bv = b[v]
                if bv:
                    acc += av * g * bv
    return acc


def inner_product_V(x, y, V):
    """Trace form on V: sum of diagonal products plus twice the block pairings."""
    total = 0
    for a, b in zip(x.diag, y.diag):
        if a and b:
            total += a * b
    for key in V.spaces():
        a = x.off.get(key)
        b = y.off.get(key)
        if a and b:
            total += 2 * _bilinear(a, V.gram(*key), b)
    return total


def _sparse_block(V, k, j, coords):
    """sum(coords[a] * E_a) as a stripped row-dict block (see _kernels)."""
    out = {}
    for c, E in zip(coords, V.entries(k, j)):
        if c:
            for u, v, e in E:
                # basis entries are mostly 1: skip the rational product
                ce = c if e == 1 else c * e
                row = out.get(u)
                if row is None:
                    out[u] = {v: ce}
                else:
                    old = row.get(v)
                    row[v] = ce if old is None else old + ce
    return kernels.block_strip(out)


def _sparse_blocks(V, coords):
    """The nonzero lower blocks of a coordinate dict, as row-dict blocks."""
    out = {}
    for key, cs in coords.items():
        if any(cs):
            B = _sparse_block(V, *key, cs)
            if B:
                out[key] = B
    return out


def _lower_coords(V, blocks):
    """Coordinates of the lower row-dict blocks, checked in V.pairs() order.

    A missing block is zero. Raises NotInSpaceError at the first block outside
    its span; a block of a zero-dimensional space must vanish.
    """
    coords = {}
    for k, j in V.pairs():
        B = blocks.get((k, j), {})
        if V.dim(k, j) == 0:
            if B:
                raise NotInSpaceError(
                    "block (%d, %d) must vanish (zero-dimensional space)" % (k, j),
                    (k, j),
                )
            continue
        nj = V.partition.size(j)
        cs = V.solver(k, j).solve(
            {u * nj + v: e for u, row in B.items() for v, e in row.items()}
        )
        if cs is None:
            raise NotInSpaceError(
                "block (%d, %d) is outside its declared span" % (k, j), (k, j)
            )
        coords[(k, j)] = tuple(cs)
    return coords


def _integer_scaled(diag, coords):
    """(L, L·diag, L·coords) with L the lcm of every denominator, so ints.

    Products of ints are several times cheaper than products of Fractions,
    and the action and the group product are linear in each argument, so
    they run on the scaled values and divide once at the end.
    """
    (d, *cs), L = linalg.clear_denominators([diag, *coords.values()])
    return L, d, dict(zip(coords, cs))


def _divided(values, L):
    """The values over L, exact; a whole quotient stays an int."""
    out = []
    for c in values:
        if type(c) is int:
            q, rem = divmod(c, L)
            out.append(Fraction(c, L) if rem else q)
        else:
            out.append(linalg.normalize_rational(c / L))
    return tuple(out)


def rho_act(h, x, V):
    """The action h.x = h x th, block by block on sparse blocks.

    With H = h and X = x as block matrices (H_kk = a_k I, X_ll = x_l I and
    X_lm = tX_ml for l < m), it forms Y_km = sum_{l<=k} H_kl X_lm for m <= k
    only, then Z_kj = sum_{m<=j} Y_km tH_jm for k >= j only: the upper half
    of h x th is the transpose of the lower half. Each diagonal block Z_kk
    must be scalar and each lower block must lie in its span; the span solve
    that reads off its coordinates is that check. Raises
    ClosureViolationError at the first offending block, diagonal blocks
    first, then pairs in V.pairs() order. No N x N matrix is built. h and x
    are scaled to integer values by L_h and L_x first, and the result is
    divided by L_h^2 L_x at the end; scaling keeps every check as it is.
    """
    try:
        return _act(h, x, V)
    except NotInSpaceError as exc:
        raise ClosureViolationError(
            "action left the space: %s" % exc, exc.block
        ) from exc


def _act(h, x, V):
    """rho_act, raising the NotInSpaceError of the first offending block."""
    sizes = V.partition.sizes
    r = V.r
    Lh, a, lower = _integer_scaled(h.diag, h.lower)
    Lx, d, off = _integer_scaled(x.diag, x.off)
    H = _sparse_blocks(V, lower)
    X = _sparse_blocks(V, off)
    XT = {key: kernels.block_transpose(B) for key, B in X.items()}
    # Y_kk and Z_kk only enter the scalar check of the symmetric Z_kk, which
    # reads their lower halves; their scalar parts a_k d_k I and a_k^2 d_k I
    # stay numbers, so no block holds n_k entries for them
    Y = {}
    for k in range(1, r + 1):
        for m in range(1, k + 1):
            acc = {}
            if m < k and (k, m) in X:
                kernels.block_add(acc, X[(k, m)], a[k - 1])
            for l in range(1, k):
                A = H.get((k, l))
                if A is None:
                    continue
                if l == m:
                    kernels.block_add(acc, A, d[m - 1])
                else:
                    B = X.get((l, m)) if l > m else XT.get((m, l))
                    if B is not None:
                        kernels.block_addmul(acc, A, B, lower=m == k)
            Y[(k, m)] = kernels.block_strip(acc)
    HT = {key: kernels.block_transpose(B) for key, B in H.items()}
    Z = {}
    for k in range(1, r + 1):
        for j in range(1, k + 1):
            acc = kernels.block_add({}, Y[(k, j)], a[j - 1])
            for m in range(1, j):
                T = HT.get((j, m))
                if T is not None and Y[(k, m)]:
                    kernels.block_addmul(acc, Y[(k, m)], T, lower=j == k)
            Z[(k, j)] = kernels.block_strip(acc)
    diag = []
    for i in range(1, r + 1):
        c = kernels.block_scalar(Z[(i, i)], sizes[i - 1])
        if c is None:
            raise NotInSpaceError(
                "diagonal block %d is not a scalar matrix" % i, ("diag", i)
            )
        diag.append(c + a[i - 1] * a[i - 1] * d[i - 1])
    off = _lower_coords(V, Z)
    L = Lh * Lh * Lx
    if L == 1:
        return ConeElement(diag=tuple(diag), off=off)
    return ConeElement(
        diag=_divided(diag, L),
        off={key: _divided(cs, L) for key, cs in off.items()},
    )


def group_compose(h1, h2, V):
    """Product in the acting group, block by block on sparse blocks.

    Block (k, j) of the product is sum_{j<=l<=k} H1_kl H2_lj; the diagonal
    blocks are the products of the diagonal scalars. Raises
    ClosureViolationError at the first lower block outside its span, in
    V.pairs() order. The blocks are formed from h1 and h2 scaled to integer
    values by L_1 and L_2, and their coordinates divided by L_1 L_2.
    """
    L1, a, lower1 = _integer_scaled(h1.diag, h1.lower)
    L2, b, lower2 = _integer_scaled(h2.diag, h2.lower)
    H1 = _sparse_blocks(V, lower1)
    H2 = _sparse_blocks(V, lower2)
    P = {}
    for k, j in V.pairs():
        acc = {}
        if (k, j) in H2:
            kernels.block_add(acc, H2[(k, j)], a[k - 1])
        if (k, j) in H1:
            kernels.block_add(acc, H1[(k, j)], b[j - 1])
        for l in range(j + 1, k):
            A, B = H1.get((k, l)), H2.get((l, j))
            if A is not None and B is not None:
                kernels.block_addmul(acc, A, B)
        P[(k, j)] = kernels.block_strip(acc)
    try:
        lower = _lower_coords(V, P)
    except NotInSpaceError as exc:
        raise ClosureViolationError(
            "product left the group: %s" % exc, exc.block
        ) from exc
    L = L1 * L2
    if L != 1:
        lower = {key: _divided(cs, L) for key, cs in lower.items()}
    diag = tuple(p * q for p, q in zip(h1.diag, h2.diag))
    return GroupElement(diag=diag, lower=lower)


class ConditionReport(Record):
    passed: bool
    counterexample: tuple | None = None


class VerificationReport(Record):
    passed: bool
    v1: ConditionReport
    v2: ConditionReport
    v3: ConditionReport
    dims: DimTable
    orthonormal: bool


def _v2_excess(V, i, j, k):
    """tr(Q_ji Q_ki) - n_k d_kj d_ji for the frames of V_ji and V_ki, or None.

    None when either space has no frame. The excess is a sum of squares
    (see verify_v_conditions), so a negative one raises RuntimeError.
    """
    P, Q = V.frame(j, i), V.frame(k, i)
    if P is None or Q is None:
        return None
    excess = kernels.frame_trace(P, Q) - V.partition.size(k) * V.dim(k, j) * V.dim(j, i)
    if excess < 0:
        raise RuntimeError(
            "(V2) trace identity on (%d, %d, %d) falls below n_k d_kj d_ji" % (i, j, k)
        )
    return excess


def _product_condition(V, transposed, by_trace=False):
    """(V1) on basis elements, or (V2) when transposed.

    For i < j < k, (V1) needs X_kj * X_ji in V_ki and (V2) needs
    X_ki * t(X_ji) in V_kj. One kernel call per triple joins the left basis
    with the row (V1) or column (V2) index of V_ji and decides each nonzero
    product against the target's reduced rows where it is formed, in (a, b)
    order; a zero product lies in every span, so the first failing nonzero
    product is the first failing pair. The counterexample is (i, j, k, a, b)
    with a and b the 1-indexed basis elements of the left and right factor.
    A triple whose target is full (d = n_k n_t) makes no kernel call: the
    caller has shown every basis independent, so the target is the whole
    matrix space and holds every product. by_trace (for (V2), once (V1)
    has passed) first decides each triple by the trace identity of
    verify_v_conditions where V_ji and V_ki have frames; the kernel then
    runs only where it fails, to name the pair, and a kernel that finds
    none raises RuntimeError.
    """
    # looked up per call, so a wrapper installed on the kernels module is seen
    violation = kernels.span_violation
    part = V.partition
    for k in range(3, V.r + 1):
        for j in range(2, k):
            for i in range(1, j):
                left, target = ((k, i), (k, j)) if transposed else ((k, j), (k, i))
                basis_left = V.entries(*left)
                if not basis_left or not V.dim(j, i):
                    continue
                if V.dim(*target) == part.size(k) * part.size(target[1]):
                    continue
                excess = _v2_excess(V, i, j, k) if by_trace else None
                if excess == 0:
                    continue
                S = V.solver(*target)  # no rows when zero-dimensional
                right = V._index(j, i, by_row=not transposed)
                width = part.size(target[1])
                _, bad = violation(basis_left, right, width, S.rows, S.pivots, S.piv_invs)
                if bad is not None:
                    return ConditionReport(False, (i, j, k, bad[0] + 1, bad[1] + 1))
                if excess is not None:
                    raise RuntimeError(
                        "(V2) trace identity on (%d, %d, %d) fails but every "
                        "product lies in V_%d%d" % (i, j, k, k, j)
                    )
    return ConditionReport(True)


def verify_v_conditions(V):
    """Check (V1), (V2), (V3) on basis elements.

    Structural defects (bad shapes, dependent bases) raise StructureError;
    genuine condition failures come back in the report, with the first
    counterexample per condition. The orthonormal flag is informational and
    not part of the conditions.

    Three exact rules spare work without changing any answer:
      1. (V3) runs first. A space whose Gram matrix is diagonal has an
         orthogonal basis (its g_c are nonzero), so it is independent and
         builds its echelon form only when a (V1)/(V2) kernel reads it.
         Every other space is eliminated before any product is formed, so
         a dependent basis raises the same StructureError, naming the first
         dependent space in sorted order, as eliminating them all would.
      2. A triple whose target space is full (d = n_k n_t) forms no
         product: the target is the whole matrix space (see
         _product_condition).
      3. A basis with pairwise disjoint supports is its own reduced echelon
         form (see linalg.SpanSolver).

    Once (V1) has passed, (V2) on a triple i < j < k is decided without
    forming a product whenever V_ji and V_ki have frames Q = sum_c tX_c X_c
    / g_c, that is, (V3) holds on them with a diagonal Gram matrix (see
    VCollection.frame): (V2) holds there iff tr(Q_ji Q_ki) = n_k d_kj d_ji.
    With <X, Y> = tr(X tY), each basis element B of V_ji has B tB = g_B I,
    so A -> AB maps V_kj into V_ki by (V1) with <AB, A'B> = g_B <A, A'>,
    an injective map scaled from an isometry. For C = AB in its image,
    C tB = g_B A lies in V_kj; for C orthogonal to its image, <C tB, A> =
    <C, AB> = 0, so C tB is orthogonal to V_kj and lies in it only if it
    is 0. With V_ki's basis C_c orthogonal and <C_c, C_c> = n_k g_c,
    tr(Q_ji Q_ki) = sum_{b,c} |C_c tB_b|^2 / (g_b g_c), and the sum over c
    for one B_b is n_k times |C -> C tB_b|^2 over an orthonormal basis of
    V_ki: n_k d_kj g_b from the image plus a sum of squares from its
    complement. So the trace is n_k d_kj d_ji plus a sum of squares that
    vanishes exactly when (V2) holds on the triple. The span_violation
    kernel decides every other triple, and names the first failing pair of
    a triple where the identity fails.
    """
    v3 = ConditionReport(True)
    for k, j in V.spaces():
        bad = V.v3_violation(k, j)
        if bad is not None:
            v3 = ConditionReport(False, (k, j, *bad))
            break
    # rule 1: every basis that is not orthogonal is eliminated now
    for key in V.spaces():
        if not V._orthogonal(*key):
            V.solver(*key)

    v1 = _product_condition(V, transposed=False)
    v2 = _product_condition(V, transposed=True, by_trace=v1.passed)
    orthonormal = v3.passed and V.is_orthonormal()
    passed = v1.passed and v2.passed and v3.passed
    return VerificationReport(
        passed=passed,
        v1=v1,
        v2=v2,
        v3=v3,
        dims=V.dims_table(),
        orthonormal=orthonormal,
    )


class LdlResult(Record):
    """Outcome of the square-root-free block decomposition.

    pivots are the scalar block pivots d_1, ..., d_r, or d_1, ..., d_j when
    step j met a zero pivot over a nonzero column. status is "positive"
    (every pivot > 0), "boundary" (every pivot >= 0, one = 0) or
    "indefinite" (a pivot < 0, or that zero pivot). unit is the block lower
    triangular factor with unit diagonal, None after that zero pivot; with a
    unit, embed(x) equals U D tU with D the pivot block diagonal. is_member
    is derived from status.
    """

    pivots: tuple
    unit: GroupElement | None
    status: str  # positive, boundary, indefinite

    @property
    def is_member(self):
        return self.status == "positive"


def ldl_decompose(x, V):
    """Block elimination of a ConeElement: the group action, one column a step.

    At step j the pivot d_j is the current x_jj, and the unit column l_kj =
    x_kj / d_j (k > j) is read off the coordinates. x then moves to h.x with
    h = I - l te_j through the body of rho_act, which clears column j and
    leaves the Schur complement x_km - X_kj t(X_mj) / d_j (j < m <= k) to
    its right. U = I + sum_j l_j te_j has the l_kj as coordinates, and x =
    U D tU with D the pivot block diagonal. A step over a zero column is the
    identity and does not run. A zero pivot over a nonzero column ends the
    elimination as "indefinite": the remaining matrix then has a principal
    minor [[0, a], [a, x_kk]] of determinant -a^2 < 0, so x has eigenvalues
    of both signs. No N x N matrix is built.

    Failure contract: where (V3) or (V2) fails, a step can leave V, and it
    raises the NotInSpaceError that embedding, multiplying and projecting
    that step would raise ("diagonal block k is not a scalar matrix", or a
    block outside its span). A dependent basis raises StructureError at the
    first step's span solve; when no step runs, none is solved.
    """
    r = V.r
    pivots = []
    unit = {}
    for j in range(1, r + 1):
        d = x.diag[j - 1]
        pivots.append(d)
        col = [(k, j) for k in range(j + 1, r + 1) if any(x.off.get((k, j), ()))]
        if not col:
            continue
        if d == 0:
            return LdlResult(pivots=tuple(pivots), unit=None, status="indefinite")
        inv = linalg.exact_inv(d)
        for key in col:
            unit[key] = tuple(linalg.normalize_rational(c * inv) for c in x.off[key])
        h = GroupElement(diag=(1,) * r, lower={key: [-c for c in unit[key]] for key in col})
        x = _act(h, x, V)
    if all(p > 0 for p in pivots):
        status = "positive"
    elif all(p >= 0 for p in pivots):
        status = "boundary"
    else:
        status = "indefinite"
    return LdlResult(
        pivots=tuple(pivots), unit=group_element(V, (1,) * r, unit), status=status
    )


def is_member(x, V):
    return ldl_decompose(x, V).is_member
