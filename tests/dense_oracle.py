"""Dense references for the sparse paths, used only by the tests.

dense_verify is the (V1)-(V3) check as it ran on dense matrices: every
product is a full dense matrix product, every symmetrized pairing scans every
entry, and span membership is decided by Gauss-Jordan elimination on dense
rows. It shares no code with the sparse path except the dense kernels of
conelab._kernels, which have their own naive references in test_kernels.py.

dense_basis rebuilds the dense basis matrices of one space from its entries,
and dense_realization_from_dict is the realization reader as it ran before
it learned to skip zeros: it parses every value and builds dense matrices.

dense_rho_act, dense_group_compose and dense_ldl_decompose are the group
action, the group product and the block elimination as they ran on dense
matrices: the action and the product embed into N x N matrices, multiply and
project back, and the elimination keeps every block as a dense matrix, with
Schur updates of its own. scalar_mul and mat_sub are the dense matrix
operations it needs. dense_ldl_steps is ldl_decompose's own step order
through embed, multiply and project, so a step that leaves V raises
project's NotInSpaceError.

dense_solve_linear is linalg.solve_linear as it ran over Fractions: Gaussian
elimination with the first nonzero pivot in each column, then back
substitution.

dense_verify_composition is rank3.verify_composition as it ran on dense
matrices: every product tA_i A_j formed in full and every entry compared.

dense_det is linalg.det_exact as plain Gaussian elimination over Fractions,
the rows in their given order.

bareiss_minors, leading_principal_minors and is_positive_definite_minors
are the Sylvester test, the membership oracle of acceptance criterion 8:
the leading principal minors by the fraction-free recurrence without
pivoting.
"""

from fractions import Fraction

from conelab import _kernels as kernels
from conelab.core import (
    BlockPartition,
    ConditionReport,
    LdlResult,
    VCollection,
    VerificationReport,
    block_from_coords,
    embed,
    embed_group,
    group_element,
    project,
    project_group,
)
from conelab.errors import (
    ClosureViolationError,
    NotInSpaceError,
    SerializationError,
    StructureError,
)
from conelab.linalg import clear_denominators, exact_inv, normalize_rational, vec_matrix
from conelab.serialize import _parse_index, _parse_list, _require_keys


def scalar_mul(c, A):
    return [[c * e if e else 0 for e in row] for row in A]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


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


def leading_principal_minors(A):
    """Leading principal minors of a square rational matrix.

    Returns (minors, completed); completed is False when a zero minor stopped
    the fraction-free recurrence before the last position.
    """
    A_int, scale = clear_denominators(A)
    raw, completed = bareiss_minors(A_int)
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


def dense_verify_composition(F):
    """The first failing pair (i, j), 1-indexed, or None if all relations hold."""
    for i in range(F.r):
        ti = [list(col) for col in zip(*F.mats[i])]
        for j in range(i, F.r):
            prod = kernels.mat_mul(ti, F.mats[j])
            want = 2 if i == j else 0
            for u in range(F.s):
                for v in range(F.s):
                    if prod[u][v] + prod[v][u] != (want if u == v else 0):
                        return (i + 1, j + 1)
    return None


def dense_det(A):
    """Determinant over Fractions: first nonzero pivot per column, no reordering."""
    n = len(A)
    M = [[Fraction(e) for e in row] for row in A]
    det = Fraction(1)
    for k in range(n):
        piv_row = next((i for i in range(k, n) if M[i][k]), None)
        if piv_row is None:
            return 0
        if piv_row != k:
            M[k], M[piv_row] = M[piv_row], M[k]
            det = -det
        det *= M[k][k]
        for i in range(k + 1, n):
            f = M[i][k] / M[k][k]
            if f:
                for j in range(k, n):
                    M[i][j] -= f * M[k][j]
    return normalize_rational(det)


def dense_solve_linear(A, b):
    """Solve A·x = b over Fractions; raises StructureError if A is singular."""
    n = len(A)
    M = [list(row) + [bv] for row, bv in zip(A, b)]
    for k in range(n):
        piv_row = next((i for i in range(k, n) if M[i][k]), None)
        if piv_row is None:
            raise StructureError("singular system")
        if piv_row != k:
            M[k], M[piv_row] = M[piv_row], M[k]
        inv = exact_inv(M[k][k])
        for i in range(k + 1, n):
            c = M[i][k]
            if c:
                f = c * inv
                for j in range(k, n + 1):
                    if M[k][j]:
                        M[i][j] -= f * M[k][j]
    x = [0] * n
    for k in range(n - 1, -1, -1):
        acc = M[k][n]
        for j in range(k + 1, n):
            if M[k][j] and x[j]:
                acc -= M[k][j] * x[j]
        x[k] = acc * exact_inv(M[k][k])
    return x


def dense_basis(V, k, j):
    """Basis of V_kj as dense n_k x n_j nested tuples."""
    nk, nj = V.partition.size(k), V.partition.size(j)
    out = []
    for E in V.entries(k, j):
        M = [[0] * nj for _ in range(nk)]
        for u, v, e in E:
            M[u][v] = e
        out.append(tuple(map(tuple, M)))
    return tuple(out)


def dense_realization_from_dict(d):
    """serialize.realization_from_dict through dense matrices."""
    _require_keys(d, ("partition", "spaces"), (), "realization")
    if not isinstance(d["partition"], list) or not d["partition"]:
        raise SerializationError("partition must be a nonempty list")
    sizes = tuple(_parse_index(n, "partition entry") for n in d["partition"])
    partition = BlockPartition(sizes)
    r = partition.r
    bases = {}
    if not isinstance(d["spaces"], list):
        raise SerializationError("spaces must be a list")
    for entry in d["spaces"]:
        _require_keys(entry, ("k", "j", "basis"), (), "space entry")
        k = _parse_index(entry["k"], "k")
        j = _parse_index(entry["j"], "j")
        if not (1 <= j < k <= r):
            raise SerializationError("bad space index (%d, %d)" % (k, j))
        if (k, j) in bases:
            raise SerializationError("duplicate space entry (%d, %d)" % (k, j))
        nk, nj = partition.size(k), partition.size(j)
        mats = []
        if not isinstance(entry["basis"], list):
            raise SerializationError("basis of V_%d%d must be a list" % (k, j))
        for flat in entry["basis"]:
            values = _parse_list(flat, "basis element of V_%d%d" % (k, j))
            if len(values) != nk * nj:
                raise SerializationError(
                    "basis element of V_%d%d has %d entries, expected %d"
                    % (k, j, len(values), nk * nj)
                )
            mats.append(
                tuple(values[i * nj : (i + 1) * nj] for i in range(nk))
            )
        bases[(k, j)] = mats
    return VCollection(partition, bases)


class DenseSpan:
    """Row space of a list of dense vectors, echelonized once."""

    def __init__(self, vectors, label=""):
        rows = []
        piv_cols = []
        piv_invs = []
        for idx, start in enumerate(vectors):
            v = list(start)
            for row, pc, inv in zip(rows, piv_cols, piv_invs):
                c = v[pc]
                if c:
                    f = c * inv
                    v = [a - f * b for a, b in zip(v, row)]
            pc = next((j for j in range(len(v)) if v[j]), None)
            if pc is None:
                raise StructureError(
                    "linearly dependent basis%s (vector %d)"
                    % (" in " + label if label else "", idx + 1)
                )
            inv = exact_inv(v[pc])
            for u, row in enumerate(rows):
                c = row[pc]
                if c:
                    f = c * inv
                    rows[u] = [a - f * b for a, b in zip(row, v)]
            rows.append(v)
            piv_cols.append(pc)
            piv_invs.append(inv)
        self.rows = rows
        self.piv_cols = piv_cols
        self.piv_invs = piv_invs

    def contains(self, vector):
        v = list(vector)
        for row, pc, inv in zip(self.rows, self.piv_cols, self.piv_invs):
            c = v[pc]
            if c:
                f = c * inv
                v = [a - f * b for a, b in zip(v, row)]
        return not any(v)


def _product_condition(V, spans, transposed):
    mul = kernels.mat_mul_t if transposed else kernels.mat_mul
    for k in range(3, V.r + 1):
        for j in range(2, k):
            for i in range(1, j):
                left, target = ((k, i), (k, j)) if transposed else ((k, j), (k, i))
                basis_left = dense_basis(V, *left)
                basis_ji = dense_basis(V, j, i)
                if not basis_left or not basis_ji:
                    continue
                span = spans.get(target)
                for a, E in enumerate(basis_left):
                    for b, F in enumerate(basis_ji):
                        P = vec_matrix(mul(E, F))
                        if not (span.contains(P) if span else not any(P)):
                            return ConditionReport(False, (i, j, k, a + 1, b + 1))
    return ConditionReport(True)


def _gram(V, k, j):
    """Gram matrix of V_kj, or the first pair (a, b) whose pairing is not scalar."""
    basis = dense_basis(V, k, j)
    d = len(basis)
    G = [[0] * d for _ in range(d)]
    for a in range(d):
        for b in range(a, d):
            c = kernels.sym_pair_scalar(basis[a], basis[b])
            if c is None:
                return None, (a + 1, b + 1)
            G[a][b] = G[b][a] = c
    return G, None


def dense_verify(V):
    """The VerificationReport of verify_v_conditions, computed densely."""
    spans = {
        key: DenseSpan(
            [vec_matrix(E) for E in dense_basis(V, *key)], label="V_%d%d" % key
        )
        for key in V.spaces()
    }
    v3 = ConditionReport(True)
    grams = []
    for k, j in V.spaces():
        G, bad = _gram(V, k, j)
        if bad is not None:
            v3 = ConditionReport(False, (k, j, *bad))
            break
        grams.append(G)
    v1 = _product_condition(V, spans, transposed=False)
    v2 = _product_condition(V, spans, transposed=True)
    orthonormal = v3.passed and all(
        G[a][b] == (1 if a == b else 0)
        for G in grams
        for a in range(len(G))
        for b in range(len(G))
    )
    return VerificationReport(
        passed=v1.passed and v2.passed and v3.passed,
        v1=v1,
        v2=v2,
        v3=v3,
        dims=V.dims_table(),
        orthonormal=orthonormal,
    )


def dense_rho_act(h, x, V):
    """rho_act through the embedded N x N matrices."""
    H = embed_group(h, V)
    P = kernels.mat_mul_t(kernels.mat_mul(H, embed(x, V)), H)
    try:
        return project(P, V)
    except NotInSpaceError as exc:
        raise ClosureViolationError(
            "action left the space: %s" % exc, exc.block
        ) from exc


def dense_group_compose(h1, h2, V):
    """group_compose through the embedded N x N matrices."""
    P = kernels.mat_mul(embed_group(h1, V), embed_group(h2, V))
    try:
        return project_group(P, V)
    except NotInSpaceError as exc:
        raise ClosureViolationError(
            "product left the group: %s" % exc, exc.block
        ) from exc


def _status(pivots):
    if all(p > 0 for p in pivots):
        return "positive"
    return "boundary" if all(p >= 0 for p in pivots) else "indefinite"


def dense_ldl_decompose(x, V):
    """ldl_decompose on dense blocks."""
    r = V.partition.r
    diag = list(x.diag)
    blocks = {}
    for key, coords in x.off.items():
        if any(coords):
            blocks[key] = block_from_coords(V, *key, coords)
    pivots = []
    unit_cols = {}
    for j in range(1, r + 1):
        d = diag[j - 1]
        pivots.append(d)
        col = []
        for k in range(j + 1, r + 1):
            X = blocks.pop((k, j), None)
            if X is not None and any(any(row) for row in X):
                col.append((k, X))
        if d == 0:
            if col:
                return LdlResult(pivots=tuple(pivots), unit=None, status="indefinite")
            continue
        inv = exact_inv(d)
        for k, X in col:
            unit_cols[(k, j)] = scalar_mul(inv, X)
            c = kernels.sym_pair_scalar(X, X)
            if c is None:
                raise StructureError(
                    "(V3) violation during elimination at block (%d, %d)" % (k, j)
                )
            if c:
                diag[k - 1] = diag[k - 1] - c * inv
        for k, X in col:
            for j2, Y in col:
                if j2 >= k:
                    continue
                P = kernels.mat_mul_t(X, Y)
                if not any(any(row) for row in P):
                    continue
                update = scalar_mul(inv, P)
                cur = blocks.get((k, j2))
                blocks[(k, j2)] = (
                    mat_sub(cur, update)
                    if cur is not None
                    else scalar_mul(-1, update)
                )
    status = _status(pivots)
    lower = {}
    for (k, j), L in unit_cols.items():
        coords = V.solver(k, j).solve(vec_matrix(L))
        if coords is None:
            raise NotInSpaceError(
                "elimination block (%d, %d) left its declared span" % (k, j),
                (k, j),
            )
        lower[(k, j)] = tuple(coords)
    return LdlResult(
        pivots=tuple(pivots),
        unit=group_element(V, (1,) * r, lower),
        status=status,
    )


def dense_ldl_steps(x, V):
    """ldl_decompose with each step h.x, h = I - l te_j, formed as N x N matrices."""
    r = V.partition.r
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
        for key in col:
            unit[key] = tuple(Fraction(c) / d for c in x.off[key])
        h = group_element(V, (1,) * r, {key: [-c for c in unit[key]] for key in col})
        H = embed_group(h, V)
        x = project(kernels.mat_mul_t(kernels.mat_mul(H, embed(x, V)), H), V)
    return LdlResult(
        pivots=tuple(pivots),
        unit=group_element(V, (1,) * r, unit),
        status=_status(pivots),
    )
