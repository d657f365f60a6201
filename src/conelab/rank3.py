"""Rank-3 cones built from composition families.

A composition family is a list of n x s matrices A_1, ..., A_r with

    tA_i A_j + tA_j A_i = 2 delta_ij I_s,

equivalently t(L(x))L(x) = |x|^2 I_s for L(x) = sum x_i A_i. Such a family
yields a rank-3 realization on the partition (n, r, 1) whose elements are

    [[x11 I_n, R(y),    z  ],
     [tR(y),   x22 I_r, x  ],
     [tz,      tx,      x33]],

with R(y) the n x r matrix whose i-th column is A_i y. The r = 0 degenerate
case uses a block-diagonal layout on (s + n, 1, 1) instead; the generic
layout presumes r >= 1. Both are written once, in _realization: the cone
and the matrix of a point (embed_rank3) are read from it.

The dual cone (size 1 + s + n) and every dual object are the primal ones
of dual_family(F), read with the blocks reversed; the dual point (xi11,
xi22, xi33, xi, eta, zeta) is that family's primal point (xi33, xi22, xi11,
eta, xi, zeta). embed_rank3_dual is the only embedding built on its own, as
the independent oracle of this identification. Closed-form determinants,
the duality coupling and its Schur-style decomposition, relative
invariants, and the four-case degree classification live here too.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import islice
from math import comb

from conelab import _kernels as kernels
from conelab import linalg, poly
from conelab._record import Record
from conelab.core import (
    VCollection, _is_rational, cone_element, embed, verify_v_conditions,
)
from conelab.degrees import (
    character_exponents,
    degrees_from_sigma,
    dual_degrees_rank3,
    rank3_table,
    sigma_from_dims,
)
from conelab.errors import StructureError


def hurwitz_radon_number(n):
    """8a + 2^b for n = 2^(4a+b) * odd with 0 <= b <= 3."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise StructureError("n must be a positive integer")
    e = (n & -n).bit_length() - 1
    a, b = divmod(e, 4)
    return 8 * a + (1 << b)


class CompositionFamily:
    """r matrices of shape n x s satisfying the pairwise composition relations.

    The constructor checks shapes and rationality only; verify_composition
    decides the relations themselves.
    """

    def __init__(self, r, s, n, mats):
        for name, v in (("r", r), ("s", s), ("n", n)):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise StructureError("%s must be a nonnegative integer" % name)
        if s < 1 or n < 1:
            raise StructureError("s and n must be at least 1")
        if n < max(r, s):
            raise StructureError("n must be at least max(r, s)")
        mats = list(mats)
        if len(mats) != r:
            raise StructureError("expected %d matrices, got %d" % (r, len(mats)))
        frozen = []
        for idx, A in enumerate(mats):
            if len(A) != n or any(len(row) != s for row in A):
                raise StructureError(
                    "matrix %d is not %d x %d" % (idx + 1, n, s)
                )
            for row in A:
                for e in row:
                    if not _is_rational(e):
                        raise StructureError(
                            "non-rational entry in matrix %d" % (idx + 1)
                        )
            frozen.append(tuple(tuple(row) for row in A))
        self.r = r
        self.s = s
        self.n = n
        self.mats = tuple(frozen)

    def __eq__(self, other):
        return (
            isinstance(other, CompositionFamily)
            and (self.r, self.s, self.n) == (other.r, other.s, other.n)
            and self.mats == other.mats
        )

    def __repr__(self):
        return "CompositionFamily(r=%d, s=%d, n=%d)" % (self.r, self.s, self.n)


def L_matrix(F, xs):
    """sum xs[i] * A_i, an n x s matrix; entries may be rationals or Polys."""
    out = [[0] * F.s for _ in range(F.n)]
    for c, A in zip(xs, F.mats):
        if isinstance(c, (int, Fraction)) and c == 0:
            continue
        for u in range(F.n):
            Au = A[u]
            row = out[u]
            for v in range(F.s):
                if Au[v]:
                    row[v] = row[v] + c * Au[v]
    return out


def R_matrix(F, ys):
    """n x r matrix whose i-th column is A_i applied to ys: L(ys) of
    dual_family(F)."""
    return L_matrix(dual_family(F), ys)


def dual_family(F):
    """The swapped family: r and s exchanged, A'_b[nu][i] = A_i[nu][b].

    Then L'(y) = R(y) and R'(x) = L(x). Its relations, tR(y)R(y) = |y|^2 I_r,
    hold exactly when F's do: entry (i, j) of tR(y)R(y) is y^T tA_i A_j y =
    y^T (tA_i A_j + tA_j A_i)/2 y (see consistency_LR). Built from the
    already-checked F, since for r = 0 it has s' = 0, which the constructor
    refuses on input. dual_family(dual_family(F)) == F.
    """
    cols = [tuple(zip(*A)) for A in F.mats]  # cols[i][b]: column b of A_i
    G = CompositionFamily.__new__(CompositionFamily)
    G.r, G.s, G.n = F.s, F.r, F.n
    G.mats = tuple(
        tuple(zip(*(c[b] for c in cols))) if F.r else ((),) * F.n
        for b in range(F.s)
    )
    return G


# --- generation of square families ------------------------------------------

_P2 = ((0, 1), (1, 0))
_Q2 = ((1, 0), (0, -1))
_R2 = ((0, 1), (-1, 0))


def _cd_conj(a):
    if len(a) == 1:
        return a
    h = len(a) // 2
    return _cd_conj(a[:h]) + tuple(-t for t in a[h:])


def _cd_mul(x, y):
    # doubling product: (a,b)(c,d) = (ac - d*b, da + bc*)
    m = len(x)
    if m == 1:
        return (x[0] * y[0],)
    h = m // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    left = tuple(
        p - q for p, q in zip(_cd_mul(a, c), _cd_mul(_cd_conj(d), b))
    )
    right = tuple(
        p + q for p, q in zip(_cd_mul(d, a), _cd_mul(b, _cd_conj(c)))
    )
    return left + right


def _left_mult_family(m):
    """All 2^m left-multiplication matrices of the m-th doubling algebra."""
    dim = 1 << m
    units = [tuple(int(t == i) for t in range(dim)) for i in range(dim)]
    mats = []
    for i in range(dim):
        cols = [_cd_mul(units[i], units[v]) for v in range(dim)]
        mats.append([[cols[v][u] for v in range(dim)] for u in range(dim)])
    return mats


def _unit_family(m):
    """A maximal composition family for size 2^m, first member the identity.

    For m <= 3 these are the left multiplications of the division algebras
    of dimension 1, 2, 4, 8; beyond that, size 2^m = 2*8*2^(m-4) and the
    skew members are assembled on the tensor factors, adding 8 per step of
    four in m. All members are signed permutation matrices.
    """
    if m <= 3:
        return _left_mult_family(m)
    inner = _unit_family(m - 4)
    octo = _left_mult_family(3)
    small = 1 << (m - 4)
    i_small = linalg.identity(small)
    i8 = linalg.identity(8)
    out = [linalg.identity(1 << m)]
    out.append(linalg.kron(_R2, linalg.kron(i8, i_small)))
    for S in octo[1:]:
        out.append(linalg.kron(_Q2, linalg.kron(S, i_small)))
    for K in inner[1:]:
        out.append(linalg.kron(_P2, linalg.kron(i8, K)))
    return out


def _hurwitz_radon_refusal(r, n):
    """Why no family of r square n x n matrices exists (r > rho(n)), or None.

    For r = n this leaves exactly n in {1, 2, 4, 8} (Hurwitz-Radon).
    """
    rho = hurwitz_radon_number(n)
    if r > rho:
        return "r = %d exceeds the Hurwitz-Radon bound rho(%d) = %d" % (r, n, rho)
    return None


def composition_family(r, n):
    """A square family (s = n) with A_1 = I and entries in {-1, 0, 1}."""
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise StructureError("r must be a positive integer")
    reason = _hurwitz_radon_refusal(r, n)
    if reason is not None:
        raise StructureError(reason)
    m = (n & -n).bit_length() - 1
    odd = n >> m
    base = _unit_family(m)[:r]
    if odd == 1:
        mats = base
    else:
        i_odd = linalg.identity(odd)
        mats = [linalg.kron(B, i_odd) for B in base]
    return CompositionFamily(r, n, n, mats)


class CompositionReport(Record):
    passed: bool
    pair: tuple | None = None  # 1-indexed (i, j) of the first failing relation


def verify_composition(F):
    """Check tA_i A_j + tA_j A_i = 2 delta_ij I_s for all pairs, exactly.

    The (V3) kernel of the transposes tA_i decides the pairs j >= i where
    their nonzero products tA_i A_j are formed: each must pair to a scalar,
    and the scalars must be the identity's entries. A pair without a
    nonzero product passes for i != j and, unless s = 0, fails for i = j.
    """
    left = [[(v, u, e) for u, v, e in kernels.sparse_entries(A)] for A in F.mats]
    G, bad = kernels.gram_violation(left, kernels.space_index(left, False), F.s)
    for i in range(F.r if F.s else 0):
        for j in range(i, F.r):
            if (i, j) == bad or G[i].get(j, 0) != (i == j):
                return CompositionReport(False, (i + 1, j + 1))
    return CompositionReport(True)


class LRReport(Record):
    passed: bool
    mismatch: tuple | None = None


def consistency_LR(F):
    """tR(y)R(y) = |y|^2 I_r as a polynomial identity in y, exactly.

    Entry (i, j) of tR(y)R(y) is the quadratic form y^T tA_i A_j y =
    y^T (tA_i A_j + tA_j A_i)/2 y, which is |y|^2 delta_ij identically
    exactly when pair (i, j) of the composition relations holds, so
    verify_composition decides it and names the same first pair, here
    ("RR", i, j). The bilinear agreement L(x)y = R(y)x holds by the
    definition of R.
    """
    rep = verify_composition(F)
    return LRReport(True) if rep.passed else LRReport(False, ("RR", *rep.pair))


# --- realizations -------------------------------------------------------------


def _require_composition(F):
    rep = verify_composition(F)
    if not rep.passed:
        raise StructureError(
            "composition relations fail at pair %r" % (rep.pair,)
        )


def build_rank3_cone(F):
    """The (n, r, 1) lower realization; (s+n, 1, 1) block-diagonal for r = 0."""
    _require_composition(F)
    return _realize(F)


def _realization(F):
    """F's block layout as a realization, its closure conditions unchecked.

    The one statement of the layout: build_rank3_cone and embed_rank3 read it.
    """
    if F.r == 0:
        partition = (F.s + F.n, 1, 1)
        entries = {
            (2, 1): [[(0, b, 1)] for b in range(F.s)],
            (3, 1): [[(0, F.s + v, 1)] for v in range(F.n)],
        }
    else:
        # element b of V_21 is the r x n matrix whose row i is column b of A_i
        partition = (F.n, F.r, 1)
        entries = {
            (2, 1): [
                [
                    (i, nu, A[nu][b])
                    for i, A in enumerate(F.mats)
                    for nu in range(F.n)
                    if A[nu][b]
                ]
                for b in range(F.s)
            ],
            (3, 1): [[(0, nu, 1)] for nu in range(F.n)],
            (3, 2): [[(0, i, 1)] for i in range(F.r)],
        }
    return VCollection.from_entries(partition, entries)


def _realize(F):
    """build_rank3_cone without the composition check; self-checks (V1)-(V3)."""
    V = _realization(F)
    report = verify_v_conditions(V)
    if not report.passed:
        raise StructureError(
            "constructed realization fails its closure conditions: %r" % (report,)
        )
    return V


def build_rank3_dual(F):
    """Lower realization of the dual cone on the partition (n, s, 1).

    The natural dual picture is upper triangular of size 1 + s + n; reversing
    the block order turns it into the primal realization of dual_family(F),
    so the same verification and membership machinery applies. Diagonal
    coordinates are stored reversed: (xi33, xi22, xi11). Only F is checked:
    the relations of both families say |L(x)y| = |x||y|, so a broken F is
    refused with F's own failing pair.
    """
    _require_composition(F)
    return _realize(dual_family(F))


class Rank3Element(Record):
    x11: object
    x22: object
    x33: object
    x: tuple
    y: tuple
    z: tuple


class DualRank3Element(Record):
    xi11: object
    xi22: object
    xi33: object
    xi: tuple
    eta: tuple
    zeta: tuple


def _check_vec(name, vec, want):
    vec = () if vec is None else tuple(vec)
    if not vec:
        return (0,) * want
    if len(vec) != want:
        raise StructureError("%s must have %d entries, got %d" % (name, want, len(vec)))
    if not all(_is_rational(v) for v in vec):
        raise StructureError("%s entries must be rational" % name)
    return vec


def _checked_point(cls, F, diag, vecs):
    """cls(*diag, *vecs), the vectors checked for lengths (r, s, n)."""
    if not all(_is_rational(v) for v in diag):
        raise StructureError("diagonal values must be rational")
    names = cls._fields[3:]
    return cls(*diag, *map(_check_vec, names, vecs, (F.r, F.s, F.n)))


def rank3_element(F, x11, x22, x33, x=(), y=(), z=()):
    return _checked_point(Rank3Element, F, (x11, x22, x33), (x, y, z))


def dual_rank3_element(F, xi11, xi22, xi33, xi=(), eta=(), zeta=()):
    return _checked_point(DualRank3Element, F, (xi11, xi22, xi33), (xi, eta, zeta))


# A dual point of F is the primal point of dual_family(F) whose matrix is its
# own with the blocks reversed. The point conversions read only the shape
# (r, s, n) of a family, so they get the swapped shape, not dual_family(F).


_Shape = namedtuple("_Shape", "r s n")


def _dual_shape(F):
    return _Shape(F.s, F.r, F.n)


def _as_primal(Xi):
    return Rank3Element(Xi.xi33, Xi.xi22, Xi.xi11, Xi.eta, Xi.xi, Xi.zeta)


def _as_dual(X):
    return DualRank3Element(X.x33, X.x22, X.x11, X.y, X.x, X.z)


def to_cone_element(X, F, V):
    """Rank3Element -> ConeElement of build_rank3_cone(F)."""
    off = {(3, 1): X.z}
    if F.s:
        off[(2, 1)] = X.y
    if F.r:
        off[(3, 2)] = X.x
    return cone_element(V, (X.x11, X.x22, X.x33), off)


def from_cone_element(e, F):
    return rank3_element(
        F,
        *e.diag,
        e.off.get((3, 2), ()),
        e.off.get((2, 1), ()),
        e.off[(3, 1)],
    )


def dual_from_cone_element(e, F):
    return _as_dual(from_cone_element(e, _dual_shape(F)))


def embed_rank3(X, F):
    """Symmetric matrix of a Rank3Element in its block layout."""
    V = _realization(F)
    return embed(to_cone_element(X, F, V), V)


def embed_rank3_dual(Xi, F):
    """Symmetric matrix of a DualRank3Element, upper layout of size 1+s+n."""
    r, s, n = F.r, F.s, F.n
    N = 1 + s + n
    M = [[0] * N for _ in range(N)]
    M[0][0] = Xi.xi11
    for b in range(s):
        M[1 + b][1 + b] = Xi.xi22
        if Xi.eta[b]:
            M[0][1 + b] = M[1 + b][0] = Xi.eta[b]
    for v in range(n):
        M[1 + s + v][1 + s + v] = Xi.xi33
        if Xi.zeta[v]:
            M[0][1 + s + v] = M[1 + s + v][0] = Xi.zeta[v]
    if r:
        L = L_matrix(F, Xi.xi)
        for v in range(n):
            for b in range(s):
                if L[v][b]:
                    M[1 + s + v][1 + b] = M[1 + b][1 + s + v] = L[v][b]
    return M


# --- determinants -------------------------------------------------------------


def _Rt_apply(F, ys, zs):
    """tR(y) z, an r-vector bilinear in (y, z); works on numbers or Polys."""
    out = []
    for A in F.mats:
        acc = 0
        for nu in range(F.n):
            Anu = A[nu]
            for b in range(F.s):
                if Anu[b]:
                    acc = acc + Anu[b] * ys[b] * zs[nu]
        out.append(acc)
    return out


def _det_factors(F, x11, x22, x33, x, y, z, w=None):
    """Pairs (f, e) with det embed_rank3 = prod f^e, on numbers or Polys.

    Generic layout: (x11, q2, D3) to (n-r-1, r-1, 1) with q2 = x11 x22 - |y|^2
    and D3 = q2 q3 - |x11 x - tR(y)z|^2, q3 = x11 x33 - |z|^2; for r = n that
    bracket is divisible by x11 and its cubic quotient is D3. The r = 0 layout
    is block diagonal: (x11, q2, q3) to (s+n-2, 1, 1). Only dual_family of an
    r = 0 family has s = 0; there q2 = x11 x22 splits, giving (x11, x22,
    x11 x22 x33 - x22 |z|^2 - x11 |x|^2) to (n-1, r-1, 1). w is tR(y)z, when
    the caller has it already. Each factor is homogeneous: x11 and x22 of
    degree 1, q2 and q3 of degree 2, the cubic 3 and the quartic 4.
    """
    r, s, n = F.r, F.s, F.n
    if s == 0:
        cubic = x11 * x22 * x33 - x22 * poly.pnorm2(z) - x11 * poly.pnorm2(x)
        return (x11, n - 1), (x22, r - 1), (cubic, 1)
    q2 = x11 * x22 - poly.pnorm2(y)
    q3 = x11 * x33 - poly.pnorm2(z)
    if r == 0:
        return (x11, s + n - 2), (q2, 1), (q3, 1)
    if w is None:
        w = _Rt_apply(F, y, z)
    if r == n:
        cubic = (
            x11 * x22 * x33
            - x22 * poly.pnorm2(z)
            - x33 * poly.pnorm2(y)
            - x11 * poly.pnorm2(x)
            + 2 * poly.pdot(x, w)
        )
        return (x11, 0), (q2, r - 1), (cubic, 1)
    quart = q2 * q3 - poly.pnorm2([x11 * xi - wi for xi, wi in zip(x, w)])
    return (x11, n - r - 1), (q2, r - 1), (quart, 1)


def _scaled(X):
    """(Y, L): the point X times the lcm L of its denominators, in integers."""
    (v,), L = linalg.clear_denominators([primal_values(X)])
    rest = iter(v[3:])
    vecs = [tuple(islice(rest, len(getattr(X, k)))) for k in X._fields[3:]]
    return type(X)(*v[:3], *vecs), L


def _det(F, Y, L, w=None):
    """det embed_rank3 at Y / L, formed over the integer point Y (w is
    tR(y)z at Y, if known). The determinant is homogeneous of degree N, the
    size of the matrix, so one division by L^N undoes the scaling."""
    val = 1
    for f, e in _det_factors(F, Y.x11, Y.x22, Y.x33, Y.x, Y.y, Y.z, w):
        val = val * f**e
    N = F.s + F.n + 2 if F.r == 0 else F.n + F.r + 1
    return linalg.normalize_rational(Fraction(val, L**N))


def det_rank3_closed(X, F):
    """Closed-form determinant of embed_rank3(X, F); see _det_factors."""
    return _det(F, *_scaled(X))


def det_rank3_dual_closed(Xi, F):
    """Closed-form determinant of embed_rank3_dual(Xi, F).

    The primal formula of dual_family(F) at (x11, x22, x33, x, y, z) =
    (xi33, xi22, xi11, eta, xi, zeta): reversing the blocks of the dual
    matrix gives that family's primal matrix, with the same determinant.
    """
    return det_rank3_closed(_as_primal(Xi), dual_family(F))


# --- duality ------------------------------------------------------------------


def coupling(X, Xi):
    """x11 xi11 + x22 xi22 + x33 xi33 + 2<x,xi> + 2<y,eta> + 2<z,zeta>,
    formed on both points scaled to integers and divided once."""
    (a, b), L = linalg.clear_denominators([primal_values(X), primal_values(Xi)])
    val = 2 * kernels.dot(a, b) - a[0] * b[0] - a[1] * b[1] - a[2] * b[2]
    return linalg.normalize_rational(Fraction(val, L * L))


class CouplingDecomposition(Record):
    passed: bool
    lhs: object
    rhs: object
    det_ratio_primal_ok: bool
    det_ratio_dual_ok: bool


def _bordered_apply(Xi, L, C, s):
    """big C for the bordered block big = [[xi22 I_s, tL], [L, xi33 I_n]]."""
    C1, C2 = C[:s], C[s:]
    return [Xi.xi22 * c + kernels.dot(col, C2) for c, col in zip(C1, zip(*L))] + [
        kernels.dot(row, C1) + Xi.xi33 * c for row, c in zip(L, C2)
    ]


def _bordered_solve(Xi, Lxi, v_vec, s):
    """(B, LB) in integers with big B = LB v for v = (eta, zeta), or None.

    The composition relations give tL L = |xi|^2 I_s, so B = (xi33 g,
    q2d zeta - L g) with g = xi33 eta - tL zeta, LB = q2d xi33 and q2d =
    xi22 xi33 - |xi|^2 = xi33 (xi22 - |xi|^2/xi33) > 0. big B is compared
    with LB v before B is returned: None when F breaks its relations.
    """
    xi33 = Xi.xi33
    q2d = Xi.xi22 * xi33 - poly.pnorm2(Xi.xi)
    g = [xi33 * e - kernels.dot(col, Xi.zeta) for e, col in zip(Xi.eta, zip(*Lxi))]
    B = [xi33 * gv for gv in g] + [
        q2d * zv - kernels.dot(row, g) for zv, row in zip(Xi.zeta, Lxi)
    ]
    LB = q2d * xi33
    if _bordered_apply(Xi, Lxi, B, s) != [LB * v for v in v_vec]:
        return None
    return B, LB


def coupling_decomposition_check(X, Xi, F):
    """Verify the three-term positive decomposition of the coupling.

    Requires x11 > 0, the first primal Schur complement x22 - |y|^2/x11 > 0,
    xi33 > 0, and xi22 - |xi|^2/xi33 > 0, so every auxiliary quantity below
    is defined. Also cross-checks the two closed-form determinant ratios
    produced by the same elimination.

    Both sides are homogeneous of degree one in each point and each ratio
    in its point, so the check runs on both points scaled to integers (no
    sign changes) and divides lhs and rhs once at the end.

    The bordered block of the dual matrix is solved in closed form, which
    holds only under the composition relations. When its exact check fails,
    F is refused with StructureError naming its first failing pair, as
    build_rank3_cone refuses it.
    """
    r, s, n = F.r, F.s, F.n
    (X, L), (Xi, Ld) = _scaled(X), _scaled(Xi)
    x11 = X.x11
    if not x11 > 0:
        raise StructureError("x11 must be positive")
    xt22 = X.x22 - linalg.exact_div(poly.pnorm2(X.y), x11)
    if not xt22 > 0:
        raise StructureError("x22 - |y|^2/x11 must be positive")
    xi33 = Xi.xi33
    if not xi33 > 0:
        raise StructureError("xi33 must be positive")
    xit22 = Xi.xi22 - linalg.exact_div(poly.pnorm2(Xi.xi), xi33)
    if not xit22 > 0:
        raise StructureError("xi22 - |xi|^2/xi33 must be positive")

    w = _Rt_apply(F, X.y, X.z)
    xt = [xv - linalg.exact_div(wv, x11) for xv, wv in zip(X.x, w)]
    xt33 = X.x33 - linalg.exact_div(poly.pnorm2(X.z), x11)
    xdd33 = xt33 - (linalg.exact_div(poly.pnorm2(xt), xt22) if r else 0)

    # the dual matrix is [[xi11, t(eta, zeta)], [(eta, zeta), big]] with the
    # bordered block big = [[xi22 I_s, tL], [L, xi33 I_n]], L = L(xi)
    Lxi = L_matrix(F, Xi.xi)
    v_vec = list(Xi.eta) + list(Xi.zeta)
    solved = _bordered_solve(Xi, Lxi, v_vec, s)
    if solved is None:
        # the closed form fails only where F breaks its relations
        _require_composition(F)
        raise RuntimeError("bordered solve fails on a composition family")
    B, LB = solved
    xidd11 = Xi.xi11 - Fraction(kernels.dot(v_vec, B), LB)

    # C = B / LB + (y, z) / x11, and C^T big C
    C = [bv * x11 + uv * LB for bv, uv in zip(B, list(X.y) + list(X.z))]
    CXC = Fraction(kernels.dot(C, _bordered_apply(Xi, Lxi, C, s)), (LB * x11) ** 2)
    d = [
        linalg.exact_div(xiv, xi33) + linalg.exact_div(xtv, xt22)
        for xiv, xtv in zip(Xi.xi, xt)
    ]
    rhs = (
        x11 * (xidd11 + CXC)
        + xt22 * (xit22 + xi33 * poly.pnorm2(d))
        + xdd33 * xi33
    )
    lhs = coupling(X, Xi)

    q2 = x11 * X.x22 - poly.pnorm2(X.y)
    e1, e2 = (s + n - 1, 1) if r == 0 else (n - r, r)
    primal_ok = xdd33 * x11**e1 * q2**e2 == _det(F, X, 1, w)
    q2d = Xi.xi22 * xi33 - poly.pnorm2(Xi.xi)
    dual_ok = (
        xidd11 * xi33 ** (n - s) * q2d**s == det_rank3_dual_closed(Xi, F)
    )
    return CouplingDecomposition(
        passed=(lhs == rhs) and primal_ok and dual_ok,
        lhs=linalg.normalize_rational(Fraction(lhs, L * Ld)),
        rhs=linalg.normalize_rational(Fraction(rhs, L * Ld)),
        det_ratio_primal_ok=primal_ok,
        det_ratio_dual_ok=dual_ok,
    )


# --- closed-form invariants and classification --------------------------------


class InvariantList(Record):
    kind: str  # "primal" or "dual"
    polys: tuple
    degrees: tuple


def primal_values(X):
    """Field order: (x11, x22, x33, x*, y*, z*), or (xi11, ..., zeta*)."""
    a11, a22, a33, *vecs = (getattr(X, name) for name in X._fields)
    return [a11, a22, a33, *(v for vec in vecs for v in vec)]


def closed_form_invariants(F, which="primal"):
    """Short lists of relative invariants as exact polynomials.

    Primal, over (x11, x22, x33, x, y, z): the determinant factors
    (x11, x11 x22 - |y|^2, D3) of _det_factors, where D3 is the cubic factor
    when r = n, the quartic factor when 1 <= r < n, and x11 x33 - |z|^2 when
    r = 0.

    Dual, over (xi11, xi22, xi33, xi, eta, zeta): the primal list of
    dual_family(F) read as (x11, x22, x33, x, y, z) = (xi33, xi22, xi11,
    eta, xi, zeta), listed in reverse so the top degree comes first: cubic
    factor when s = n, quartic when s < n (r >= 1); for r = 0 the list is
    (xi11 xi22 xi33 - xi22 |zeta|^2 - xi33 |eta|^2, xi22, xi33).
    """
    r, s, n = F.r, F.s, F.n
    vs = poly.variables(3 + r + s + n)
    a11, a22, a33 = vs[0], vs[1], vs[2]
    xv = vs[3:3 + r]
    yv = vs[3 + r:3 + r + s]
    zv = vs[3 + r + s:]
    if which == "primal":
        factors = _det_factors(F, a11, a22, a33, xv, yv, zv)
    elif which == "dual":
        factors = _det_factors(dual_family(F), a33, a22, a11, yv, xv, zv)[::-1]
    else:
        raise StructureError("which must be 'primal' or 'dual'")
    polys = tuple(f for f, _ in factors)
    return InvariantList(
        kind=which,
        polys=polys,
        degrees=tuple(p.total_degree() for p in polys),
    )


class InvarianceReport(Record):
    passed: bool
    checked: int
    witness: tuple | None = None  # (j, h, x) for the first failure


def relative_invariance_check(F, invariants, sigma, sampler, samples=10):
    """Test D_j(rho(h) x) = prod_i t_ii^(2 sigma_ji) * D_j(x) on random pairs.

    The invariant list must be ordered to match the sigma rows of its own
    realization; the dual list from closed_form_invariants is reversed here
    automatically since the dual realization stores blocks in reversed order.
    """
    from conelab.core import rho_act

    dual = invariants.kind == "dual"
    V = build_rank3_dual(F) if dual else build_rank3_cone(F)
    polys = tuple(reversed(invariants.polys)) if dual else invariants.polys
    from_cone = dual_from_cone_element if dual else from_cone_element
    to_vals = lambda e: primal_values(from_cone(e, F))
    checked = 0
    for _ in range(samples):
        h = sampler.group_element(V)
        x = sampler.cone_element(V)
        hx = rho_act(h, x, V)
        base_vals = to_vals(x)
        act_vals = to_vals(hx)
        for j in range(1, V.r + 1):
            character = 1
            for t, exp in zip(h.diag, character_exponents(sigma, j)):
                if exp:
                    character = character * t**exp
            lhs = polys[j - 1].evaluate(act_vals)
            rhs = character * polys[j - 1].evaluate(base_vals)
            checked += 1
            if lhs != rhs:
                return InvarianceReport(False, checked, (j, h, x))
    return InvarianceReport(True, checked)


def transposed_action_defect(F):
    """|tR(y) z|^2 - |y|^2 |z|^2 as a polynomial in (y, z).

    Identically zero exactly when R(y) is square (r = n), since only then
    R(y) tR(y) is forced to be |y|^2 I_n; for r < n a nonzero defect
    certifies that the quartic determinant factor does not split.
    """
    vs = poly.variables(F.s + F.n)
    yv = vs[:F.s]
    zv = vs[F.s:]
    w = _Rt_apply(F, yv, zv)
    return poly.pnorm2(w) - poly.pnorm2(yv) * poly.pnorm2(zv)


def defect_witness(F):
    """A rational witness (u, v, value) with nonzero defect, or None.

    The dual defect |tL(xi) zeta|^2 - |xi|^2 |zeta|^2 is the one of
    dual_family(F). The defect is quadratic in each argument separately, so
    vanishing on the grid of unit vectors and pairwise sums forces it to
    vanish identically; the grid search is therefore complete.
    """
    defect = transposed_action_defect(F)

    def grid(dim):
        pts = []
        for i in range(dim):
            e = [0] * dim
            e[i] = 1
            pts.append(e)
        for i in range(dim):
            for j in range(i + 1, dim):
                e = [0] * dim
                e[i] = 1
                e[j] = 1
                pts.append(e)
        return pts

    for u in grid(F.s):
        for v in grid(F.n):
            val = defect.evaluate(u + v)
            if val != 0:
                return (tuple(u), tuple(v), val)
    return None


class Classification(Record):
    case: int
    primal: tuple
    dual: tuple
    triple: tuple
    normalized: tuple
    swapped: bool


_PUBLISHED = {
    1: ((1, 2, 3), (3, 2, 1)),
    2: ((1, 2, 4), (3, 2, 1)),
    3: ((1, 2, 4), (4, 2, 1)),
    4: ((1, 2, 2), (3, 1, 1)),
}


def _first_odd_binomial(n, lo, hi):
    """The least k with lo <= k < hi and C(n, k) odd, or None.

    By Lucas' theorem C(n, k) is odd exactly when k & ~n == 0. The least
    such k above lo is lo itself, or else lo's bits above some bit p that n
    has and lo lacks, plus p, with p as low as allows lo's bits above it to
    be n's. A bit p at or above hi's length gives a k >= hi, so the search
    takes O(bit length of hi) steps and forms no binomial.
    """
    if lo >= hi:
        return None
    k = lo
    if k & ~n:
        k = None
        for p in range(min(n.bit_length(), hi.bit_length())):
            bit = 1 << p
            if n & bit and not lo & bit:
                high = lo >> (p + 1) << (p + 1)
                if not high & ~n:
                    k = high | bit
                    break
    return k if k is not None and k < hi else None


def shape_refusal(r, s, n):
    """Why no nonsingular bilinear map R^r x R^s -> R^n exists, or None.

    Takes 0 <= r <= s and s, n >= 1. A composition family of shape
    (r, s, n) is such a map, (x, y) -> L(x) y, and so is the (V1) product of
    a realization (see dims_refusal). The certificates: n < s; for s = n, r
    beyond the Hurwitz-Radon bound rho(n); for s < n, an odd C(n, k) with
    n - s < k < r (Hopf-Stiefel), naming the first such k, and its value
    while n <= 64, where it stays below 2^64.
    """
    if n < s:
        return "n = %d is below max(r, s) = %d" % (n, s)
    if r == 0:
        return None
    if s == n:
        return _hurwitz_radon_refusal(r, n)
    k = _first_odd_binomial(n, n - s + 1, r)
    if k is None:
        return None
    value = " = %d" % comb(n, k) if n <= 64 else ""
    return "C(%d, %d)%s is odd (Hopf-Stiefel)" % (n, k, value)


def dims_refusal(table):
    """The first triple i < j < k whose (V1) product refutes a dim table.

    In a realization every B in V_ji has B tB = <B, B> I by (V3), so
    |AB|^2 = <B, B> tr(A tA) for A in V_kj: (A, B) -> AB is a nonsingular
    bilinear map R^d_kj x R^d_ji -> R^d_ki by (V1), and shape_refusal
    applies to (min, max, d_ki) of its dimensions when d_kj and d_ji are
    positive. Returns the message naming (i, j, k) and the certificate, or
    None; triples go in (k, j, i) order as in verify_v_conditions.

    Each distinct shape is decided once. For one (k, j) the pairs
    (d_ji, d_ki) over i are gathered as a set, less those already met with
    the same d_kj; only a (k, j) with a refused new pair is walked in i
    order, to name its first refused triple.
    """
    column = {k: [table.d(k, i) for i in range(1, k)] for k in range(2, table.r + 1)}
    cleared = set()  # shapes (min, max, d_ki) that shape_refusal passed
    seen = {}  # d_kj -> the pairs (d_ji, d_ki) already met with it
    for k in range(3, table.r + 1):
        row = column[k]
        for j in range(2, k):
            a = row[j - 1]
            if not a:
                continue
            pairs = list(zip(column[j], row))
            new = set(pairs) - seen.setdefault(a, set())
            refused = {}
            for b, c in new:
                shape = (min(a, b), max(a, b), c)
                if b and shape not in cleared:
                    reason = shape_refusal(*shape)
                    if reason is None:
                        cleared.add(shape)
                    else:
                        refused[(b, c)] = reason
            if refused:
                i, (b, c) = next(p for p in enumerate(pairs, 1) if p[1] in refused)
                return (
                    "no realization has this dimension table: at (i, j, k) = "
                    "(%d, %d, %d), (V1) makes V_%d%d x V_%d%d -> V_%d%d a "
                    "nonsingular bilinear map R^%d x R^%d -> R^%d, and %s"
                    % (i, j, k, k, j, j, i, k, i, a, b, c, refused[(b, c)])
                )
            seen[a] |= new
    return None


def classify_degrees(r, s, n):
    """The four-case degree table, cross-checked against the sigma algorithm.

    Input is normalized to r <= s by swapping (the swap dualizes, so degrees
    are reported for the normalized triple). Rejects non-realizable shapes
    by shape_refusal: n < s, s = n with r beyond rho(n), which for r = n
    leaves n in {1, 2, 4, 8}, and s < n with an odd C(n, k), n - s < k < r
    (naming the first such k).
    """
    for name, v in (("r", r), ("s", s), ("n", n)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise StructureError("%s must be a nonnegative integer" % name)
    triple = (r, s, n)
    swapped = r > s
    if swapped:
        r, s = s, r
    if s < 1 or n < 1:
        raise StructureError("s and n must be at least 1")
    reason = shape_refusal(r, s, n)
    if reason is not None:
        raise StructureError(
            "no composition family of shape (%d, %d, %d): %s" % (r, s, n, reason)
        )
    if r == 0:
        case = 4
    elif s == n:
        case = 1 if r == n else 2
    else:
        case = 3
    primal, dual = _PUBLISHED[case]
    derived_primal = degrees_from_sigma(
        sigma_from_dims(rank3_table(d21=s, d31=n, d32=r))
    )
    derived_dual = dual_degrees_rank3(r, s, n)
    if derived_primal != primal or derived_dual != dual:
        raise RuntimeError(
            "degree table disagrees with the sigma algorithm for %r" % (triple,)
        )
    return Classification(
        case=case,
        primal=primal,
        dual=dual,
        triple=triple,
        normalized=(r, s, n),
        swapped=swapped,
    )


def bundled_family_3_5_7():
    """The packaged (3, 5, 7) fixture."""
    import json
    from importlib import resources

    from conelab import serialize

    data = (
        resources.files("conelab").joinpath("data/family_3_5_7.json").read_text()
    )
    return serialize.family_from_dict(json.loads(data))
