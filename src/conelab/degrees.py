"""Degrees of the basic relative invariants from a dimension table.

A rank-r realization is summarized by the integers d_kj = dim V_kj for
1 <= j < k <= r. A layering pass over those integers produces a unit lower
triangular matrix sigma; its row sums are the degrees of the basic relative
invariants, and twice its rows are the exponent tuples of the associated
characters on the diagonal part of the acting group.
"""

from __future__ import annotations

from operator import add, sub

from conelab._record import Record
from conelab.errors import InconsistentDimsError


class DimTable:
    """Off-diagonal dimensions d_kj, 1 <= j < k <= r, all required."""

    __slots__ = ("r", "_d")

    def __init__(self, r, dims):
        if not isinstance(r, int) or isinstance(r, bool) or r < 1:
            raise ValueError("rank must be a positive integer")
        self.r = r
        self._d = {}
        for (k, j), value in dims.items():
            if not (1 <= j < k <= r):
                raise ValueError("bad index pair (%d, %d) for rank %d" % (k, j, r))
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError("d_%d%d must be a nonnegative integer" % (k, j))
            self._d[(k, j)] = value
        expected = r * (r - 1) // 2
        if len(self._d) != expected:
            raise ValueError(
                "partial dimension table: %d of %d entries" % (len(self._d), expected)
            )

    def d(self, k, j):
        return self._d[(k, j)]

    def items(self):
        return sorted(self._d.items())

    def __eq__(self, other):
        return (
            isinstance(other, DimTable) and self.r == other.r and self._d == other._d
        )

    def __repr__(self):
        return "DimTable(r=%d, %r)" % (self.r, dict(self.items()))


def rank3_table(d21, d31, d32):
    return DimTable(3, {(2, 1): d21, (3, 1): d31, (3, 2): d32})


class SigmaTraceStep(Record):
    """Audit record for one column: the l-vector stages and the epsilon row."""

    i: int
    stages: tuple  # ((k, vector), ...) with vector the l-state after step k
    epsilon: tuple


class SigmaMatrix(Record):
    rows: tuple
    trace: tuple = ()

    _uncompared = ("trace",)

    @property
    def r(self):
        return len(self.rows)

    def entry(self, i, j):
        return self.rows[i - 1][j - 1]

    def __post_init__(self):
        for i, row in enumerate(self.rows):
            if row[i] != 1 or any(row[j] for j in range(i + 1, len(row))):
                raise ValueError("sigma must be unit lower triangular")
            if any(e < 0 for e in row):
                raise ValueError("sigma entries must be nonnegative")


def sigma_from_dims(table):
    """Layering pass over a dimension table.

    For each column i the vector of d_ki (k > i) is repeatedly corrected: at
    stage k the whole k-th column vector is subtracted whenever the k-th slot
    is still positive. Surviving positive slots give a 0/1 column, and the
    product of the associated elementary matrices (highest column first) is
    sigma. A negative slot at any stage means the table cannot come from a
    realization and raises InconsistentDimsError.
    """
    r = table.r
    cols = {
        i: tuple(table.d(k, i) if k > i else 0 for k in range(1, r + 1))
        for i in range(1, r)
    }
    epsilons = {}
    trace = []
    for i in range(1, r):
        l_vec = cols[i]
        stages = [(i, l_vec)]
        for k in range(i + 1, r):
            if l_vec[k - 1] > 0:
                l_vec = tuple(map(sub, l_vec, cols[k]))
                if min(l_vec) < 0:
                    bad = next(m for m in range(r) if l_vec[m] < 0)
                    raise InconsistentDimsError(
                        "dimension table not consistent with a homogeneous cone: "
                        "column %d goes negative in slot %d at stage %d"
                        % (i, bad + 1, k),
                        detail=(i, k, l_vec),
                    )
            stages.append((k, l_vec))
        eps = tuple(1 if l_vec[j - 1] > 0 else 0 for j in range(i + 1, r + 1))
        epsilons[i] = eps
        trace.append(SigmaTraceStep(i=i, stages=tuple(stages), epsilon=eps))
    sigma = [[1 if a == b else 0 for b in range(r)] for a in range(r)]
    for i in range(1, r):
        # left-multiply by E_i: identity plus the epsilon column under slot i
        eps = epsilons[i]
        base = sigma[i - 1]
        for j in range(i + 1, r + 1):
            if eps[j - i - 1]:
                row = sigma[j - 1]
                sigma[j - 1] = list(map(add, row, base))
    return SigmaMatrix(rows=tuple(tuple(row) for row in sigma), trace=tuple(trace))


def degrees_from_sigma(sigma):
    """Row sums: degrees of the basic relative invariants, lowest index first."""
    return tuple(sum(row) for row in sigma.rows)


def character_exponents(sigma, j):
    """Exponent tuple of the j-th character on diagonal group elements."""
    if not (1 <= j <= sigma.r):
        raise ValueError("invariant index out of range")
    return tuple(2 * e for e in sigma.rows[j - 1])


def dual_degrees_rank3(r, s, n):
    """Degrees on the dual side of a rank-3 cone with data (r, s, n).

    Swapping the roles of r and s passes to the dual realization, so the
    layering runs on the swapped table; the result is reported in the dual
    numbering, top degree first.
    """
    for name, v in (("r", r), ("s", s), ("n", n)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError("%s must be a nonnegative integer" % name)
    swapped = rank3_table(d21=r, d31=n, d32=s)
    degrees = degrees_from_sigma(sigma_from_dims(swapped))
    return tuple(reversed(degrees))
