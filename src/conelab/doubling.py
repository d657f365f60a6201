"""Rank-raising construction: prepend a block of size 2*n_1.

Starting from a realization with partition (n_1, ..., n_r), the new datum has
partition (2n_1, n_1, ..., n_r). The new first column consists of the two
identity slabs (I 0), (0 I) over block 1 and, for every old space V_k1 with
basis {E_a}, the widened matrices (E_a 0) and (0 E_a); (E_a 0) has the
entries of E_a, so it is E_a's own stored tuple. Every old space is also
carried over unchanged with both indices shifted by one (the old first
column reappears as the new second column). Iterating from the rank-1 datum
yields partitions (2^{r-1}, ..., 2, 1) with dim V_kj = 2^{k-j}.

The step keeps (V1)-(V3) at every rank, for any input that passes them, not
only for the iterated family. Write W for the result and E, F for basis
elements of old spaces; W_(k+1)(j+1) = V_kj. A triple i < j < k of W with
i > 1 is the old triple (i-1, j-1, k-1). A new triple (1, j, k) reduces
to an old one, or to none:
  j = 2: (V1) E (I 0) = (E 0) and E (0 I) = (0 E) lie in W_k1 for E in
    V_(k-1)1, and (V2) (E 0) t(I 0) = E, (E 0) t(0 I) = 0 lie in
    W_k2 = V_(k-1)1 (likewise for (0 E));
  j > 2: for A in V_(k-1)(j-1), E in V_(j-1)1 and F in V_(k-1)1, (V1)
    A (E 0) = (AE 0) with AE in V_(k-1)1 by (V1) on the old triple
    (1, j-1, k-1), and (V2) (F 0) t(E 0) = F tE lies in V_(k-1)(j-1) by
    (V2) on that same triple, while (F 0) t(0 E) = 0.
(V3) on W_k1 is (V3) on V_(k-1)1, as (E 0) t(F 0) = E tF and (E 0) t(0 F)
= 0; on W_21 the slabs give I and 0. The dims table of W is d_21 = 2,
d_(k+1)1 = 2 d_k1 and d_(k+1)(j+1) = d_kj. Verification does not rely on
this: it decides every product of a doubled realization afresh.

`double` and `iterate_construction` refuse ranks above DEFAULT_RANK_CAP =
13, a constant. `conelab iterate` and `double` refuse their dense JSON from
rank 11 on (cli.MAX_DENSE_ENTRIES), so the cap binds only `conelab theorem`
and library calls, where verification time and memory grow about 2x per
rank: `conelab theorem --rank 13` and 14 took 0.54 and 1.04 s at peak RSS
52 and 94 MB as cold calls on a 2-vCPU VM with Python 3.11 (BENCH_23.json).
"""

from conelab.core import BlockPartition, VCollection, verify_v_conditions
from conelab.errors import StructureError

DEFAULT_RANK_CAP = 13


def _double_unchecked(V):
    """The rank-raising step on basis entries, without verifying V.

    The result is canonical by construction, so it is stored unchecked: V's
    elements are canonical, shifting every column of one element by n_1
    (below 2 n_1) keeps it in range and row-major sorted, and no value is
    new. Only the identity slabs and the right slab (0 E) are allocated:
    the left slab (E 0) and every carried-over space share V's tuples.
    """
    part = V.partition
    n1 = part.size(1)
    sizes = (2 * n1,) + part.sizes
    stored = {
        (2, 1): tuple(
            tuple((t, half * n1 + t, 1) for t in range(n1)) for half in range(2)
        )
    }
    for k in range(2, part.r + 1):
        old = V.entries(k, 1)
        if old:
            stored[(k + 1, 1)] = old + tuple(
                tuple((u, n1 + v, e) for u, v, e in E) for E in old
            )
    for (k, j) in V.spaces():
        stored[(k + 1, j + 1)] = V.entries(k, j)
    return VCollection._from_canonical(BlockPartition(sizes), stored)


def double(V):
    """One rank-raising step; the input must pass verify_v_conditions.

    The result's rank V.r + 1 must not exceed DEFAULT_RANK_CAP, as for
    iterate_construction.
    """
    _check_rank(V.r + 1)
    report = verify_v_conditions(V)
    if not report.passed:
        raise StructureError(
            "input realization fails its closure conditions: %r" % (report,)
        )
    return _double_unchecked(V)


def _check_rank(r):
    if r > DEFAULT_RANK_CAP:
        raise StructureError("rank %d exceeds the cap %d" % (r, DEFAULT_RANK_CAP))


def iterate_construction(r):
    """Apply the doubling step r-1 times starting from the rank-1 datum.

    The result has partition (2^{r-1}, ..., 2, 1) and total size 2^r - 1.
    No step verifies its input: the rank-r result restricted to blocks
    2..r is the rank-(r-1) result with every index shifted by one, so one
    verify_v_conditions of the result covers every step, and callers that
    need the guarantee run it once. Building rank 10 takes about 1 ms; the
    cost is in verifying, which sets the cap (see the module docstring).
    """
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise StructureError("rank must be a positive integer")
    _check_rank(r)
    V = VCollection(BlockPartition((1,)), {})
    for _ in range(r - 1):
        V = _double_unchecked(V)
    return V
