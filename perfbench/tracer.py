"""Span tracer that times conelab's layers from outside the package.

The tracer replaces public functions and methods of the conelab modules with
wrappers, and puts the originals back on uninstall; nothing under src/
changes. A span is one call of a wrapped function: its name, its duration and
the span that was open when it started (its parent). Spans are aggregated as
they close, per name and per (name, parent name) edge, so memory stays flat
however many kernel calls a task makes. A span's self time is its duration
minus the time its child spans cover.

`_kernels.dot` is not wrapped: the dense loops call it once per matrix entry
pair, and a wrapper there would cost more than the work it measures. Its time
shows up as self time of the kernel that called it.
"""

import contextlib
import os
import sys
import time
from collections import defaultdict
from operator import mul

_perf = time.perf_counter


def _bits(value):
    if isinstance(value, int):
        return value.bit_length()
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _matrix_bits(rows):
    best = 0
    for row in rows:
        if not row:
            continue
        try:
            b = max(map(int.bit_length, row))
        except TypeError:  # Fraction entries
            b = max(_bits(e) for e in row)
        if b > best:
            best = b
    return best


def _col_nnz(M):
    return [len(col) - col.count(0) for col in zip(*M)]


def _row_nnz(M):
    return [len(row) - row.count(0) for row in M]


# Multiply-add accounting, computed from operand nonzeros at the call
# boundary. "visited" is the number of entry pairs the dense loop touches,
# "useful" the pairs whose product is nonzero.


def _hook_mat_mul(tr, args, result):
    A, B = args[0], args[1]
    if A and B:
        rows_b = _row_nnz(B)
        cols_a = _col_nnz(A)
        tr.useful_macs += sum(map(mul, cols_a, rows_b))
        tr.visited_macs += sum(cols_a) * len(B[0])
    tr.note_bits(_matrix_bits(result))


def _hook_mat_mul_t(tr, args, result):
    A, B = args[0], args[1]
    if A and B:
        tr.useful_macs += sum(map(mul, _col_nnz(A), _col_nnz(B)))
        tr.visited_macs += len(A) * len(B) * len(A[0])
    tr.note_bits(_matrix_bits(result))


def _hook_sym_pair(tr, args, result):
    if result is None:
        # early exit: the visited region is not known at the boundary
        return
    X, Y = args[0], args[1]
    if X and X[0]:
        cross = sum(map(mul, _col_nnz(X), _col_nnz(Y)))
        width = len(X[0])
        diag = sum(width - list(map(mul, xr, yr)).count(0) for xr, yr in zip(X, Y))
        tr.useful_macs += cross + diag
        tr.visited_macs += len(X) * (len(X) + 1) * len(X[0])
    tr.note_bits(_bits(result))


def _hook_scalar_bits(tr, args, result):
    tr.note_bits(_bits(result))


def _hook_vector_bits(tr, args, result):
    tr.note_bits(_matrix_bits([result]))


def _hook_bytes_in(tr, args, result):
    tr.bytes_in += os.path.getsize(args[0])


def targets():
    """(owner, attribute, span name, hook) for every wrapped function."""
    from conelab import cli, core, degrees, doubling, linalg, poly, rank3, sampling
    from conelab import serialize
    from conelab.backend import kernels

    return [
        (kernels, "mat_mul", "kernels.mat_mul", _hook_mat_mul),
        (kernels, "mat_mul_t", "kernels.mat_mul_t", _hook_mat_mul_t),
        (kernels, "sym_pair_scalar", "kernels.sym_pair_scalar", _hook_sym_pair),
        (kernels, "reduce_and_collect", "kernels.reduce_and_collect", _hook_vector_bits),
        (kernels, "bareiss_det", "kernels.bareiss_det", _hook_scalar_bits),
        (linalg.SpanSolver, "__init__", "linalg.SpanSolver.init", None),
        (linalg.SpanSolver, "solve", "linalg.SpanSolver.solve", None),
        (linalg.SpanSolver, "contains", "linalg.SpanSolver.contains", None),
        (linalg, "det_exact", "linalg.det_exact", None),
        (linalg, "solve_linear", "linalg.solve_linear", None),
        (core, "verify_v_conditions", "core.verify_v_conditions", None),
        (core, "rho_act", "core.rho_act", None),
        (core, "embed", "core.embed", None),
        (core, "embed_group", "core.embed_group", None),
        (core, "project", "core.project", None),
        (core, "ldl_decompose", "core.ldl_decompose", None),
        (doubling, "double", "doubling.double", None),
        (doubling, "iterate_construction", "doubling.iterate_construction", None),
        (degrees, "sigma_from_dims", "degrees.sigma_from_dims", None),
        (rank3, "build_rank3_cone", "rank3.build_rank3_cone", None),
        (rank3, "build_rank3_dual", "rank3.build_rank3_dual", None),
        (rank3, "det_rank3_closed", "rank3.det_rank3_closed", None),
        (rank3, "det_rank3_dual_closed", "rank3.det_rank3_dual_closed", None),
        (rank3, "embed_rank3", "rank3.embed_rank3", None),
        (rank3, "embed_rank3_dual", "rank3.embed_rank3_dual", None),
        (rank3, "coupling_decomposition_check", "rank3.coupling_decomposition_check", None),
        (rank3, "consistency_LR", "rank3.consistency_LR", None),
        (rank3, "verify_composition", "rank3.verify_composition", None),
        (poly.Poly, "__mul__", "poly.mul", None),
        (poly.Poly, "__rmul__", "poly.mul", None),
        (sampling.RationalSampler, "interior_element", "sampling.interior_element", None),
        (sampling.RationalSampler, "boundary_element", "sampling.boundary_element", None),
        (serialize, "realization_from_dict", "serialize.realization_from_dict", None),
        (serialize, "parse_rational", "serialize.parse_rational", None),
        (serialize, "dumps_canonical", "serialize.dumps_canonical", None),
        (serialize, "load_file", "serialize.load_file", _hook_bytes_in),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    """Aggregating span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self._stack = []
        self._patched = []
        self._paused = [False]
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = defaultdict(lambda: [0, 0.0])  # (name, parent) -> calls, s
        self.useful_macs = 0
        self.visited_macs = 0
        self.max_bits = 0
        self.bytes_in = 0
        self.spans = 0

    def note_bits(self, bits):
        if bits > self.max_bits:
            self.max_bits = bits

    def wrap(self, name, fn, hook=None):
        stack = self._stack
        paused = self._paused

        def traced(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                stack.pop()
                self._close(name, parent, dt, frame[1])
            if hook is not None:
                # hook time is charged to no span, so it inflates no self time
                h0 = _perf()
                hook(self, args, result)
                if parent is not None:
                    parent[1] += _perf() - h0
            return result

        return traced

    def _close(self, name, parent, dt, child):
        self.spans += 1
        self.calls[name] += 1
        self.incl[name] += dt
        self.self_time[name] += dt - child
        edge = self.edges[(name, parent[0] if parent else None)]
        edge[0] += 1
        edge[1] += dt
        if parent is not None:
            parent[1] += dt

    @contextlib.contextmanager
    def pause(self):
        """Calls inside the block run untraced (used for checks)."""
        self._paused[0] = True
        try:
            yield
        finally:
            self._paused[0] = False

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.startswith("conelab") and m]
        for owner, attr, name, hook in targets():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapped = self.wrap(name, original, hook)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            # names bound by `from module import name` elsewhere in the package
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original and mod is not owner:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def edge(self, name, parent):
        return self.edges.get((name, parent), (0, 0.0))
