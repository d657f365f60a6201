"""One workload in one fresh interpreter; prints one JSON line on stdout.

Modes:
  setup  build the workload's fixed inputs, print the monotonic clock, exit
         (run.py times interpreter start to this line as setup_s);
  run    setup, warm-up, then the timed closed loop with tracing off;
  trace  setup traced, the untraced timed loop, the same inputs again traced,
         and the per-layer metrics (plus the rank sweep on doubled-theorem
         and the interpreter/import probes on cli-cold).

The timed loop stops once the summed task time reaches --seconds and the
tasks timed make whole cycles of the workload's task kinds, so every kind is
timed equally often. Checks run between tasks, outside the timed interval.
"""

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import conelab  # noqa: E402
import workloads  # noqa: E402
from conelab import core, doubling  # noqa: E402
from metrics import CLI_KINDS, KERNELS, PER_LAYER, SWEEP_RANKS  # noqa: E402

_perf = time.perf_counter

SWEEP_BUDGET_S = 20.0  # next rank is skipped if its predicted time exceeds this
PROBE_RUNS = 5


def attempt(wl, item, run, tracer=None):
    """Runs one task; returns its wall time and an error message or None."""
    t0 = _perf()
    try:
        out = run(item)
    except Exception as exc:  # a task must never raise; count it
        return _perf() - t0, "unexpected %s: %s" % (type(exc).__name__, exc)
    dt = _perf() - t0
    try:
        with tracer.pause() if tracer else contextlib.nullcontext():
            return dt, wl.check(item, out)
    except Exception as exc:
        return dt, "check raised %s: %s" % (type(exc).__name__, exc)


def timed_phase(wl, seconds, tracer=None):
    """Closed loop over a fresh input stream; returns samples and failures."""
    run = wl.run if tracer is None else tracer.wrap("task", wl.run)
    samples = []
    failures = []
    busy = 0.0
    cycle = len(wl.kinds)
    for item in wl.inputs():
        dt, err = attempt(wl, item, run, tracer)
        samples.append((item[0], dt))
        busy += dt
        if err:
            failures.append("%s: %s" % (item[0], err))
        if busy >= seconds and len(samples) % cycle == 0:
            break
    return samples, failures


def warm_up(wl):
    failures = []
    for _, item in zip(range(wl.warmup), wl.inputs()):
        err = attempt(wl, item, wl.run)[1]
        if err:
            failures.append("warm-up %s: %s" % (item[0], err))
    return failures


def _subprocess_s(argv):
    t0 = _perf()
    subprocess.run(argv, check=True, env=workloads.child_env())
    return _perf() - t0


def layer_metrics(tr, tasks):
    """Per-task means of the traced timed phase."""
    n = max(tasks, 1)

    def calls(name):
        return tr.calls.get(name, 0) / n

    def incl(name):
        return tr.incl.get(name, 0.0) / n

    def self_s(name):
        return tr.self_time.get(name, 0.0) / n

    def under(name, parent):
        c, s = tr.edge(name, parent)
        return c / n, s / n

    out = {}
    for k in KERNELS:
        out["kernels.%s.calls" % k] = calls("kernels." + k)
        out["kernels.%s.self_s" % k] = self_s("kernels." + k)
    out["kernels.useful_mac_ratio"] = (
        tr.useful_macs / tr.visited_macs if tr.visited_macs else 0.0
    )
    out["kernels.max_bits"] = tr.max_bits
    for name in ("init", "contains", "solve"):
        full = "linalg.SpanSolver." + name
        out[full + ".calls"] = calls(full)
        out[full + ".self_s"] = self_s(full)
        if name != "init":
            out[full + ".s"] = incl(full)
    for name in ("linalg.det_exact", "linalg.solve_linear"):
        out[name + ".calls"] = calls(name)
        out[name + ".self_s"] = self_s(name)
    verify = "core.verify_v_conditions"
    out[verify + ".calls"] = calls(verify)
    out[verify + ".s"] = incl(verify)
    out[verify + ".self_s"] = self_s(verify)
    for cond, kernel, unit in (("v1", "mat_mul", "products"),
                               ("v2", "mat_mul_t", "products"),
                               ("v3", "sym_pair_scalar", "pairs")):
        c, s = under("kernels." + kernel, verify)
        out["core.verify.%s_%s" % (cond, unit)] = c
        out["core.verify.%s_s" % cond] = s
    out["core.rho_act.calls"] = calls("core.rho_act")
    for name in ("rho_act", "embed", "embed_group", "project"):
        out["core.%s.s" % name] = incl("core." + name)
    out["core.ldl_decompose.calls"] = calls("core.ldl_decompose")
    out["core.ldl_decompose.s"] = incl("core.ldl_decompose")
    out["doubling.double.calls"] = calls("doubling.double")
    out["doubling.double.s"] = incl("doubling.double")
    out["doubling.double.reverify_s"] = under(verify, "doubling.double")[1]
    out["doubling.iterate_construction.s"] = incl("doubling.iterate_construction")
    out["degrees.sigma_from_dims.s"] = incl("degrees.sigma_from_dims")
    for name in ("build_rank3_cone", "build_rank3_dual", "coupling_decomposition_check",
                 "consistency_LR", "verify_composition"):
        out["rank3.%s.s" % name] = incl("rank3." + name)
    out["rank3.det_closed.s"] = incl("rank3.det_rank3_closed") + incl(
        "rank3.det_rank3_dual_closed")
    out["rank3.det_oracle.s"] = (
        incl("rank3.embed_rank3") + incl("rank3.embed_rank3_dual") + incl("linalg.det_exact")
    )
    out["poly.mul.calls"] = calls("poly.mul")
    out["sampling.interior_element.s"] = incl("sampling.interior_element")
    out["sampling.boundary_element.s"] = incl("sampling.boundary_element")
    out["serialize.realization_from_dict.s"] = incl("serialize.realization_from_dict")
    out["serialize.parse_rational.calls"] = calls("serialize.parse_rational")
    out["serialize.dumps_canonical.s"] = incl("serialize.dumps_canonical")
    out["serialize.bytes_in"] = tr.bytes_in / n
    out["trace.tasks"] = tasks
    out["trace.spans_per_task"] = tr.spans / n
    return out


def setup_metrics(tr):
    verify = "core.verify_v_conditions"
    return {
        "setup.core.verify_v_conditions.s": tr.incl.get(verify, 0.0),
        "setup.linalg.SpanSolver.init.s": tr.incl.get("linalg.SpanSolver.init", 0.0),
        "setup.doubling.double.reverify_s": tr.edge(verify, "doubling.double")[1],
        "setup.rank3.build_rank3_cone.s": tr.incl.get("rank3.build_rank3_cone", 0.0),
        "setup.rank3.build_rank3_dual.s": tr.incl.get("rank3.build_rank3_dual", 0.0),
    }


def rank_sweep():
    """Times iterate_construction and verify_v_conditions from rank 4 upward.

    The two top-level calls are timed directly, without the tracer, whose
    per-kernel hooks would inflate both ranks of every ratio. The sweep stops
    after rank 8 once the next rank is predicted to exceed SWEEP_BUDGET_S.
    """
    times = {}
    r = SWEEP_RANKS[0]
    while True:
        t0 = _perf()
        V = doubling.iterate_construction(r)
        t1 = _perf()
        if not core.verify_v_conditions(V).passed:
            raise RuntimeError("rank %d construction fails (V1)-(V3)" % r)
        times[r] = (t1 - t0, _perf() - t1)
        del V
        if r >= SWEEP_RANKS[-1]:
            growth = sum(times[r]) / sum(times[r - 1])
            if r >= doubling.DEFAULT_RANK_CAP or sum(times[r]) * growth > SWEEP_BUDGET_S:
                break
        r += 1
    top = max(times)
    out = {
        "sweep.max_rank": top,
        "core.verify_v_conditions.rank_growth": times[top][1] / times[top - 1][1],
        "doubling.iterate_construction.rank_growth": times[top][0] / times[top - 1][0],
    }
    for rank in SWEEP_RANKS:
        out["doubling.iterate_construction.r%d_s" % rank] = times[rank][0]
        out["core.verify_v_conditions.r%d_s" % rank] = times[rank][1]
    return out, {str(k): v for k, v in times.items()}


def cli_probes(untraced):
    bare = [_subprocess_s([sys.executable, "-c", "pass"]) for _ in range(PROBE_RUNS)]
    imp = [_subprocess_s([sys.executable, "-c", "import conelab.cli"])
           for _ in range(PROBE_RUNS)]
    out = {
        "cli.interpreter_s": statistics.median(bare),
        "cli.import_s": statistics.median(imp) - statistics.median(bare),
    }
    for kind in CLI_KINDS:
        out["cli.%s.s" % kind] = statistics.median([dt for k, dt in untraced if k == kind])
    return out


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)

    if not os.path.abspath(conelab.__file__).startswith(SRC + os.sep):
        raise SystemExit("conelab imported from %s, not %s" % (conelab.__file__, SRC))
    cls = workloads.WORKLOADS[args.workload]

    if args.mode == "setup":
        cls(args.seed, args.workdir)
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    result = {
        "backend": conelab.backend_name,
        "python": sys.version.split()[0],
        "spec": {k: v for k, v in workloads.SPECS[args.workload].items() if k != "why"},
    }
    if args.mode == "run":
        wl = cls(args.seed, args.workdir)
        failures = warm_up(wl)
        samples, timed_failures = timed_phase(wl, args.seconds)
        failures += timed_failures
        attempted = wl.warmup + len(samples)
        result["rss_mb"] = peak_rss_mb(children=args.workload == "cli-cold")
    else:
        from tracer import Tracer

        tr = Tracer()
        tr.install()
        try:
            wl = cls(args.seed, args.workdir, in_process=True)
        finally:
            tr.uninstall()
        layers = setup_metrics(tr)
        failures = warm_up(wl)
        untraced, f1 = timed_phase(wl, args.seconds)
        tr.reset()
        tr.install()
        try:
            samples, f2 = timed_phase(wl, args.seconds, tr)
        finally:
            tr.uninstall()
        failures += f1 + f2
        attempted = wl.warmup + len(untraced) + len(samples)
        layers.update(layer_metrics(tr, len(samples)))
        p50_off = statistics.median([dt for _, dt in untraced])
        p50_on = statistics.median([dt for _, dt in samples])
        layers["trace.overhead_frac"] = (p50_on - p50_off) / p50_off
        layers["core.ldl_decompose.boundary_as_undefined"] = (
            wl.notes.get("boundary_as_undefined", 0) / attempted)
        if args.workload == "doubled-theorem":
            sweep, result["sweep_times"] = rank_sweep()
            layers.update(sweep)
        if args.workload == "cli-cold":
            layers.update(cli_probes(untraced))
        result["layers"] = {
            name: layers.get(name, 0) for name, _ in PER_LAYER
        }
        result["untraced_samples"] = len(untraced)
    result["samples"] = samples
    result["attempted"] = attempted
    result["failures"] = failures
    result["notes"] = wl.notes
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
