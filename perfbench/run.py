"""conelab benchmark: four closed-loop workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload cli-cold --seed 3 --seconds 45 --trace 0
    python3 perfbench/run.py --workload doubled-theorem --trace 1

--trace 0 prints the end-to-end metrics, then task_p50_s and failed_frac
(see metrics.REPORTED); --trace 1 prints the per-layer metrics of a traced
run (see worker.py). Every workload runs in fresh interpreters: setup_s is
the median of SETUP_RUNS interpreters that only set up, and the timed loop
runs in one more. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it ("meta ...") records the run: commit or source digest, Python, backend,
nproc, seed and sample counts.

The program is imported from the checkout's src/ only. Without it the run
exits 2 and prints no result.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from metrics import END_TO_END, PER_LAYER, REPORTED, WORKLOAD_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_RUNS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def _worker(args, deadline):
    """Runs worker.py in its own process group; kills the group on timeout."""
    argv = [sys.executable, os.path.join(HERE, "worker.py")] + args
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before %s" % " ".join(args))
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out: %s" % " ".join(args)) from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError("worker exited %d: %s" % (proc.returncode, " ".join(args)))
    return json.loads(out.decode().strip().splitlines()[-1])


def tail(values):
    """(value, percentile): highest nearest-rank percentile with 10 samples beyond."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "conelab")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True)
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.decode().strip()


def run_workload(name, seed, seconds, trace, deadline):
    """Returns (result line, meta) for one workload."""
    base = os.path.join(WORK, "%s-%d-%d" % (name, seed, os.getpid()))
    common = ["--workload", name, "--seed", str(seed), "--seconds", repr(float(seconds))]
    try:
        if trace:
            out = _worker(common + ["--mode", "trace", "--workdir", base], deadline)
            metrics = out["layers"]
            units = dict(PER_LAYER)
            meta = {"untraced_samples": out["untraced_samples"]}
            if "sweep_times" in out:
                meta["sweep_times_s"] = out["sweep_times"]
        else:
            setups = []
            for i in range(SETUP_RUNS):
                t0 = time.monotonic()
                workdir = os.path.join(base, "setup%d" % i)
                ready = _worker(common + ["--mode", "setup", "--workdir", workdir],
                                deadline)["ready"]
                setups.append(ready - t0)
            out = _worker(common + ["--mode", "run", "--workdir", base], deadline)
            durations = [dt for _, dt in out["samples"]]
            tail_value, tail_pct = tail(durations)
            metrics = {
                "setup_s": statistics.median(setups),
                "task_tail_s": tail_value,
                "tasks_per_s": len(durations) / sum(durations),
                "peak_rss_mb": out["rss_mb"],
            }
            units = dict(END_TO_END)
            meta = {
                "setup_samples_s": setups,
                "tail_percentile": tail_pct,
                "task_p50_s": statistics.median(durations),
            }
    finally:
        shutil.rmtree(base, ignore_errors=True)
    failed = len(out["failures"])
    per_kind = {}
    for kind, dt in out["samples"]:
        per_kind.setdefault(kind, []).append(dt)
    meta.update({
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "backend": out["backend"],
        "python": out["python"],
        "samples": len(out["samples"]),
        "samples_per_kind": {k: len(v) for k, v in per_kind.items()},
        "p50_per_kind_s": {k: statistics.median(v) for k, v in per_kind.items()},
        "failed_frac": failed / out["attempted"],
        "failures": out["failures"][:5],
        "notes": out["notes"],
        "spec": out["spec"],
    })
    result = {
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, meta


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # turn SIGTERM into SystemExit so _worker's cleanup kills the worker group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "conelab", "__init__.py")):
        print("perfbench: no conelab sources under %s" % SRC, file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    run_meta = {
        "commit": commit(),
        "source_digest": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "env": {k: v for k, v in os.environ.items() if k.startswith("CONELAB_")},
    }
    results = []
    try:
        for name in names:
            result, meta = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            results.append((name, result))
            lines = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
            lines += [(k, meta[k], unit) for k, unit in REPORTED if k in meta]
            for metric, value, unit in lines:
                print("%-16s %-46s %-14.6g %s" % (name, metric, value, unit))
            print("meta " + json.dumps(dict(run_meta, **meta), sort_keys=True))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    if len(results) == 1:
        print(json.dumps(results[0][1]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {"%s.%s" % (n, k): m for n, r in results for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
