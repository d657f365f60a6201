"""Smoke test of the benchmark itself.

Run from the root of a checkout with `python3 -m pytest perfbench`. Each
workload runs for a few tasks, untraced and traced; every metric that
BENCHMARK.json names must come back with its unit, and no task may fail on
this code. One seed must always generate the same input sequence.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-3000:]
    lines = proc.stdout.decode().splitlines()
    assert lines[-2].startswith("meta ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("meta "):])


def test_benchmark_json_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} <= set(metrics.WORKLOAD_NAMES)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.SPECS[w["name"]]["why"]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(metrics.PER_LAYER)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", metrics.WORKLOAD_NAMES)
def test_workload_reports_every_metric_and_no_failure(workload, trace):
    result, meta = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert result["correct"] and result["failed"] == 0, meta["failures"]
    assert meta["failed_frac"] == 0
    if not trace:
        assert meta["task_p50_s"] > 0
    assert result["attempted"] >= len(workloads.WORKLOADS[workload].kinds)
    assert meta["samples"] % len(workloads.WORKLOADS[workload].kinds) == 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _first_inputs(cls, seed, workdir, count):
    wl = cls(seed, workdir)
    items = [item for _, item in zip(range(count), wl.inputs())]
    points = []
    if cls is workloads.DoubledMember:
        points = [wl.run(item)[0] for item in items[: len(cls.kinds)]]
    elif cls is workloads.Rank3Duality:
        points = [wl.run(item)[4].lhs for item in items[: len(cls.kinds)]]
    elif cls is workloads.CliCold:
        items = [(kind, [os.path.relpath(a, workdir) if a.startswith(workdir) else a
                         for a in argv]) for kind, argv in items]
        for name in sorted(os.listdir(workdir)):
            with open(os.path.join(workdir, name), "rb") as fh:
                points.append((name, fh.read()))
    return items, points


@pytest.mark.parametrize("workload", metrics.WORKLOAD_NAMES)
def test_one_seed_generates_one_input_sequence(workload):
    cls = workloads.WORKLOADS[workload]
    base = os.path.join(ROOT, ".perfbench_work", "test-inputs-%d" % os.getpid())
    try:
        count = 2 * len(cls.kinds)
        first = _first_inputs(cls, 11, os.path.join(base, "a"), count)
        again = _first_inputs(cls, 11, os.path.join(base, "b"), count)
        other = _first_inputs(cls, 12, os.path.join(base, "c"), count)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        parent = os.path.dirname(base)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
    assert first == again
    if workload != "doubled-theorem":  # its only input is the rank
        assert first != other
