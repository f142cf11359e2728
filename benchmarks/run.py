#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of the barriercover package.

Run from the repository root:

    python3 benchmarks/run.py --workload mc_single_failure --seed 1 --seconds 30 --trace 0

``--trace 0`` times whole operations with tracing off and reports the
end-to-end metrics. ``--trace 1`` is the separate traced run: after each
untraced op it replays the same op through the layers' public functions
with spans and counters, and reports the per-layer metrics. Either way
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller results
file (machine facts, per-op times, output digest, failed checks) goes to
``benchmarks/out/``, and a traced run also writes its spans there.

All load runs in this one process; the package is called with jobs=1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# set-up is repeated this many times in an untraced run; its median is setup_s
SETUP_REPEATS = 5
# the outputs of this many ops from the start of a run go into its digest
DIGEST_OPS = 1

# A set-up starts with a fresh interpreter importing the package, which a
# user pays before the first call, then makes the workload's inputs.
IMPORT_PACKAGE = "import sys; sys.path.insert(0, sys.argv[1]); import barriercover"

# A fixed pure-Python loop that the package never runs. Timed before
# every op and after the last, it gauges how fast the machine runs at that
# moment; this machine's speed swings by up to 1.7x over seconds to
# minutes.
REF_ITERATIONS = 100_000

# End-to-end figures of an untraced run. The result line carries the
# bounded ones (BENCHMARK.json); the rest go to the results file only.
# Op times in seconds follow the machine's swings and spread over ten
# seeds by up to 0.38 of their median; op times over the reference loop
# timed beside them (op_cost_ref) cancel most of the swing.
E2E_UNITS = {"setup_s": "s", "op_cost_ref": "ref", "op_s_p50": "s", "op_s_p90": "s",
             "ops_per_s": "1/s", "ref_s": "s", "peak_rss_mb": "MB"}
BOUNDED = ("setup_s", "op_cost_ref", "peak_rss_mb")

# per-layer busy time per op, from spans of these names
LAYER_TIMES = (
    "deployment.generate",
    "fieldio.read_sensors",
    "model.SensorField.build",
    "model.discretize",
    "algorithms.oga",
    "algorithms.k_oga",
    "algorithms.oga_continuous",
    "algorithms.find_gaps",
    "algorithms.logm",
    "harness.single_failure_counts",
    "baselines.build_barrier_graph",
    "baselines.k_disjoint_paths",
)
# per-layer work per op, from counters of these names
LAYER_COUNTS = {
    "deployment.generate.sensors": "count",
    "fieldio.read_sensors.bytes": "bytes",
    "model.discretize.targets": "count",
    "algorithms.oga.comparisons": "count",
    "algorithms.k_oga.comparisons": "count",
    "algorithms.oga_continuous.comparisons": "count",
    "algorithms.oga_continuous.selected": "count",
    "algorithms.find_gaps.gaps": "count",
    "algorithms.logm.comparisons": "count",
    "harness.single_failure_counts.failures": "count",
    "baselines.k_disjoint_paths.nodes": "count",
}
# waste ratios: candidate comparisons per sensor picked
LAYER_RATIOS = {
    "algorithms.oga_continuous.comparisons_per_pick": (
        "algorithms.oga_continuous.comparisons", "algorithms.oga_continuous.selected"),
    "algorithms.logm.comparisons_per_pick": (
        "algorithms.logm.comparisons", "algorithms.logm.picks"),
}
RUN_EXPERIMENT = "harness.run_experiment"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.s": "s" for name in LAYER_TIMES}
    units.update(LAYER_COUNTS)
    units.update({name: "ratio" for name in LAYER_RATIOS})
    units[f"{RUN_EXPERIMENT}.self_s"] = "s"
    units["bench.teardown_s"] = "s"
    units["bench.trace_overhead_frac"] = "ratio"
    return units


def ref_loop() -> float:
    """Seconds the reference loop takes right now."""
    start = perf_counter()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i % 7
    return perf_counter() - start


def one_op(
    workload, i: int, tracer: Tracer | None
) -> tuple[float | None, float | None, list[str], object]:
    """Run, check and (when tracing) replay op i.

    Returns the op's seconds, the seconds taken to free its outputs, the
    failed checks and the outputs' summary. Checks, freeing and the replay
    lie outside the op's timed region. When the workload asks for it, the
    heap is collected after the op is freed, and again after its replay,
    so the next op is not charged for this one's garbage.
    """
    try:
        start = perf_counter()
        out = workload.op(i)
        elapsed = perf_counter() - start
        problems = workload.check(out)
        summary = workload.summary(out)
        start = perf_counter()
        del out
        if workload.collect_garbage:
            gc.collect()
        teardown = perf_counter() - start
        if tracer is not None:
            tracer.op = i
            replayed = workload.replay(i, tracer)
            problems += workload.check(replayed)
            if workload.summary(replayed) != summary:
                problems.append("traced replay produced different outputs")
            del replayed
            if workload.collect_garbage:
                gc.collect()
    except Exception:
        return None, None, [traceback.format_exc(limit=3)], None
    return elapsed, teardown, problems, summary


def timed_setup(workload) -> float:
    """Seconds for a fresh interpreter to import the package plus the
    workload's own set-up."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", IMPORT_PACKAGE, str(ROOT / "src")], check=True, timeout=120
    )
    workload.setup()
    return perf_counter() - start


def run_workload(workload, seconds: float, trace: bool) -> dict:
    """Set up, then repeat ops for ``seconds`` (and at least ``count_ops``
    ops when tracing). Returns the raw figures of the run."""
    setup_s = [timed_setup(workload) for _ in range(1 if trace else SETUP_REPEATS)]
    tracer = Tracer() if trace else None
    min_ops = workload.count_ops if trace else 1
    op_s: dict[int, float] = {}
    teardown_s: list[float] = []
    ref_s: list[float] = []
    problems: list[tuple[int, list[str]]] = []
    digest = hashlib.sha256()
    i = 0
    try:
        begin = perf_counter()
        while perf_counter() - begin < seconds or i < min_ops:
            ref_s.append(ref_loop())
            elapsed, teardown, issues, summary = one_op(workload, i, tracer)
            if elapsed is not None:
                op_s[i] = elapsed
            if teardown is not None:
                teardown_s.append(teardown)
            if issues:
                problems.append((i, issues))
            if i < DIGEST_OPS:
                digest.update(json.dumps(summary, sort_keys=True).encode())
            i += 1
        ref_s.append(ref_loop())
    finally:
        workload.cleanup()
    return {
        "setup_s": setup_s,
        "op_s": op_s,
        "teardown_s": teardown_s,
        "ref_s": ref_s,
        "attempted": i,
        "problems": problems,
        "digest": {"ops": min(i, DIGEST_OPS), "sha256": digest.hexdigest()},
        "tracer": tracer,
        "count_ops": workload.count_ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def end_to_end_metrics(raw: dict) -> dict[str, float]:
    """End-to-end figures of an untraced run.

    op_cost_ref is the mean over ops of each op's time over the mean of
    the reference loops timed just before and just after it.
    """
    times = list(raw["op_s"].values()) or [float("nan")]
    ref = raw["ref_s"]
    costs = [t / ((ref[i] + ref[i + 1]) / 2) for i, t in raw["op_s"].items()]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "op_cost_ref": statistics.fmean(costs) if costs else float("nan"),
        "op_s_p50": float(np.percentile(times, 50)),
        "op_s_p90": float(np.percentile(times, 90)),
        "ops_per_s": len(times) / sum(times),
        "ref_s": statistics.median(ref),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def layer_metrics(raw: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics, and every counter as a per-op mean.

    Times are per op over every traced op. Counters are per op over the
    first ``count_ops`` ops only, so they repeat exactly for a seed.
    """
    tracer: Tracer = raw["tracer"]
    untraced = raw["op_s"]
    ops = max(1, raw["attempted"])
    busy: dict[str, float] = {}
    children: dict[int, float] = {}
    roots: dict[int, tuple[str, int, float]] = {}
    for index, (name, start, end, parent, op) in enumerate(tracer.spans):
        busy[name] = busy.get(name, 0.0) + (end - start)
        if parent == -1:
            roots[index] = (name, op, end - start)
        elif tracer.spans[parent][3] == -1:
            children[parent] = children.get(parent, 0.0) + (end - start)
    counters: dict[str, float] = {}
    for name, op, value in tracer.counts:
        if op < raw["count_ops"]:
            counters[name] = counters.get(name, 0.0) + value
    counters = {name: total / raw["count_ops"] for name, total in counters.items()}

    metrics = {f"{name}.s": busy.get(name, 0.0) / ops for name in LAYER_TIMES}
    metrics.update({name: counters.get(name, 0.0) for name in LAYER_COUNTS})
    for name, (num, den) in LAYER_RATIOS.items():
        metrics[name] = counters[num] / counters[den] if counters.get(den) else 0.0
    self_s = [
        untraced[op] - children.get(index, 0.0)
        for index, (name, op, _d) in roots.items()
        if name == RUN_EXPERIMENT and op in untraced
    ]
    metrics[f"{RUN_EXPERIMENT}.self_s"] = sum(self_s) / len(self_s) if self_s else 0.0
    teardown = raw["teardown_s"]
    metrics["bench.teardown_s"] = sum(teardown) / len(teardown) if teardown else 0.0
    traced = [(d, untraced[op]) for _n, op, d in roots.values() if op in untraced]
    metrics["bench.trace_overhead_frac"] = (
        sum(t for t, _u in traced) / sum(u for _t, u in traced) if traced else 0.0
    )
    return metrics, counters


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        import workloads
    except ImportError as exc:
        print(f"run.py: cannot load the package sources: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    workload = workloads.make(args.workload, args.seed, OUT_DIR / "work")
    raw = run_workload(workload, args.seconds, bool(args.trace))
    failed = len(raw["problems"])
    if args.trace:
        metrics, counters = layer_metrics(raw)
        units = per_layer_units()
        reported = list(metrics)
    else:
        metrics, counters = end_to_end_metrics(raw), {}
        units = E2E_UNITS
        reported = BOUNDED

    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    if raw["tracer"] is not None:
        raw["tracer"].write(OUT_DIR / f"{stem}_spans.jsonl")
    results = {
        "facts": machine_facts(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": 1,
        "ops": raw["attempted"],
        "failed": failed,
        "error_rate": failed / max(1, raw["attempted"]),
        "trace_overhead_frac": metrics.get("bench.trace_overhead_frac"),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "counters_per_op": counters,
        "setup_s": raw["setup_s"],
        "op_s": list(raw["op_s"].values()),
        "teardown_s": raw["teardown_s"],
        "ref_s": raw["ref_s"],
        "digest": raw["digest"],
        "problems": raw["problems"][:20],
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(results, indent=1) + "\n")
    for i, issues in raw["problems"][:5]:
        print(f"op {i} failed: {'; '.join(issues)}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": raw["attempted"],
                "failed": failed,
                "metrics": {name: results["metrics"][name] for name in reported},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
