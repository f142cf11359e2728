#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and measure its steadiness.

Run from the repository root:

    python3 benchmarks/series.py --runs 10 --traced 2 --out benchmarks/results/<name>.json

For each workload in BENCHMARK.json this runs ``benchmarks/run.py`` once
per seed 1, 2, ..., ``--runs`` with tracing off (and on the first
``--traced`` seeds with tracing on), one run at a time, for the
``run_seconds`` the file fixes. For every
end-to-end metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound. ``--out`` writes all of it, with the machine facts and
the per-layer medians of the traced runs, as one trajectory point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import E2E_UNITS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, results file) of one benchmark run."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = f"{workload}_seed{seed}_trace{trace}"
    results = json.loads((BENCH_DIR / "out" / f"{stem}.json").read_text())
    return line, results


def stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="untraced runs per workload")
    parser.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    parser.add_argument("--out", type=Path, help="write the trajectory point here")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2 to give quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    # the results file also holds end-to-end figures the result line omits
    figures = list(E2E_UNITS)
    seeds = list(range(1, args.runs + 1))

    point = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in names:
        e2e: dict[str, list[float]] = {name: [] for name in figures}
        runs = []
        for seed in seeds:
            line, results = one_run(workload, seed, seconds, 0)
            point.setdefault("facts", results["facts"])
            for name in figures:
                e2e[name].append(results["metrics"][name]["value"])
            runs.append({"seed": seed, "ops": results["ops"], "failed": line["failed"],
                         "correct": line["correct"], "digest": results["digest"]})
            print(f"{workload} seed {seed}: {results['ops']} ops, failed {line['failed']}",
                  file=sys.stderr)
        entry = {"runs": runs, "end_to_end": {}}
        for name, values in e2e.items():
            bound = bounds.get(name)
            entry["end_to_end"][name] = s = dict(stats(values), bound=bound)
            flag = ""
            if bound is not None and s["spread"] > bound:
                flag = "  <-- over bound"
            elif bound is not None and s["spread"] >= bound / 3:
                flag = "  <-- over bound/3"
            print(f"  {name:12s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  bound {bound}{flag}", file=sys.stderr)
        traced = []
        for seed in seeds[: args.traced]:
            line, results = one_run(workload, seed, seconds, 1)
            traced.append({"seed": seed, "ops": results["ops"], "correct": line["correct"],
                           "failed": line["failed"],
                           "metrics": {k: v["value"] for k, v in line["metrics"].items()}})
        if traced:
            entry["traced_runs"] = traced
            entry["per_layer_median"] = {
                name: statistics.median(run["metrics"][name] for run in traced)
                for name in traced[0]["metrics"]
            }
        point["workloads"][workload] = entry

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
