"""Acceptance gate: the release-blocking checks, one verdict line each.

Every test prints exactly one "criterion N: PASS/FAIL (...)" line, even
under pytest's capture, and then asserts the same condition. Tolerances
are pinned in the assertions; a FAIL line records a measured shortfall,
not a crashed run.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time

import numpy as np
import pytest

from barriercover import (
    DeploymentSpec,
    ExperimentConfig,
    brute_force_min_kcover,
    child_seed,
    default_config,
    discretize,
    generate,
    greedy_max_coverage,
    k_oga,
    oga,
    oga_continuous,
    run_experiment,
)
from barriercover.cli import main
from conftest import (
    markov_equality_holds,
    oracle_instance,
    random_small_field,
    selected_cover_sets,
)

JOBS = 8


@pytest.fixture
def report(capsys):
    def _report(name, ok, detail):
        with capsys.disabled():
            print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        assert ok, f"criterion {name}: FAIL ({detail})"

    return _report


@functools.lru_cache(maxsize=None)
def single_cover_instances():
    return [oracle_instance(seed, k=1, n_max=12) for seed in range(500)]


@functools.lru_cache(maxsize=None)
def k_cover_instances(k):
    return [
        oracle_instance(1_000 * k + seed, k=k, n_max=10) for seed in range(150)
    ]


@functools.lru_cache(maxsize=None)
def single_failure_records():
    config = dataclasses.replace(default_config("single_failure"), jobs=JOBS)
    return run_experiment(config).records


def test_01_single_cover_minimality(report):
    start = time.perf_counter()
    checked = 0
    for field, targets in single_cover_instances():
        result = oga(field, targets, record_trace=False)
        minimum = brute_force_min_kcover(field, targets, 1)
        assert result.count == minimum
        assert not result.virtual_ids
        checked += 1
    wall = time.perf_counter() - start
    report(
        "1",
        checked == 500 and wall < 60.0,
        f"{checked}/500 selections match the exhaustive minimum, {wall:.1f}s",
    )


def test_02_kcover_minimality(report):
    start = time.perf_counter()
    checked = 0
    for k in (2, 3):
        for field, targets in k_cover_instances(k):
            result = k_oga(field, targets, k, record_trace=False)
            minimum = brute_force_min_kcover(field, targets, k)
            assert result.count == minimum
            assert not result.virtual_ids
            checked += 1
    wall = time.perf_counter() - start
    report(
        "2",
        checked == 300 and wall < 120.0,
        f"{checked}/300 k-cover selections match the exhaustive minimum,"
        f" {wall:.1f}s",
    )


def test_03_selection_chains_are_markov(report):
    checked = 0
    for field, targets in single_cover_instances():
        result = oga(field, targets)
        assert markov_equality_holds(selected_cover_sets(field, result, targets))
        checked += 1
    for k in (2, 3):
        for field, targets in k_cover_instances(k):
            result = k_oga(field, targets, k)
            assert markov_equality_holds(
                selected_cover_sets(field, result, targets)
            )
            checked += 1
    report("3", checked == 800, f"step equality holds on {checked}/800 chains")


def test_04_continuous_equals_discrete(report):
    agree = 0
    for seed in range(500):
        rng = np.random.default_rng([404, seed])
        field = random_small_field(rng)
        cont = oga_continuous(field, field.domain, record_trace=False)
        disc = oga(field, discretize(field), record_trace=False)
        assert cont.count == disc.count, f"seed {seed}"
        assert cont.selected_ids == disc.selected_ids, f"seed {seed}"
        agree += 1
    report("4", agree == 500, f"{agree}/500 counts and selections agree")


def test_05a_single_failure_extra_is_bounded(report):
    start = time.perf_counter()
    records = single_failure_records()
    wall = time.perf_counter() - start
    worst = max(row["max_diff"] for row in records)
    violations = sum(row["violations"] for row in records)
    failures = sum(row["failures"] for row in records)
    report(
        "5a",
        worst <= 1 and violations == 0 and wall < 600.0,
        f"max extra {worst}, {violations} violations over {failures}"
        f" single-sensor failures, {wall:.1f}s",
    )


def test_05b_single_failure_extra_mean(report):
    rows = [row for row in single_failure_records() if row["failures"]]
    worst_mean = max(row["mean_diff"] for row in rows)
    detail = ", ".join(
        f"n={row['n']}: {row['mean_diff']:.3f}" for row in rows
    )
    report("5b", worst_mean < 0.3, f"per-n mean extra {detail}")


def test_06_multi_gap_bound_and_monotone_mean(report):
    config = dataclasses.replace(default_config("multi_gap"), jobs=JOBS)
    start = time.perf_counter()
    records = run_experiment(config).records
    wall = time.perf_counter() - start
    violations = sum(row["violations"] for row in records)
    means = [row["mean_extra"] for row in records]
    monotone = all(a <= b for a, b in zip(means, means[1:]))
    within_gaps = all(row["mean_gaps"] <= row["m"] for row in records)
    report(
        "6",
        violations == 0 and monotone and within_gaps and wall < 600.0,
        f"0 bound violations, mean extras {[round(x, 3) for x in means]},"
        f" {wall:.1f}s",
    )


def test_07_frontier_beats_plain_greedy(report):
    wins = coverable = 0
    totals = []
    for r in range(50):
        spec = DeploymentSpec(
            n=3000,
            width=1000.0,
            radius=10.0,
            fov=90.0,
            seed=child_seed(0, 3000, r),
        )
        field = generate(spec)
        targets = discretize(field)
        frontier = oga(field, targets, record_trace=False)
        plain = greedy_max_coverage(field, targets, record_trace=False)
        if frontier.fully_covered and plain.fully_covered:
            coverable += 1
            totals.append(frontier.count)
            if frontier.count < plain.count:
                wins += 1
    mean_total = sum(totals) / len(totals)
    report(
        "7",
        coverable > 0
        and wins >= 0.95 * coverable
        and 62.0 <= mean_total <= 102.0,
        f"strictly fewer in {wins}/{coverable} coverable runs,"
        f" mean total {mean_total:.1f}",
    )


def test_08_kcover_beats_path_benchmark(report):
    base = dataclasses.replace(default_config("k_barrier"), jobs=JOBS)
    config = ExperimentConfig.from_dict({**base.to_dict(), "realizations": 50})
    records = run_experiment(config).records
    measured = [row for row in records if row["coverable"]]
    assert measured, "no realization was coverable at any sweep point"
    ordered = all(
        row["oga_mean_cov"] <= row["benchmark_mean_cov"] for row in measured
    )
    by_point = {(row["n"], row["k"]): row for row in measured}
    paired = sorted(n for n, k in by_point if (n, 2) in by_point and (n, 4) in by_point)
    smallest = paired[0]
    gaps = {
        k: by_point[smallest, k]["benchmark_mean_cov"]
        - by_point[smallest, k]["oga_mean_cov"]
        for k in (2, 4)
    }
    report(
        "8",
        ordered and gaps[4] >= gaps[2],
        f"mean within benchmark at {len(measured)} points; at n={smallest}"
        f" gap k=4 {gaps[4]:.2f} >= gap k=2 {gaps[2]:.2f}",
    )


def test_09_comparisons_scale_linearly(report):
    ratios = {"single": {}, "double": {}}
    for n in (1_000, 100_000):
        singles = []
        doubles = []
        for r in range(3):
            spec = DeploymentSpec(
                n=n,
                width=n / 3.0,
                radius=10.0,
                fov=90.0,
                kind="poisson",
                seed=child_seed(42, n, r),
            )
            field = generate(spec)
            targets = discretize(field)
            singles.append(oga(field, targets, record_trace=False).comparisons)
            doubles.append(
                k_oga(field, targets, 2, record_trace=False).comparisons
            )
        ratios["single"][n] = sum(singles) / (3 * n)
        ratios["double"][n] = sum(doubles) / (3 * n)
    spreads = {
        name: max(per_n.values()) / min(per_n.values())
        for name, per_n in ratios.items()
    }
    report(
        "9",
        all(spread < 3.0 for spread in spreads.values()),
        "comparisons/n at n=1e3 vs 1e5:"
        f" single {ratios['single'][1_000]:.2f}/{ratios['single'][100_000]:.2f},"
        f" double {ratios['double'][1_000]:.2f}/{ratios['double'][100_000]:.2f}",
    )


def test_10_cli_is_deterministic(report, tmp_path):
    def run_twice(argv, stem):
        paths = [tmp_path / f"{stem}.{i}" for i in (1, 2)]
        for path in paths:
            assert main(argv + ["--out", str(path)]) == 0
        first, second = (path.read_bytes() for path in paths)
        assert first == second, argv
        return paths[0]

    field = run_twice(
        ["gen", "--n", "40", "--width", "120", "--seed", "5"], "field"
    )
    field_args = ["--field", str(field), "--domain", "0", "120"]
    selection = run_twice(["cover"] + field_args, "cover")
    run_twice(["kcover", "--k", "2"] + field_args, "kcover")
    run_twice(
        ["mend", "--result", str(selection), "--failed", "0"] + field_args,
        "mend",
    )
    run_twice(["baseline", "--algorithm", "greedy"] + field_args, "greedy")
    run_twice(
        ["baseline", "--algorithm", "kpaths", "--k", "2"] + field_args,
        "kpaths",
    )
    small = run_twice(
        ["gen", "--n", "12", "--width", "40", "--seed", "6"], "small"
    )
    run_twice(
        ["oracle", "--field", str(small), "--domain", "0", "40"], "oracle"
    )
    experiment = [
        "experiment", "--name", "k_barrier", "--sweep", "60,90",
        "--realizations", "3", "--k-values", "2", "--seed", "3",
    ]
    for fmt in ("json", "csv"):
        lone = run_twice(experiment + ["--format", fmt, "--jobs", "1"], fmt)
        wide = run_twice(
            experiment + ["--format", fmt, "--jobs", str(JOBS)], fmt + "w"
        )
        assert lone.read_bytes() == wide.read_bytes()
    report("10", True, "all commands byte-identical across reruns and job counts")
