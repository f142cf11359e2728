"""Experiment configs, runners, reports, and the fast failure sweep."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barriercover import harness
from barriercover.algorithms import (
    find_gaps,
    k_oga,
    logm,
    oga_continuous,
    single_failure_counts,
)
from barriercover.baselines import build_barrier_graph, k_disjoint_paths
from barriercover.deployment import DeploymentSpec, child_seed, generate
from barriercover.harness import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentReport,
    curve_intersection,
    default_config,
    prefix_coverage,
    run_experiment,
)
from barriercover.model import ParameterError, discretize
from conftest import ENDPOINTS, make_field, oracle_single_failure_counts, table_field


def tiny_config(experiment, **overrides):
    config = default_config(experiment)
    data = config.to_dict()
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


class TestExperimentConfig:
    def test_round_trip(self):
        config = dataclasses.replace(default_config("k_barrier"), base_seed=5, jobs=2)
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_rejects_unknown_experiment(self):
        message = (
            "unknown experiment 'teleport'; expected one of coverage_curve, "
            "intersection_sweep, k_barrier, single_failure, multi_gap"
        )
        with pytest.raises(ParameterError) as err:
            ExperimentConfig(
                experiment="teleport",
                deployment=DeploymentSpec(n=5, width=10.0),
                sweep=(5,),
            )
        assert str(err.value) == message
        with pytest.raises(ParameterError) as err:
            default_config("teleport")
        assert str(err.value) == message

    def test_rejects_bad_sweep(self):
        dep = DeploymentSpec(n=5, width=10.0)
        with pytest.raises(ParameterError):
            ExperimentConfig(experiment="k_barrier", deployment=dep, sweep=())
        with pytest.raises(ParameterError):
            ExperimentConfig(
                experiment="k_barrier", deployment=dep, sweep=(0,)
            )

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"realizations": 2.7}, "realizations must be an integer, got 2.7"),
            ({"sweep": "12"}, "sweep entry must be an integer, got '1'"),
            ({"k_values": [2.9]}, "k_values entry must be an integer, got 2.9"),
            ({"jobs": True}, "jobs must be an integer, got True"),
            ({"base_seed": 1.5}, "base_seed must be an integer, got 1.5"),
        ],
        ids=["realizations", "sweep", "k_values", "jobs", "base_seed"],
    )
    def test_counts_are_whole_numbers(self, override, message):
        # int() used to truncate these to 2, (1, 2), (2,), 1 and 1
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            tiny_config("k_barrier", **override)

    def test_rejects_unknown_keys(self):
        data = default_config("k_barrier").to_dict()
        data["burnin"] = 3
        with pytest.raises(ParameterError):
            ExperimentConfig.from_dict(data)

    def test_defaults_exist_for_every_experiment(self):
        for name in EXPERIMENTS:
            config = default_config(name)
            assert config.experiment == name
            assert config.sweep
            assert config.realizations >= 1


class TestWorkerPool:
    def test_starts_no_more_workers_than_tasks_or_cores(self, monkeypatch):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *columns, chunksize=1):
                return map(fn, *columns)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        tasks = [(-i,) for i in range(10)]
        assert harness._pmap(abs, tasks, 100_000) == list(range(10))
        assert harness._pmap(abs, tasks[:3], 100_000) == [0, 1, 2]
        assert harness._pmap(abs, tasks, 2) == list(range(10))
        assert started == [4, 3, 2]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert harness._pmap(abs, tasks, 100_000) == list(range(10))
        assert started == [4, 3, 2]

    def test_importing_the_package_loads_no_pool(self):
        # compared with the modules loaded at start-up, as .pth files may add some
        code = (
            "import sys; before = set(sys.modules); "
            "import barriercover, barriercover.cli; "
            "print(sorted(m for m in set(sys.modules) - before"
            " if m.partition('.')[0] in ('multiprocessing', 'concurrent')))"
        )
        src = str(Path(harness.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert done.stdout == "[]\n"


class TestPrefixCoverage:
    def test_grows_along_the_chain(self):
        field = make_field([(0.0, 4.0), (2.0, 8.0), (7.0, 10.0)])
        curve = prefix_coverage(field, (0, 1, 2))
        assert curve == [0.0, 0.4, 0.8, 1.0]

    def test_virtual_ids_add_no_step(self):
        field = make_field([(0.0, 4.0)], domain=(0.0, 10.0))
        curve = prefix_coverage(field, (0, 99))
        assert curve == [0.0, 0.4]


class TestCurveIntersection:
    def test_midpoint_crossing(self):
        assert curve_intersection([0.0, 2.0, 4.0], [3.0, 3.0, 3.0]) == 1.5

    def test_exact_touch_lands_on_the_step(self):
        assert curve_intersection([0.0, 1.0, 2.0], [2.0, 2.0, 2.0]) == 2.0

    def test_never_crossing_is_none(self):
        assert curve_intersection([0.0, 0.5], [1.0, 1.0]) is None

    def test_equal_start_crosses_at_zero(self):
        assert curve_intersection([0.0, 5.0], [0.0, 0.0]) == 0.0

    def test_shorter_curve_holds_last_value(self):
        assert curve_intersection([0.0, 2.0, 4.0, 6.0], [5.0]) == pytest.approx(
            2.5
        )


class TestRunners:
    def test_coverage_curve_columns_and_padding(self):
        config = tiny_config(
            "coverage_curve",
            sweep=[12],
            realizations=2,
            deployment=DeploymentSpec(n=12, width=60.0, radius=8.0).to_dict(),
        )
        report = run_experiment(config)
        assert report.columns == (
            "n", "realization", "step",
            "oga_coverage", "greedy_coverage",
        )
        by_real = {}
        for rec in report.records:
            by_real.setdefault(rec["realization"], []).append(rec)
        for rows in by_real.values():
            assert [r["step"] for r in rows] == list(range(len(rows)))
            assert rows[0]["oga_coverage"] == 0.0
            assert rows[-1]["oga_coverage"] <= 1.0

    def test_intersection_sweep_reports_wins(self):
        config = tiny_config(
            "intersection_sweep",
            sweep=[40],
            realizations=3,
            deployment=DeploymentSpec(n=40, width=60.0, radius=8.0).to_dict(),
        )
        report = run_experiment(config)
        assert report.columns == (
            "n", "realizations", "coverable", "oga_mean", "greedy_mean",
            "oga_wins", "crossed", "crossing_mean",
        )
        rec = report.records[0]
        assert rec["realizations"] == 3
        assert 0 <= rec["coverable"] <= 3
        assert 0 <= rec["oga_wins"] <= rec["coverable"]

    def test_k_barrier_coverable_only_means(self):
        config = tiny_config(
            "k_barrier",
            sweep=[80],
            realizations=3,
            k_values=[2],
            deployment=default_config("k_barrier").deployment.to_dict(),
        )
        report = run_experiment(config)
        rec = report.records[0]
        assert rec["coverable"] <= rec["realizations"]
        if rec["coverable"]:
            assert rec["oga_mean_cov"] <= rec["benchmark_mean_cov"]
        else:
            assert rec["oga_mean_cov"] is None

    def test_k_barrier_generates_each_field_once(self, monkeypatch):
        calls = []

        def counted(spec):
            calls.append(spec.seed)
            return generate(spec)

        monkeypatch.setattr(harness, "generate", counted)
        config = tiny_config(
            "k_barrier", sweep=[50, 100], realizations=2, k_values=[2, 4]
        )
        report = run_experiment(config)
        assert len(report.records) == 4
        assert len(calls) == 4

    @pytest.mark.parametrize("k_values", [(2, 4), (4, 2), (3, 3)])
    def test_k_barrier_matches_the_selectors_per_k(self, k_values):
        config = tiny_config("k_barrier", k_values=list(k_values))
        missing = set()
        for n in (50, 100):
            for r in range(15):
                field = harness._field(config, n, r)
                targets = discretize(field)
                graph = build_barrier_graph(field, field.domain)
                expected = []
                for k in k_values:
                    rounds = k_oga(field, targets, k, record_trace=False)
                    bench = k_disjoint_paths(graph, k)
                    expected.append(
                        (rounds.count, rounds.fully_covered,
                         bench.count, bench.fully_covered)
                    )
                assert harness._k_barrier(config, n, r) == expected
                missing.add(len(k_disjoint_paths(graph, max(k_values)).virtual_ids))
        # fields with enough gap-free paths, and fields with some but too few
        assert 0 in missing
        assert any(0 < m < max(k_values) for m in missing)

    def test_single_failure_diff_bounds(self):
        config = tiny_config(
            "single_failure",
            sweep=[300],
            realizations=3,
            deployment=default_config("single_failure").deployment.to_dict(),
        )
        report = run_experiment(config)
        rec = report.records[0]
        assert rec["skipped"] + 0 <= 3
        if rec["failures"]:
            assert 0 <= rec["min_diff"] <= rec["max_diff"] <= 1
            assert rec["violations"] == 0

    def test_multi_gap_counts_gaps_and_extras(self):
        config = tiny_config(
            "multi_gap",
            sweep=[1, 2],
            realizations=2,
            deployment=default_config("multi_gap").deployment.to_dict(),
        )
        report = run_experiment(config)
        assert [rec["m"] for rec in report.records] == [1, 2]
        for rec in report.records:
            assert rec["mean_gaps"] <= rec["m"]
            assert rec["violations"] == 0


class TestReports:
    def test_csv_text_shape(self):
        config = tiny_config(
            "k_barrier", sweep=[60], realizations=2, k_values=[2]
        )
        report = run_experiment(config)
        lines = report.csv_text().strip().split("\n")
        assert lines[0].startswith("n,k,realizations,")
        assert len(lines) == 1 + len(report.records)

    def test_json_round_trip_and_timing_opt_in(self):
        config = tiny_config(
            "k_barrier", sweep=[60], realizations=1, k_values=[2]
        )
        report = run_experiment(config)
        plain = json.loads(report.json_text())
        assert "wall_time_s" not in plain
        timed = json.loads(report.json_text(include_timing=True))
        assert timed["wall_time_s"] >= 0.0
        assert plain["config"]["experiment"] == "k_barrier"
        assert plain["metadata"]["rng"] == "numpy-pcg64"
        assert len(plain["records"]) == len(report.records)

    def test_jobs_do_not_change_results(self):
        base = tiny_config(
            "single_failure",
            sweep=[200, 300],
            realizations=2,
            deployment=default_config("single_failure").deployment.to_dict(),
        )
        solo = run_experiment(base)
        data = base.to_dict()
        data["jobs"] = 2
        pair = run_experiment(ExperimentConfig.from_dict(data))
        assert solo.csv_text() == pair.csv_text()
        assert solo.json_text() == pair.json_text()
        assert "jobs" not in json.loads(solo.json_text())["config"]


@st.composite
def failure_tables(draw):
    """Fields on [0, 10]: a chain of touching spans from a to b, one link
    of it dropped half the time, plus spans with zero length, duplicate,
    touching and adjacent-double or subnormal ends."""
    cuts = draw(st.lists(st.sampled_from(ENDPOINTS[1:-1]), unique=True, max_size=6))
    ends = [0.0, *sorted(cuts), 10.0]
    pairs = list(zip(ends, ends[1:]))
    if draw(st.booleans()):
        pairs.pop(draw(st.integers(min_value=0, max_value=len(pairs) - 1)))
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        u = draw(st.sampled_from(ENDPOINTS))
        v = draw(st.sampled_from([x for x in ENDPOINTS if x >= u]))
        pairs.append((u, v))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    return table_field(draw(st.permutations(pairs)), (0.0, 10.0))


# one double past 1.0, and the smallest subnormal
AFTER_1 = math.nextafter(1.0, 2.0)
TINY = 5e-324


class TestSingleFailureCounts:
    @settings(max_examples=400, deadline=None)
    @given(failure_tables())
    @example(table_field([(0.0, 1.0), (AFTER_1, 10.0)], (0.0, 10.0)))
    @example(table_field([(0.0, 1.0), (1.0, 10.0), (0.0, 1.0), (1.0, 1.0)], (0.0, 10.0)))
    @example(table_field([(0.0, TINY), (0.0, 4.0), (TINY, 10.0), (4.0, 10.0)], (0.0, 10.0)))
    @example(table_field([(0.0, 10.0), (0.0, 10.0), (10.0, 10.0)], (0.0, 10.0)))
    def test_matches_the_per_pick_walks(self, field):
        expected = oracle_single_failure_counts(field, field.domain)
        assert single_failure_counts(field, field.domain) == expected

    def test_matches_the_per_pick_walks_on_stock_fields(self):
        config = default_config("single_failure")
        coverable = 0
        for base_seed in range(1, 7):
            seeded = dataclasses.replace(config, base_seed=base_seed)
            for n in config.sweep:
                field = harness._field(seeded, n, 0)
                expected = oracle_single_failure_counts(field, field.domain)
                assert single_failure_counts(field, field.domain) == expected
                coverable += expected is not None
        assert coverable >= 20

    def test_matches_the_per_pick_walks_at_n_1e5(self):
        spec = DeploymentSpec(
            n=100_000, width=100_000 / 3, kind="poisson", radius=10.0,
            fov=90.0, seed=1,
        )
        field = generate(spec)
        expected = oracle_single_failure_counts(field, field.domain)
        assert expected is not None
        assert single_failure_counts(field, field.domain) == expected

    def test_unclean_initial_selection_is_none(self):
        field = generate(
            DeploymentSpec(n=6, width=500.0, kind="poisson", radius=5.0,
                           fov=45.0, seed=0)
        )
        assert single_failure_counts(field, field.domain) is None

    def test_matches_the_public_slow_path(self):
        checked = 0
        for n, reps in ((250, 2), (900, 3), (1100, 2)):
            for r in range(reps):
                spec = DeploymentSpec(
                    n=n, width=1000.0, kind="poisson", radius=10.0,
                    fov=45.0, seed=child_seed(17, n, r),
                )
                field = generate(spec)
                fast = single_failure_counts(field, field.domain)
                sel = oga_continuous(field, field.domain)
                if fast is None:
                    assert not sel.fully_covered
                    continue
                assert sel.fully_covered
                assert [row[0] for row in fast] == list(sel.selected_ids)
                for sid, mended_total, fresh_total, clean in fast:
                    checked += 1
                    gaps = find_gaps(sel, [sid], field, field.domain)
                    assert len(gaps) == 1
                    mended = logm(
                        sel, gaps, field, field.domain,
                        failed_ids=[sid], record_trace=False,
                    )
                    fresh = oga_continuous(
                        field.without([sid]), field.domain,
                        record_trace=False,
                    )
                    assert mended_total == mended.count
                    assert fresh_total == fresh.count
                    assert clean == (
                        mended.fully_covered and fresh.fully_covered
                    )
        assert checked > 100

    def test_clean_diffs_stay_in_unit_range(self):
        hits = 0
        for r in range(6):
            spec = DeploymentSpec(
                n=900, width=1000.0, kind="poisson", radius=10.0,
                fov=45.0, seed=child_seed(19, 900, r),
            )
            field = generate(spec)
            rows = single_failure_counts(field, field.domain)
            if rows is None:
                continue
            for _sid, mended_total, fresh_total, clean in rows:
                if not clean:
                    continue
                hits += 1
                assert 0 <= mended_total - fresh_total <= 1
        assert hits > 50
