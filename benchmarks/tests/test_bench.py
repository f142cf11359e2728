"""Self-test of the benchmark: tiny runs are clean, and its checks can fail.

Run from the repository root:

    python3 -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from verify import (  # noqa: E402
    check_k_barrier_row,
    check_mended,
    check_selection,
    check_single_failure_row,
)

from barriercover import (  # noqa: E402
    DeploymentSpec,
    SelectionResult,
    discretize,
    find_gaps,
    generate,
    k_oga,
    logm,
    oga_continuous,
)


def tiny(name: str, work_dir: Path):
    if name == "large_field":
        return workloads.LargeField(3, work_dir, n=2000)
    return workloads.make(name, 3, work_dir)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_has_no_errors(name, trace, tmp_path):
    raw = run.run_workload(tiny(name, tmp_path), 0.05, trace)
    assert raw["attempted"] >= (tiny(name, tmp_path).count_ops if trace else 1)
    assert raw["problems"] == []
    if trace:
        metrics, _counters = run.layer_metrics(raw)
        assert set(metrics) == set(run.per_layer_units())
        assert metrics["bench.trace_overhead_frac"] > 0
    else:
        metrics = run.end_to_end_metrics(raw)
        assert set(metrics) == set(run.E2E_UNITS)
        assert all(value > 0 for value in metrics.values())
    assert not list(tmp_path.iterdir())


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: run.E2E_UNITS[name] for name in run.BOUNDED
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def without(result: SelectionResult, sensor_id: int) -> SelectionResult:
    return SelectionResult(
        selected_ids=tuple(s for s in result.selected_ids if s != sensor_id),
        virtual_ids=tuple(s for s in result.virtual_ids if s != sensor_id),
        virtual_spans=result.virtual_spans,
        fully_covered=result.fully_covered,
    )


def test_verifier_flags_a_dropped_sensor():
    field = generate(
        DeploymentSpec(n=400, width=100.0, kind="poisson", radius=10.0, fov=90.0, seed=5)
    )
    cont = oga_continuous(field, field.domain, record_trace=False)
    assert cont.fully_covered
    assert check_selection("cover", cont, field, domain=field.domain) == []
    for sid in cont.selected_ids:
        assert check_selection("cover", without(cont, sid), field, domain=field.domain)

    xs = discretize(field).xs
    double = k_oga(field, xs, 2, record_trace=False)
    assert check_selection("2-cover", double, field, targets=xs, k=2) == []
    for sid in double.selected_ids:
        assert check_selection("2-cover", without(double, sid), field, targets=xs, k=2)


def test_verifier_flags_a_mended_selection_that_keeps_a_failed_sensor():
    field = generate(
        DeploymentSpec(n=400, width=100.0, kind="poisson", radius=10.0, fov=90.0, seed=5)
    )
    cont = oga_continuous(field, field.domain, record_trace=False)
    failed = list(cont.selected_ids[1:6:2])
    gaps = find_gaps(cont, failed, field, field.domain)
    mended = logm(cont, gaps, field, field.domain, failed_ids=failed, record_trace=False)
    assert check_mended("logm", cont, mended, failed, field, field.domain) == []

    # the selection before the failures still covers the domain, so only
    # the failed-id check can tell it from a mended one
    assert check_selection("logm", cont, field, domain=field.domain) == []
    assert check_mended("logm", cont, cont, failed, field, field.domain)
    back = SelectionResult(
        selected_ids=mended.selected_ids + (failed[0],),
        virtual_ids=mended.virtual_ids,
        virtual_spans=mended.virtual_spans,
        fully_covered=mended.fully_covered,
    )
    assert check_mended("logm", cont, back, failed, field, field.domain)
    survivor = next(sid for sid in cont.selected_ids if sid not in failed)
    assert check_mended("logm", cont, without(mended, survivor), failed, field, field.domain)


def test_verifier_flags_a_wrong_fully_covered_flag():
    field = generate(DeploymentSpec(n=5, width=100.0, seed=1))
    cont = oga_continuous(field, field.domain, record_trace=False)
    assert cont.virtual_ids
    lying = SelectionResult(
        selected_ids=cont.selected_ids,
        virtual_ids=cont.virtual_ids,
        virtual_spans=cont.virtual_spans,
        fully_covered=True,
    )
    assert check_selection("cover", cont, field, domain=field.domain) == []
    assert check_selection("cover", lying, field, domain=field.domain)


def test_row_checks_flag_bound_violations():
    row = workloads.single_failure_row(10, [(0, 5, 3, True), (1, 4, 4, True)])
    assert row["max_diff"] == 2 and check_single_failure_row(row)
    assert check_single_failure_row(workloads.single_failure_row(10, [(0, 5, 4, True)])) == []
    worse = {"n": 50, "k": 2, "coverable": 1, "oga_mean_cov": 9.0, "benchmark_mean_cov": 8.0}
    assert check_k_barrier_row(worse)
    assert check_k_barrier_row(dict(worse, coverable=0, oga_mean_cov=None)) == []


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "mc_k_barrier",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
