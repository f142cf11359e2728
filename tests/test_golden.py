"""Byte-identical command output for fixed seeds.

The files under ``data/golden`` were written with the commands listed
here: the first six by the per-sensor scalar implementation that the
array-backed field replaced, ``k_barrier.json`` and ``kpaths_k*.json`` by
the path-tuple Dijkstra that the breadth-first k-paths benchmark
replaced, ``coverage_curve.csv`` and ``intersection_sweep.json`` by the
per-experiment runners that the single sweep driver replaced. Every later
version must reproduce them byte for byte, and every ``experiment`` file
also at ``--jobs 2``.
"""

from __future__ import annotations

import builtins
from pathlib import Path

import pytest

from barriercover.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
FIELD = str(GOLDEN / "gen_directional.jsonl")

COMMANDS = {
    "gen_directional.jsonl": [
        "gen", "--n", "40", "--width", "100", "--radius", "10", "--fov", "90",
        "--seed", "7",
    ],
    "gen_omni.jsonl": [
        "gen", "--n", "30", "--width", "100", "--kind", "poisson",
        "--sensor-kind", "omni", "--radius", "5", "--seed", "3",
    ],
    "single_failure.json": [
        "experiment", "--name", "single_failure", "--realizations", "2",
        "--format", "json",
    ],
    "multi_gap.json": [
        "experiment", "--name", "multi_gap", "--realizations", "2",
        "--format", "json",
    ],
    "cover_directional.json": ["cover", "--field", FIELD, "--domain", "0", "100"],
    "kcover_directional.json": [
        "kcover", "--field", FIELD, "--domain", "0", "100", "--k", "2",
    ],
    "k_barrier.json": [
        "experiment", "--name", "k_barrier", "--realizations", "2",
        "--format", "json",
    ],
    "kpaths_k2.json": [
        "baseline", "--field", FIELD, "--domain", "0", "100",
        "--algorithm", "kpaths", "--k", "2",
    ],
    "kpaths_k4.json": [
        "baseline", "--field", FIELD, "--domain", "0", "100",
        "--algorithm", "kpaths", "--k", "4",
    ],
    "coverage_curve.csv": [
        "experiment", "--name", "coverage_curve", "--sweep", "30,300",
        "--realizations", "2", "--format", "csv",
    ],
    "intersection_sweep.json": [
        "experiment", "--name", "intersection_sweep", "--sweep", "30,3000",
        "--realizations", "3", "--format", "json",
    ],
}
EXPERIMENTS = sorted(n for n, cmd in COMMANDS.items() if cmd[0] == "experiment")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_is_byte_identical(capsys, name):
    assert main(COMMANDS[name]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_is_byte_identical_across_jobs(capsys, name):
    assert main(COMMANDS[name] + ["--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


def compensated_sum(values, start=0):
    """``sum`` with Neumaier's compensation for floats, the way Python 3.12
    and later add them; integers stay exact."""
    values = list(values)
    if not any(isinstance(x, float) for x in values):
        return _builtin_sum(values, start)
    total, lost = float(start), 0.0
    for x in values:
        t = total + x
        lost += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + lost


_builtin_sum = builtins.sum


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_does_not_depend_on_how_sum_rounds(capsys, monkeypatch, name):
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert main(COMMANDS[name]) == 0
    monkeypatch.undo()
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
