"""Checks at n = 1e4 to 1e5: the package imports, builds, reads, selects,
mends and writes results as it does on the small fields of tier-1, and
in near-linear time and bounded memory.

Run from the repository root with

    PYTHONPATH=src:tests python -m pytest -q scale

The checks import the oracles of ``tests/conftest.py`` as ``conftest``.
Each deployment is built once per run: ``LARGE`` is the large_field
benchmark's, and ``gen_1e5`` is the field file that the command line
makes of it. Command line calls run in their own interpreter, each
limited to 120 s; the checks that run in this process keep their limits
through ``_limit``.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from barriercover import (
    DeploymentSpec,
    SelectionResult,
    SensorField,
    augment_with_gap_sensors,
    discretize,
    find_gaps,
    generate,
    k_oga,
    logm,
    oga_continuous,
)
from barriercover.fieldio import read_field, write_field
from barriercover.model import _first_fault, _pose_rules
from conftest import bits, lp_min_kcover, oracle_generate, oracle_table

# the large_field benchmark's deployment
LARGE = DeploymentSpec(n=100_000, width=100_000 / 3, kind="poisson", radius=10.0, fov=90.0, seed=1)


def cli(*args) -> str:
    """The output of ``python -m barriercover.cli`` run with ``args``; a
    nonzero exit, or a run longer than 120 s, fails the check."""
    command = [sys.executable, "-m", "barriercover.cli", *map(str, args)]
    return subprocess.run(
        command, timeout=120, check=True, stdout=subprocess.PIPE, text=True
    ).stdout


@contextmanager
def _limit(seconds: int):
    """Fails the check whose block runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"the check took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def large_field():
    return generate(LARGE)


@pytest.fixture(scope="module")
def gen_1e5(tmp_path_factory):
    path = tmp_path_factory.mktemp("gen") / "field_1e5.jsonl"
    cli("gen", "--n", 100000, "--width", 33333, "--kind", "poisson", "--out", path)
    return path


# Compared with the modules already loaded: .pth files load some at
# start-up; __mp_main__ is multiprocessing's alias of __main__.
IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import barriercover.cli
print(json.dumps(sorted({
    name.partition(".")[0]
    for name in set(sys.modules) - before
    if sys.modules[name] is not sys.modules["__main__"]
})))
"""


def test_runtime_imports_only_stdlib_numpy_and_no_pool():
    added = set(json.loads(subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        timeout=120, check=True, stdout=subprocess.PIPE, text=True,
    ).stdout))
    foreign = sorted(added - set(sys.stdlib_module_names) - {"numpy", "barriercover"})
    # the pool's modules load only when a run starts workers
    pool = sorted(added & {"multiprocessing", "concurrent"})
    faults = [f"importing barriercover.cli loaded {names}" for names in (foreign, pool) if names]
    assert not faults, "; ".join(faults)


def test_vectorized_build_equals_scalar_path(large_field):
    # the deployments of the three benchmark workloads: large_field,
    # mc_single_failure and mc_k_barrier at their largest n; generate
    # checks only y, so the poses it drew must meet every pose rule
    specs = [
        LARGE,
        DeploymentSpec(n=2000, width=1000.0, kind="poisson", radius=10.0, fov=45.0, seed=1),
        DeploymentSpec(n=200, width=100.0, kind="line", radius=10.0, fov=45.0, seed=1),
    ]
    faults = []
    for spec in specs:
        field = large_field if spec is LARGE else generate(spec)
        us, vs, ids = zip(*oracle_table(oracle_generate(spec), field.domain))
        if (field.ids.tolist(), bits(field.us), bits(field.vs)) != (list(ids), bits(us), bits(vs)):
            faults.append(f"{spec.kind} fov {spec.fov} at n = {spec.n} differs from the scalar path")
        if _first_fault(_pose_rules(field.poses)) is not None:
            faults.append(f"{spec.kind} fov {spec.fov} at n = {spec.n} breaks a pose rule")
    assert not faults, "; ".join(faults)


def test_read_holds_one_chunk_of_rows_and_sensor_is_slotted(large_field, tmp_path):
    # The field that read_field returns holds about 7.5 MB (73 bytes per
    # sensor). While reading, the column chunks are joined (57 bytes per
    # row, line numbers included) and one chunk of 8192 parsed rows is
    # held as Python objects (about 296 bytes per row, 2.4 MB): about
    # 13 MB in all, 12.7 MB traced on Python 3.11. Rows held as objects
    # until the file ends add 29.6 MB, 41 MB traced. 20 MB lies between.
    READ_PEAK = 20e6
    # A slotted record with its position and numbers takes 296 bytes
    # (record 80, position pair 56, five floats 120, id 32, its slot in
    # field.sensors 8); one with a __dict__ took 344 bytes on Python
    # 3.11. The bound lies halfway.
    SENSOR_BYTES = 320
    # the sensors are measured as they are first built; no other check reads them
    assert "sensors" not in vars(large_field)
    with _limit(300):
        path = tmp_path / "memory_1e5.jsonl"
        write_field(large_field, path)
        tracemalloc.start()
        read_field(path, large_field.domain)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        tracemalloc.start()
        sensors = large_field.sensors
        per_sensor = tracemalloc.get_traced_memory()[0] / len(sensors)
        tracemalloc.stop()
    print(f"read_field peak {peak / 1e6:.1f} MB; field.sensors {per_sensor:.0f} bytes per sensor")
    faults = []
    if peak >= READ_PEAK:
        faults.append(f"read_field peaked at {peak / 1e6:.1f} MB, bound {READ_PEAK / 1e6:.0f} MB")
    if per_sensor >= SENSOR_BYTES:
        faults.append(f"field.sensors holds {per_sensor:.0f} bytes per sensor, bound {SENSOR_BYTES}")
    assert not faults, "; ".join(faults)


def test_saved_config_reruns_byte_for_byte(tmp_path):
    saved, config, rerun = (tmp_path / name for name in ("saved.json", "saved_config.json", "rerun.json"))
    cli("experiment", "--name", "k_barrier", "--sweep", 50, "--realizations", 2, "--seed", 5, "--out", saved)
    config.write_text(json.dumps(json.loads(saved.read_text())["config"]) + "\n")
    cli("experiment", "--config", config, "--out", rerun)
    assert rerun.read_bytes() == saved.read_bytes()


def test_kpaths_and_kcover_at_1e5_stay_near_linear(gen_1e5):
    field_args = ("--field", gen_1e5, "--domain", 0, 33333)
    cli("baseline", "--algorithm", "kpaths", "--k", 4, *field_args)
    for k in (2, 4):
        cli("kcover", "--k", k, *field_args)


def test_id_lookups_at_1e5_stay_near_linear(large_field):
    # Here the constructor takes about 0.02 s per call and the lookups
    # 0.02 s in all; a gate that scans the ids once per id makes about
    # 5e9 comparisons per call (44 s here). 10 s lies between.
    BOUND_S = 10.0
    field = large_field
    faults = []
    timings = []
    with _limit(120):
        for columns in ((field.us, field.vs, field.ids), (field.us.tolist(), field.vs.tolist(), field.ids.tolist())):
            start = time.perf_counter()
            built = SensorField(*columns, field.domain)
            timings.append((f"the constructor from {type(columns[2]).__name__} ids", time.perf_counter() - start))
            if built.ids.tolist() != field.ids.tolist():
                faults.append(f"the constructor from {type(columns[2]).__name__} ids changed the rows")
        result = oga_continuous(field, field.domain, record_trace=False)
        picks = result.selected_ids
        start = time.perf_counter()
        if None in [field.span_of(sid) for sid in picks[:1000]]:
            faults.append("span_of lost a selected sensor")
        if field.without(picks[:50]).ids.size != field.ids.size - 50:
            faults.append("without did not remove 50 sensors")
        if not find_gaps(result, picks[::50][:50], field, field.domain):
            faults.append("find_gaps found no gap for 50 failures")
        timings.append(("span_of x1000, without(50) and find_gaps(50)", time.perf_counter() - start))
    for name, seconds in timings:
        print(f"{name}: {seconds:.3f} s")
        if seconds > BOUND_S:
            faults.append(f"{name} took {seconds:.1f} s, bound {BOUND_S:.0f} s")
    assert not faults, "; ".join(faults)


def test_traced_cover_at_1e5_is_mended_twice_through_its_result_file(gen_1e5, tmp_path):
    field_args = ("--field", gen_1e5, "--domain", 0, 33333)
    path = tmp_path / "sel.json"
    cli("cover", *field_args, "--out", path)
    result = json.loads(path.read_text())
    # two real picks fail: at 1/3 and 2/3 of the cover, then at 1/4 and
    # 3/4 of the mended result, which is itself a result file
    for parts, first, second in ((3, 1, 2), (4, 1, 3)):
        real = [i for i in result["selected"] if i not in result["virtual"]]
        failed = f"{real[first * len(real) // parts]},{real[second * len(real) // parts]}"
        result = json.loads(cli("mend", *field_args, "--result", path, "--failed", failed))["result"]
        path = tmp_path / "mended.json"
        path.write_text(json.dumps(result) + "\n")


def test_sparse_result_files_read_back_byte_for_byte(tmp_path):
    # a sparse field whose 2- and 4-covers hold thousands of virtual
    # sensors, many runs of short targets needing 2 to 4 of them
    sparse = tmp_path / "sparse_2e4.jsonl"
    cli("gen", "--n", 20000, "--width", 100000, "--kind", "poisson", "--out", sparse)
    for k in (2, 4):
        out = tmp_path / f"sparse_kcover_{k}.json"
        cli("kcover", "--k", k, "--field", sparse, "--domain", 0, 100000, "--out", out)
        with _limit(120):
            text = out.read_text()
            result = SelectionResult.from_dict(json.loads(text))
            assert json.dumps(result.to_dict(), indent=2) + "\n" == text, f"k = {k}"
        with _limit(120):
            # every span of the ledger is the gap sensor of that id
            field = read_field(sparse, (0.0, 100000.0))
            gaps = augment_with_gap_sensors(field, discretize(field), k)
            wrong = [vid for vid, span in result.virtual_spans.items() if gaps.get(vid) != span]
        print(f"k = {k}: {len(result.virtual_spans)} of {len(gaps)} gap sensors selected")
        assert not wrong, f"k = {k}: virtual ids {wrong[:5]} hold spans other than their gap sensors"


def test_trace_candidates_at_1e5_equal_a_full_scan(large_field):
    field = large_field
    faults = []
    with _limit(120):
        # every 50th pick fails
        start = time.perf_counter()
        cont = oga_continuous(field, field.domain)
        failed = cont.selected_ids[::50]
        gaps = find_gaps(cont, failed, field, field.domain)
        mended = logm(cont, gaps, field, field.domain, failed)
        # each walk's table: the whole field for the cover, the
        # never-selected sensors for the mend
        pool = ~np.isin(field.ids, cont.selected_ids)
        for name, result, rows in (("oga_continuous", cont, slice(None)), ("logm", mended, pool)):
            us, vs, ids = field.us[rows], field.vs[rows], field.ids[rows]
            for i, step in enumerate(result.trace):
                f = step.current_target
                scan = np.sort(ids[(us <= f) & (f < vs)]).tolist()
                if list(step.candidate_ids) != scan:
                    differ = sorted(set(scan) ^ set(step.candidate_ids))
                    faults.append(f"{name} step {i} at {f}: ids {differ} differ from a full scan")
                    break
    print(f"{len(cont.trace)} + {len(mended.trace)} steps over {len(gaps)} gaps in {time.perf_counter() - start:.2f} s")
    assert not faults, "; ".join(faults)


# The baseline deployment at n = 1e4, where k_oga needs no gap sensor
# (529 sensors at k = 2, 798 at k = 3), and a sparse field where it
# needs many (2257 with 656 virtual, 2759 with 1003 virtual).
@pytest.mark.parametrize("spec", [
    DeploymentSpec(n=10_000, width=10_000 / 3, kind="poisson", radius=10.0, fov=90.0, seed=1),
    DeploymentSpec(n=2000, width=10_000.0, kind="poisson", radius=10.0, fov=90.0, seed=1),
], ids=["baseline_1e4", "sparse_2e3"])
@pytest.mark.parametrize("k", [2, 3])
def test_k_oga_count_is_the_lp_optimum(spec, k):
    """The LP runs over the field's rows and the gap sensors that
    ``augment_with_gap_sensors`` offers ``k_oga``, so it is feasible and
    its optimum is the minimum k-cover that ``k_oga`` claims."""
    field = generate(spec)
    targets = discretize(field)
    result = k_oga(field, targets, k, record_trace=False)
    gaps = augment_with_gap_sensors(field, targets, k)
    spans = np.array(list(gaps.values())).reshape(-1, 2)
    offered = SensorField(
        np.concatenate((field.us, spans[:, 0])),
        np.concatenate((field.vs, spans[:, 1])),
        np.concatenate((field.ids, np.array(list(gaps), dtype=np.int64))),
        field.domain,
    )
    assert lp_min_kcover(offered, targets, k) == pytest.approx(result.count, abs=1e-6)
