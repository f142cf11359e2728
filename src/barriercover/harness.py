"""Seeded Monte-Carlo studies over random deployments.

An experiment is a worker plus a reduction, one row of ``_EXPERIMENTS``.
``run_experiment`` runs the worker once per (sweep value, realization) on
a freshly generated field, and hands each sweep value's outcomes, in
realization order, to the reduction, which returns that value's report
rows. Every random draw is keyed by ``child_seed(base_seed, <labels>)``,
so reports are byte-identical for a given configuration no matter how
many worker processes run the realizations.

Experiments
-----------

* ``coverage_curve``: covered fraction of the segment after each greedy
  step, frontier selection vs. plain maximum-coverage selection.
* ``intersection_sweep``: selection sizes of the two greedies per field
  size, plus where their coverage curves meet.
* ``k_barrier``: selection sizes of ``k_oga`` vs. the k-disjoint-paths
  benchmark for several coverage multiplicities, every k on the same field.
* ``single_failure``: for every selected sensor, the cost of mending its
  failure locally (``logm``) vs. re-selecting from scratch.
* ``multi_gap``: the same comparison when several selected sensors fail
  at once.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, fields
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from .algorithms import _Frontier, find_gaps, k_oga, logm, oga, oga_continuous
from .baselines import _k_paths, _path_rounds, build_barrier_graph, greedy_max_coverage
from .deployment import RNG_ALGORITHM, DeploymentSpec, child_seed, generate
from .model import (
    Domain,
    ParameterError,
    SensorField,
    _count,
    _segment,
    _sum,
    coverage_fraction,
    discretize,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: what to sweep, over what deployments, how often.

    ``deployment`` is the template; its ``n`` and ``seed`` are overridden
    per sweep point and realization, except for ``multi_gap`` where the
    sweep values are failure counts and ``deployment.n`` is used as is.
    """

    experiment: str
    deployment: DeploymentSpec
    sweep: tuple[int, ...]
    realizations: int = 1
    base_seed: int = 0
    k_values: tuple[int, ...] = (2, 4)
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ParameterError(
                f"unknown experiment {self.experiment!r}; "
                f"expected one of {', '.join(EXPERIMENTS)}"
            )
        for name in ("sweep", "k_values"):
            values = tuple(_count(f"{name} entry", x, 1) for x in getattr(self, name))
            if not values:
                raise ParameterError(f"{name} must not be empty")
            object.__setattr__(self, name, values)
        for name, minimum in (("realizations", 1), ("base_seed", 0), ("jobs", 1)):
            object.__setattr__(self, name, _count(name, getattr(self, name), minimum))

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "deployment": self.deployment.to_dict(),
            "sweep": list(self.sweep),
            "realizations": self.realizations,
            "base_seed": self.base_seed,
            "k_values": list(self.k_values),
            "jobs": self.jobs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ParameterError(f"unknown experiment fields: {sorted(unknown)}")
        missing = [k for k in ("experiment", "deployment", "sweep") if k not in data]
        if missing:
            raise ParameterError(f"experiment config needs fields: {missing}")
        dep = data["deployment"]
        if not isinstance(dep, DeploymentSpec):
            dep = DeploymentSpec.from_dict(dep)
        return cls(**{**data, "deployment": dep})


@dataclass(frozen=True)
class ExperimentReport:
    """Tabular experiment outcome plus the configuration that produced it.

    ``wall_time_s`` is measured but kept out of serialized output unless
    explicitly requested, and the worker count never appears in it, so
    runs of the same configuration produce byte-identical files no
    matter when or how parallel they were.
    """

    config: ExperimentConfig
    columns: tuple[str, ...]
    records: tuple[dict, ...]
    metadata: dict
    wall_time_s: float | None = None

    def csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for rec in self.records:
            cells = []
            for name in self.columns:
                value = rec[name]
                if value is None:
                    cells.append("")
                elif isinstance(value, bool):
                    cells.append(str(int(value)))
                elif isinstance(value, int):
                    cells.append(str(value))
                else:
                    cells.append(format(float(value), ".10g"))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_dict(self, include_timing: bool = False) -> dict:
        config = self.config.to_dict()
        del config["jobs"]
        out = {
            "config": config,
            "metadata": dict(self.metadata),
            "columns": list(self.columns),
            "records": [dict(r) for r in self.records],
        }
        if include_timing and self.wall_time_s is not None:
            out["wall_time_s"] = self.wall_time_s
        return out

    def json_text(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2) + "\n"


def _pmap(fn: Callable, tasks: Sequence[tuple], jobs: int) -> list:
    """``fn(*task)`` for every task in order, optionally over worker
    processes: at most ``jobs``, one per task and one per core, since a
    pool starts all of its workers at once. The pool's modules load only
    when workers start, so a serial run never pays for them."""
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(*t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*tasks), chunksize=chunk))


def prefix_coverage(field: SensorField, selected_ids, domain: Domain) -> list[float]:
    """Covered fraction after each real selected sensor, starting at 0.

    Virtual gap sensors contribute no coverage and add no curve step.
    """
    rows = field._rows_of(selected_ids)
    rows = rows[rows >= 0]
    us, vs = field.us[rows], field.vs[rows]
    return [coverage_fraction(us[:i], vs[:i], domain) for i in range(rows.size + 1)]


def curve_intersection(
    first: Sequence[float], second: Sequence[float]
) -> float | None:
    """Fractional step where ``second`` first drops to or below ``first``.

    Both sequences are per-step values starting at step 0; the shorter one
    is held at its final value. The crossing is located by linear
    interpolation between the last step where ``second`` was strictly
    above and the first where it no longer is; None when that never
    happens.
    """

    def at(curve: Sequence[float], i: int) -> float:
        return curve[i] if i < len(curve) else curve[-1]

    top = max(len(first), len(second))
    for i in range(1, top):
        after = at(second, i) - at(first, i)
        if after > 0:
            continue
        before = at(second, i - 1) - at(first, i - 1)
        denom = before - after
        if denom <= 0:
            return float(i)
        return (i - 1) + before / denom
    return None


# --------------------------------------------------------------------------
# fast per-failure evaluation
#
# Removing one sensor from a frontier-greedy selection chain leaves the
# earlier picks covering [a, f] (f = the frontier when the failed sensor
# was picked) and the later picks covering from min(their left endpoints)
# onward, so exactly one hole opens. Mending it and re-running selection
# from scratch both advance a frontier by "furthest reach among intervals
# touching it", which depends only on the frontier position, never on
# tie-breaking among equal reaches: the chain is Markov in the frontier.
#
# So one successor table per field answers every failure at once. Its
# states are the table positions: state i stands for the frontier at
# v[i], the only values a winning step reaches, and its successor is the
# position that wins from there. Pointer jumping (Wyllie 1979) gives every
# state its number of steps to b in about log2(chain length) rounds of
# gathers, and the selection is the chain of successors from the winner
# at a. The from-scratch count for pick t is t, plus the few steps that
# walk past the failed interval with it removed, plus the steps to b from
# where that walk leaves off. The mend is a walk over the never-selected
# sensors from the pick's frontier to where the later picks resume. Both
# walks advance every pick at once, one array step per round, and end
# within a few rounds. ``single_failure_counts`` is cross-checked against
# the plain ``find_gaps`` + ``logm`` + fresh ``oga_continuous`` route and
# against the former memoized per-pick walks in the test suite.
# --------------------------------------------------------------------------


def _steps_to_root(succ: np.ndarray) -> np.ndarray:
    """Per node of a successor forest, the links to its root (a node that
    is its own successor), by pointer jumping."""
    jump = succ
    dist = (succ != np.arange(succ.size)).astype(np.int64)
    ahead = jump[jump]
    while (ahead != jump).any():
        dist += dist[jump]
        jump, ahead = ahead, ahead[ahead]
    return dist


def single_failure_counts(
    field: SensorField, domain: Domain
) -> list[tuple[int, int, int, bool]] | None:
    """Mended vs. from-scratch selection sizes for every single failure.

    Runs the continuous frontier selection once, then for each selected
    sensor in turn reports ``(failed_id, mended_total, fresh_total,
    clean)``: the total selection size after locating and locally mending
    that sensor's hole, the size of a fresh selection over the surviving
    field, and whether both sides managed without virtual gap sensors.
    Returns None when the initial selection itself is not fully covered.

    Works on one successor table over the field's positions (see the
    comment above): the selection is a chain of successors, the steps to
    b come from pointer jumping, and every pick's skip walk and mend walk
    advance together, one array step per round.
    """
    a, b = _segment(domain)
    whole = _Frontier.over(field)
    if not whole.covers(a, b):
        return None
    # state i is the frontier at v[i]. With no hole in [a, b), a real
    # interval wins every step from there, and its position is the
    # successor; depth[i] is the number of steps from v[i] on to b
    v = whole.v
    live = np.flatnonzero((a <= v) & (v < b))
    succ = np.arange(whole.m)
    succ[live] = whole.winners(v[live])
    depth = _steps_to_root(succ)

    # the selection: the winner at a, then its successors; at[t] is the
    # frontier that pick t was made at
    pick = whole.winners(np.array([a])).item()
    chain = [pick]
    links = succ.tolist()
    for _ in range(depth.item(pick)):
        pick = links[pick]
        chain.append(pick)
    picks = np.array(chain)
    n_sel = picks.size
    at = np.append(a, v[picks[:-1]])

    # from scratch without pick t: step with it removed until the
    # frontier passes its right end, then follow the table
    f = at.copy()
    skipped = np.zeros(n_sel, dtype=np.int64)
    clean = np.ones(n_sel, dtype=bool)
    right = v[picks]
    walking = np.arange(n_sel)
    while walking.size:
        f[walking], real = whole.step_all(f[walking], b, picks[walking])
        skipped[walking] += 1
        clean[walking] &= real
        walking = walking[(f[walking] < b) & (f[walking] < right[walking])]
    # the walk stops at a value, not at a state (a runner-up's v, or a u
    # after a bridge), so take one table step from there first
    rest = np.where(f < b, 1 + depth[whole.winners(f)], 0)
    fresh = np.arange(n_sel) + skipped + rest

    # the mend: never-selected sensors from the pick's frontier to the
    # leftmost left end among the later picks, where coverage resumes
    unpicked = np.ones(whole.m, dtype=bool)
    unpicked[picks] = False
    pool = _Frontier.over(field, unpicked)
    resume = np.minimum.accumulate(whole.u[picks][::-1])[::-1]
    end = np.minimum(np.append(resume[1:], b), b)
    f = at.copy()
    mend = np.zeros(n_sel, dtype=np.int64)
    walking = np.flatnonzero(f < end)
    while walking.size:
        f[walking], real = pool.step_all(f[walking], end[walking])
        mend[walking] += 1
        clean[walking] &= real
        walking = walking[f[walking] < end[walking]]

    return list(
        zip(
            field.ids[picks].tolist(),
            (n_sel - 1 + mend).tolist(),
            fresh.tolist(),
            clean.tolist(),
        )
    )


# --------------------------------------------------------------------------
# experiments: a worker (top level so process pools can pickle it) runs
# one ``(config, sweep value, realization)`` task; a reduction turns one
# sweep value's outcomes into report rows, the first row's keys giving the
# report's columns
# --------------------------------------------------------------------------


def _field(config: ExperimentConfig, n: int, r: int) -> SensorField:
    """Realization r of the deployment template with n sensors."""
    seed = child_seed(config.base_seed, n, r)
    return generate(config.deployment.with_(n=n, seed=seed))


def _mean(values: Sequence, empty: float | None = 0.0) -> float | None:
    return _sum(values) / len(values) if values else empty


def _curves(config: ExperimentConfig, n: int, r: int) -> tuple:
    """Coverage curves of frontier and plain greedy selection, and whether
    the frontier selection covered the segment."""
    field = _field(config, n, r)
    targets = discretize(field)
    frontier = oga(field, targets, record_trace=False)
    plain = greedy_max_coverage(field, targets, record_trace=False)
    return (
        prefix_coverage(field, frontier.selected_ids, field.domain),
        prefix_coverage(field, plain.selected_ids, field.domain),
        frontier.fully_covered,
    )


def _coverage_rows(config: ExperimentConfig, n: int, outcomes: list) -> list[dict]:
    rows = []
    for r, (oga_curve, greedy_curve, _coverable) in enumerate(outcomes):
        for step in range(max(len(oga_curve), len(greedy_curve))):
            rows.append(
                {
                    "n": n,
                    "realization": r,
                    "step": step,
                    "oga_coverage": oga_curve[min(step, len(oga_curve) - 1)],
                    "greedy_coverage": greedy_curve[
                        min(step, len(greedy_curve) - 1)
                    ],
                }
            )
    return rows


def _intersection_rows(
    config: ExperimentConfig, n: int, outcomes: list
) -> list[dict]:
    ok = [(o, g) for o, g, coverable in outcomes if coverable]
    sizes = [(len(o) - 1, len(g) - 1) for o, g in ok]
    crossings = [c for c in (curve_intersection(o, g) for o, g in ok) if c is not None]
    return [
        {
            "n": n,
            "realizations": len(outcomes),
            "coverable": len(ok),
            "oga_mean": _mean([o for o, _g in sizes]),
            "greedy_mean": _mean([g for _o, g in sizes]),
            "oga_wins": sum(1 for o, g in sizes if o < g),
            "crossed": len(crossings),
            "crossing_mean": _mean(crossings),
        }
    ]


def _k_barrier(config: ExperimentConfig, n: int, r: int) -> list[tuple]:
    """Per k of the config: k_oga and benchmark sizes and whether each
    covered k times, all on the same field. The benchmark's paths are
    extracted once, for the largest k; each k reads its first k."""
    field = _field(config, n, r)
    targets = discretize(field)
    graph = build_barrier_graph(field, field.domain)
    paths = list(islice(_path_rounds(graph), max(config.k_values)))
    out = []
    for k in config.k_values:
        rounds = k_oga(field, targets, k, record_trace=False)
        bench = _k_paths(graph, paths, k)
        out.append(
            (rounds.count, rounds.fully_covered, bench.count, bench.fully_covered)
        )
    return out


def _k_barrier_rows(config: ExperimentConfig, n: int, outcomes: list) -> list[dict]:
    rows = []
    for k, per_k in zip(config.k_values, zip(*outcomes)):
        oga_sizes, oga_full, bench_sizes, bench_full = zip(*per_k)
        both = [i for i, full in enumerate(zip(oga_full, bench_full)) if all(full)]
        rows.append(
            {
                "n": n,
                "k": k,
                "realizations": len(per_k),
                "oga_mean": _mean(oga_sizes),
                "benchmark_mean": _mean(bench_sizes),
                "oga_full_frac": _mean(oga_full),
                "benchmark_full_frac": _mean(bench_full),
                "coverable": len(both),
                "oga_mean_cov": _mean([oga_sizes[i] for i in both], None),
                "benchmark_mean_cov": _mean([bench_sizes[i] for i in both], None),
            }
        )
    return rows


def _single_failure(config: ExperimentConfig, n: int, r: int) -> list | None:
    """Mended minus fresh size per failure, None where either side
    needed virtual sensors; None for a field that is not coverable."""
    field = _field(config, n, r)
    rows = single_failure_counts(field, field.domain)
    if rows is None:
        return None
    return [mended - fresh if clean else None for _sid, mended, fresh, clean in rows]


def _single_failure_rows(
    config: ExperimentConfig, n: int, outcomes: list
) -> list[dict]:
    per_failure = [d for o in outcomes if o is not None for d in o]
    diffs = [d for d in per_failure if d is not None]
    return [
        {
            "n": n,
            "realizations": len(outcomes),
            "skipped": outcomes.count(None),
            "failures": len(diffs),
            "unclean": len(per_failure) - len(diffs),
            "mean_diff": _mean(diffs),
            "min_diff": min(diffs, default=0),
            "max_diff": max(diffs, default=0),
            "frac_zero": _mean([d == 0 for d in diffs]),
            "violations": sum(1 for d in diffs if d > 1),
        }
    ]


def _multi_gap(config: ExperimentConfig, m: int, r: int) -> tuple:
    """Fail m selected sensors of a fully covered template field, resampled
    until its selection has at least m. Returns mended minus fresh size,
    the gap count, the resamples, and whether both sides managed without
    virtual sensors."""
    for attempt in range(200):
        seed = child_seed(config.base_seed, m, r, attempt, 0)
        field = generate(config.deployment.with_(seed=seed))
        selection = oga_continuous(field, field.domain, record_trace=False)
        if selection.fully_covered and len(selection.selected_ids) >= m:
            break
    else:
        raise ParameterError(
            f"no deployment with at least {m} selected sensors in 200 attempts"
        )
    rng = np.random.default_rng(child_seed(config.base_seed, m, r, attempt, 1))
    failed = sorted(
        int(x)
        for x in rng.choice(np.asarray(selection.selected_ids), size=m, replace=False)
    )
    gaps = find_gaps(selection, failed, field, field.domain)
    mended = logm(
        selection, gaps, field, field.domain, failed_ids=failed, record_trace=False
    )
    fresh = oga_continuous(field.without(failed), field.domain, record_trace=False)
    clean = mended.fully_covered and fresh.fully_covered
    return mended.count - fresh.count, len(gaps), attempt, clean


def _multi_gap_rows(config: ExperimentConfig, m: int, outcomes: list) -> list[dict]:
    clean = [(extra, gaps) for extra, gaps, _attempt, ok in outcomes if ok]
    extras = [extra for extra, _gaps in clean]
    return [
        {
            "m": m,
            "realizations": len(outcomes),
            "resamples": sum(o[2] for o in outcomes),
            "unclean": len(outcomes) - len(clean),
            "mean_gaps": _mean([gaps for _extra, gaps in clean]),
            "mean_extra": _mean(extras),
            "min_extra": min(extras, default=0),
            "max_extra": max(extras, default=0),
            "violations": sum(1 for e in extras if e > 2 * m - 1),
        }
    ]


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every realization of every sweep value, then reduce each
    value's outcomes into its report rows."""
    worker, reduce = _EXPERIMENTS[config.experiment][:2]
    per = config.realizations
    start = time.perf_counter()
    tasks = [(config, x, r) for x in config.sweep for r in range(per)]
    outcomes = _pmap(worker, tasks, config.jobs)
    rows = [
        row
        for i, x in enumerate(config.sweep)
        for row in reduce(config, x, outcomes[i * per : (i + 1) * per])
    ]
    wall = time.perf_counter() - start
    metadata = {
        "package": "barriercover",
        "rng": RNG_ALGORITHM,
        "seed_scheme": "seed_sequence(base_seed, labels...)",
    }
    return ExperimentReport(
        config=config,
        columns=tuple(rows[0]),
        records=tuple(rows),
        metadata=metadata,
        wall_time_s=wall,
    )


# each experiment's worker and reduction, and its stock deployment, sweep
# and realizations
_EXPERIMENTS = {
    "coverage_curve": (
        _curves,
        _coverage_rows,
        DeploymentSpec(n=30, width=1000.0, radius=10.0, fov=90.0),
        (30, 300, 3000),
        1,
    ),
    "intersection_sweep": (
        _curves,
        _intersection_rows,
        DeploymentSpec(n=30, width=1000.0, radius=10.0, fov=90.0),
        (30, 300, 3000),
        20,
    ),
    "k_barrier": (
        _k_barrier,
        _k_barrier_rows,
        DeploymentSpec(n=50, width=100.0, radius=10.0, fov=45.0),
        (50, 100, 200),
        20,
    ),
    "single_failure": (
        _single_failure,
        _single_failure_rows,
        DeploymentSpec(n=200, width=1000.0, kind="poisson", radius=10.0, fov=45.0),
        tuple(range(200, 2001, 200)),
        1000,
    ),
    "multi_gap": (
        _multi_gap,
        _multi_gap_rows,
        DeploymentSpec(n=1000, width=100.0, kind="poisson", radius=2.0, fov=45.0),
        (1, 2, 3, 4, 5, 6),
        200,
    ),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def default_config(
    experiment: str, *, base_seed: int = 0, jobs: int = 1
) -> ExperimentConfig:
    """The stock configuration for each experiment."""
    if experiment not in _EXPERIMENTS:
        raise ParameterError(
            f"unknown experiment {experiment!r}; "
            f"expected one of {', '.join(EXPERIMENTS)}"
        )
    _worker, _reduce, deployment, sweep, realizations = _EXPERIMENTS[experiment]
    return ExperimentConfig(
        experiment=experiment,
        deployment=deployment,
        sweep=sweep,
        realizations=realizations,
        base_seed=base_seed,
        jobs=jobs,
    )
