"""The benchmark's workloads and the operation ("op") each one repeats.

Every workload exposes the same five calls to the runner:

* ``setup()`` makes the seeded inputs; the runner times and repeats it;
* ``cleanup()`` removes them at the end of a run;
* ``op(i)`` runs operation i the way a user would, untraced;
* ``replay(i, tracer)`` runs the same operation through the layers'
  public functions, with a span around each call and counters at the
  same boundaries;
* ``check(out)`` lists the output checks that failed;
* ``summary(out)`` gives the outputs as plain data: the runner digests it
  and requires the replay's to equal the op's.

Inputs depend only on the workload seed and the op index, so runs with
the same seed do identical work.

The package is always imported from ``src/`` next to this directory;
an installed copy is refused, so a checkout without sources fails.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import barriercover  # noqa: E402

if Path(barriercover.__file__).resolve().parent != SRC / "barriercover":
    raise ImportError(f"barriercover was loaded from {barriercover.__file__}, not {SRC}")

from barriercover import (  # noqa: E402
    DeploymentSpec,
    ExperimentConfig,
    SensorField,
    build_barrier_graph,
    child_seed,
    discretize,
    find_gaps,
    generate,
    k_disjoint_paths,
    k_oga,
    logm,
    oga,
    oga_continuous,
    read_field,
    read_sensors,
    run_experiment,
    single_failure_counts,
    write_sensors,
)

from verify import (  # noqa: E402
    check_k_barrier_row,
    check_mended,
    check_selection,
    check_single_failure_row,
)

def single_failure_row(n: int, rows) -> dict:
    """The ``single_failure`` report row of one realization, re-derived."""
    if rows is None:
        diffs, unclean = [], 0
    else:
        diffs = [mended - fresh for _sid, mended, fresh, clean in rows if clean]
        unclean = sum(1 for row in rows if not row[3])
    failures = len(diffs)
    return {
        "n": n,
        "realizations": 1,
        "skipped": int(rows is None),
        "failures": failures,
        "unclean": unclean,
        "mean_diff": sum(diffs) / failures if failures else 0.0,
        "min_diff": min(diffs) if diffs else 0,
        "max_diff": max(diffs) if diffs else 0,
        "frac_zero": diffs.count(0) / failures if failures else 0.0,
        "violations": sum(1 for d in diffs if d > 1),
    }


def k_barrier_row(n: int, k: int, rounds, bench) -> dict:
    """The ``k_barrier`` report row of one realization, re-derived."""
    clean = rounds.fully_covered and bench.fully_covered
    return {
        "n": n,
        "k": k,
        "realizations": 1,
        "oga_mean": rounds.count / 1,
        "benchmark_mean": bench.count / 1,
        "oga_full_frac": int(rounds.fully_covered) / 1,
        "benchmark_full_frac": int(bench.fully_covered) / 1,
        "coverable": int(clean),
        "oga_mean_cov": rounds.count / 1 if clean else None,
        "benchmark_mean_cov": bench.count / 1 if clean else None,
    }


@dataclass
class McOutput:
    """Report rows of one op, plus problems a replay found in selections."""

    rows: list[dict]
    problems: list[str] = dc_field(default_factory=list)


class _MonteCarlo:
    """One realization of a stock study: ``run_experiment`` over its sweep.

    A realization of the whole sweep, rather than of one sweep point, is
    the op because its time is one unimodal figure: per-point ops mix
    field sizes 10x apart, and the spread of their percentiles over ten
    seeds was about twice as large.
    """

    name: str
    experiment: str
    deployment: DeploymentSpec
    sweep: tuple[int, ...]
    k_values: tuple[int, ...] = (2, 4)
    # counters are averaged over this many ops (this many realizations)
    count_ops = 10
    # a full collection costs about a tenth of an op here and does not
    # make op times steadier
    collect_garbage = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def config(self, i: int) -> ExperimentConfig:
        return ExperimentConfig(
            self.experiment,
            self.deployment,
            sweep=self.sweep,
            realizations=1,
            base_seed=self.seed + i,
            k_values=self.k_values,
        )

    def spec(self, config: ExperimentConfig, n: int) -> DeploymentSpec:
        """The deployment a worker gets, round-tripped through its dict."""
        spec = config.deployment.with_(n=n, seed=child_seed(config.base_seed, n, 0))
        return DeploymentSpec.from_dict(spec.to_dict())

    def setup(self) -> None:
        """Nothing: each op generates its own fields."""

    def cleanup(self) -> None:
        pass

    def op(self, i: int) -> McOutput:
        return McOutput(list(run_experiment(self.config(i)).records))

    def check_row(self, row: dict) -> list[str]:
        raise NotImplementedError

    def check(self, out: McOutput) -> list[str]:
        return [p for row in out.rows for p in self.check_row(row)] + out.problems

    def summary(self, out: McOutput) -> list[dict]:
        return out.rows


class SingleFailure(_MonteCarlo):
    """The paper's headline study: mend one failure vs. re-select."""

    name = "mc_single_failure"
    experiment = "single_failure"
    # the stock single_failure deployment and sweep, pinned here so the
    # workload cannot drift if the stock configuration changes
    deployment = DeploymentSpec(n=200, width=1000.0, kind="poisson", radius=10.0, fov=45.0)
    sweep = tuple(range(200, 2001, 200))
    check_row = staticmethod(check_single_failure_row)

    def replay(self, i: int, tracer) -> McOutput:
        config = self.config(i)
        rows = []
        with tracer.span("harness.run_experiment"):
            for n in config.sweep:
                spec = self.spec(config, n)
                with tracer.span("deployment.generate"):
                    field = generate(spec)
                with tracer.span("harness.single_failure_counts"):
                    counts = single_failure_counts(field, field.domain)
                rows.append(single_failure_row(n, counts))
                tracer.count("deployment.generate.sensors", len(field.sensors))
                tracer.count("harness.single_failure_counts.failures", len(counts or ()))
        return McOutput(rows)


class KBarrier(_MonteCarlo):
    """k-barrier sizes: k_oga vs. the k-disjoint-paths benchmark."""

    name = "mc_k_barrier"
    experiment = "k_barrier"
    # the stock k_barrier deployment and sweep, pinned like the one above
    deployment = DeploymentSpec(n=50, width=100.0, radius=10.0, fov=45.0)
    sweep = (50, 100, 200)
    check_row = staticmethod(check_k_barrier_row)

    def replay(self, i: int, tracer) -> McOutput:
        config = self.config(i)
        rows = []
        done = []
        with tracer.span("harness.run_experiment"):
            for n in config.sweep:
                for k in config.k_values:
                    spec = self.spec(config, n)
                    with tracer.span("deployment.generate"):
                        field = generate(spec)
                    with tracer.span("model.discretize"):
                        targets = discretize(field)
                    with tracer.span("algorithms.k_oga"):
                        rounds = k_oga(field, targets, k, record_trace=False)
                    with tracer.span("baselines.build_barrier_graph"):
                        graph = build_barrier_graph(field, field.domain)
                    with tracer.span("baselines.k_disjoint_paths"):
                        bench = k_disjoint_paths(graph, k)
                    rows.append(k_barrier_row(n, k, rounds, bench))
                    done.append((k, field, targets, rounds, bench, len(graph.nodes)))
        problems = []
        for k, field, targets, rounds, bench, nodes in done:
            tracer.count("deployment.generate.sensors", len(field.sensors))
            tracer.count("model.discretize.targets", len(targets))
            tracer.count("algorithms.k_oga.comparisons", rounds.comparisons)
            tracer.count("baselines.k_disjoint_paths.nodes", nodes)
            problems += check_selection(
                f"k_oga n={len(field.sensors)} k={k}", rounds, field, targets=targets.xs, k=k
            )
            problems += check_selection(
                f"k_disjoint_paths n={len(field.sensors)} k={k}",
                bench, field, targets=targets.xs, k=k,
            )
        return McOutput(rows, problems)


@dataclass
class FieldOutput:
    """Everything one ``large_field`` op produced."""

    field: SensorField
    targets: object
    single: object
    double: object
    cont: object
    failed: list[int]
    gaps: list
    mended: object
    rows: list | None


class LargeField:
    """Exact selection and mending on one large field read from disk."""

    name = "large_field"
    count_ops = 2
    failures = 50
    # an op leaves about a million objects behind; collecting them before
    # the next op keeps op times within a few percent of each other
    # instead of 4.7-6.4 s
    collect_garbage = True

    def __init__(self, seed: int, work_dir: Path, n: int = 100_000) -> None:
        self.seed = seed
        self.spec = DeploymentSpec(
            n=n, width=n / 3, kind="poisson", radius=10.0, fov=90.0, seed=seed
        )
        self.domain = (0.0, self.spec.width)
        self.path = Path(work_dir) / f"large_field_{seed}.jsonl"

    def setup(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        write_sensors(generate(self.spec).sensors, self.path)

    def cleanup(self) -> None:
        self.path.unlink(missing_ok=True)

    def failed_ids(self, i: int, cont) -> list[int]:
        """A seeded choice of real selected sensors that fail in op i."""
        virtual = set(cont.virtual_ids)
        real = [sid for sid in cont.selected_ids if sid not in virtual]
        rng = np.random.default_rng(child_seed(self.seed, i))
        size = min(self.failures, len(real) // 2)
        return sorted(int(x) for x in rng.choice(np.asarray(real), size=size, replace=False))

    def op(self, i: int) -> FieldOutput:
        field = read_field(self.path, self.domain)
        targets = discretize(field)
        single = oga(field, targets, record_trace=False)
        double = k_oga(field, targets, 2, record_trace=False)
        cont = oga_continuous(field, self.domain, record_trace=False)
        failed = self.failed_ids(i, cont)
        gaps = find_gaps(cont, failed, field, self.domain)
        mended = logm(cont, gaps, field, self.domain, failed_ids=failed, record_trace=False)
        rows = single_failure_counts(field, self.domain)
        return FieldOutput(field, targets, single, double, cont, failed, gaps, mended, rows)

    def replay(self, i: int, tracer) -> FieldOutput:
        with tracer.span("bench.large_field_op"):
            # read_field is read_sensors followed by SensorField.build
            with tracer.span("fieldio.read_field"):
                with tracer.span("fieldio.read_sensors"):
                    sensors = read_sensors(self.path)
                with tracer.span("model.SensorField.build"):
                    field = SensorField.build(sensors, self.domain)
            del sensors
            with tracer.span("model.discretize"):
                targets = discretize(field)
            with tracer.span("algorithms.oga"):
                single = oga(field, targets, record_trace=False)
            with tracer.span("algorithms.k_oga"):
                double = k_oga(field, targets, 2, record_trace=False)
            with tracer.span("algorithms.oga_continuous"):
                cont = oga_continuous(field, self.domain, record_trace=False)
            failed = self.failed_ids(i, cont)
            with tracer.span("algorithms.find_gaps"):
                gaps = find_gaps(cont, failed, field, self.domain)
            with tracer.span("algorithms.logm"):
                mended = logm(
                    cont, gaps, field, self.domain, failed_ids=failed, record_trace=False
                )
            with tracer.span("harness.single_failure_counts"):
                rows = single_failure_counts(field, self.domain)
        tracer.count("fieldio.read_sensors.bytes", self.path.stat().st_size)
        tracer.count("model.discretize.targets", len(targets))
        tracer.count("algorithms.oga.comparisons", single.comparisons)
        tracer.count("algorithms.k_oga.comparisons", double.comparisons)
        tracer.count("algorithms.oga_continuous.comparisons", cont.comparisons)
        tracer.count("algorithms.oga_continuous.selected", cont.count)
        tracer.count("algorithms.find_gaps.gaps", len(gaps))
        tracer.count("algorithms.logm.comparisons", mended.comparisons)
        tracer.count("algorithms.logm.picks", mended.count - (cont.count - len(failed)))
        tracer.count("harness.single_failure_counts.failures", len(rows or ()))
        return FieldOutput(field, targets, single, double, cont, failed, gaps, mended, rows)

    def check(self, out: FieldOutput) -> list[str]:
        xs = out.targets.xs
        problems = check_selection("oga", out.single, out.field, targets=xs, k=1)
        problems += check_selection("k_oga k=2", out.double, out.field, targets=xs, k=2)
        problems += check_selection("oga_continuous", out.cont, out.field, domain=self.domain)
        problems += check_mended("logm", out.cont, out.mended, out.failed, out.field, self.domain)
        if out.single.count != out.cont.count:
            problems.append(
                f"oga picked {out.single.count} sensors, "
                f"oga_continuous {out.cont.count} (criterion 4)"
            )
        if out.rows is None and out.cont.fully_covered:
            problems.append("single_failure_counts skipped a fully covered field")
        problems += check_single_failure_row(single_failure_row(self.spec.n, out.rows))
        return problems

    def summary(self, out: FieldOutput) -> dict:
        return {
            "oga": list(out.single.selected_ids),
            "k_oga": list(out.double.selected_ids),
            "oga_continuous": list(out.cont.selected_ids),
            "failed": out.failed,
            "gaps": [[g.u, g.v] for g in out.gaps],
            "logm": list(out.mended.selected_ids),
            "single_failure": None if out.rows is None else [list(r) for r in out.rows],
        }


WORKLOADS = ("mc_single_failure", "mc_k_barrier", "large_field")


def make(name: str, seed: int, work_dir: Path):
    """The workload called ``name`` for one seed."""
    if name == "mc_single_failure":
        return SingleFailure(seed)
    if name == "mc_k_barrier":
        return KBarrier(seed)
    if name == "large_field":
        return LargeField(seed, work_dir)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
