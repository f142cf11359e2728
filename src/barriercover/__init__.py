"""Minimum sensor selection for 1D barrier coverage.

Sensors deployed in the plane project onto a segment [a, b] as closed
intervals; selecting few of them so the segment stays covered (once, or k
times, or again after failures) is what this package does. It exports
what the README documents:

* selectors: ``oga``, ``oga_continuous``, ``k_oga`` (with
  ``augment_with_gap_sensors``), and the benchmarks
  ``greedy_max_coverage`` and ``build_barrier_graph`` +
  ``k_disjoint_paths`` (a ``BarrierGraph``); each returns a
  ``SelectionResult`` whose trace holds ``SelectionStep`` records;
* mending: ``find_gaps`` and ``logm`` (each ``Gap`` a hole), and
  ``single_failure_counts`` for every single failure at once;
* ``brute_force_min_kcover``: the exhaustive oracle for small fields;
* the model: ``Sensor``, ``SensorKind``, ``SensorField``, ``TargetSet``,
  ``discretize``, ``merge_segments``, ``complement_segments``,
  ``coverage_fraction`` and ``ParameterError``;
* field files: ``read_field``, ``write_field``, ``read_sensors`` and
  ``write_sensors``;
* ``generate`` + ``DeploymentSpec``, seeded by ``child_seed``, and
  ``run_experiment`` + ``ExperimentConfig``, with ``default_config`` for
  each name in ``EXPERIMENTS``: seeded deployments and studies.
"""

from .algorithms import (
    Gap,
    SelectionResult,
    SelectionStep,
    augment_with_gap_sensors,
    find_gaps,
    k_oga,
    logm,
    oga,
    oga_continuous,
    single_failure_counts,
)
from .baselines import (
    BarrierGraph,
    brute_force_min_kcover,
    build_barrier_graph,
    greedy_max_coverage,
    k_disjoint_paths,
)
from .deployment import (
    DeploymentSpec,
    child_seed,
    generate,
)
from .fieldio import (
    read_field,
    read_sensors,
    write_field,
    write_sensors,
)
from .harness import (
    EXPERIMENTS,
    ExperimentConfig,
    default_config,
    run_experiment,
)
from .model import (
    ParameterError,
    Sensor,
    SensorField,
    SensorKind,
    TargetSet,
    complement_segments,
    coverage_fraction,
    discretize,
    merge_segments,
)

__version__ = "0.1.0"

__all__ = [
    "BarrierGraph",
    "DeploymentSpec",
    "EXPERIMENTS",
    "ExperimentConfig",
    "Gap",
    "ParameterError",
    "SelectionResult",
    "SelectionStep",
    "Sensor",
    "SensorField",
    "SensorKind",
    "TargetSet",
    "augment_with_gap_sensors",
    "brute_force_min_kcover",
    "build_barrier_graph",
    "child_seed",
    "complement_segments",
    "coverage_fraction",
    "default_config",
    "discretize",
    "find_gaps",
    "generate",
    "greedy_max_coverage",
    "k_disjoint_paths",
    "k_oga",
    "logm",
    "merge_segments",
    "oga",
    "oga_continuous",
    "read_field",
    "read_sensors",
    "run_experiment",
    "single_failure_counts",
    "write_field",
    "write_sensors",
    "__version__",
]
