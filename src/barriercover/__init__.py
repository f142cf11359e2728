"""Minimum sensor selection for 1D barrier coverage.

Sensors deployed in the plane project onto a segment [a, b] as closed
intervals; selecting few of them so the segment stays covered (once, or k
times, or again after failures) is what this package does:

* :func:`oga` / :func:`oga_continuous`: minimum-cardinality single
  coverage of discrete targets or of the whole segment.
* :func:`k_oga`: minimum-cardinality k-coverage.
* :func:`find_gaps` / :func:`logm`: locate the holes opened by failed
  sensors and mend them locally, keeping the surviving selection.
* :func:`greedy_max_coverage`, :func:`build_barrier_graph` +
  :func:`k_disjoint_paths`: benchmark selectors.
* :func:`brute_force_min_kcover`: exhaustive certification oracle for
  small fields.
* :func:`generate` + :class:`DeploymentSpec`: seeded random deployments.
* :func:`run_experiment` + :class:`ExperimentConfig`: reproducible
  Monte-Carlo studies.
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
    LEFT,
    RIGHT,
    BarrierGraph,
    InstanceTooLargeError,
    brute_force_min_kcover,
    build_barrier_graph,
    greedy_max_coverage,
    k_disjoint_paths,
)
from .deployment import (
    DeploymentKind,
    DeploymentSpec,
    child_seed,
    generate,
)
from .fieldio import (
    FieldFormatError,
    read_field,
    read_sensors,
    write_field,
    write_sensors,
)
from .harness import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentReport,
    curve_intersection,
    default_config,
    prefix_coverage,
    run_experiment,
)
from .model import (
    Domain,
    ParameterError,
    Poses,
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
    "DeploymentKind",
    "DeploymentSpec",
    "Domain",
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentReport",
    "FieldFormatError",
    "Gap",
    "InstanceTooLargeError",
    "LEFT",
    "ParameterError",
    "Poses",
    "RIGHT",
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
    "curve_intersection",
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
    "prefix_coverage",
    "read_field",
    "read_sensors",
    "run_experiment",
    "single_failure_counts",
    "write_field",
    "write_sensors",
    "__version__",
]
