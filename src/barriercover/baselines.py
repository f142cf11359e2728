"""Benchmark selectors and the exhaustive certification oracle.

Two baselines to compare the frontier greedy against:

* ``greedy_max_coverage``: the classic set-cover greedy that repeatedly
  takes the sensor covering the most still-uncovered targets. It has no
  notion of a frontier and routinely over-selects.
* ``build_barrier_graph`` / ``k_disjoint_paths``: the path-based barrier
  benchmark. Sensors become nodes of a complete graph with two terminals;
  an edge costs 0 when the projected intervals overlap and 1 otherwise
  (one bridging gap sensor). k rounds of cheapest-path extraction with
  node removal yield k vertex-disjoint barriers. The terminal edge
  LEFT->RIGHT costs 1 with two nodes, and no longer path with a weight-1
  edge beats it, so the cheapest path is either gap-free, with the
  fewest sensors and the smallest ids on ties, or that lone edge. A
  round is therefore one breadth-first search over the overlap edges,
  and its levels are contiguous runs of the alive sensors in v order:
  one suffix-minimum table and one bisection per level, O(n + L log n)
  for n sensors and an L-sensor path.

``brute_force_min_kcover`` certifies optimality claims by exhaustive
subset enumeration, smallest subsets first.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from typing import Iterator

import numpy as np

from .model import (
    Domain,
    ParameterError,
    SensorField,
    TargetSet,
    _count,
    _segment,
    _target_spans,
    _targets,
)
from .algorithms import SelectionResult, SelectionStep, _free_ids, _result

LEFT = -1
RIGHT = -2


def greedy_max_coverage(
    field: SensorField,
    targets: TargetSet,
    *,
    record_trace: bool = True,
) -> SelectionResult:
    """Repeatedly select the sensor covering the most uncovered targets.

    Ties go to the lowest field index. Stops when every target is covered
    or no remaining sensor adds coverage; in the latter case the result is
    flagged not fully covered. Never inserts virtual sensors.
    """
    xs = _targets(targets, field.domain).xs
    ids = field.ids.tolist()
    lo, hi = _target_spans(field.us, field.vs, xs)
    uncovered = np.ones(xs.size, dtype=np.int64)
    available = np.ones(len(ids), dtype=bool)
    selected: list[int] = []
    steps: list[SelectionStep] = []
    comparisons = 0
    while uncovered.any() and available.any():
        prefix = np.concatenate(([0], np.cumsum(uncovered)))
        gains = prefix[hi] - prefix[lo]
        gains[~available] = -1
        comparisons += int(available.sum())
        best = int(np.argmax(gains))
        if gains[best] <= 0:
            break
        if record_trace:
            steps.append(
                SelectionStep(
                    current_target=int(np.argmax(uncovered)),
                    # a used sensor's gain is -1, so these are all unused
                    candidate_ids=tuple(sorted(field.ids[gains > 0].tolist())),
                    chosen_id=ids[best],
                    reach=int(hi[best]) - 1,
                )
            )
        selected.append(ids[best])
        available[best] = False
        uncovered[lo[best] : hi[best]] = 0
    return SelectionResult(
        selected_ids=tuple(selected),
        trace=tuple(steps),
        fully_covered=not uncovered.any(),
        comparisons=comparisons,
    )


@dataclass(frozen=True, eq=False)
class BarrierGraph:
    """The barrier graph over a field's sensors, held as the field's rows.

    The graph is complete: its nodes are the sensors plus the LEFT and
    RIGHT terminals, which carry the degenerate intervals [a, a] and
    [b, b], and an edge weighs 0 when the two spans share a point and 1
    otherwise (one bridging gap sensor). No round walks its edges (see
    ``_gap_free_path``), so only the rows are held: ``us``, ``vs`` and
    ``ids`` are the sensors' spans in the field's canonical order.
    ``first_free_id`` is the lowest id above every sensor of the field,
    for the gap sensors a selection adds.
    """

    us: np.ndarray
    vs: np.ndarray
    ids: np.ndarray
    domain: Domain
    first_free_id: int

    @cached_property
    def nodes(self) -> tuple[int, ...]:
        # read only by the benchmark's baselines.k_disjoint_paths.nodes counter
        return (LEFT, RIGHT, *self.ids.tolist())

    @cached_property
    def by_v(self) -> np.ndarray:
        """Rows in ascending v order."""
        return np.argsort(self.vs, kind="stable")


def build_barrier_graph(field: SensorField, domain: Domain) -> BarrierGraph:
    """Barrier graph over the field's sensors."""
    _segment(domain)
    return BarrierGraph(field.us, field.vs, field.ids, domain, field.max_id + 1)


def _gap_free_path(graph: BarrierGraph, alive: np.ndarray) -> np.ndarray | None:
    """Rows of the gap-free LEFT->RIGHT path with the fewest sensors.

    Ties go to the lexicographically smallest id sequence; None when the
    alive sensors hold no gap-free path. Breadth-first level j holds the
    sensors that take j steps to RIGHT. Once the levels up to j - 1 are
    found, their spans cover a frontier lo_j up to b without a hole, and
    a closed span meets that union exactly when it meets a member, so
    level j is the alive sensors with lo_j <= v < lo_j-1 (lo_1 = b,
    lo_0 = inf). In v order that is one run, found by one bisection, and
    lo_j+1 is the least u over v >= lo_j, one entry of a suffix-minimum
    table. A least u at or above lo_j leaves the next run empty: the
    alive sensors hold no gap-free path. A round costs O(n + L log n).

    A span that starts past b, when the graph's domain is narrower than
    the field's, has v > b and so falls in level 1; its u lies above every
    frontier, so it never lowers one. Nor does a path ever take it: the
    member before it on a path would start at or before b and reach past
    b, so it would hold b and be in level 1 itself.

    The walk from LEFT then takes, level by level, the smallest id among
    the sensors that meet the one before. Every v in a level lies above
    the previous pick's v, so meeting it is u <= that v.
    """
    a, b = graph.domain
    rows = graph.by_v[alive[graph.by_v]]
    us, vs = graph.us[rows], graph.vs[rows]
    least_u = np.minimum.accumulate(us[::-1])[::-1].tolist()
    vs = vs.tolist()
    bounds = [len(vs)]
    lo = b
    while lo > a:
        start = bisect_left(vs, lo)
        if start == bounds[-1]:
            return None
        bounds.append(start)
        lo = least_u[start]
    us, ids = us.tolist(), graph.ids[rows].tolist()
    path = []
    v = float(a)
    for start, end in zip(bounds[:0:-1], bounds[-2::-1]):
        least = 2**63  # above every id
        for i in range(start, end):
            if us[i] <= v and ids[i] < least:
                least, pick = ids[i], i
        path.append(pick)
        v = vs[pick]
    return rows[path]


def _path_rounds(graph: BarrierGraph) -> Iterator[np.ndarray]:
    """Rows of each round's path (``_gap_free_path``, then node removal),
    until the alive sensors hold no gap-free path. No round reads k, so
    every k-path extraction takes the first k rounds."""
    alive = np.ones(graph.ids.size, dtype=bool)
    while (rows := _gap_free_path(graph, alive)) is not None:
        alive[rows] = False
        yield rows


def _k_paths(graph: BarrierGraph, paths: list[np.ndarray], k: int) -> SelectionResult:
    """The k-path selection from ``paths``, the leading rounds of
    ``_path_rounds(graph)``: at least k, or all there are. Each missing
    round takes the terminal edge, bridged by one virtual sensor over the
    whole domain."""
    paths = paths[:k]
    selected = [sid for rows in paths for sid in graph.ids[rows].tolist()]
    a, b = graph.domain
    first = _free_ids(graph.first_free_id, k - len(paths))
    virtual_spans = {vid: (a, b) for vid in range(first, first + k - len(paths))}
    return _result(selected + list(virtual_spans), virtual_spans)


def k_disjoint_paths(graph: BarrierGraph, k: int) -> SelectionResult:
    """k rounds of cheapest-path extraction with node removal.

    Each round picks the LEFT->RIGHT path minimizing total gap sensors,
    breaking ties by fewer nodes and then lexicographic node ids, and
    removes its sensor nodes from later rounds. That path is the
    gap-free one with the fewest sensors or, when the surviving sensors
    hold none, the terminal edge, bridged by one virtual sensor over the
    whole domain; node removal then leaves every later round the same.
    A round takes one suffix-minimum table over the alive sensors in v
    order and one bisection per breadth-first level (``_gap_free_path``),
    so k rounds cost O(k (n + L log n)) for n sensors and L-sensor paths.
    Virtual ids count up from ``graph.first_free_id``, and stay below
    2**63 (a ParameterError otherwise). The result counts
    real and virtual sensors together; subtract the virtual ones for the
    real count.
    """
    k = _count("k", k, 1)
    return _k_paths(graph, list(islice(_path_rounds(graph), k)), k)


def brute_force_min_kcover(
    field: SensorField, targets: TargetSet, k: int
) -> int | None:
    """Exact minimum number of sensors k-covering every target.

    Exhaustive subset enumeration ordered by size with early exit, so the
    first feasible size is the answer. Instances beyond 20 sensors are
    refused; None marks infeasibility even with every sensor selected.
    """
    k = _count("k", k, 1)
    targets = _targets(targets, field.domain)
    n = field.ids.size
    if n > 20:
        raise ParameterError(f"exhaustive enumeration capped at 20 sensors, got {n}")
    full = (1 << len(targets)) - 1
    first, last = _target_spans(field.us, field.vs, targets.xs)
    masks = [
        ((1 << hi) - 1) ^ ((1 << lo) - 1)
        for lo, hi in zip(first.tolist(), last.tolist())
    ]
    for size in range(0, n + 1):
        for combo in combinations(range(n), size):
            levels = [0] * k
            for idx in combo:
                carry = masks[idx]
                for lv in range(k):
                    if not carry:
                        break
                    carry, levels[lv] = levels[lv] & carry, levels[lv] | carry
            if levels[k - 1] == full:
                return size
    return None
