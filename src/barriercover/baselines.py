"""Benchmark selectors and the exhaustive certification oracle.

Two baselines to compare the frontier greedy against:

* ``greedy_max_coverage``: the classic set-cover greedy that repeatedly
  takes the sensor covering the most still-uncovered targets. It has no
  notion of a frontier and routinely over-selects.
* ``build_barrier_graph`` / ``k_disjoint_paths``: the path-based barrier
  benchmark. Sensors become nodes of a complete graph with two terminals;
  an edge costs 0 when the projected intervals overlap and 1 otherwise
  (one bridging gap sensor). k rounds of cheapest-path extraction with
  node removal yield k vertex-disjoint barriers.

``brute_force_min_kcover`` certifies optimality claims by exhaustive
subset enumeration, smallest subsets first.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

import numpy as np

from .model import (
    Domain,
    ParameterError,
    SensorField,
    TargetSet,
)
from .algorithms import SelectionResult, SelectionStep

LEFT = -1
RIGHT = -2


class InstanceTooLargeError(ValueError):
    """The exhaustive oracle refuses instances it cannot enumerate."""


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
    if not isinstance(targets, TargetSet):
        targets = TargetSet(tuple(targets))
    if len(targets) == 0:
        raise ParameterError("targets must be non-empty")
    xs = np.asarray(targets.xs, dtype=float)
    m = len(xs)
    real = ~np.isin(field.ids, list(field.virtual_spans))
    ids = field.ids[real].tolist()
    n = len(ids)
    if n == 0:
        return SelectionResult(
            selected_ids=(), fully_covered=False, trace=(), comparisons=0
        )
    lo = np.searchsorted(xs, field.us[real], side="left")
    hi = np.searchsorted(xs, field.vs[real], side="right")
    uncovered = np.ones(m, dtype=np.int64)
    available = np.ones(n, dtype=bool)
    selected: list[int] = []
    steps: list[SelectionStep] = []
    comparisons = 0
    while uncovered.any():
        prefix = np.concatenate(([0], np.cumsum(uncovered)))
        gains = prefix[hi] - prefix[lo]
        gains[~available] = -1
        comparisons += int(available.sum())
        best = int(np.argmax(gains))
        if gains[best] <= 0:
            break
        if record_trace:
            frontier = int(np.argmax(uncovered))
            candidates = tuple(
                sorted(
                    ids[i] for i in np.nonzero((gains > 0) & available)[0]
                )
            )
            steps.append(
                SelectionStep(
                    current_target=frontier,
                    candidate_ids=candidates,
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


@dataclass(frozen=True)
class BarrierGraph:
    """Complete weighted graph over sensor nodes plus LEFT/RIGHT terminals.

    ``spans`` maps each node to its interval; the terminals carry the
    degenerate intervals [a, a] and [b, b]. An edge weighs 0 when the two
    spans share a point and 1 otherwise (one bridging gap sensor).
    """

    nodes: tuple[int, ...]
    spans: Mapping[int, tuple[float, float]]
    domain: Domain

    def weight(self, i: int, j: int) -> int:
        ui, vi = self.spans[i]
        uj, vj = self.spans[j]
        return 0 if (ui <= vj and uj <= vi) else 1


def build_barrier_graph(field: SensorField, domain: Domain) -> BarrierGraph:
    """Barrier graph over the field's real sensors."""
    a, b = domain
    if not a < b:
        raise ParameterError(f"domain needs a < b, got [{a}, {b}]")
    spans: dict[int, tuple[float, float]] = {LEFT: (a, a), RIGHT: (b, b)}
    nodes = [LEFT, RIGHT]
    for sid, u, v in zip(field.ids.tolist(), field.us.tolist(), field.vs.tolist()):
        if sid in field.virtual_spans:
            continue
        spans[sid] = (u, v)
        nodes.append(sid)
    return BarrierGraph(nodes=tuple(nodes), spans=spans, domain=domain)


def _cheapest_path(graph: BarrierGraph, removed: set[int]) -> tuple[int, ...]:
    """Cheapest LEFT->RIGHT path by (total weight, node count, node ids)."""
    best_seen: dict[int, tuple[int, int, tuple[int, ...]]] = {}
    heap: list[tuple[int, int, tuple[int, ...]]] = [(0, 1, (LEFT,))]
    settled: set[int] = set()
    while heap:
        dist, length, path = heapq.heappop(heap)
        node = path[-1]
        if node == RIGHT:
            return path
        if node in settled:
            continue
        settled.add(node)
        for other in graph.nodes:
            if other == node or other == LEFT or other in removed:
                continue
            if other in settled:
                continue
            cand = (dist + graph.weight(node, other), length + 1, path + (other,))
            seen = best_seen.get(other)
            if seen is None or cand < seen:
                best_seen[other] = cand
                heapq.heappush(heap, cand)
    raise RuntimeError("no LEFT->RIGHT path; the direct terminal edge is missing")


def k_disjoint_paths(graph: BarrierGraph, k: int) -> SelectionResult:
    """k rounds of cheapest-path extraction with node removal.

    Each round picks the LEFT->RIGHT path minimizing total gap sensors,
    breaking ties by fewer nodes and then lexicographic node ids, and
    removes its sensor nodes from later rounds. Weight-1 edges materialize
    as virtual sensors spanning the stretch between the two spans. The
    result counts real and virtual sensors together; subtract the virtual
    ones for the real count.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    removed: set[int] = set()
    selected: list[int] = []
    virtual_ids: list[int] = []
    virtual_spans: dict[int, tuple[float, float]] = {}
    next_vid = max((n for n in graph.nodes if n >= 0), default=-1) + 1
    for _ in range(k):
        path = _cheapest_path(graph, removed)
        for node in path[1:-1]:
            selected.append(node)
            removed.add(node)
        for i, j in zip(path, path[1:]):
            if graph.weight(i, j) == 1:
                lo = min(graph.spans[i][1], graph.spans[j][1])
                hi = max(graph.spans[i][0], graph.spans[j][0])
                virtual_ids.append(next_vid)
                selected.append(next_vid)
                virtual_spans[next_vid] = (lo, hi)
                next_vid += 1
    return SelectionResult(
        selected_ids=tuple(selected),
        virtual_ids=tuple(virtual_ids),
        virtual_spans=virtual_spans,
        trace=(),
        fully_covered=not virtual_ids,
        comparisons=0,
    )


def brute_force_min_kcover(
    field: SensorField, targets: TargetSet, k: int
) -> int | None:
    """Exact minimum number of sensors k-covering every target.

    Exhaustive subset enumeration ordered by size with early exit, so the
    first feasible size is the answer. Instances beyond 20 sensors are
    refused; None marks infeasibility even with every sensor selected.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if not isinstance(targets, TargetSet):
        targets = TargetSet(tuple(targets))
    n = field.ids.size
    if n > 20:
        raise InstanceTooLargeError(
            f"exhaustive enumeration capped at 20 sensors, got {n}"
        )
    xs = targets.xs
    m = len(xs)
    full = (1 << m) - 1
    masks = []
    from bisect import bisect_left, bisect_right

    for u, v in zip(field.us.tolist(), field.vs.tolist()):
        lo = bisect_left(xs, u)
        hi = bisect_right(xs, v)
        masks.append(((1 << hi) - 1) ^ ((1 << lo) - 1))
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
