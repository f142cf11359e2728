"""Shared helpers: field builders, independent oracles, trace checks.

The oracles here are deliberately written as plain double loops without
bisection or bitmasks, so they share no code path with the package and
can certify it.
"""

from __future__ import annotations

import heapq
import json
import math
from bisect import bisect_right
from itertools import combinations
from typing import Iterable, NamedTuple

import numpy as np

from barriercover.algorithms import SelectionResult, SelectionStep, _Frontier
from barriercover.baselines import LEFT, RIGHT
from barriercover.deployment import DeploymentKind
from barriercover.fieldio import FieldFormatError
from barriercover.model import (
    Domain,
    ParameterError,
    Sensor,
    SensorField,
    SensorKind,
    TargetSet,
    discretize,
)


class Interval(NamedTuple):
    """One canonical row of a field, as the oracles read it."""

    u: float
    v: float
    sensor_id: int


def interval_rows(field):
    """The field's canonical (u, v, id) rows as records."""
    columns = (field.us.tolist(), field.vs.tolist(), field.ids.tolist())
    return tuple(map(Interval, *columns))


def make_field(pairs, domain=None):
    """Field of omni sensors whose projections are exactly the pairs.

    Use dyadic coordinates (integers, halves, quarters) so the midpoint
    and radius arithmetic stays exact in floating point.
    """
    pairs = list(pairs)
    sensors = [
        Sensor.omni(i, (u + v) / 2.0, 0.0, (v - u) / 2.0)
        for i, (u, v) in enumerate(pairs)
    ]
    if domain is None:
        domain = (min(u for u, _ in pairs), max(v for _, v in pairs))
    return SensorField.build(sensors, domain)


def pairs(us, vs):
    """Columns of segment ends as a list of (u, v) pairs."""
    return list(zip(us.tolist(), vs.tolist()))


def bits(values):
    """Exact bit patterns; unlike ==, tells -0.0 from 0.0."""
    return [float(x).hex() for x in values]


# endpoints on a coarse grid over [0, 10], their neighbouring doubles and
# two subnormals, so that drawn tables touch, duplicate and nearly touch
_GRID = (0.0, 5e-324, 1e-323, 1.0, 2.5, 4.0, 7.0, 10.0)
ENDPOINTS = sorted(
    {x for g in _GRID for x in (g, math.nextafter(g, 0.0), math.nextafter(g, 10.0))}
)


def table_field(pairs, domain):
    """Field whose canonical intervals are exactly the pairs, as given.

    Skips projection and clipping so that zero-length spans, duplicates
    and adjacent doubles reach the selectors unchanged; sensor i owns the
    i-th pair and has no pose.
    """
    pairs = list(pairs)
    return SensorField(
        [u for u, _ in pairs], [v for _, v in pairs], range(len(pairs)), domain
    )


def _angle_inside(theta, center, half):
    # circular distance between theta and center, in degrees
    d = abs((theta - center + 180.0) % 360.0 - 180.0)
    return d <= half


def oracle_project(sensor):
    """Per-sensor projection, the package's former scalar code path.

    Omnidirectional: [x - r, x + r]. Directional: min and max over the
    apex, the two arc edge endpoints, and the arc points at 0 and 180
    degrees when the sector contains them. Returns (u, v).
    """
    x, _y = sensor.position
    r = sensor.radius
    if sensor.kind is SensorKind.OMNI:
        return x - r, x + r
    half = sensor.fov / 2.0
    xs = [x]
    for edge in (sensor.direction - half, sensor.direction + half):
        xs.append(x + r * math.cos(math.radians(edge)))
    if _angle_inside(0.0, sensor.direction, half):
        xs.append(x + r)
    if _angle_inside(180.0, sensor.direction, half):
        xs.append(x - r)
    return min(xs), max(xs)


def oracle_clip(span, domain):
    """Scalar intersection of (u, v) with [a, b]; None when void."""
    a, b = domain
    u = max(span[0], a)
    v = min(span[1], b)
    if u > v:
        return None
    return u, v


def oracle_table(sensors, domain):
    """Canonical (u, v, id) rows of a field built the scalar way: project,
    clip, drop the void, sort by (u, v, id)."""
    rows = []
    for s in sensors:
        kept = oracle_clip(oracle_project(s), domain)
        if kept is not None:
            rows.append((kept[0], kept[1], s.id))
    return sorted(rows)


def oracle_generate(spec):
    """The sensors of ``generate(spec)``, drawn and built one at a time."""
    rng = np.random.default_rng(spec.seed)
    xs = rng.uniform(0.0, spec.width, spec.n)
    if spec.kind is DeploymentKind.LINE:
        ys = rng.normal(0.0, spec.line_sigma, spec.n)
    else:
        ys = rng.uniform(0.0, spec.strip_height, spec.n)
    if spec.sensor_kind is SensorKind.OMNI:
        return [
            Sensor.omni(i, float(xs[i]), float(ys[i]), spec.radius)
            for i in range(spec.n)
        ]
    dirs = rng.uniform(0.0, 360.0, spec.n)
    return [
        Sensor.directional(
            i, float(xs[i]), float(ys[i]), spec.radius, spec.fov, float(dirs[i])
        )
        for i in range(spec.n)
    ]


def multiplicity(intervals, x):
    return sum(1 for iv in intervals if iv.u <= x <= iv.v)


def covers_targets(intervals, xs, k=1):
    return all(multiplicity(intervals, x) >= k for x in xs)


def union_covers_domain(spans, domain, k=1):
    """Whether the closed spans cover every point of [a, b] at least k deep.

    Checks multiplicity at the midpoint of every elementary sub-interval;
    closed intervals make endpoint multiplicities at least as large as a
    neighbouring cell's, so midpoints decide.
    """
    a, b = domain
    cuts = {a, b}
    for u, v in spans:
        if a < u < b:
            cuts.add(u)
        if a < v < b:
            cuts.add(v)
    xs = sorted(cuts)
    for lo, hi in zip(xs, xs[1:]):
        mid = (lo + hi) / 2.0
        if sum(1 for u, v in spans if u <= mid <= v) < k:
            return False
    return True


# The segment algebra as it was over lists of tuples and interval
# records, before the array union replaced it.


def oracle_merge_segments(
    segments: Iterable[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Union of closed segments as a sorted list of disjoint closed blocks.

    Touching segments merge: [0, 4] and [4, 8] become [0, 8].
    """
    segs = sorted(segments)
    merged: list[tuple[float, float]] = []
    for u, v in segs:
        if merged and u <= merged[-1][1]:
            if v > merged[-1][1]:
                merged[-1] = (merged[-1][0], v)
        else:
            merged.append((u, v))
    return merged


def oracle_complement_segments(
    segments: Iterable[tuple[float, float]], domain: Domain
) -> list[tuple[float, float]]:
    """Maximal positive-length stretches of [a, b] not covered by the union."""
    a, b = domain
    out: list[tuple[float, float]] = []
    cursor = a
    for u, v in oracle_merge_segments(segments):
        if v < a or u > b:
            continue
        u = max(u, a)
        v = min(v, b)
        if u > cursor:
            out.append((cursor, u))
        cursor = max(cursor, v)
    if cursor < b:
        out.append((cursor, b))
    return out


def oracle_coverage_fraction(
    selected: Iterable[Interval],
    domain: Domain,
    virtual_ids: frozenset[int] | set[int] = frozenset(),
) -> float:
    """Fraction of [a, b] covered by the union of the given intervals.

    Virtual gap sensors never contribute coverage; pass their ids in
    ``virtual_ids`` to exclude them.
    """
    a, b = domain
    if not a < b:
        raise ParameterError(f"domain needs a < b, got [{a}, {b}]")
    segs = []
    for iv in selected:
        if iv.sensor_id in virtual_ids:
            continue
        u = max(iv.u, a)
        v = min(iv.v, b)
        if u <= v:
            segs.append((u, v))
    # left to right, as the built-in sum added floats before Python 3.12
    covered = 0
    for u, v in oracle_merge_segments(segs):
        covered += v - u
    return covered / (b - a)


def exhaustive_min_kcover(field, targets, k=1):
    """Smallest number of field sensors k-covering all targets, or None.

    Independent reference for the package oracle: size-ordered subset
    enumeration with per-target counting loops.
    """
    xs = list(targets)
    ivs = interval_rows(field)
    for size in range(len(ivs) + 1):
        for combo in combinations(ivs, size):
            if covers_targets(combo, xs, k):
                return size
    return None


def lp_min_kcover(field, targets, k):
    """Optimum of the linear relaxation of minimum k-cover, or None when
    even every sensor together falls short.

    Minimizes the number of selected sensors, each taken with a weight in
    [0, 1], subject to every target being covered at least k times, over
    the sparse target-by-sensor incidence matrix. Each sensor covers a
    contiguous run of the sorted targets, so the matrix has consecutive
    ones in every column and is totally unimodular: the relaxation has
    an integral optimum, which is the minimum k-cover.

    The incidence is built from its definition, u <= x <= v, over 1024
    targets at a time, so a field of 1e4 sensors never holds a dense
    targets-by-sensors mask.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    xs = np.array(list(targets), dtype=float)
    rows, cols = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for start in range(0, xs.size, 1024):
        chunk = xs[start:start + 1024, None]
        chunk_rows, chunk_cols = np.nonzero((field.us <= chunk) & (chunk <= field.vs))
        rows.append(chunk_rows + start)
        cols.append(chunk_cols)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    result = linprog(
        np.ones(field.ids.size),
        A_ub=csr_matrix((np.full(rows.size, -1.0), (rows, cols)),
                        shape=(xs.size, field.ids.size)),
        b_ub=np.full(xs.size, -float(k)),
        bounds=(0.0, 1.0),
        method="highs",
    )
    if result.status == 2:
        return None
    assert result.status == 0, result.message
    return result.fun


def selected_cover_sets(field, result, targets):
    """For each target, the set of selected sensor ids covering it."""
    spans = {}
    for sid in result.selected_ids:
        span = result.virtual_spans.get(sid)
        if span is None:
            span = field.span_of(sid)
        spans[sid] = span
    return [
        frozenset(sid for sid, (u, v) in spans.items() if u <= x <= v)
        for x in targets
    ]


def markov_equality_holds(cover_sets):
    """Selected sensors shared with the next target all cover this one.

    Checks |union(S_0..S_i) & S_{i+1}| == |S_i & S_{i+1}| at every i,
    which holds for interval sensors because covering anything left of
    target i and anything right of it forces covering i itself.
    """
    seen: set = set()
    for i in range(len(cover_sets) - 1):
        seen |= cover_sets[i]
        if len(seen & cover_sets[i + 1]) != len(cover_sets[i] & cover_sets[i + 1]):
            return False
    return True


def random_small_field(rng, n_max=12, width=30.0):
    """Small mixed omni/directional field for oracle-sized instances."""
    n = int(rng.integers(3, n_max + 1))
    sensors = []
    for i in range(n):
        x = float(rng.uniform(0.0, width))
        y = float(rng.uniform(-3.0, 3.0))
        r = float(rng.uniform(0.5, 6.0))
        if rng.uniform() < 0.5:
            sensors.append(Sensor.omni(i, x, y, r))
        else:
            sensors.append(
                Sensor.directional(
                    i,
                    x,
                    y,
                    r,
                    fov=float(rng.uniform(30.0, 360.0)),
                    direction=float(rng.uniform(0.0, 360.0)),
                )
            )
    return SensorField.build(sensors, (0.0, width))


def oracle_instance(seed, *, k=1, n_max=12, max_targets=20):
    """Seeded (field, targets) pair whose targets admit a full k-cover.

    Targets are the discretization midpoints with coverage multiplicity
    at least k; thin or unlucky draws are resampled with a salted seed.
    """
    for attempt in range(200):
        rng = np.random.default_rng([seed, attempt])
        field = random_small_field(rng, n_max=n_max)
        xs = [
            x
            for x in discretize(field)
            if multiplicity(interval_rows(field), x) >= k
        ]
        if 1 <= len(xs) <= max_targets:
            return field, TargetSet(tuple(xs))
    raise AssertionError(f"no feasible instance for seed {seed}")


def _naive_walks(intervals, stretches, selected, virtual_spans, next_vid):
    """The continuous frontier rule by full scans, stretch by stretch.

    Candidates at frontier f are the intervals with u <= f < v; the winner
    has the largest (v, v - u, -index). With no candidate, a virtual
    sensor bridges to the nearest start of a positive-extent interval
    beyond f, or to the stretch end. ``comparisons`` is one per interval
    in the table plus one per step.
    """
    steps = []
    for start, end in stretches:
        f = start
        while f < end:
            cands = [i for i, iv in enumerate(intervals) if iv.u <= f < iv.v]
            if cands:
                win = intervals[
                    max(
                        cands,
                        key=lambda i: (
                            intervals[i].v,
                            intervals[i].v - intervals[i].u,
                            -i,
                        ),
                    )
                ]
                sid, reach = win.sensor_id, win.v
            else:
                resumes = [iv.u for iv in intervals if iv.u > f and iv.v > iv.u]
                sid, reach = next_vid, min(resumes + [end])
                next_vid += 1
                virtual_spans[sid] = (f, reach)
            ids = tuple(sorted(intervals[i].sensor_id for i in cands))
            steps.append(SelectionStep(f, ids, sid, reach))
            if sid not in selected:
                selected.append(sid)
            f = reach
    return SelectionResult(
        selected_ids=tuple(selected),
        virtual_spans=virtual_spans,
        trace=tuple(steps),
        fully_covered=not virtual_spans,
        comparisons=len(intervals) + len(steps),
    )


def naive_oga_continuous(field, domain):
    """Reference for ``oga_continuous``."""
    return _naive_walks(interval_rows(field), [domain], [], {}, field.max_id + 1)


def naive_logm(previous, gaps, field, failed):
    """Reference for ``logm``: the same walks over never-selected sensors."""
    before = set(previous.selected_ids)
    survivors = [sid for sid in previous.selected_ids if sid not in failed]
    pool = [iv for iv in interval_rows(field) if iv.sensor_id not in before]
    return _naive_walks(
        pool,
        sorted((g.u, g.v) for g in gaps),
        survivors,
        {
            sid: previous.virtual_spans[sid]
            for sid in survivors
            if sid in previous.virtual_ids
        },
        max(field.max_id, max(before, default=-1)) + 1,
    )


def assert_witnessed_minimum(field, targets, result):
    """Certify that a full ``oga`` cover is minimum (k = 1), at any size.

    The frontier targets of the trace, ``xs[step.current_target]``, are
    witnesses: no interval of the field holds two of them, else it would
    have reached past the earlier step's winner. A cover then needs a
    distinct sensor for each witness (LP duality for interval matrices),
    so a count equal to the number of witnesses is minimum.
    """
    steps = [step.current_target for step in result.trace]
    witnesses = np.sort(targets.xs[steps])
    held = np.searchsorted(witnesses, field.vs, "right") - np.searchsorted(
        witnesses, field.us, "left"
    )
    assert held.max(initial=0) <= 1, "an interval holds two witnesses"
    assert witnesses.size == result.count, (witnesses.size, result.count)


def naive_augment(field, targets, k):
    """Reference for ``augment_with_gap_sensors`` by counting loops.

    Each maximal run of consecutive targets covered fewer than k times
    gets k minus the run's least multiplicity virtual sensors, each
    spanning from the run's first target to its last; returns
    {id: (u, v)} with ids counting up from the field's ``max_id + 1``.
    """
    intervals = interval_rows(field)
    xs = list(targets)
    depth = [multiplicity(intervals, x) for x in xs]
    spans = []
    start = 0
    while start < len(xs):
        end = start
        if depth[start] < k:
            while end + 1 < len(xs) and depth[end + 1] < k:
                end += 1
            worst = min(depth[start : end + 1])
            spans += [(xs[start], xs[end])] * (k - worst)
        start = end + 1
    return dict(enumerate(spans, field.max_id + 1))


def naive_k_oga(field, targets, k):
    """Reference for ``k_oga`` by counting loops over the field's rows and
    the gap spans, sorted together by (u, v, id).

    Round s covers the targets still covered fewer than s times. At the
    leftmost such target the candidates are the unused intervals covering
    it; the winner has the largest (needed targets covered from there on,
    needed targets covered in total, -index). ``comparisons`` is one per
    unused interval at the start of each round plus one per step.
    """
    virtual = naive_augment(field, targets, k)
    intervals = sorted(
        interval_rows(field)
        + tuple(Interval(u, v, sid) for sid, (u, v) in virtual.items())
    )
    xs = list(targets)
    selected, steps = [], []
    comparisons = 0
    for s in range(1, k + 1):
        chosen = [iv for iv in intervals if iv.sensor_id in selected]
        need = [t for t, x in enumerate(xs) if multiplicity(chosen, x) < s]
        if need:
            comparisons += len(intervals) - len(selected)
        pos = 0
        while pos < len(need):
            x = xs[need[pos]]
            cands = [
                i
                for i, iv in enumerate(intervals)
                if iv.sensor_id not in selected and iv.u <= x <= iv.v
            ]

            def key(i):
                iv = intervals[i]
                right = sum(1 for t in need[pos:] if xs[t] <= iv.v)
                total = sum(1 for t in need if iv.u <= xs[t] <= iv.v)
                return (right, total, -i)

            win = max(cands, key=key)
            right = key(win)[0]
            sid = intervals[win].sensor_id
            ids = tuple(sorted(intervals[i].sensor_id for i in cands))
            steps.append(SelectionStep(need[pos], ids, sid, need[pos + right - 1]))
            selected.append(sid)
            pos += right
    comparisons += len(steps)
    virtual_spans = {sid: virtual[sid] for sid in selected if sid in virtual}
    return SelectionResult(
        selected_ids=tuple(selected),
        virtual_spans=virtual_spans,
        trace=tuple(steps),
        fully_covered=not virtual_spans,
        comparisons=comparisons,
    )


class CompleteGraph(NamedTuple):
    """The complete weighted graph that a ``BarrierGraph`` stands for: its
    sensors plus the LEFT and RIGHT terminals, which carry the spans
    [a, a] and [b, b]. An edge weighs 0 when its two spans share a point
    and 1 otherwise (one bridging gap sensor)."""

    nodes: tuple[int, ...]
    spans: dict[int, tuple[float, float]]

    def weight(self, i, j):
        ui, vi = self.spans[i]
        uj, vj = self.spans[j]
        return 0 if (ui <= vj and uj <= vi) else 1


def complete_graph(graph):
    """The ``CompleteGraph`` of ``graph``'s rows and domain, the terminals
    first, then the sensors in the field's canonical order."""
    a, b = graph.domain
    spans = {LEFT: (a, a), RIGHT: (b, b)}
    for sid, u, v in zip(graph.ids.tolist(), graph.us.tolist(), graph.vs.tolist()):
        spans[sid] = (u, v)
    return CompleteGraph(tuple(spans), spans)


def _oracle_cheapest_path(graph, removed):
    """Cheapest LEFT->RIGHT path by (total weight, node count, node ids).

    Dijkstra over the ``CompleteGraph`` with whole path tuples as labels,
    so the heap order is the tie-break itself.
    """
    best_seen = {}
    heap = [(0, 1, (LEFT,))]
    settled = set()
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


def oracle_gap_free_path(graph, alive):
    """Reference for ``baselines._gap_free_path``: the former breadth-first
    search with one mask over the whole field per level.

    The union of the spans reached so far is one interval [lo, hi] around
    b, and a closed span meets the union exactly when it meets a member,
    so each level is one mask. The walk from LEFT then takes, level by
    level, the smallest id among the sensors that meet the one before.
    """
    us, vs, ids = graph.us, graph.vs, graph.ids
    a, b = graph.domain
    unseen = alive.copy()
    levels = []
    lo = hi = b
    while lo > a:
        new = np.flatnonzero(unseen & (us <= hi) & (vs >= lo))
        if not new.size:
            return None
        levels.append(new)
        unseen[new] = False
        lo = min(lo, us[new].min())
        hi = max(hi, vs[new].max())
    rows = []
    u = v = a
    for level in reversed(levels):
        step = level[(us[level] <= v) & (vs[level] >= u)]
        row = step[np.argmin(ids[step])]
        rows.append(row)
        u, v = us[row], vs[row]
    return rows


def path_rounds(gap_free_path, graph, k):
    """The rows of each of k rounds of ``gap_free_path`` with node removal,
    as lists of ints, up to the first round that finds none (None)."""
    alive = np.ones(graph.ids.size, dtype=bool)
    rounds = []
    for _ in range(k):
        rows = gap_free_path(graph, alive)
        rounds.append(None if rows is None else [int(r) for r in rows])
        if rows is None:
            break
        alive[rows] = False
    return rounds


def oracle_k_disjoint_paths(graph, k):
    """Reference for ``k_disjoint_paths``: the package's former
    path-tuple Dijkstra, one per round, with virtual ids counted from the
    largest real node id."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    graph = complete_graph(graph)
    removed = set()
    selected = []
    virtual_spans = {}
    next_vid = max((n for n in graph.nodes if n >= 0), default=-1) + 1
    for _ in range(k):
        path = _oracle_cheapest_path(graph, removed)
        for node in path[1:-1]:
            selected.append(node)
            removed.add(node)
        for i, j in zip(path, path[1:]):
            if graph.weight(i, j) == 1:
                lo = min(graph.spans[i][1], graph.spans[j][1])
                hi = max(graph.spans[i][0], graph.spans[j][0])
                selected.append(next_vid)
                virtual_spans[next_vid] = (lo, hi)
                next_vid += 1
    return SelectionResult(
        selected_ids=tuple(selected),
        virtual_spans=virtual_spans,
        trace=(),
        fully_covered=not virtual_spans,
        comparisons=0,
    )


# The field-file reader and writer as they were before the column parser
# and formatter: one validated ``Sensor`` per line, one dict per sensor.


def oracle_check_sensor(sensor: Sensor) -> None:
    """The checks a ``Sensor`` once made of itself when it was made, one
    sensor at a time and in their former order; the reference for the
    messages of the column rules."""
    if sensor.id < 0:
        raise ParameterError(f"sensor id must be >= 0, got {sensor.id}")
    if sensor.id >= 2**63:
        raise ParameterError(f"sensor id must be < 2**63, got {sensor.id}")
    if sensor.position is None:
        raise ParameterError("sensors need a position")
    x, y = sensor.position
    r = sensor.radius
    finite = math.isfinite
    if not (finite(x) and finite(y) and (r is None or finite(r))):
        name, value = next(
            (name, value)
            for name, value in (("x", x), ("y", y), ("radius", r))
            if not finite(value)
        )
        raise ParameterError(f"{name} must be finite, got {value}")
    if sensor.radius is None or not sensor.radius > 0:
        raise ParameterError(f"radius must be > 0, got {sensor.radius}")
    if sensor.kind is SensorKind.DIRECTIONAL:
        if sensor.fov is None or not 0 < sensor.fov <= 360:
            raise ParameterError(f"fov must be in (0, 360], got {sensor.fov}")
        if sensor.direction is None or not 0 <= sensor.direction < 360:
            raise ParameterError(
                f"direction must be in [0, 360), got {sensor.direction}"
            )
    elif sensor.fov is not None or sensor.direction is not None:
        raise ParameterError("fov/direction apply to directional sensors only")


_ORACLE_REQUIRED = ("id", "kind", "x", "y", "radius")
_ORACLE_NUMBERS = {
    SensorKind.OMNI: ("x", "y", "radius"),
    SensorKind.DIRECTIONAL: ("x", "y", "radius", "fov", "direction"),
}


def _oracle_sensor_from_obj(obj: dict, line_no: int) -> Sensor:
    if not isinstance(obj, dict):
        raise FieldFormatError(line_no, "expected a JSON object")
    missing = [k for k in _ORACLE_REQUIRED if k not in obj]
    if missing:
        raise FieldFormatError(line_no, f"missing fields: {missing}")
    known = set(_ORACLE_REQUIRED) | {"fov", "direction"}
    unknown = sorted(set(obj) - known)
    if unknown:
        raise FieldFormatError(line_no, f"unknown fields: {unknown}")
    try:
        kind = SensorKind(obj["kind"])
    except ValueError:
        raise FieldFormatError(
            line_no, f"kind must be 'omni' or 'directional', got {obj['kind']!r}"
        ) from None
    if kind is SensorKind.DIRECTIONAL:
        if "fov" not in obj or "direction" not in obj:
            raise FieldFormatError(
                line_no, "directional sensors need fov and direction"
            )
    elif "fov" in obj or "direction" in obj:
        raise FieldFormatError(
            line_no, "fov/direction apply to directional sensors only"
        )
    keys = _ORACLE_NUMBERS[kind]
    try:
        sensor_id = int(obj["id"])
        nums = [float(obj[key]) for key in keys]
    except (TypeError, ValueError, OverflowError) as exc:
        raise FieldFormatError(line_no, f"bad value: {exc}") from None
    if not all(map(math.isfinite, nums)):
        key, value = next(kv for kv in zip(keys, nums) if not math.isfinite(kv[1]))
        raise FieldFormatError(line_no, f"{key} must be finite, got {value}")
    if kind is SensorKind.DIRECTIONAL:
        sensor = Sensor.directional(sensor_id, *nums)
    else:
        sensor = Sensor.omni(sensor_id, *nums)
    try:
        oracle_check_sensor(sensor)
    except ParameterError as exc:
        raise FieldFormatError(line_no, str(exc)) from None
    return sensor


def oracle_read_sensors(path) -> list[Sensor]:
    """Parse a sensor-field file; errors carry the 1-based line number,
    and a repeated id is reported on the line that repeats it."""
    sensors = []
    seen: set[int] = set()
    with open(path, "r", encoding="utf-8") as fp:
        for line_no, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FieldFormatError(line_no, f"invalid JSON: {exc.msg}") from None
            sensor = _oracle_sensor_from_obj(obj, line_no)
            if sensor.id in seen:
                raise FieldFormatError(line_no, f"duplicate sensor id {sensor.id}")
            seen.add(sensor.id)
            sensors.append(sensor)
    return sensors


def oracle_read_field(path, domain) -> SensorField:
    return SensorField.build(oracle_read_sensors(path), domain)


def _oracle_sensor_to_obj(sensor: Sensor) -> dict:
    obj = {
        "id": sensor.id,
        "kind": sensor.kind.value,
        "x": sensor.position[0],
        "y": sensor.position[1],
        "radius": sensor.radius,
    }
    if sensor.kind is SensorKind.DIRECTIONAL:
        obj["fov"] = sensor.fov
        obj["direction"] = sensor.direction
    return obj


def oracle_field_lines(sensors) -> str:
    return "".join(json.dumps(_oracle_sensor_to_obj(s)) + "\n" for s in sensors)


# --------------------------------------------------------------------------
# the per-pick single-failure walks that the successor-table version of
# ``single_failure_counts`` replaced: a memo of frontier walks, one skip
# walk and one pool walk per pick, stepping through the package's
# ``_Frontier`` one scalar step at a time
# --------------------------------------------------------------------------


def _oracle_step(frontier, f, end, skip: int = -1) -> tuple[float, bool]:
    """The reach of one step from f as if position ``skip`` were absent
    (-1, no position, removes none), and whether a real interval made
    it."""
    pos = bisect_right(frontier.us, f)
    if pos:
        table = frontier.second if frontier.arg.item(pos - 1) == skip else frontier.best
        if table.item(pos - 1) > f:
            return table.item(pos - 1), True
    p = frontier.nxt.item(pos)
    if p == skip:
        p = frontier.nxt.item(p + 1)
    return (min(frontier.us[p], end) if p < frontier.m else end), False


def _oracle_count_to(
    frontier: _Frontier, memo: dict, f: float, end: float
) -> tuple[int, bool]:
    """Steps to carry the frontier from f to end, and whether none bridged.

    ``memo`` maps frontiers already walked to the same pair.
    """
    path: list[tuple[float, bool]] = []
    count, clean = 0, True
    while f < end:
        if f in memo:
            count, clean = memo[f]
            break
        reach, real = _oracle_step(frontier, f, end)
        path.append((f, real))
        f = reach
    for g, real in reversed(path):
        count += 1
        clean = clean and real
        memo[g] = (count, clean)
    return count, clean


def _oracle_count_without(
    frontier: _Frontier, memo: dict, f: float, end: float, skip: int
) -> tuple[int, bool]:
    """``_oracle_count_to`` as if table position ``skip`` were absent.

    Once the frontier passes the skipped interval's right endpoint that
    interval can never win or resume coverage again, so the walk continues
    on the shared memo.
    """
    count, clean = 0, True
    while f < end:
        if f >= frontier.v.item(skip):
            tail, tail_clean = _oracle_count_to(frontier, memo, f, end)
            return count + tail, clean and tail_clean
        f, real = _oracle_step(frontier, f, end, skip)
        count += 1
        clean = clean and real
    return count, clean


def oracle_single_failure_counts(
    field: SensorField, domain: Domain | None = None
) -> list[tuple[int, int, int, bool]] | None:
    """Mended vs. from-scratch selection sizes for every single failure.

    Runs the continuous frontier selection once, then for each selected
    sensor in turn reports ``(failed_id, mended_total, fresh_total,
    clean)``: the total selection size after locating and locally mending
    that sensor's hole, the size of a fresh selection over the surviving
    field, and whether both sides managed without virtual gap sensors.
    Returns None when the initial selection itself is not fully covered.
    """
    if domain is None:
        domain = field.domain
    a, b = domain
    if not a < b:
        raise ParameterError(f"domain needs a < b, got [{a}, {b}]")
    whole = _Frontier.over(field)
    winners, reaches = whole.walk(a, b)
    steps = list(zip([a, *reaches], winners, reaches))
    if any(winner < 0 for _f, winner, _reach in steps):
        return None
    picks = [winner for _f, winner, _reach in steps]
    sel = [whole.ids.item(p) for p in picks]
    n_sel = len(sel)
    unpicked = np.ones(whole.m, dtype=bool)
    unpicked[picks] = False
    pool = _Frontier.over(field, unpicked)
    memo: dict = {}

    # leftmost left-endpoint among later picks: coverage resumes there
    resume = [b] * (n_sel + 1)
    for t in range(n_sel - 1, -1, -1):
        resume[t] = min(whole.us[picks[t]], resume[t + 1])

    out = []
    for t, (f, pick, _reach) in enumerate(steps):
        mend, _reaches = pool.walk(f, resume[t + 1])
        tail, fresh_clean = _oracle_count_without(whole, memo, f, b, pick)
        clean = fresh_clean and all(winner >= 0 for winner in mend)
        out.append((sel[t], n_sel - 1 + len(mend), t + tail, clean))
    return out
