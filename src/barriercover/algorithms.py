"""Frontier-advancing greedy selection and local gap mending.

The selectors here solve minimum-cardinality coverage of a line segment
(or of a finite target set on it) by projected sensor intervals:

* ``oga``: left-to-right greedy over discrete targets. At each step it
  considers the sensors covering the current (leftmost uncovered) target
  and picks the one covering the most targets to the right. For interval
  coverage this frontier rule is exact: it returns a minimum-cardinality
  cover.
* ``k_oga``: k rounds of the same rule over the targets still lacking
  coverage multiplicity, yielding a minimum-cardinality k-cover.
* ``oga_continuous``: the same frontier rule on the continuum, picking
  the candidate whose interval reaches furthest right.
* ``find_gaps`` / ``logm``: after some selected sensors fail, locate the
  uncovered stretches and mend each one locally with fresh sensors
  instead of re-running selection from scratch.
* ``single_failure_counts``: mended vs. from-scratch selection sizes for
  every single failure of a continuous selection, all at once.

Every one walks a ``_Frontier`` table: ``walk`` for one frontier,
``walk_all`` for many at once. Stretches that no sensor covers are
bridged by virtual gap sensors so the walks never stall; ``k_oga`` adds
them up front (``augment_with_gap_sensors``). A field holds real sensors
only: the virtual ones exist only in a result, as the keys of its ledger
``virtual_spans`` (``virtual_ids`` lists them in selection order), and a
selection counts as fully covered only when no virtual sensor was needed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import InitVar, dataclass, field as dc_field
from functools import cached_property
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .model import (
    Domain,
    ParameterError,
    SensorField,
    TargetSet,
    _canonical_order,
    _count,
    _failed,
    _first_max,
    _is_integer,
    _segment,
    _target_spans,
    _targets,
    complement_segments,
)


@dataclass(frozen=True)
class SelectionStep:
    """One greedy step: where the frontier was, who competed, who won.

    ``current_target`` and ``reach`` are target indices for the discrete
    selectors and x coordinates for the continuous ones. ``candidate_ids``
    is empty only when the step inserted a virtual gap sensor on the fly.
    """

    current_target: float
    candidate_ids: tuple[int, ...]
    chosen_id: int
    reach: float


@dataclass(frozen=True)
class SelectionResult:
    """Ordered selection with its trace and its ledger ``virtual_spans``
    ({virtual id: span}); the constructor checks every result, and the
    ``virtual_ids`` it may be given (a restatement, not kept) against the ledger."""

    selected_ids: tuple[int, ...]
    virtual_spans: Mapping[int, tuple[float, float]] = dc_field(default_factory=dict)
    trace: tuple[SelectionStep, ...] = ()
    fully_covered: bool = True
    comparisons: int = 0
    virtual_ids: InitVar[Sequence[int] | None] = None

    def __post_init__(self, virtual_ids: Sequence[int] | None) -> None:
        for sid in self.selected_ids:
            if type(sid) is not int and _is_integer(sid):
                sid = int(sid)  # a numpy integer, compared exactly
            if type(sid) is not int or not 0 <= sid < 2**63:
                raise ParameterError(
                    f"selected ids must be integers in [0, 2**63), got {sid!r}")
        if virtual_ids is not None:
            lacking = [vid for vid in virtual_ids if vid not in self.virtual_spans]
            if lacking:
                raise ParameterError(f"virtual sensor {lacking[0]} has no virtual span")
            listed = set(virtual_ids)
            stray = [vid for vid in self.virtual_spans if vid not in listed]
            if stray:
                raise ParameterError(f"virtual span {stray[0]} has no virtual sensor")
        selected = set(self.selected_ids)
        if len(selected) != len(self.selected_ids):
            raise ParameterError("selected_ids must not contain duplicates")
        if not selected.issuperset(self.virtual_spans):
            raise ParameterError("virtual_ids must be a subset of selected_ids")
        for vid, (u, v) in self.virtual_spans.items():
            if not (math.isfinite(u) and math.isfinite(v) and u <= v):
                raise ParameterError(f"virtual span {vid} must be finite with u <= v, "
                                     f"got [{u}, {v}]")
        for i, step in enumerate(self.trace):
            if step.chosen_id not in selected:
                raise ParameterError(f"trace step {i} chose {step.chosen_id}, "
                                     "which is not selected")

    @property
    def count(self) -> int:
        return len(self.selected_ids)

    def selected_spans(
        self, field: SensorField
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The u and v of every selected sensor, in selection order, and a
        mask of those the field holds; the others take their spans from
        ``virtual_spans``."""
        rows = field._rows_of(self.selected_ids)
        real = rows >= 0
        us = np.zeros(rows.size)
        vs = np.zeros(rows.size)
        us[real] = field.us[rows[real]]
        vs[real] = field.vs[rows[real]]
        for i in np.flatnonzero(~real).tolist():
            span = self.virtual_spans.get(self.selected_ids[i])
            if span is None:
                raise ParameterError(
                    f"selected sensor {self.selected_ids[i]} has no interval in "
                    "the field or in the previous result's virtual ledger"
                )
            us[i], vs[i] = span
        return us, vs, real

    def to_dict(self) -> dict:
        return {
            "selected": list(self.selected_ids),
            "virtual": list(self.virtual_ids),
            "count": self.count,
            "fully_covered": self.fully_covered,
            "trace": [
                {
                    "current_target": s.current_target,
                    "candidate_ids": list(s.candidate_ids),
                    "chosen_id": s.chosen_id,
                    "reach": s.reach,
                }
                for s in self.trace
            ],
            "virtual_spans": {
                str(vid): list(span) for vid, span in self.virtual_spans.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SelectionResult":
        """The result ``to_dict`` wrote. ``selected`` must be present, as
        must each trace step's ``current_target``, ``chosen_id`` and
        ``reach``. ``selected``, ``virtual`` and ``trace`` must be lists,
        each trace step an object, and ``virtual_spans`` an object of lists
        of two numbers. Ids must be integers in [0, 2**63), ``count`` (if
        present) the number of selected ids, trace coordinates finite
        numbers and ``fully_covered`` a boolean; then the constructor
        checks the result, and ``virtual`` against its ledger. A fault
        raises TypeError or ValueError."""
        selected = _json_list(_json_key(data, "selected", "result"), "selected")
        selected = _json_ids(selected, "selected")
        count = data.get("count", len(selected))
        if type(count) is not int or count != len(selected):
            raise ValueError(
                f"count must be {len(selected)}, the number of selected ids, got {count!r}"
            )
        steps = _json_list(data.get("trace", []), "trace")
        trace = tuple(_json_step(s, i) for i, s in enumerate(steps))
        fully_covered = data.get("fully_covered", True)
        if type(fully_covered) is not bool:
            raise TypeError(f"fully_covered must be true or false, got {fully_covered!r}")
        ledger = data.get("virtual_spans", {})
        if not isinstance(ledger, dict):
            raise TypeError(f"virtual_spans must be an object, got {ledger!r}")
        spans = {}
        for key, span in ledger.items():
            if not (isinstance(span, list) and len(span) == 2
                    and all(type(x) in (int, float) for x in span)):
                raise TypeError(f"virtual span {key} must be a list of two numbers, "
                                f"got {span!r}")
            if key != str(vid := int(key)):  # " 5" and "05" would both be 5
                raise ValueError(f"virtual span key {key!r} must be an id in decimal")
            try:
                spans[vid] = (float(span[0]), float(span[1]))
            except OverflowError:  # an integer beyond the floats
                raise ValueError(f"virtual span {key} must be finite with u <= v, "
                                 f"got {span!r}") from None
        virtual = _json_ids(_json_list(data.get("virtual", []), "virtual"), "virtual")
        try:
            return cls(
                selected_ids=selected,
                virtual_ids=virtual,
                virtual_spans=spans,
                trace=trace,
                fully_covered=fully_covered,
            )
        except ParameterError as exc:
            # a fault of the file, not a bad setting: its reader names it
            raise ValueError(str(exc)) from None


# no field: the ledger's ids in selection order, set once the dataclass is made
SelectionResult.virtual_ids = property(  # type: ignore[assignment]
    lambda self: tuple(sid for sid in self.selected_ids if sid in self.virtual_spans))


def _json_list(value, name: str) -> list:
    """The value at ``name`` in a result file, which must be a list."""
    if not isinstance(value, list):
        raise TypeError(f"{name} must be a list, got {value!r}")
    return value


def _json_key(data: dict, key: str, where: str):
    """The value at a key that an object of a result file must hold;
    ``where`` names the object, as "result" or "trace step 3"."""
    if key not in data:
        raise ValueError(f"{where} lacks {key}")
    return data[key]


def _json_ids(values: list, what: str) -> tuple[int, ...]:
    """Ids read from a result file: JSON integers, never booleans, in the
    range sensor ids take."""
    ids = tuple(values)
    for i in ids:
        if type(i) is not int or not 0 <= i < 2**63:
            raise TypeError(f"{what} ids must be integers in [0, 2**63), got {i!r}")
    return ids


def _json_step(step, i: int) -> SelectionStep:
    """Trace step i read from a result file: an object of finite
    coordinates, candidate ids and the chosen id."""
    if not isinstance(step, dict):
        raise TypeError(f"trace step {i} must be an object, got {step!r}")
    current_target = _json_coordinate(step, i, "current_target")
    candidates = _json_list(step.get("candidate_ids", []), f"trace step {i} candidate_ids")
    return SelectionStep(
        current_target=current_target,
        candidate_ids=_json_ids(candidates, "candidate"),
        chosen_id=_json_ids([_json_key(step, "chosen_id", f"trace step {i}")], "chosen")[0],
        reach=_json_coordinate(step, i, "reach"),
    )


def _json_coordinate(step: dict, i: int, key: str):
    """A coordinate of trace step i read from a result file: an integer
    or a finite float, never a boolean."""
    value = _json_key(step, key, f"trace step {i}")
    finite = isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
    if isinstance(value, bool) or not finite:
        raise ValueError(f"trace step {i} {key} must be a finite number, got {value!r}")
    return value


@dataclass(frozen=True)
class Gap:
    """A maximal uncovered stretch left behind by failed sensors."""

    u: float
    v: float
    failed_ids: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if not self.u < self.v:
            raise ParameterError(f"gap needs u < v, got [{self.u}, {self.v}]")


def _depth(first: np.ndarray, last: np.ndarray, m: int) -> np.ndarray:
    """How many of the target ranges [first, last) cover each of m targets."""
    step = np.bincount(first, minlength=m + 1) - np.bincount(last, minlength=m + 1)
    return np.cumsum(step[:-1])


def augment_with_gap_sensors(
    field: SensorField, targets: TargetSet, k: int
) -> dict[int, tuple[float, float]]:
    """Virtual sensors with which every target can reach coverage
    multiplicity k, as {id: (u, v)}; ids count up from ``field.max_id + 1``,
    and a ParameterError says so when they would pass 2**63 - 1.

    For each maximal run of consecutive targets whose coverage count is
    below k, as many virtual sensors as the worst deficiency in the run
    are added, each spanning exactly from the run's first target to its
    last. Fields that already admit a full k-cover need none.
    """
    k = _count("k", k, 1)
    xs = _targets(targets, field.domain).xs
    first, last = _gap_spans(xs.size, k, *_target_spans(field.us, field.vs, xs))
    base = _free_ids(field.max_id + 1, first.size)
    spans = zip(xs[first].tolist(), xs[last - 1].tolist())
    return dict(zip(range(base, base + first.size), spans))


def _gap_spans(
    m: int, k: int, first: np.ndarray, last: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The target spans [first, last) of the gap sensors of
    ``augment_with_gap_sensors``, in id order, given the field's
    ``_target_spans`` over m targets: one copy of each run of short
    targets per count the run lacks."""
    cov = _depth(first, last, m)
    short = np.concatenate(([False], cov < k, [False]))
    # the runs of short targets start and end (exclusive) where short flips
    edges = np.flatnonzero(short[1:] != short[:-1])
    # a reduction from the last start runs on past its run, but only over
    # targets that are not short, so the run's minimum stands
    lacking = k - np.minimum.reduceat(cov, edges[:-1])[::2]
    return np.repeat(edges[::2], lacking), np.repeat(edges[1::2], lacking)


def _free_ids(first: int, count: int) -> int:
    """``first``, the id after every id in use, once ``count`` virtual
    sensors can take the ids from there: sensor ids stay below 2**63."""
    if first + count > 2**63:
        raise ParameterError(
            f"no id is left for a virtual sensor: the largest id in use is {first - 1}"
        )
    return first


class _Frontier:
    """The frontier rule over one interval table sorted by u.

    A table position is a candidate at frontier f when u <= f < v. The
    winner reaches furthest, then spans longest, then has the lowest
    position. With u non-decreasing, the first maximum of v among the
    positions with u <= f is exactly that winner: among equal reaches the
    first has the smallest u, so the longest span, then the lowest
    position. Each step is therefore one bisection plus a lookup in
    prefix tables. Built when the table is made:

    * ``best[i]`` and ``arg[i]``: the furthest reach over positions 0..i
      and the first position holding it. Both end in one sentinel entry
      (no reach, no position), which is what index i - 1 = -1 reads when
      no interval starts at or before the frontier.

    Built on first use, since most callers need only some of them:

    * ``us``: u as a list, which the scalar steps bisect;
    * ``nxt[i]``: the first position at or after i with positive extent,
      where coverage resumes after a virtual bridge;
    * ``second[i]``: the furthest reach over positions 0..i other than
      ``arg[i]``, for walks with one position removed (sentinel as above).

    Nothing else is kept: each answer depends on the frontier alone. The
    candidates at f lie in one window, from the first position whose
    ``best`` exceeds f to the last with u <= f. One walk's windows are
    disjoint, since its next frontier is the furthest reach over every
    position with u <= f, or a bridge end past them.

    The same table serves coordinates (continuous cover and mending) and
    target indices (the discrete rounds), where an interval's u and v are
    the first needed target it covers and one past the last. There every
    frontier and every u is at least 0, so a position with v = 0 never
    wins, becomes a candidate or resumes coverage after a bridge;
    ``k_oga`` masks the rows it has used that way.
    """

    def __init__(self, u: np.ndarray, v: np.ndarray, ids: np.ndarray) -> None:
        self.u, self.v, self.ids = u, v, ids
        self.m = len(u)
        self.best, self.arg = best, arg = _first_max(np.concatenate((v, [-np.inf])))
        best[-1], arg[-1] = -np.inf, -1  # the sentinel: no reach, no position

    @classmethod
    def over(cls, field: SensorField, rows=slice(None)) -> "_Frontier":
        """The table of the field's intervals at the given rows."""
        return cls(field.us[rows], field.vs[rows], field.ids[rows])

    @cached_property
    def us(self) -> list:
        # bisection of a list yields plain Python numbers, and is faster
        # per call than a scalar ``searchsorted``
        return self.u.tolist()

    @cached_property
    def nxt(self) -> np.ndarray:
        starts = np.where(self.v > self.u, np.arange(self.m), self.m)
        return np.concatenate((np.minimum.accumulate(starts[::-1])[::-1], [self.m]))

    @cached_property
    def second(self) -> np.ndarray:
        # a new maximum hands the old one down as runner-up; every earlier
        # reach is at most that, so a plain running maximum suffices
        before = self.best[np.arange(-1, self.m - 1)]
        runner_up = np.where(self.v > before, before, self.v)
        return np.concatenate((np.maximum.accumulate(runner_up), [-np.inf]))

    def walk_all(
        self, f: np.ndarray, stop, end, skip: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``walk`` from every frontier in f at once, each until it reaches
        its stop: where each walk left off, its step count, and whether it
        never bridged. ``stop`` and ``end`` (where a bridge ends at the
        latest) are one value or one per frontier. With ``skip``, f[i]
        walks as if table position skip[i] were absent: the runner-up wins
        where the skipped position would have, and a bridge passes over it
        to the next position with positive extent.
        """
        f = np.array(f, dtype=float)
        stop, end = np.full(f.shape, stop), np.full(f.shape, end)
        steps = np.zeros(f.size, dtype=np.int64)
        clean = np.ones(f.size, dtype=bool)
        bridge_ends = np.concatenate((self.u, [np.inf]))
        walking = np.flatnonzero(f < stop)
        while walking.size:
            at = f[walking]
            pos = np.searchsorted(self.u, at, "right")
            reach = self.best[pos - 1]
            p = self.nxt[pos]
            if skip is not None:
                gone = skip[walking]
                reach = np.where(self.arg[pos - 1] == gone, self.second[pos - 1], reach)
                hit = p == gone
                p[hit] = self.nxt[p[hit] + 1]
            real = reach > at
            reach = np.where(real, reach, np.minimum(bridge_ends[p], end[walking]))
            f[walking] = reach
            steps[walking] += 1
            clean[walking] &= real
            walking = walking[reach < stop[walking]]
        return f, steps, clean

    def covers(self, a, b) -> bool:
        """Whether ``walk(a, b)`` never bridges.

        Between consecutive starts, u[i - 1] <= f < u[i], the furthest
        reach is best[i - 1]; the walk bridges exactly when that reach is
        short of min(u[i], b) on a stretch that meets [a, b).
        """
        ends = np.minimum(np.concatenate((self.u, [b])), b)
        reach = self.best[np.arange(-1, self.m)]
        return not ((reach < ends) & (ends > a)).any()

    def winners(self, f: np.ndarray) -> np.ndarray:
        """The winning position at every frontier in f that some interval
        covers; other entries are arbitrary."""
        return self.arg[np.searchsorted(self.u, f, "right") - 1]

    def walk(self, f, end) -> tuple[list[int], list]:
        """The winner and the reach of each step from f until end is
        covered; step i is taken at f, or at the reach of step i - 1.

        Winner -1 is a virtual bridge, which spans from the frontier to
        where the next positive-extent interval starts, or to ``end`` when
        that is sooner or there is none.
        """
        us, best, arg, v = self.us, self.best, self.arg, self.v
        winners: list[int] = []
        reaches: list = []
        while f < end:
            pos = bisect_right(us, f)
            if best.item(pos - 1) > f:
                winner = arg.item(pos - 1)
                f = v.item(winner)
            else:
                p = self.nxt.item(pos)
                winner, f = -1, min(us[p], end) if p < self.m else end
            winners.append(winner)
            reaches.append(f)
        return winners, reaches

    def candidates(self, f) -> tuple[int, ...]:
        """Sorted ids of the candidates at f (u <= f < v), for traces. They
        lie in one window of positions; see the class docstring."""
        start = np.searchsorted(self.best[:-1], f, "right")
        window = slice(start, bisect_right(self.us, f))
        live = self.v[window] > f
        return tuple(sorted(self.ids[window][live].tolist()))


def _cover(
    frontier: _Frontier,
    stretches: Iterable[tuple[float, float]],
    selected: list[int],
    virtual_spans: dict[int, tuple[float, float]],
    next_vid: int,
    record_trace: bool,
) -> SelectionResult:
    """Walk the frontier across each stretch, adding winners to ``selected``.

    Winners already selected are not added twice. Where nothing covers the
    frontier, a virtual sensor with the next free id (``_free_ids``)
    bridges the hole.
    ``comparisons`` counts one per table entry plus one per step.
    """
    chosen = set(selected)
    steps: list[SelectionStep] = []
    comparisons = frontier.m
    for start, end in stretches:
        winners, reaches = frontier.walk(start, end)
        comparisons += len(winners)
        for f, winner, reach in zip([start, *reaches], winners, reaches):
            if winner < 0:
                sid = _free_ids(next_vid, 1)
                next_vid += 1
                virtual_spans[sid] = (f, reach)
            else:
                sid = frontier.ids.item(winner)
            if record_trace:
                steps.append(SelectionStep(f, frontier.candidates(f), sid, reach))
            if sid not in chosen:
                selected.append(sid)
                chosen.add(sid)
    return SelectionResult(
        selected_ids=tuple(selected),
        virtual_spans=virtual_spans,
        trace=tuple(steps),
        fully_covered=not virtual_spans,
        comparisons=comparisons,
    )


def k_oga(
    field: SensorField,
    targets: TargetSet,
    k: int,
    *,
    record_trace: bool = True,
) -> SelectionResult:
    """Minimum-cardinality k-coverage of discrete targets.

    Runs k rounds of the frontier greedy. Round s covers the targets whose
    coverage multiplicity from all previous rounds is still below s, using
    only sensors not yet selected; overlap from earlier rounds counts, so
    later rounds can skip incidentally covered targets. At each step the
    candidates are the unused sensors covering the leftmost needed target;
    the winner covers the most needed targets to the right, then the most
    needed targets in total, then has the lowest field index. Targets
    must lie in the field's domain; where the field cannot k-cover them,
    virtual gap sensors from ``augment_with_gap_sensors`` take part as
    rows sorted among the field's.

    A gap row's target span is the run of targets covered fewer than k
    times that it was made for, taken as found. That is exact: a row
    covers a target only through the target's coordinate, so equal
    targets have equal coverage, and no run begins or ends inside a group
    of equal targets. Only the merge reads the gap rows' coordinates, and
    it stays on (u, v, id), not on target spans: a gap row can share its
    target span with a field row that starts on the same target, and
    their (u, v, id) order decides which wins.

    Every round walks one ``_Frontier`` over the whole table in
    need-index space, where a row's u and v are the first needed target
    it covers and one past the last, counted among the needed targets
    only. Round 1 needs every target, so it takes the target spans as
    they are. A row used in an earlier round stays in place with v = 0,
    which no frontier reaches past, so it never wins or becomes a
    candidate, and a winner's table position is its row. ``comparisons``
    counts the unused rows at the start of each round that has needed
    targets, plus one per step.
    """
    k = _count("k", k, 1)
    xs = _targets(targets, field.domain).xs
    ids = field.ids
    first, last = _target_spans(field.us, field.vs, xs)
    gap_first, gap_last = _gap_spans(xs.size, k, first, last)
    gap_us, gap_vs = xs[gap_first], xs[gap_last - 1]
    base = _free_ids(field.max_id + 1, gap_first.size)
    if gap_first.size:
        # the gap rows join the table in (u, v, id) order, as field rows
        # would; inside the domain, no span needs clipping
        ids = np.concatenate((ids, base + np.arange(gap_first.size)))
        order = _canonical_order(
            np.concatenate((field.us, gap_us)), np.concatenate((field.vs, gap_vs)), ids
        )
        ids = ids[order]
        first = np.concatenate((first, gap_first))[order]
        last = np.concatenate((last, gap_last))[order]
    cov = 0  # coverage so far: round 1 needs every target, and sets it
    used: list[int] = []  # table positions, in selection order
    steps: list[SelectionStep] = []
    comparisons = 0
    for s in range(1, k + 1):
        if s == 1:
            # every target is needed, so need indices are target indices
            m, u, v = xs.size, first, last
        else:
            # in need-index space the discrete key (right, total, -index)
            # becomes the frontier rule's (reach, span, -position); the
            # needed targets before target index t number before[t]
            before = np.zeros(xs.size + 1, dtype=np.int64)
            (cov < s).cumsum(out=before[1:])
            m = before.item(-1)
            if not m:
                continue
            u, v = before[first], before[last]
            v[used] = 0  # a used row reaches no needed target
        frontier = _Frontier(u, v, ids)
        comparisons += len(ids) - len(used)
        picked, reaches = frontier.walk(0, m)
        comparisons += len(picked)
        if record_trace or -1 in picked:
            # only the trace and the error read where the needed targets are
            need = range(xs.size) if s == 1 else np.flatnonzero(cov < s)
        if -1 in picked:
            f = [0, *reaches][picked.index(-1)]
            raise RuntimeError(
                f"no sensor covers target at x={xs[need[f]]}; "
                "field was not augmented"
            )
        if record_trace:
            for f, winner, reach in zip([0, *reaches], picked, reaches):
                at, to = int(need[f]), int(need[reach - 1])
                steps.append(SelectionStep(at, frontier.candidates(f), ids.item(winner), to))
        used += picked
        if s < k:  # no later round reads the coverage
            cov += _depth(first[picked], last[picked], xs.size)
    selected = ids[used].tolist()
    virtual_spans = {
        sid: (gap_us.item(sid - base), gap_vs.item(sid - base))
        for sid in selected
        if sid >= base
    }
    return SelectionResult(
        selected_ids=tuple(selected),
        virtual_spans=virtual_spans,
        trace=tuple(steps),
        fully_covered=not virtual_spans,
        comparisons=comparisons,
    )


def oga(
    field: SensorField,
    targets: TargetSet,
    *,
    record_trace: bool = True,
) -> SelectionResult:
    """Minimum-cardinality coverage of discrete targets (k_oga with k=1)."""
    return k_oga(field, targets, 1, record_trace=record_trace)


def oga_continuous(
    field: SensorField,
    domain: Domain,
    *,
    record_trace: bool = True,
) -> SelectionResult:
    """Minimum-cardinality coverage of the whole segment [a, b].

    Maintains the covered frontier f (initially a). Candidates are the
    intervals with u <= f < v; the winner has the largest v, then the
    largest interval, then the lowest field index. When no candidate
    exists, a virtual sensor is inserted spanning from f to the next point
    where some real interval resumes coverage with positive extent (or to
    b). Stops once f reaches b.
    """
    a, b = _segment(domain)
    frontier = _Frontier.over(field)
    return _cover(frontier, [(a, b)], [], {}, field.max_id + 1, record_trace)


def find_gaps(
    previous: SelectionResult,
    failed_ids: Collection[int],
    field: SensorField,
    domain: Domain,
) -> list[Gap]:
    """Maximal uncovered stretches after the given selected sensors fail.

    Residual coverage is the union over the surviving previously selected
    sensors (virtual ones keep covering the holes they stand for). Each
    gap records which failed sensors overlap it. Gaps come back sorted
    left to right; adjacent failures merge into one gap.
    """
    _segment(domain)
    failed = _failed(failed_ids, previous.selected_ids)
    ids = np.array(previous.selected_ids, dtype=np.int64)
    us, vs, _ = previous.selected_spans(field)
    down = np.isin(ids, list(failed))
    lo, hi = complement_segments(us[~down], vs[~down], domain)
    fu, fv, fids = us[down], vs[down], ids[down]
    return [
        Gap(u, v, frozenset(fids[(fu < v) & (fv > u)].tolist()))
        for u, v in zip(lo.tolist(), hi.tolist())
    ]


def logm(
    previous: SelectionResult,
    gaps: Sequence[Gap],
    field: SensorField,
    domain: Domain,
    failed_ids: Collection[int],
    *,
    record_trace: bool = True,
) -> SelectionResult:
    """Local gap mending: keep the surviving selection, patch each gap.

    Adopts every surviving previously selected sensor, then walks the gaps
    left to right and runs the continuous frontier rule over the sensors
    not selected previously, from the gap's left edge until its right edge
    is covered. Virtual sensors are inserted only where no usable sensor
    exists. ``failed_ids`` names every failed sensor, also one that
    opened no gap at all. Every gap must lie in the domain.
    """
    a, b = _segment(domain)
    stray = [g for g in gaps if not (a <= g.u and g.v <= b)]
    if stray:
        raise ParameterError(
            f"gaps must lie in the domain [{a}, {b}], got [{stray[0].u}, {stray[0].v}]"
        )
    failed = _failed(failed_ids, previous.selected_ids)
    previously = set(previous.selected_ids)
    surviving = [sid for sid in previous.selected_ids if sid not in failed]
    virtual_spans = {
        sid: previous.virtual_spans[sid]
        for sid in surviving
        if sid in previous.virtual_spans
    }
    return _cover(
        _Frontier.over(field, ~np.isin(field.ids, list(previously))),
        [(g.u, g.v) for g in sorted(gaps, key=lambda g: g.u)],
        surviving,
        virtual_spans,
        max(field.max_id, max(previously, default=-1)) + 1,
        record_trace,
    )


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
# walks advance every pick at once (``_Frontier.walk_all``) and end within
# a few rounds. ``single_failure_counts`` is cross-checked against the
# plain ``find_gaps`` + ``logm`` + fresh ``oga_continuous`` route and
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
    are one ``walk_all`` each.
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
    at = np.concatenate(([a], v[picks[:-1]]))

    # from scratch without pick t: walk with it removed until the
    # frontier passes its right end, then follow the table
    f, skipped, fresh_clean = whole.walk_all(at, np.minimum(v[picks], b), b, picks)
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
    end = np.minimum(np.concatenate((resume[1:], [b])), b)
    _, mend, mend_clean = pool.walk_all(at, end, end)

    return list(
        zip(
            field.ids[picks].tolist(),
            (n_sel - 1 + mend).tolist(),
            fresh.tolist(),
            (fresh_clean & mend_clean).tolist(),
        )
    )
