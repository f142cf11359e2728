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

Stretches that no sensor covers are bridged by virtual gap sensors so
the main loops never stall; ``k_oga`` adds them up front
(``augment_with_gap_sensors``). A field holds real sensors only: the
virtual ones exist only in a result, as ids in ``virtual_ids`` with
their spans in ``virtual_spans``, and a selection counts as fully
covered only when no virtual sensor was needed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .model import (
    Domain,
    ParameterError,
    SensorField,
    TargetSet,
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
    """Ordered selection with its trace and virtual-gap-sensor ledger."""

    selected_ids: tuple[int, ...]
    virtual_ids: tuple[int, ...] = ()
    virtual_spans: Mapping[int, tuple[float, float]] = dc_field(default_factory=dict)
    trace: tuple[SelectionStep, ...] = ()
    fully_covered: bool = True
    comparisons: int = 0

    def __post_init__(self) -> None:
        if len(set(self.selected_ids)) != len(self.selected_ids):
            raise ParameterError("selected_ids must not contain duplicates")
        if not set(self.virtual_ids) <= set(self.selected_ids):
            raise ParameterError("virtual_ids must be a subset of selected_ids")

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
        """The result ``to_dict`` wrote. Ids must be integers in
        [0, 2**63), every virtual id needs its span, and spans must be
        finite with u <= v, and the checks of the constructor hold; a
        fault raises TypeError or ValueError."""
        trace = tuple(
            SelectionStep(
                current_target=s["current_target"],
                candidate_ids=_json_ids(s.get("candidate_ids", ()), "candidate"),
                chosen_id=_json_ids([s["chosen_id"]], "chosen")[0],
                reach=s["reach"],
            )
            for s in data.get("trace", ())
        )
        spans = {}
        for key, span in data.get("virtual_spans", {}).items():
            u, v = map(float, span)
            if not (math.isfinite(u) and math.isfinite(v) and u <= v):
                raise ValueError(f"virtual span {key} must be finite with u <= v, "
                                 f"got [{u}, {v}]")
            spans[int(key)] = (u, v)
        virtual = _json_ids(data.get("virtual", ()), "virtual")
        lacking = [vid for vid in virtual if vid not in spans]
        if lacking:
            raise ValueError(f"virtual sensor {lacking[0]} has no virtual span")
        try:
            return cls(
                selected_ids=_json_ids(data["selected"], "selected"),
                virtual_ids=virtual,
                virtual_spans=spans,
                trace=trace,
                fully_covered=bool(data.get("fully_covered", True)),
            )
        except ParameterError as exc:
            # a fault of the file, not a bad setting: its reader names it
            raise ValueError(str(exc)) from None


def _json_ids(values, what: str) -> tuple[int, ...]:
    """Ids read from a result file: JSON integers, never booleans, in the
    range sensor ids take."""
    ids = tuple(values)
    for i in ids:
        if type(i) is not int or not 0 <= i < 2**63:
            raise TypeError(f"{what} ids must be integers in [0, 2**63), got {i!r}")
    return ids


@dataclass(frozen=True)
class Gap:
    """A maximal uncovered stretch left behind by failed sensors."""

    u: float
    v: float
    failed_ids: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if not self.u < self.v:
            raise ParameterError(f"gap needs u < v, got [{self.u}, {self.v}]")


def _target_spans(
    us: np.ndarray, vs: np.ndarray, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per interval [us[i], vs[i]], the first target it covers and one past
    the last, as indices into the sorted targets ``xs``."""
    return np.searchsorted(xs, us, "left"), np.searchsorted(xs, vs, "right")


def _depth(first: np.ndarray, last: np.ndarray, m: int) -> np.ndarray:
    """How many of the target ranges [first, last) cover each of m targets."""
    step = np.bincount(first, minlength=m + 1) - np.bincount(last, minlength=m + 1)
    return np.cumsum(step[:-1])


def augment_with_gap_sensors(
    field: SensorField, targets: TargetSet, k: int
) -> dict[int, tuple[float, float]]:
    """Virtual sensors with which every target can reach coverage
    multiplicity k, as {id: (u, v)}; ids count up from ``field.max_id + 1``.

    For each maximal run of consecutive targets whose coverage count is
    below k, as many virtual sensors as the worst deficiency in the run
    are added, each spanning exactly from the run's first target to its
    last. Fields that already admit a full k-cover need none.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if not len(targets):
        return {}
    xs = targets.xs
    return _gap_spans(field, xs, k, *_target_spans(field.us, field.vs, xs))


def _gap_spans(
    field: SensorField, xs: np.ndarray, k: int, first: np.ndarray, last: np.ndarray
) -> dict[int, tuple[float, float]]:
    """``augment_with_gap_sensors`` on the sorted targets xs, given the
    field's ``_target_spans``."""
    cov = _depth(first, last, xs.size)
    short = np.flatnonzero(cov < k)
    spans: list[tuple[float, float]] = []
    for run in np.split(short, np.flatnonzero(np.diff(short) > 1) + 1):
        if run.size:
            worst = int(cov[run].min())
            spans.extend([(xs.item(run[0]), xs.item(run[-1]))] * (k - worst))
    return dict(enumerate(spans, field.max_id + 1))


class _Frontier:
    """The frontier rule over one interval table sorted by u.

    A table position is a candidate at frontier f when u <= f < v. The
    winner reaches furthest, then spans longest, then has the lowest
    position. With u non-decreasing, the first maximum of v among the
    positions with u <= f is exactly that winner: among equal reaches the
    first has the smallest u, so the longest span, then the lowest
    position. Each step is therefore one bisection plus a lookup in
    prefix tables:

    * ``best[i]`` and ``arg[i]``: the furthest reach over positions 0..i
      and the first position holding it;
    * ``second[i]``: the furthest reach over positions 0..i other than
      ``arg[i]``, for walks with one position removed, built on their
      first step;
    * ``nxt[i]``: the first position at or after i with positive extent,
      where coverage resumes after a virtual bridge.

    ``best``, ``arg`` and ``second`` end in one sentinel entry (no reach,
    no position), which is what index i - 1 = -1 reads when no interval
    starts at or before the frontier.

    The same table serves coordinates (continuous cover and mending) and
    target indices (the discrete rounds), where an interval's u and v are
    the first needed target it covers and one past the last.
    """

    def __init__(self, u: np.ndarray, v: np.ndarray, ids: np.ndarray) -> None:
        self.u, self.v, self._ids = u, v, ids
        self.m = m = len(u)
        self.best = np.concatenate((np.maximum.accumulate(v), [-np.inf]))
        new = v > self.best[np.arange(-1, m - 1)]
        arg = np.maximum.accumulate(np.where(new, np.arange(m), 0))
        self.arg = np.concatenate((arg, [-1]))
        starts = np.where(v > u, np.arange(m), m)
        self.nxt = np.append(np.minimum.accumulate(starts[::-1])[::-1], m)
        # the table as lists, for the scalar steps; ``walk`` builds them
        self.us: list = []
        self.vs: list = []
        self.ids: list = []
        # candidate listing for traces: the positions with u <= f < v for
        # the last f asked about, and how far the table has been entered
        self._listed_at = -np.inf
        self._entered = 0
        self._active: list[int] = []

    @classmethod
    def over(cls, field: SensorField, rows=slice(None)) -> "_Frontier":
        """The table of the field's intervals at the given rows."""
        return cls(field.us[rows], field.vs[rows], field.ids[rows])

    @cached_property
    def second(self) -> np.ndarray:
        # a new maximum hands the old one down as runner-up; every earlier
        # reach is at most that, so a plain running maximum suffices
        before = self.best[np.arange(-1, self.m - 1)]
        runner_up = np.where(self.v > before, before, self.v)
        return np.concatenate((np.maximum.accumulate(runner_up), [-np.inf]))

    def step(self, f, end) -> tuple[int, float]:
        """The winner at f and its reach; winner -1 is a virtual bridge.

        A bridge spans from f to where the next positive-extent interval
        starts, or to ``end`` when that is sooner or there is none.
        """
        pos = bisect_right(self.us, f)
        if self.best.item(pos - 1) > f:
            winner = self.arg.item(pos - 1)
            return winner, self.vs[winner]
        p = self.nxt.item(pos)
        return -1, min(self.us[p], end) if p < self.m else end

    def step_all(
        self, f: np.ndarray, end, skip: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``step`` from every frontier in f at once: the reaches, and
        whether a real interval made each.

        ``end`` is one stretch end or one per frontier. With ``skip``,
        frontier f[i] steps as if table position skip[i] were absent: the
        runner-up wins where the skipped position would have, and a bridge
        passes over it to the next position with positive extent.
        """
        pos = np.searchsorted(self.u, f, "right")
        reach = self.best[pos - 1]
        p = self.nxt[pos]
        if skip is not None:
            reach = np.where(self.arg[pos - 1] == skip, self.second[pos - 1], reach)
            hit = p == skip
            p[hit] = self.nxt[p[hit] + 1]
        real = reach > f
        bridge = np.minimum(np.append(self.u, np.inf)[p], end)
        return np.where(real, reach, bridge), real

    def covers(self, a, b) -> bool:
        """Whether ``walk(a, b)`` never bridges.

        Between consecutive starts, u[i - 1] <= f < u[i], the furthest
        reach is best[i - 1]; the walk bridges exactly when that reach is
        short of min(u[i], b) on a stretch that meets [a, b).
        """
        ends = np.minimum(np.append(self.u, b), b)
        reach = self.best[np.arange(-1, self.m)]
        return not ((reach < ends) & (ends > a)).any()

    def winners(self, f: np.ndarray) -> np.ndarray:
        """The winning position at every frontier in f that some interval
        covers; other entries are arbitrary."""
        return self.arg[np.searchsorted(self.u, f, "right") - 1]

    def walk(self, f, end) -> Iterator[tuple[float, int, float]]:
        """(frontier, winner, reach) for each step from f until end is covered."""
        if len(self.us) < self.m:
            # built on first scalar use, so that bisection and lookups yield
            # plain Python numbers; the array forms never need them
            self.us, self.vs, self.ids = (
                self.u.tolist(), self.v.tolist(), self._ids.tolist()
            )
        while f < end:
            winner, reach = self.step(f, end)
            yield f, winner, reach
            f = reach

    def candidates(self, f) -> tuple[int, ...]:
        """Sorted ids of the candidates at f, for traces.

        The list is kept incrementally while f grows; a frontier that moves
        back, as at the start of the next gap in a mend, rebuilds it once.
        """
        if f < self._listed_at:
            self._entered = 0
            self._active = []
        self._listed_at = f
        us, vs = self.us, self.vs
        active = [i for i in self._active if vs[i] > f]
        i = self._entered
        while i < self.m and us[i] <= f:
            if vs[i] > f:
                active.append(i)
            i += 1
        self._entered = i
        self._active = active
        return tuple(sorted(self.ids[i] for i in active))


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
    frontier, a virtual sensor with the next free id bridges the hole.
    ``comparisons`` counts one per table entry plus one per step.
    """
    chosen = set(selected)
    steps: list[SelectionStep] = []
    comparisons = frontier.m
    for start, end in stretches:
        for f, winner, reach in frontier.walk(start, end):
            comparisons += 1
            if winner < 0:
                sid = next_vid
                next_vid += 1
                virtual_spans[sid] = (f, reach)
            else:
                sid = frontier.ids[winner]
            if record_trace:
                steps.append(SelectionStep(f, frontier.candidates(f), sid, reach))
            if sid not in chosen:
                selected.append(sid)
                chosen.add(sid)
    return SelectionResult(
        selected_ids=tuple(selected),
        virtual_ids=tuple(virtual_spans),
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
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if not isinstance(targets, TargetSet):
        targets = TargetSet(targets)
    if len(targets) == 0:
        raise ParameterError("targets must be non-empty")
    xs = targets.xs
    a, b = field.domain
    if xs[0] < a or xs[-1] > b:
        outside = xs.item(0) if xs[0] < a else xs.item(-1)
        raise ParameterError(
            f"targets must lie in the domain [{a}, {b}], got {outside}"
        )
    ids = field.ids
    first, last = _target_spans(field.us, field.vs, xs)
    virtual_all = _gap_spans(field, xs, k, first, last)
    if virtual_all:
        # the gap sensors join the table in (u, v, id) order, as field rows
        # would; inside the domain, no span needs clipping
        us, vs = np.array(list(virtual_all.values())).T
        us = np.concatenate((field.us, us))
        vs = np.concatenate((field.vs, vs))
        ids = np.concatenate((ids, list(virtual_all)))
        order = np.lexsort((ids, vs, us))
        ids = ids[order]
        first, last = _target_spans(us[order], vs[order], xs)
    cov = np.zeros(xs.size, dtype=np.int64)
    unused = np.ones(len(ids), dtype=bool)
    selected: list[int] = []
    steps: list[SelectionStep] = []
    comparisons = 0
    for s in range(1, k + 1):
        short = cov < s
        need = np.flatnonzero(short)
        if not need.size:
            continue
        # in need-index space the discrete key (right, total, -index)
        # becomes the frontier rule's (reach, span, -position); the needed
        # targets before target index t number before[t]
        before = np.concatenate(([0], np.cumsum(short)))
        rows = np.flatnonzero(unused)
        frontier = _Frontier(before[first[rows]], before[last[rows]], ids[rows])
        comparisons += frontier.m
        picked = []
        for f, winner, reach in frontier.walk(0, len(need)):
            if winner < 0:
                raise RuntimeError(
                    f"no sensor covers target at x={xs[need[f]]}; "
                    "field was not augmented"
                )
            comparisons += 1
            picked.append(winner)
            if record_trace:
                steps.append(
                    SelectionStep(
                        current_target=need.item(f),
                        candidate_ids=frontier.candidates(f),
                        chosen_id=frontier.ids[winner],
                        reach=need.item(reach - 1),
                    )
                )
        chosen = rows[picked]
        unused[chosen] = False
        selected.extend(ids[chosen].tolist())
        if s < k:  # no later round reads the coverage
            cov += _depth(first[chosen], last[chosen], xs.size)
    virtual_sel = tuple(sid for sid in selected if sid in virtual_all)
    return SelectionResult(
        selected_ids=tuple(selected),
        virtual_ids=virtual_sel,
        virtual_spans={vid: virtual_all[vid] for vid in virtual_sel},
        trace=tuple(steps),
        fully_covered=not virtual_sel,
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
    a, b = domain
    if not a < b:
        raise ParameterError(f"domain needs a < b, got [{a}, {b}]")
    return _cover(
        _Frontier.over(field),
        [(a, b)],
        [],
        {},
        field.max_id + 1,
        record_trace,
    )


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
    failed = set(failed_ids)
    selected = set(previous.selected_ids)
    if not failed <= selected:
        raise ParameterError(
            f"failed ids {sorted(failed - selected)} were never selected"
        )
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
    failed_ids: Collection[int] | None = None,
    *,
    record_trace: bool = True,
) -> SelectionResult:
    """Local gap mending: keep the surviving selection, patch each gap.

    Adopts every surviving previously selected sensor, then walks the gaps
    left to right and runs the continuous frontier rule over the sensors
    not selected previously, from the gap's left edge until its right edge
    is covered. Virtual sensors are inserted only where no usable sensor
    exists. ``failed_ids`` defaults to the union of the gaps' failed sets;
    pass it explicitly when a failed sensor opened no gap at all.
    """
    a, b = domain
    if not a < b:
        raise ParameterError(f"domain needs a < b, got [{a}, {b}]")
    if failed_ids is None:
        failed = set().union(*(g.failed_ids for g in gaps)) if gaps else set()
    else:
        failed = set(failed_ids)
    previously = set(previous.selected_ids)
    if not failed <= previously:
        raise ParameterError(
            f"failed ids {sorted(failed - previously)} were never selected"
        )
    surviving = [sid for sid in previous.selected_ids if sid not in failed]
    virtual_spans = {
        sid: previous.virtual_spans[sid]
        for sid in surviving
        if sid in previous.virtual_ids
    }
    return _cover(
        _Frontier.over(field, ~np.isin(field.ids, list(previously))),
        [(g.u, g.v) for g in sorted(gaps, key=lambda g: g.u)],
        surviving,
        virtual_spans,
        max(field.max_id, max(previously, default=-1)) + 1,
        record_trace,
    )
