"""Planar sensors and their 1D projections onto a coverage segment.

Every selection algorithm in this package works on closed intervals
``[u, v]`` obtained by projecting sensor footprints orthogonally onto the
x axis. This module owns that projection, clipping to the segment of
interest, the canonical deterministic interval ordering, conversion of a
continuous segment into a finite set of representative target points, and
the union of intervals with the coverage it measures.

An interval is a row of arrays, never an object. A ``SensorField`` holds
the sensor poses as parallel columns (``Poses``) and the clipped
projections as ``us``, ``vs`` and ``ids`` in canonical order; one
vectorized kernel projects, checks and clips every sensor at once.
A field holds real sensors only: the virtual gap sensors that a
selection adds are spans in its result, never rows of a field.
``Sensor`` is a plain slotted record that checks nothing. ``Poses.of`` turns
sensors into columns and refuses only what a column cannot hold; every
range rule, and the rule that ids are unique, is in ``_pose_rules``,
which runs once for every field made from poses that are not known to
meet it: in ``SensorField.from_poses``, or in the file rules of
``read_field``. ``generate`` draws poses that meet it by construction
save for y, which it checks alone. The id rules (``_id_rules``) also
gate, through ``_ids``, a field made from intervals and the ids given
to ``span_of`` and ``without``.
``Sensor`` objects are built only when ``SensorField.sensors`` is read.
``merge_segments``, ``complement_segments`` and ``coverage_fraction``
take and return columns of segment ends. A ``TargetSet`` holds its points as one
read-only, sorted float64 array ``xs``; target sets, like fields,
compare by identity.

Each input rule has one gate: ``_segment`` for a covered segment,
``_count`` for whole numbers, ``_ids`` for sensor ids, ``_targets`` for
target sets inside a field's domain and ``_failed`` for failed sensor ids.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

Domain = tuple[float, float]


class ParameterError(ValueError):
    """An operation was called with arguments that violate its contract."""


class SensorKind(str, Enum):
    OMNI = "omni"
    DIRECTIONAL = "directional"

    @classmethod
    def _missing_(cls, value):
        """Coercing anything but a kind or its value is a parameter error."""
        raise ParameterError(f"unknown sensor kind {value!r}")


@dataclass(frozen=True, slots=True)
class Sensor:
    """A deployed sensor: ``position`` and ``radius``, plus ``fov`` and
    ``direction`` (degrees) when directional.

    The sensing footprint of a directional sensor is the circular sector
    with apex at ``position``, radius ``radius``, spanning ``fov/2``
    either side of ``direction`` (measured counterclockwise from the +x
    axis).

    A plain slotted record that checks nothing: a field built from a bad
    sensor, or a file written from one, refuses it. ``kind`` may be its
    value. It has no ``__dict__`` and takes no new attributes, which keeps
    the records of a large field small.
    """

    id: int
    kind: SensorKind = SensorKind.OMNI
    position: tuple[float, float] | None = None
    radius: float | None = None
    fov: float | None = None
    direction: float | None = None

    @classmethod
    def omni(cls, sensor_id: int, x: float, y: float, radius: float) -> "Sensor":
        return cls(id=sensor_id, kind=SensorKind.OMNI, position=(x, y), radius=radius)

    @classmethod
    def directional(
        cls,
        sensor_id: int,
        x: float,
        y: float,
        radius: float,
        fov: float,
        direction: float,
    ) -> "Sensor":
        return cls(
            id=sensor_id,
            kind=SensorKind.DIRECTIONAL,
            position=(x, y),
            radius=radius,
            fov=fov,
            direction=direction,
        )


class Poses(NamedTuple):
    """Real sensor poses as parallel arrays, in the order they were given.

    ``fov`` and ``direction`` are NaN where ``directional`` is False.
    """

    ids: np.ndarray
    x: np.ndarray
    y: np.ndarray
    radius: np.ndarray
    fov: np.ndarray
    direction: np.ndarray
    directional: np.ndarray

    @classmethod
    def of(cls, sensors: Iterable[Sensor]) -> "Poses":
        """The poses of the given sensors, each checked by ``_check_record``."""
        sensors = list(sensors)
        for sensor in sensors:
            _check_record(sensor)
        directional = [s.kind == SensorKind.DIRECTIONAL for s in sensors]
        nan = math.nan
        return cls(
            _id_column([s.id for s in sensors]),
            np.array([s.position[0] for s in sensors], dtype=float),
            np.array([s.position[1] for s in sensors], dtype=float),
            np.array([s.radius for s in sensors], dtype=float),
            np.array(
                [s.fov if d else nan for s, d in zip(sensors, directional)],
                dtype=float,
            ),
            np.array(
                [s.direction if d else nan for s, d in zip(sensors, directional)],
                dtype=float,
            ),
            np.array(directional, dtype=bool),
        )

    def take(self, rows: np.ndarray) -> "Poses":
        return Poses(*(column[rows] for column in self))

    def sensors(self) -> list[Sensor]:
        return [
            Sensor.directional(i, x, y, r, fov, d) if directional
            else Sensor.omni(i, x, y, r)
            for i, x, y, r, fov, d, directional in zip(*(c.tolist() for c in self))
        ]


def _check_record(sensor: Sensor) -> None:
    """Refuse only what a pose column cannot hold: an id that is not an
    integer, an unknown kind, a position that is missing or not a pair,
    fov or direction on an omni sensor, and a value that is not a number. The ``is`` tests spare
    the slower tests behind them."""
    sensor_id, kind = sensor.id, sensor.kind
    if not _is_integer(sensor_id):
        raise ParameterError(f"id must be an integer, got {sensor_id!r}")
    if kind is not SensorKind.OMNI and kind is not SensorKind.DIRECTIONAL:
        kind = SensorKind(kind)
    if sensor.position is None:
        raise ParameterError("sensors need a position")
    try:
        x, y = sensor.position
    except (TypeError, ValueError):
        raise ParameterError(
            f"position must be a pair (x, y), got {sensor.position!r}"
        ) from None
    radius, fov, direction = sensor.radius, sensor.fov, sensor.direction
    if kind is SensorKind.OMNI:
        if fov is not None or direction is not None:
            raise ParameterError("fov/direction apply to directional sensors only")
        fov = direction = 0.0  # nothing left to check in them
    if not type(x) is type(y) is type(radius) is type(fov) is type(direction) is float:
        values = (x, y, radius, fov, direction)
        for name, value in zip(("x", "y", "radius", "fov", "direction"), values):
            if type(value) is not float and not isinstance(value, numbers.Real):
                raise ParameterError(f"{name} must be a number, got {value!r}")


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer, never a bool. The ``is`` test
    spares the slower tests behind it."""
    return type(value) is int or (
        not isinstance(value, bool) and isinstance(value, numbers.Integral)
    )


def _id_column(ids: Sequence[int]) -> np.ndarray:
    """Ids as int64, or as Python ints when one lies outside int64, so that
    the range rules can name it."""
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        return np.array(ids, dtype=object)


def _id_rules(ids: np.ndarray, unique: bool) -> list[tuple[np.ndarray, str, np.ndarray]]:
    """The id rules of ``_pose_rules``: the range rules, then with
    ``unique`` the rule that marks each repeat."""
    rules = [
        (ids < 0, "sensor id must be >= 0, got {}", ids),
        # ids only reach 2**63 in an object column; 2**63 - 1 compares
        # exactly with int64 under every numpy version
        (ids > 2**63 - 1, "sensor id must be < 2**63, got {}", ids),
    ]
    if unique:
        rules.append((_repeats(ids), "duplicate sensor id {}", ids))
    return rules


def _ids(values: Iterable[int], unique: bool = False) -> np.ndarray:
    """The given ids as an int64 column: the one id gate of a field's
    doors (the constructor, ``span_of`` and ``without``). Each must be an
    integer, never a bool, that meets the range rules of ``_id_rules``,
    with ``unique`` its rule that no id repeats too; a fault raises
    ``ParameterError`` naming the first bad id, as given, type faults
    first. A lone integer or a 0-d array is not a sequence of ids."""
    array = isinstance(values, np.ndarray)
    sequence = values.ndim > 0 if array else isinstance(values, Iterable)
    if not sequence:
        raise ParameterError(f"ids must be a sequence of integers, got {values!r}")
    given = values if array else list(values)
    # an array's ids as Python scalars, which the ``is`` test of
    # ``_is_integer`` passes at once when they are ints
    plain = given.tolist() if array else given
    for i, value in enumerate(plain):
        if not _is_integer(value):
            raise ParameterError(f"id must be an integer, got {given[i]!r}")
    column = _id_column(plain)
    fault = _first_fault(_id_rules(column, unique))
    if fault is not None:
        raise ParameterError(fault[1])
    return column.astype(np.int64, copy=False)


def _pose_rules(poses: Poses) -> list[tuple[np.ndarray, str, np.ndarray]]:
    """Every rule a pose must meet, over whole columns and in the order
    they are checked: one (mask of failing rows, message, column holding
    the value) per rule. The last marks each repeat of an id."""
    *in_range, repeats = _id_rules(poses.ids, unique=True)
    on = poses.directional
    with np.errstate(invalid="ignore"):
        return [
            *in_range,
            (~np.isfinite(poses.x), "x must be finite, got {}", poses.x),
            (~np.isfinite(poses.y), "y must be finite, got {}", poses.y),
            (~np.isfinite(poses.radius), "radius must be finite, got {}", poses.radius),
            (~(poses.radius > 0), "radius must be > 0, got {}", poses.radius),
            (
                on & ~((poses.fov > 0) & (poses.fov <= 360)),
                "fov must be in (0, 360], got {}",
                poses.fov,
            ),
            (
                on & ~((poses.direction >= 0) & (poses.direction < 360)),
                "direction must be in [0, 360), got {}",
                poses.direction,
            ),
            repeats,
        ]


def _first_fault(
    rules: Sequence[tuple[np.ndarray, str, np.ndarray]]
) -> tuple[int, str] | None:
    """The first row that any rule marks, with the message of the first
    rule that marks it; None when no row fails."""
    bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _, _ in rules]))
    if not bad.size:
        return None
    i = bad[0].item()
    message, column = next((m, c) for mask, m, c in rules if mask[i])
    return i, message.format(column.item(i))


def _repeats(ids: np.ndarray) -> np.ndarray:
    """Mask of the entries whose id occurs earlier in ``ids``."""
    order = np.argsort(ids, kind="stable")
    mask = np.zeros(ids.size, dtype=bool)
    mask[order[1:][ids[order[1:]] == ids[order[:-1]]]] = True
    return mask


def _project(poses: Poses) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projections [u, v] of poses that meet ``_pose_rules``,
    computed over whole columns, every row as directional too.

    Omni: [x - r, x + r]. Directional: the apex and the two arc edge
    endpoints, folded in that order with strict comparisons, so a tie keeps
    the earlier value, signed zeros included. As r > 0 is finite, x + r and
    x - r bound every other extreme and are never -0.0, so x + r (x - r)
    replaces v (u) outright when the sector holds 0 (180) degrees.
    """
    x, r, c = poses.x, poses.radius, poses.direction
    with np.errstate(all="ignore"):
        half = poses.fov / 2.0
        lo = hi = x
        for edge in (c - half, c + half):
            end = x + r * np.cos(np.radians(edge))
            lo = np.where(end < lo, end, lo)
            hi = np.where(end > hi, end, hi)
        # the sector holds theta when |(theta - c + 180) % 360 - 180| <= half;
        # for c in [0, 360) one conditional wrap gives % bit for bit
        t = 180.0 - c
        holds_0 = np.abs(np.where(t < 0.0, t + 360.0, t) - 180.0) <= half
        t = t + 180.0
        holds_180 = np.abs(np.where(t < 360.0, t, t - 360.0) - 180.0) <= half
        omni = ~poses.directional
        return np.where(omni | holds_180, x - r, lo), np.where(omni | holds_0, x + r, hi)


def _clip(
    us: np.ndarray, vs: np.ndarray, domain: Domain
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intersect each [u, v] with [a, b]; the mask marks non-void results."""
    a, b = domain
    us = np.where(a > us, a, us)
    vs = np.where(b < vs, b, vs)
    return us, vs, ~(us > vs)


def _segment(domain: Domain) -> Domain:
    """The segment [a, b] that a selection covers: finite, with a < b."""
    a, b = domain
    if not a < b:
        raise ParameterError(f"domain needs a < b, got [{a}, {b}]")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ParameterError(f"domain must be finite, got [{a}, {b}]")
    return a, b


def _count(name: str, value, minimum: int) -> int:
    """An integral value, never a bool, of at least ``minimum``, as an int."""
    if not _is_integer(value):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _failed(failed_ids: Iterable[int], selected_ids: Iterable[int]) -> set[int]:
    """The failed ids as a set; each must be one of the selected ids, and
    an integer: True or 1.0 never stands for sensor 1. A fault names the
    stray integers in ascending order, then the other strays as given."""
    failed = list(failed_ids)
    integers = {f for f in failed if _is_integer(f)}
    stray = sorted(integers.difference(selected_ids))
    stray += [f for f in failed if not _is_integer(f)]
    if stray:
        raise ParameterError(f"failed ids {stray} were never selected")
    return integers


@dataclass(frozen=True, eq=False)
class TargetSet:
    """Finite target points on the segment, at least one.

    ``xs`` is one read-only float64 array, sorted non-decreasing; ``len``,
    iteration and indexing give Python floats. Like fields, target sets
    compare by identity.
    """

    xs: np.ndarray

    def __post_init__(self) -> None:
        xs = self.xs
        if not isinstance(xs, np.ndarray):
            try:
                xs = list(map(float, xs))
            except TypeError as exc:  # a nested or non-numeric entry
                raise ParameterError(
                    f"targets must be a sequence of numbers: {exc}"
                ) from None
        xs = np.array(xs, dtype=float)
        if xs.ndim != 1:
            raise ParameterError(
                f"targets must be one-dimensional, got shape {xs.shape}"
            )
        if not xs.size:
            raise ParameterError("targets must be non-empty")
        # checked before sorting: the first bad target in the order given
        bad = np.flatnonzero(~np.isfinite(xs))
        if bad.size:
            raise ParameterError(f"targets must be finite, got {xs.item(bad[0])}")
        # stable, as ``sorted`` is, so that signed zeros keep their order
        xs.sort(kind="stable")
        xs.flags.writeable = False
        object.__setattr__(self, "xs", xs)

    def __len__(self) -> int:
        return self.xs.size

    def __iter__(self) -> Iterator[float]:
        return iter(self.xs.tolist())

    def __getitem__(self, i: int) -> float:
        return self.xs.item(i)


def _targets(targets: TargetSet | Iterable[float], domain: Domain) -> TargetSet:
    """The given targets as a ``TargetSet``, each inside the closed domain."""
    targets = targets if isinstance(targets, TargetSet) else TargetSet(targets)
    a, b = domain
    lo, hi = targets[0], targets[-1]
    if lo < a or hi > b:
        raise ParameterError(
            f"targets must lie in the domain [{a}, {b}], got {lo if lo < a else hi}"
        )
    return targets


def _canonical_order(us: np.ndarray, vs: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The positions that sort rows by (u, v, id), rows equal in all three
    in the order given: ``np.lexsort((ids, vs, us))`` for ``us`` without
    NaN. One argsort of u places every row whose u is unique; only the rows
    whose u repeats are lexsorted, with their position as the last key."""
    order = us.argsort()
    u = us[order]
    same = u[1:] == u[:-1]
    if same.any():
        tied = np.zeros(u.size, dtype=bool)
        tied[1:] = same
        tied[:-1] |= same
        rows = order[tied]
        order[tied] = rows[np.lexsort((rows, ids[rows], vs[rows], us[rows]))]
    return order


class SensorField:
    """Sensor poses plus their clipped projections in canonical order.

    ``us``, ``vs`` and ``ids`` are the clipped projections sorted by
    (u, v, sensor id) ascending (``_canonical_order``); that position is
    the sensor's index for every tie-break in the selection algorithms.
    Projections that miss the domain entirely are dropped. ``poses`` holds
    the sensors in the order they were given, and ``max_id`` the largest
    id among them and the rows, dropped sensors included. A field holds
    real sensors only; virtual gap sensors live in selection results.
    Fields are not changed after construction; ``without`` returns a new
    one.

    The constructor takes clipped intervals directly, checks their ends
    (finite, u <= v) and their ids by ``_ids`` (integers, in range, none
    repeated), and sorts them; such a field has no poses. ``build`` and
    ``from_poses`` check poses by ``_pose_rules``, whose ranges
    ``_project`` needs, then project and clip them. ``read_field`` checks
    them by its file rules, which include the pose rules, and ``generate``
    only the y of its draws; both then go through ``_from_checked``.
    """

    def __init__(
        self,
        us: Sequence[float],
        vs: Sequence[float],
        ids: Sequence[int],
        domain: Domain,
    ) -> None:
        us = np.asarray(us, dtype=float)
        vs = np.asarray(vs, dtype=float)
        ids = _ids(ids, unique=True)
        if not us.size == vs.size == ids.size:
            raise ParameterError(
                f"us, vs and ids need one length, got {us.size}, {vs.size} and {ids.size}"
            )
        bad = np.flatnonzero(~(us <= vs))
        if bad.size:
            i = bad[0]
            raise ParameterError(
                f"interval needs u <= v, got [{us[i].item()}, {vs[i].item()}]"
            )
        bad = np.flatnonzero(np.isinf(us) | np.isinf(vs))
        if bad.size:
            i = bad[0]
            raise ParameterError(
                f"interval needs finite ends, got [{us[i].item()}, {vs[i].item()}]"
            )
        self._place(us, vs, ids, domain, Poses.of(()))

    @classmethod
    def _trusted(cls, us, vs, ids, domain: Domain, poses: Poses) -> "SensorField":
        """A field of clipped rows (float and int64 arrays) and poses that
        already meet every rule: ``_from_checked`` and ``without`` build
        their fields here."""
        field = cls.__new__(cls)
        field._place(us, vs, ids, domain, poses)
        return field

    def _place(self, us, vs, ids, domain: Domain, poses: Poses) -> None:
        a, b = domain
        # an unbounded or one-point domain is a field's to hold; NaN is not
        if not a <= b:
            raise ParameterError(f"domain needs a <= b, got [{a}, {b}]")
        order = _canonical_order(us, vs, ids)
        self.us, self.vs, self.ids = us[order], vs[order], ids[order]
        self.domain = domain
        self.poses = poses
        self.max_id = max(
            poses.ids.max(initial=-1).item(), ids.max(initial=-1).item()
        )

    @classmethod
    def from_poses(cls, poses: Poses, domain: Domain) -> "SensorField":
        """Check (``_pose_rules``), project and clip sensor poses."""
        fault = _first_fault(_pose_rules(poses))
        if fault is not None:
            raise ParameterError(fault[1])
        return cls._from_checked(poses, domain)

    @classmethod
    def _from_checked(cls, poses: Poses, domain: Domain) -> "SensorField":
        """Project and clip poses that already meet ``_pose_rules``."""
        us, vs = _project(poses)
        us, vs, kept = _clip(us, vs, domain)
        return cls._trusted(us[kept], vs[kept], poses.ids[kept], domain, poses)

    @classmethod
    def build(cls, sensors: Iterable[Sensor], domain: Domain) -> "SensorField":
        return cls.from_poses(Poses.of(sensors), domain)

    @cached_property
    def sensors(self) -> tuple[Sensor, ...]:
        """The real sensors in the order given.

        Built from the arrays on first use, for callers that want
        objects.
        """
        return tuple(self.poses.sensors())

    @cached_property
    def _rows_by_id(self) -> tuple[np.ndarray, np.ndarray]:
        rows = np.argsort(self.ids)
        # a -1 sentinel, which no id can match, is what ids past the end find
        return np.concatenate((self.ids[rows], [-1])), np.concatenate((rows, [-1]))

    def _rows_of(self, sensor_ids: Iterable[int]) -> np.ndarray:
        """The row in ``us``, ``vs`` and ``ids`` of each given id, -1
        where the field holds no interval for it; the ids pass ``_ids``."""
        ids, rows = self._rows_by_id
        sensor_ids = _ids(sensor_ids)
        at = np.searchsorted(ids[:-1], sensor_ids)
        return np.where(ids[at] == sensor_ids, rows[at], -1)

    def span_of(self, sensor_id: int) -> tuple[float, float] | None:
        row = self._rows_of([sensor_id]).item()
        if row < 0:
            return None
        return self.us.item(row), self.vs.item(row)

    def without(self, sensor_ids: Iterable[int]) -> "SensorField":
        """A copy of the field with the given sensors removed. The ids pass
        ``_ids``; an id that the field does not hold removes nothing and
        is not refused."""
        gone = _ids(sensor_ids)
        kept = ~np.isin(self.ids, gone)
        return SensorField._trusted(
            self.us[kept],
            self.vs[kept],
            self.ids[kept],
            self.domain,
            self.poses.take(~np.isin(self.poses.ids, gone)),
        )


def discretize(field: SensorField) -> TargetSet:
    """Representative targets: midpoints of the elementary sub-intervals.

    The sorted, deduplicated set of all interval endpoints plus the ends
    of the domain, which must be finite with a < b, cuts the domain into
    elementary sub-intervals; the midpoint of each becomes one target. A
    set of sensors 1-covers these midpoints exactly when it covers the
    whole segment, as no endpoint falls strictly inside a sub-interval.
    """
    _segment(field.domain)
    if not field.ids.size:
        raise ParameterError("discretize needs a field with at least one interval")
    grid = np.sort(np.concatenate((field.domain, field.us, field.vs)))
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    return TargetSet((grid[:-1] + grid[1:]) / 2.0)


def _target_spans(
    us: np.ndarray, vs: np.ndarray, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per closed interval [us[i], vs[i]], the first target it covers and
    one past the last, as indices into the sorted targets ``xs``."""
    return np.searchsorted(xs, us, "left"), np.searchsorted(xs, vs, "right")


def _sum(values: Iterable) -> float:
    """Left-to-right sum, as the built-in ``sum`` adds on Python 3.10 and
    3.11; from 3.12 on ``sum`` compensates float rounding, which would make
    report digits depend on the Python version."""
    return reduce(operator.add, values, 0)


def _first_max(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running maximum of x and the first position that holds it, at every
    position; x may be empty. Of equal values the earlier is kept, as
    ``max`` does; numpy's keeps the later, which tells -0.0 from 0.0."""
    at = np.arange(x.size)
    at[1:] *= x[1:] > np.maximum.accumulate(x)[:-1]
    at = np.maximum.accumulate(at)
    return x[at], at


def merge_segments(us, vs) -> tuple[np.ndarray, np.ndarray]:
    """Union of closed segments [us[i], vs[i]] as the starts and ends of
    sorted, disjoint closed blocks.

    Touching segments merge: [0, 4] and [4, 8] become [0, 8]. In (u, v)
    order, a segment starts a block when it begins past the furthest end
    so far.
    """
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    order = np.lexsort((vs, us))
    us, vs = us[order], vs[order]
    if not us.size:
        return us, vs
    reach, _ = _first_max(vs)
    starts = np.flatnonzero(np.concatenate(([True], us[1:] > reach[:-1])))
    return us[starts], reach[np.concatenate((starts[1:], [us.size])) - 1]


def complement_segments(us, vs, domain: Domain) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of the maximal positive-length stretches of [a, b]
    not covered by the union of the segments."""
    a, b = domain
    us, vs = merge_segments(us, vs)
    meets = (vs >= a) & (us <= b)
    us, vs, _ = _clip(us[meets], vs[meets], domain)
    # a stretch runs from the furthest end so far to the next block's start
    lo, _ = _first_max(np.concatenate(([a], vs)))
    hi = np.concatenate((us, [b]))
    gap = hi > lo
    return lo[gap], hi[gap]


def coverage_fraction(us, vs, domain: Domain) -> float:
    """Fraction of [a, b] covered by the union of the segments."""
    a, b = _segment(domain)
    us, vs, kept = _clip(
        np.asarray(us, dtype=float), np.asarray(vs, dtype=float), domain
    )
    us, vs = merge_segments(us[kept], vs[kept])
    return _sum((vs - us).tolist()) / (b - a)
