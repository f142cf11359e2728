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
``Sensor`` objects are built only when ``SensorField.sensors`` is read.
``merge_segments``, ``complement_segments`` and ``coverage_fraction``
take and return columns of segment ends. A ``TargetSet`` holds its points as one
read-only, sorted float64 array ``xs``; target sets, like fields,
compare by identity.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, reduce
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

Domain = tuple[float, float]


class ParameterError(ValueError):
    """An operation was called with arguments that violate its contract."""


class SensorKind(str, Enum):
    OMNI = "omni"
    DIRECTIONAL = "directional"


@dataclass(frozen=True)
class Sensor:
    """A deployed sensor: ``position`` and ``radius``, plus ``fov`` and
    ``direction`` (degrees) when directional.

    The sensing footprint of a directional sensor is the circular sector
    with apex at ``position``, radius ``radius``, spanning ``fov/2``
    either side of ``direction`` (measured counterclockwise from the +x
    axis).
    """

    id: int
    kind: SensorKind = SensorKind.OMNI
    position: tuple[float, float] | None = None
    radius: float | None = None
    fov: float | None = None
    direction: float | None = None

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ParameterError(f"sensor id must be >= 0, got {self.id}")
        if self.id >= 2**63:
            raise ParameterError(f"sensor id must be < 2**63, got {self.id}")
        if self.position is None:
            raise ParameterError("sensors need a position")
        x, y = self.position
        r = self.radius
        finite = math.isfinite
        if not (finite(x) and finite(y) and (r is None or finite(r))):
            name, value = next(
                (name, value)
                for name, value in (("x", x), ("y", y), ("radius", r))
                if not finite(value)
            )
            raise ParameterError(f"{name} must be finite, got {value}")
        if self.radius is None or not self.radius > 0:
            raise ParameterError(f"radius must be > 0, got {self.radius}")
        if self.kind is SensorKind.DIRECTIONAL:
            if self.fov is None or not 0 < self.fov <= 360:
                raise ParameterError(f"fov must be in (0, 360], got {self.fov}")
            if self.direction is None or not 0 <= self.direction < 360:
                raise ParameterError(
                    f"direction must be in [0, 360), got {self.direction}"
                )
        elif self.fov is not None or self.direction is not None:
            raise ParameterError("fov/direction apply to directional sensors only")

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
    def of(cls, sensors: Sequence[Sensor]) -> "Poses":
        """The poses of the given sensors."""
        directional = [s.kind is SensorKind.DIRECTIONAL for s in sensors]
        nan = math.nan
        return cls(
            np.array([s.id for s in sensors], dtype=np.int64),
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


def _pose_rules(poses: Poses) -> list[tuple[np.ndarray, str, np.ndarray]]:
    """The checks ``Sensor`` makes, in its order, over whole columns: one
    (mask of failing rows, message, column holding the value) per check."""
    on = poses.directional
    with np.errstate(invalid="ignore"):
        return [
            (poses.ids < 0, "sensor id must be >= 0, got {}", poses.ids),
            # ids only reach 2**63 in an object column; 2**63 - 1 compares
            # exactly with int64 under every numpy version
            (poses.ids > 2**63 - 1, "sensor id must be < 2**63, got {}", poses.ids),
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


def _check_poses(poses: Poses) -> None:
    """The checks ``Sensor`` makes, over whole columns; the first offending
    sensor is reported with the message ``Sensor`` would give."""
    fault = _first_fault(_pose_rules(poses))
    if fault is not None:
        raise ParameterError(fault[1])


def _repeats(ids: np.ndarray) -> np.ndarray:
    """Mask of the entries whose id occurs earlier in ``ids``."""
    order = np.argsort(ids, kind="stable")
    mask = np.zeros(ids.size, dtype=bool)
    mask[order[1:][ids[order[1:]] == ids[order[:-1]]]] = True
    return mask


def _check_unique(ids: np.ndarray) -> None:
    """Report the first id, in the given order, that was seen before."""
    repeats = np.flatnonzero(_repeats(ids))
    if repeats.size:
        raise ParameterError(f"duplicate sensor id {ids.item(repeats[0])}")


def _project(poses: Poses) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projections [u, v] of every pose onto the x axis.

    Omnidirectional: [x - r, x + r]. Directional: the x extent of the
    sector, i.e. the min/max over the apex, the two arc edge endpoints,
    and the arc points at angle 0 or 180 degrees when those directions
    fall inside the sector. The extremes are folded in that order with
    strict comparisons, so a tie keeps the earlier value, signed zeros
    included.
    """
    with np.errstate(all="ignore"):
        u = poses.x - poses.radius
        v = poses.x + poses.radius
        rows = np.flatnonzero(poses.directional)
        if rows.size:
            x, r, c = poses.x[rows], poses.radius[rows], poses.direction[rows]
            half = poses.fov[rows] / 2.0
            lo = hi = x
            for edge in (c - half, c + half):
                end = x + r * np.cos(np.radians(edge))
                lo = np.where(end < lo, end, lo)
                hi = np.where(end > hi, end, hi)
            # the sector contains theta when the circular distance from
            # its center is at most half the fov
            for theta, end in ((0.0, v[rows]), (180.0, u[rows])):
                inside = np.abs((theta - c + 180.0) % 360.0 - 180.0) <= half
                lo = np.where(inside & (end < lo), end, lo)
                hi = np.where(inside & (end > hi), end, hi)
            u[rows] = lo
            v[rows] = hi
    return u, v


def _clip(
    us: np.ndarray, vs: np.ndarray, domain: Domain
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intersect each [u, v] with [a, b]; the mask marks non-void results."""
    a, b = domain
    us = np.where(a > us, a, us)
    vs = np.where(b < vs, b, vs)
    return us, vs, ~(us > vs)


def _check_domain(domain: Domain) -> None:
    a, b = domain
    if a > b:
        raise ParameterError(f"domain needs a <= b, got [{a}, {b}]")


@dataclass(frozen=True, eq=False)
class TargetSet:
    """Finite target points on the segment.

    ``xs`` is one read-only float64 array, sorted non-decreasing; ``len``,
    iteration and indexing give Python floats. Like fields, target sets
    compare by identity.
    """

    xs: np.ndarray = ()

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


class SensorField:
    """Sensor poses plus their clipped projections in canonical order.

    ``us``, ``vs`` and ``ids`` are the clipped projections sorted by
    (u, v, sensor id) ascending; that position is the sensor's index for
    every tie-break in the selection algorithms. Projections that miss
    the domain entirely are dropped. ``poses`` holds the sensors in the
    order they were given, and ``max_id`` the largest id among them and
    the rows, dropped sensors included. A field holds real sensors only;
    virtual gap sensors live in selection results. Fields are not changed
    after construction; ``without`` returns a new one.

    The constructor takes clipped intervals directly and sorts them;
    ``build`` and ``from_poses`` project sensors first.
    """

    def __init__(
        self,
        us: Sequence[float],
        vs: Sequence[float],
        ids: Sequence[int],
        domain: Domain,
        poses: Poses | None = None,
    ) -> None:
        _check_domain(domain)
        us = np.asarray(us, dtype=float)
        vs = np.asarray(vs, dtype=float)
        ids = np.asarray(ids, dtype=np.int64)
        bad = np.flatnonzero(~(us <= vs))
        if bad.size:
            i = bad[0]
            raise ParameterError(
                f"interval needs u <= v, got [{us[i].item()}, {vs[i].item()}]"
            )
        order = np.lexsort((ids, vs, us))
        self.us, self.vs, self.ids = us[order], vs[order], ids[order]
        self.domain = domain
        self.poses = Poses.of(()) if poses is None else poses
        self.max_id = max(
            self.poses.ids.max(initial=-1).item(), ids.max(initial=-1).item()
        )

    @classmethod
    def from_poses(cls, poses: Poses, domain: Domain) -> "SensorField":
        """Check, project and clip sensor poses."""
        _check_poses(poses)
        us, vs = _project(poses)
        us, vs, kept = _clip(us, vs, domain)
        return cls(us[kept], vs[kept], poses.ids[kept], domain, poses)

    @classmethod
    def build(cls, sensors: Iterable[Sensor], domain: Domain) -> "SensorField":
        poses = Poses.of(list(sensors))
        _check_unique(poses.ids)
        return cls.from_poses(poses, domain)

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
        return np.append(self.ids[rows], -1), np.append(rows, -1)

    def _rows_of(self, sensor_ids: Iterable[int]) -> np.ndarray:
        """The row in ``us``, ``vs`` and ``ids`` of each given id, -1
        where the field holds no interval for it."""
        ids, rows = self._rows_by_id
        sensor_ids = np.asarray(sensor_ids, dtype=np.int64)
        at = np.searchsorted(ids[:-1], sensor_ids)
        return np.where(ids[at] == sensor_ids, rows[at], -1)

    def span_of(self, sensor_id: int) -> tuple[float, float] | None:
        row = self._rows_of([sensor_id]).item()
        if row < 0:
            return None
        return self.us.item(row), self.vs.item(row)

    def without(self, sensor_ids: Iterable[int]) -> "SensorField":
        """A copy of the field with the given sensors removed."""
        gone = list(set(sensor_ids))
        kept = ~np.isin(self.ids, gone)
        return SensorField(
            self.us[kept],
            self.vs[kept],
            self.ids[kept],
            self.domain,
            self.poses.take(~np.isin(self.poses.ids, gone)),
        )


def discretize(field: SensorField) -> TargetSet:
    """Representative targets: midpoints of the elementary sub-intervals.

    The sorted, deduplicated set of all interval endpoints plus the domain
    endpoints cuts the domain into elementary sub-intervals; the midpoint
    of each becomes one target. A set of sensors 1-covers these midpoints
    exactly when it covers the whole continuous segment, because interval
    endpoints never fall strictly inside an elementary sub-interval.
    """
    if not field.ids.size:
        raise ParameterError("discretize needs a field with at least one interval")
    grid = np.sort(np.concatenate((field.domain, field.us, field.vs)))
    grid = grid[np.append(True, grid[1:] != grid[:-1])]
    return TargetSet((grid[:-1] + grid[1:]) / 2.0)


def _sum(values: Iterable) -> float:
    """Left-to-right sum, as the built-in ``sum`` adds on Python 3.10 and
    3.11; from 3.12 on ``sum`` compensates float rounding, which would make
    report digits depend on the Python version."""
    return reduce(operator.add, values, 0)


def _first_max(x: np.ndarray) -> np.ndarray:
    """Running maximum of a non-empty x that keeps the earlier of equal
    values, as ``max`` does; numpy's keeps the later, which tells -0.0
    from 0.0."""
    best = np.maximum.accumulate(x)
    new = np.append(True, x[1:] > best[:-1])
    return x[np.maximum.accumulate(np.where(new, np.arange(x.size), 0))]


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
    reach = _first_max(vs)
    starts = np.flatnonzero(np.append(True, us[1:] > reach[:-1]))
    return us[starts], reach[np.append(starts[1:], us.size) - 1]


def complement_segments(us, vs, domain: Domain) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of the maximal positive-length stretches of [a, b]
    not covered by the union of the segments."""
    a, b = domain
    us, vs = merge_segments(us, vs)
    meets = (vs >= a) & (us <= b)
    us, vs, _ = _clip(us[meets], vs[meets], domain)
    # a stretch runs from the furthest end so far to the next block's start
    lo = _first_max(np.append(a, vs))
    hi = np.append(us, b)
    gap = hi > lo
    return lo[gap], hi[gap]


def coverage_fraction(us, vs, domain: Domain) -> float:
    """Fraction of [a, b] covered by the union of the segments."""
    a, b = domain
    if not a < b:
        raise ParameterError(f"domain needs a < b, got [{a}, {b}]")
    us, vs, kept = _clip(
        np.asarray(us, dtype=float), np.asarray(vs, dtype=float), domain
    )
    us, vs = merge_segments(us[kept], vs[kept])
    return _sum((vs - us).tolist()) / (b - a)
