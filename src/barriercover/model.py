"""Planar sensors and their 1D projections onto a coverage segment.

Every selection algorithm in this package works on closed intervals
``[u, v]`` obtained by projecting sensor footprints orthogonally onto the
x axis. This module owns that projection, clipping to the segment of
interest, the canonical deterministic interval ordering, conversion of a
continuous segment into a finite set of representative target points, and
coverage measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

Domain = tuple[float, float]


class ParameterError(ValueError):
    """An operation was called with arguments that violate its contract."""


class SensorKind(str, Enum):
    OMNI = "omni"
    DIRECTIONAL = "directional"


@dataclass(frozen=True)
class Sensor:
    """A deployed sensor, or a virtual stand-in for an uncoverable stretch.

    Real sensors carry a pose: ``position`` and ``radius``, plus ``fov``
    and ``direction`` (degrees) when directional. The sensing footprint of
    a directional sensor is the circular sector with apex at ``position``,
    radius ``radius``, spanning ``fov/2`` either side of ``direction``
    (measured counterclockwise from the +x axis).

    Virtual sensors have no pose. They exist so that selection can always
    terminate on fields with holes, and carry their 1D extent directly in
    ``span``.
    """

    id: int
    kind: SensorKind = SensorKind.OMNI
    position: tuple[float, float] | None = None
    radius: float | None = None
    fov: float | None = None
    direction: float | None = None
    virtual: bool = False
    span: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ParameterError(f"sensor id must be >= 0, got {self.id}")
        if self.virtual:
            if self.span is None:
                raise ParameterError("virtual sensors need an explicit span")
            if self.position is not None or self.radius is not None:
                raise ParameterError("virtual sensors carry no pose")
            u, v = self.span
            if not (u <= v):
                raise ParameterError(f"invalid span [{u}, {v}]")
            return
        if self.span is not None:
            raise ParameterError("span is reserved for virtual sensors")
        if self.position is None:
            raise ParameterError("real sensors need a position")
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

    @classmethod
    def gap(cls, sensor_id: int, u: float, v: float) -> "Sensor":
        """A virtual sensor spanning exactly [u, v]."""
        return cls(id=sensor_id, virtual=True, span=(u, v))


@dataclass(frozen=True)
class ProjectedInterval:
    """Closed interval [u, v] on the x axis owned by one sensor.

    Intervals are closed: a point exactly at an endpoint counts as covered.
    """

    u: float
    v: float
    sensor_id: int

    def __post_init__(self) -> None:
        if not (self.u <= self.v):
            raise ParameterError(f"interval needs u <= v, got [{self.u}, {self.v}]")

    def covers(self, x: float) -> bool:
        return self.u <= x <= self.v

    def overlaps(self, other: "ProjectedInterval") -> bool:
        """True when the two closed intervals share at least one point."""
        return self.u <= other.v and other.u <= self.v


def _angle_inside(theta: float, center: float, half: float) -> bool:
    # circular distance between theta and center, in degrees
    d = abs((theta - center + 180.0) % 360.0 - 180.0)
    return d <= half


def project(sensor: Sensor) -> ProjectedInterval:
    """Orthogonal projection of a sensor footprint onto the x axis.

    Omnidirectional: [x - r, x + r]. Directional: the x extent of the
    sector, i.e. the min/max over the apex, the two arc edge endpoints,
    and the arc points at angle 0 or 180 degrees when those directions
    fall inside the sector.
    """
    if sensor.virtual:
        raise ParameterError("virtual sensors have no pose to project")
    x, y = sensor.position
    r = sensor.radius
    if sensor.kind is SensorKind.OMNI:
        return ProjectedInterval(x - r, x + r, sensor.id)
    half = sensor.fov / 2.0
    xs = [x]
    for edge in (sensor.direction - half, sensor.direction + half):
        xs.append(x + r * math.cos(math.radians(edge)))
    if _angle_inside(0.0, sensor.direction, half):
        xs.append(x + r)
    if _angle_inside(180.0, sensor.direction, half):
        xs.append(x - r)
    return ProjectedInterval(min(xs), max(xs), sensor.id)


def clip(interval: ProjectedInterval, domain: Domain) -> ProjectedInterval | None:
    """Intersect an interval with [a, b]; None when the intersection is void."""
    a, b = domain
    if a > b:
        raise ParameterError(f"domain needs a <= b, got [{a}, {b}]")
    u = max(interval.u, a)
    v = min(interval.v, b)
    if u > v:
        return None
    return ProjectedInterval(u, v, interval.sensor_id)


@dataclass(frozen=True)
class TargetSet:
    """Finite target points on the segment, kept sorted non-decreasing."""

    xs: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "xs", tuple(sorted(float(x) for x in self.xs)))

    def __len__(self) -> int:
        return len(self.xs)

    def __iter__(self) -> Iterator[float]:
        return iter(self.xs)

    def __getitem__(self, i: int) -> float:
        return self.xs[i]


def _sort_key(iv: ProjectedInterval) -> tuple[float, float, int]:
    return (iv.u, iv.v, iv.sensor_id)


@dataclass(frozen=True)
class SensorField:
    """Sensors plus their clipped projections in canonical order.

    ``intervals`` is sorted by (u, v, sensor id) ascending; that position
    is the sensor's index for every tie-break in the selection algorithms.
    Projections that miss the domain entirely are dropped. Instances are
    immutable; derived fields are cached at construction.
    """

    sensors: tuple[Sensor, ...]
    intervals: tuple[ProjectedInterval, ...]
    domain: Domain

    def __post_init__(self) -> None:
        a, b = self.domain
        if a > b:
            raise ParameterError(f"domain needs a <= b, got [{a}, {b}]")
        spans = {iv.sensor_id: (iv.u, iv.v) for iv in self.intervals}
        object.__setattr__(self, "_span_by_id", spans)
        ids = [s.id for s in self.sensors]
        object.__setattr__(self, "_max_id", max(ids) if ids else -1)

    @classmethod
    def build(cls, sensors: Iterable[Sensor], domain: Domain) -> "SensorField":
        sensors = tuple(sensors)
        seen: set[int] = set()
        for s in sensors:
            if s.id in seen:
                raise ParameterError(f"duplicate sensor id {s.id}")
            seen.add(s.id)
        intervals = []
        for s in sensors:
            raw = (
                ProjectedInterval(s.span[0], s.span[1], s.id)
                if s.virtual
                else project(s)
            )
            kept = clip(raw, domain)
            if kept is not None:
                intervals.append(kept)
        intervals.sort(key=_sort_key)
        return cls(sensors=sensors, intervals=tuple(intervals), domain=domain)

    @property
    def max_id(self) -> int:
        return self._max_id

    def interval_of(self, sensor_id: int) -> ProjectedInterval | None:
        span = self._span_by_id.get(sensor_id)
        if span is None:
            return None
        return ProjectedInterval(span[0], span[1], sensor_id)

    def span_of(self, sensor_id: int) -> tuple[float, float] | None:
        return self._span_by_id.get(sensor_id)

    def without(self, sensor_ids: Iterable[int]) -> "SensorField":
        """A copy of the field with the given sensors removed."""
        drop = set(sensor_ids)
        return SensorField(
            sensors=tuple(s for s in self.sensors if s.id not in drop),
            intervals=tuple(iv for iv in self.intervals if iv.sensor_id not in drop),
            domain=self.domain,
        )

    def with_virtual(
        self, spans: Sequence[tuple[float, float]]
    ) -> tuple["SensorField", tuple[int, ...]]:
        """Append virtual sensors spanning the given extents.

        Ids continue from the current maximum; returns (field, new ids).
        """
        if not spans:
            return self, ()
        next_id = self.max_id + 1
        new_sensors = []
        new_intervals = []
        for i, (u, v) in enumerate(spans):
            s = Sensor.gap(next_id + i, u, v)
            new_sensors.append(s)
            kept = clip(ProjectedInterval(u, v, s.id), self.domain)
            if kept is not None:
                new_intervals.append(kept)
        intervals = sorted(self.intervals + tuple(new_intervals), key=_sort_key)
        field = SensorField(
            sensors=self.sensors + tuple(new_sensors),
            intervals=tuple(intervals),
            domain=self.domain,
        )
        return field, tuple(s.id for s in new_sensors)


def discretize(field: SensorField) -> TargetSet:
    """Representative targets: midpoints of the elementary sub-intervals.

    The sorted, deduplicated set of all interval endpoints plus the domain
    endpoints cuts the domain into elementary sub-intervals; the midpoint
    of each becomes one target. A set of sensors 1-covers these midpoints
    exactly when it covers the whole continuous segment, because interval
    endpoints never fall strictly inside an elementary sub-interval.
    """
    if not field.intervals:
        raise ParameterError("discretize needs a field with at least one interval")
    a, b = field.domain
    pts = {a, b}
    for iv in field.intervals:
        pts.add(iv.u)
        pts.add(iv.v)
    grid = sorted(pts)
    xs = [(p + q) / 2.0 for p, q in zip(grid, grid[1:])]
    return TargetSet(tuple(xs))


def merge_segments(
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


def complement_segments(
    segments: Iterable[tuple[float, float]], domain: Domain
) -> list[tuple[float, float]]:
    """Maximal positive-length stretches of [a, b] not covered by the union."""
    a, b = domain
    out: list[tuple[float, float]] = []
    cursor = a
    for u, v in merge_segments(segments):
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


def coverage_fraction(
    selected: Iterable[ProjectedInterval],
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
    covered = sum(v - u for u, v in merge_segments(segs))
    return covered / (b - a)
