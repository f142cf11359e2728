"""Reading and writing sensor fields and selection results.

A sensor-field file holds one JSON object per line:

    {"id": 0, "kind": "omni", "x": 5.0, "y": 1.0, "radius": 3.0}
    {"id": 1, "kind": "directional", "x": 9.0, "y": 0.0, "radius": 2.0,
     "fov": 90.0, "direction": 180.0}

``id`` is a JSON integer. ``fov`` and ``direction`` are required for
directional sensors and must be absent for omnidirectional ones. Virtual
sensors never appear in input files.

The reader parses each line straight into the ``Poses`` columns, keeping
a row-to-line list. Per line it only decodes the JSON, checks the keys,
the kind and the id type, and converts the numbers; the finiteness,
``Sensor`` range and duplicate-id checks then run once over whole
columns. Every parse problem raises ``FieldFormatError`` carrying the
line it comes from, and when several lines are bad, the first one is
reported with the message a line-by-line reader would give. The writer
formats every line from the columns, numbers as ``float.__repr__``.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .model import (
    Domain,
    ParameterError,
    Poses,
    Sensor,
    SensorField,
    _first_fault,
    _pose_rules,
    _repeats,
)


class FieldFormatError(ValueError):
    """A sensor-field file failed to parse; ``line`` is 1-based."""

    def __init__(self, line: int, message: str) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}")


_REQUIRED = ("id", "kind", "x", "y", "radius")
_raw_decode = json.JSONDecoder().raw_decode


def _decode(line: str):
    """``json.loads`` of a stripped line, without the whitespace and
    byte-order-mark scans around the decoder that a stripped line does not
    need; a line the decoder does not consume whole goes to ``json.loads``,
    which raises its own error for it."""
    try:
        obj, end = _raw_decode(line)
        if end == len(line):
            return obj
    except json.JSONDecodeError:
        pass
    return json.loads(line)


def _structure_error(obj: dict) -> str:
    """Why an object whose keys do not fit its kind is not a sensor."""
    missing = [k for k in _REQUIRED if k not in obj]
    if missing:
        return f"missing fields: {missing}"
    unknown = sorted(set(obj) - {*_REQUIRED, "fov", "direction"})
    if unknown:
        return f"unknown fields: {unknown}"
    if obj["kind"] == "directional":
        return "directional sensors need fov and direction"
    if obj["kind"] == "omni":
        return "fov/direction apply to directional sensors only"
    return f"kind must be 'omni' or 'directional', got {obj['kind']!r}"


def _parse_line(line: str, line_no: int) -> tuple[int, tuple[float, ...], bool]:
    """The id, the numbers (x, y, radius, fov, direction; NaN fov and
    direction when omni) and whether the sensor is directional, after the
    checks that one line can fail on its own."""
    try:
        obj = _decode(line)
    except json.JSONDecodeError as exc:
        raise FieldFormatError(line_no, f"invalid JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise FieldFormatError(line_no, "expected a JSON object")
    kind = obj.get("kind")
    on = kind == "directional"
    if not (on or kind == "omni") or len(obj) != (7 if on else 5):
        raise FieldFormatError(line_no, _structure_error(obj))
    # with the key count right, finding every key of the kind shows that
    # there is no other key
    try:
        sensor_id, x, y, radius = obj["id"], obj["x"], obj["y"], obj["radius"]
        fov, direction = (obj["fov"], obj["direction"]) if on else (math.nan, math.nan)
    except KeyError:
        raise FieldFormatError(line_no, _structure_error(obj)) from None
    if type(sensor_id) is not int:
        raise FieldFormatError(
            line_no, f"id must be an integer, got {json.dumps(sensor_id)}"
        )
    try:
        numbers = (float(x), float(y), float(radius), float(fov), float(direction))
    except (TypeError, ValueError, OverflowError) as exc:
        raise FieldFormatError(line_no, f"bad value: {exc}") from None
    return sensor_id, numbers, on


def _finite_rules(poses: Poses) -> list[tuple[np.ndarray, str, np.ndarray]]:
    """One rule per number a line holds, in file order: it must be finite."""
    on = poses.directional
    numbers = (
        ("x", poses.x, True),
        ("y", poses.y, True),
        ("radius", poses.radius, True),
        ("fov", poses.fov, on),
        ("direction", poses.direction, on),
    )
    return [
        (~np.isfinite(column) & held, f"{key} must be finite, got {{}}", column)
        for key, column, held in numbers
    ]


def _read_poses(path: str | Path) -> Poses:
    """The poses of a sensor-field file, in file order; errors carry the
    1-based line number, and a repeated id is reported on the line that
    repeats it."""
    lines: list[int] = []
    ids: list[int] = []
    numbers: list[tuple[float, ...]] = []
    directional: list[bool] = []
    stopped: FieldFormatError | None = None
    with open(path, "r", encoding="utf-8") as fp:
        for line_no, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                sensor_id, row, on = _parse_line(line, line_no)
            except FieldFormatError as exc:
                # a column check may still fail on an earlier line
                stopped = exc
                break
            lines.append(line_no)
            ids.append(sensor_id)
            numbers.append(row)
            directional.append(on)
    try:
        id_column = np.array(ids, dtype=np.int64)
    except OverflowError:
        # an id outside int64 fails the range rules, which name its line
        id_column = np.array(ids, dtype=object)
    flat = np.fromiter(chain.from_iterable(numbers), dtype=float, count=5 * len(numbers))
    x, y, radius, fov, direction = flat.reshape(-1, 5).T.copy()
    poses = Poses(
        id_column, x, y, radius, fov, direction, np.array(directional, dtype=bool)
    )
    fault = _first_fault(
        _finite_rules(poses)
        + _pose_rules(poses)
        + [(_repeats(id_column), "duplicate sensor id {}", id_column)]
    )
    if fault is not None:
        row, message = fault
        raise FieldFormatError(lines[row], message)
    if stopped is not None:
        raise stopped
    return poses


def read_sensors(path: str | Path) -> list[Sensor]:
    """Parse a sensor-field file into ``Sensor`` objects, in file order;
    errors are those of ``read_field``."""
    return _read_poses(path).sensors()


def read_field(path: str | Path, domain: Domain) -> SensorField:
    """Parse a sensor-field file straight into a field over ``domain``."""
    return SensorField.from_poses(_read_poses(path), domain)


# rows formatted at a time: a large field never holds all of its lines, or
# all of its numbers as Python objects, at once
_CHUNK = 8192


def _write_poses(poses: Poses, out: str | Path | IO[str]) -> None:
    """Write one file line per pose, keys in file order, numbers as
    ``float.__repr__``. A non-finite number could not be read back, so it
    is refused before anything is written."""
    fault = _first_fault(_finite_rules(poses))
    if fault is not None:
        row, message = fault
        raise ParameterError(f"sensor id {poses.ids.item(row)}: {message}")
    if hasattr(out, "write"):
        _write_lines(poses, out)
    else:
        with open(out, "w", encoding="utf-8") as fp:
            _write_lines(poses, fp)


def _write_lines(poses: Poses, fp: IO[str]) -> None:
    for start in range(0, poses.ids.size, _CHUNK):
        columns = (column[start : start + _CHUNK].tolist() for column in poses)
        fp.write("".join(
            f'{{"id": {i}, "kind": "directional", "x": {x!r}, "y": {y!r}, '
            f'"radius": {r!r}, "fov": {fov!r}, "direction": {c!r}}}\n'
            if on
            else f'{{"id": {i}, "kind": "omni", "x": {x!r}, "y": {y!r}, "radius": {r!r}}}\n'
            for i, x, y, r, fov, c, on in zip(*columns)
        ))


def write_field(field: SensorField, out: str | Path | IO[str]) -> None:
    """Write a field's sensors, in the order given, as a field file."""
    _write_poses(field.poses, out)


def write_sensors(sensors: Iterable[Sensor], out: str | Path | IO[str]) -> None:
    """Write sensors, in the order given, as a field file."""
    _write_poses(Poses.of(list(sensors)), out)
