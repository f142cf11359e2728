"""Reading and writing sensor-field files.

A sensor-field file holds one JSON object per line:

    {"id": 0, "kind": "omni", "x": 5.0, "y": 1.0, "radius": 3.0}
    {"id": 1, "kind": "directional", "x": 9.0, "y": 0.0, "radius": 2.0,
     "fov": 90.0, "direction": 180.0}

``id`` is a JSON integer. ``fov`` and ``direction`` are required for
directional sensors and must be absent for omnidirectional ones. Virtual
sensors never appear in input files. Selection results have no reader
here: ``SelectionResult.to_dict`` and ``from_dict`` turn them into JSON
objects and back, and the command line reads and writes their files.

The reader parses each line into row buffers, with a row-to-line list,
and every ``_CHUNK`` rows moves them into column arrays, which it joins
into the ``Poses`` columns once the file ends. Per line it only decodes
the JSON, checks the keys, the kind and the id type, and converts the
numbers; ``_file_rules`` (the finiteness of each number, in file order,
then every pose rule of the model, duplicate ids included) then runs
once over the whole file's columns. Every parse problem raises
``FieldFormatError`` carrying the line it comes from, and when several
lines are bad, the first one is reported with the message a line-by-line
reader would give. The writer checks the same
rules before it writes, so it never writes a file that the reader
refuses, and formats every line from the columns, numbers as
``float.__repr__``. Reading and writing each hold at most one chunk of
rows as Python objects.
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
    _id_column,
    _pose_rules,
)


class FieldFormatError(ValueError):
    """A sensor-field file failed to parse; ``line`` is 1-based."""

    def __init__(self, line: int, message: str) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}")


_REQUIRED = ("id", "kind", "x", "y", "radius")
_raw_decode = json.JSONDecoder().raw_decode

# rows parsed or formatted at a time: reading and writing each hold at most
# this many rows as Python objects, never all of a large field's lines or
# numbers at once
_CHUNK = 8192


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


def _file_rules(poses: Poses) -> list[tuple[np.ndarray, str, np.ndarray]]:
    """Every rule the poses of a field file must meet: first one per number
    a line holds, in file order, that it be finite, then the pose rules."""
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
    ] + _pose_rules(poses)


def _read_poses(path: str | Path) -> Poses:
    """The poses of a sensor-field file, in file order; errors carry the
    1-based line number, and a repeated id is reported on the line that
    repeats it. Every ``_CHUNK`` rows the parsed values move into column
    arrays, joined once the file ends."""
    lines: list[int] = []
    ids: list[int] = []
    numbers: list[tuple[float, ...]] = []
    directional: list[bool] = []
    chunks: list[tuple[np.ndarray, ...]] = []
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
            if len(lines) == _CHUNK:
                chunks.append(_columns(lines, ids, numbers, directional))
    chunks.append(_columns(lines, ids, numbers, directional))
    line_of, *columns = map(np.concatenate, zip(*chunks))
    # freed before the checks and the projection, which lowers the peak
    del chunks
    poses = Poses(*columns)
    fault = _first_fault(_file_rules(poses))
    if fault is not None:
        row, message = fault
        raise FieldFormatError(line_of.item(row), message)
    if stopped is not None:
        raise stopped
    return poses


def _columns(lines, ids, numbers, directional) -> tuple[np.ndarray, ...]:
    """The row buffers of ``_read_poses`` as the line-number column followed
    by the ``Poses`` columns; the buffers are emptied."""
    flat = np.fromiter(chain.from_iterable(numbers), dtype=float, count=5 * len(numbers))
    columns = (
        np.array(lines, dtype=np.int64),
        _id_column(ids),
        *flat.reshape(-1, 5).T,
        np.array(directional, dtype=bool),
    )
    for buffer in (lines, ids, numbers, directional):
        buffer.clear()
    return columns


def read_sensors(path: str | Path) -> list[Sensor]:
    """Parse a sensor-field file into ``Sensor`` objects, in file order;
    errors are those of ``read_field``."""
    return _read_poses(path).sensors()


def read_field(path: str | Path, domain: Domain) -> SensorField:
    """Parse a sensor-field file straight into a field over ``domain``."""
    # ``_read_poses`` has checked the pose rules with the file's
    return SensorField._from_checked(_read_poses(path), domain)


def _write_poses(poses: Poses, out: str | Path | IO[str]) -> None:
    """Write one file line per pose, keys in file order, numbers as
    ``float.__repr__``. A pose that the reader would refuse could not be
    read back, so it is refused before anything is written."""
    fault = _first_fault(_file_rules(poses))
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
    """Write a field's sensors, in the order given, as a field file. A row
    with no pose (a field built from intervals) could not be written, so
    such a field is refused before anything is written."""
    lost = np.flatnonzero(~np.isin(field.ids, field.poses.ids))
    if lost.size:
        raise ParameterError(f"sensor id {field.ids.item(lost[0])}: row has no pose")
    _write_poses(field.poses, out)


def write_sensors(sensors: Iterable[Sensor], out: str | Path | IO[str]) -> None:
    """Write sensors, in the order given, as a field file."""
    _write_poses(Poses.of(sensors), out)
