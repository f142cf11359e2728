"""Reading and writing sensor fields and selection results.

A sensor-field file holds one JSON object per line:

    {"id": 0, "kind": "omni", "x": 5.0, "y": 1.0, "radius": 3.0}
    {"id": 1, "kind": "directional", "x": 9.0, "y": 0.0, "radius": 2.0,
     "fov": 90.0, "direction": 180.0}

``fov`` and ``direction`` are required for directional sensors and must
be absent for omnidirectional ones. Virtual sensors never appear in input
files. Parse problems raise ``FieldFormatError`` carrying the offending
line number.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import IO, Iterable

from .model import Domain, ParameterError, Sensor, SensorField, SensorKind


class FieldFormatError(ValueError):
    """A sensor-field file failed to parse; ``line`` is 1-based."""

    def __init__(self, line: int, message: str) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}")


_REQUIRED = ("id", "kind", "x", "y", "radius")
_NUMBERS = {
    SensorKind.OMNI: ("x", "y", "radius"),
    SensorKind.DIRECTIONAL: ("x", "y", "radius", "fov", "direction"),
}


def _sensor_from_obj(obj: dict, line_no: int) -> Sensor:
    if not isinstance(obj, dict):
        raise FieldFormatError(line_no, "expected a JSON object")
    missing = [k for k in _REQUIRED if k not in obj]
    if missing:
        raise FieldFormatError(line_no, f"missing fields: {missing}")
    known = set(_REQUIRED) | {"fov", "direction"}
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
    keys = _NUMBERS[kind]
    try:
        sensor_id = int(obj["id"])
        nums = [float(obj[key]) for key in keys]
    except (TypeError, ValueError, OverflowError) as exc:
        raise FieldFormatError(line_no, f"bad value: {exc}") from None
    if not all(map(math.isfinite, nums)):
        key, value = next(kv for kv in zip(keys, nums) if not math.isfinite(kv[1]))
        raise FieldFormatError(line_no, f"{key} must be finite, got {value}")
    try:
        if kind is SensorKind.DIRECTIONAL:
            return Sensor.directional(sensor_id, *nums)
        return Sensor.omni(sensor_id, *nums)
    except ParameterError as exc:
        raise FieldFormatError(line_no, str(exc)) from None


def read_sensors(path: str | Path) -> list[Sensor]:
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
            sensor = _sensor_from_obj(obj, line_no)
            if sensor.id in seen:
                raise FieldFormatError(line_no, f"duplicate sensor id {sensor.id}")
            seen.add(sensor.id)
            sensors.append(sensor)
    return sensors


def read_field(path: str | Path, domain: Domain) -> SensorField:
    return SensorField.build(read_sensors(path), domain)


def sensor_to_obj(sensor: Sensor) -> dict:
    if sensor.virtual:
        raise ParameterError("virtual sensors never appear in field files")
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


def field_lines(sensors: Iterable[Sensor]) -> str:
    return "".join(json.dumps(sensor_to_obj(s)) + "\n" for s in sensors)


def write_sensors(sensors: Iterable[Sensor], out: str | Path | IO[str]) -> None:
    text = field_lines(sensors)
    if hasattr(out, "write"):
        out.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")
