"""Seeded random sensor deployments over a rectangular strip.

Two placement models:

* line-based: x uniform on [0, width], y normal around the strip axis
  with standard deviation ``line_sigma``;
* poisson: x and y both uniform over the strip (a binomial point process,
  the fixed-count view of a Poisson scatter).

Determinism contract: one ``numpy`` PCG64 generator seeded with
``spec.seed``; draws happen in a fixed order (all x, then all y, then all
directions when the sensors are directional). Campaign code derives one
child seed per (base seed, sweep index, realization, attempt) through
``child_seed``, which folds the parts with ``numpy.random.SeedSequence``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .model import ParameterError, Poses, SensorField, _count, _sensor_kind

RNG_ALGORITHM = "numpy-pcg64"


def child_seed(*parts: int) -> int:
    """Fold non-negative integer parts into one 64-bit stream seed."""
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class DeploymentSpec:
    """Parameters of one random deployment.

    ``kind`` is the string ``"line"`` or ``"poisson"`` and ``sensor_kind``
    ``"omni"`` or ``"directional"`` (``_sensor_kind``); each is kept as a
    plain ``str``, and anything else is a ``ParameterError``.

    Projections read only x, radius, fov and direction, so redrawing y, or
    changing ``line_sigma`` or ``strip_height``, leaves every interval
    bit-identical.
    """

    n: int
    width: float
    strip_height: float = 10.0
    kind: str = "line"
    line_sigma: float = 10.0
    radius: float = 10.0
    fov: float = 90.0
    sensor_kind: str = "directional"
    seed: int = 0

    def __post_init__(self) -> None:
        kind = self.kind
        if not (isinstance(kind, str) and kind in ("line", "poisson")):
            raise ParameterError(f"unknown deployment kind {kind!r}")
        object.__setattr__(self, "kind", str(kind))
        object.__setattr__(self, "sensor_kind", _sensor_kind(self.sensor_kind))
        for name in ("n", "seed"):
            object.__setattr__(self, name, _count(name, getattr(self, name), 0))
        for name in ("width", "strip_height", "line_sigma", "radius", "fov"):
            value = getattr(self, name)
            if value is None and name == "fov":
                continue  # an omni sensor needs no fov
            # a real number, never a bool; the ``is`` test spares the rest
            if type(value) is not float and (
                isinstance(value, bool) or not isinstance(value, numbers.Real)
            ):
                raise ParameterError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if not self.width > 0:
            raise ParameterError(f"width must be > 0, got {self.width}")
        if self.strip_height < 0:
            raise ParameterError(f"strip_height must be >= 0, got {self.strip_height}")
        if self.line_sigma < 0:
            raise ParameterError(f"line_sigma must be >= 0, got {self.line_sigma}")
        if not self.radius > 0:
            raise ParameterError(f"radius must be > 0, got {self.radius}")
        if self.sensor_kind == "directional" and (
            self.fov is None or not 0 < self.fov <= 360
        ):
            raise ParameterError(f"fov must be in (0, 360], got {self.fov}")

    def with_(self, **kwargs) -> "DeploymentSpec":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "width": self.width,
            "strip_height": self.strip_height,
            "kind": self.kind,
            "line_sigma": self.line_sigma,
            "radius": self.radius,
            "fov": self.fov,
            "sensor_kind": self.sensor_kind,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DeploymentSpec":
        if not isinstance(data, dict):
            raise TypeError(f"deployment must be a JSON object, got {data!r}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ParameterError(f"unknown deployment fields: {sorted(unknown)}")
        return cls(**data)


def generate(spec: DeploymentSpec) -> SensorField:
    """Deploy ``spec.n`` sensors with ids 0..n-1; domain is [0, width].

    The draws go straight into the field's pose arrays; ``Sensor`` objects
    are made only if ``field.sensors`` is read. They meet the pose rules
    by construction, save one: the ids are 0..n-1, x lies in [0, width)
    with width finite, radius and fov come from the checked spec, and a
    direction is at most 360 * (1 - 2**-53) < 360. A line deployment's y
    is ``line_sigma`` times a normal draw, which overflows for a huge
    finite sigma, so only y is checked, with the message of
    ``from_poses``.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    xs = rng.uniform(0.0, spec.width, n)
    if spec.kind == "line":
        ys = rng.normal(0.0, spec.line_sigma, n)
    else:
        ys = rng.uniform(0.0, spec.strip_height, n)
    bad = np.flatnonzero(~np.isfinite(ys))
    if bad.size:
        raise ParameterError(f"y must be finite, got {ys.item(bad[0])}")
    directional = spec.sensor_kind == "directional"
    if directional:
        fov, direction = spec.fov, rng.uniform(0.0, 360.0, n)
    else:
        fov, direction = np.nan, np.full(n, np.nan)
    poses = Poses(
        ids=np.arange(n, dtype=np.int64),
        x=xs,
        y=ys,
        radius=np.full(n, spec.radius, dtype=float),
        fov=np.full(n, fov, dtype=float),
        direction=direction,
        directional=np.full(n, directional),
    )
    return SensorField._from_checked(poses, (0.0, spec.width))
