"""Seeded deployment generation and the seed derivation scheme."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from barriercover.deployment import (
    RNG_ALGORITHM,
    DeploymentKind,
    DeploymentSpec,
    child_seed,
    generate,
)
from barriercover.model import ParameterError, SensorField, SensorKind


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(0, 30, 5) == child_seed(0, 30, 5)

    def test_sensitive_to_every_part(self):
        base = child_seed(0, 30, 5)
        assert child_seed(1, 30, 5) != base
        assert child_seed(0, 31, 5) != base
        assert child_seed(0, 30, 6) != base

    def test_order_matters(self):
        assert child_seed(1, 2) != child_seed(2, 1)

    def test_fits_numpy_seed(self):
        s = child_seed(123, 456)
        assert 0 <= s < 2**64
        np.random.default_rng(s)


class TestSpecValidation:
    def test_defaults(self):
        spec = DeploymentSpec(n=10, width=100.0)
        assert spec.kind is DeploymentKind.LINE
        assert spec.sensor_kind is SensorKind.DIRECTIONAL
        assert spec.fov == 90.0

    def test_string_enums_coerced(self):
        spec = DeploymentSpec(
            n=5, width=50.0, kind="poisson", sensor_kind="omni", fov=None
        )
        assert spec.kind is DeploymentKind.POISSON
        assert spec.sensor_kind is SensorKind.OMNI

    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            DeploymentSpec(n=-1, width=100.0)
        with pytest.raises(ParameterError):
            DeploymentSpec(n=10, width=0.0)
        with pytest.raises(ParameterError):
            DeploymentSpec(n=10, width=100.0, radius=0.0)
        with pytest.raises(ParameterError):
            DeploymentSpec(n=10, width=100.0, fov=0.0)
        with pytest.raises(ParameterError):
            DeploymentSpec(n=10, width=100.0, fov=None)
        with pytest.raises(ParameterError):
            DeploymentSpec(n=10, width=100.0, kind="hexagonal")
        with pytest.raises(ParameterError, match=r"^unknown sensor kind 'laser'$"):
            DeploymentSpec(n=10, width=100.0, sensor_kind="laser")
        for bad in (
            {"n": 10.5}, {"n": True}, {"seed": 1.5}, {"width": math.inf},
            {"strip_height": math.nan}, {"line_sigma": math.inf},
            {"radius": math.inf}, {"fov": math.nan},
            {"fov": math.nan, "sensor_kind": "omni"},
        ):
            with pytest.raises(ParameterError):
                DeploymentSpec(**{"n": 10, "width": 100.0, **bad})
        # a real number, never a bool: a fault names the field
        for name, bad in (
            ("width", True), ("width", "5"), ("strip_height", False),
            ("line_sigma", None), ("radius", [1]), ("fov", "90"),
            ("fov", np.True_), ("width", 3 + 0j),
        ):
            with pytest.raises(
                ParameterError, match=rf"^{name} must be a number, got {re.escape(repr(bad))}$"
            ):
                DeploymentSpec(**{"n": 10, "width": 100.0, name: bad})
        # omni sensors need no fov, but one that is given must be a number
        with pytest.raises(ParameterError, match=r"^fov must be a number, got '90'$"):
            DeploymentSpec(n=10, width=100.0, sensor_kind="omni", fov="90")

    def test_omni_needs_no_fov(self):
        spec = DeploymentSpec(n=10, width=100.0, sensor_kind="omni", fov=None)
        assert spec.fov is None

    def test_empty_deployment_is_allowed(self):
        field = generate(DeploymentSpec(n=0, width=100.0))
        assert field.sensors == ()
        assert field.domain == (0.0, 100.0)

    def test_round_trip(self):
        spec = DeploymentSpec(
            n=7, width=80.0, kind="poisson", radius=3.0, fov=45.0, seed=99
        )
        assert DeploymentSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_unknown_fields(self):
        data = DeploymentSpec(n=7, width=80.0).to_dict()
        data["tilt"] = 4.0
        with pytest.raises(ParameterError):
            DeploymentSpec.from_dict(data)

    def test_whole_numbers_are_stored_as_python_ints(self):
        spec = DeploymentSpec(n=np.int64(5), width=80.0, seed=np.uint32(3))
        assert (type(spec.n), type(spec.seed)) == (int, int)
        assert json.loads(json.dumps(spec.to_dict()))["n"] == 5

    def test_with_replaces(self):
        spec = DeploymentSpec(n=7, width=80.0)
        other = spec.with_(n=9, seed=3)
        assert (other.n, other.seed, other.width) == (9, 3, 80.0)


class TestGenerate:
    def test_deterministic_for_a_seed(self):
        spec = DeploymentSpec(n=40, width=200.0, seed=7)
        assert generate(spec).sensors == generate(spec).sensors

    def test_seed_changes_the_draw(self):
        a = generate(DeploymentSpec(n=40, width=200.0, seed=7))
        b = generate(DeploymentSpec(n=40, width=200.0, seed=8))
        assert a.sensors != b.sensors

    def test_ids_domain_and_ranges(self):
        spec = DeploymentSpec(n=50, width=120.0, seed=1)
        field = generate(spec)
        assert field.domain == (0.0, 120.0)
        assert [s.id for s in field.sensors] == list(range(50))
        for s in field.sensors:
            assert 0.0 <= s.position[0] <= 120.0
            assert s.kind is SensorKind.DIRECTIONAL
            assert 0.0 <= s.direction < 360.0
            assert s.radius == 10.0

    def test_poisson_ys_fill_the_strip(self):
        spec = DeploymentSpec(
            n=4000, width=100.0, kind="poisson", strip_height=6.0, seed=2
        )
        field = generate(spec)
        ys = np.array([s.position[1] for s in field.sensors])
        assert ys.min() >= 0.0 and ys.max() <= 6.0
        assert abs(ys.mean() - 3.0) < 0.2

    def test_line_ys_concentrate_on_the_axis(self):
        spec = DeploymentSpec(
            n=20000, width=100.0, kind="line", line_sigma=10.0, seed=3
        )
        field = generate(spec)
        ys = np.array([s.position[1] for s in field.sensors])
        assert abs(ys.mean()) < 0.25
        assert abs(ys.std() - 10.0) < 0.5

    def test_omni_generation(self):
        spec = DeploymentSpec(
            n=30, width=100.0, sensor_kind="omni", fov=None, seed=4
        )
        field = generate(spec)
        assert all(s.kind is SensorKind.OMNI for s in field.sensors)
        assert all(s.fov is None for s in field.sensors)

    def test_the_plane_leaves_the_intervals_alone(self):
        """Projections read x, radius, fov and direction only, so the y
        draws and the settings that shape them change no interval."""

        def same_intervals(a, b):
            return all(
                x.tobytes() == y.tobytes()
                for x, y in ((a.us, b.us), (a.vs, b.vs), (a.ids, b.ids))
            )

        line = DeploymentSpec(n=1000, width=300.0, seed=3)
        poisson = line.with_(kind="poisson")
        field = generate(line)
        redrawn = field.poses._replace(y=np.random.default_rng(5).normal(size=1000))
        assert not np.array_equal(redrawn.y, field.poses.y)
        assert same_intervals(SensorField.from_poses(redrawn, field.domain), field)
        assert same_intervals(generate(line.with_(line_sigma=3.0)), field)
        assert same_intervals(generate(line.with_(line_sigma=0.0)), field)
        assert same_intervals(
            generate(poisson.with_(strip_height=50.0)), generate(poisson)
        )

    def test_rng_algorithm_is_pinned(self):
        assert RNG_ALGORITHM == "numpy-pcg64"


def sector_extent(direction_deg: float, fov_deg: float) -> float:
    """Projected x extent of a unit-radius sector, derived from scratch."""
    h = math.radians(fov_deg) / 2.0
    t = math.radians(direction_deg)

    def wrap(angle: float) -> float:
        return (angle + math.pi) % (2.0 * math.pi) - math.pi

    pts = [0.0, math.cos(t - h), math.cos(t + h)]
    if abs(wrap(t)) <= h:
        pts.append(1.0)
    hi = max(pts)
    pts = [0.0, math.cos(t - h), math.cos(t + h)]
    if abs(wrap(t - math.pi)) <= h:
        pts.append(-1.0)
    lo = min(pts)
    return hi - lo


class TestProjectedExtentDistribution:
    def test_mean_extent_matches_quadrature(self):
        fov = 45.0
        expected, _ = quad(lambda d: sector_extent(d, fov), 0.0, 360.0)
        expected /= 360.0
        spec = DeploymentSpec(
            n=20000, width=1000.0, radius=10.0, fov=fov, seed=5
        )
        # a domain that clips nothing leaves the whole projections
        field = SensorField.from_poses(generate(spec).poses, (-math.inf, math.inf))
        extents = (field.vs - field.us).tolist()
        mean = sum(extents) / len(extents) / 10.0
        assert mean == pytest.approx(expected, rel=0.02)

    def test_omni_clipped_mean_matches_closed_form(self):
        spec = DeploymentSpec(
            n=20000, width=1000.0, sensor_kind="omni", fov=None,
            radius=10.0, seed=6,
        )
        field = generate(spec)
        lengths = (field.vs - field.us).tolist()
        assert len(lengths) == 20000
        assert sum(lengths) / len(lengths) == pytest.approx(19.9, rel=0.01)
