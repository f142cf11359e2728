"""Geometry and field plumbing: projection, clipping, discretization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from barriercover.model import (
    ParameterError,
    Sensor,
    SensorField,
    SensorKind,
    TargetSet,
    complement_segments,
    coverage_fraction,
    discretize,
    merge_segments,
)
from conftest import bits, make_field, pairs


def project(sensor):
    """The (u, v) of one sensor, through a field whose domain clips nothing."""
    field = SensorField.build([sensor], (-math.inf, math.inf))
    return field.us.item(0), field.vs.item(0)


class TestSensorValidation:
    def test_omni_constructor(self):
        s = Sensor.omni(3, 5.0, 1.0, 2.0)
        assert s.kind is SensorKind.OMNI
        assert (s.id, s.position, s.radius) == (3, (5.0, 1.0), 2.0)

    def test_directional_constructor(self):
        s = Sensor.directional(0, 1.0, 0.0, 3.0, fov=90.0, direction=45.0)
        assert s.kind is SensorKind.DIRECTIONAL
        assert (s.fov, s.direction) == (90.0, 45.0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ParameterError):
            Sensor.omni(0, 0.0, 0.0, 0.0)
        with pytest.raises(ParameterError):
            Sensor.omni(0, 0.0, 0.0, -1.0)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Sensor.omni(1, 5.0, math.inf, 1.0), "y must be finite, got inf"),
            (lambda: Sensor.omni(0, math.nan, 0.0, 1.0), "x must be finite, got nan"),
            (lambda: Sensor.omni(2, 1.0, 0.0, math.inf), "radius must be finite, got inf"),
            (lambda: Sensor.omni(3, 1.0, 0.0, math.nan), "radius must be finite, got nan"),
            (
                lambda: Sensor.directional(4, -math.inf, 0.0, 1.0, 90.0, 0.0),
                "x must be finite, got -inf",
            ),
        ],
        ids=["y-inf", "x-nan", "radius-inf", "radius-nan", "directional-x"],
    )
    def test_rejects_non_finite_numbers(self, make, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            make()

    def test_rejects_bad_fov(self):
        for fov in (0.0, -10.0, 361.0):
            with pytest.raises(ParameterError):
                Sensor.directional(0, 0.0, 0.0, 1.0, fov=fov, direction=0.0)

    def test_directional_requires_fov_and_direction(self):
        with pytest.raises(ParameterError):
            Sensor(
                id=0,
                kind=SensorKind.DIRECTIONAL,
                position=(0.0, 0.0),
                radius=1.0,
            )


class TestProjection:
    def test_omni_projects_symmetric(self):
        field = SensorField.build([Sensor.omni(4, 10.0, -3.0, 2.5)], (0.0, 20.0))
        assert pairs(field.us, field.vs) == [(7.5, 12.5)]
        assert field.ids.tolist() == [4]

    def test_facing_right(self):
        u, v = project(
            Sensor.directional(0, 10.0, 0.0, 4.0, fov=90.0, direction=0.0)
        )
        assert u == pytest.approx(10.0)
        assert v == pytest.approx(14.0)

    def test_facing_left(self):
        u, v = project(
            Sensor.directional(0, 10.0, 0.0, 4.0, fov=90.0, direction=180.0)
        )
        assert u == pytest.approx(6.0)
        assert v == pytest.approx(10.0)

    def test_facing_up_spans_cosine_edges(self):
        u, v = project(
            Sensor.directional(0, 0.0, 0.0, 1.0, fov=90.0, direction=90.0)
        )
        half = math.cos(math.radians(45.0))
        assert u == pytest.approx(-half)
        assert v == pytest.approx(half)

    def test_full_circle_equals_omni(self):
        d = project(
            Sensor.directional(0, 3.0, 1.0, 2.0, fov=360.0, direction=123.0)
        )
        o = project(Sensor.omni(0, 3.0, 1.0, 2.0))
        assert d == o

    def test_axis_ray_inside_sector_extends_to_radius(self):
        _u, v = project(
            Sensor.directional(0, 0.0, 0.0, 1.0, fov=40.0, direction=10.0)
        )
        assert v == pytest.approx(1.0)

    def test_sector_wrapping_zero_degrees(self):
        u, v = project(
            Sensor.directional(0, 0.0, 0.0, 1.0, fov=40.0, direction=350.0)
        )
        assert v == pytest.approx(1.0)
        assert u == pytest.approx(0.0)

    def test_projection_matches_sampled_sector(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            x = float(rng.uniform(-5.0, 5.0))
            r = float(rng.uniform(0.1, 4.0))
            fov = float(rng.uniform(5.0, 360.0))
            direction = float(rng.uniform(0.0, 360.0))
            u, v = project(
                Sensor.directional(0, x, 0.0, r, fov=fov, direction=direction)
            )
            thetas = direction + np.linspace(-fov / 2.0, fov / 2.0, 2001)
            pts = x + r * np.cos(np.radians(thetas))
            lo = min(float(pts.min()), x)
            hi = max(float(pts.max()), x)
            assert u <= lo + 1e-9
            assert v >= hi - 1e-9
            assert u == pytest.approx(lo, abs=1e-4)
            assert v == pytest.approx(hi, abs=1e-4)


class TestClip:
    def test_inside_untouched(self):
        field = make_field([(2.0, 5.0)], domain=(0.0, 10.0))
        assert pairs(field.us, field.vs) == [(2.0, 5.0)]

    def test_partial_overlap_trimmed(self):
        field = make_field([(-2.0, 5.0)], domain=(0.0, 10.0))
        assert pairs(field.us, field.vs) == [(0.0, 5.0)]

    def test_outside_is_dropped(self):
        field = make_field([(11.0, 15.0)], domain=(0.0, 10.0))
        assert field.ids.size == 0
        assert field.span_of(0) is None


class TestIntervalBasics:
    def test_interval_needs_order(self):
        with pytest.raises(ParameterError, match=r"^interval needs u <= v"):
            SensorField([3.0], [2.0], [0], (0.0, 10.0))

    def test_closed_cover_and_overlap(self):
        # closed intervals: sharing one endpoint leaves no hole between
        lo, hi = complement_segments([1.0, 3.0], [3.0, 5.0], (1.0, 5.0))
        assert pairs(lo, hi) == []
        lo, hi = complement_segments([1.0, 3.5], [3.0, 5.0], (1.0, 5.0))
        assert pairs(lo, hi) == [(3.0, 3.5)]

    def test_targets_sorted_and_indexable(self):
        ts = TargetSet((3.0, 1.0, 2.0))
        assert list(ts) == [1.0, 2.0, 3.0]
        assert len(ts) == 3 and ts[0] == 1.0


class TestTargetSet:
    def test_points_are_one_read_only_sorted_array(self):
        given = np.array([3.0, 1.0, 2.0])
        ts = TargetSet(given)
        assert ts.xs.dtype == np.float64 and ts.xs.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            ts.xs[0] = 5.0
        # the caller's array is copied, not sorted or frozen in place
        assert given.tolist() == [3.0, 1.0, 2.0] and given.flags.writeable

    def test_python_floats_out(self):
        ts = TargetSet((2, 1.5))
        assert [type(x) for x in ts] == [float, float]
        assert type(ts[-1]) is float and ts[-1] == 2.0

    def test_signed_zeros_keep_the_order_given(self):
        assert bits(TargetSet((0.0, -1.0, -0.0))) == bits([-1.0, 0.0, -0.0])
        assert bits(TargetSet((-0.0, 0.0))) == bits([-0.0, 0.0])

    def test_compares_by_identity(self):
        ts = TargetSet((1.0,))
        assert ts == ts
        assert ts != TargetSet((1.0,))
        assert len({ts, TargetSet((1.0,))}) == 2

    @pytest.mark.parametrize(
        "xs, bad",
        [
            ((math.nan, math.inf), "nan"),
            ((math.inf, math.nan), "inf"),
            ((2.0, -math.inf, math.nan, 1.0), "-inf"),
            (np.array([1.0, math.nan, -math.inf]), "nan"),
        ],
    )
    def test_first_non_finite_target_in_the_order_given(self, xs, bad):
        with pytest.raises(ParameterError, match=f"targets must be finite, got {bad}$"):
            TargetSet(xs)

    @pytest.mark.parametrize(
        "xs",
        [((1.0, 2.0),), ((1.0,), 2.0), (1.0, (2.0,)), np.ones((2, 1)), 1.0],
    )
    def test_nested_input_is_refused(self, xs):
        with pytest.raises(ParameterError):
            TargetSet(xs)


class TestSensorField:
    def test_intervals_sorted_canonically(self):
        field = make_field([(4.0, 8.0), (0.0, 6.0), (0.0, 3.0)])
        assert pairs(field.us, field.vs) == [(0.0, 3.0), (0.0, 6.0), (4.0, 8.0)]
        assert field.ids.tolist() == [2, 1, 0]

    def test_build_clips_and_drops(self):
        sensors = [
            Sensor.omni(0, -5.0, 0.0, 1.0),
            Sensor.omni(1, 1.0, 0.0, 3.0),
        ]
        field = SensorField.build(sensors, (0.0, 10.0))
        assert field.ids.tolist() == [1]
        assert field.span_of(0) is None
        assert field.span_of(1) == (0.0, 4.0)

    def test_without_removes_and_max_id_tracks_sensors(self):
        field = make_field([(0.0, 2.0), (1.0, 3.0), (2.0, 4.0)])
        assert field.max_id == 2
        reduced = field.without([1])
        assert reduced.ids.tolist() == [0, 2]
        assert reduced.max_id == 2


class TestDiscretize:
    def test_midpoints_of_elementary_cells(self):
        field = make_field([(0.0, 4.0), (2.0, 8.0)], domain=(0.0, 10.0))
        assert list(discretize(field)) == [1.0, 3.0, 6.0, 9.0]

    def test_uncovered_cells_still_contribute(self):
        field = make_field([(2.0, 4.0)], domain=(0.0, 10.0))
        assert list(discretize(field)) == [1.0, 3.0, 7.0]

    def test_requires_intervals(self):
        field = SensorField.build([], (0.0, 1.0))
        with pytest.raises(ParameterError):
            discretize(field)


class TestSegments:
    def test_merge_joins_touching(self):
        blocks = merge_segments([4.0, 0.0, 9.0], [8.0, 4.0, 10.0])
        assert pairs(*blocks) == [(0.0, 8.0), (9.0, 10.0)]

    def test_complement_reports_holes(self):
        holes = complement_segments([1.0, 5.0], [3.0, 6.0], (0.0, 10.0))
        assert pairs(*holes) == [(0.0, 1.0), (3.0, 5.0), (6.0, 10.0)]

    def test_complement_empty_when_covered(self):
        assert pairs(*complement_segments([0.0], [10.0], (0.0, 10.0))) == []

    def test_complement_ignores_outside_mass(self):
        holes = complement_segments([-5.0, 8.0], [2.0, 20.0], (0.0, 10.0))
        assert pairs(*holes) == [(2.0, 8.0)]


class TestCoverageFraction:
    def test_half_covered(self):
        frac = coverage_fraction([0.0, 8.0], [3.0, 10.0], (0.0, 10.0))
        assert frac == pytest.approx(0.5)

    def test_rejects_empty_domain(self):
        with pytest.raises(ParameterError):
            coverage_fraction([], [], (3.0, 3.0))
