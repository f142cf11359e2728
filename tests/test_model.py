"""Geometry and field plumbing: projection, clipping, discretization."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from barriercover.algorithms import (
    SelectionResult,
    augment_with_gap_sensors,
    find_gaps,
    k_oga,
    logm,
    oga_continuous,
    single_failure_counts,
)
from barriercover.baselines import (
    brute_force_min_kcover,
    build_barrier_graph,
    k_disjoint_paths,
)
from barriercover.model import (
    ParameterError,
    Poses,
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


DOMAIN = (0.0, 10.0)


def build_error(*sensors):
    """The message ``SensorField.build`` refuses the sensors with."""
    with pytest.raises(ParameterError) as info:
        SensorField.build(sensors, DOMAIN)
    return str(info.value)


class TestSensorValidation:
    """A ``Sensor`` is a plain record; ``SensorField.build`` refuses a bad
    one with the message the former per-sensor checks gave."""

    def test_omni_constructor(self):
        s = Sensor.omni(3, 5.0, 1.0, 2.0)
        assert s.kind is SensorKind.OMNI
        assert (s.id, s.position, s.radius) == (3, (5.0, 1.0), 2.0)

    def test_directional_constructor(self):
        s = Sensor.directional(0, 1.0, 0.0, 3.0, fov=90.0, direction=45.0)
        assert s.kind is SensorKind.DIRECTIONAL
        assert (s.fov, s.direction) == (90.0, 45.0)

    def test_a_record_is_slotted_and_round_trips(self):
        for s in (Sensor.omni(3, 5.0, 1.0, 2.0), Sensor.directional(4, 1.0, 0.0, 3.0, 90.0, 45.0)):
            twin = dataclasses.replace(s)
            assert twin == s and hash(twin) == hash(s) and twin is not s
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(s, protocol)) == s
            assert copy.deepcopy(s) == s
            moved = dataclasses.replace(s, radius=7.0)
            assert (moved.radius, moved.id, moved.kind) == (7.0, s.id, s.kind)
            assert moved != s
            assert not hasattr(s, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                s.radius = 1.0
            # past the frozen guard, a slotted record has nowhere to put it
            with pytest.raises(AttributeError):
                object.__setattr__(s, "tilt", 1.0)

    def test_a_record_checks_nothing_when_made(self):
        s = Sensor.omni(-1, math.nan, 0.0, -2.0)
        assert (s.id, s.radius) == (-1, -2.0)
        assert math.isnan(s.position[0])

    def test_rejects_nonpositive_radius(self):
        assert build_error(Sensor.omni(0, 0.0, 0.0, 0.0)) == "radius must be > 0, got 0.0"
        assert build_error(Sensor.omni(0, 0.0, 0.0, -1.0)) == "radius must be > 0, got -1.0"

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
            SensorField.build([make()], DOMAIN)

    def test_rejects_bad_fov(self):
        for fov in (0.0, -10.0, 361.0):
            sensor = Sensor.directional(0, 0.0, 0.0, 1.0, fov=fov, direction=0.0)
            assert build_error(sensor) == f"fov must be in (0, 360], got {fov}"

    def test_directional_requires_fov_and_direction(self):
        sensor = Sensor(
            id=0,
            kind=SensorKind.DIRECTIONAL,
            position=(0.0, 0.0),
            radius=1.0,
        )
        assert build_error(sensor) == "fov must be a number, got None"

    @pytest.mark.parametrize(
        "sensor_id, shown", [(1.5, "1.5"), (True, "True"), ("2", "'2'"), (None, "None")]
    )
    def test_ids_must_be_integers(self, sensor_id, shown):
        sensor = Sensor.omni(sensor_id, 5.0, 0.0, 2.0)
        assert build_error(sensor) == f"id must be an integer, got {shown}"

    def test_numpy_integer_ids_are_ids(self):
        sensors = [
            Sensor.omni(np.int64(3), 5.0, 0.0, 2.0),
            Sensor.omni(np.uint8(7), 1.0, 0.0, 1.0),
        ]
        assert SensorField.build(sensors, DOMAIN).ids.tolist() == [7, 3]

    def test_string_kinds_are_kinds(self):
        by_name = [
            Sensor(id=0, kind="directional", position=(0.0, 0.0), radius=1.0,
                   fov=90.0, direction=0.0),
            Sensor(id=1, kind="omni", position=(5.0, 0.0), radius=2.0),
        ]
        by_member = [
            Sensor.directional(0, 0.0, 0.0, 1.0, 90.0, 0.0),
            Sensor.omni(1, 5.0, 0.0, 2.0),
        ]
        got = SensorField.build(by_name, DOMAIN)
        want = SensorField.build(by_member, DOMAIN)
        for name, a, b in zip(got.poses._fields, got.poses, want.poses):
            assert bits(a) == bits(b), name
        assert bits(got.us) == bits(want.us) and bits(got.vs) == bits(want.vs)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(kind="x"), "unknown sensor kind 'x'"),
            (dict(kind=None), "unknown sensor kind None"),
            (dict(position=None), "sensors need a position"),
            (
                dict(position=(1.0, 0.0, 3.0)),
                "position must be a pair (x, y), got (1.0, 0.0, 3.0)",
            ),
            (dict(position=(1.0,)), "position must be a pair (x, y), got (1.0,)"),
            (dict(position=1.0), "position must be a pair (x, y), got 1.0"),
            (dict(position=("1.0", 0.0)), "x must be a number, got '1.0'"),
            (dict(radius=None), "radius must be a number, got None"),
            (
                dict(kind="directional", fov=90.0, direction=[0.0]),
                "direction must be a number, got [0.0]",
            ),
            (dict(direction=0.0), "fov/direction apply to directional sensors only"),
        ],
        ids=["kind", "kind-none", "position", "position-triple",
             "position-single", "position-float", "x-text", "radius-none",
             "direction-list", "omni-direction"],
    )
    def test_what_a_column_cannot_hold(self, fields, message):
        sensor = Sensor(**{"id": 0, "position": (0.0, 0.0), "radius": 1.0, **fields})
        assert build_error(sensor) == message

    def test_a_column_fault_is_found_before_the_range_rules(self):
        # the range rules run over columns, which a record fault stops
        # from being made
        bad_range = Sensor.omni(0, 1.0, 0.0, -1.0)
        assert build_error(bad_range, Sensor.omni(1.5, 1.0, 0.0, 1.0)) == (
            "id must be an integer, got 1.5"
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

    @pytest.mark.parametrize(
        "u, v, shown",
        [(0.0, math.inf, "[0.0, inf]"), (-math.inf, 1.0, "[-inf, 1.0]"),
         (math.inf, math.inf, "[inf, inf]")],
        ids=["inf-v", "-inf-u", "both"],
    )
    def test_interval_needs_finite_ends(self, u, v, shown):
        # an unbounded domain is still a field's to hold
        SensorField([0.0], [1.0], [0], (-math.inf, math.inf))
        message = f"interval needs finite ends, got {shown}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            SensorField([2.0, u], [3.0, v], [0, 1], (0.0, 10.0))

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

    @pytest.mark.parametrize(
        "ids, message",
        [
            # a repeated id would name one sensor for two rows: a selection
            # of id 5 would claim both spans
            ([5, 5], "duplicate sensor id 5"),
            ([0, -1], "sensor id must be >= 0, got -1"),
            ([2**63, 0], f"sensor id must be < 2**63, got {2**63}"),
            ((0, 2**64), f"sensor id must be < 2**63, got {2**64}"),
        ],
        ids=["repeat", "negative", "2**63", "2**64"],
    )
    def test_intervals_enter_with_the_id_rules_of_poses(self, ids, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            SensorField([0.0, 1.0], [1.0, 2.0], ids, (0.0, 2.0))

    @pytest.mark.parametrize(
        "ids, shown",
        [
            ([1.5, 2.7], "1.5"),
            ([True, False], "True"),
            ([0, True], "True"),
            ([0, "1"], "'1'"),
            ([[0], [1]], r"\[0\]"),
            ([[0], 1], r"\[0\]"),
        ],
        ids=["floats", "bools", "a-bool-among-ints", "a-string", "nested", "ragged"],
    )
    def test_interval_ids_are_integers_as_sensor_ids_are(self, ids, shown):
        with pytest.raises(ParameterError, match=f"^id must be an integer, got {shown}$"):
            SensorField([0.0, 1.0], [1.0, 2.7], ids, (0.0, 2.0))
        sensors = [Sensor.omni(i, 1.0, 0.0, 1.0) for i in ids]
        with pytest.raises(ParameterError, match=f"^id must be an integer, got {shown}$"):
            SensorField.build(sensors, (0.0, 2.0))

    def test_span_of_takes_one_id(self):
        field = make_field([(0.0, 2.0), (1.0, 3.0)])
        assert field.span_of(np.int64(1)) == (1.0, 3.0)
        with pytest.raises(ParameterError, match=r"^id must be an integer, got \[0, 1\]$"):
            field.span_of([0, 1])

    def test_integer_arrays_are_ids(self):
        arrays = (np.array([4, 2], dtype=np.int32), np.array([4, 2], dtype=np.uint64))
        for ids in (*arrays, [np.int64(4), 2]):
            assert SensorField([0.0, 1.0], [1.0, 2.0], ids, (0.0, 2.0)).ids.tolist() == [4, 2]

    @pytest.mark.parametrize(
        "us, vs, ids",
        [([0.0, 1.0], [1.0], [0, 1]), ([0.0], [1.0, 2.0], [0, 1]), ([0.0, 1.0], [1.0, 2.0], [0])],
        ids=["vs", "us", "ids"],
    )
    def test_intervals_need_one_length(self, us, vs, ids):
        sizes = f"{len(us)}, {len(vs)} and {len(ids)}"
        with pytest.raises(ParameterError, match=f"^us, vs and ids need one length, got {sizes}$"):
            SensorField(us, vs, ids, (0.0, 2.0))

    def test_poses_do_not_switch_the_id_rules_off(self):
        # the constructor takes no poses; only fields built from checked
        # poses or from a field's own rows skip the id rules
        with pytest.raises(TypeError):
            SensorField([0.0, 1.0], [1.0, 2.0], [5, 5], (0.0, 2.0), Poses.of(()))


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


def _on_domain(field, domain):
    """A copy of the field on another domain, set after construction so
    that even a NaN end, which a field refuses, reaches the segment gate
    of a function that reads the field's own domain."""
    field = copy.copy(field)
    field.domain = domain
    return field


class TestInputGates:
    """Each input rule has one gate; every entry point that takes such an
    input goes through it."""

    FIELD = [(0.0, 4.0), (3.0, 10.0)]

    @pytest.mark.parametrize(
        "select",
        [
            lambda field, domain: oga_continuous(field, domain),
            lambda field, domain: logm(
                oga_continuous(field, field.domain), [], field, domain, ()
            ),
            single_failure_counts,
            build_barrier_graph,
            lambda field, domain: coverage_fraction(field.us, field.vs, domain),
            lambda field, domain: find_gaps(
                oga_continuous(field, field.domain), [], field, domain
            ),
            lambda field, domain: discretize(_on_domain(field, domain)),
        ],
        ids=[
            "oga_continuous", "logm", "single_failure_counts",
            "build_barrier_graph", "coverage_fraction", "find_gaps", "discretize",
        ],
    )
    def test_a_covered_segment_is_bounded(self, select):
        field = make_field(self.FIELD, domain=(0.0, 10.0))
        for domain, message in (
            ((0.0, math.inf), r"domain must be finite, got \[0.0, inf\]"),
            ((-math.inf, 10.0), r"domain must be finite, got \[-inf, 10.0\]"),
            ((math.nan, 10.0), r"domain needs a < b, got \[nan, 10.0\]"),
            ((0.0, math.nan), r"domain needs a < b, got \[0.0, nan\]"),
            ((5.0, 5.0), r"domain needs a < b, got \[5.0, 5.0\]"),
        ):
            with pytest.raises(ParameterError, match=f"^{message}$"):
                select(field, domain)

    def test_a_field_holds_unbounded_and_one_point_domains_but_not_nan(self):
        sensors = [Sensor.omni(0, 1.0, 0.0, 2.0)]
        assert SensorField.build(sensors, (-math.inf, math.inf)).ids.tolist() == [0]
        assert SensorField.build(sensors, (3.0, 3.0)).ids.tolist() == [0]
        for domain in ((math.nan, 1.0), (0.0, math.nan), (2.0, 1.0)):
            with pytest.raises(ParameterError, match=r"^domain needs a <= b"):
                SensorField.build(sensors, domain)

    @pytest.mark.parametrize(
        "select",
        [
            lambda field, k: k_oga(field, discretize(field), k),
            lambda field, k: augment_with_gap_sensors(field, discretize(field), k),
            lambda field, k: k_disjoint_paths(build_barrier_graph(field, field.domain), k),
            lambda field, k: brute_force_min_kcover(field, discretize(field), k),
        ],
        ids=["k_oga", "augment_with_gap_sensors", "k_disjoint_paths",
             "brute_force_min_kcover"],
    )
    def test_k_is_a_whole_number_of_barriers(self, select):
        field = make_field(self.FIELD, domain=(0.0, 10.0))
        for k, message in (
            (2.5, "k must be an integer, got 2.5"),
            (True, "k must be an integer, got True"),
            (np.float64(2.0), "k must be an integer, got .*"),
            (0, "k must be >= 1, got 0"),
        ):
            with pytest.raises(ParameterError, match=f"^{message}$"):
                select(field, k)
        assert select(field, np.int64(2)) == select(field, 2)

    # what is not a sensor id, with the message of the id gate
    NOT_IDS = {
        "1.5": (1.5, "id must be an integer, got 1.5"),
        "True": (True, "id must be an integer, got True"),
        "-1": (-1, "sensor id must be >= 0, got -1"),
        "2**63": (2**63, f"sensor id must be < 2**63, got {2**63}"),
        "nan": (math.nan, "id must be an integer, got nan"),
        "str": ("3", "id must be an integer, got '3'"),
        "None": (None, "id must be an integer, got None"),
        "0-d-array": (np.array(3), "id must be an integer, got array(3)"),
    }

    # the same as id arrays, each ending in what is not a sensor id; a
    # message shows the id as the array holds it
    NOT_ID_COLUMNS = {
        **{key: ([value], message) for key, (value, message) in NOT_IDS.items()},
        "int64": (np.array([3, -1]), "sensor id must be >= 0, got -1"),
        "uint64-past-int64": (
            np.array([3, 2**63], dtype=np.uint64),
            f"sensor id must be < 2**63, got {2**63}",
        ),
        "bool-array": (np.array([True]), f"id must be an integer, got {np.True_!r}"),
        "float-array": (np.array([1.5]), f"id must be an integer, got {np.float64(1.5)!r}"),
        "whole-float-array": (
            np.array([3.0]),
            f"id must be an integer, got {np.float64(3.0)!r}",
        ),
        "2-D-array": (np.array([[1, 3]]), f"id must be an integer, got {np.array([1, 3])!r}"),
    }

    @pytest.mark.parametrize(
        "ids, message", NOT_ID_COLUMNS.values(), ids=NOT_ID_COLUMNS.keys()
    )
    @pytest.mark.parametrize(
        "door",
        [
            lambda field, ids: SensorField(
                np.zeros(len(ids)), np.ones(len(ids)), ids, (0.0, 1.0)
            ),
            lambda field, ids: SensorField.build(
                [Sensor.omni(ids[-1], 1.0, 0.0, 1.0)], (0.0, 1.0)
            ),
            lambda field, ids: field.span_of(ids[-1]),
            lambda field, ids: field.without(ids),
        ],
        ids=["SensorField", "build", "span_of", "without"],
    )
    def test_every_field_door_refuses_what_is_not_an_id(self, door, ids, message):
        # the field holds sensors 1 and 3: True, 1.5 and "3" would pass for them
        field = make_field([(0.0, 1.0), (1.0, 4.0), (3.0, 10.0), (5.0, 6.0)], domain=(0.0, 10.0))
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            door(field, ids)

    @pytest.mark.parametrize(
        "door, shown",
        [
            (lambda field: field.without(3), "3"),
            (lambda field: field.without(np.array(3)), "array(3)"),
            (lambda field: SensorField([0.0], [1.0], np.array(3), (0.0, 1.0)), "array(3)"),
        ],
        ids=["without-int", "without-0-d-array", "SensorField-0-d-array"],
    )
    def test_a_lone_id_is_not_a_sequence_of_ids(self, door, shown):
        # the field holds sensor 3, which a lone 3 would name
        field = make_field([(0.0, 1.0), (1.0, 4.0), (3.0, 10.0), (5.0, 6.0)], domain=(0.0, 10.0))
        message = f"ids must be a sequence of integers, got {shown}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            door(field)

    # each failed list with its first entry that a result file refuses and
    # its strays: the integers in ascending order, then the rest as given
    FAILED = {
        **{key: ([value], repr(value), f"[{value!r}]") for key, (value, _) in NOT_IDS.items()},
        "str-and-int": (["3", 99], "'3'", "[99, '3']"),
        "float-and-str": ([1.5, "x"], "1.5", "[1.5, 'x']"),
        "nested": ([[1]], "[1]", "[[1]]"),
    }

    @pytest.mark.parametrize("failed, first, strays", FAILED.values(), ids=FAILED.keys())
    def test_result_files_and_the_mender_keep_their_errors(self, failed, first, strays):
        field = make_field(self.FIELD, domain=(0.0, 10.0))
        result = oga_continuous(field, field.domain)
        assert result.selected_ids == (0, 1)  # True would pass for sensor 1
        refused = f"selected ids must be integers in [0, 2**63), got {first}"
        with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
            SelectionResult.from_dict({"selected": failed})
        never = f"^{re.escape(f'failed ids {strays} were never selected')}$"
        with pytest.raises(ParameterError, match=never):
            find_gaps(result, failed, field, field.domain)
        with pytest.raises(ParameterError, match=never):
            logm(result, [], field, field.domain, failed)

    def test_target_lists_are_coerced_once_and_never_empty(self):
        field = make_field([(2.0, 4.0)], domain=(0.0, 10.0))
        spans = augment_with_gap_sensors(field, [1.0], 1)
        assert spans == {1: (1.0, 1.0)}
        assert spans == k_oga(field, [1.0], 1).virtual_spans
        for select in (
            lambda targets: TargetSet(targets),
            lambda targets: augment_with_gap_sensors(field, targets, 1),
            lambda targets: brute_force_min_kcover(field, targets, 1),
        ):
            with pytest.raises(ParameterError, match="^targets must be non-empty$"):
                select([])
