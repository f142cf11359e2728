"""The vectorized projection kernel against the scalar per-sensor oracle.

A field's clipped intervals must carry the same IEEE bits as projecting,
clipping and sorting one sensor at a time (``conftest.oracle_project``,
``oracle_clip`` and ``oracle_table``), signed zeros included, and list the
same ids in the same canonical order. The checks the per-sensor objects
once made (``conftest.oracle_check_sensor``) must survive as whole-column
checks with the same messages.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barriercover import (
    DeploymentSpec,
    ParameterError,
    Poses,
    Sensor,
    SensorField,
    generate,
)
from conftest import bits, oracle_check_sensor, oracle_generate, oracle_table

DOMAIN = (0.0, 100.0)
A, B = DOMAIN
# the domain ends, one ulp either side of them, and both zeros
MARKS = [
    A,
    B,
    math.nextafter(A, -math.inf),
    math.nextafter(A, math.inf),
    math.nextafter(B, -math.inf),
    math.nextafter(B, math.inf),
    -0.0,
]
# subnormal, smallest normal and huge radii
RADII = [5e-324, 1e-310, 2.2250738585072014e-308, 1e300, 1.7976931348623157e308]
# with these, sector edges land exactly on 0 and 180 degrees
DIRECTIONS = [0.0, 45.0, 90.0, 135.0, 180.0, 270.0, math.nextafter(360.0, 0.0)]
FOVS = [90.0, 180.0, 270.0, 360.0]


def finite(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


coords = st.one_of(st.sampled_from(MARKS), finite(-150.0, 250.0))
radii = st.one_of(st.sampled_from(RADII), finite(1e-9, 80.0))
fovs = st.one_of(
    st.sampled_from(FOVS), st.floats(0.0, 360.0, exclude_min=True)
)
directions = st.one_of(
    st.sampled_from(DIRECTIONS), st.floats(0.0, 360.0, exclude_max=True)
)


@st.composite
def poses(draw):
    """(x, y, radius, fov, direction); fov None for an omni sensor."""
    x, y, r = draw(coords), draw(st.sampled_from([-0.0, 0.0, 3.5])), draw(radii)
    if draw(st.booleans()):
        return x, y, r, None, None
    return x, y, r, draw(fovs), draw(directions)


def make_sensor(sensor_id, pose):
    x, y, r, fov, direction = pose
    if fov is None:
        return Sensor.omni(sensor_id, x, y, r)
    return Sensor.directional(sensor_id, x, y, r, fov, direction)


@st.composite
def sensor_lists(draw):
    shapes = draw(st.lists(poses(), max_size=12))
    if shapes:
        # the same pose under another id: equal (u, v), told apart by id
        shapes += draw(st.lists(st.sampled_from(shapes), max_size=4))
    ids = draw(
        st.lists(
            st.integers(0, 2**40), min_size=len(shapes), max_size=len(shapes),
            unique=True,
        )
    )
    return [make_sensor(i, shape) for i, shape in zip(ids, shapes)]


def assert_matches_oracle(field, sensors):
    want = oracle_table(sensors, field.domain)
    assert field.ids.tolist() == [i for _, _, i in want]
    assert bits(field.us) == bits(u for u, _, _ in want)
    assert bits(field.vs) == bits(v for _, v, _ in want)


# edge cases the strategy can miss, pinned: a sector edge on 0 and on
# 180 degrees at a domain end; subnormal radii on -0.0, where the arc
# edges round to +0.0 and only strict folds keep [-0.0, -0.0]; a full
# circle facing one ulp below 360; and a repeated pose under another id
EDGES = [
    Sensor.directional(0, B, 0.0, 5.0, 90.0, 45.0),
    Sensor.directional(1, A, 0.0, 5.0, 90.0, 135.0),
    Sensor.directional(2, -0.0, -0.0, 5e-324, 10.0, 80.0),
    Sensor.omni(3, -0.0, 0.0, 5e-324),
    Sensor.directional(4, 50.0, 0.0, 1e300, 360.0, math.nextafter(360.0, 0.0)),
    Sensor.directional(5, math.nextafter(B, math.inf), 0.0, 2.0, 180.0, 90.0),
    Sensor.directional(7, B, 0.0, 5.0, 90.0, 45.0),
]


class TestKernelMatchesScalarPath:
    def test_edge_cases_hit_what_they_pin(self):
        rows = oracle_table(EDGES, DOMAIN)
        assert any(u == v for u, v, _ in rows)  # clipped to zero length
        assert any(math.copysign(1.0, u) < 0 for u, _, _ in rows)  # -0.0 kept
        assert len({(u, v) for u, v, _ in rows}) < len(rows)  # equal spans

    @settings(max_examples=400, deadline=None)
    @given(sensor_lists())
    @example(EDGES)
    @example([make_sensor(9, (B, 0.0, 5.0, 90.0, 45.0))])
    @example([make_sensor(9, (-0.0, 0.0, 5e-324, 10.0, 80.0))])
    def test_field_matches_per_sensor_path(self, sensors):
        assert_matches_oracle(SensorField.build(sensors, DOMAIN), sensors)

    @pytest.mark.parametrize(
        "spec",
        [
            DeploymentSpec(n=400, width=100.0, kind=kind, fov=fov, seed=seed)
            for kind in ("line", "poisson")
            for fov in (45.0, 90.0, 180.0, 330.0, 360.0)
            for seed in (0, 1)
        ]
        + [
            DeploymentSpec(
                n=400, width=100.0, kind=kind, sensor_kind="omni", fov=None,
                radius=radius, seed=seed,
            )
            for kind in ("line", "poisson")
            for radius in (0.5, 10.0)
            for seed in (0, 1)
        ],
        ids=lambda spec: f"{spec.kind.value}-{spec.sensor_kind.value}"
        f"-fov{spec.fov}-r{spec.radius}-seed{spec.seed}",
    )
    def test_generated_fields_match_per_sensor_path(self, spec):
        field = generate(spec)
        sensors = oracle_generate(spec)
        assert field.sensors == tuple(sensors)
        assert_matches_oracle(field, sensors)


class TestChecksKeepTheirMessages:
    def many(self, n=200):
        return [
            Sensor.directional(i, float(i % 90), 1.0, 4.0, 90.0, float(i % 360))
            for i in range(n)
        ]

    def test_duplicate_id_among_many(self):
        sensors = self.many()
        sensors.insert(120, Sensor.omni(17, 3.0, 0.0, 1.0))
        sensors.append(Sensor.omni(5, 3.0, 0.0, 1.0))
        with pytest.raises(ParameterError, match=r"^duplicate sensor id 17$"):
            SensorField.build(sensors, DOMAIN)

    @pytest.mark.parametrize(
        "column, value",
        [
            ("ids", -3),
            ("x", math.nan),
            ("y", math.inf),
            ("radius", math.inf),
            ("radius", 0.0),
            ("radius", -1.5),
            ("radius", math.nan),
            ("fov", 0.0),
            ("fov", 361.0),
            ("fov", math.nan),
            ("direction", 360.0),
            ("direction", -1.0),
        ],
    )
    def test_bad_pose_among_many(self, column, value):
        sensors = self.many()
        poses = Poses.of(sensors)
        bad = getattr(poses, column).copy()
        bad[[40, 90]] = value
        poses = poses._replace(**{column: bad})
        # the message the former per-sensor checks give for row 40
        s = sensors[40]
        kwargs = dict(
            sensor_id=s.id, x=s.position[0], y=s.position[1], radius=s.radius,
            fov=s.fov, direction=s.direction,
        )
        kwargs["sensor_id" if column == "ids" else column] = value
        bad_sensor = Sensor.directional(**kwargs)
        with pytest.raises(ParameterError) as want:
            oracle_check_sensor(bad_sensor)
        with pytest.raises(ParameterError) as got:
            SensorField.from_poses(poses, DOMAIN)
        assert str(got.value) == str(want.value)
        sensors[40] = sensors[90] = bad_sensor
        with pytest.raises(ParameterError) as built:
            SensorField.build(sensors, DOMAIN)
        assert str(built.value) == str(want.value)

    def test_duplicate_id_through_from_poses(self):
        poses = Poses.of(self.many())
        ids = poses.ids.copy()
        ids[[60, 150]] = 17
        with pytest.raises(ParameterError, match=r"^duplicate sensor id 17$"):
            SensorField.from_poses(poses._replace(ids=ids), DOMAIN)
