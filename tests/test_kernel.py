"""The vectorized projection kernel against the scalar per-sensor oracle.

A field's clipped intervals must carry the same IEEE bits as projecting,
clipping and sorting one sensor at a time (``conftest.oracle_project``,
``oracle_clip`` and ``oracle_table``), signed zeros included, and list the
same ids in the same canonical order; that order equals
``np.lexsort((ids, vs, us))``. The checks the per-sensor objects once made
(``conftest.oracle_check_sensor``) must survive as whole-column checks
with the same messages. Finally the reduction itself is certified in the
plane: every vertical line across a segment that a selection claims to
cover meets a selected sector.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barriercover import (
    DeploymentSpec,
    ParameterError,
    Sensor,
    SensorField,
    generate,
    oga_continuous,
)
from barriercover.model import Poses, _canonical_order
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

# sector edges that land on 0 or 180 degrees from either side: direction
# fov/2, 180 - fov/2, 180 + fov/2 and 360 - fov/2
AXIS_EDGES = [
    Sensor.directional(4 * j + k, 50.0, 0.0, 5.0, fov, direction)
    for j, fov in enumerate((30.0, 90.0, 200.0, 1e-9))
    for k, direction in enumerate(
        (fov / 2, 180.0 - fov / 2, 180.0 + fov / 2, 360.0 - fov / 2)
    )
]
# full circles, and a sector facing one ulp below 360
FULL_TURNS = [
    Sensor.directional(0, 50.0, 0.0, 5.0, 360.0, 0.0),
    Sensor.directional(1, 50.0, 0.0, 5.0, 360.0, 123.0),
    Sensor.directional(2, 50.0, 0.0, 5.0, 360.0, math.nextafter(360.0, 0.0)),
    Sensor.directional(3, 50.0, 0.0, 5.0, 90.0, math.nextafter(360.0, 0.0)),
]
# apexes at x = -r and x = r, where x + r and x - r are +0.0
ZERO_ENDS = [
    Sensor.directional(0, -5.0, 0.0, 5.0, 90.0, 0.0),
    Sensor.directional(1, 5.0, 0.0, 5.0, 90.0, 180.0),
    Sensor.directional(2, -0.5, 0.0, 0.5, 360.0, 270.0),
    Sensor.omni(3, -2.5, 0.0, 2.5),
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
    @example(AXIS_EDGES)
    @example(FULL_TURNS)
    @example(ZERO_ENDS)
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
        ids=lambda spec: f"{spec.kind}-{spec.sensor_kind}"
        f"-fov{spec.fov}-r{spec.radius}-seed{spec.seed}",
    )
    def test_generated_fields_match_per_sensor_path(self, spec):
        field = generate(spec)
        sensors = oracle_generate(spec)
        assert field.sensors == tuple(sensors)
        assert_matches_oracle(field, sensors)


# lengths from zero, through the subnormals, to near the largest double
LENGTHS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 1.0, 1e308, 1.7e308]),
    st.floats(min_value=0.0, max_value=1.7e308),
)
POSITIVE = LENGTHS.filter(lambda x: x > 0)


@st.composite
def deployment_specs(draw):
    """Specs that the gate accepts: both kinds, both sensor kinds, every
    length up to 1.7e308, subnormal radii, and zero sigma and height."""
    directional = draw(st.booleans())
    return DeploymentSpec(
        n=draw(st.integers(0, 20)),
        width=draw(POSITIVE),
        strip_height=draw(LENGTHS),
        kind=draw(st.sampled_from(["line", "poisson"])),
        line_sigma=draw(LENGTHS),
        radius=draw(POSITIVE),
        fov=draw(
            st.one_of(st.sampled_from([5e-324, 45.0, 360.0]),
                      st.floats(min_value=0.0, max_value=360.0, exclude_min=True))
        ) if directional else None,
        sensor_kind="directional" if directional else "omni",
        seed=draw(st.integers(0, 2**32)),
    )


def pose_bits(poses):
    """The pose columns, the float ones as exact bit patterns."""
    return [bits(c) if c.dtype == float else c.tolist() for c in poses]


def outcome(make):
    """What ``make`` returns, or the message of its ParameterError."""
    try:
        return make()
    except ParameterError as exc:
        return str(exc)


class TestGenerateTrustsItsDraws:
    """``generate`` checks only the y of its draws; everything else meets
    the pose rules by construction."""

    @settings(max_examples=300, deadline=None)
    @given(deployment_specs())
    # a line deployment whose y overflows to -inf, and one whose does not
    @example(DeploymentSpec(n=20, width=10.0, line_sigma=1e308, seed=1))
    @example(DeploymentSpec(n=20, width=10.0, line_sigma=1e308, seed=0))
    def test_same_field_or_error_as_the_checked_build(self, spec):
        got = outcome(lambda: generate(spec))
        want = outcome(lambda: SensorField.build(oracle_generate(spec), (0.0, spec.width)))
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            return
        assert got.ids.tolist() == want.ids.tolist()
        assert (bits(got.us), bits(got.vs)) == (bits(want.us), bits(want.vs))
        assert pose_bits(got.poses) == pose_bits(want.poses)

    def test_pinned_sigma_examples_raise_and_pass(self):
        spec = DeploymentSpec(n=20, width=10.0, line_sigma=1e308, seed=1)
        with pytest.raises(ParameterError, match=r"^y must be finite, got -inf$"):
            generate(spec)
        assert len(generate(spec.with_(seed=0)).poses.y) == 20

    def test_a_direction_never_reaches_360(self):
        # uniform(0, 360) is 0 + 360 * u with u at most 1 - 2**-53
        assert 0.0 + 360.0 * np.nextafter(1.0, 0.0) < 360.0


# u values that tie or nearly tie: both zeros, subnormals, adjacent
# doubles and the infinities
NEAR_TIES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, math.nextafter(1.0, 0.0),
    math.nextafter(1.0, 2.0), 2.5, -math.inf, math.inf,
]


@st.composite
def order_columns(draw):
    """(us, vs, ids) with runs of equal u, equal (u, v) under distinct ids,
    and repeated ids."""
    n = draw(st.integers(0, 30))

    def column(values):
        pool = draw(st.lists(values, min_size=1, max_size=4))
        return draw(
            st.lists(st.one_of(st.sampled_from(pool), values), min_size=n, max_size=n)
        )

    floats = st.one_of(st.sampled_from(NEAR_TIES), st.floats(allow_nan=False))
    return (
        np.array(column(floats), dtype=float),
        np.array(column(floats), dtype=float),
        np.array(column(st.integers(0, 2**63 - 1)), dtype=np.int64),
    )


class TestCanonicalOrder:
    @settings(max_examples=300, deadline=None)
    @given(order_columns())
    @example((np.array([]), np.array([]), np.array([], dtype=np.int64)))
    @example((np.array([-0.0]), np.array([1.0]), np.array([3])))
    @example(
        (
            np.array([0.0, -0.0, 0.0, -0.0, 5e-324]),
            np.array([1.0, 1.0, -0.0, 0.0, 5e-324]),
            np.array([2, 1, 2, 1, 0]),
        )
    )
    def test_equals_lexsort(self, columns):
        us, vs, ids = columns
        want = np.lexsort((ids, vs, us))
        assert _canonical_order(us, vs, ids).tolist() == want.tolist()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_lexsort_on_shuffled_stock_rows(self, seed):
        field = generate(
            DeploymentSpec(n=2000, width=1000.0, kind="poisson", fov=45.0, seed=seed)
        )
        rows = np.random.default_rng(seed).permutation(field.ids.size)
        us, vs, ids = field.us[rows], field.vs[rows], field.ids[rows]
        # the rows clipped to the domain's left end tie on u
        assert (field.us[:2] == 0.0).all()
        want = np.lexsort((ids, vs, us))
        assert _canonical_order(us, vs, ids).tolist() == want.tolist()


# A line within this angle of a sector counts as meeting it. Interval ends
# carry rounding errors of a few ulps of |x| + r, under 1e-12 for the
# fields below (|x| <= 100, r = 10). Near a chord's tip such an error in x
# becomes up to sqrt(2 * 1e-12 / r) rad, about 2.6e-5 degrees.
ANGLE_TOL = 1e-4

# the stock deployments, and the same with every direction on or one ulp
# beside an axis, or with a sector edge on 0 or 180 degrees
CERTIFIED = [
    (DeploymentSpec(n=400, width=100.0, kind=kind, fov=fov, seed=seed), axis)
    for kind in ("line", "poisson")
    for fov in (45.0, 90.0, 180.0, 330.0, 360.0)
    for seed in (0, 1)
    for axis in (False, True)
] + [
    (
        DeploymentSpec(
            n=400, width=100.0, kind="poisson", sensor_kind="omni", fov=None, seed=0
        ),
        False,
    )
]


def axis_directions(rng, n, fov):
    """n directions on or one ulp beside an axis, or with an edge on one."""
    axes = np.array([0.0, 90.0, 180.0, 270.0, 360.0])
    edges = [fov / 2, 180.0 - fov / 2, 180.0 + fov / 2, 360.0 - fov / 2]
    near = np.concatenate(
        (axes, np.nextafter(axes, -np.inf), np.nextafter(axes, np.inf), edges)
    )
    return rng.choice(near[(near >= 0.0) & (near < 360.0)], n)


def lines_met(poses, cs):
    """Whether each line x = c meets the sector of at least one pose.

    The line meets a disk of radius r at apex x when |c - x| <= r, in a
    chord that, seen from the apex, spans the angles within
    alpha = atan2(s, |c - x|) of 0 degrees (c > x) or of 180 degrees
    (c < x), where s = sqrt(r**2 - (c - x)**2) is half the chord. The line
    meets the sector when that range meets the sector's, fov/2 either
    side of its direction, or when it runs through the apex.
    """
    dx = cs[:, None] - poses.x
    r = poses.radius
    reach = np.abs(dx) <= r
    with np.errstate(invalid="ignore"):
        s = np.sqrt((r - np.abs(dx)) * (r + np.abs(dx)))
        alpha = np.degrees(np.arctan2(s, np.abs(dx)))
        apart = np.abs(poses.direction - np.where(dx > 0, 0.0, 180.0)) % 360.0
        apart = np.minimum(apart, 360.0 - apart)
        sector = apart <= poses.fov / 2 + alpha + ANGLE_TOL
    return (reach & ((dx == 0) | ~poses.directional | sector)).any(axis=1)


class TestCrossingLines:
    """The 2D certificate of the projection, written without it: a
    selection that claims to cover [a, b] meets every vertical line
    x = c across it. c runs over a grid of step width / 20000 and over
    every end of a selected interval and the doubles either side of it."""

    @pytest.mark.parametrize(
        "spec, axis", CERTIFIED,
        ids=lambda v: f"{v.kind}-{v.sensor_kind}-fov{v.fov}-seed{v.seed}"
        if isinstance(v, DeploymentSpec) else ("axis" if v else "drawn"),
    )
    def test_every_crossing_line_meets_a_selected_sector(self, spec, axis):
        field = generate(spec)
        if axis:
            rng = np.random.default_rng(spec.seed)
            directions = axis_directions(rng, spec.n, spec.fov)
            field = SensorField.from_poses(
                field.poses._replace(direction=directions), field.domain
            )
        a, b = field.domain
        result = oga_continuous(field, field.domain)
        assert result.fully_covered
        us, vs, _ = result.selected_spans(field)
        ends = np.concatenate((us, vs))
        ends = np.concatenate(
            (ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf))
        )
        cs = np.concatenate((np.linspace(a, b, 20001), ends))
        cs = cs[(cs >= a) & (cs <= b)]
        chosen = field.poses.take(np.isin(field.poses.ids, result.selected_ids))
        met = lines_met(chosen, cs)
        assert met.all(), f"no selected sector meets x = {cs[~met][:5].tolist()}"


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
