"""Field files: the column reader and the column writer against the
line-by-line reader and the dict-plus-``json.dumps`` writer they replaced
(``oracle_read_field`` and ``oracle_field_lines`` in conftest)."""

from __future__ import annotations

import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barriercover import fieldio, model
from barriercover.cli import main
from barriercover.deployment import DeploymentSpec, generate
from barriercover.fieldio import (
    FieldFormatError,
    read_field,
    read_sensors,
    write_field,
    write_sensors,
)
from barriercover.model import ParameterError, Poses, Sensor, SensorField, _pose_rules
from conftest import oracle_field_lines, oracle_read_field, oracle_read_sensors

DOMAIN = (-50.0, 50.0)

# finite doubles that are easy to print wrongly: signed zero, subnormals,
# the switch to exponent notation, rounding residue, neighbours
ADVERSARIAL = (
    -0.0,
    0.0,
    5e-324,
    -2.5e-310,
    1e16,
    -1e16,
    1e-05,
    0.0001,
    0.1 + 0.2,
    3.0,
    -7.0,
    123456789.0,
    1e22,
    1.7976931348623157e308,
    math.nextafter(1.0, 2.0),
    math.nextafter(1.0, 0.0),
    math.nextafter(0.3, 1.0),
    math.nextafter(12.5, -math.inf),
)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_field(new: SensorField, old: SensorField) -> None:
    for name, a, b in zip(new.poses._fields, new.poses, old.poses):
        assert same_bits(a, b), name
    for name in ("us", "vs", "ids"):
        assert same_bits(getattr(new, name), getattr(old, name)), name


# -- valid files -------------------------------------------------------------

coordinate = st.one_of(
    st.floats(-60.0, 60.0), st.sampled_from(ADVERSARIAL), st.integers(-60, 60)
)
radius = st.one_of(
    st.floats(min_value=0.0, max_value=30.0, exclude_min=True),
    st.sampled_from([5e-324, 1e-05, 0.1 + 0.2, 1e16]),
    st.integers(1, 30),
)
fov = st.one_of(
    st.floats(min_value=0.0, max_value=360.0, exclude_min=True),
    st.sampled_from([360.0, 5e-324, 90]),
)
direction = st.one_of(
    st.floats(min_value=0.0, max_value=360.0, exclude_max=True),
    st.sampled_from([-0.0, 0, 180, math.nextafter(360.0, 0.0)]),
)


@st.composite
def number_text(draw, value):
    """A JSON value that reads as ``value``: a number, an integer where it
    is integral, or a numeric string."""
    value = draw(value)
    forms = [json.dumps(value), json.dumps(repr(value))]
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        forms.append(str(int(value)))
    return draw(st.sampled_from(forms))


@st.composite
def sensor_line(draw, sensor_id):
    fields = {
        "id": str(sensor_id),
        "x": draw(number_text(coordinate)),
        "y": draw(number_text(coordinate)),
        "radius": draw(number_text(radius)),
    }
    directional = draw(st.booleans())
    fields["kind"] = json.dumps("directional" if directional else "omni")
    if directional:
        fields["fov"] = draw(number_text(fov))
        fields["direction"] = draw(number_text(direction))
    keys = draw(st.permutations(list(fields)))
    pad = draw(st.sampled_from(["", " ", "\t"]))
    return pad + "{" + ", ".join(f'"{k}": {fields[k]}' for k in keys) + "}" + pad


@st.composite
def field_lines(draw, max_sensors=10):
    ids = draw(
        st.lists(
            st.one_of(st.integers(0, 50), st.integers(0, 2**63 - 1)),
            max_size=max_sensors,
            unique=True,
        )
    )
    lines = []
    for sensor_id in ids:
        lines += draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=2))
        lines.append(draw(sensor_line(sensor_id)))
    return lines


def write_lines(path, lines, newline):
    path.write_bytes(("".join(line + newline for line in lines)).encode("utf-8"))


@settings(max_examples=150, deadline=None)
@given(lines=field_lines(), newline=st.sampled_from(["\n", "\r\n"]))
def test_valid_files_read_as_the_oracle_reads_them(tmp_path_factory, lines, newline):
    path = tmp_path_factory.mktemp("valid") / "field.jsonl"
    write_lines(path, lines, newline)
    assert_same_field(read_field(path, DOMAIN), oracle_read_field(path, DOMAIN))
    assert read_sensors(path) == oracle_read_sensors(path)


# -- bad files ---------------------------------------------------------------

OMNI = '"kind": "omni", "x": 1.0, "y": 0.0, "radius": 2.0'
DIRECTIONAL = '"kind": "directional", "x": 1.0, "y": 0.0, "radius": 2.0'

# every error class a line can raise; id 900 is clear of the valid lines'
# ids (0-50 or drawn below 2**63), ids 0 and 901 are there to be repeated
BAD_LINES = (
    # not JSON
    "{not json}",
    '{"id": 900, ' + OMNI + "}}",
    "\ufeff{" + '"id": 900, ' + OMNI + "}",
    # not an object
    "[1, 2]",
    '"text"',
    "7",
    # missing or unknown keys
    '{"id": 900, "kind": "omni", "x": 1.0, "y": 0.0}',
    '{"kind": "omni", "x": 1.0, "y": 0.0, "radius": 2.0}',
    '{"id": 900, ' + OMNI + ', "tilt": 3}',
    '{"id": 900, "kind": "omni", "x": 1.0, "y": 0.0, "tilt": 2.0}',
    '{"id": 900, ' + DIRECTIONAL + ', "fov": 90.0, "tilt": 0.0}',
    # bad kind
    '{"id": 900, "kind": "laser", "x": 1.0, "y": 0.0, "radius": 2.0}',
    '{"id": 900, "kind": ["omni"], "x": 1.0, "y": 0.0, "radius": 2.0}',
    '{"id": 900, "kind": null, "x": 1.0, "y": 0.0, "radius": 2.0}',
    # fov on omni, missing fov
    '{"id": 900, ' + OMNI + ', "fov": 90.0}',
    '{"id": 900, ' + OMNI + ', "fov": 90.0, "direction": 0.0}',
    '{"id": 900, ' + DIRECTIONAL + ', "fov": 90.0}',
    '{"id": 900, ' + DIRECTIONAL + ', "direction": 90.0}',
    # an unconvertible value
    '{"id": 900, "kind": "omni", "x": "abc", "y": 0.0, "radius": 2.0}',
    '{"id": 900, "kind": "omni", "x": 1.0, "y": null, "radius": 2.0}',
    '{"id": 900, "kind": "omni", "x": 1.0, "y": 0.0, "radius": [2]}',
    '{"id": 900, "kind": "omni", "x": 1' + "0" * 400 + ', "y": 0.0, "radius": 2.0}',
    '{"id": 900, ' + DIRECTIONAL + ', "fov": {}, "direction": 0.0}',
    # non-finite
    '{"id": 900, "kind": "omni", "x": Infinity, "y": 0.0, "radius": 2.0}',
    '{"id": 900, "kind": "omni", "x": 1.0, "y": NaN, "radius": 2.0}',
    '{"id": 900, "kind": "omni", "x": 1.0, "y": 0.0, "radius": -Infinity}',
    '{"id": 900, "kind": "omni", "x": "inf", "y": 0.0, "radius": 2.0}',
    '{"id": 900, "kind": "omni", "x": 1e400, "y": 0.0, "radius": 2.0}',
    '{"id": 900, ' + DIRECTIONAL + ', "fov": NaN, "direction": 0.0}',
    '{"id": 900, ' + DIRECTIONAL + ', "fov": 90.0, "direction": "-nan"}',
    # id < 0 and id >= 2**63
    '{"id": -3, ' + OMNI + "}",
    '{"id": -18446744073709551616, ' + OMNI + "}",
    '{"id": 9223372036854775808, ' + OMNI + "}",
    '{"id": 1180591620717411303424, ' + OMNI + "}",
    # radius <= 0
    '{"id": 900, "kind": "omni", "x": 1.0, "y": 0.0, "radius": 0}',
    '{"id": 900, "kind": "omni", "x": 1.0, "y": 0.0, "radius": -0.0}',
    '{"id": 900, "kind": "omni", "x": 1.0, "y": 0.0, "radius": -1.5}',
    # fov or direction out of range
    '{"id": 900, ' + DIRECTIONAL + ', "fov": 0, "direction": 0.0}',
    '{"id": 900, ' + DIRECTIONAL + ', "fov": 360.5, "direction": 0.0}',
    '{"id": 900, ' + DIRECTIONAL + ', "fov": 90.0, "direction": 360}',
    '{"id": 900, ' + DIRECTIONAL + ', "fov": 90.0, "direction": -1e-300}',
    # several faults on one line: the first check in line order wins
    '{"id": -1, "kind": "omni", "x": NaN, "y": 0.0, "radius": -1.0}',
    '{"id": 9223372036854775808, "kind": "omni", "x": 1.0, "y": 0.0, "radius": 0}',
    '{"id": 900, ' + DIRECTIONAL + ', "fov": 0.0, "direction": 400.0}',
    '{"id": 900, "kind": "omni", "x": 1.0, "y": 0.0, "radius": 0, "fov": 1}',
    # duplicate id, alone and with a range fault on the same line
    '{"id": 0, ' + OMNI + "}",
    '{"id": 0, "kind": "omni", "x": 1.0, "y": 0.0, "radius": 0.0}',
    '{"id": 901, ' + OMNI + "}",
)


def read_error(read, path):
    try:
        read(path, DOMAIN)
    except Exception as exc:  # the type is part of what is compared
        return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(
    lines=field_lines(max_sensors=6),
    bad=st.lists(
        st.tuples(st.integers(0, 20), st.sampled_from(BAD_LINES)),
        min_size=1,
        max_size=2,
    ),
    newline=st.sampled_from(["\n", "\r\n"]),
)
@example(
    lines=["", '{"id": 0, ' + OMNI + "}", "  ", '{"id": 1, ' + OMNI + "}"],
    bad=[(4, '{"id": 900, "kind": "omni", "x": 1.0, "y": 0.0, "radius": 0}')],
    newline="\n",
)
def test_bad_files_fail_as_the_oracle_fails(tmp_path_factory, lines, bad, newline):
    for position, line in bad:
        lines.insert(min(position, len(lines)), line)
    path = tmp_path_factory.mktemp("bad") / "field.jsonl"
    write_lines(path, lines, newline)
    expected = read_error(oracle_read_field, path)
    assert read_error(read_field, path) == expected
    if expected is None:
        # a repeatable id that nothing repeated
        assert_same_field(read_field(path, DOMAIN), oracle_read_field(path, DOMAIN))
    else:
        assert expected[0] is FieldFormatError


def test_error_names_the_file_line_across_blank_lines(tmp_path):
    path = tmp_path / "field.jsonl"
    path.write_text(
        "\n\n"
        '{"id": 0, ' + OMNI + "}\n"
        "   \n"
        '{"id": 1, "kind": "omni", "x": 1.0, "y": 0.0, "radius": -2.0}\n'
    )
    with pytest.raises(FieldFormatError, match=r"^line 5: radius must be > 0, got -2.0$"):
        read_field(path, DOMAIN)


def test_a_range_fault_on_an_earlier_line_beats_a_later_parse_error(tmp_path):
    path = tmp_path / "field.jsonl"
    path.write_text(
        '{"id": 0, "kind": "omni", "x": 1.0, "y": Infinity, "radius": 2.0}\n'
        '{"id": 1.7, ' + OMNI + "}\n"
        "{not json}\n"
    )
    with pytest.raises(FieldFormatError, match=r"^line 1: y must be finite, got inf$"):
        read_field(path, DOMAIN)


def test_read_field_checks_the_pose_rules_once(tmp_path, monkeypatch):
    path = tmp_path / "field.jsonl"
    write_field(generate(DeploymentSpec(n=20, width=50.0, seed=3)), path)
    calls = []

    def counted(poses):
        calls.append(poses.ids.size)
        return _pose_rules(poses)

    for module in (fieldio, model):
        monkeypatch.setattr(module, "_pose_rules", counted)
    assert read_field(path, DOMAIN).ids.size
    assert calls == [20]


@pytest.mark.parametrize("value", ["1.7", "true", '"2"', "null", "2.0"])
def test_non_integer_ids_are_rejected(tmp_path, value):
    path = tmp_path / "field.jsonl"
    path.write_text('{"id": 0, ' + OMNI + '}\n{"id": ' + value + ", " + OMNI + "}\n")
    message = f"line 2: id must be an integer, got {value}"
    for read in (read_sensors, lambda p: read_field(p, DOMAIN)):
        with pytest.raises(FieldFormatError) as info:
            read(path)
        assert str(info.value) == message
        assert info.value.line == 2


# -- reading in chunks -------------------------------------------------------

CHUNKS = (1, 2, 3)

# five sensor lines and a blank one, so that a chunk of 1, 2 or 3 rows ends
# between any two of them
CHUNKED = [
    '{"id": 0, ' + OMNI + "}",
    '{"id": 1, ' + DIRECTIONAL + ', "fov": 90.0, "direction": 10.0}',
    "",
    '{"id": 2, ' + OMNI + "}",
    '{"id": 3, ' + OMNI + "}",
    '{"id": 4, ' + DIRECTIONAL + ', "fov": 45.0, "direction": 200.0}',
]


def test_the_bad_line_catalogue_reads_the_same_in_every_chunk(tmp_path, monkeypatch):
    path = tmp_path / "field.jsonl"
    files = [
        [*CHUNKED[:at], bad, *CHUNKED[at:]]
        for bad in BAD_LINES
        for at in range(len(CHUNKED) + 1)
    ]
    # every ordered pair, the first in the first chunk and the second in a
    # later one at every chunk size
    files += [
        [CHUNKED[0], first, *CHUNKED[1:4], second, *CHUNKED[4:]]
        for first in BAD_LINES
        for second in BAD_LINES
    ]
    for lines in files:
        write_lines(path, lines, "\n")
        expected = read_error(oracle_read_field, path)
        monkeypatch.setattr(fieldio, "_CHUNK", 8192)
        assert read_error(read_field, path) == expected, lines
        for chunk in CHUNKS:
            monkeypatch.setattr(fieldio, "_CHUNK", chunk)
            assert read_error(read_field, path) == expected, (chunk, lines)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_fields_round_trip_bit_for_bit_in_every_chunk(tmp_path, monkeypatch, chunk):
    path = tmp_path / "field.jsonl"
    for n in (chunk - 1, chunk, chunk + 1):
        spec = DeploymentSpec(n=n, width=100.0, fov=45.0, seed=n)
        field = generate(spec)
        monkeypatch.setattr(fieldio, "_CHUNK", 8192)
        out = io.StringIO()
        write_field(field, out)
        monkeypatch.setattr(fieldio, "_CHUNK", chunk)
        write_field(field, path)
        assert path.read_text() == out.getvalue()
        assert_same_field(read_field(path, field.domain), field)


def chunked_error(path, monkeypatch, lines):
    """The error of every chunk size, which must be one."""
    write_lines(path, lines, "\n")
    errors = set()
    for chunk in CHUNKS:
        monkeypatch.setattr(fieldio, "_CHUNK", chunk)
        with pytest.raises(FieldFormatError) as info:
            read_field(path, DOMAIN)
        errors.add((info.value.line, str(info.value)))
    (error,) = errors
    return error


def test_a_repeat_of_an_earlier_chunk_is_reported_where_it_repeats(tmp_path, monkeypatch):
    lines = [*CHUNKED, "", '{"id": 1, ' + OMNI + "}"]
    assert chunked_error(tmp_path / "f.jsonl", monkeypatch, lines) == (
        8, "line 8: duplicate sensor id 1"
    )


@pytest.mark.parametrize(
    "sensor_id, message",
    [
        (2**63, f"sensor id must be < 2**63, got {2**63}"),
        (-(2**64), f"sensor id must be >= 0, got {-(2**64)}"),
    ],
    ids=["2**63", "-2**64"],
)
def test_an_id_past_int64_in_a_later_chunk_is_reported_on_its_line(
    tmp_path, monkeypatch, sensor_id, message
):
    # the earlier chunks hold int64 ids, the last one does not
    lines = [*CHUNKED, '{"id": ' + str(sensor_id) + ", " + OMNI + "}"]
    error = chunked_error(tmp_path / "f.jsonl", monkeypatch, lines)
    assert error == (7, f"line 7: {message}")


def test_a_column_fault_in_the_first_chunk_beats_a_later_parse_error(tmp_path, monkeypatch):
    lines = [
        '{"id": 9, "kind": "omni", "x": 1.0, "y": Infinity, "radius": 2.0}',
        *CHUNKED,
        "{not json}",
    ]
    assert chunked_error(tmp_path / "f.jsonl", monkeypatch, lines) == (
        1, "line 1: y must be finite, got inf"
    )


# -- writing -----------------------------------------------------------------

adversarial = st.one_of(st.sampled_from(ADVERSARIAL), st.floats(allow_nan=False, allow_infinity=False))
positive = st.one_of(
    st.sampled_from([5e-324, 1e-05, 0.1 + 0.2, 1e16, 3.0, math.nextafter(1.0, 2.0)]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
angle = st.one_of(
    st.sampled_from([5e-324, 1e-05, 90.0, 360.0, math.nextafter(360.0, 0.0)]),
    st.floats(min_value=0.0, max_value=360.0, exclude_min=True),
)
heading = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-05, 0.1 + 0.2, math.nextafter(360.0, 0.0)]),
    st.floats(min_value=0.0, max_value=360.0, exclude_max=True),
)


@st.composite
def sensors(draw):
    out = []
    for i in draw(st.lists(st.integers(0, 2**63 - 1), unique=True, max_size=8)):
        x, y, r = draw(adversarial), draw(adversarial), draw(positive)
        if draw(st.booleans()):
            out.append(Sensor.directional(i, x, y, r, draw(angle), draw(heading)))
        else:
            out.append(Sensor.omni(i, x, y, r))
    return out


@settings(max_examples=200, deadline=None)
@given(sensors=sensors())
def test_writers_match_the_json_dumps_formatter(sensors):
    expected = oracle_field_lines(sensors)
    out = io.StringIO()
    write_sensors(sensors, out)
    assert out.getvalue() == expected
    field = SensorField.build(sensors, DOMAIN)
    out = io.StringIO()
    write_field(field, out)
    assert out.getvalue() == expected


def test_writers_refuse_what_could_not_be_read_back(tmp_path):
    path = tmp_path / "field.jsonl"
    good = Sensor.omni(0, 1.0, 0.0, 2.0)
    poses = Poses.of([good, Sensor.omni(3, 1.0, 0.0, 2.0)])
    for column, value, message in (
        ("y", math.inf, "sensor id 3: y must be finite, got inf"),
        ("x", math.nan, "sensor id 3: x must be finite, got nan"),
        ("radius", 0.0, "sensor id 3: radius must be > 0, got 0.0"),
        ("ids", 0, "sensor id 0: duplicate sensor id 0"),
    ):
        # a field built straight from unchecked columns can hold such a pose
        bad = poses._replace(**{column: np.array([getattr(poses, column)[0], value])})
        none = np.empty(0)
        with pytest.raises(ParameterError, match=f"^{message}$"):
            write_field(SensorField._trusted(none, none, none.astype(int), DOMAIN, bad), path)
    for sensors, message in (
        (
            [good, Sensor.omni(1, 1.0, 0.0, -2.0)],
            "sensor id 1: radius must be > 0, got -2.0",
        ),
        (
            [good, Sensor.directional(2, 1.0, 0.0, 2.0, 90.0, 360.0)],
            "sensor id 2: direction must be in [0, 360), got 360.0",
        ),
        ([good, good], "sensor id 0: duplicate sensor id 0"),
    ):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            write_sensors(sensors, path)
    assert not path.exists()


def test_write_field_refuses_rows_without_poses(tmp_path):
    path = tmp_path / "field.jsonl"
    posed = Poses.of([Sensor.omni(0, 1.0, 0.0, 2.0)])
    for field, message in (
        # built from intervals: rows, but no poses to write
        (SensorField([0.0, 4.0], [5.0, 10.0], [0, 1], (0.0, 10.0)), "sensor id 0"),
        (
            SensorField._trusted(
                np.array([-1.0, 2.0]), np.array([3.0, 4.0]), np.array([0, 7]), DOMAIN, posed
            ),
            "sensor id 7",
        ),
    ):
        with pytest.raises(ParameterError, match=f"^{message}: row has no pose$"):
            write_field(field, path)
    assert not path.exists()


@pytest.mark.parametrize(
    "kind, sensor_kind", [("poisson", "directional"), ("line", "omni")]
)
def test_gen_round_trips_through_read_field(capsys, tmp_path, kind, sensor_kind):
    n = 10_000
    path = tmp_path / "field.jsonl"
    argv = ["gen", "--n", str(n), "--width", str(n / 3), "--kind", kind,
            "--sensor-kind", sensor_kind, "--seed", "3", "--out", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    spec = DeploymentSpec(
        n=n, width=n / 3, kind=kind, sensor_kind=sensor_kind, seed=3,
        fov=90.0 if sensor_kind == "directional" else None,
    )
    assert_same_field(read_field(path, (0.0, n / 3)), generate(spec))


def test_read_field_refuses_a_nan_domain_end(tmp_path):
    path = tmp_path / "field.jsonl"
    write_sensors([Sensor.omni(0, 1.0, 0.0, 2.0)], path)
    for domain in ((math.nan, 20.0), (0.0, math.nan)):
        # a NaN end would skip the clipping at that end without a word
        with pytest.raises(ParameterError, match=r"^domain needs a <= b, got \["):
            read_field(path, domain)
