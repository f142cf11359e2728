"""End-to-end command line behavior, formats, and exit codes."""

from __future__ import annotations

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import barriercover
from barriercover import baselines, cli
from barriercover.algorithms import _Frontier
from barriercover.cli import main
from barriercover.harness import default_config, run_experiment

FIELD8 = str(Path(__file__).parent / "data" / "field8.jsonl")
F8 = ["--field", FIELD8, "--domain", "0", "20"]
README = Path(__file__).parent.parent / "README.md"


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_writes_n_lines(self, capsys, tmp_path):
        out = tmp_path / "field.jsonl"
        code, _, _ = run_main(
            capsys, ["gen", "--n", "6", "--width", "50", "--seed", "9",
                     "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 6
        first = json.loads(lines[0])
        assert first["kind"] == "directional"
        assert {"id", "kind", "x", "y", "radius", "fov", "direction"} == set(
            first
        )

    def test_same_seed_same_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        argv = ["gen", "--n", "9", "--width", "75", "--seed", "4"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["gen", "--n", "9", "--width", "75", "--seed", "4",
                     "--out", str(a)]) == 0
        assert main(["gen", "--n", "9", "--width", "75", "--seed", "5",
                     "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()

    def test_omni_lines_have_no_fov(self, capsys):
        code, out, _ = run_main(
            capsys, ["gen", "--n", "3", "--width", "30",
                     "--sensor-kind", "omni", "--seed", "1"]
        )
        assert code == 0
        for line in out.strip().split("\n"):
            obj = json.loads(line)
            assert obj["kind"] == "omni"
            assert "fov" not in obj and "direction" not in obj

    def test_poisson_kind_accepted(self, capsys):
        code, out, _ = run_main(
            capsys, ["gen", "--n", "3", "--width", "30", "--kind", "poisson",
                     "--strip-height", "5", "--seed", "1"]
        )
        assert code == 0
        ys = [json.loads(line)["y"] for line in out.strip().split("\n")]
        assert all(0.0 <= y <= 5.0 for y in ys)


class TestCover:
    def test_continuous_selection_on_fixture(self, capsys):
        code, out, _ = run_main(capsys, ["cover"] + F8)
        assert code == 0
        result = json.loads(out)
        assert result["selected"] == [0, 1, 2, 3, 4, 5]
        assert result["count"] == 6
        assert result["fully_covered"] is True
        assert result["virtual"] == []

    def test_discrete_mode_matches(self, capsys):
        # the discrete selector is kcover --k 1; it agrees with cover here
        code, out, _ = run_main(capsys, ["kcover", "--k", "1"] + F8)
        assert code == 0
        assert json.loads(out)["selected"] == [0, 1, 2, 3, 4, 5]

    def test_explicit_targets(self, capsys):
        code, out, _ = run_main(
            capsys, ["kcover", "--k", "1", "--targets", "1,5"] + F8
        )
        assert code == 0
        assert json.loads(out)["selected"] == [0, 6]

    def test_csv_format(self, capsys):
        code, out, _ = run_main(capsys, ["cover", "--format", "csv"] + F8)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "order,sensor_id,u,v,virtual"
        assert lines[1] == "0,0,0,4.5,0"
        assert lines[-1] == "5,5,16.5,20,0"

    @pytest.mark.parametrize(
        "argv",
        [
            ["cover"],
            ["kcover", "--k", "2"],
            ["mend", "--result", "{sel}", "--failed", "1,3"],
            ["baseline", "--algorithm", "greedy"],
        ],
        ids=["cover", "kcover", "mend", "baseline"],
    )
    def test_csv_records_no_trace(self, capsys, tmp_path, monkeypatch, argv):
        sel = tmp_path / "sel.json"
        assert main(["cover", "--out", str(sel)] + F8) == 0
        argv = [a.format(sel=sel) for a in argv] + ["--format", "csv"] + F8
        code, expected, _ = run_main(capsys, argv)
        assert code == 0

        def refuse(*args, **kwargs):
            raise AssertionError("CSV output builds no trace")

        # every frontier trace step lists candidates; the greedy baseline
        # builds its steps itself (mend still reads the trace it is given)
        monkeypatch.setattr(_Frontier, "candidates", refuse)
        monkeypatch.setattr(baselines, "SelectionStep", refuse)
        assert run_main(capsys, argv) == (0, expected, "")
        if argv[0] == "cover":
            assert expected == (
                "order,sensor_id,u,v,virtual\n0,0,0,4.5,0\n1,1,4,7,0\n2,2,6,10,0\n"
                "3,3,9,13,0\n4,4,12,18,0\n5,5,16.5,20,0\n"
            )

    def test_out_file_round_trips(self, capsys, tmp_path):
        out = tmp_path / "sel.json"
        code, stdout, _ = run_main(capsys, ["cover", "--out", str(out)] + F8)
        assert code == 0
        assert stdout == ""
        assert json.loads(out.read_text())["count"] == 6


class TestKCover:
    def test_two_cover_runs(self, capsys):
        code, out, _ = run_main(capsys, ["kcover", "--k", "2"] + F8)
        assert code == 0
        result = json.loads(out)
        assert result["fully_covered"] is False
        assert result["virtual"]
        assert len(result["selected"]) >= 8

    def test_k_one_matches_cover_count(self, capsys):
        code, out, _ = run_main(capsys, ["kcover", "--k", "1"] + F8)
        assert code == 0
        assert json.loads(out)["count"] == 6


class TestOracle:
    def test_json_minimum(self, capsys):
        code, out, _ = run_main(capsys, ["oracle"] + F8)
        assert code == 0
        assert json.loads(out) == {"k": 1, "minimum": 6}

    def test_csv_minimum(self, capsys):
        code, out, _ = run_main(capsys, ["oracle", "--format", "csv"] + F8)
        assert code == 0
        assert out == "minimum\n6\n"

    def test_agrees_with_cover_on_fixture(self, capsys):
        _, cov_out, _ = run_main(capsys, ["cover"] + F8)
        _, ora_out, _ = run_main(capsys, ["oracle"] + F8)
        assert json.loads(cov_out)["count"] == json.loads(ora_out)["minimum"]

    def test_cap_errors_cleanly(self, capsys, tmp_path):
        big = tmp_path / "big.jsonl"
        assert main(["gen", "--n", "21", "--width", "100", "--seed", "0",
                     "--out", str(big)]) == 0
        capsys.readouterr()
        code, _, err = run_main(
            capsys,
            ["oracle", "--field", str(big), "--domain", "0", "100"],
        )
        assert code == 1
        assert "capped at 20 sensors, got 21" in err


class TestMend:
    def test_full_repair_flow(self, capsys, tmp_path):
        sel = tmp_path / "sel.json"
        assert main(["cover", "--out", str(sel)] + F8) == 0
        capsys.readouterr()
        code, out, _ = run_main(
            capsys, ["mend", "--result", str(sel), "--failed", "1"] + F8
        )
        assert code == 0
        data = json.loads(out)
        assert data["gaps"] == [{"u": 4.5, "v": 6.0, "failed_ids": [1]}]
        assert data["result"]["selected"] == [0, 2, 3, 4, 5, 6]
        assert data["result"]["fully_covered"] is True

    def test_edge_failure_needs_virtual(self, capsys, tmp_path):
        sel = tmp_path / "sel.json"
        assert main(["cover", "--out", str(sel)] + F8) == 0
        capsys.readouterr()
        code, out, _ = run_main(
            capsys, ["mend", "--result", str(sel), "--failed", "0"] + F8
        )
        assert code == 0
        data = json.loads(out)
        assert data["gaps"][0]["u"] == 0.0
        result = data["result"]
        assert result["fully_covered"] is False
        assert len(result["virtual"]) == 1
        vid = result["virtual"][0]
        assert result["virtual_spans"][str(vid)] == [0.0, 4.0]

    def test_unknown_failed_id_errors(self, capsys, tmp_path):
        sel = tmp_path / "sel.json"
        assert main(["cover", "--out", str(sel)] + F8) == 0
        capsys.readouterr()
        code, _, err = run_main(
            capsys, ["mend", "--result", str(sel), "--failed", "99"] + F8
        )
        assert code == 1
        assert "never selected" in err


class TestBaseline:
    def test_greedy_covers_fixture(self, capsys):
        code, out, _ = run_main(
            capsys, ["baseline", "--algorithm", "greedy"] + F8
        )
        assert code == 0
        result = json.loads(out)
        assert result["fully_covered"] is True
        assert result["count"] >= 6

    def test_kpaths_round_two_bridges(self, capsys):
        code, out, _ = run_main(
            capsys,
            ["baseline", "--algorithm", "kpaths", "--k", "2",
             "--format", "csv"] + F8,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "0,0,0,4.5,0"
        assert lines[-1] == "6,8,0,20,1"


class TestExperiment:
    ARGS = ["experiment", "--name", "k_barrier", "--sweep", "60",
            "--realizations", "2", "--k-values", "2"]

    def test_csv_deterministic_across_runs_and_jobs(self, capsys, tmp_path):
        a, b, c = (tmp_path / x for x in ("a.csv", "b.csv", "c.csv"))
        assert main(self.ARGS + ["--format", "csv", "--out", str(a)]) == 0
        assert main(self.ARGS + ["--format", "csv", "--out", str(b)]) == 0
        assert main(self.ARGS + ["--format", "csv", "--jobs", "2",
                                 "--out", str(c)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_json_timing_opt_in(self, capsys):
        code, out, _ = run_main(capsys, self.ARGS)
        assert code == 0
        assert "wall_time_s" not in json.loads(out)
        code, out, _ = run_main(capsys, self.ARGS + ["--timing"])
        assert code == 0
        assert json.loads(out)["wall_time_s"] >= 0.0

    @pytest.mark.parametrize(
        "flags, saved",
        [([], {}), (["--seed", "5"], {}), ([], {"jobs": 2})],
        ids=["stock", "seed-5", "jobs-2"],
    )
    def test_config_file_round_trip(
        self, capsys, tmp_path, monkeypatch, flags, saved
    ):
        # a saved config reruns as saved: no option that was not given
        # overrides its seed or its worker count
        code, reference, _ = run_main(capsys, self.ARGS + flags)
        assert code == 0
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**json.loads(reference)["config"], **saved}))
        ran = []

        def run(config):
            ran.append(config)
            return run_experiment(config)

        monkeypatch.setattr(cli, "run_experiment", run)
        code, out, _ = run_main(capsys, ["experiment", "--config", str(cfg)])
        assert code == 0
        assert out == reference
        assert ran[0].jobs == saved.get("jobs", 1)

    def test_seed_flag_changes_records(self, capsys):
        _, out_a, _ = run_main(capsys, self.ARGS)
        _, out_b, _ = run_main(capsys, self.ARGS + ["--seed", "1"])
        a, b = json.loads(out_a), json.loads(out_b)
        assert a["records"] != b["records"]

    def test_k_values_apply_to_k_barrier_only(self, capsys, tmp_path):
        # a saved config of another experiment is refused as its name is
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(default_config("multi_gap").to_dict()))
        code, out, err = run_main(
            capsys, ["experiment", "--config", str(cfg), "--k-values", "7,9"]
        )
        assert code == 1
        assert err == "error: --k-values applies to k_barrier only\n"
        assert out == ""

    def test_needs_name_or_config(self, capsys):
        code, _, err = run_main(capsys, ["experiment"])
        assert code == 1
        assert err.endswith(
            "barriercover experiment: error:"
            " one of the arguments --name --config is required\n"
        )


class TestDiagnostics:
    def test_missing_field_file(self, capsys):
        code, _, err = run_main(
            capsys, ["cover", "--field", "/nonexistent.jsonl",
                     "--domain", "0", "10"]
        )
        assert code == 1
        assert "error:" in err

    def test_malformed_json_line_is_located(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        for second in (
            "{not json}",
            '{"id": 1, "kind": "omni", "x": Infinity, "y": 0.0, "radius": 2.0}',
            '{"id": 1, "kind": "omni", "x": NaN, "y": 0.0, "radius": 2.0}',
            '{"id": Infinity, "kind": "omni", "x": 3.0, "y": 0.0, "radius": 2.0}',
            '{"id": 1.7, "kind": "omni", "x": 3.0, "y": 0.0, "radius": 2.0}',
            '{"id": true, "kind": "omni", "x": 3.0, "y": 0.0, "radius": 2.0}',
            '{"id": "2", "kind": "omni", "x": 3.0, "y": 0.0, "radius": 2.0}',
        ):
            bad.write_text(
                '{"id": 0, "kind": "omni", "x": 1.0, "y": 0.0, "radius": 2.0}\n'
                + second + "\n"
            )
            code, _, err = run_main(
                capsys, ["cover", "--field", str(bad), "--domain", "0", "10"]
            )
            assert code == 1, second
            assert "line 2" in err, second

    def test_duplicate_id_is_located(self, capsys, tmp_path):
        bad = tmp_path / "dup.jsonl"
        bad.write_text(
            '{"id": 0, "kind": "omni", "x": 1.0, "y": 0.0, "radius": 2.0}\n'
            '{"id": 0, "kind": "omni", "x": 5.0, "y": 0.0, "radius": 2.0}\n'
        )
        code, _, err = run_main(
            capsys, ["cover", "--field", str(bad), "--domain", "0", "20"]
        )
        assert code == 1
        assert err == "error: line 2: duplicate sensor id 0\n"

    def test_unknown_key_is_located(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"id": 0, "kind": "omni", "x": 1.0, "y": 0.0, "radius": 2.0,'
            ' "tilt": 3}\n'
        )
        code, _, err = run_main(
            capsys, ["cover", "--field", str(bad), "--domain", "0", "10"]
        )
        assert code == 1
        assert "line 1" in err

    def test_empty_domain_rejected(self, capsys):
        for a, b in (("5", "5"), ("0", "inf"), ("nan", "20")):
            code, _, err = run_main(
                capsys, ["cover", "--field", FIELD8, "--domain", a, b]
            )
            assert code == 1, (a, b)
            assert "domain" in err, (a, b)

    def test_config_deployment_must_be_an_object(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(
            {"experiment": "k_barrier", "deployment": 5, "sweep": [60]}
        ))
        code, _, err = run_main(capsys, ["experiment", "--config", str(cfg)])
        assert code == 1
        assert err.startswith(f"error: malformed config file {cfg}: ")

    def test_result_file_must_be_a_selection_object(self, capsys, tmp_path):
        sel = tmp_path / "sel.json"
        for text in ("[0, 1, 2]", '{"selected": [0], "virtual_spans": []}'):
            sel.write_text(text + "\n")
            code, _, err = run_main(
                capsys, ["mend", "--result", str(sel), "--failed", "0"] + F8
            )
            assert code == 1, text
            assert err.startswith(f"error: malformed result file {sel}: "), text

    @pytest.mark.parametrize(
        "text, fault",
        [
            (
                '{"selected": [0, true]}',
                "selected ids must be integers in [0, 2**63), got True",
            ),
            (
                '{"selected": [0, 1.0]}',
                "selected ids must be integers in [0, 2**63), got 1.0",
            ),
            (
                '{"selected": [0], "trace": [{"current_target": 0.0,'
                ' "candidate_ids": [0], "chosen_id": 0, "reach": NaN}]}',
                "trace step 0 reach must be a finite number, got nan",
            ),
            (
                '{"selected": [0], "trace": [{"current_target": "x",'
                ' "candidate_ids": [0], "chosen_id": 0, "reach": 4.0}]}',
                "trace step 0 current_target must be a finite number, got 'x'",
            ),
            (
                '{"selected": [0], "fully_covered": "false"}',
                "fully_covered must be true or false, got 'false'",
            ),
            (
                '{"selected": [0, 20], "virtual": [20], "virtual_spans": {}}',
                "virtual sensor 20 has no virtual span",
            ),
            (
                '{"selected": [0, 20], "virtual": [20],'
                ' "virtual_spans": {"20": [NaN, 5]}}',
                "virtual span 20 must be finite with u <= v, got [nan, 5.0]",
            ),
            (
                '{"selected": [0, 20], "virtual": [20],'
                ' "virtual_spans": {"20": [5, 1]}}',
                "virtual span 20 must be finite with u <= v, got [5.0, 1.0]",
            ),
            ('{"selected": [0, 0]}', "selected_ids must not contain duplicates"),
            (
                '{"selected": [0], "virtual": [20], "virtual_spans": {"20": [1, 2]}}',
                "virtual_ids must be a subset of selected_ids",
            ),
            (
                '{"selected": [0, 1, 99], "virtual": [],'
                ' "virtual_spans": {"99": [4.0, 9.0]}}',
                "virtual span 99 has no virtual sensor",
            ),
            (
                '{"selected": [0, 1, 2], "virtual": [2],'
                ' "virtual_spans": {"2": [15.0, 16.0]}}',
                "virtual sensor 2 is a real sensor of the field",
            ),
            (
                '{"selected": [0, 3, 2], "virtual": [2, 3],'
                ' "virtual_spans": {"3": [15.0, 16.0], "2": [15.0, 16.0]}}',
                "virtual sensor 3 is a real sensor of the field",
            ),
            (
                '{"selected": [0, 1], "count": 99}',
                "count must be 2, the number of selected ids, got 99",
            ),
            (
                '{"selected": [0, 1], "trace": [{"current_target": 0.0,'
                ' "candidate_ids": [0], "chosen_id": 5, "reach": 4.0}]}',
                "trace step 0 chose 5, which is not selected",
            ),
            ('{"selected": 5}', "selected must be a list, got 5"),
            ('{"selected": [0], "virtual": 5}', "virtual must be a list, got 5"),
            ('{"selected": [0], "trace": 5}', "trace must be a list, got 5"),
            ('{"selected": [0], "trace": [5]}', "trace step 0 must be an object, got 5"),
            (
                '{"selected": [0], "trace": [{"current_target": 0.0,'
                ' "candidate_ids": 5, "chosen_id": 0, "reach": 4.0}]}',
                "trace step 0 candidate_ids must be a list, got 5",
            ),
            (
                '{"selected": [0], "virtual_spans": [1]}',
                "virtual_spans must be an object, got [1]",
            ),
            (
                '{"selected": [0, 20], "virtual": [20], "virtual_spans": {"20": 5}}',
                "virtual span 20 must be a list of two numbers, got 5",
            ),
            (
                '{"selected": [0, 20], "virtual": [20],'
                ' "virtual_spans": {"20": [1, 2, 3]}}',
                "virtual span 20 must be a list of two numbers, got [1, 2, 3]",
            ),
            (
                '{"selected": [0, 20], "virtual": [20],'
                ' "virtual_spans": {"20": ["1", 2]}}',
                "virtual span 20 must be a list of two numbers, got ['1', 2]",
            ),
            (
                '{"selected": [0, 20], "virtual": [20],'
                ' "virtual_spans": {"20": [true, 2]}}',
                "virtual span 20 must be a list of two numbers, got [True, 2]",
            ),
            (
                '{"selected": [0, 20], "virtual": [20],'
                ' "virtual_spans": {"20": [1%s, 2]}}' % ("0" * 400),
                "virtual span 20 must be finite with u <= v, got [1%s, 2]" % ("0" * 400),
            ),
            (
                '{"selected": [0, 5], "virtual": [5],'
                ' "virtual_spans": {" 5": [1.0, 2.0], "5": [3.0, 4.0]}}',
                "virtual span key ' 5' must be an id in decimal",
            ),
            ('{"count": 0}', "ValueError('result lacks selected')"),
            (
                '{"selected": [0], "trace": [{"current_target": 0.0, "chosen_id": 0}]}',
                "ValueError('trace step 0 lacks reach')",
            ),
            (
                '{"selected": [0, 1], "trace": [{"current_target": 0.0, "chosen_id": 0,'
                ' "reach": 1.0}, {"chosen_id": 1, "reach": 2.0}]}',
                "ValueError('trace step 1 lacks current_target')",
            ),
            (
                '{"selected": [0], "trace": [{"current_target": 0.0, "reach": 1.0}]}',
                "ValueError('trace step 0 lacks chosen_id')",
            ),
        ],
        ids=[
            "bool-id",
            "float-id",
            "nan-reach",
            "str-target",
            "str-fully-covered",
            "virtual-no-span",
            "nan-span",
            "reversed-span",
            "duplicate-id",
            "virtual-not-selected",
            "span-not-virtual",
            "virtual-is-real",
            "first-real-in-ledger-order",
            "wrong-count",
            "chosen-not-selected",
            "selected-not-a-list",
            "virtual-not-a-list",
            "trace-not-a-list",
            "step-not-an-object",
            "candidates-not-a-list",
            "spans-not-an-object",
            "span-not-a-list",
            "span-of-three",
            "span-of-a-string",
            "span-of-a-boolean",
            "span-beyond-the-floats",
            "span-key-not-decimal",
            "no-selected",
            "step-without-reach",
            "step-without-target",
            "step-without-chosen-id",
        ],
    )
    def test_result_file_faults_name_the_file(self, capsys, tmp_path, text, fault):
        sel = tmp_path / "sel.json"
        sel.write_text(text + "\n")
        for fmt in ("json", "csv"):
            code, out, err = run_main(
                capsys,
                ["mend", "--result", str(sel), "--failed", "0", "--format", fmt] + F8,
            )
            assert code == 1, fmt
            assert err.startswith(f"error: malformed result file {sel}: "), fmt
            assert fault in err, fmt
            assert out == "", fmt

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["kcover", "--k", "1", "--targets", "inf"], "inf"),
            (["kcover", "--k", "1", "--targets", "nan,1"], "nan"),
            (["kcover", "--k", "1", "--targets", "1,nan"], "nan"),
        ],
        ids=["inf", "nan-first", "nan-last"],
    )
    def test_targets_must_be_finite(self, capsys, argv, bad):
        code, out, err = run_main(capsys, argv + F8)
        assert code == 1
        assert err == f"error: targets must be finite, got {bad}\n"
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["kcover", "--k", "1"],
            ["baseline", "--algorithm", "greedy"],
            ["oracle"],
        ],
        ids=["kcover", "baseline", "oracle"],
    )
    def test_empty_targets_are_refused(self, capsys, argv):
        # an empty list is a list of no targets, not a missing one
        code, out, err = run_main(capsys, argv + ["--targets", ""] + F8)
        assert code == 1
        assert err == "error: targets must be non-empty\n"
        assert out == ""

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["kcover", "--k", "1", "--targets", "40000"], "40000.0"),
            (["kcover", "--k", "1", "--targets=-5,3"], "-5.0"),
            (["baseline", "--algorithm", "greedy", "--targets", "40000"], "40000.0"),
            (["baseline", "--algorithm", "greedy", "--targets=-5,3"], "-5.0"),
            (["oracle", "--targets", "40000"], "40000.0"),
            (["oracle", "--targets=-5,3"], "-5.0"),
        ],
        ids=["above", "below", "greedy-above", "greedy-below", "oracle-above",
             "oracle-below"],
    )
    def test_targets_must_lie_in_the_domain(self, capsys, argv, bad):
        code, out, err = run_main(capsys, argv + F8)
        assert code == 1
        assert err == f"error: targets must lie in the domain [0.0, 20.0], got {bad}\n"
        assert out == ""

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["gen", "--n", "3", "--width", "30", "--format", "json"], "--format"),
            (["gen", "--n", "3", "--width", "30", "--jobs", "2"], "--jobs"),
            (["cover", "--seed", "1"] + F8, "--seed"),
            (["cover", "--jobs", "2"] + F8, "--jobs"),
            (["cover", "--mode", "discrete"] + F8, "--mode"),
            (["cover", "--targets", "1,5"] + F8, "--targets"),
            (["kcover", "--k", "1", "--seed", "1"] + F8, "--seed"),
            (["kcover", "--k", "1", "--jobs", "2"] + F8, "--jobs"),
            (["mend", "--result", "sel.json", "--failed", "1", "--seed", "1"] + F8,
             "--seed"),
            (["mend", "--result", "sel.json", "--failed", "1", "--jobs", "2"] + F8,
             "--jobs"),
            (["baseline", "--seed", "1"] + F8, "--seed"),
            (["baseline", "--jobs", "2"] + F8, "--jobs"),
            (["oracle", "--seed", "1"] + F8, "--seed"),
            (["oracle", "--jobs", "2"] + F8, "--jobs"),
            (["baseline", "--algorithm", "greedy", "--k", "2"] + F8, "--k"),
            (["baseline", "--algorithm", "kpaths", "--targets", "1,5"] + F8,
             "--targets"),
            (["experiment", "--name", "k_barrier", "--timing", "--format", "csv"],
             "--timing"),
            (["gen", "--n", "3", "--width", "30", "--sensor-kind", "omni",
              "--fov", "30"], "--fov"),
            (["gen", "--n", "3", "--width", "30", "--kind", "poisson",
              "--line-sigma", "3"], "--line-sigma"),
            (["gen", "--n", "3", "--width", "30", "--kind", "line",
              "--strip-height", "5"], "--strip-height"),
            (["experiment", "--name", "multi_gap", "--k-values", "7,9"],
             "--k-values"),
        ],
        ids=[
            "gen-format", "gen-jobs", "cover-seed", "cover-jobs", "cover-mode",
            "cover-targets", "kcover-seed", "kcover-jobs", "mend-seed",
            "mend-jobs", "baseline-seed", "baseline-jobs", "oracle-seed",
            "oracle-jobs", "greedy-k", "kpaths-targets", "csv-timing",
            "omni-fov", "poisson-line-sigma", "line-strip-height",
            "multi-gap-k-values",
        ],
    )
    def test_no_option_is_ignored(self, capsys, argv, option):
        # the first fourteen are options the command does not take; the
        # others are options the rest of the command would not read
        code, out, err = run_main(capsys, argv)
        assert code == 1
        assert option in err
        assert out == ""

    def test_non_json_config_and_result_name_the_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json}\n")
        for argv, what in (
            (["experiment", "--config", str(bad)], "config"),
            (["mend", "--result", str(bad), "--failed", "1"] + F8, "result"),
        ):
            code, _, err = run_main(capsys, argv)
            assert code == 1, what
            assert err.startswith(f"error: malformed {what} file {bad}: "), what
            assert "line 1 column 2" in err, what

    def test_unknown_deployment_kind_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "experiment": "k_barrier",
            "deployment": {"n": 50, "width": 100.0, "kind": "grid"},
            "sweep": [60],
        }))
        code, _, err = run_main(capsys, ["experiment", "--config", str(cfg)])
        assert code == 1
        assert err == "error: unknown deployment kind 'grid'\n"

    def test_infeasible_multi_gap_sweep_is_a_parameter_error(self, capsys):
        code, _, err = run_main(
            capsys,
            ["experiment", "--name", "multi_gap", "--sweep", "400",
             "--realizations", "1"],
        )
        assert code == 1
        assert err == (
            "error: no deployment with at least 400 selected sensors"
            " in 200 attempts\n"
        )

    @pytest.mark.parametrize(
        "command",
        [["cover"], ["kcover", "--k", "1"], ["baseline", "--algorithm", "kpaths", "--k", "2"]],
        ids=["cover", "kcover", "kpaths"],
    )
    def test_no_virtual_id_past_the_id_range(self, capsys, tmp_path, command):
        # the sensors cover [1, 3] twice and [7, 9] once of [0, 10]; the
        # largest id is the largest a sensor may take, so no virtual sensor
        # has an id
        top = 2**63 - 1
        field = tmp_path / "top.jsonl"
        field.write_text(
            f'{{"id": {top}, "kind": "omni", "x": 2.0, "y": 0.0, "radius": 1.0}}\n'
            '{"id": 5, "kind": "omni", "x": 8.0, "y": 0.0, "radius": 1.0}\n'
            '{"id": 6, "kind": "omni", "x": 2.0, "y": 0.0, "radius": 1.0}\n'
        )
        out = tmp_path / "result.json"
        argv = command + ["--field", str(field), "--domain", "0", "10", "--out", str(out)]
        code, _, err = run_main(capsys, argv)
        assert code == 1
        assert err == f"error: no id is left for a virtual sensor: the largest id in use is {top}\n"
        assert not out.exists()
        # a domain the sensors cover needs no virtual sensor
        argv = command + ["--field", str(field), "--domain", "1", "3"]
        code, result, _ = run_main(capsys, argv)
        assert code == 0
        assert json.loads(result)["virtual"] == []

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--width", "inf"], "width must be finite, got inf"),
            (["--kind", "poisson", "--strip-height", "nan"],
             "strip_height must be finite, got nan"),
            (["--line-sigma", "nan"], "line_sigma must be finite, got nan"),
            (["--radius", "inf"], "radius must be finite, got inf"),
        ],
        ids=["width", "strip_height", "line_sigma", "radius"],
    )
    def test_gen_rejects_non_finite_deployments(self, capsys, flags, message):
        argv = ["gen", "--n", "4", "--width", "50", "--seed", "1"] + flags
        code, out, err = run_main(capsys, argv)
        assert code == 1
        assert err == f"error: {message}\n"
        assert out == ""

    def test_config_n_must_be_an_integer(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "experiment": "multi_gap",
            "deployment": {"n": 1000.5, "width": 100.0, "kind": "poisson",
                           "radius": 2.0, "fov": 45.0},
            "sweep": [1],
        }))
        code, _, err = run_main(capsys, ["experiment", "--config", str(cfg)])
        assert code == 1
        assert err == "error: n must be an integer, got 1000.5\n"

    @pytest.mark.parametrize(
        "name, value, shown",
        [("width", True, "True"), ("radius", [1], "[1]"), ("fov", "90", "'90'")],
    )
    def test_config_lengths_must_be_numbers(self, capsys, tmp_path, name, value, shown):
        cfg = tmp_path / "config.json"
        deployment = {"n": 10, "width": 100.0, "kind": "poisson", "radius": 2.0, "fov": 45.0}
        cfg.write_text(json.dumps({
            "experiment": "multi_gap",
            "deployment": {**deployment, name: value},
            "sweep": [1],
        }))
        code, out, err = run_main(capsys, ["experiment", "--config", str(cfg)])
        assert code == 1
        assert err == f"error: {name} must be a number, got {shown}\n"
        assert out == ""

    def test_unknown_subcommand_exits_nonzero(self, capsys):
        code, _, _ = run_main(capsys, ["teleport"])
        assert code != 0

    @staticmethod
    def run_commands(capsys, text):
        """Run every ``barriercover`` command of a shell text, continuation
        lines joined, in order; each must exit 0."""
        lines = text.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines
                    if line.startswith("barriercover ")]
        for argv in commands:
            code, _, err = run_main(capsys, argv)
            assert (code, err) == (0, ""), argv
        return commands

    def test_printed_examples_run(self, capsys, tmp_path, monkeypatch):
        code, out, _ = run_main(capsys, ["examples"])
        assert code == 0
        monkeypatch.chdir(tmp_path)
        commands = self.run_commands(capsys, out)
        assert [argv[0] for argv in commands] == [
            "gen", "cover", "kcover", "cover", "mend", "baseline", "baseline",
            "gen", "oracle", "experiment",
        ]

    def test_readme_session_runs(self, capsys, tmp_path, monkeypatch):
        session = README.read_text(encoding="utf-8").split("A session:\n\n```sh\n")[1]
        monkeypatch.chdir(tmp_path)
        commands = self.run_commands(capsys, session.split("```")[0])
        assert [argv[0] for argv in commands] == ["gen", "cover", "mend", "experiment"]

    def test_package_exports_only_what_the_readme_names(self):
        text = README.read_text(encoding="utf-8")
        fence = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
        spans = fence.findall(text) + re.findall(r"`([^`]+)`", fence.sub("", text))
        named = {word for span in spans for word in re.findall(r"\w+", span)}
        public = [name for name in barriercover.__all__ if not name.startswith("__")]
        assert [name for name in public if name not in named] == []
        for name in public:
            getattr(barriercover, name)

    def test_readme_quick_start_runs(self, capsys):
        text = README.read_text(encoding="utf-8")
        code = text.split("## Library quick start\n\n```python\n")[1].split("```")[0]
        exec(code, {})
        header, *steps = capsys.readouterr().out.splitlines()
        assert header == "17 True"
        steps = [step.split() for step in steps]
        assert len(steps) == 17
        # each step starts where the one before reached, from a to b
        frontiers = [f for f, _chosen, _reach in steps] + ["200.0"]
        assert frontiers[0] == "0.0"
        assert [reach for _f, _chosen, reach in steps] == frontiers[1:]


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            ["barriercover", "oracle"] + F8,
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"k": 1, "minimum": 6}

    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "barriercover.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "cover" in proc.stdout
