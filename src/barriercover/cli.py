"""Command line interface.

Subcommands::

    gen         generate a random sensor field file
    cover       select a minimum set of sensors covering the segment
    kcover      select a minimum set covering every point k times
    mend        locate and locally mend gaps left by failed sensors
    baseline    benchmark selectors (greedy max coverage, k disjoint paths)
    oracle      exhaustive minimum k-cover size for small fields
    experiment  seeded Monte-Carlo studies over random deployments
    examples    print copy-paste-ready invocations

Exit codes: 0 on success, 1 on bad input (unreadable or malformed files,
invalid parameters), 2 on an internal invariant violation.

Output is deterministic for a given invocation: the same command writes
byte-identical bytes every run, regardless of ``--jobs``. Timing is only
included when ``--timing`` asks for it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, Sequence

from .algorithms import SelectionResult, find_gaps, k_oga, logm, oga, oga_continuous
from .baselines import (
    brute_force_min_kcover,
    build_barrier_graph,
    greedy_max_coverage,
    k_disjoint_paths,
)
from .deployment import DeploymentSpec, generate
from .fieldio import read_field, write_field
from .harness import EXPERIMENTS, ExperimentConfig, default_config, run_experiment
from .model import ParameterError, SensorField, TargetSet, discretize

_FORMATS = ("json", "csv")


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ParameterError(f"expected comma-separated integers, got {text!r}")


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ParameterError(f"expected comma-separated numbers, got {text!r}")


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _read_json(path: str, what: str, parse: Callable):
    """``parse`` applied to the JSON object in a file; a malformed file is
    a ParameterError naming it. A ParameterError from ``parse`` is a bad
    setting in a well-formed file, and its message says which."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object, got {type(data).__name__}")
        return parse(data)
    except ParameterError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed {what} file {path}: {exc!r}") from None


def _load_field(args: argparse.Namespace) -> SensorField:
    a, b = args.domain
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ParameterError(f"--domain must be finite, got {a} {b}")
    return read_field(args.field, (a, b))


def _targets_for(args: argparse.Namespace, field: SensorField) -> TargetSet:
    if getattr(args, "targets", None):
        return TargetSet(_float_list(args.targets))
    return discretize(field)


def _result_csv(field: SensorField, result: SelectionResult) -> str:
    us, vs, real = result.selected_spans(field)
    lines = ["order,sensor_id,u,v,virtual"]
    for order, (sid, u, v, known) in enumerate(
        zip(result.selected_ids, us.tolist(), vs.tolist(), real.tolist())
    ):
        lines.append(f"{order},{sid},{u:.10g},{v:.10g},{int(not known)}")
    return "\n".join(lines) + "\n"


def _emit_result(
    args: argparse.Namespace, field: SensorField, result: SelectionResult
) -> None:
    if args.format == "csv":
        _emit(_result_csv(field, result), args.out)
    else:
        _emit(json.dumps(result.to_dict(), indent=2) + "\n", args.out)


def cmd_gen(args: argparse.Namespace) -> int:
    spec = DeploymentSpec(
        n=args.n,
        width=args.width,
        strip_height=args.strip_height,
        kind=args.kind,
        line_sigma=args.line_sigma,
        radius=args.radius,
        fov=args.fov if args.sensor_kind == "directional" else None,
        sensor_kind=args.sensor_kind,
        seed=args.seed,
    )
    out = sys.stdout if args.out is None or args.out == "-" else args.out
    write_field(generate(spec), out)
    return 0


def cmd_cover(args: argparse.Namespace) -> int:
    field = _load_field(args)
    if args.mode == "continuous":
        result = oga_continuous(field, field.domain)
    else:
        result = oga(field, _targets_for(args, field))
    _emit_result(args, field, result)
    return 0


def cmd_kcover(args: argparse.Namespace) -> int:
    field = _load_field(args)
    result = k_oga(field, _targets_for(args, field), args.k)
    _emit_result(args, field, result)
    return 0


def cmd_mend(args: argparse.Namespace) -> int:
    field = _load_field(args)
    previous = _read_json(args.result, "result", SelectionResult.from_dict)
    failed = _int_list(args.failed)
    gaps = find_gaps(previous, failed, field, field.domain)
    mended = logm(previous, gaps, field, field.domain, failed_ids=failed)
    if args.format == "csv":
        _emit(_result_csv(field, mended), args.out)
    else:
        payload = {
            "gaps": [
                {"u": g.u, "v": g.v, "failed_ids": sorted(g.failed_ids)} for g in gaps
            ],
            "result": mended.to_dict(),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    field = _load_field(args)
    if args.algorithm == "greedy":
        result = greedy_max_coverage(field, _targets_for(args, field))
    else:
        graph = build_barrier_graph(field, field.domain)
        result = k_disjoint_paths(graph, args.k)
    _emit_result(args, field, result)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    field = _load_field(args)
    minimum = brute_force_min_kcover(field, _targets_for(args, field), args.k)
    if args.format == "csv":
        _emit("minimum\n" + ("" if minimum is None else str(minimum)) + "\n", args.out)
    else:
        _emit(json.dumps({"k": args.k, "minimum": minimum}, indent=2) + "\n", args.out)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.config is not None:
        config = _read_json(args.config, "config", ExperimentConfig.from_dict)
    elif args.name is not None:
        config = default_config(args.name)
    else:
        raise ParameterError("experiment needs --name or --config")
    overrides: dict = {"base_seed": args.seed, "jobs": args.jobs}
    if args.realizations is not None:
        overrides["realizations"] = args.realizations
    if args.sweep is not None:
        overrides["sweep"] = tuple(_int_list(args.sweep))
    if args.k_values is not None:
        overrides["k_values"] = tuple(_int_list(args.k_values))
    config = ExperimentConfig.from_dict({**config.to_dict(), **overrides})
    report = run_experiment(config)
    if args.format == "csv":
        _emit(report.csv_text(), args.out)
    else:
        _emit(report.json_text(include_timing=args.timing), args.out)
    return 0


_EXAMPLES = """\
# deploy 40 directional sensors along a 100 m segment, save the field
barriercover gen --n 40 --width 100 --radius 10 --fov 90 --seed 7 --out field.jsonl

# minimum selection covering the whole segment
barriercover cover --field field.jsonl --domain 0 100

# minimum selection covering every point twice, as a CSV table
barriercover kcover --field field.jsonl --domain 0 100 --k 2 --format csv

# save a selection, then mend the holes left by failed sensors 21 and 31
barriercover cover --field field.jsonl --domain 0 100 --out sel.json
barriercover mend --field field.jsonl --domain 0 100 --result sel.json --failed 21,31

# compare against the benchmarks
barriercover baseline --field field.jsonl --domain 0 100 --algorithm greedy
barriercover baseline --field field.jsonl --domain 0 100 --algorithm kpaths --k 2

# certify a small instance exhaustively
barriercover gen --n 10 --width 40 --seed 3 --out small.jsonl
barriercover oracle --field small.jsonl --domain 0 40 --k 1

# a reduced Monte-Carlo study, reproducibly, on 4 worker processes
barriercover experiment --name single_failure --sweep 200,400 \\
    --realizations 50 --seed 1 --jobs 4 --format csv
"""


def cmd_examples(args: argparse.Namespace) -> int:
    sys.stdout.write(_EXAMPLES)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base random seed")
    common.add_argument(
        "--out", default=None, help="output file ('-' or omitted: stdout)"
    )
    common.add_argument(
        "--format", choices=_FORMATS, default="json", help="output format"
    )
    common.add_argument(
        "--jobs", type=int, default=1, help="worker processes for experiments"
    )

    field_args = argparse.ArgumentParser(add_help=False)
    field_args.add_argument("--field", required=True, help="sensor field file")
    field_args.add_argument(
        "--domain",
        type=float,
        nargs=2,
        required=True,
        metavar=("A", "B"),
        help="segment to cover",
    )

    parser = argparse.ArgumentParser(
        prog="barriercover",
        description="Minimum sensor selection for 1D barrier coverage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate a random field")
    p.add_argument("--n", type=int, required=True, help="number of sensors")
    p.add_argument("--width", type=float, required=True, help="segment length")
    p.add_argument("--kind", choices=["line", "poisson"], default="line")
    p.add_argument("--sensor-kind", choices=["omni", "directional"],
                   default="directional", dest="sensor_kind")
    p.add_argument("--radius", type=float, default=10.0)
    p.add_argument("--fov", type=float, default=90.0)
    p.add_argument("--line-sigma", type=float, default=10.0, dest="line_sigma")
    p.add_argument("--strip-height", type=float, default=10.0, dest="strip_height")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "cover", parents=[common, field_args], help="minimum covering selection"
    )
    p.add_argument("--mode", choices=["continuous", "discrete"], default="continuous")
    p.add_argument("--targets", default=None,
                   help="comma-separated target points (discrete mode)")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser(
        "kcover", parents=[common, field_args], help="minimum k-covering selection"
    )
    p.add_argument("--k", type=int, required=True, help="coverage multiplicity")
    p.add_argument("--targets", default=None,
                   help="comma-separated target points")
    p.set_defaults(func=cmd_kcover)

    p = sub.add_parser(
        "mend", parents=[common, field_args], help="mend gaps after failures"
    )
    p.add_argument("--result", required=True, help="JSON file from cover/kcover")
    p.add_argument("--failed", required=True, help="comma-separated failed ids")
    p.set_defaults(func=cmd_mend)

    p = sub.add_parser(
        "baseline", parents=[common, field_args], help="benchmark selectors"
    )
    p.add_argument("--algorithm", choices=["greedy", "kpaths"], default="greedy")
    p.add_argument("--k", type=int, default=1, help="paths to extract (kpaths)")
    p.add_argument("--targets", default=None,
                   help="comma-separated target points (greedy)")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser(
        "oracle", parents=[common, field_args],
        help="exhaustive minimum k-cover size (small fields)",
    )
    p.add_argument("--k", type=int, default=1, help="coverage multiplicity")
    p.add_argument("--targets", default=None,
                   help="comma-separated target points")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser(
        "experiment", parents=[common], help="seeded Monte-Carlo studies"
    )
    p.add_argument("--name", choices=list(EXPERIMENTS), default=None,
                   help="stock experiment configuration")
    p.add_argument("--config", default=None, help="experiment config JSON file")
    p.add_argument("--realizations", type=int, default=None)
    p.add_argument("--sweep", default=None, help="comma-separated sweep values")
    p.add_argument("--k-values", default=None, dest="k_values",
                   help="comma-separated coverage multiplicities (k_barrier)")
    p.add_argument("--timing", action="store_true",
                   help="include wall time in JSON output")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("examples", help="print copy-paste-ready invocations")
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # invariant violation: nothing the input explains
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
