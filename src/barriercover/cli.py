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
import sys
from pathlib import Path
from typing import Callable, Sequence

from .algorithms import SelectionResult, find_gaps, k_oga, logm, oga_continuous
from .baselines import (
    brute_force_min_kcover,
    build_barrier_graph,
    greedy_max_coverage,
    k_disjoint_paths,
)
from .deployment import DeploymentSpec, generate
from .fieldio import read_field, write_field
from .harness import EXPERIMENTS, ExperimentConfig, default_config, run_experiment
from .model import ParameterError, SensorField, TargetSet, _segment, discretize

_FORMATS = ("json", "csv")


def _list(text: str, kind: type) -> list:
    """Comma-separated values of ``kind`` (int or float), blanks skipped."""
    try:
        return [kind(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise ParameterError(f"expected comma-separated {what}, got {text!r}")


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
    return read_field(args.field, _segment(args.domain))


def _read_result(path: str, field: SensorField) -> SelectionResult:
    """A result file made for ``field``, none of whose virtual ids is a
    real sensor there."""

    def parse(data: dict) -> SelectionResult:
        result = SelectionResult.from_dict(data)
        ledger = list(result.virtual_spans)
        held = [vid for vid, row in zip(ledger, field._rows_of(ledger).tolist()) if row >= 0]
        if held:
            raise ValueError(f"virtual sensor {held[0]} is a real sensor of the field")
        return result

    return _read_json(path, "result", parse)


def _targets_for(args: argparse.Namespace, field: SensorField) -> TargetSet:
    if args.targets is not None:
        return TargetSet(_list(args.targets, float))
    return discretize(field)


def _result_csv(field: SensorField, result: SelectionResult) -> str:
    us, vs, real = result.selected_spans(field)
    lines = ["order,sensor_id,u,v,virtual"]
    for order, (sid, u, v, known) in enumerate(
        zip(result.selected_ids, us.tolist(), vs.tolist(), real.tolist())
    ):
        lines.append(f"{order},{sid},{u:.10g},{v:.10g},{int(not known)}")
    return "\n".join(lines) + "\n"


def _trace(args: argparse.Namespace) -> bool:
    """Whether the output shows a selection trace: only JSON does."""
    return args.format == "json"


def _emit_result(
    args: argparse.Namespace, field: SensorField, result: SelectionResult
) -> None:
    if args.format == "csv":
        _emit(_result_csv(field, result), args.out)
    else:
        _emit(json.dumps(result.to_dict(), indent=2) + "\n", args.out)


def cmd_gen(args: argparse.Namespace) -> int:
    # each shape option applies to one kind; left out, the spec's default holds
    shape = {
        "fov": ("--sensor-kind directional", args.sensor_kind == "directional"),
        "line_sigma": ("--kind line", args.kind == "line"),
        "strip_height": ("--kind poisson", args.kind == "poisson"),
    }
    options = vars(args)
    for name, (kind, applies) in shape.items():
        if options[name] is not None and not applies:
            raise ParameterError(f"--{name.replace('_', '-')} applies to {kind} only")
    given = {name: options[name] for name in shape if options[name] is not None}
    spec = DeploymentSpec(
        n=args.n,
        width=args.width,
        kind=args.kind,
        radius=args.radius,
        sensor_kind=args.sensor_kind,
        seed=args.seed,
        **given,
    )
    out = sys.stdout if args.out is None or args.out == "-" else args.out
    write_field(generate(spec), out)
    return 0


def cmd_cover(args: argparse.Namespace) -> int:
    field = _load_field(args)
    result = oga_continuous(field, field.domain, record_trace=_trace(args))
    _emit_result(args, field, result)
    return 0


def cmd_kcover(args: argparse.Namespace) -> int:
    field = _load_field(args)
    targets = _targets_for(args, field)
    result = k_oga(field, targets, args.k, record_trace=_trace(args))
    _emit_result(args, field, result)
    return 0


def cmd_mend(args: argparse.Namespace) -> int:
    field = _load_field(args)
    previous = _read_result(args.result, field)
    failed = _list(args.failed, int)
    gaps = find_gaps(previous, failed, field, field.domain)
    mended = logm(
        previous, gaps, field, field.domain, failed, record_trace=_trace(args)
    )
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
    greedy = args.algorithm == "greedy"
    if greedy and args.k is not None:
        raise ParameterError("--k applies to --algorithm kpaths only")
    if not greedy and args.targets is not None:
        raise ParameterError("--targets applies to --algorithm greedy only")
    field = _load_field(args)
    if greedy:
        result = greedy_max_coverage(
            field, _targets_for(args, field), record_trace=_trace(args)
        )
    else:
        graph = build_barrier_graph(field, field.domain)
        result = k_disjoint_paths(graph, 1 if args.k is None else args.k)
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
    if args.timing and args.format == "csv":
        raise ParameterError("--timing applies to --format json only")
    if args.config is not None:
        config = _read_json(args.config, "config", ExperimentConfig.from_dict)
    else:
        config = default_config(args.name)
    if args.k_values is not None and config.experiment != "k_barrier":
        raise ParameterError("--k-values applies to k_barrier only")
    # only what was given overrides the stock or saved configuration
    given = {
        "base_seed": args.seed,
        "jobs": args.jobs,
        "realizations": args.realizations,
        "sweep": None if args.sweep is None else tuple(_list(args.sweep, int)),
        "k_values": None if args.k_values is None else tuple(_list(args.k_values, int)),
    }
    overrides = {key: value for key, value in given.items() if value is not None}
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
    # every option of a command is one that its cmd_* reads
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output file ('-' or omitted: stdout)")
    output = argparse.ArgumentParser(add_help=False, parents=[out])
    output.add_argument("--format", choices=_FORMATS, default="json", help="output format")

    field_args = argparse.ArgumentParser(add_help=False, parents=[output])
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

    p = sub.add_parser("gen", parents=[out], help="generate a random field")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--n", type=int, required=True, help="number of sensors")
    p.add_argument("--width", type=float, required=True, help="segment length")
    p.add_argument("--kind", choices=["line", "poisson"], default="line")
    p.add_argument("--sensor-kind", choices=["omni", "directional"],
                   default="directional", dest="sensor_kind")
    p.add_argument("--radius", type=float, default=10.0)
    p.add_argument("--fov", type=float, help="degrees (directional; default 90)")
    p.add_argument("--line-sigma", type=float, help="spread of y (line; default 10)")
    p.add_argument("--strip-height", type=float, help="height (poisson; default 10)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "cover", parents=[field_args], help="minimum covering selection"
    )
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser(
        "kcover", parents=[field_args], help="minimum k-covering selection"
    )
    p.add_argument("--k", type=int, required=True, help="coverage multiplicity")
    p.add_argument("--targets", default=None,
                   help="comma-separated target points")
    p.set_defaults(func=cmd_kcover)

    p = sub.add_parser(
        "mend", parents=[field_args], help="mend gaps after failures"
    )
    p.add_argument("--result", required=True, help="JSON file from cover/kcover")
    p.add_argument("--failed", required=True, help="comma-separated failed ids")
    p.set_defaults(func=cmd_mend)

    p = sub.add_parser(
        "baseline", parents=[field_args], help="benchmark selectors"
    )
    p.add_argument("--algorithm", choices=["greedy", "kpaths"], default="greedy")
    p.add_argument("--k", type=int, default=None,
                   help="paths to extract (kpaths; default 1)")
    p.add_argument("--targets", default=None,
                   help="comma-separated target points (greedy)")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser(
        "oracle", parents=[field_args],
        help="exhaustive minimum k-cover size (small fields)",
    )
    p.add_argument("--k", type=int, default=1, help="coverage multiplicity")
    p.add_argument("--targets", default=None,
                   help="comma-separated target points")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser(
        "experiment", parents=[output], help="seeded Monte-Carlo studies"
    )
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--name", choices=list(EXPERIMENTS),
                        help="stock experiment configuration")
    source.add_argument("--config", help="experiment config JSON file")
    p.add_argument("--seed", type=int, default=None, help="base random seed")
    p.add_argument("--jobs", type=int, default=None, help="worker processes")
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
