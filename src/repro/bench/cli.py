"""``python -m repro.bench``: sweep / gate / specs subcommands.

- ``sweep`` runs a scaling sweep (``--grid rows=2048,4096 rank=8
  missing=0.3,0.6 kernel_path=reference,workspace``) and writes the
  canonical schema-versioned JSON;
- ``gate`` diffs a fresh smoke sweep against the committed baselines
  and exits non-zero on any regression, naming the metric;
- ``specs`` lists the registered generator dataset specs and their
  parameter schemas.
"""

from __future__ import annotations

import argparse
import json
from typing import Any

from ..exceptions import ValidationError

__all__ = ["main", "parse_grid"]

_AXIS_PARSERS = {
    "rows": int,
    "rank": int,
    "missing": float,
    "kernel_path": str,
}


def parse_grid(tokens: list[str] | None) -> dict[str, list[Any]] | None:
    """``["rows=2048,4096", "missing=0.3"]`` -> typed axis lists."""
    if not tokens:
        return None
    grid: dict[str, list[Any]] = {}
    for token in tokens:
        axis, sep, raw = token.partition("=")
        if not sep or not raw:
            raise ValidationError(
                f"bad --grid token {token!r}; expected axis=v1,v2,..."
            )
        parser = _AXIS_PARSERS.get(axis)
        if parser is None:
            raise ValidationError(
                f"unknown sweep axis {axis!r}; axes: "
                f"{', '.join(_AXIS_PARSERS)}"
            )
        try:
            grid[axis] = [parser(part) for part in raw.split(",")]
        except ValueError:
            raise ValidationError(
                f"bad value in --grid token {token!r} for axis {axis!r} "
                f"(expected {parser.__name__})"
            ) from None
    return grid


def _add_sweep_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--grid", nargs="*", metavar="AXIS=V1,V2",
        help="override sweep axes (rows, rank, missing, kernel_path)",
    )
    sub.add_argument("--spec", default="lowrank_landmark",
                     help="generator dataset spec (see `specs`)")
    sub.add_argument("--model", default="smfl",
                     choices=("nmf", "smf", "smfl"))
    sub.add_argument("--smoke", action="store_true",
                     help="CI-scale axes (seconds, not minutes)")
    sub.add_argument("--cols", type=int, default=None)
    sub.add_argument("--mask", choices=("mcar", "mnar"), default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--max-iter", type=int, default=None)
    sub.add_argument("--repeats", type=int, default=None)
    sub.add_argument("--jobs", type=int, default=1)
    sub.add_argument("--out", default=None,
                     help="output path (default results/BENCH_sweep.json)")
    sub.add_argument("--trace", default=None, metavar="PATH",
                     help="write a span trace of the sweep (JSONL)")


def _sweep_kwargs(args: argparse.Namespace) -> dict[str, Any]:
    fixed = {
        key: getattr(args, key)
        for key in ("cols", "mask", "seed", "repeats")
        if getattr(args, key) is not None
    }
    if args.max_iter is not None:
        fixed["max_iter"] = args.max_iter
    return dict(
        grid=parse_grid(args.grid),
        spec=args.spec,
        model=args.model,
        smoke=args.smoke,
        jobs=args.jobs,
        **fixed,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from ..obs.stream import record_to
    from .sweep import record_sweep

    with ExitStack() as stack:
        if args.trace:
            stack.enter_context(record_to(args.trace, command="bench_sweep"))
        payload = record_sweep(path=args.out, **_sweep_kwargs(args))
    destination = args.out or "results/BENCH_sweep.json"
    print(f"sweep: {payload['n_cells']} cells -> {destination}")
    for cell in payload["cells"]:
        metrics = cell["metrics"]
        print(
            f"  {cell['key']}: "
            f"{metrics['median_iteration_seconds']:.3e}s/iter, "
            f"rms={metrics['rms']:.4f}"
        )
    return 0


def _cmd_gate(args: argparse.Namespace) -> int:
    from .gate import run_gate
    from .io import read_bench_json, write_bench_json

    fresh = read_bench_json(args.sweep) if args.sweep else None
    report = run_gate(
        args.baseline,
        tolerance=args.tolerance,
        accuracy_rtol=args.accuracy_rtol,
        fresh_sweep=fresh,
        skip_sweep=args.skip_sweep,
        jobs=args.jobs,
    )
    if args.out:
        write_bench_json("gate_report", report.to_payload(), path=args.out)
    checked = len(report.checked_files)
    print(
        f"gate: {checked} baseline file(s) validated, "
        f"{report.compared_cells} sweep cell(s) compared"
    )
    for note in report.notes:
        print(f"  note: {note}")
    if report.passed:
        print("gate: PASS")
        return 0
    print(f"gate: FAIL ({len(report.failures)} failure(s))")
    for failure in report.failures:
        print(f"  FAIL: {failure}")
    return 1


def _cmd_specs(args: argparse.Namespace) -> int:
    from .specs import GENERATOR_SPECS, available_specs

    if args.json:
        document = {
            name: {
                "description": spec.description,
                "params": [
                    {
                        "name": fld.name,
                        "kind": fld.kind,
                        "default": fld.default,
                        "low": fld.low,
                        "high": fld.high,
                        "choices": list(fld.choices) if fld.choices else None,
                        "description": fld.description,
                    }
                    for fld in spec.fields
                ],
            }
            for name, spec in sorted(GENERATOR_SPECS.items())
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    for name in available_specs():
        spec = GENERATOR_SPECS[name]
        print(f"{name}: {spec.description}")
        for fld in spec.fields:
            bounds = ""
            if fld.choices:
                bounds = f" in {{{', '.join(fld.choices)}}}"
            elif fld.low is not None or fld.high is not None:
                bounds = f" in [{fld.low}, {fld.high}]"
            print(f"  {fld.name} ({fld.kind}, default {fld.default}{bounds})"
                  f" - {fld.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="generator-dataset scaling sweeps and the regression gate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a scaling sweep")
    _add_sweep_args(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    gate = sub.add_parser("gate", help="diff a fresh smoke sweep vs baselines")
    gate.add_argument("--baseline", default="results",
                      help="directory of committed BENCH_*.json baselines")
    gate.add_argument("--tolerance", type=float, default=0.15,
                      help="max relative per-iteration slowdown (default 0.15)")
    gate.add_argument("--accuracy-rtol", type=float, default=0.02,
                      help="max relative accuracy drift (default 0.02)")
    gate.add_argument("--sweep", default=None, metavar="PATH",
                      help="pre-recorded fresh sweep JSON (skip re-running)")
    gate.add_argument("--skip-sweep", action="store_true",
                      help="clock-free checks only (schema + accepted metrics)")
    gate.add_argument("--jobs", type=int, default=1)
    gate.add_argument("--out", default=None, metavar="PATH",
                      help="write the gate report JSON here")
    gate.set_defaults(func=_cmd_gate)

    specs = sub.add_parser("specs", help="list generator dataset specs")
    specs.add_argument("--json", action="store_true")
    specs.set_defaults(func=_cmd_specs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}")
        return 2
