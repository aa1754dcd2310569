"""Observability CLI: ``python -m repro.obs <command> <file>``.

Commands::

    report  log.jsonl [--top K] [--depth D] [--tail N]
                                                self-time tree + top-k table,
                                                or the last N structured events
    summary trace.jsonl [-o summary.json]       per-name aggregate JSON
    chrome  trace.jsonl [-o trace_chrome.json]  Chrome trace_event export
    expose  source [-o out.prom] [--serve] [--check]
                                                Prometheus text exposition
    slo     --baseline SLO.json [--events log.jsonl] [--record ...]
                                                evaluate / record SLO budgets

``report`` is the human entry point: it prints the name-merged span
tree (a text flamegraph - total time, share of the trace, self time),
the top-k spans by self time, trace coverage (how much of the wall
extent the root spans explain; the acceptance bar is 95%), and any
``metrics`` records in the file.  ``--tail N`` instead prints the last
N records (for tailing a live run).

``expose`` renders a metrics snapshot to Prometheus text format.  The
source is either a JSONL recording (its last ``metrics`` record wins)
or a JSON file carrying a snapshot directly (a run manifest's
``metrics`` section also works).  ``--serve`` binds a stdlib
``/metrics`` endpoint instead of writing a file; ``--check`` re-parses
the rendered text with the strict validator and fails on any
malformation.

``slo`` holds a recorded serving run to the budgets committed in
``results/SLO_serving.json`` (p99 latency, error rate, stall count) -
nonzero exit names every violated metric.  ``--record`` writes a new
baseline from the same stats.

Every command reads JSONL through :func:`repro.obs.stream.read_records`,
so a torn final line is dropped everywhere.  Malformed input (missing
files, invalid JSONL) is reported as a one-line ``error:`` on stderr
with exit code 2, not a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analyze import (
    aggregate_spans,
    build_tree,
    coverage,
    render_top,
    render_tree,
    to_chrome_trace,
)
from .prometheus import parse_exposition, render_prometheus
from .serve import MetricsServer
from .slo import (
    DEFAULT_BUDGETS,
    evaluate_slo,
    record_slo_baseline,
    serving_stats_from_events,
)
from .stream import read_records


class CliError(Exception):
    """A user-facing failure: printed as one line, no traceback."""


def _read_jsonl(path: str) -> list[dict]:
    """The one reader, with one-line failure modes."""
    try:
        return read_records(path)
    except FileNotFoundError:
        raise CliError(f"{path}: no such file") from None
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _write_json(path: str, document: dict, **dump_kwargs) -> str:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, **dump_kwargs)
        handle.write("\n")
    return path


def _tail(args: argparse.Namespace) -> int:
    records = _read_jsonl(args.trace)
    if not records:
        raise CliError(f"{args.trace}: empty event log")
    for record in records[-max(int(args.tail), 0):]:
        print(json.dumps(record, sort_keys=True))  # noqa: T201
    return 0


def _report(args: argparse.Namespace) -> int:
    if args.tail is not None:
        return _tail(args)
    events = _read_jsonl(args.trace)
    spans = [e for e in events if e.get("kind") == "span"]
    if not spans:
        print(f"{args.trace}: no span events")  # noqa: T201
        return 1
    tree = build_tree(events)
    cover = coverage(events)
    print(f"# trace report: {args.trace}")  # noqa: T201
    print(  # noqa: T201
        f"{len(spans)} spans, extent {cover['extent_seconds']:.3f}s, "
        f"root coverage {cover['fraction']:.1%}"
    )
    print()  # noqa: T201
    print(render_tree(tree, max_depth=args.depth))  # noqa: T201
    print()  # noqa: T201
    print(render_top(aggregate_spans(events), top=args.top))  # noqa: T201
    metrics = [e for e in events if e.get("kind") == "metrics"]
    if metrics:
        print()  # noqa: T201
        print("## metrics")  # noqa: T201
        for event in metrics:
            for name, entry in sorted(event.get("values", {}).items()):
                print(f"{name}: {entry.get('value', entry)}")  # noqa: T201
    return 0


def _summary(args: argparse.Namespace) -> int:
    spans = aggregate_spans(_read_jsonl(args.trace))
    out = args.output or f"{args.trace}.summary.json"
    print(_write_json(out, {"spans": spans}, indent=2, sort_keys=True))  # noqa: T201
    return 0


def _chrome(args: argparse.Namespace) -> int:
    chrome = to_chrome_trace(_read_jsonl(args.trace))
    path = _write_json(args.output or f"{args.trace}.chrome.json", chrome)
    n = len(chrome["traceEvents"])
    print(f"{path} ({n} events; open in chrome://tracing)")  # noqa: T201
    return 0


def _snapshot_from_source(path: str) -> dict:
    """The metrics snapshot in a JSONL recording or a JSON document.

    JSONL: the *last* ``metrics`` record's ``values``.  JSON: a raw
    snapshot dict, or any document with a ``metrics`` key (a run
    manifest).
    """
    if path.endswith(".jsonl"):
        snapshots = [
            record["values"]
            for record in _read_jsonl(path)
            if record.get("kind") == "metrics" and "values" in record
        ]
        if not snapshots:
            raise CliError(
                f"{path}: no metrics snapshot found (write one with "
                "Recorder.metrics or a traced grid run)"
            )
        return snapshots[-1]
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        raise CliError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise CliError(f"{path}: expected a JSON object")
    if "metrics" in document and isinstance(document["metrics"], dict):
        return document["metrics"]
    return document


def _expose(args: argparse.Namespace) -> int:
    snapshot = _snapshot_from_source(args.source)
    try:
        text = render_prometheus(snapshot)
    except ValueError as exc:
        raise CliError(f"{args.source}: cannot render: {exc}") from None
    if args.check:
        try:
            parse_exposition(text)
        except ValueError as exc:
            raise CliError(f"rendered exposition failed validation: {exc}") from None
    if args.serve:
        server = MetricsServer(
            lambda: render_prometheus(_snapshot_from_source(args.source)),
            host=args.host,
            port=args.port,
        ).start()
        print(f"serving {server.url} (ctrl-c to stop)")  # noqa: T201
        server.serve_forever()
        return 0
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(args.output)  # noqa: T201
    else:
        sys.stdout.write(text)
    return 0


def _slo(args: argparse.Namespace) -> int:
    if args.record:
        if not args.events:
            raise CliError("slo --record needs --events <log.jsonl>")
        stats = serving_stats_from_events(_read_jsonl(args.events))
        budgets = {
            "p99_seconds_max": args.p99_seconds_max,
            "error_rate_max": args.error_rate_max,
            "stall_count_max": args.stall_count_max,
        }
        budgets = {k: v for k, v in budgets.items() if v is not None}
        out = args.out or args.baseline or "results/SLO_serving.json"
        payload = record_slo_baseline(stats, budgets=budgets, path=out)
        print(  # noqa: T201
            f"{out}: recorded p99={payload['recorded']['p99_seconds']:.6g}s "
            f"over {payload['recorded']['requests']} requests"
        )
        if not payload["acceptance"]["recorded_within_budgets"]:
            print(  # noqa: T201
                "warning: the recorded run violates its own budgets",
                file=sys.stderr,
            )
            return 1
        return 0
    if not args.baseline:
        raise CliError("slo needs --baseline <SLO_serving.json>")
    try:
        with open(args.baseline, encoding="utf-8") as handle:
            baseline = json.load(handle)
    except FileNotFoundError:
        raise CliError(f"{args.baseline}: no such file") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{args.baseline}: invalid JSON: {exc}") from None
    budgets = {**DEFAULT_BUDGETS, **baseline.get("budgets", {})}
    if args.events:
        stats = serving_stats_from_events(_read_jsonl(args.events))
        source = args.events
    else:
        stats = baseline.get("recorded")
        source = f"{args.baseline} (recorded)"
        if not isinstance(stats, dict):
            raise CliError(
                f"{args.baseline}: no 'recorded' stats and no --events given"
            )
    violations = evaluate_slo(stats, budgets)
    if violations:
        for violation in violations:
            print(f"SLO VIOLATION [{source}]: {violation}", file=sys.stderr)  # noqa: T201
        return 1
    print(  # noqa: T201
        f"SLO ok [{source}]: p99={stats['p99_seconds']:.6g}s <= "
        f"{float(budgets['p99_seconds_max']):.6g}s over "
        f"{stats['requests']} requests, error_rate="
        f"{stats['error_rate']:.6g}, stalls={stats['stall_count']}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Analyse repro telemetry JSONL recordings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="self-time tree + top-k span table")
    report.add_argument("trace", help="JSONL recording")
    report.add_argument("--top", type=int, default=10, metavar="K",
                        help="rows of the self-time table (default: 10)")
    report.add_argument("--depth", type=int, default=6, metavar="D",
                        help="maximum tree depth rendered (default: 6)")
    report.add_argument("--tail", type=int, default=None, metavar="N",
                        help="print the last N records instead of a report")
    report.set_defaults(func=_report)

    summary = sub.add_parser("summary", help="per-name aggregate JSON")
    summary.add_argument("trace")
    summary.add_argument("-o", "--output", default=None)
    summary.set_defaults(func=_summary)

    chrome = sub.add_parser("chrome", help="Chrome trace_event export")
    chrome.add_argument("trace")
    chrome.add_argument("-o", "--output", default=None)
    chrome.set_defaults(func=_chrome)

    expose = sub.add_parser(
        "expose", help="render a metrics snapshot to Prometheus text format"
    )
    expose.add_argument(
        "source",
        help="JSONL recording with a metrics record, or a JSON "
        "snapshot / manifest file",
    )
    expose.add_argument("-o", "--output", default=None,
                        help="write the exposition here (default: stdout)")
    expose.add_argument("--check", action="store_true",
                        help="re-parse the rendered text with the strict "
                        "validator")
    expose.add_argument("--serve", action="store_true",
                        help="serve /metrics over HTTP instead of writing")
    expose.add_argument("--host", default="127.0.0.1")
    expose.add_argument("--port", type=int, default=9464)
    expose.set_defaults(func=_expose)

    slo = sub.add_parser(
        "slo", help="evaluate (or record) serving SLO budgets"
    )
    slo.add_argument("--baseline", default=None,
                     help="committed SLO json carrying the budgets")
    slo.add_argument("--events", default=None,
                     help="recording to evaluate (default: the baseline's "
                     "own recorded stats)")
    slo.add_argument("--record", action="store_true",
                     help="record a new baseline from --events")
    slo.add_argument("--out", default=None,
                     help="where --record writes (default: --baseline path)")
    slo.add_argument("--p99-seconds-max", type=float, default=None,
                     dest="p99_seconds_max")
    slo.add_argument("--error-rate-max", type=float, default=None,
                     dest="error_rate_max")
    slo.add_argument("--stall-count-max", type=int, default=None,
                     dest="stall_count_max")
    slo.set_defaults(func=_slo)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)  # noqa: T201
        return 2


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Reports get piped through `head` all the time; a closed pipe
        # is the reader saying "enough", not an error.  Redirect stdout
        # to devnull so interpreter shutdown doesn't re-raise on flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
