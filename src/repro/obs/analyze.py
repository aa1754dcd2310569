"""Trace analysis: span trees, self-time accounting, coverage.

Reads the ``span`` records of a :mod:`repro.obs.stream` recording and
answers *where did this run's time actually go?*

- :func:`build_tree` reconstructs the span forest from
  ``span_id``/``parent_id`` links and merges sibling spans that share a
  name (400 ``iteration`` spans render as one ``iteration x400`` node);
- every node carries *total* time (sum of merged span durations) and
  *self* time (total minus the children's total - the time the span
  spent in its own code);
- :func:`aggregate_spans` is the flat per-name view (the top-k table);
- :func:`coverage` measures how much of the trace's wall extent the
  root spans cover - the acceptance metric for "the tree explains the
  run";
- :func:`render_tree` / :func:`render_top` produce the text flamegraph
  and top-k table the ``python -m repro.obs report`` CLI prints;
- :func:`to_chrome_trace` is the Chrome ``trace_event`` form (open in
  ``chrome://tracing`` or Perfetto), ``chrome`` writes it, and
  ``summary`` writes :func:`aggregate_spans` as JSON.

Parallel runs read a little differently: cell spans from concurrent
worker processes merge into one tree, so a level's summed total can
legitimately exceed the run span's wall time (4 cells x 60ms on 2
workers is ~240ms of span time inside ~130ms of wall) - percentages
are shares of *total traced CPU-side time*, and self time is clamped
at zero for spans whose children overlap them concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = [
    "SpanNode",
    "build_tree",
    "aggregate_spans",
    "coverage",
    "render_tree",
    "render_top",
    "to_chrome_trace",
]


@dataclass
class SpanNode:
    """One name-merged node of the span tree."""

    name: str
    count: int = 0
    total: float = 0.0
    children: dict[str, "SpanNode"] = field(default_factory=dict)

    @property
    def child_total(self) -> float:
        return sum(child.total for child in self.children.values())

    @property
    def self_time(self) -> float:
        """Time inside this node's own code (total minus children)."""
        return max(self.total - self.child_total, 0.0)


def _span_events(events: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    return [e for e in events if e.get("kind") == "span"]


def build_tree(events: Iterable[dict[str, Any]]) -> SpanNode:
    """Merge the span forest into one name-keyed tree.

    Returns a synthetic root named ``"trace"`` whose children are the
    top-level spans (spans without a parent, or whose parent is missing
    from the stream - a worker shard merged without re-parenting).
    Siblings with the same name merge: counts add, durations add,
    children merge recursively.
    """
    spans = _span_events(events)
    by_id = {span["span_id"]: span for span in spans}
    children_of: dict[str | None, list[dict[str, Any]]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None and parent not in by_id:
            parent = None
        children_of.setdefault(parent, []).append(span)

    def _merge_into(node: SpanNode, span: dict[str, Any]) -> None:
        child = node.children.get(span["name"])
        if child is None:
            child = node.children[span["name"]] = SpanNode(span["name"])
        child.count += 1
        child.total += float(span["duration"])
        for grandchild in children_of.get(span["span_id"], ()):
            _merge_into(child, grandchild)

    root = SpanNode("trace")
    for span in children_of.get(None, ()):
        _merge_into(root, span)
    root.count = 1
    root.total = root.child_total
    return root


def aggregate_spans(events: Iterable[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Flat per-name totals: count, total time, self time.

    Self time here is exact per span (duration minus the durations of
    its direct children), summed per name - unlike the tree view it is
    independent of where in the hierarchy a name appears.
    """
    spans = _span_events(events)
    child_sum: dict[str, float] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            child_sum[parent] = child_sum.get(parent, 0.0) + float(span["duration"])
    out: dict[str, dict[str, Any]] = {}
    for span in spans:
        entry = out.setdefault(
            span["name"], {"count": 0, "total_seconds": 0.0, "self_seconds": 0.0}
        )
        duration = float(span["duration"])
        entry["count"] += 1
        entry["total_seconds"] += duration
        entry["self_seconds"] += max(
            duration - child_sum.get(span["span_id"], 0.0), 0.0
        )
    return out


def coverage(events: Iterable[dict[str, Any]]) -> dict[str, float]:
    """How much of the trace's wall extent the root spans explain.

    ``extent`` is last span end minus first span start; ``covered`` is
    the union length of the root spans' intervals (across processes -
    concurrent worker roots overlapping in time count once).  The
    acceptance bar for instrumented runs is ``fraction >= 0.95``.
    """
    spans = _span_events(events)
    if not spans:
        return {"extent_seconds": 0.0, "covered_seconds": 0.0, "fraction": 0.0}
    by_id = {span["span_id"]: span for span in spans}
    roots = [
        span for span in spans
        if span.get("parent_id") is None or span["parent_id"] not in by_id
    ]
    extent_start = min(span["ts"] for span in spans)
    extent_end = max(span["ts"] + span["duration"] for span in spans)
    extent = max(extent_end - extent_start, 0.0)
    intervals = sorted(
        (span["ts"], span["ts"] + span["duration"]) for span in roots
    )
    covered = 0.0
    cursor = extent_start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return {
        "extent_seconds": extent,
        "covered_seconds": covered,
        "fraction": (covered / extent) if extent > 0 else 1.0,
    }


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s "
    if seconds >= 1e-3:
        return f"{seconds * 1e3:8.3f}ms"
    return f"{seconds * 1e6:8.1f}us"


def render_tree(
    root: SpanNode, *, max_depth: int = 6, min_fraction: float = 0.001
) -> str:
    """Text flamegraph: indented tree with total/self time and bars.

    Children are ordered by total time; nodes below ``min_fraction`` of
    the trace total are folded into an ``(other)`` line per level.
    """
    lines: list[str] = []
    budget = root.total or 1.0
    bar_width = 20

    def _walk(node: SpanNode, depth: int) -> None:
        if depth > max_depth:
            return
        ordered = sorted(
            node.children.values(), key=lambda child: child.total, reverse=True
        )
        hidden_total = 0.0
        hidden_count = 0
        for child in ordered:
            fraction = child.total / budget
            if fraction < min_fraction:
                hidden_total += child.total
                hidden_count += child.count
                continue
            bar = "#" * max(int(round(fraction * bar_width)), 1)
            label = child.name if child.count == 1 else f"{child.name} x{child.count}"
            lines.append(
                f"{_format_seconds(child.total)} {fraction:6.1%} "
                f"(self {_format_seconds(child.self_time).strip()}) "
                f"{'  ' * depth}{label}  {bar}"
            )
            _walk(child, depth + 1)
        if hidden_count:
            lines.append(
                f"{_format_seconds(hidden_total)} {hidden_total / budget:6.1%} "
                f"{'(self -)':>16} {'  ' * depth}(other) x{hidden_count}"
            )

    header = f"total traced {_format_seconds(root.total).strip()}"
    _walk(root, 0)
    return "\n".join([header, *lines])


def render_top(
    aggregates: dict[str, dict[str, Any]], *, top: int = 10
) -> str:
    """Top-k span names by self time, as an aligned text table."""
    rows = sorted(
        aggregates.items(), key=lambda item: item[1]["self_seconds"], reverse=True
    )[:top]
    total_self = sum(entry["self_seconds"] for entry in aggregates.values()) or 1.0
    width = max((len(name) for name, _ in rows), default=4)
    lines = [
        f"{'span':<{width}}  {'count':>7}  {'self':>10}  {'self%':>6}  {'total':>10}"
    ]
    for name, entry in rows:
        lines.append(
            f"{name:<{width}}  {entry['count']:>7}  "
            f"{_format_seconds(entry['self_seconds']).strip():>10}  "
            f"{entry['self_seconds'] / total_self:>6.1%}  "
            f"{_format_seconds(entry['total_seconds']).strip():>10}"
        )
    return "\n".join(lines)


def to_chrome_trace(events: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Span records as Chrome's ``trace_event`` JSON object.

    Complete ("X") events in microseconds relative to the earliest
    span, one row per pid/thread, so the viewer opens at t=0.
    """
    spans = _span_events(events)
    origin = min((span["ts"] for span in spans), default=0.0)
    return {
        "traceEvents": [
            {
                "name": span["name"],
                "ph": "X",
                "ts": (span["ts"] - origin) * 1e6,
                "dur": span["duration"] * 1e6,
                "pid": span.get("pid", 0),
                "tid": span.get("thread", 0),
                "args": span.get("attrs", {}),
            }
            for span in spans
        ],
        "displayTimeUnit": "ms",
    }
