"""Trace analysis: tree merging, self time, coverage, rendering, exports."""

from __future__ import annotations

import json

from repro.obs import (
    aggregate_spans,
    build_tree,
    coverage,
    render_top,
    render_tree,
    to_chrome_trace,
)


def _span(name, span_id, parent_id, start, end, **attrs):
    event = {
        "schema": 2, "kind": "span", "name": name, "span_id": span_id,
        "parent_id": parent_id, "ts": start, "duration": end - start,
        "pid": 1, "thread": 1,
    }
    if attrs:
        event["attrs"] = attrs
    return event


def _fixture_events():
    # run(0..10) -> cell#a(0..4) -> fit(0..3); cell#b(4..8) -> fit(4..7)
    return [
        {"kind": "meta", "attrs": {"experiment": "unit"}},
        _span("run", "1-1", None, 0.0, 10.0),
        _span("cell", "1-2", "1-1", 0.0, 4.0),
        _span("fit", "1-3", "1-2", 0.0, 3.0),
        _span("cell", "1-4", "1-1", 4.0, 8.0),
        _span("fit", "1-5", "1-4", 4.0, 7.0),
    ]


class TestBuildTree:
    def test_siblings_merge_by_name(self):
        root = build_tree(_fixture_events())
        run = root.children["run"]
        cell = run.children["cell"]
        assert cell.count == 2
        assert cell.total == 8.0
        assert cell.children["fit"].count == 2
        assert cell.children["fit"].total == 6.0

    def test_self_time_is_total_minus_children(self):
        root = build_tree(_fixture_events())
        run = root.children["run"]
        assert run.self_time == 2.0  # 10 - (4 + 4)
        assert run.children["cell"].self_time == 2.0  # 8 - 6
        assert run.children["cell"].children["fit"].self_time == 6.0

    def test_orphan_spans_become_roots(self):
        # A worker shard merged without re-parenting: parent unknown.
        events = [_span("lost", "9-1", "9-0", 0.0, 1.0)]
        root = build_tree(events)
        assert root.children["lost"].total == 1.0

    def test_empty_stream(self):
        root = build_tree([])
        assert root.children == {}
        assert root.total == 0.0


class TestAggregateAndCoverage:
    def test_flat_aggregates(self):
        flat = aggregate_spans(_fixture_events())
        assert flat["cell"] == {
            "count": 2, "total_seconds": 8.0, "self_seconds": 2.0,
        }
        assert flat["fit"]["self_seconds"] == 6.0

    def test_full_coverage(self):
        cover = coverage(_fixture_events())
        assert cover["extent_seconds"] == 10.0
        assert cover["fraction"] == 1.0

    def test_gap_reduces_coverage(self):
        events = [
            _span("a", "1-1", None, 0.0, 2.0),
            _span("b", "1-2", None, 8.0, 10.0),
        ]
        cover = coverage(events)
        assert cover["extent_seconds"] == 10.0
        assert cover["covered_seconds"] == 4.0
        assert cover["fraction"] == 0.4

    def test_overlapping_roots_count_once(self):
        # Two concurrent worker roots: the union, not the sum.
        events = [
            _span("a", "1-1", None, 0.0, 6.0),
            _span("b", "2-1", None, 4.0, 10.0),
        ]
        assert coverage(events)["fraction"] == 1.0

    def test_empty_stream(self):
        assert coverage([])["fraction"] == 0.0


class TestRendering:
    def test_tree_shows_merged_counts_and_shares(self):
        text = render_tree(build_tree(_fixture_events()))
        assert "run" in text
        assert "cell x2" in text
        assert "fit x2" in text
        assert "100.0%" in text

    def test_depth_limit(self):
        text = render_tree(build_tree(_fixture_events()), max_depth=0)
        assert "run" in text
        assert "cell" not in text

    def test_top_table_ranks_by_self_time(self):
        text = render_top(aggregate_spans(_fixture_events()), top=2)
        lines = text.splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert lines[1].startswith("fit")  # 6s self beats 2s


class TestChromeExport:
    def test_events_are_relative_microseconds(self):
        chrome = to_chrome_trace(_fixture_events())
        assert chrome["displayTimeUnit"] == "ms"
        events = chrome["traceEvents"]
        assert len(events) == 5
        run = next(e for e in events if e["name"] == "run")
        assert run["ph"] == "X"
        assert run["ts"] == 0.0
        assert run["dur"] == 10.0 * 1e6
        assert json.loads(json.dumps(chrome)) == chrome
