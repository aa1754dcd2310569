"""Recorder spans: nesting, null-mode cost model, sinks, decorators.

The contracts pinned here:

- the ambient recorder defaults to the null recorder, whose spans still
  measure their duration (instrumented code reads ``span.duration``
  unconditionally) but record nothing;
- real spans nest through ``span_id``/``parent_id`` links, per thread;
- span ids are unique across *all* recorders in a process - workers
  build one recorder per cell, and id reuse would alias spans in merged
  traces;
- ``record_to`` appends one JSONL line per record and never truncates;
- the ``traced`` decorator is a no-op (beyond the duration clock) when
  tracing is off and emits a method-tagged span when it is on.
"""

from __future__ import annotations

import json
import threading

from repro.obs import (
    NULL_RECORDER,
    MemorySink,
    Recorder,
    get_recorder,
    read_records,
    record_to,
    traced,
    use_recorder,
)


def collecting_tracer():
    return Recorder(MemorySink())


def _spans(events):
    return [e for e in events if e.get("kind") == "span"]


class TestNullMode:
    def test_ambient_default_is_null(self):
        assert get_recorder() is NULL_RECORDER
        assert not get_recorder().enabled

    def test_null_span_still_measures_duration(self):
        with NULL_RECORDER.span("work", ignored="attr") as span:
            sum(range(1000))
        assert span.duration > 0

    def test_null_span_keeps_no_state(self):
        with NULL_RECORDER.span("work") as span:
            span.set_attr("k", "v")  # dropped silently
        assert NULL_RECORDER.current_span_id() is None
        NULL_RECORDER.emit({"kind": "marker"})  # dropped silently


class TestNesting:
    def test_parent_child_links(self):
        tracer = collecting_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span_id() == inner.span_id
            assert tracer.current_span_id() == outer.span_id
        events = _spans(tracer.sinks[0].records)
        by_name = {e["name"]: e for e in events}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] is None
        # Children close (and emit) before their parents.
        assert [e["name"] for e in events] == ["inner", "outer"]

    def test_siblings_share_a_parent(self):
        tracer = collecting_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        parents = {
            e["name"]: e["parent_id"] for e in _spans(tracer.sinks[0].records)
        }
        assert parents["a"] == parents["b"] == outer.span_id

    def test_threads_get_independent_stacks(self):
        tracer = collecting_tracer()
        seen = {}

        def worker():
            with tracer.span("thread-root") as span:
                seen["parent"] = span.parent_id

        with tracer.span("main-root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # The other thread's span must NOT nest under main's open span.
        assert seen["parent"] is None

    def test_ids_unique_across_tracers_in_one_process(self):
        first = collecting_tracer()
        second = collecting_tracer()
        ids = set()
        for tracer in (first, second, first):
            with tracer.span("cell"):
                pass
            ids.add(_spans(tracer.sinks[0].records)[-1]["span_id"])
        assert len(ids) == 3

    def test_span_events_carry_attrs_and_pid(self):
        tracer = collecting_tracer()
        with tracer.span("fit", solver="mult") as span:
            span.set_attr("objective", 1.5)
        event = _spans(tracer.sinks[0].records)[0]
        assert event["attrs"] == {"solver": "mult", "objective": 1.5}
        assert event["pid"] > 0
        assert event["ts"] > 0
        assert event["duration"] >= 0


class TestAmbientScoping:
    def test_use_tracer_restores_previous(self):
        tracer = collecting_tracer()
        with use_recorder(tracer):
            assert get_recorder() is tracer
        assert get_recorder() is NULL_RECORDER

    def test_trace_to_writes_valid_jsonl(self, tmp_path):
        path = str(tmp_path / "sub" / "trace.jsonl")
        with record_to(path, experiment="unit") as tracer:
            assert get_recorder() is tracer
            with tracer.span("root"):
                pass
        events = read_records(path)
        assert events[0]["kind"] == "meta"
        assert events[0]["attrs"]["experiment"] == "unit"
        assert [e["name"] for e in _spans(events)] == ["root"]
        assert [p.name for p in (tmp_path / "sub").iterdir()] == ["trace.jsonl"]

    def test_record_to_appends_to_an_existing_file(self, tmp_path):
        # The one rule for an existing path, for ``--trace`` and
        # ``record_to`` alike: never truncate, append after what is there.
        path = str(tmp_path / "trace.jsonl")
        for run in ("first", "second"):
            with record_to(path, run=run) as recorder:
                with recorder.span("root"):
                    pass
        records = read_records(path)
        assert [r["kind"] for r in records] == ["meta", "span", "meta", "span"]
        assert [r["attrs"]["run"] for r in records if r["kind"] == "meta"] == [
            "first", "second",
        ]

    def test_jsonl_lines_are_individually_parseable(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with record_to(path) as tracer:
            for index in range(3):
                with tracer.span("step", index=index):
                    pass
        with open(path, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert len(lines) == 3


class TestTracedDecorator:
    class Model:
        name = "knn"

        @traced("fit_impute")
        def fit_impute(self, x, mask=None):
            return x * 2

    def test_disabled_mode_is_passthrough(self):
        assert self.Model().fit_impute(21) == 42

    def test_enabled_mode_emits_method_tagged_span(self):
        tracer = collecting_tracer()
        with use_recorder(tracer):
            assert self.Model().fit_impute(21) == 42
        (event,) = _spans(tracer.sinks[0].records)
        assert event["name"] == "fit_impute"
        assert event["attrs"]["method"] == "knn"


class TestWallClockAnchor:
    def test_concurrent_tracers_agree_on_the_timeline(self):
        # Two tracers (parent + simulated worker) must place
        # back-to-back spans in order on the shared wall-clock axis.
        parent = Recorder(MemorySink())
        with parent.span("first"):
            pass
        worker = Recorder(MemorySink())
        with worker.span("second"):
            pass
        first = _spans(parent.sinks[0].records)[0]
        second = _spans(worker.sinks[0].records)[0]
        assert second["ts"] >= first["ts"]
