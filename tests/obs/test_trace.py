"""Tracer semantics: nesting, null-mode cost model, sinks, decorators.

The contracts pinned here:

- the ambient tracer defaults to the null tracer, whose spans still
  measure their duration (instrumented code reads ``span.duration``
  unconditionally) but record nothing;
- real spans nest through ``span_id``/``parent_id`` links, per thread;
- span ids are unique across *all* tracers in a process - workers build
  one tracer per cell, and id reuse would alias spans in merged traces;
- ``trace_to`` writes a complete JSONL file atomically on exit;
- the ``traced`` decorator is a no-op (beyond the duration clock) when
  tracing is off and emits a method-tagged span when it is on.
"""

from __future__ import annotations

import json
import threading

from repro.obs import (
    NULL_TRACER,
    MemorySink,
    Tracer,
    collecting_tracer,
    get_tracer,
    read_events,
    trace_to,
    traced,
    use_tracer,
)


def _spans(events):
    return [e for e in events if e.get("type") == "span"]


class TestNullMode:
    def test_ambient_default_is_null(self):
        assert get_tracer() is NULL_TRACER
        assert not get_tracer().enabled

    def test_null_span_still_measures_duration(self):
        with NULL_TRACER.span("work", ignored="attr") as span:
            sum(range(1000))
        assert span.duration > 0

    def test_null_span_keeps_no_state(self):
        with NULL_TRACER.span("work") as span:
            span.set_attr("k", "v")  # dropped silently
        assert NULL_TRACER.current_span_id() is None
        NULL_TRACER.emit({"type": "marker"})  # dropped silently


class TestNesting:
    def test_parent_child_links(self):
        tracer = collecting_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span_id() == inner.span_id
            assert tracer.current_span_id() == outer.span_id
        events = _spans(tracer.sink.events)
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
            e["name"]: e["parent_id"] for e in _spans(tracer.sink.events)
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
            ids.add(_spans(tracer.sink.events)[-1]["span_id"])
        assert len(ids) == 3

    def test_span_events_carry_attrs_and_pid(self):
        tracer = collecting_tracer()
        with tracer.span("fit", solver="mult") as span:
            span.set_attr("objective", 1.5)
        event = _spans(tracer.sink.events)[0]
        assert event["attrs"] == {"solver": "mult", "objective": 1.5}
        assert event["pid"] > 0
        assert event["end"] >= event["start"]
        assert event["duration"] >= 0


class TestAmbientScoping:
    def test_use_tracer_restores_previous(self):
        tracer = collecting_tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_trace_to_writes_valid_jsonl(self, tmp_path):
        path = str(tmp_path / "sub" / "trace.jsonl")
        with trace_to(path, experiment="unit") as tracer:
            assert get_tracer() is tracer
            with tracer.span("root"):
                pass
        events = read_events(path)
        assert events[0]["type"] == "meta"
        assert events[0]["experiment"] == "unit"
        assert [e["name"] for e in _spans(events)] == ["root"]
        # No temp files left behind by the atomic write.
        assert [p.name for p in (tmp_path / "sub").iterdir()] == ["trace.jsonl"]

    def test_jsonl_lines_are_individually_parseable(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with trace_to(path) as tracer:
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
        with use_tracer(tracer):
            assert self.Model().fit_impute(21) == 42
        (event,) = _spans(tracer.sink.events)
        assert event["name"] == "fit_impute"
        assert event["attrs"]["method"] == "knn"


class TestWallClockAnchor:
    def test_concurrent_tracers_agree_on_the_timeline(self):
        # Two tracers (parent + simulated worker) must place
        # back-to-back spans in order on the shared wall-clock axis.
        parent = Tracer(MemorySink())
        with parent.span("first"):
            pass
        worker = Tracer(MemorySink())
        with worker.span("second"):
            pass
        first = _spans(parent.sink.events)[0]
        second = _spans(worker.sink.events)[0]
        assert second["start"] >= first["start"]
