"""The record stream: record shape, sinks, ambience, recovery.

Everything downstream — ``report --tail``, ``expose`` — keys on the invariants pinned here: schema-versioned records on the
one-clock anchor, whole-line append atomicity, a truncation-tolerant
reader whose tolerance extends *only* to the final line, and an
ambient default that costs nothing when telemetry is off.
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.core import SMFL
from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import (
    NULL_RECORDER,
    SCHEMA_VERSION,
    JsonlSink,
    Recorder,
    RingBufferSink,
    get_recorder,
    next_request_id,
    read_records,
    record_to,
    set_recorder,
    use_recorder,
)


def _events(records):
    return [r for r in records if r["kind"] == "event"]


class TestRecordShape:
    def test_required_fields(self):
        sink = RingBufferSink()
        record = Recorder(sink).event("unit.test", answer=42)
        assert record["schema"] == SCHEMA_VERSION
        assert record["kind"] == "event"
        assert record["name"] == "unit.test"
        assert record["level"] == "info"
        assert record["pid"] == os.getpid()
        assert record["attrs"] == {"answer": 42}
        assert sink.tail() == [record]

    def test_attrs_key_absent_without_attrs(self):
        record = Recorder().event("unit.bare")
        assert "attrs" not in record
        assert "span_id" not in record

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown event level"):
            Recorder().event("unit.test", level="fatal")

    def test_one_clock_timestamp(self):
        # ``ts`` is wall-clock time via the perf_counter anchor: it
        # must agree with time.time() to well under a second.
        record = Recorder().event("unit.clock")
        assert abs(record["ts"] - time.time()) < 0.5

    def test_span_linkage_under_a_tracer(self):
        log = Recorder(sink := RingBufferSink())
        with log.span("unit:outer") as outer:
            log.event("unit.inside")
        log.event("unit.outside")
        inside, outside = _events(sink.tail())
        assert inside["span_id"] == outer.span_id
        assert "span_id" not in outside

    def test_emit_metrics_embeds_a_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("unit.count").inc(3)
        sink = RingBufferSink()
        Recorder(sink).metrics(registry)
        (record,) = sink.tail()
        assert record["kind"] == "metrics"
        assert record["values"]["unit.count"]["value"] == 3


class TestSinks:
    def test_ring_buffer_keeps_only_the_tail(self):
        sink = RingBufferSink(maxlen=3)
        log = Recorder(sink)
        for index in range(5):
            log.event("unit.tick", index=index)
        assert [r["attrs"]["index"] for r in sink.tail()] == [2, 3, 4]
        assert [r["attrs"]["index"] for r in sink.tail(2)] == [3, 4]

    def test_append_sink_writes_live_lines(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        sink = JsonlSink(path)
        log = Recorder(sink)
        log.event("unit.first")
        # Visible immediately, before any close/flush: the live-tail
        # property an atomic whole-file sink cannot offer.
        assert len(read_records(path)) == 1
        log.event("unit.second")
        log.close()
        assert [r["name"] for r in read_records(path)] == [
            "unit.first", "unit.second",
        ]

    def test_append_sink_appends_across_runs(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        for attempt in range(2):
            with record_to(path) as log:
                log.event("unit.run", attempt=attempt)
        assert [r["attrs"]["attempt"] for r in read_records(path)] == [0, 1]

    def test_append_after_a_crash_drops_only_the_torn_line(self, tmp_path):
        # Appending to a torn final line would glue the next record onto
        # it and lose both; the sink cuts the torn tail off first.
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "event", "name": "unit.a"}\n{"kind": "sp')
        with record_to(str(path)) as log:
            log.event("unit.retry")
        records = read_records(str(path), tolerate_truncation=False)
        assert [r["name"] for r in records] == ["unit.a", "unit.retry"]

    def test_closed_sink_refuses_emits(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "events.jsonl"))
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.emit({"event": "unit.late"})

    def test_concurrent_emits_stay_whole_lines(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = Recorder(JsonlSink(path))
        n_threads, per_thread = 8, 50

        def _hammer(worker):
            for index in range(per_thread):
                log.event("unit.thread", worker=worker, index=index)

        threads = [
            threading.Thread(target=_hammer, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        log.close()
        records = read_records(path, tolerate_truncation=False)
        assert len(records) == n_threads * per_thread
        seen = {
            (r["attrs"]["worker"], r["attrs"]["index"]) for r in records
        }
        assert len(seen) == n_threads * per_thread


class TestReadEventLog:
    def test_torn_final_line_dropped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            json.dumps({"event": "unit.ok"}) + "\n" + '{"event": "unit.t'
        )
        records = read_records(str(path))
        assert [r["event"] for r in records] == ["unit.ok"]

    def test_torn_final_line_raises_without_tolerance(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "unit.t')
        with pytest.raises(ValueError, match="invalid JSONL at line 1"):
            read_records(str(path), tolerate_truncation=False)

    def test_mid_file_corruption_always_raises(self, tmp_path):
        # Whole-line append atomicity means a torn line anywhere but
        # the end is real corruption, not a crash artifact.
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"event": "unit.a"}\nnot json\n{"event": "unit.b"}\n'
        )
        with pytest.raises(ValueError, match="invalid JSONL at line 2"):
            read_records(str(path))


class TestAmbientLog:
    def test_default_is_the_null_log(self):
        assert get_recorder() is NULL_RECORDER
        assert not NULL_RECORDER.enabled
        assert NULL_RECORDER.event("unit.dropped", x=1) is None

    def test_set_returns_previous_and_use_restores(self):
        log = Recorder(RingBufferSink())
        previous = set_recorder(log)
        try:
            assert previous is NULL_RECORDER
            assert get_recorder() is log
        finally:
            set_recorder(previous)
        with use_recorder(log):
            assert get_recorder() is log
        assert get_recorder() is NULL_RECORDER

    def test_use_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_recorder(Recorder()):
                raise RuntimeError("boom")
        assert get_recorder() is NULL_RECORDER


class TestRequestIds:
    def test_format_and_monotonicity(self):
        first, second = next_request_id(), next_request_id()
        pid = os.getpid()
        assert first.startswith(f"req-{pid}-")
        n_first = int(first.rsplit("-", 1)[1])
        n_second = int(second.rsplit("-", 1)[1])
        assert n_second == n_first + 1


class TestEngineIntegration:
    def test_a_fit_emits_lifecycle_events(self, rng):
        spatial = rng.random((30, 2)) * 4.0
        attrs = np.abs(rng.normal(1.0, 0.3, size=(30, 4)))
        x = np.hstack([spatial, attrs])
        x[rng.random(x.shape) < 0.1] = np.nan
        x[:, :2] = spatial
        sink = RingBufferSink()
        with use_recorder(Recorder(sink)):
            SMFL(rank=3, n_spatial=2, max_iter=10, random_state=0).fit(x)
        names = [r["name"] for r in _events(sink.tail())]
        assert "fit_start" in names
        assert "fit_done" in names
        assert names.index("fit_start") < names.index("fit_done")
        end = next(r for r in _events(sink.tail()) if r["name"] == "fit_done")
        assert end["attrs"]["n_iter"] >= 1

    def test_both_loops_write_one_fit_done_shape(self, rng):
        # The engine-driven reference fit and the default stacked fit
        # write the same ``per_fit_*`` books.
        x = np.hstack([rng.random((30, 2)) * 4.0,
                       np.abs(rng.normal(1.0, 0.3, size=(30, 4)))])
        books = []
        for kernel_path in ("reference", "auto"):
            sink = RingBufferSink()
            with use_recorder(Recorder(sink)):
                SMFL(rank=3, n_spatial=2, max_iter=25, random_state=0,
                     kernel_path=kernel_path).fit(x)
            (end,) = [r for r in _events(sink.tail()) if r["name"] == "fit_done"]
            books.append({
                key: value for key, value in end["attrs"].items()
                if key.startswith("per_fit_")
            })
        reference, stacked = books
        assert sorted(reference) == [
            "per_fit_converged", "per_fit_n_increases",
            "per_fit_n_iter", "per_fit_stop_reason",
        ]
        assert reference == stacked
        assert reference["per_fit_n_iter"] == [25]
