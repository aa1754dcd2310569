"""FoldInServer live telemetry: events, sampling, exemplars, error paths.

The server's contract with the observability layer: every request
emits paired start/done events carrying one request id; errors are
*never* sampled away and always leave an ``error``-level event (and a
clean in-flight gauge) behind; the sampling decision gates only the
success-path span and the histogram exemplar.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SMFL
from repro.exceptions import ValidationError
from repro.model import FittedModel
from repro.obs import (
    MemorySink,
    MetricsRegistry,
    Recorder,
    RingBufferSink,
    Sampler,
    use_recorder,
)
from repro.serving import FoldInServer


@pytest.fixture(scope="module")
def model() -> FittedModel:
    rng = np.random.default_rng(0)
    spatial = rng.random((40, 2)) * 4.0
    attrs = np.abs(rng.normal(1.0, 0.3, size=(40, 5)))
    x = np.hstack([spatial, attrs])
    x[rng.random(x.shape) < 0.15] = np.nan
    x[:, :2] = spatial  # spatial coordinates stay observed
    solver = SMFL(rank=4, n_spatial=2, max_iter=60, random_state=0)
    return solver.fit(x).fitted_model()


def _requests(model, b, seed=1):
    rng = np.random.default_rng(seed)
    x = np.abs(rng.normal(1.0, 0.4, size=(b, model.n_cols)))
    holes = rng.random(x.shape) < 0.3
    holes[:, :2] = False
    x[holes] = np.nan
    return x


def collecting_tracer():
    return Recorder(MemorySink())


def _span_names(tracer):
    return [
        event["name"]
        for event in tracer.sinks[0].records
        if event["kind"] == "span"
    ]


def _events(sink):
    return [record for record in sink.tail() if record["kind"] == "event"]


class TestRequestEvents:
    def test_paired_start_done_records(self, model):
        server = FoldInServer(model, metrics=MetricsRegistry())
        sink = RingBufferSink()
        with use_recorder(Recorder(sink)):
            server.fold_in(_requests(model, 5))
        start, done = _events(sink)
        assert start["name"] == "serving.request_start"
        assert done["name"] == "serving.request_done"
        assert start["attrs"]["rows"] == 5
        assert done["attrs"]["rows"] == 5
        assert done["attrs"]["seconds"] > 0
        # One id ties the pair together; without a sampler every
        # request counts as sampled.
        assert start["attrs"]["request_id"] == done["attrs"]["request_id"]
        assert start["attrs"]["request_id"].startswith("req-")
        assert start["attrs"]["sampled"] is True

    def test_no_events_without_an_event_log(self, model):
        # The ambient default is the null log: nothing recorded,
        # nothing raised.
        server = FoldInServer(model, metrics=MetricsRegistry())
        result = server.fold_in(_requests(model, 3))
        assert result.n_rows == 3


class TestErrorPath:
    def test_error_event_emitted_and_reraised(self, model):
        registry = MetricsRegistry()
        server = FoldInServer(model, metrics=registry)
        sink = RingBufferSink()
        bad = _requests(model, 3)[:, :-1]  # wrong column count
        with use_recorder(Recorder(sink)):
            with pytest.raises(ValidationError):
                server.fold_in(bad)
        names = [record["name"] for record in _events(sink)]
        assert names == ["serving.request_start", "serving.request_error"]
        error = sink.tail()[-1]
        assert error["level"] == "error"
        assert error["attrs"]["error"] == "ValidationError"
        assert error["attrs"]["detail"]
        assert registry.counter("serving.errors").value == 1
        assert registry.gauge("serving.in_flight").value == 0

    def test_errors_are_never_sampled_away(self, model):
        # Sampler rate 0 drops every success-path trace, but the error
        # event still lands - a failing request must not be invisible.
        server = FoldInServer(
            model, metrics=MetricsRegistry(), sampler=Sampler(0.0)
        )
        sink = RingBufferSink()
        bad = _requests(model, 3)[:, :-1]
        with use_recorder(Recorder(sink)):
            with pytest.raises(ValidationError):
                server.fold_in(bad)
        names = [record["name"] for record in sink.tail()]
        assert "serving.request_error" in names
        # Sampled away: no span, only the request's events.
        assert all(record["kind"] == "event" for record in sink.tail())


class TestSampling:
    def test_rate_one_traces_every_request(self, model):
        server = FoldInServer(
            model, metrics=MetricsRegistry(), sampler=Sampler(1.0)
        )
        tracer = collecting_tracer()
        with use_recorder(tracer):
            for seed in range(4):
                server.fold_in(_requests(model, 3, seed=seed))
        assert _span_names(tracer).count("serving.request") == 4
        assert server.sampler.stats()["decisions"] == 4

    def test_rate_zero_traces_nothing_but_serves_everything(self, model):
        registry = MetricsRegistry()
        server = FoldInServer(model, metrics=registry, sampler=Sampler(0.0))
        tracer = collecting_tracer()
        with use_recorder(tracer):
            for seed in range(4):
                server.fold_in(_requests(model, 3, seed=seed))
        assert _span_names(tracer).count("serving.request") == 0
        # The metrics are not sampled: every request still counts.
        assert registry.counter("serving.requests").value == 4
        assert registry.quantile_histogram("serving.request_seconds").count == 4

    def test_fractional_rate_traces_a_subset(self, model):
        server = FoldInServer(
            model, metrics=MetricsRegistry(), sampler=Sampler(0.5, seed=3)
        )
        tracer = collecting_tracer()
        with use_recorder(tracer):
            for seed in range(12):
                server.fold_in(_requests(model, 2, seed=seed))
        traced = _span_names(tracer).count("serving.request")
        assert 0 < traced < 12
        assert traced == server.sampler.stats()["sampled"]

    def test_events_mark_the_sampling_decision(self, model):
        server = FoldInServer(
            model, metrics=MetricsRegistry(), sampler=Sampler(0.0)
        )
        sink = RingBufferSink()
        with use_recorder(Recorder(sink)):
            server.fold_in(_requests(model, 2))
        start = sink.tail()[0]
        assert start["attrs"]["sampled"] is False
        assert [r["kind"] for r in sink.tail()] == ["event", "event"]
        # The request id still exists (the event log will show it) -
        # only the span and exemplar are gated.
        assert start["attrs"]["request_id"].startswith("req-")


class TestExemplars:
    def test_sampled_requests_leave_exemplar_request_ids(self, model):
        registry = MetricsRegistry()
        server = FoldInServer(model, metrics=registry, sampler=Sampler(1.0))
        for seed in range(3):
            server.fold_in(_requests(model, 2, seed=seed))
        snapshot = registry.quantile_histogram(
            "serving.request_seconds"
        ).snapshot()
        assert "exemplars" in snapshot
        assert all(
            exemplar.startswith("req-")
            for exemplar in snapshot["exemplars"].values()
        )

    def test_unsampled_requests_leave_no_exemplars(self, model):
        registry = MetricsRegistry()
        server = FoldInServer(model, metrics=registry, sampler=Sampler(0.0))
        for seed in range(3):
            server.fold_in(_requests(model, 2, seed=seed))
        snapshot = registry.quantile_histogram(
            "serving.request_seconds"
        ).snapshot()
        assert snapshot["count"] == 3
        assert "exemplars" not in snapshot
