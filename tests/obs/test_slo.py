"""The SLO gate's reduction and budgets: exact quantiles, named violations."""

from __future__ import annotations

from repro.bench import validate_bench_payload
from repro.obs.slo import (
    DEFAULT_BUDGETS,
    _exact_quantile,
    build_slo_payload,
    evaluate_slo,
    serving_stats_from_events,
)


def _done(seconds):
    return {"kind": "event", "name": "serving.request_done",
            "attrs": {"seconds": seconds}}


def _event(name, **attrs):
    return {"kind": "event", "name": name, "attrs": attrs}


class TestExactQuantiles:
    def test_p99_is_the_99th_sorted_value(self):
        # Exact, not bucketed: the 99th of 100 distinct latencies.
        values = [float(i) for i in range(1, 101)]
        assert _exact_quantile(values, 0.99) == 99.0
        assert _exact_quantile(values, 0.50) == 50.0
        assert _exact_quantile(values, 1.0) == 100.0

    def test_small_samples(self):
        assert _exact_quantile([3.0], 0.99) == 3.0
        assert _exact_quantile([1.0, 2.0], 0.50) == 1.0
        assert _exact_quantile([], 0.99) is None


class TestStatsReduction:
    def test_mixed_stream_reduces_correctly(self):
        events = [
            _done(0.010),
            _done(0.020),
            _event("serving.request_error", rows=4),
            _done(0.030),
            _event("oocore.worker_stalled", worker=1),
            _event("oocore.worker_died", worker=0),
            _event("fit_start"),  # unrelated events are ignored
            {"kind": "span", "name": "serving.request_done"},  # not an event
        ]
        stats = serving_stats_from_events(events)
        assert stats["requests"] == 3
        assert stats["errors"] == 1
        assert stats["error_rate"] == 0.25
        assert stats["p50_seconds"] == 0.020
        assert stats["p99_seconds"] == 0.030
        assert stats["max_seconds"] == 0.030
        assert stats["stall_count"] == 1
        assert stats["worker_deaths"] == 1

    def test_empty_stream(self):
        stats = serving_stats_from_events([])
        assert stats["requests"] == 0
        assert stats["p99_seconds"] is None
        assert stats["error_rate"] == 0.0


class TestEvaluate:
    def test_within_budget_is_clean(self):
        stats = serving_stats_from_events([_done(0.01), _done(0.02)])
        assert evaluate_slo(stats, DEFAULT_BUDGETS) == []

    def test_violations_name_the_metric_first(self):
        stats = serving_stats_from_events(
            [
                _done(2.0),
                _event("serving.request_error"),
                _event("oocore.worker_stalled"),
                _event("oocore.worker_died"),
            ]
        )
        violations = evaluate_slo(stats, DEFAULT_BUDGETS)
        leading = [v.split(":")[0] for v in violations]
        assert leading == [
            "p99_seconds", "error_rate", "stall_count", "worker_deaths",
        ]
        p99 = next(v for v in violations if v.startswith("p99_seconds"))
        assert "2" in p99 and "0.5" in p99  # observed and budget named

    def test_empty_run_cannot_pass(self):
        # Zero requests proves nothing; the gate must refuse, loudly.
        violations = evaluate_slo(serving_stats_from_events([]), DEFAULT_BUDGETS)
        assert len(violations) == 1
        assert violations[0].startswith("p99_seconds")
        assert "empty run" in violations[0]

    def test_null_budget_disables_that_check(self):
        stats = serving_stats_from_events([_done(2.0)])
        assert evaluate_slo(stats, {"p99_seconds_max": None}) == []


class TestPayload:
    def test_payload_validates_against_the_bench_schema(self):
        stats = serving_stats_from_events([_done(0.01), _done(0.02)])
        payload = build_slo_payload(stats)
        assert validate_bench_payload(
            "SLO_serving", payload, require_envelope=False
        ) == []
        assert payload["acceptance"]["recorded_within_budgets"] is True

    def test_payload_flags_a_violating_run(self):
        stats = serving_stats_from_events([_done(2.0)])
        payload = build_slo_payload(stats)
        assert payload["acceptance"]["recorded_within_budgets"] is False

    def test_budget_overrides_land_in_the_payload(self):
        stats = serving_stats_from_events([_done(0.01)])
        payload = build_slo_payload(stats, {"p99_seconds_max": 0.25})
        assert payload["budgets"]["p99_seconds_max"] == 0.25
        assert payload["budgets"]["error_rate_max"] == 0.0
