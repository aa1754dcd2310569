"""The stream readers of ``python -m repro.obs``: tail, summary, chrome,
expose, serve, slo.

``TestLiveLoop`` runs them in sequence on a real sampled serving log,
the way an operator would after a run.

Exit codes are the contract CI keys on: 0 clean, 1 for a failed gate,
2 for malformed input — always a one-line ``error:`` on stderr, never
a traceback.
"""

from __future__ import annotations

import json
import os
import urllib.request

import pytest

from repro.obs import JsonlSink, MetricsServer, Recorder, serving_stats_from_events
from repro.obs.__main__ import main
from repro.obs.metrics import MetricsRegistry
from repro.obs.serve import CONTENT_TYPE
from repro.obs.slo import build_slo_payload


@pytest.fixture
def event_log_file(tmp_path):
    """A recorded serving run: requests, one error, a metrics snapshot."""
    path = str(tmp_path / "events.jsonl")
    log = Recorder(JsonlSink(path))
    for index in range(6):
        log.event(
            "serving.request_done",
            request_id=f"req-1-{index}",
            rows=8,
            seconds=0.002 + 0.0005 * index,
        )
    log.event("serving.request_error", level="error", rows=8, error="ValueError")
    registry = MetricsRegistry()
    registry.counter("serving.requests").inc(6)
    registry.gauge("serving.in_flight").set(0)
    log.metrics(registry)
    log.close()
    return path


class TestReportTail:
    def test_tail_prints_the_last_n_records(self, event_log_file, capsys):
        assert main(["report", event_log_file, "--tail", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[-1])["kind"] == "metrics"

    def test_empty_log_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["report", str(path), "--tail", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "empty event log" in err
        assert err.count("\n") == 1

    def test_mid_file_corruption_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"event": "a"}\n{"eve\n{"event": "b"}\n')
        assert main(["report", str(path), "--tail", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "invalid JSONL at line 2" in err

    def test_missing_file_is_a_one_line_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl"), "--tail", "1"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_torn_final_line_is_tolerated(self, tmp_path, capsys):
        path = tmp_path / "crashed.jsonl"
        path.write_text('{"event": "a"}\n{"event": "b', encoding="utf-8")
        assert main(["report", str(path), "--tail", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["a"]


class TestOneReader:
    """``summary`` and ``chrome`` read through the same reader as
    ``report``: the same one-line errors, the same torn-line tolerance."""

    SPAN = {
        "schema": 2, "kind": "span", "name": "fit", "ts": 1.0,
        "duration": 0.5, "span_id": "1-1", "parent_id": None, "pid": 1,
        "thread": 1,
    }

    def test_chrome_on_a_missing_file_is_a_one_line_error(self, tmp_path, capsys):
        assert main(["chrome", str(tmp_path / "nope.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no such file" in err
        assert err.count("\n") == 1

    def test_summary_on_a_missing_file_is_a_one_line_error(self, tmp_path, capsys):
        assert main(["summary", str(tmp_path / "nope.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_summary_tolerates_a_torn_final_line(self, tmp_path, capsys):
        path = tmp_path / "crashed.jsonl"
        path.write_text(json.dumps(self.SPAN) + "\n" + '{"type":"sp')
        out_path = str(tmp_path / "summary.json")
        assert main(["summary", str(path), "-o", out_path]) == 0
        with open(out_path, encoding="utf-8") as handle:
            assert json.load(handle)["spans"]["fit"]["count"] == 1

    def test_chrome_tolerates_a_torn_final_line(self, tmp_path, capsys):
        path = tmp_path / "crashed.jsonl"
        path.write_text(json.dumps(self.SPAN) + "\n" + '{"type":"sp')
        out_path = str(tmp_path / "chrome.json")
        assert main(["chrome", str(path), "-o", out_path]) == 0
        with open(out_path, encoding="utf-8") as handle:
            assert len(json.load(handle)["traceEvents"]) == 1


class TestExpose:
    def test_renders_the_last_snapshot_with_check(
        self, event_log_file, capsys
    ):
        assert main(["expose", event_log_file, "--check"]) == 0
        out = capsys.readouterr().out
        assert "repro_serving_requests_total 6.0" in out
        assert "# TYPE repro_serving_requests_total counter" in out

    def test_writes_to_a_file(self, event_log_file, tmp_path, capsys):
        out_path = str(tmp_path / "metrics.prom")
        assert main(["expose", event_log_file, "-o", out_path, "--check"]) == 0
        assert capsys.readouterr().out.strip() == out_path
        with open(out_path, encoding="utf-8") as handle:
            assert "repro_serving_in_flight 0.0" in handle.read()

    def test_log_without_a_snapshot_is_an_error(self, tmp_path, capsys):
        path = str(tmp_path / "plain.jsonl")
        log = Recorder(JsonlSink(path))
        log.event("serving.request_done", seconds=0.01)
        log.close()
        assert main(["expose", path]) == 2
        assert "no metrics snapshot" in capsys.readouterr().err


class TestMetricsServer:
    def test_scrape_and_health_endpoints(self):
        registry = MetricsRegistry()
        registry.counter("unit.scrapes").inc(2)
        from repro.obs import render_prometheus

        server = MetricsServer(
            lambda: render_prometheus(registry), port=0
        ).start()
        try:
            with urllib.request.urlopen(server.url) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == CONTENT_TYPE
                body = response.read().decode("utf-8")
            assert "repro_unit_scrapes_total 2.0" in body
            health = f"http://{server.host}:{server.port}/healthz"
            with urllib.request.urlopen(health) as response:
                assert response.read() == b"ok\n"
            missing = f"http://{server.host}:{server.port}/nope"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(missing)
        finally:
            server.stop()

    def test_render_failure_returns_500(self):
        def broken():
            raise RuntimeError("registry on fire")

        server = MetricsServer(broken, port=0).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url)
            assert excinfo.value.code == 500
        finally:
            server.stop()


class TestSloCommand:
    def _baseline(self, tmp_path, events_path, **budgets):
        from repro.bench.io import write_bench_json
        from repro.obs import read_records

        stats = serving_stats_from_events(read_records(events_path))
        payload = build_slo_payload(stats, budgets or None)
        path = str(tmp_path / "SLO_serving.json")
        write_bench_json("SLO_serving", payload, path=path)
        return path

    def test_within_budget_exits_zero(self, event_log_file, tmp_path, capsys):
        baseline = self._baseline(tmp_path, event_log_file, error_rate_max=0.5)
        code = main(
            ["slo", "--baseline", baseline, "--events", event_log_file]
        )
        assert code == 0
        assert "SLO ok" in capsys.readouterr().out

    def test_violation_exits_nonzero_naming_the_metric(
        self, event_log_file, tmp_path, capsys
    ):
        # The recorded log has one error; a zero error budget trips.
        baseline = self._baseline(tmp_path, event_log_file, error_rate_max=0.0)
        code = main(
            ["slo", "--baseline", baseline, "--events", event_log_file]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "SLO VIOLATION" in err
        assert "error_rate" in err

    def test_baseline_recorded_stats_are_the_default_subject(
        self, event_log_file, tmp_path, capsys
    ):
        baseline = self._baseline(tmp_path, event_log_file, error_rate_max=0.5)
        assert main(["slo", "--baseline", baseline]) == 0
        assert "(recorded)" in capsys.readouterr().out

    def test_record_writes_a_valid_baseline(
        self, event_log_file, tmp_path, capsys
    ):
        from repro.bench import read_bench_json, validate_bench_payload

        out = str(tmp_path / "SLO_serving.json")
        code = main(
            [
                "slo", "--record", "--events", event_log_file, "--out", out,
                "--error-rate-max", "0.5",
            ]
        )
        assert code == 0
        payload = read_bench_json(out)
        assert validate_bench_payload("SLO_serving", payload) == []
        assert payload["recorded"]["requests"] == 6
        assert payload["acceptance"]["recorded_within_budgets"] is True

    def test_record_warns_when_the_run_violates_its_own_budgets(
        self, event_log_file, tmp_path, capsys
    ):
        out = str(tmp_path / "SLO_serving.json")
        code = main(["slo", "--record", "--events", event_log_file, "--out", out])
        assert code == 1  # default zero error budget vs the logged error
        assert "violates its own budgets" in capsys.readouterr().err

    def test_record_without_events_is_an_error(self, capsys):
        assert main(["slo", "--record"]) == 2
        assert "needs --events" in capsys.readouterr().err

    def test_missing_baseline_is_an_error(self, tmp_path, capsys):
        assert main(["slo", "--baseline", str(tmp_path / "nope.json")]) == 2
        assert "no such file" in capsys.readouterr().err


class TestLiveLoop:
    """A sampled serving run end to end: log, tail, expose, SLO gate."""

    SLO_BASELINE = os.path.join(
        os.path.dirname(__file__), "..", "..", "results", "SLO_serving.json"
    )

    def test_sampled_server_log_feeds_every_reader(self, tmp_path, capsys):
        import numpy as np

        from repro.core import SMFL
        from repro.obs import Sampler, record_to
        from repro.serving import FoldInServer

        rng = np.random.default_rng(0)
        x = np.hstack([rng.random((40, 2)) * 4.0,
                       np.abs(rng.normal(1.0, 0.3, size=(40, 5)))])
        fitted = SMFL(rank=4, n_spatial=2, max_iter=40, random_state=0).fit(
            x
        ).fitted_model()
        requests = np.abs(rng.normal(1.0, 0.4, size=(16, 7)))
        requests[rng.random(requests.shape) < 0.2] = np.nan
        requests[:, :2] = x[:16, :2]

        path = str(tmp_path / "serving_events.jsonl")
        registry = MetricsRegistry()
        with record_to(path) as log:
            server = FoldInServer(
                fitted, metrics=registry, sampler=Sampler(0.1, seed=0)
            )
            for _ in range(8):
                server.impute_rows(requests)
            log.metrics(registry)

        assert main(["report", path, "--tail", "5"]) == 0
        tail = capsys.readouterr().out.strip().splitlines()
        assert len(tail) == 5
        assert json.loads(tail[-1])["kind"] == "metrics"
        assert main(["expose", path, "--check"]) == 0
        assert "repro_serving_requests_total 8.0" in capsys.readouterr().out
        assert main(
            ["slo", "--baseline", self.SLO_BASELINE, "--events", path]
        ) == 0
        assert "over 8 requests" in capsys.readouterr().out
