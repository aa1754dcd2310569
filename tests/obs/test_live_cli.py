"""The stream readers of ``python -m repro.obs``: tail, summary, chrome,
expose.

``TestLiveLoop`` runs them in sequence on a real sampled serving log,
the way an operator would after a run.

Exit codes are the contract CI keys on: 0 clean, 1 for a report with
no spans, 2 for malformed input — always a one-line ``error:`` on
stderr, never a traceback.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import JsonlSink, Recorder, read_records
from repro.obs.__main__ import main
from repro.obs.metrics import MetricsRegistry


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


class TestLiveLoop:
    """A sampled serving run end to end: log, tail, expose."""

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
        # Every request writes its own events whatever the sampler said:
        # one ``_done`` per request and no ``_error``.
        names = [r["name"] for r in read_records(path) if r["kind"] == "event"]
        assert "serving.request_error" not in names
        assert names.count("serving.request_done") == 8
