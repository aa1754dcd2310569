"""The ``python -m repro.obs`` CLI against real generated traces."""

from __future__ import annotations

import json

import pytest

from repro.obs import read_records, record_to
from repro.obs.__main__ import main


@pytest.fixture()
def trace_path(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    with record_to(path, experiment="unit") as tracer:
        with tracer.span("fit", solver="mult"):
            for index in range(3):
                with tracer.span("iteration", index=index):
                    pass
        tracer.emit(
            {"kind": "metrics",
             "values": {"cache.hits": {"type": "counter", "value": 2}}}
        )
    return path


class TestReport:
    def test_prints_tree_coverage_and_metrics(self, trace_path, capsys):
        assert main(["report", trace_path]) == 0
        out = capsys.readouterr().out
        assert "4 spans" in out
        assert "root coverage" in out
        assert "iteration x3" in out
        assert "## metrics" in out
        assert "cache.hits: 2" in out

    def test_no_spans_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text('{"kind": "meta"}\n')
        assert main(["report", str(empty)]) == 1
        assert "no span events" in capsys.readouterr().out


class TestExports:
    def test_summary_subcommand(self, trace_path, tmp_path, capsys):
        out_path = str(tmp_path / "summary.json")
        assert main(["summary", trace_path, "-o", out_path]) == 0
        summary = json.load(open(out_path, encoding="utf-8"))
        assert summary["spans"]["iteration"]["count"] == 3

    def test_chrome_subcommand(self, trace_path, tmp_path, capsys):
        out_path = str(tmp_path / "chrome.json")
        assert main(["chrome", trace_path, "-o", out_path]) == 0
        chrome = json.load(open(out_path, encoding="utf-8"))
        assert len(chrome["traceEvents"]) == 4


class TestEndToEndWithEngine:
    def test_traced_fit_produces_analysable_tree(self, tmp_path, rng, capsys):
        from repro.core.smfl import SMFL

        path = str(tmp_path / "fit.jsonl")
        x = abs(rng.normal(size=(40, 6))) + 0.1
        with record_to(path):
            SMFL(rank=3, n_spatial=2, max_iter=4, random_state=0).fit(x)
        names = {e["name"] for e in read_records(path) if e.get("kind") == "span"}
        assert {"fit", "iteration", "evaluate"} <= names
        assert main(["report", path]) == 0
        assert "iteration" in capsys.readouterr().out

    def test_traced_fit_emits_one_span_per_step(self, tmp_path, rng):
        from repro.core.smfl import SMFL

        path = str(tmp_path / "fit.jsonl")
        x = abs(rng.normal(size=(40, 6))) + 0.1
        with record_to(path):
            SMFL(rank=3, n_spatial=2, max_iter=4, eval_every=1, random_state=0).fit(x)
        spans = [e for e in read_records(path) if e["kind"] == "span"]
        counts = {}
        for span in spans:
            counts[span["name"]] = counts.get(span["name"], 0) + 1
        assert counts["fit"] == 1
        assert counts["iteration"] == 4
        assert counts["evaluate"] == 4
        # The iteration span is the step: no kernel span nests under it.
        assert not any(name.startswith("kernel:") for name in counts)
        by_id = {span["span_id"]: span for span in spans}
        for span in spans:
            if span["name"] in ("iteration", "evaluate"):
                assert by_id[span["parent_id"]]["name"] == "fit"

    def test_traced_multi_fit_emits_one_batch_span(self, tmp_path, rng):
        from repro.core.batched_fit import fit_models_batched
        from repro.core.smfl import SMFL

        path = str(tmp_path / "batch.jsonl")
        x = abs(rng.normal(size=(40, 6))) + 0.1
        jobs = [
            (SMFL(rank=3, n_spatial=2, max_iter=4, random_state=seed), x, None)
            for seed in range(2)
        ]
        with record_to(path):
            fit_models_batched(jobs)
        spans = [e for e in read_records(path) if e["kind"] == "span"]
        (fit,) = [span for span in spans if span["name"] == "fit"]
        assert fit["attrs"]["size"] == 2
        assert not any(span["name"] == "batch.fit" for span in spans)

    def test_tracing_leaves_the_fit_bit_identical(self, tmp_path, rng):
        import numpy as np

        from repro.core.smfl import SMFL

        x = abs(rng.normal(size=(40, 6))) + 0.1

        def fit():
            return SMFL(rank=3, n_spatial=2, max_iter=4, random_state=0).fit(x)

        plain = fit()
        with record_to(str(tmp_path / "fit.jsonl")):
            traced = fit()
        assert np.array_equal(traced.u_, plain.u_)
        assert np.array_equal(traced.v_, plain.v_)
        assert traced.objective_history_ == plain.objective_history_
        assert traced.fit_report_.n_increases == plain.fit_report_.n_increases
        assert traced.fit_report_.factor_deltas == plain.fit_report_.factor_deltas == {}
