"""Tracing through the experiment runner: serial/parallel merge parity.

The tentpole contract: a traced grid run produces ONE merged JSONL
whether cells run in-process or on pool workers - worker spans ship
back with the cell payload, get re-parented under the ``run`` span, and
are tagged with the cell's content address.  Values stay bit-identical
with tracing on or off (the spans measure, they never steer).
"""

from __future__ import annotations

import pytest

from repro.obs import build_tree, coverage, read_records
from repro.runner import RunnerConfig, run_grid
from repro.runner.grids import table_iv_grid

TINY = dict(
    methods=("mean", "knn"), datasets=("lake",),
    missing_rate=0.1, n_runs=2, fast=True,
)


def _traced_run(tmp_path, jobs):
    path = str(tmp_path / f"jobs{jobs}.jsonl")
    outcome = run_grid(
        table_iv_grid(**TINY), RunnerConfig(jobs=jobs, trace_path=path)
    )
    return outcome, read_records(path)


def _spans(events):
    return [e for e in events if e.get("kind") == "span"]


class TestSerialTrace:
    def test_run_owns_cells_and_coverage_is_total(self, tmp_path):
        outcome, events = _traced_run(tmp_path, jobs=1)
        tree = build_tree(events)
        run = tree.children["run"]
        assert run.children["cell"].count == 4
        assert "fit_impute" in run.children["cell"].children
        assert "assemble" in run.children
        assert coverage(events)["fraction"] >= 0.95
        assert outcome.manifest["trace"]["events"] == len(events)

    def test_values_identical_with_tracing_off(self, tmp_path):
        traced_outcome, _ = _traced_run(tmp_path, jobs=1)
        assert traced_outcome.value == run_grid(table_iv_grid(**TINY)).value


class TestParallelMerge:
    def test_worker_spans_reparent_under_run(self, tmp_path):
        _, events = _traced_run(tmp_path, jobs=2)
        spans = _spans(events)
        ids = [span["span_id"] for span in spans]
        assert len(ids) == len(set(ids))  # merged stream, no aliasing
        assert len({span["pid"] for span in spans}) >= 2  # really multi-process
        run = build_tree(events).children["run"]
        assert run.children["cell"].count == 4
        assert coverage(events)["fraction"] >= 0.95

    def test_worker_cell_spans_are_key_tagged(self, tmp_path):
        from repro.runner import cache_key

        grid = table_iv_grid(**TINY)
        keys = {cache_key(spec) for spec in grid.cells}
        _, events = _traced_run(tmp_path, jobs=2)
        tagged = {
            span["attrs"]["cell_key"]
            for span in _spans(events)
            if span["name"] == "cell"
        }
        assert tagged == keys

    def test_parallel_trace_matches_serial_shape_and_values(self, tmp_path):
        serial_outcome, serial_events = _traced_run(tmp_path, jobs=1)
        parallel_outcome, parallel_events = _traced_run(tmp_path, jobs=2)
        assert parallel_outcome.value == serial_outcome.value

        def shape(events):
            def walk(node):
                return {
                    name: (child.count, walk(child))
                    for name, child in node.children.items()
                }
            return walk(build_tree(events))

        assert shape(parallel_events) == shape(serial_events)


class TestCacheHitsInTrace:
    def test_warm_run_emits_instant_cell_spans(self, tmp_path):
        grid = table_iv_grid(**TINY)
        cache_dir = str(tmp_path / "cache")
        run_grid(grid, RunnerConfig(cache_dir=cache_dir))
        path = str(tmp_path / "warm.jsonl")
        outcome = run_grid(
            grid, RunnerConfig(cache_dir=cache_dir, trace_path=path)
        )
        cells = [s for s in _spans(read_records(path)) if s["name"] == "cell"]
        assert len(cells) == 4
        assert all(cell["attrs"]["cache_hit"] for cell in cells)
        metrics = outcome.manifest["metrics"]
        assert metrics["runner.cache.hits"]["value"] == 4
        assert metrics["runner.cells.executed"]["value"] == 0


class TestManifestMetrics:
    def test_metrics_section_counts_work(self, tmp_path):
        outcome = run_grid(table_iv_grid(**TINY), RunnerConfig())
        metrics = outcome.manifest["metrics"]
        assert metrics["runner.cells.total"]["value"] == 4
        assert metrics["runner.cells.executed"]["value"] == 4
        assert metrics["runner.cell.wall_seconds"]["count"] == 4
        assert "trace" not in outcome.manifest or outcome.manifest["trace"] is None

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_metrics_event_lands_in_trace(self, tmp_path, jobs):
        _, events = _traced_run(tmp_path, jobs=jobs)
        (metrics_event,) = [e for e in events if e.get("kind") == "metrics"]
        assert metrics_event["values"]["runner.cells.total"]["value"] == 4
