"""Runner semantics: grids, serial/parallel equivalence, cache, manifests.

The contracts pinned here:

- grid expansion is a pure function of the experiment definition -
  seeds come from the cell's position in the grid, never from workers;
- the serial runner path computes exactly what the pre-runner
  protocol-layer loops computed (bit-identical, not just close);
- ``jobs=N`` produces the same values and the same stable manifest as
  ``jobs=1`` - the determinism guarantee perf PRs rely on;
- the cache serves completed cells on re-runs, ignores volatile
  (timing) cells, survives corrupt entries, and honours
  ``resume=False`` as recompute-and-refresh.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.runner import (
    ResultCache,
    RunnerConfig,
    RunSpec,
    cache_key,
    execute_cell,
    run_cell,
    run_grid,
    stable_manifest,
)
from repro.runner.grids import build_grid, table_iv_grid, figure_9_grid

TINY = dict(
    methods=("mean", "knn"), datasets=("lake",),
    missing_rate=0.1, n_runs=2, fast=True,
)


def _tiny_grid():
    return table_iv_grid(**TINY)


class TestGridExpansion:
    def test_cell_count_and_order(self):
        grid = _tiny_grid()
        assert len(grid) == 4  # 1 dataset x 2 methods x 2 seeds
        assert [c.params["method"] for c in grid.cells] == [
            "mean", "mean", "knn", "knn",
        ]
        assert [c.params["seed"] for c in grid.cells] == [0, 1, 0, 1]

    def test_seeds_are_positional_not_worker_derived(self):
        # Expanding twice gives identical specs: seeds are a pure
        # function of the grid definition and the cell position.
        first = _tiny_grid().cells
        second = _tiny_grid().cells
        assert first == second
        assert [cache_key(c) for c in first] == [cache_key(c) for c in second]

    def test_build_grid_dispatch(self):
        grid = build_grid("table4", **TINY)
        assert grid.experiment == "table4"
        with pytest.raises(ValidationError, match="no grid builder"):
            build_grid("table99")

    def test_volatile_marks_timing_cells(self):
        grid = figure_9_grid(
            datasets=("lake",), row_counts=(120,),
            methods=("softimpute",), missing_rate=0.1, seed=0,
        )
        assert all(cell.volatile for cell in grid.cells)

    def test_n_runs_validated(self):
        with pytest.raises(ValidationError):
            table_iv_grid(**{**TINY, "n_runs": 0})


class TestSerialEquivalence:
    def test_matches_the_protocol_layer_bitwise(self):
        # The runner's serial path must equal the historical loop:
        # average_rms per (dataset, method), seed-ordered np.mean.
        from repro.experiments.protocol import average_rms

        outcome = run_grid(_tiny_grid())
        expected = {
            "lake": {
                m: average_rms(m, "lake", missing_rate=0.1, n_runs=2, fast=True)
                for m in ("mean", "knn")
            }
        }
        assert outcome.value == expected  # bit-identical, no tolerance

    def test_execute_cell_returns_payload(self):
        spec = _tiny_grid().cells[0]
        payload = execute_cell(spec)
        assert payload["value"] > 0
        assert payload["wall_seconds"] >= 0

    def test_unknown_cell_kind(self):
        with pytest.raises(ValidationError, match="unknown cell kind"):
            run_cell("no_such_kind", {})


class TestParallelDeterminism:
    def test_jobs4_matches_jobs1_values_and_stable_manifest(self):
        # Satellite contract: the same RunSpec grid under --jobs 1 and
        # --jobs 4 produces bit-identical manifests modulo timing.
        grid = _tiny_grid()
        serial = run_grid(grid, RunnerConfig(jobs=1))
        parallel = run_grid(grid, RunnerConfig(jobs=4))
        assert parallel.value == serial.value
        assert stable_manifest(parallel.manifest) == stable_manifest(serial.manifest)

    def test_stable_manifest_strips_timing_but_keeps_values(self):
        outcome = run_grid(_tiny_grid())
        stable = stable_manifest(outcome.manifest)
        assert "total_wall_seconds" not in stable
        assert "jobs" not in stable
        assert "metrics" not in stable
        assert "trace" not in stable
        # Cache accounting stays machine-readable (run-level totals)...
        assert stable["cache"] == {
            "enabled": False, "hits": 0, "misses": 0, "stores": 0,
        }
        for cell in stable["cells"]:
            # ... but per-cell measurement fields are stripped.
            assert "wall_seconds" not in cell
            assert "cache_hit" not in cell
            assert cell["value"] is not None  # deterministic cells keep values

    def test_stable_manifest_carries_cache_totals(self, tmp_path):
        grid = _tiny_grid()
        cache_dir = str(tmp_path / "cache")
        cold = stable_manifest(run_grid(grid, RunnerConfig(cache_dir=cache_dir)).manifest)
        warm = stable_manifest(run_grid(grid, RunnerConfig(cache_dir=cache_dir)).manifest)
        assert cold["cache"] == {
            "enabled": True, "hits": 0, "misses": len(grid), "stores": len(grid),
        }
        assert warm["cache"] == {
            "enabled": True, "hits": len(grid), "misses": 0, "stores": 0,
        }
        # The cell view stays temperature-independent.
        assert warm["cells"] == cold["cells"]

    def test_stable_manifest_hides_volatile_values(self):
        grid = figure_9_grid(
            datasets=("lake",), row_counts=(120,),
            methods=("softimpute",), missing_rate=0.1, seed=0,
        )
        outcome = run_grid(grid)
        stable = stable_manifest(outcome.manifest)
        assert all(cell["value"] is None for cell in stable["cells"])
        assert all(v > 0 for v in outcome.value["lake/softimpute"].values())


class TestCache:
    def test_cold_then_warm(self, tmp_path):
        grid = _tiny_grid()
        cache_dir = str(tmp_path / "cache")
        cold = run_grid(grid, RunnerConfig(cache_dir=cache_dir))
        assert cold.cache_stats["hits"] == 0
        assert cold.cache_stats["misses"] == len(grid)
        assert cold.cache_stats["stores"] == len(grid)

        warm = run_grid(grid, RunnerConfig(cache_dir=cache_dir))
        assert warm.value == cold.value
        assert warm.cache_stats["hits"] == len(grid)
        assert warm.cache_stats["misses"] == 0
        assert warm.cache_stats["stores"] == 0
        assert all(record["cache_hit"] for record in warm.records)

    def test_entries_are_content_addressed_files(self, tmp_path):
        grid = _tiny_grid()
        cache_dir = str(tmp_path / "cache")
        run_grid(grid, RunnerConfig(cache_dir=cache_dir))
        for spec in grid.cells:
            path = os.path.join(cache_dir, f"{cache_key(spec)}.json")
            assert os.path.exists(path)
            entry = json.load(open(path, encoding="utf-8"))
            assert entry["params"] == spec.params
            assert "repro_version" in entry

    def test_cache_shared_across_experiments(self, tmp_path):
        # table4 and figure8 cells with identical (dataset, method,
        # rate, seed, rank) configs content-address identically.
        cache_dir = str(tmp_path / "cache")
        run_grid(_tiny_grid(), RunnerConfig(cache_dir=cache_dir))
        other = table_iv_grid(**{**TINY, "methods": ("knn", "smfl")})
        outcome = run_grid(other, RunnerConfig(cache_dir=cache_dir))
        # The two knn cells hit; the two smfl cells miss.
        assert outcome.cache_stats["hits"] == 2
        assert outcome.cache_stats["misses"] == 2

    def test_no_resume_recomputes_but_refreshes(self, tmp_path):
        grid = _tiny_grid()
        cache_dir = str(tmp_path / "cache")
        run_grid(grid, RunnerConfig(cache_dir=cache_dir))
        redo = run_grid(grid, RunnerConfig(cache_dir=cache_dir, resume=False))
        assert redo.cache_stats["hits"] == 0
        assert redo.cache_stats["stores"] == len(grid)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        grid = _tiny_grid()
        cache_dir = str(tmp_path / "cache")
        run_grid(grid, RunnerConfig(cache_dir=cache_dir))
        victim = os.path.join(cache_dir, f"{cache_key(grid.cells[0])}.json")
        with open(victim, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        warm = run_grid(grid, RunnerConfig(cache_dir=cache_dir))
        assert warm.cache_stats["hits"] == len(grid) - 1
        assert warm.cache_stats["misses"] == 1
        assert warm.value == run_grid(grid).value

    def test_volatile_cells_bypass_the_cache(self, tmp_path):
        grid = figure_9_grid(
            datasets=("lake",), row_counts=(120,),
            methods=("softimpute",), missing_rate=0.1, seed=0,
        )
        cache_dir = str(tmp_path / "cache")
        first = run_grid(grid, RunnerConfig(cache_dir=cache_dir))
        assert first.cache_stats["stores"] == 0
        second = run_grid(grid, RunnerConfig(cache_dir=cache_dir))
        assert second.cache_stats["hits"] == 0
        assert not os.path.exists(cache_dir) or not os.listdir(cache_dir)

    def test_result_cache_hit_ratio(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.stats()["hit_ratio"] is None
        assert cache.load("0" * 64) is None
        cache.store("0" * 64, {"value": 1.0})
        assert cache.load("0" * 64)["value"] == 1.0
        assert cache.stats()["hit_ratio"] == 0.5


class TestManifest:
    def test_written_next_to_artifact(self, tmp_path):
        path = str(tmp_path / "manifests" / "table4.json")
        outcome = run_grid(
            _tiny_grid(),
            RunnerConfig(cache_dir=str(tmp_path / "cache"), manifest_path=path),
        )
        on_disk = json.load(open(path, encoding="utf-8"))
        assert on_disk == json.loads(json.dumps(outcome.manifest))
        assert on_disk["experiment"] == "table4"
        assert on_disk["n_cells"] == 4
        assert on_disk["cache"]["enabled"] is True
        wall = [cell["wall_seconds"] for cell in on_disk["cells"]]
        assert all(w >= 0 for w in wall)
        assert np.isfinite(on_disk["total_wall_seconds"])

    def test_fit_summaries_recorded_for_engine_methods(self):
        grid = table_iv_grid(**{**TINY, "methods": ("nmf",), "n_runs": 1})
        outcome = run_grid(grid)
        fit = outcome.records[0]["fit"]
        assert fit["method"]
        assert fit["n_iter"] > 0
        assert fit["n_increases"] == 0

    def test_config_validates_jobs(self):
        with pytest.raises(ValidationError):
            RunnerConfig(jobs=0)


class TestRunSpec:
    def test_config_excludes_volatility_and_position(self):
        spec = RunSpec("timing", {"dataset": "lake"}, volatile=True)
        assert spec.config() == {"kind": "timing", "params": {"dataset": "lake"}}


class TestTimedFitImpute:
    """The Figure 9 ``timing`` cell's clock: telemetry, else one span."""

    def test_engine_driven_method_uses_its_own_clock(self, tiny_trial):
        from repro.core import MaskedNMF
        from repro.runner.cells import timed_fit_impute

        _, x_missing, mask = tiny_trial
        model = MaskedNMF(rank=3, max_iter=10, random_state=0)
        estimate, seconds, report = timed_fit_impute(model, x_missing, mask)
        assert estimate.shape == x_missing.shape
        assert report is model.fit_report_
        assert seconds == report.total_seconds

    def test_one_shot_method_falls_back_to_stopwatch(self, tiny_trial):
        from repro.baselines.meanimpute import MeanImputer
        from repro.runner.cells import timed_fit_impute

        _, x_missing, mask = tiny_trial
        _, seconds, report = timed_fit_impute(MeanImputer(), x_missing, mask)
        assert report is None
        assert seconds >= 0
