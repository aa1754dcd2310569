"""Cell coalescing semantics (repro.runner.coalesce).

The invariants the runner's batched super-cells must keep: grouping is
a pure seed-stripped function of the specs, per-cell payloads and cache
entries are unchanged by coalescing, and ``coalesce=False`` is a pure
wall-time switch (bit-identical values either way).
"""

from __future__ import annotations

import os

from repro.runner import RunnerConfig, RunSpec, cache_key, execute_cell, run_grid
from repro.runner.coalesce import (
    MF_BATCHABLE_METHODS,
    coalesce_signature,
    execute_multi_cell,
    plan_units,
)
from repro.runner.grids import table_iv_grid


def mf_spec(method="smf", seed=0, **extra):
    params = {
        "dataset": "lake",
        "method": method,
        "missing_rate": 0.1,
        "seed": seed,
        "fast": True,
        **extra,
    }
    return RunSpec(kind="imputation_rms", params=params)


class TestSignature:
    def test_same_config_different_seed_share_signature(self):
        assert coalesce_signature(mf_spec(seed=0)) == coalesce_signature(
            mf_spec(seed=7)
        )

    def test_different_config_differs(self):
        assert coalesce_signature(mf_spec()) != coalesce_signature(
            mf_spec(missing_rate=0.3)
        )
        assert coalesce_signature(mf_spec("smf")) != coalesce_signature(
            mf_spec("smfl")
        )

    def test_non_mf_methods_stay_singletons(self):
        assert coalesce_signature(mf_spec(method="knn")) is None
        assert coalesce_signature(mf_spec(method="smfl_sgd")) is None

    def test_volatile_and_foreign_kinds_stay_singletons(self):
        volatile = RunSpec(
            kind="imputation_rms", params=mf_spec().params, volatile=True
        )
        assert coalesce_signature(volatile) is None
        other = RunSpec(kind="repair_accuracy", params=mf_spec().params)
        assert coalesce_signature(other) is None

    def test_batchable_methods_are_the_mf_family(self):
        assert MF_BATCHABLE_METHODS == {"nmf", "smf", "smfl"}


class TestPlanUnits:
    def test_groups_by_signature_preserving_first_occurrence_order(self):
        specs = [
            mf_spec("smf", seed=0),      # 0 - group A
            mf_spec(method="knn"),        # 1 - singleton
            mf_spec("smf", seed=1),      # 2 - group A
            mf_spec("smfl", seed=0),     # 3 - group B
            mf_spec("smfl", seed=1),     # 4 - group B
        ]
        units = plan_units(specs, range(len(specs)))
        assert units == [[0, 2], [1], [3, 4]]

    def test_pending_subset_only(self):
        specs = [mf_spec("smf", seed=s) for s in range(4)]
        assert plan_units(specs, [1, 3]) == [[1, 3]]

    def test_cache_keys_are_per_cell_and_grouping_independent(self):
        # Coalescing must be invisible to the cache layer: the key is a
        # function of the spec alone, never of the unit it ran in.
        a, b = mf_spec(seed=0), mf_spec(seed=1)
        assert cache_key(a) != cache_key(b)
        assert cache_key(a) == cache_key(mf_spec(seed=0))


class TestMultiCellExecution:
    def test_payloads_match_per_cell_execution(self):
        specs = [mf_spec("smf", seed=s, rank=4) for s in range(3)]
        fused = execute_multi_cell(specs)["payloads"]
        assert len(fused) == 3
        for spec, payload in zip(specs, fused):
            single = execute_cell(spec)
            assert payload["value"] == single["value"]  # bit-identical RMS
            assert payload["fit"]["n_iter"] == single["fit"]["n_iter"]
            assert (
                payload["fit"]["final_objective"]
                == single["fit"]["final_objective"]
            )
            assert payload["wall_seconds"] >= 0

    def test_trace_events_collected_once_per_unit(self):
        specs = [mf_spec("smf", seed=s, rank=4) for s in range(2)]
        result = execute_multi_cell(specs, trace=True)
        names = {e.get("name") for e in result["records"]}
        assert "batch.cells" in names


class TestRunGridCoalescing:
    GRID = dict(
        methods=("knn", "smf", "smfl"), datasets=("lake",),
        missing_rate=0.1, n_runs=2, fast=True,
    )

    def test_coalesced_equals_uncoalesced(self):
        grid = table_iv_grid(**self.GRID)
        on = run_grid(grid, RunnerConfig(coalesce=True))
        off = run_grid(grid, RunnerConfig(coalesce=False))
        assert on.value == off.value  # bit-identical, no tolerance

    def test_coalesced_parallel_matches_serial(self):
        grid = table_iv_grid(**self.GRID)
        serial = run_grid(grid, RunnerConfig(jobs=1))
        parallel = run_grid(grid, RunnerConfig(jobs=2))
        assert parallel.value == serial.value

    def test_cache_entries_written_per_cell(self, tmp_path):
        grid = table_iv_grid(**self.GRID)
        cache_dir = str(tmp_path / "cache")
        first = run_grid(grid, RunnerConfig(cache_dir=cache_dir))
        entries = [
            name
            for name in os.listdir(cache_dir)
            if name.endswith(".json")
        ]
        assert len(entries) == len(grid)  # one entry per cell, not per unit
        warm = run_grid(grid, RunnerConfig(cache_dir=cache_dir))
        assert warm.value == first.value
        # A warm rerun with coalescing disabled hits the same keys.
        warm_off = run_grid(
            grid, RunnerConfig(cache_dir=cache_dir, coalesce=False)
        )
        assert warm_off.value == first.value
