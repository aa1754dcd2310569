"""grid_table7: the Table VII grid through the runner - the researcher's path.

Each op is the default ``table_vii()`` grid (NMF/SMF/SMFL x economic/
farm/lake x 5 missing rates x 5 seeds = 225 cells) through
``run_grid`` with coalescing on (45 batched units), the result cache
off and one job.  The benchmark seed shifts the five injection seeds
(``seed * 5 + s``); seed 0 runs the cells of the repository's Table VII.  The
warm-up op in set-up fills the spatial-graph cache, so every op hits
it: this workload drives ``engine``/``runner``/``core`` and bypasses
the graph build.

The op runs the grid as 15 ``run_grid`` calls, one per (dataset,
missing rate): coalescing groups cells by everything but the seed, so
these are the same 45 units the one-call grid fuses.  A host-speed
sample between calls rescales each call's time (see run.py), which a
single 7-10 s call would not allow.

The traced op is the same calls; its layer numbers come from the
per-cell records ``run_grid`` returns and the graph-cache counters.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time

from common import OpResult, calibration_seconds, fit_problems, graph_cache_counts, reference_scale
from repro.bench.specs import BenchDataset
from repro.experiments.protocol import EXPERIMENT_ROWS, prepare_trial
from repro.runner import RunnerConfig, run_grid
from repro.runner.grids import table_vii_grid

DATASETS = ("economic", "farm", "lake")
MISSING_RATES = (0.1, 0.2, 0.3, 0.4, 0.5)
N_RUNS = 5
METHODS = ("nmf", "smf", "smfl")
CONFIG = RunnerConfig(jobs=1, cache_dir=None, coalesce=True)


class Workload:
    MIN_OPS = 3

    def __init__(self, seed: int, rep: int) -> None:
        self.seed = seed

    def _part(self, name: str, rate: float):
        """The Table VII grid of one dataset and rate, injection seeds shifted."""
        grid = table_vii_grid(datasets=(name,), missing_rates=(rate,), n_runs=N_RUNS, fast=False)
        cells = tuple(
            dataclasses.replace(
                cell, params={**cell.params, "seed": self.seed * N_RUNS + cell.params["seed"]}
            )
            for cell in grid.cells
        )
        return dataclasses.replace(grid, cells=cells)

    def setup(self) -> list[str]:
        self.parts = [self._part(name, rate) for rate in MISSING_RATES for name in DATASETS]
        self.cells = [cell for part in self.parts for cell in part.cells]
        self.rows = sum(EXPERIMENT_ROWS[cell.params["dataset"]] for cell in self.cells)
        self.expected = None
        records, _, _ = self._run()
        self.expected = [record["value"] for record in records]
        return self._problems(records)

    def _run(self) -> tuple[list[dict], float, float]:
        """Run the parts; return their records, wall seconds and reference seconds."""
        records, seconds, reference = [], 0.0, 0.0
        before = calibration_seconds()
        for part in self.parts:
            start = time.perf_counter()
            outcome = run_grid(part, CONFIG)
            elapsed = time.perf_counter() - start
            after = calibration_seconds()
            seconds += elapsed
            reference += elapsed * reference_scale(before, after)
            before = after
            records += outcome.records
        return records, seconds, reference

    def input_hashes(self) -> list[str]:
        """One hash per distinct (dataset, rate, seed) trial the cells build."""
        trials = sorted({
            (c.params["dataset"], c.params["missing_rate"], c.params["seed"])
            for c in self.cells
        })
        hashes = []
        for name, rate, seed in trials:
            trial = prepare_trial(name, missing_rate=rate, seed=seed)
            hashes.append(BenchDataset(
                spec="table7", params={"dataset": name, "missing_rate": rate},
                seed=seed, dataset=trial.dataset, x_missing=trial.x_missing,
                mask=trial.mask,
            ).content_hash())
        return hashes

    def imputation_rms(self, results: list[OpResult]) -> float:
        """Geometric mean of the cell RMS, as on fit_cold; every op's cell
        values equal the warm-up's (checked)."""
        return statistics.geometric_mean(self.expected)

    def verify_trace(self) -> list[str]:
        return []

    def op(self, index: int, traced: bool) -> OpResult:
        hits, misses = graph_cache_counts()
        records, seconds, reference = self._run()
        result = OpResult(seconds=seconds, rows=self.rows, problems=self._problems(records),
                          scale=reference / seconds)
        if traced:
            hits_after, misses_after = graph_cache_counts()
            result.layers = self._layers(records, seconds)
            result.layers["spatial.graph_cache_hits"] = hits_after - hits
            result.layers["spatial.graph_cache_misses"] = misses_after - misses
        return result

    def _problems(self, records) -> list[str]:
        problems = []
        values = [record["value"] for record in records]
        if not all(math.isfinite(v) for v in values):
            problems.append("non-finite cell RMS")
        if self.expected is not None and values != self.expected:
            problems.append("grid values differ from the warm-up op")
        for record in records:
            fit = record["fit"]
            problems += fit_problems(
                fit["n_increases"], fit["landmark_block_intact"],
                landmarks=record["params"]["method"] == "smfl",
            )
        return problems

    def _layers(self, records, seconds: float) -> dict[str, float]:
        fits = [record["fit"] for record in records]
        layers = {
            "runner.cells": len(records),
            # A coalesced unit's members share one wall time (the fused
            # span split evenly); a lone cell has its own.
            "runner.units": len({r["wall_seconds"] for r in records}),
            # Op time minus the cells' own: the 15 run_grid calls' bookkeeping.
            "runner.overhead_ms": (seconds - sum(r["wall_seconds"] for r in records)) * 1e3,
            "core.fit_setup_ms": sum(f["setup_seconds"] for f in fits) * 1e3,
            "engine.loop_ms": sum(f["loop_seconds"] for f in fits) * 1e3,
            "engine.iters": sum(f["n_iter"] for f in fits),
            "engine.n_increases": sum(f["n_increases"] for f in fits),
        }
        for method in METHODS:
            mine = [f for r, f in zip(records, fits) if r["params"]["method"] == method]
            loop = sum(f["loop_seconds"] for f in mine)
            layers[f"engine.member_iter_us.{method}"] = loop / sum(f["n_iter"] for f in mine) * 1e6
        return layers
