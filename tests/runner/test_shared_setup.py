"""A grid pays once for the set-up its cells share.

Table VII's NMF, SMF and SMFL cells of one (dataset, rate, seed) share
one injection trial, and its SMFL cells of one (dataset, seed) share
one K-means landmark build across the missing rates (the rates leave
the spatial columns alone).  The memos must change no cell value.
"""

from __future__ import annotations

import pytest

from repro.clustering.kmeans import KMeans
from repro.experiments import protocol
from repro.runner import RunnerConfig, run_cell, run_grid
from repro.runner.grids import table_vii_grid
from repro.spatial import clear_graph_cache

DATASETS = ("lake", "farm")
RATES = (0.1, 0.3)
N_RUNS = 2


def _clear_memos():
    clear_graph_cache()
    protocol._memo_trial.cache_clear()


@pytest.fixture(autouse=True)
def fresh_memos():
    _clear_memos()
    yield
    _clear_memos()


@pytest.fixture
def grid():
    return table_vii_grid(datasets=DATASETS, missing_rates=RATES, n_runs=N_RUNS, fast=True)


def test_each_input_is_set_up_once(grid, monkeypatch):
    kmeans, injections = [], []
    fit, inject = KMeans.fit, protocol.inject_missing

    def counting_fit(model, points):
        kmeans.append((points.tobytes(), model.random_state))
        return fit(model, points)

    def counting_inject(*args, **kwargs):
        injections.append(kwargs["random_state"])
        return inject(*args, **kwargs)

    monkeypatch.setattr(KMeans, "fit", counting_fit)
    monkeypatch.setattr(protocol, "inject_missing", counting_inject)
    outcome = run_grid(grid, RunnerConfig(jobs=1, cache_dir=None, coalesce=True))
    assert len(outcome.records) == len(DATASETS) * len(RATES) * N_RUNS * 3
    # One K-means per (dataset, seed); one trial per (dataset, rate, seed).
    assert len(kmeans) == len(set(kmeans)) == len(DATASETS) * N_RUNS
    assert len(injections) == len(DATASETS) * len(RATES) * N_RUNS


def test_cell_values_match_cold_set_ups(grid):
    shared = run_grid(grid, RunnerConfig(jobs=1, cache_dir=None, coalesce=True))
    cold = []
    for cell in grid.cells:
        _clear_memos()
        cold.append(run_cell(cell.kind, cell.params)["value"])
    assert [record["value"] for record in shared.records] == cold
