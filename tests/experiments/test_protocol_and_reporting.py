"""Unit tests for the experiment protocol, reporting and registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.experiments import (
    DATASET_RANKS,
    EXPERIMENTS,
    format_table,
    prepare_trial,
    run_experiment,
    run_method_on_trial,
)
from repro.data import load_dataset
from repro.experiments.protocol import DATASET_SEEDS, FAST_ROWS, average_rms
from repro.experiments.reporting import format_series


class TestPrepareTrial:
    def test_imputation_trial_masks_attribute_columns(self):
        trial = prepare_trial("lake", missing_rate=0.1, seed=0, fast=True)
        spatial_part = trial.mask.observed[:, :2]
        assert spatial_part.all()
        assert trial.mask.n_unobserved > 0

    def test_table_v_masks_spatial_columns_too(self):
        trial = prepare_trial(
            "lake", missing_rate=0.2, seed=0, spatial_missing=True, fast=True
        )
        assert not trial.mask.observed[:, :2].all()

    def test_repair_trial_keeps_values_in_domain(self):
        trial = prepare_trial("lake", missing_rate=0.1, seed=0, task="repair", fast=True)
        rows, cols = trial.mask.unobserved_indices()
        for i, j in zip(rows[:20], cols[:20]):
            assert trial.x_missing[i, j] in trial.dataset.values[:, j]

    def test_holdout_rows_protected(self):
        trial = prepare_trial("farm", missing_rate=0.4, seed=1, fast=True)
        complete_rows = trial.mask.observed.all(axis=1).sum()
        # The holdout is min(100, n_rows // 4) complete tuples.
        expected = min(100, trial.dataset.n_rows // 4)
        assert complete_rows >= expected

    def test_unknown_task(self):
        with pytest.raises(ValueError, match="unknown task"):
            prepare_trial("lake", task="paint", fast=True)

    def test_trials_share_one_read_only_dataset(self):
        a = prepare_trial("lake", seed=0, fast=True)
        b = prepare_trial("lake", missing_rate=0.3, seed=4, fast=True)
        assert a.dataset is b.dataset
        fresh = load_dataset(
            "lake", n_rows=FAST_ROWS["lake"], random_state=DATASET_SEEDS["lake"]
        )
        assert a.dataset.values.dtype == fresh.values.dtype
        assert a.dataset.values.tobytes() == fresh.values.tobytes()
        assert a.dataset.labels.tobytes() == fresh.labels.tobytes()
        assert a.dataset.column_names == fresh.column_names
        assert not a.dataset.values.flags.writeable
        assert not a.dataset.labels.flags.writeable

    def test_deterministic_per_seed(self):
        a = prepare_trial("lake", seed=3, fast=True)
        b = prepare_trial("lake", seed=3, fast=True)
        assert np.array_equal(a.mask.observed, b.mask.observed)
        assert np.allclose(a.x_missing, b.x_missing)


class TestRunMethod:
    def test_returns_positive_rms(self):
        trial = prepare_trial("lake", seed=0, fast=True)
        rms = run_method_on_trial("mean", trial)
        assert rms > 0

    def test_overrides_applied(self):
        trial = prepare_trial("lake", seed=0, fast=True)
        base = run_method_on_trial("smf", trial)
        heavy = run_method_on_trial("smf", trial, overrides={"lam": 10.0})
        assert base != heavy

    def test_unknown_override_rejected(self):
        trial = prepare_trial("lake", seed=0, fast=True)
        with pytest.raises(AttributeError, match="no parameter"):
            run_method_on_trial("smf", trial, overrides={"bogus": 1})

    def test_rank_override(self):
        trial = prepare_trial("lake", seed=0, fast=True)
        assert run_method_on_trial("nmf", trial, rank=2) > 0

    def test_average_rms_runs(self):
        value = average_rms("mean", "lake", n_runs=2, fast=True)
        assert value > 0


class TestRanksConfig:
    def test_ranks_respect_column_limits(self):
        from repro.data import load_dataset

        for name, rank in DATASET_RANKS.items():
            data = load_dataset(name, n_rows=60)
            assert rank < data.n_cols or rank < 60


class TestReporting:
    def test_format_table_marks_minimum(self):
        table = format_table(
            {"row": {"a": 0.2, "b": 0.1}}, title="demo", precision=2
        )
        assert "demo" in table
        assert "0.10*" in table
        assert "0.20" in table and "0.20*" not in table

    def test_missing_cells_render_dash(self):
        table = format_table({"r1": {"a": 0.5}, "r2": {"b": 0.25}})
        assert "| -" in table

    def test_empty(self):
        assert "(empty)" in format_table({})

    def test_format_series(self):
        out = format_series({"knn": 0.5}, title="fig")
        assert "knn" in out and "0.5000" in out


class TestRegistry:
    def test_all_paper_ids_registered(self):
        expected = {
            "table4", "table5", "table6", "table7",
            "figure4a", "figure4b", "figure5", "figure6",
            "figure7", "figure8", "figure9",
        }
        assert expected == set(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(ValidationError, match="unknown experiment"):
            run_experiment("table99")
