"""Fold-in math: the batched ridge solve against the frozen ``V``.

Contracts: observed cells come back verbatim; the batched path equals
the per-row loop to machine precision (with and without the shared
observation pattern fast path); embeddings respect the nonnegativity
projection; the zero-observed row folds to the zero embedding; the
spatial-neighbour prior activates only for spatial models and closes
the held-out gap the plain solve leaves open.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SMFL, MaskedNMF
from repro.engine.workspace import BufferArena
from repro.exceptions import ValidationError
from repro.model import FittedModel
from repro.serving import (
    DEFAULT_SMOOTHING,
    FoldInServer,
    fold_in,
    fold_in_row,
)


def _fit_model(n: int = 40, m: int = 7, seed: int = 0) -> FittedModel:
    rng = np.random.default_rng(seed)
    spatial = rng.random((n, 2)) * 4.0
    attrs = np.abs(
        np.sin(spatial.sum(axis=1, keepdims=True) + np.arange(m - 2)) + 1.2
    ) + 0.1 * rng.random((n, m - 2))
    x = np.hstack([spatial, attrs])
    x_missing = x.copy()
    holes = rng.random((n, m)) < 0.2
    holes[:, :2] = False
    x_missing[holes] = np.nan
    solver = SMFL(rank=4, n_spatial=2, max_iter=80, random_state=seed)
    return solver.fit(x_missing).fitted_model()


@pytest.fixture(scope="module")
def model() -> FittedModel:
    return _fit_model()


def _requests(model: FittedModel, b: int = 9, seed: int = 3):
    rng = np.random.default_rng(seed)
    m = model.n_cols
    x = np.abs(rng.normal(1.0, 0.5, size=(b, m)))
    holes = rng.random((b, m)) < 0.3
    holes[:, :2] = False
    x[holes] = np.nan
    return x


class TestFoldIn:
    def test_observed_cells_verbatim(self, model):
        x = _requests(model)
        result = fold_in(model, x)
        observed = ~np.isnan(x)
        assert np.array_equal(result.imputed[observed], x[observed])
        assert np.isfinite(result.imputed).all()

    def test_batched_equals_per_row_loop(self, model):
        x = _requests(model)
        batched = fold_in(model, x)
        for i in range(x.shape[0]):
            u_row, imputed_row = fold_in_row(model, x[i])
            np.testing.assert_allclose(batched.u_new[i], u_row, atol=1e-12)
            np.testing.assert_allclose(batched.imputed[i], imputed_row, atol=1e-12)

    def test_shared_pattern_fast_path_matches_loop(self, model):
        rng = np.random.default_rng(5)
        x = np.abs(rng.normal(1.0, 0.5, size=(6, model.n_cols)))
        x[:, 3] = np.nan  # every row drops the same column
        result = fold_in(model, x)
        assert result.shared_pattern
        for i in range(x.shape[0]):
            _, imputed_row = fold_in_row(model, x[i])
            np.testing.assert_allclose(result.imputed[i], imputed_row, atol=1e-12)

    def test_nonnegative_projection(self, model):
        result = fold_in(model, _requests(model))
        assert result.nonnegative
        assert (result.u_new >= 0.0).all()

    def test_zero_observed_row_folds_to_zero_embedding(self, model):
        x = np.full((1, model.n_cols), np.nan)
        result = fold_in(model, x)
        assert np.array_equal(result.u_new, np.zeros((1, model.rank)))
        assert np.isfinite(result.imputed).all()

    def test_imputed_respects_clip_bounds(self, model):
        result = fold_in(model, _requests(model))
        lows, highs = model.clip_bounds()
        filled = result.imputed[~result.observed]
        columns = np.nonzero(~result.observed)[1]
        assert (filled >= lows[columns] - 1e-12).all()
        assert (filled <= highs[columns] + 1e-12).all()

    def test_arena_reuse_is_equivalent(self, model):
        x = _requests(model)
        arena = BufferArena()
        first = fold_in(model, x, arena=arena)
        second = fold_in(model, x, arena=arena)
        np.testing.assert_array_equal(first.imputed, second.imputed)
        np.testing.assert_array_equal(first.imputed, fold_in(model, x).imputed)


class TestSpatialPrior:
    def test_default_smoothing_for_spatial_models(self, model):
        result = fold_in(model, _requests(model))
        assert result.spatial_smoothing == DEFAULT_SMOOTHING

    def test_zero_forces_plain_ridge_solve(self, model):
        result = fold_in(model, _requests(model), spatial_smoothing=0.0)
        assert result.spatial_smoothing == 0.0

    def test_nonspatial_model_never_uses_prior(self):
        rng = np.random.default_rng(2)
        x = np.abs(rng.normal(1.0, 0.4, size=(20, 5)))
        solver = MaskedNMF(rank=3, max_iter=40, random_state=0)
        nmf_model = solver.fit(x).fitted_model()
        result = fold_in(nmf_model, np.abs(rng.normal(1.0, 0.4, size=(4, 5))))
        assert result.spatial_smoothing == 0.0

    def test_prior_closes_heldout_gap(self):
        # Fold in *held-out* rows of the training distribution: the
        # prior-regularized solve must beat the plain ridge solve on the
        # unobserved cells (the serving benchmark's acceptance story).
        rng = np.random.default_rng(11)
        n, m = 60, 7
        spatial = rng.random((n, 2)) * 4.0
        attrs = np.abs(
            np.sin(spatial.sum(axis=1, keepdims=True) + np.arange(m - 2)) + 1.2
        )
        x = np.hstack([spatial, attrs])
        x_missing = x.copy()
        holes = rng.random((n, m)) < 0.2
        holes[:, :2] = False
        x_missing[holes] = np.nan
        solver = SMFL(rank=4, n_spatial=2, max_iter=80, random_state=1)
        fitted = solver.fit(x_missing[:45]).fitted_model()

        held = x_missing[45:]
        truth = x[45:]
        unobserved = np.isnan(held)
        with_prior = fold_in(fitted, held).imputed
        without = fold_in(fitted, held, spatial_smoothing=0.0).imputed
        rms_prior = np.sqrt(np.mean((with_prior[unobserved] - truth[unobserved]) ** 2))
        rms_plain = np.sqrt(np.mean((without[unobserved] - truth[unobserved]) ** 2))
        assert rms_prior < rms_plain

    def test_negative_smoothing_rejected(self, model):
        with pytest.raises(ValidationError):
            fold_in(model, _requests(model), spatial_smoothing=-0.1)


class TestValidation:
    def test_estimate_model_rejected(self):
        estimate_model = FittedModel.from_estimate(
            method="mean",
            estimate=np.ones((3, 4)),
            x_observed=np.ones((3, 4)),
            observed=np.ones((3, 4), dtype=bool),
        )
        with pytest.raises(ValidationError):
            fold_in(estimate_model, np.ones(4))

    def test_column_count_mismatch_rejected(self, model):
        with pytest.raises(ValidationError):
            fold_in(model, np.ones(model.n_cols + 1))

    def test_nonpositive_ridge_rejected(self, model):
        with pytest.raises(ValidationError):
            fold_in(model, np.ones(model.n_cols), ridge=0.0)

    def test_negative_observed_value_rejected_like_fit(self, model):
        x = _requests(model, b=3)
        x[1, 3] = -5.0
        with pytest.raises(ValidationError, match="observed entries of X"):
            SMFL(rank=2, n_spatial=2, max_iter=2, random_state=0).fit(x)
        with pytest.raises(ValidationError, match="observed entries of X"):
            fold_in(model, x)
        with pytest.raises(ValidationError, match="observed entries of X"):
            FoldInServer(model).fold_in(x[1])
        # A negative value at an unobserved cell is masked out, not data.
        mask = ~np.isnan(x)
        mask[1, 3] = False
        assert fold_in(model, np.nan_to_num(x), mask).n_rows == 3

    def test_fold_in_row_rejects_batches(self, model):
        with pytest.raises(ValidationError):
            fold_in_row(model, np.ones((2, model.n_cols)))

    def test_model_fold_in_wrapper(self, model):
        x = _requests(model, b=3)
        np.testing.assert_array_equal(
            model.fold_in(x), fold_in(model, x).imputed
        )
