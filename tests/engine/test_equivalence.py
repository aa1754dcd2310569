"""Equivalence tests: the engine refactor preserves numerics.

Three layers of guarantees:

1. the vectorized helpers (``column_mean_fill``,
   ``clip_columns_to_observed``) match their pre-refactor loop
   implementations, reproduced here verbatim as references;
2. a model fit through :class:`~repro.engine.IterativeEngine` matches a
   hand-written reference loop over the same hooks (the pre-refactor
   ``fit`` body) bit-for-bit;
3. an engine-driven baseline (SVT matrix completion) matches its
   pre-refactor explicit loop bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.base import column_mean_fill
from repro.baselines.mc import MatrixCompletionImputer, svd_shrink
from repro.core import SMF, SMFL, MaskedNMF
from repro.core.convergence import ConvergenceMonitor
from repro.core.factorization import clip_columns_to_observed
from repro.validation import resolve_rng

# --------------------------------------------------------- loop references


def reference_column_mean_fill(x, observed):
    """Pre-refactor per-column loop implementation."""
    x = np.asarray(x, dtype=np.float64)
    filled = x.copy()
    any_observed = observed.any()
    global_mean = x[observed].mean() if any_observed else 0.0
    for j in range(x.shape[1]):
        col_observed = observed[:, j]
        fill = x[col_observed, j].mean() if col_observed.any() else global_mean
        filled[~col_observed, j] = fill
    return filled


def reference_clip_columns(estimate, x, observed):
    """Pre-refactor per-column loop implementation."""
    clipped = estimate.copy()
    for j in range(x.shape[1]):
        col_observed = observed[:, j]
        if not col_observed.any():
            continue
        values = x[col_observed, j]
        clipped[:, j] = np.clip(clipped[:, j], values.min(), values.max())
    return clipped


def reference_model_fit(model, x, mask):
    """The pre-refactor ``MatrixFactorizationBase.fit`` loop body."""
    x, observation = model._coerce_input(x, mask)
    x_observed = observation.project(x)
    observed = observation.observed
    rng = resolve_rng(model.random_state)
    model._prepare_fit(x, x_observed, observation)
    u, v = model._initial_factors(x_observed, observed, rng)
    monitor = ConvergenceMonitor(max_iter=model.max_iter, tol=model.tol)
    steps = checked = 0
    while steps < model.max_iter and not monitor.converged:
        u, v = model._step(x_observed, observed, u, v)
        steps += 1
        if monitor.due(steps, model.eval_every):
            monitor.record(model._objective(x_observed, u, v, observed), steps - checked)
            checked = steps
    return u, v, steps


def reference_svt(x_observed, observed, *, tau, delta, tol, max_iter):
    """The pre-refactor explicit SVT loop."""
    norm_obs = float(np.linalg.norm(x_observed)) or 1.0
    dual = delta * x_observed
    estimate = np.zeros_like(x_observed)
    for _ in range(max_iter):
        estimate, _ = svd_shrink(dual, tau)
        residual = np.where(observed, x_observed - estimate, 0.0)
        dual = dual + delta * residual
        if float(np.linalg.norm(residual)) / norm_obs < tol:
            break
    return estimate


# ----------------------------------------------------------------- tests


class TestVectorizedHelpers:
    @pytest.mark.parametrize("missing_rate", [0.0, 0.1, 0.5, 0.95])
    def test_column_mean_fill_matches_reference(self, rng, missing_rate):
        x = rng.random((40, 9))
        observed = rng.random((40, 9)) >= missing_rate
        observed[:, 4] = False  # force an all-missing column
        result = column_mean_fill(x, observed)
        expected = reference_column_mean_fill(x, observed)
        np.testing.assert_allclose(result, expected, rtol=0, atol=1e-12)
        # Observed cells pass through bit-exactly.
        assert np.array_equal(result[observed], x[observed])

    def test_column_mean_fill_nothing_observed(self):
        x = np.ones((3, 3))
        observed = np.zeros((3, 3), dtype=bool)
        assert np.array_equal(column_mean_fill(x, observed), np.zeros((3, 3)))

    @pytest.mark.parametrize("missing_rate", [0.1, 0.6])
    def test_clip_columns_matches_reference(self, rng, missing_rate):
        x = rng.random((35, 8))
        observed = rng.random((35, 8)) >= missing_rate
        observed[:, 2] = False  # all-missing column must pass through
        estimate = rng.normal(scale=3.0, size=(35, 8))
        result = clip_columns_to_observed(estimate, x, observed)
        expected = reference_clip_columns(estimate, x, observed)
        assert np.array_equal(result, expected)
        assert np.array_equal(result[:, 2], estimate[:, 2])


class TestEngineMatchesReferenceLoop:
    """Same seeds => bit-identical factors, pre- and post-refactor."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: MaskedNMF(rank=4, max_iter=40, random_state=7),
            lambda: MaskedNMF(
                rank=4, max_iter=40, random_state=7, update_rule="gradient",
                learning_rate=1e-2,
            ),
            lambda: MaskedNMF(rank=4, max_iter=40, random_state=7, eval_every=5),
            lambda: SMF(rank=4, n_spatial=2, max_iter=40, random_state=7),
            lambda: SMFL(rank=4, n_spatial=2, max_iter=40, random_state=7),
        ],
        ids=["nmf", "nmf-gradient", "nmf-eval5", "smf", "smfl"],
    )
    def test_factors_bit_identical(self, make, tiny_trial):
        _, x_missing, mask = tiny_trial
        u_ref, v_ref, steps_ref = reference_model_fit(make(), x_missing, mask)
        model = make().fit(x_missing, mask)
        assert model.n_iter_ == steps_ref
        assert np.array_equal(model.u_, u_ref)
        assert np.array_equal(model.v_, v_ref)

    def test_early_stop_matches(self, tiny_trial):
        _, x_missing, mask = tiny_trial
        def make():
            return MaskedNMF(rank=4, max_iter=400, tol=1e-3, random_state=7)

        u_ref, v_ref, steps_ref = reference_model_fit(make(), x_missing, mask)
        model = make().fit(x_missing, mask)
        assert steps_ref < 400  # the tolerance actually fired
        assert model.n_iter_ == steps_ref
        assert model.converged_
        assert np.array_equal(model.u_, u_ref)
        assert np.array_equal(model.v_, v_ref)


class TestBaselineMatchesReferenceLoop:
    def test_svt_bit_identical(self, tiny_trial):
        _, x_missing, mask = tiny_trial
        imputer = MatrixCompletionImputer(max_iter=60)
        result = imputer.fit_impute(x_missing, mask)

        x_coerced, observation = imputer._coerce(np.asarray(x_missing), mask)
        x_observed = observation.project(x_coerced)
        observed = observation.observed
        n, m = x_observed.shape
        n_obs = max(observation.n_observed, 1)
        scale = float(np.abs(x_observed[observed]).mean())
        tau = 5.0 * np.sqrt(n * m) * scale / 5.0
        delta = min(1.2 * n * m / n_obs, 1.9)
        estimate = reference_svt(
            x_observed, observed, tau=tau, delta=delta,
            tol=imputer.tol, max_iter=60,
        )
        expected = observation.merge(x_coerced, estimate)
        assert np.array_equal(result, expected)
        # The engine also produced telemetry for the same run.
        report = imputer.fit_report_
        assert report is not None
        assert report.method == "mc"
        assert len(report.wall_times) == report.n_iter > 0
