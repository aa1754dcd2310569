"""Unit + regression tests for the stochastic solver path.

Covers the :class:`BatchScheduler` contract, the degenerate inputs the
engine must now survive (oversized batches, fully-unobserved rows
inside a batch, a zero iteration budget), the model-level ``method`` /
``update_rule`` wiring, and the stochastic telemetry fields of
:class:`FitReport`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SMF, SMFL, MaskedNMF
from repro.engine import (
    DEFAULT_BATCH_SIZE,
    BatchScheduler,
    FitReport,
    IterativeEngine,
    StochasticWorkspace,
    build_kernel,
)
from repro.exceptions import ValidationError

# ----------------------------------------------------------- scheduler


class TestBatchScheduler:
    def test_batches_partition_the_rows(self):
        scheduler = BatchScheduler(23, batch_size=5, seed=3)
        batches = list(scheduler.batches(epoch=0))
        assert scheduler.n_batches == 5 == len(batches)
        assert [len(b) for b in batches] == [5, 5, 5, 5, 3]
        stacked = np.concatenate(batches)
        assert np.array_equal(np.sort(stacked), np.arange(23))

    def test_shuffle_is_a_pure_function_of_seed_and_epoch(self):
        one = BatchScheduler(40, batch_size=8, seed=11)
        two = BatchScheduler(40, batch_size=8, seed=11)
        for epoch in (0, 1, 5):
            for a, b in zip(one.batches(epoch), two.batches(epoch)):
                assert np.array_equal(a, b)
        # Different epochs reshuffle; different seeds diverge.
        first = np.concatenate(list(one.batches(0)))
        second = np.concatenate(list(one.batches(1)))
        other = np.concatenate(list(BatchScheduler(40, batch_size=8, seed=12).batches(0)))
        assert not np.array_equal(first, second)
        assert not np.array_equal(first, other)

    def test_shuffle_off_is_sequential(self):
        scheduler = BatchScheduler(10, batch_size=4, shuffle=False)
        batches = list(scheduler.batches(epoch=7))
        assert np.array_equal(batches[0], [0, 1, 2, 3])
        assert np.array_equal(batches[2], [8, 9])

    def test_oversized_batch_clamped_to_n(self):
        scheduler = BatchScheduler(6, batch_size=1000)
        assert scheduler.batch_size == 6
        assert scheduler.n_batches == 1
        (batch,) = scheduler.batches(0)
        assert len(batch) == 6

    def test_default_batch_size(self):
        assert BatchScheduler(1000).batch_size == DEFAULT_BATCH_SIZE
        assert BatchScheduler(10).batch_size == 10

    def test_step_size_decay(self):
        scheduler = BatchScheduler(10, learning_rate=0.1, decay=0.5)
        assert scheduler.step_size(0) == pytest.approx(0.1)
        assert scheduler.step_size(2) == pytest.approx(0.05)
        flat = BatchScheduler(10, learning_rate=0.1)
        assert flat.step_size(99) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValidationError):
            BatchScheduler(0)
        with pytest.raises(ValidationError):
            BatchScheduler(10, batch_size=0)
        with pytest.raises(ValidationError):
            BatchScheduler(10, learning_rate=0.0)
        with pytest.raises(ValidationError):
            BatchScheduler(10, decay=-0.1)


# -------------------------------------------------- model-level wiring


class TestMethodWiring:
    def test_stochastic_rule_implies_stochastic_method(self):
        model = MaskedNMF(rank=2, update_rule="sgd")
        assert model.fit_method == "stochastic"

    def test_stochastic_method_defaults_to_sgd(self):
        model = MaskedNMF(rank=2, method="stochastic")
        assert model.update_rule == "sgd"

    def test_batch_defaults_to_multiplicative(self):
        model = MaskedNMF(rank=2)
        assert model.fit_method == "batch"
        assert model.update_rule == "multiplicative"

    def test_stochastic_method_rejects_batch_rule(self):
        with pytest.raises(ValidationError, match="stochastic update_rule"):
            MaskedNMF(rank=2, method="stochastic", update_rule="multiplicative")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError, match="unknown method"):
            MaskedNMF(rank=2, method="minibatch")

    def test_kernel_without_schedule_rejected(self):
        x = np.ones((4, 3))
        observed = np.ones((4, 3), dtype=bool)
        with pytest.raises(ValidationError, match="BatchScheduler"):
            build_kernel(x, observed, update_rule="sgd")
        # A hand-driven model step outside fit() has no schedule either.
        with pytest.raises(ValidationError, match="BatchScheduler"):
            MaskedNMF(rank=2, update_rule="sgd")._step(
                x, observed, np.ones((4, 2)), np.ones((2, 3))
            )


# ------------------------------------------------------ degenerate inputs


def _report_is_valid(model, expected_epochs):
    report = model.fit_report_
    assert isinstance(report, FitReport)
    assert report.n_iter == expected_epochs
    assert np.isfinite(model.u_).all() and np.isfinite(model.v_).all()
    estimate = model.impute()
    assert np.isfinite(estimate).all()
    return report


class TestDegenerateInputs:
    def test_batch_size_larger_than_n(self, tiny_trial):
        _, x_missing, mask = tiny_trial
        model = MaskedNMF(
            rank=3, method="stochastic", batch_size=10_000,
            learning_rate=1e-3, max_iter=4, tol=0.0, random_state=0,
        ).fit(x_missing, mask)
        report = _report_is_valid(model, expected_epochs=4)
        # One clamped batch per epoch: every epoch touches all N rows.
        n_rows = np.asarray(x_missing).shape[0]
        assert report.rows_touched == (n_rows,) * 4

    @pytest.mark.parametrize("rule", ["sgd", "svrg"])
    def test_fully_unobserved_rows_in_a_batch(self, rule, rng):
        x = rng.random((20, 6)) + 0.05
        x[3] = np.nan
        x[17] = np.nan  # two whole rows unobserved
        model = MaskedNMF(
            rank=2, update_rule=rule, batch_size=4, shuffle=True,
            learning_rate=1e-3, max_iter=5, tol=0.0, random_state=1,
        ).fit(x)
        report = _report_is_valid(model, expected_epochs=5)
        assert all(np.isfinite(s) for s in report.sampled_objectives)

    def test_zero_budget_returns_initial_factors(self, tiny_trial):
        _, x_missing, mask = tiny_trial
        for model in (
            MaskedNMF(rank=3, max_iter=0, random_state=0),
            SMF(rank=3, n_spatial=2, max_iter=0, random_state=0),
            SMFL(rank=3, n_spatial=2, max_iter=0, random_state=0),
            MaskedNMF(
                rank=3, method="stochastic", max_iter=0,
                learning_rate=1e-3, random_state=0,
            ),
        ):
            model.fit(x_missing, mask)
            report = _report_is_valid(model, expected_epochs=0)
            assert report.objective_history == ()
            assert not report.converged
            assert model.n_iter_ == 0

    def test_zero_budget_engine_level(self):
        class Never:
            name = "never"

            def step(self, state):  # pragma: no cover - must not run
                raise AssertionError("step must not be called with max_iter=0")

            def objective(self, state):
                return 1.0

            def factors(self, state):
                return {}

            def converged(self, state, monitor):
                return False

        outcome = IterativeEngine(max_iter=0, tol=0.0).run(Never(), "initial")
        assert outcome.n_iter == 0
        assert outcome.state == "initial"
        assert outcome.objective_history == ()

    def test_negative_budget_still_rejected(self):
        with pytest.raises(ValidationError):
            MaskedNMF(rank=2, max_iter=-1)


# --------------------------------------------------- stochastic telemetry


class TestStochasticTelemetry:
    @pytest.mark.parametrize("rule", ["sgd", "svrg"])
    def test_per_epoch_fields(self, rule, tiny_trial):
        _, x_missing, mask = tiny_trial
        epochs = 6
        model = SMFL(
            rank=3, n_spatial=2, update_rule=rule, batch_size=16,
            learning_rate=1e-3, max_iter=epochs, tol=0.0, random_state=0,
        ).fit(x_missing, mask)
        report = model.fit_report_
        n_rows = np.asarray(x_missing).shape[0]
        assert len(report.sampled_objectives) == epochs
        assert all(s >= 0 for s in report.sampled_objectives)
        # Sampling without replacement: each epoch touches every row once.
        assert report.rows_touched == (n_rows,) * epochs
        assert report.total_row_updates == epochs * n_rows

    def test_total_row_updates_full_batch_fallback(self, tiny_trial):
        _, x_missing, mask = tiny_trial
        model = MaskedNMF(rank=3, max_iter=7, tol=0.0, random_state=0).fit(
            x_missing, mask
        )
        report = model.fit_report_
        assert report.rows_touched == ()
        assert report.total_row_updates == 7 * np.asarray(x_missing).shape[0]

    def test_workspace_buffer_is_reused(self):
        workspace = StochasticWorkspace(BatchScheduler(8))
        a = workspace.buf("residual", (8, 5))
        b = workspace.buf("residual", (8, 5))
        assert a is b
        # Short batches take row views of the same buffer.
        smaller = workspace.buf("residual", (8, 5))[:3]
        assert smaller.shape == (3, 5) and smaller.base is a
        # Changing the column count must reallocate.
        other = workspace.buf("residual", (8, 7))
        assert other.shape == (8, 7)
