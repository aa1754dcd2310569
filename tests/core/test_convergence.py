"""Unit tests for the convergence monitor."""

from __future__ import annotations

import warnings

import pytest

from repro.core import ConvergenceMonitor
from repro.exceptions import ConvergenceWarning, ValidationError


class TestConvergenceMonitor:
    def test_runs_until_budget(self):
        monitor = ConvergenceMonitor(max_iter=5, tol=0.0)
        steps = 0
        while monitor.keep_going():
            steps += 1
            monitor.record(1.0 / steps)
        assert steps == 5
        assert not monitor.converged

    def test_declares_convergence_on_small_decrease(self):
        monitor = ConvergenceMonitor(max_iter=100, tol=1e-3)
        monitor.record(1.0)
        monitor.record(0.9999)  # relative decrease 1e-4 < tol
        assert monitor.converged
        assert not monitor.keep_going()

    def test_increase_never_converges(self):
        # The gradient rule can overshoot; stopping on an increase would
        # freeze the solver at its worst iterate.  Increases are counted
        # instead and surfaced to the telemetry layer.
        monitor = ConvergenceMonitor(max_iter=10, tol=1e-6)
        monitor.record(1.0)
        monitor.record(1.5)
        assert not monitor.converged
        assert monitor.n_increases == 1
        assert monitor.keep_going()

    def test_increase_count_resets(self):
        monitor = ConvergenceMonitor(max_iter=10, tol=1e-6)
        monitor.record(1.0)
        monitor.record(1.5)
        monitor.record(1.2)
        monitor.record(1.3)
        assert monitor.n_increases == 2
        monitor.reset()
        assert monitor.n_increases == 0

    def test_recovery_after_increase_still_converges(self):
        # A later genuine small decrease must still stop the solver.
        monitor = ConvergenceMonitor(max_iter=10, tol=1e-3)
        monitor.record(1.0)
        monitor.record(1.5)
        monitor.record(0.8)
        monitor.record(0.7999999)
        assert monitor.converged

    def test_keeps_going_on_large_decrease(self):
        monitor = ConvergenceMonitor(max_iter=10, tol=1e-3)
        monitor.record(1.0)
        monitor.record(0.5)
        assert not monitor.converged
        assert monitor.keep_going()

    def test_history_recorded(self):
        monitor = ConvergenceMonitor(max_iter=10, tol=0.0)
        for value in (3.0, 2.0, 1.0):
            monitor.record(value)
        assert monitor.history == [3.0, 2.0, 1.0]
        assert monitor.n_iter == 3

    def test_reset(self):
        monitor = ConvergenceMonitor(max_iter=10, tol=1.0)
        monitor.record(1.0)
        monitor.record(0.99)
        assert monitor.converged
        monitor.reset()
        assert not monitor.converged
        assert monitor.history == []

    def test_budget_warning(self):
        monitor = ConvergenceMonitor(max_iter=1, tol=0.0, warn_on_budget=True)
        monitor.record(1.0)
        with pytest.warns(ConvergenceWarning):
            assert not monitor.keep_going()

    def test_no_warning_by_default(self):
        monitor = ConvergenceMonitor(max_iter=1, tol=0.0)
        monitor.record(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not monitor.keep_going()

    def test_validation(self):
        with pytest.raises(ValidationError):
            ConvergenceMonitor(max_iter=-1)
        with pytest.raises(ValidationError):
            ConvergenceMonitor(tol=-1.0)

    def test_zero_budget_is_legal(self):
        # A zero iteration budget means "run nothing", not an error;
        # the engine returns the initial state with an empty history.
        monitor = ConvergenceMonitor(max_iter=0)
        assert not monitor.keep_going()
        assert monitor.history == []

    def test_zero_tol_requires_strict_increase_to_stop(self):
        monitor = ConvergenceMonitor(max_iter=10, tol=0.0)
        monitor.record(1.0)
        monitor.record(0.999999)
        assert not monitor.converged

    def test_increase_counter_is_cumulative_for_the_whole_fit(self):
        # Regression: the counter must never reset on a later decrease.
        # The batched engine keeps one monitor per stacked fit and
        # relies on the count matching the looped fit whatever order
        # the increases arrived in.
        monitor = ConvergenceMonitor(max_iter=20, tol=0.0)
        for value in (1.0, 1.5, 0.8, 1.2, 0.6, 0.5, 0.9):
            monitor.record(value)
        assert monitor.n_increases == 3
        assert not monitor.converged

    def test_nan_objective_counts_as_increase_never_convergence(self):
        # "not a decrease" routes NaN into the increase branch: a
        # diverging gradient fit must keep its increase tally rather
        # than silently dropping non-finite evaluations.
        monitor = ConvergenceMonitor(max_iter=10, tol=1e-3)
        monitor.record(1.0)
        monitor.record(float("nan"))
        assert not monitor.converged
        assert monitor.n_increases == 1

    def test_increase_counting_identical_under_batched_dropout(self):
        # Two monitors fed the same objective sequence agree exactly -
        # the per-fit contract the batched dropout path depends on.
        values = [5.0, 4.0, 4.5, 3.0, 3.5, 2.0]
        solo = ConvergenceMonitor(max_iter=10, tol=0.0)
        stacked = ConvergenceMonitor(max_iter=10, tol=0.0)
        for value in values:
            solo.record(value)
            stacked.record(value)
        assert solo.n_increases == stacked.n_increases == 2
        assert solo.history == stacked.history


class TestCheckCadence:
    def test_tol_bounds_the_per_iteration_mean_decrease(self):
        # A 10-iteration gap that lost 5e-4 of the objective averages
        # 5e-5 per iteration: under tol=1e-4 it converges, though the
        # whole-gap decrease is five times tol.
        coarse = ConvergenceMonitor(max_iter=100, tol=1e-4)
        coarse.record(1.0)
        coarse.record(1.0 - 5e-4, 10)
        assert coarse.converged and coarse.stop_reason == "tol"
        # The same mean over a gap of 1 is a plain relative decrease.
        fine = ConvergenceMonitor(max_iter=100, tol=1e-4)
        fine.record(1.0)
        fine.record(1.0 - 5e-4)
        assert not fine.converged

    def test_gap_of_one_is_the_plain_rule(self):
        values = [4.0, 3.0, 2.9, 2.89, 2.889, 2.8889]
        for tol in (1e-2, 1e-3, 1e-4):
            plain = ConvergenceMonitor(max_iter=10, tol=tol)
            gapped = ConvergenceMonitor(max_iter=10, tol=tol)
            for value in values:
                plain.record(value)
                gapped.record(value, 1)
                assert plain.converged == gapped.converged
                assert plain.near_tol == gapped.near_tol

    def test_increases_count_between_checks(self):
        monitor = ConvergenceMonitor(max_iter=100, tol=0.0)
        for value, gap in ((5.0, 1), (4.0, 9), (4.5, 10), (3.0, 10)):
            monitor.record(value, gap)
        assert monitor.n_increases == 1
        assert not monitor.converged

    def test_due_checks_the_first_two_every_kth_and_the_last(self):
        monitor = ConvergenceMonitor(max_iter=25, tol=1e-6)
        due = [step for step in range(1, 26) if monitor.due(step, 10)]
        assert due == [1, 2, 10, 20, 25]
        assert all(monitor.due(step, 1) for step in range(1, 26))

    def test_near_tol_makes_every_iteration_due(self):
        monitor = ConvergenceMonitor(max_iter=100, tol=1e-6)
        monitor.record(1.0)
        monitor.record(0.98, 10)  # 2e-3 per iteration: far from tol
        assert not monitor.near_tol and not monitor.due(11, 10)
        monitor.record(0.98 * (1 - 5e-4), 10)  # 5e-5 < CADENCE_MARGIN * tol
        assert monitor.near_tol and not monitor.converged
        assert monitor.due(21, 10)
        monitor.reset()
        assert not monitor.near_tol
