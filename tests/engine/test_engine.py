"""Unit tests for the iteration engine, kernels, and telemetry layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FactorizationResult, MaskedNMF
from repro.core.updates import (
    gradient_update_u,
    gradient_update_v,
    multiplicative_update_u,
    multiplicative_update_v,
)
from repro.engine import (
    Callback,
    FitReport,
    IterativeEngine,
    UPDATE_RULES,
    KernelContext,
    Solver,
    Telemetry,
    build_kernel,
)
from repro.exceptions import (
    ConvergenceWarning,
    NumericalDivergenceError,
    ValidationError,
)


class CountingSolver(Solver):
    """Objective 1/n: decreases forever, converges only by tolerance."""

    name = "counting"

    def step(self, state):
        return state + 1

    def objective(self, state):
        return 1.0 / state

    def factors(self, state):
        return {"estimate": np.array([float(state)])}


class Checks(Callback):
    """The iterations whose objective the engine evaluated."""

    def on_fit_start(self, solver, state):
        self.iterations = []

    def on_iteration(self, solver, record):
        if record.objective is not None:
            self.iterations.append(record.iteration)


class StopAtSolver(CountingSolver):
    def __init__(self, stop_at):
        self.stop_at = stop_at

    def converged(self, state, monitor):
        return state >= self.stop_at


class TestIterativeEngine:
    def test_runs_to_budget(self):
        outcome = IterativeEngine(max_iter=7, tol=0.0).run(CountingSolver(), 0)
        assert outcome.n_iter == 7
        assert outcome.state == 7
        assert not outcome.converged
        assert len(outcome.objective_history) == 7

    def test_monitor_tolerance_stops(self):
        # Relative decrease of 1/n drops below 0.2 once n > ~6.
        outcome = IterativeEngine(max_iter=100, tol=0.2).run(CountingSolver(), 0)
        assert outcome.converged
        assert outcome.n_iter < 100

    def test_custom_converged_overrides_monitor(self):
        outcome = IterativeEngine(max_iter=100, tol=0.5).run(StopAtSolver(3), 0)
        assert outcome.converged
        assert outcome.n_iter == 3

    def test_eval_every_skips_objectives(self):
        outcome = IterativeEngine(max_iter=10, tol=0.0, eval_every=3).run(
            CountingSolver(), 0
        )
        # Evaluations at the first two iterations, at 3, 6, 9 and at
        # the final iteration 10.
        assert outcome.objective_history == (1.0, 1 / 2, 1 / 3, 1 / 6, 1 / 9, 1 / 10)

    def test_cadence_falls_to_one_near_the_tolerance(self):
        checks = Checks()
        # 1/n falls by 1/n of its previous value per step: 0.5 at the
        # second check, but the check at 10 averages 0.4/8 over 0.5 =
        # 0.1 per step, under CADENCE_MARGIN * 2e-3, so every later
        # iteration is checked, and the tolerance fires at the iteration
        # an every-iteration fit stops at.
        outcome = IterativeEngine(
            max_iter=1000, tol=2e-3, eval_every=10, callbacks=(checks,)
        ).run(CountingSolver(), 0)
        every = IterativeEngine(max_iter=1000, tol=2e-3).run(CountingSolver(), 0)
        assert every.stop_reason == outcome.stop_reason == "tol"
        assert outcome.n_iter == every.n_iter
        assert checks.iterations == [1, 2, *range(10, every.n_iter + 1)]

    def test_callback_order_and_records(self):
        events = []

        class Recorder(Callback):
            def on_fit_start(self, solver, state):
                events.append("start")

            def on_iteration(self, solver, record):
                events.append(record.iteration)

            def on_fit_end(self, solver, state, monitor):
                events.append("end")

        IterativeEngine(max_iter=3, tol=0.0, callbacks=(Recorder(),)).run(
            CountingSolver(), 0
        )
        assert events == ["start", 1, 2, 3, "end"]

    def test_budget_warning(self):
        with pytest.warns(ConvergenceWarning):
            IterativeEngine(max_iter=2, tol=0.0, warn_on_budget=True).run(
                CountingSolver(), 0
            )

    def test_increases_counted_not_converged(self):
        class ZigZag(Solver):
            def step(self, state):
                return state + 1

            def objective(self, state):
                return float(state % 2)  # 1, 0, 1, 0, ...

        # History 1,0,1,0,1,0: the 0->1 transitions at steps 3 and 5.
        outcome = IterativeEngine(max_iter=6, tol=0.0).run(ZigZag(), 0)
        assert not outcome.converged
        assert outcome.n_increases == 2

    def test_validation(self):
        with pytest.raises(ValidationError):
            IterativeEngine(max_iter=-1)
        with pytest.raises(ValidationError):
            IterativeEngine(tol=-1.0)
        with pytest.raises(ValidationError):
            IterativeEngine(eval_every=0)


def diverging_lake(n_rows=120):
    """Lake rows with one huge cell: the first objective is non-finite."""
    from repro.data import load_dataset

    x = np.array(load_dataset("lake", n_rows=n_rows, random_state=0).values)
    x[5, 4] = 1e300
    return x


class TestDivergenceGuard:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_model_fit_raises_at_the_first_evaluation(self):
        from repro.core import SMFL

        model = SMFL(rank=4, max_iter=50, random_state=0)
        with pytest.raises(NumericalDivergenceError) as info:
            model.fit(diverging_lake())
        message = str(info.value)
        assert "iteration 1 " in message and "'multiplicative'" in message
        assert "member" not in message
        assert "learning_rate" not in message  # no step size to blame
        assert model.fit_report_ is None  # no fitted state was installed

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_emits_fit_diverged_before_raising(self):
        from repro.core import SMFL
        from repro.obs import Recorder, RingBufferSink, use_recorder

        sink = RingBufferSink()
        with use_recorder(Recorder(sink)):
            with pytest.raises(NumericalDivergenceError) as info:
                SMFL(rank=4, max_iter=50, random_state=0).fit(diverging_lake())
        diverged = [r for r in sink.tail() if r["name"] == "fit_error"]
        assert len(diverged) == 1
        record = diverged[0]
        assert record["level"] == "error"
        assert record["attrs"]["error"] == "NumericalDivergenceError"
        assert "iteration 1 " in record["attrs"]["detail"]
        assert record["attrs"]["detail"] == str(info.value)
        assert sink.tail()[-1] is record  # the last event before the raise

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("rule", ["gradient", "sgd", "svrg"])
    def test_step_size_rules_name_the_learning_rate(self, rule):
        from repro.core import SMFL

        model = SMFL(
            rank=4, max_iter=5, random_state=0, update_rule=rule,
            learning_rate=2.5e-4,
        )
        with pytest.raises(NumericalDivergenceError) as info:
            model.fit(diverging_lake())
        assert f"'{rule}' with learning_rate 0.00025" in str(info.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "rule, cited",
        [("sgd", True), ("svrg", True), ("multiplicative", False), ("gradient", False)],
    )
    def test_stochastic_rules_cite_the_step_size_conditions(self, rule, cited):
        from repro.core import SMFL

        model = SMFL(
            rank=4, max_iter=5, random_state=0, update_rule=rule,
            learning_rate=2.5e-4,
        )
        with pytest.raises(NumericalDivergenceError) as info:
            model.fit(diverging_lake())
        message = str(info.value)
        citation = (
            "step-size conditions of Zhao, Haskell and Feng, 'A Unified "
            "Framework for Stochastic Matrix Factorization via Variance "
            "Reduction'"
        )
        assert (citation in message) == cited
        assert ("Zhao" in message) == cited

    def test_generic_solver_is_named_by_its_name(self):
        class Blowup(CountingSolver):
            name = "blowup"

            def objective(self, state):
                return float("inf") if state >= 4 else 1.0 / state

        engine = IterativeEngine(max_iter=10, tol=0.0, eval_every=2)
        with pytest.raises(NumericalDivergenceError, match="iteration 4 .*'blowup'"):
            engine.run(Blowup(), 0)

    def test_unchecked_blowup_is_named_at_the_next_check(self):
        class BlowupBetweenChecks(CountingSolver):
            name = "between"
            update_rule = "multiplicative"

            def objective(self, state):
                return float("nan") if state >= 7 else 1.0 / state

        engine = IterativeEngine(max_iter=50, tol=0.0, eval_every=10)
        with pytest.raises(NumericalDivergenceError) as info:
            engine.run(BlowupBetweenChecks(), 0)
        message = str(info.value)
        assert message.startswith("objective is nan at iteration 10 ")
        assert "'multiplicative'" in message


class TestTelemetry:
    def test_captures_walltimes_and_objectives(self):
        telemetry = Telemetry()
        IterativeEngine(max_iter=5, tol=0.0, callbacks=(telemetry,)).run(
            CountingSolver(), 0
        )
        report = telemetry.report()
        assert report.n_iter == 5
        assert len(report.wall_times) == 5
        assert all(t >= 0 for t in report.wall_times)
        assert report.method == "counting"
        assert report.total_seconds >= report.loop_seconds > 0
        assert report.factor_deltas == {}  # Telemetry measures no deltas

    def test_frozen_block_violation_detected(self):
        class Mutating(CountingSolver):
            def factors(self, state):
                # "v" drifts every step: the frozen check must fail.
                return {"v": np.full((2, 2), float(state))}

        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = True
        telemetry = Telemetry(frozen_mask=mask, frozen_values=np.array([0.0]))
        IterativeEngine(max_iter=2, tol=0.0, callbacks=(telemetry,)).run(Mutating(), 0)
        assert telemetry.report().landmark_block_intact is False

    @pytest.mark.parametrize(
        "frozen_cols, cell",
        [((0, 1), (2, 1)), ((0, 2), (1, 2))],
        ids=["prefix", "non-prefix"],
    )
    @pytest.mark.parametrize("modified", [False, True])
    def test_one_modified_landmark_cell_flips_intact(self, frozen_cols, cell, modified):
        v0 = np.arange(12.0).reshape(3, 4) + 1.0

        class OneCell(CountingSolver):
            def factors(self, state):
                # Only the frozen cell ``cell`` changes, once, at step 3.
                v = v0.copy()
                if modified and state >= 3:
                    v[cell] = np.nextafter(v[cell], np.inf)
                return {"v": v}

        mask = np.zeros(v0.shape, dtype=bool)
        mask[:, list(frozen_cols)] = True
        telemetry = Telemetry(frozen_mask=mask, frozen_values=v0[mask].copy())
        # The prefix mask takes the gather-free view check.
        assert (telemetry._frozen_block is not None) == (frozen_cols == (0, 1))
        IterativeEngine(max_iter=5, tol=0.0, callbacks=(telemetry,)).run(OneCell(), 0)
        assert telemetry.report().landmark_block_intact is (not modified)

    def test_frozen_requires_both_arguments(self):
        with pytest.raises(ValueError):
            Telemetry(frozen_mask=np.zeros((1, 1), dtype=bool))


class TestFitReport:
    def test_factorization_result_is_alias(self):
        assert FactorizationResult is FitReport

    def test_empty_report_final_objective_nan(self):
        assert np.isnan(FitReport().final_objective)
        assert np.isnan(FitReport().seconds_per_iteration)

    def test_is_monotone(self):
        assert FitReport(objective_history=(3.0, 2.0, 2.0)).is_monotone()
        assert not FitReport(objective_history=(3.0, 2.0, 2.5)).is_monotone()

    def test_model_result_returns_report(self, tiny_trial):
        _, x_missing, mask = tiny_trial
        model = MaskedNMF(rank=3, random_state=0, max_iter=25).fit(x_missing, mask)
        report = model.result()
        assert isinstance(report, FitReport)
        assert report.n_iter == model.n_iter_
        assert report.method == "nmf"
        assert len(report.wall_times) == report.n_iter


class TestKernelRegistry:
    """The update-rule names and the per-fit kernel objects built for them."""

    def test_builtin_kernels_registered(self):
        assert "multiplicative" in UPDATE_RULES
        assert "gradient" in UPDATE_RULES

    def test_unknown_kernel(self):
        observed = np.ones((4, 3), dtype=bool)
        with pytest.raises(ValidationError, match="unknown update_rule"):
            build_kernel(np.ones((4, 3)), observed, update_rule="newton")

    def test_unknown_update_rule_on_model(self):
        with pytest.raises(ValidationError, match="update_rule"):
            MaskedNMF(rank=2, update_rule="newton")

    def test_multiplicative_kernel_matches_direct_updates(self, rng):
        x = rng.random((12, 5))
        observed = rng.random((12, 5)) > 0.2
        x_observed = np.where(observed, x, 0.0)
        u0 = rng.random((12, 3)) + 0.1
        v0 = rng.random((3, 5)) + 0.1
        u_ref = multiplicative_update_u(x_observed, observed, u0, v0)
        v_ref = multiplicative_update_v(x_observed, observed, u_ref, v0)
        for path in ("reference", "workspace"):
            kernel = build_kernel(
                x_observed, observed, update_rule="multiplicative", kernel_path=path
            )
            u_k, v_k = kernel.step(x_observed, observed, u0, v0, KernelContext())
            assert np.array_equal(u_k, u_ref)
            assert np.array_equal(v_k, v_ref)

    def test_gradient_kernel_matches_direct_updates(self, rng):
        x = rng.random((12, 5))
        observed = rng.random((12, 5)) > 0.2
        x_observed = np.where(observed, x, 0.0)
        u0 = rng.random((12, 3)) + 0.1
        v0 = rng.random((3, 5)) + 0.1
        ctx = KernelContext(learning_rate=1e-2)
        u_ref = gradient_update_u(x_observed, observed, u0, v0, learning_rate=1e-2)
        v_ref = gradient_update_v(x_observed, observed, u_ref, v0, learning_rate=1e-2)
        for path in ("reference", "workspace"):
            kernel = build_kernel(
                x_observed, observed, update_rule="gradient", kernel_path=path
            )
            u_k, v_k = kernel.step(x_observed, observed, u0, v0, ctx)
            assert np.array_equal(u_k, u_ref)
            assert np.array_equal(v_k, v_ref)
