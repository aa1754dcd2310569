"""The iteration engine: one loop for every iterative solver in the repo.

:class:`IterativeEngine` owns the concerns every solver used to
reimplement privately — the iteration budget, objective evaluation
cadence, early stopping (relative-decrease by default, solver-specific
rules via :meth:`Solver.converged`), budget warnings, and callback
dispatch.  Solvers shrink to a :meth:`step`/:meth:`objective` pair;
telemetry and convergence policy become first-class and uniform.

It drives the baselines (MC, SoftImpute, MICE, GAIN) and the factor
fits the stacked loop does not run: ``kernel_path="reference"`` (the
bit-exact oracle), ``"sparse"``, the stochastic rules and customised
steps.  Every other NMF/SMF/SMFL fit runs
:func:`repro.engine.batched.multi_fit`, which keeps the same
observation names and divergence rule.

The loop is observed: the engine runs the whole iteration under
``observe("fit")`` (``fit_start`` / ``fit_done`` / ``fit_error`` events
plus a ``fit`` span), with an ``iteration`` span per solver step and an
``evaluate`` span per objective evaluation (see :mod:`repro.obs`).
The iteration span's duration *is* the ``seconds`` field of the
:class:`~repro.engine.callbacks.IterationRecord` handed to callbacks -
one clock feeds both the trace and :class:`Telemetry`, and with tracing
disabled the null span costs the same two ``perf_counter`` calls the
old stopwatch did.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Any, Iterable

from ..exceptions import ConvergenceWarning, NumericalDivergenceError
from ..obs.stream import get_recorder
from ..validation import check_in_range, check_positive_int
from .callbacks import Callback, IterationRecord
from .monitor import DEFAULT_MAX_ITER, ConvergenceMonitor
from .solver import Solver

__all__ = ["EngineOutcome", "IterativeEngine"]


@dataclass(frozen=True)
class EngineOutcome:
    """What :meth:`IterativeEngine.run` returns."""

    state: Any
    n_iter: int
    converged: bool
    objective_history: tuple[float, ...]
    n_increases: int
    stop_reason: str
    """``"tol"``, ``"solver"`` (a custom :meth:`Solver.converged`) or
    ``"budget"``."""


class IterativeEngine:
    """Drives a :class:`Solver` to convergence or budget exhaustion.

    Parameters
    ----------
    max_iter:
        Hard iteration budget (the paper's ``t1``).
    tol:
        Relative-decrease tolerance of the default stopping rule.
    eval_every:
        Evaluate the objective every this many iterations; the first
        two and the final iteration are always evaluated, and every
        iteration once the fit nears ``tol``
        (:meth:`~repro.engine.monitor.ConvergenceMonitor.due`).  A
        blow-up between checks is named at the next check.
    callbacks:
        :class:`Callback` instances notified at fit start, after every
        iteration, and at fit end.
    warn_on_budget:
        Emit :class:`ConvergenceWarning` when the budget runs out
        before the stopping rule fires.
    """

    def __init__(
        self,
        *,
        max_iter: int = DEFAULT_MAX_ITER,
        tol: float = 1e-6,
        eval_every: int = 1,
        callbacks: Iterable[Callback] = (),
        warn_on_budget: bool = False,
    ) -> None:
        # A zero budget is legal: the loop body never runs and the
        # outcome carries the initial state with an empty history.
        self.max_iter = check_positive_int(max_iter, name="max_iter", minimum=0)
        self.tol = check_in_range(tol, name="tol", low=0.0)
        self.eval_every = check_positive_int(eval_every, name="eval_every")
        self.callbacks: tuple[Callback, ...] = tuple(callbacks)
        self.warn_on_budget = bool(warn_on_budget)

    def run(self, solver: Solver, state: Any) -> EngineOutcome:
        """Iterate ``solver`` from ``state`` until the stopping rule fires.

        The default rule is the monitor's relative objective decrease;
        a solver returning a bool from :meth:`Solver.converged` takes
        full control of stopping (residual thresholds, shrinkage paths,
        fixed-epoch training).  The first non-finite evaluated objective
        raises :class:`~repro.exceptions.NumericalDivergenceError` naming the
        iteration, the solver's ``update_rule`` (its ``name`` when it
        has none) and its ``learning_rate``, if it has one; the ``fit``
        observation records it as a ``fit_error`` event.
        """
        monitor = ConvergenceMonitor(max_iter=self.max_iter, tol=self.tol)
        recorder = get_recorder()
        solver_name = getattr(solver, "name", "solver")
        update_rule = getattr(solver, "update_rule", solver_name)
        learning_rate = getattr(solver, "learning_rate", None)
        steps = 0
        checked = 0
        converged = False
        solver_rule = False
        with recorder.observe(
            "fit", solver=solver_name, max_iter=self.max_iter,
            eval_every=self.eval_every,
        ) as fit_span:
            for callback in self.callbacks:
                callback.on_fit_start(solver, state)
            while steps < self.max_iter and not converged:
                # One clock: the iteration span both appears in the trace
                # and supplies the seconds Telemetry records - the engine
                # never times a step twice.
                with recorder.span("iteration", index=steps + 1) as step_span:
                    state = solver.step(state)
                steps += 1
                objective: float | None = None
                if monitor.due(steps, self.eval_every):
                    with recorder.span("evaluate", index=steps) as eval_span:
                        objective = float(solver.objective(state))
                        eval_span.set_attr("objective", objective)
                        if not math.isfinite(objective):
                            raise NumericalDivergenceError.at(
                                iteration=steps,
                                update_rule=update_rule,
                                objective=objective,
                                learning_rate=learning_rate,
                            )
                        monitor.record(objective, steps - checked)
                        checked = steps
                        custom = solver.converged(state, monitor)
                        solver_rule = custom is not None
                        converged = (
                            monitor.converged if custom is None else bool(custom)
                        )
                record = IterationRecord(
                    iteration=steps,
                    objective=objective,
                    seconds=step_span.duration,
                    state=state,
                )
                for callback in self.callbacks:
                    callback.on_iteration(solver, record)

            # Solvers with a custom rule override the monitor's verdict so
            # downstream consumers (reports, warnings) see one truth.
            monitor.converged = converged
            if not converged:
                monitor.stop_reason = "budget"
            elif solver_rule:
                monitor.stop_reason = "solver"
            fit_span.set_attr("n_iter", steps)
            fit_span.set_attr("converged", converged)
            fit_span.set_attr("n_increases", monitor.n_increases)
            fit_span.set_attr("stop_reason", monitor.stop_reason)
        if not converged and self.warn_on_budget:
            warnings.warn(
                f"iteration budget of {self.max_iter} exhausted without "
                f"convergence (tol={self.tol})",
                ConvergenceWarning,
                stacklevel=2,
            )
        for callback in self.callbacks:
            callback.on_fit_end(solver, state, monitor)
        return EngineOutcome(
            state=state,
            n_iter=steps,
            converged=converged,
            objective_history=tuple(monitor.history),
            n_increases=monitor.n_increases,
            stop_reason=monitor.stop_reason,
        )
