"""Iteration control: the engine's convergence policy.

(Re-exported as :mod:`repro.core.convergence` for backward
compatibility; the implementation lives in the engine layer because
every iterative solver — models and baselines alike — shares it.)

The paper runs the updating rules for up to ``t1 = 500`` iterations and
"stops early if it already converges" (Proposition 1 discussion).
:class:`ConvergenceMonitor` implements that protocol: it records the
objective after every iteration and declares convergence when the
relative objective decrease falls below a tolerance.

Objective *increases* never count as convergence: the multiplicative
rule is monotone (Propositions 5 and 7) so increases cannot happen
there, but the gradient rule can overshoot, and stopping on an
overshoot would freeze the solver at its worst iterate.  Increases are
instead counted in :attr:`ConvergenceMonitor.n_increases` so the
telemetry layer can surface them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from ..exceptions import ConvergenceWarning
from ..validation import check_in_range, check_positive_int

__all__ = ["ConvergenceMonitor", "DEFAULT_MAX_ITER"]

DEFAULT_MAX_ITER = 500
"""The paper's update-rule iteration budget ``t1`` (Section III-B)."""


@dataclass
class ConvergenceMonitor:
    """Tracks an objective sequence and decides when to stop.

    Parameters
    ----------
    max_iter:
        Hard iteration budget (paper default 500).
    tol:
        Relative-decrease threshold: convergence is declared when
        ``0 <= (prev - curr) / max(prev, eps) < tol``.
    warn_on_budget:
        Emit :class:`ConvergenceWarning` if the budget is exhausted
        before the tolerance is met.

    Usage
    -----
    >>> monitor = ConvergenceMonitor(max_iter=10, tol=1e-4)
    >>> while monitor.keep_going():
    ...     objective = 1.0 / (monitor.n_iter + 1)   # one solver step
    ...     monitor.record(objective)
    """

    max_iter: int = DEFAULT_MAX_ITER
    tol: float = 1e-5
    warn_on_budget: bool = False

    history: list[float] = field(default_factory=list, init=False, repr=False)
    converged: bool = field(default=False, init=False)
    n_increases: int = field(default=0, init=False)
    stop_reason: str = field(default="budget", init=False)
    """Why the fit stopped: ``"tol"`` once the tolerance fires,
    ``"solver"`` when a custom :meth:`~repro.engine.Solver.converged`
    verdict stopped the engine's loop (the engine sets it), and
    ``"budget"`` (the default) when no rule fired."""

    def __post_init__(self) -> None:
        # 0 is a legal budget: "run no iterations" must yield a valid
        # (empty) history rather than a ValidationError.
        self.max_iter = check_positive_int(self.max_iter, name="max_iter", minimum=0)
        self.tol = check_in_range(self.tol, name="tol", low=0.0)

    @property
    def n_iter(self) -> int:
        """Iterations recorded so far."""
        return len(self.history)

    def keep_going(self) -> bool:
        """Whether the solver should run another iteration."""
        if self.converged:
            return False
        if self.n_iter >= self.max_iter:
            if self.warn_on_budget:
                warnings.warn(
                    f"iteration budget of {self.max_iter} exhausted without "
                    f"meeting tol={self.tol}",
                    ConvergenceWarning,
                    stacklevel=2,
                )
            return False
        return True

    def record(self, objective: float) -> None:
        """Record one iteration's objective and update the converged flag.

        A decrease below the relative tolerance declares convergence;
        an *increase* never does — it increments :attr:`n_increases`
        and the solver keeps going (the gradient rule can overshoot,
        and the post-overshoot iterate is not a fixed point).

        Counter contract (pinned by the regression tests and relied on
        by the batched engine's convergence-dropout path, which keeps
        one monitor per stacked fit): :attr:`n_increases` is
        **cumulative for the whole fit** — it never resets on a later
        decrease — so a fit reports the same count whether it ran
        looped or inside a batch, whatever order its increases arrived
        in.  A non-finite objective following a finite one counts as an
        increase (the comparison is "not a decrease", so NaN lands in
        the increase branch rather than silently in neither).
        """
        objective = float(objective)
        if self.history:
            prev = self.history[-1]
            decrease = prev - objective
            if not (decrease >= 0.0):
                # Increase or NaN: never convergence, always counted.
                self.n_increases += 1
            else:
                denom = max(abs(prev), 1e-12)
                if decrease / denom < self.tol:
                    self.converged = True
                    self.stop_reason = "tol"
        self.history.append(objective)

    def reset(self) -> None:
        """Clear history for a fresh solve."""
        self.history = []
        self.converged = False
        self.n_increases = 0
        self.stop_reason = "budget"
