"""Iteration control: the engine's convergence policy.

(Re-exported as :mod:`repro.core.convergence` for backward
compatibility; the implementation lives in the engine layer because
every iterative solver — models and baselines alike — shares it.)

The paper runs the updating rules for up to ``t1 = 500`` iterations and
"stops early if it already converges" (Proposition 1 discussion).
:class:`ConvergenceMonitor` implements that protocol: it records the
objective at each *checked* iteration and declares convergence when the
per-iteration mean relative decrease since the previous check falls
below a tolerance.  Which iterations are checked is one rule,
:meth:`ConvergenceMonitor.due`, shared by the single-fit and stacked
loops: the first two, every ``eval_every``-th and the last, and every
iteration once a check has come within :data:`CADENCE_MARGIN` of the
tolerance.  A sub-sequence of a monotone sequence is monotone, so a
history checked every ``k`` iterations still certifies Propositions 5/7
at the checked points.

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

__all__ = [
    "CADENCE_MARGIN",
    "ConvergenceMonitor",
    "DEFAULT_EVAL_EVERY",
    "DEFAULT_MAX_ITER",
]

DEFAULT_MAX_ITER = 500
"""The paper's update-rule iteration budget ``t1`` (Section III-B)."""

DEFAULT_EVAL_EVERY = 10
"""Convergence-check cadence of the multiplicative factor fits.

The multiplicative rule is monotone (Propositions 5/7), so its
objective only feeds the stop check.  An evaluation shares its masked
``U·V`` gemm and graph products with the next U-step (the memos of
:class:`~repro.engine.workspace.KernelWorkspace`), but still costs the
residual and penalty reductions, the ``evaluate`` span and the
monitor's bookkeeping.  The gradient and stochastic rules can
overshoot and keep a cadence of 1.  Factors do not depend on the
cadence: an unchecked iteration's U-step computes the ``R_O(UV)``,
``D·U`` and ``W·U`` the objective would have memoized, with the same
bits.

Loop time at cadence ``k`` over loop time at ``k = 1``, two sweeps
with the ``k`` values interleaved (one BLAS thread on a shared 2-vCPU
Xeon VM, medians; outputs bit-identical at every ``k``).  ``fit_cold``: ``SMFL(rank=6,
n_spatial=2)`` on 2,500 vehicle rows, 30% missing, 30 fits per ``k``.
``grid_table7``: the nine five-member stacks of Table VII at 30%
missing (NMF/SMF/SMFL x economic/farm/lake), 5 and 10 rounds.

====  =============  ==================
k     fit_cold       grid_table7 stacks
====  =============  ==================
1     1.00 / 1.00    1.00 / 1.00
2     0.89 / 0.90    0.84 / 1.05
5     0.85 / 0.77    0.77 / 0.92
10    0.78 / 0.77    0.78 / 0.85
20    0.81 / 0.77    0.72 / 0.81
50    0.77 / 0.79    0.75 / 0.81
====  =============  ==================

At ``k = 10`` nine evaluations in ten are gone; what coarser cadences
add is within the host's run-to-run spread, and :data:`CADENCE_MARGIN`
was measured at ``k = 10``: a wider gap gives a dip below ``tol`` more
room to hide.
"""


CADENCE_MARGIN = 100.0
"""A check whose per-iteration mean relative decrease is below
``CADENCE_MARGIN * tol`` makes every later iteration a check.

From then on the tolerance fires where a fit checked at every
iteration stops, with the same factors.  Before then no single step
is checked, so the stop iteration can still move if one step's
relative decrease falls below ``tol`` inside a gap whose mean is above
``CADENCE_MARGIN * tol``.  Replaying the every-iteration histories of
540 small NMF/SMF/SMFL fits (24-120 rows, rank 2-5, 10-50% missing,
500 iterations) at eight tolerances from 1e-2 to 1e-6 under cadence 10,
5 of the 4,320 stops moved at a margin of 100 (all before iteration
21, at ``tol = 3e-4``), 54 at 30 and 203 at 10.  At the default
``tol = 1e-6`` the margin is 1e-4 per iteration; no ``grid_table7`` or
``fit_cold`` fit gets there in 500 iterations (their rates end at
2.7e-4 or more), so those fits keep the sparse cadence throughout."""


@dataclass
class ConvergenceMonitor:
    """Tracks an objective sequence and decides when to stop.

    Parameters
    ----------
    max_iter:
        Hard iteration budget (paper default 500).
    tol:
        Relative-decrease threshold: convergence is declared when
        ``0 <= (prev - curr) / gap / max(prev, eps) < tol``, ``gap``
        being the iterations between the two checks, so ``tol`` bounds
        the per-iteration decrease at any check cadence.
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
    near_tol: bool = field(default=False, init=False)
    """Set once a check came within :data:`CADENCE_MARGIN` of ``tol``;
    :meth:`due` then checks every iteration."""
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
        """Objective values recorded so far (one per :meth:`record`)."""
        return len(self.history)

    def due(self, step: int, every: int) -> bool:
        """Whether the loop checks the objective after iteration ``step``.

        The first two iterations (so a fit that diverges at once is
        named there, and the first relative decrease is known), every
        ``every``-th and the last are checked, and every iteration once
        :attr:`near_tol` is set.  With ``every == 1`` every iteration
        is.
        """
        if self.near_tol:
            every = 1
        return step <= 2 or step % every == 0 or step == self.max_iter

    def keep_going(self) -> bool:
        """Whether the solver should run another iteration.

        It counts records against ``max_iter``, so it serves a loop
        that records every iteration; the engine's loops count their
        own iterations and ask :meth:`due`.
        """
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

    def record(self, objective: float, gap: int = 1) -> None:
        """Record one checked objective and update the converged flag.

        ``gap`` is the number of iterations since the previous check.
        The decrease is averaged over it before the tolerance test, so
        a check every ``k`` iterations stops where the per-iteration
        mean decrease, not the ``k``-iteration one, falls below
        ``tol``; with ``gap == 1`` the test is the plain relative
        decrease, bit for bit.

        A mean decrease below the relative tolerance declares convergence;
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
        the increase branch rather than silently in neither).  Under a
        cadence it counts rises between consecutive checked values.
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
                if gap != 1:
                    decrease = decrease / gap
                rate = decrease / denom
                if rate < self.tol:
                    self.converged = True
                    self.stop_reason = "tol"
                if rate < CADENCE_MARGIN * self.tol:
                    self.near_tol = True
        self.history.append(objective)

    def reset(self) -> None:
        """Clear history for a fresh solve."""
        self.history = []
        self.converged = False
        self.near_tol = False
        self.n_increases = 0
        self.stop_reason = "budget"
