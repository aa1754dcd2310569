"""IterativeImputer [4]: MICE-style round-robin regression.

Re-implementation of scikit-learn's ``IterativeImputer`` (which the
paper calls "Iterative"): initialise with column means, then repeatedly
regress each incomplete column on all other columns (ridge) using the
rows where the target is observed, and refresh the missing cells with
the predictions, until the fillings stabilise.
"""

from __future__ import annotations

import numpy as np

from ..engine import IterativeEngine, Solver, Telemetry
from ..exceptions import ValidationError
from ..masking.mask import ObservationMask
from ..validation import check_positive_int
from .base import Imputer, column_mean_fill
from .linear import fit_weighted_ridge

__all__ = ["IterativeImputer"]


class _MICESolver(Solver):
    """One round-robin pass over the incomplete columns; state is the
    current estimate matrix."""

    name = "iterative"

    def __init__(
        self,
        x_observed: np.ndarray,
        observed: np.ndarray,
        *,
        alpha: float,
        tol: float,
    ) -> None:
        self.x_observed = x_observed
        self.observed = observed
        self.alpha = alpha
        self.tol = tol
        m = x_observed.shape[1]
        self.incomplete_columns = [
            j for j in range(m) if not observed[:, j].all()
        ]
        self.rel_change = float("inf")

    def step(self, estimate: np.ndarray) -> np.ndarray:
        estimate = estimate.copy()
        previous = estimate.copy()
        m = estimate.shape[1]
        for j in self.incomplete_columns:
            target_obs = self.observed[:, j]
            if not target_obs.any():
                continue
            others = [c for c in range(m) if c != j]
            features = estimate[:, others]
            coef, intercept = fit_weighted_ridge(
                features[target_obs],
                self.x_observed[target_obs, j],
                alpha=self.alpha,
            )
            estimate[~target_obs, j] = features[~target_obs] @ coef + intercept
        change = float(np.linalg.norm(estimate - previous))
        scale = float(np.linalg.norm(previous)) or 1.0
        self.rel_change = change / scale
        return estimate

    def objective(self, state) -> float:
        return self.rel_change

    def converged(self, state, monitor) -> bool:
        return self.rel_change < self.tol

    def factors(self, state):
        return {"estimate": state}


class IterativeImputer(Imputer):
    """Round-robin ridge-regression imputer (MICE).

    Parameters
    ----------
    max_rounds:
        Maximum passes over the incomplete columns.
    alpha:
        Ridge regularisation of each column model.
    tol:
        Relative-change stopping tolerance between rounds.
    """

    name = "iterative"

    def __init__(
        self, *, max_rounds: int = 10, alpha: float = 1e-3, tol: float = 1e-4
    ) -> None:
        self.max_rounds = check_positive_int(max_rounds, name="max_rounds")
        if alpha < 0:
            raise ValidationError("alpha must be non-negative")
        self.alpha = float(alpha)
        self.tol = float(tol)

    def _impute_missing(
        self, x_observed: np.ndarray, mask: ObservationMask
    ) -> np.ndarray:
        observed = mask.observed
        estimate = column_mean_fill(x_observed, observed)
        solver = _MICESolver(x_observed, observed, alpha=self.alpha, tol=self.tol)
        telemetry = Telemetry(method=self.name)
        engine = IterativeEngine(
            max_iter=self.max_rounds, tol=0.0, callbacks=(telemetry,)
        )
        outcome = engine.run(solver, estimate)
        self.fit_report_ = telemetry.report()
        return outcome.state
