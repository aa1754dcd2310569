"""MC: nuclear-norm matrix completion via Singular Value Thresholding [10].

Candes-Recht matrix completion finds the minimum-nuclear-norm matrix
agreeing with the observations.  The classic SVT iteration (Cai,
Candes, Shen 2010) solves the Lagrangian form:

    Y_{t+1} = Y_t + delta * R_Omega(X - shrink_tau(Y_t))

where ``shrink_tau`` soft-thresholds the singular values by ``tau``.
"""

from __future__ import annotations

import numpy as np

from ..engine import IterativeEngine, Solver, Telemetry
from ..exceptions import ValidationError
from ..masking.mask import ObservationMask
from ..validation import check_positive_int
from .base import Imputer

__all__ = ["MatrixCompletionImputer", "svd_shrink"]


def svd_shrink(matrix: np.ndarray, tau: float) -> tuple[np.ndarray, int]:
    """Singular-value soft-thresholding ``D_tau``; also returns the rank."""
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    shrunk = np.maximum(s - tau, 0.0)
    rank = int((shrunk > 0).sum())
    return (u[:, :rank] * shrunk[:rank]) @ vt[:rank], rank


class _SVTSolver(Solver):
    """One SVT iteration; state is ``(dual, estimate, residual_ratio)``."""

    name = "mc"

    def __init__(
        self,
        x_observed: np.ndarray,
        observed: np.ndarray,
        *,
        tau: float,
        delta: float,
        tol: float,
        norm_obs: float,
    ) -> None:
        self.x_observed = x_observed
        self.observed = observed
        self.tau = tau
        self.delta = delta
        self.tol = tol
        self.norm_obs = norm_obs

    def step(self, state):
        dual, _, _ = state
        estimate, _ = svd_shrink(dual, self.tau)
        residual = np.where(self.observed, self.x_observed - estimate, 0.0)
        dual = dual + self.delta * residual
        ratio = float(np.linalg.norm(residual)) / self.norm_obs
        return dual, estimate, ratio

    def objective(self, state) -> float:
        return state[2]

    def converged(self, state, monitor) -> bool:
        return state[2] < self.tol

    def factors(self, state):
        return {"estimate": state[1]}


class MatrixCompletionImputer(Imputer):
    """SVT solver for nuclear-norm matrix completion.

    Parameters
    ----------
    tau:
        Singular-value threshold; ``None`` uses the standard heuristic
        ``5 * sqrt(n * m)`` scaled by the data magnitude.
    delta:
        Step size; ``None`` uses ``1.2 * (n * m) / |Omega|``.
    max_iter:
        Iteration budget.
    tol:
        Relative residual tolerance on the observed cells.
    """

    name = "mc"

    def __init__(
        self,
        *,
        tau: float | None = None,
        delta: float | None = None,
        max_iter: int = 300,
        tol: float = 1e-4,
    ) -> None:
        if tau is not None and tau <= 0:
            raise ValidationError("tau must be positive")
        if delta is not None and delta <= 0:
            raise ValidationError("delta must be positive")
        self.tau = tau
        self.delta = delta
        self.max_iter = check_positive_int(max_iter, name="max_iter")
        self.tol = float(tol)

    def _impute_missing(
        self, x_observed: np.ndarray, mask: ObservationMask
    ) -> np.ndarray:
        observed = mask.observed
        n, m = x_observed.shape
        n_obs = max(mask.n_observed, 1)
        scale = float(np.abs(x_observed[observed]).mean()) if observed.any() else 1.0
        tau = self.tau if self.tau is not None else 5.0 * np.sqrt(n * m) * scale / 5.0
        delta = self.delta if self.delta is not None else min(1.2 * n * m / n_obs, 1.9)
        norm_obs = float(np.linalg.norm(x_observed)) or 1.0

        solver = _SVTSolver(
            x_observed, observed, tau=tau, delta=delta, tol=self.tol,
            norm_obs=norm_obs,
        )
        telemetry = Telemetry(method=self.name)
        engine = IterativeEngine(
            max_iter=self.max_iter, tol=0.0, callbacks=(telemetry,)
        )
        dual = delta * x_observed  # kick-started dual variable Y
        outcome = engine.run(solver, (dual, np.zeros_like(x_observed), np.inf))
        self.fit_report_ = telemetry.report()
        return outcome.state[1]
