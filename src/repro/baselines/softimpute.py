"""SoftImpute [35]: iterative soft-thresholded SVD.

Mazumder-Hastie-Tibshirani spectral regularisation: repeat

    Z <- shrink_lambda( R_Omega(X) + R_Psi(Z) )

i.e. fill the missing cells with the current estimate, take an SVD,
soft-threshold the singular values, and iterate to a fixed point.  A
warm-started shrinkage path (decreasing lambda) improves the solution
quality, matching the reference implementation's behaviour.
"""

from __future__ import annotations

import time

import numpy as np

from ..engine import IterativeEngine, Solver, Telemetry
from ..exceptions import ValidationError
from ..masking.mask import ObservationMask
from ..validation import check_positive_int
from .base import Imputer
from .mc import svd_shrink

__all__ = ["SoftImputeImputer"]


class _SoftImputeSolver(Solver):
    """One soft-thresholded-SVD fixed-point step; state is the estimate.

    The warm-started shrinkage path lives in the solver: when the inner
    fixed point converges (or its budget runs out) the solver advances
    to the next lambda; the engine-visible stopping rule fires only
    once the final lambda's fixed point is reached.
    """

    name = "softimpute"

    def __init__(
        self,
        x_observed: np.ndarray,
        observed: np.ndarray,
        *,
        lams: np.ndarray,
        max_inner: int,
        tol: float,
    ) -> None:
        self.x_observed = x_observed
        self.observed = observed
        self.lams = lams
        self.max_inner = max_inner
        self.tol = tol
        self.lam_index = 0
        self.inner_iter = 0
        self.rel_change = float("inf")
        self.done = False

    def step(self, estimate: np.ndarray) -> np.ndarray:
        lam = self.lams[self.lam_index]
        filled = np.where(self.observed, self.x_observed, estimate)
        new_estimate, _ = svd_shrink(filled, lam)
        change = float(np.linalg.norm(new_estimate - estimate))
        scale = float(np.linalg.norm(estimate)) or 1.0
        self.rel_change = change / scale
        self.inner_iter += 1
        if self.rel_change < self.tol or self.inner_iter >= self.max_inner:
            if self.lam_index + 1 < len(self.lams):
                self.lam_index += 1
                self.inner_iter = 0
            else:
                self.done = True
        return new_estimate

    def objective(self, state) -> float:
        return self.rel_change

    def converged(self, state, monitor) -> bool:
        return self.done

    def factors(self, state):
        return {"estimate": state}


class SoftImputeImputer(Imputer):
    """Soft-thresholded SVD iterations with a shrinkage path.

    Parameters
    ----------
    shrinkage:
        Final soft-threshold lambda; ``None`` picks
        ``max_singular_value / 50``.
    n_path:
        Number of warm-start lambdas (log-spaced down to ``shrinkage``).
    max_iter:
        Inner fixed-point iterations per lambda.
    tol:
        Relative-change stopping tolerance of the inner loop.
    """

    name = "softimpute"

    def __init__(
        self,
        *,
        shrinkage: float | None = None,
        n_path: int = 5,
        max_iter: int = 100,
        tol: float = 1e-5,
    ) -> None:
        if shrinkage is not None and shrinkage <= 0:
            raise ValidationError("shrinkage must be positive")
        self.shrinkage = shrinkage
        self.n_path = check_positive_int(n_path, name="n_path")
        self.max_iter = check_positive_int(max_iter, name="max_iter")
        self.tol = float(tol)

    def _impute_missing(
        self, x_observed: np.ndarray, mask: ObservationMask
    ) -> np.ndarray:
        observed = mask.observed
        t_setup = time.perf_counter()
        top_singular = float(np.linalg.svd(x_observed, compute_uv=False)[0]) or 1.0
        final_lam = self.shrinkage if self.shrinkage is not None else top_singular / 50.0
        lams = np.geomspace(top_singular * 0.5, final_lam, num=self.n_path)
        solver = _SoftImputeSolver(
            x_observed, observed, lams=lams, max_inner=self.max_iter, tol=self.tol
        )
        telemetry = Telemetry(method=self.name)
        telemetry.setup_seconds = time.perf_counter() - t_setup
        engine = IterativeEngine(
            max_iter=self.n_path * self.max_iter, tol=0.0, callbacks=(telemetry,)
        )
        outcome = engine.run(solver, np.zeros_like(x_observed))
        self.fit_report_ = telemetry.report()
        return outcome.state
