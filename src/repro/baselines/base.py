"""The imputer protocol shared by baselines and the paper's methods.

An imputer consumes ``(x, mask)`` - the zero-filled data matrix and the
:class:`~repro.masking.ObservationMask` marking observed cells - and
returns a complete matrix that agrees with ``x`` on observed cells.
:class:`Imputer` centralises the input validation and the
observed-cells-pass-through guarantee so concrete methods only
implement ``_impute_missing``.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import NotFittedError, ValidationError
from ..masking.mask import ObservationMask
from ..model.fitted import FittedModel, coerce_observations
from ..obs.stream import traced
from ..validation import as_matrix

__all__ = ["Imputer", "column_mean_fill"]


def column_mean_fill(x: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Fill unobserved cells with their column's observed mean.

    Columns without any observed entry fall back to the global observed
    mean (and to 0 if nothing is observed at all).  Used both as the
    ``mean`` baseline and as the starting point of several iterative
    methods.
    """
    x = np.asarray(x, dtype=np.float64)
    masked = np.where(observed, x, 0.0)
    col_sums = masked.sum(axis=0)
    col_counts = observed.sum(axis=0)
    total_cnt = int(col_counts.sum())
    global_mean = float(col_sums.sum()) / total_cnt if total_cnt else 0.0
    fills = np.where(
        col_counts > 0, col_sums / np.maximum(col_counts, 1), global_mean
    )
    return np.where(observed, x, fills[None, :])


class Imputer:
    """Abstract imputer: subclass and implement ``_impute_missing``.

    The public entry point :meth:`fit_impute` validates inputs,
    delegates, and re-asserts the Formula 8 contract: observed cells are
    returned verbatim, only Psi cells come from the model.
    """

    #: Short lower-case identifier used by the experiment harness.
    name: str = "imputer"

    #: Engine telemetry of the last fit (:class:`repro.engine.FitReport`)
    #: for iterative methods; stays ``None`` for one-shot imputers.
    fit_report_ = None

    #: Extracted fitted state of the last :meth:`fit_impute`
    #: (:class:`repro.model.FittedModel`, estimate flavour) - the
    #: persistable artifact seam shared with the MF solvers.
    fitted_model_: FittedModel | None = None

    @traced("fit_impute")
    def fit_impute(self, x: np.ndarray, mask: object = None) -> np.ndarray:
        """Impute ``x``; NaN cells are unobserved when ``mask`` is omitted."""
        x, observation = self._coerce(x, mask)
        if observation.n_unobserved == 0:
            self.fitted_model_ = FittedModel.from_estimate(
                method=self.name,
                estimate=x,
                x_observed=x,
                observed=observation.observed,
            )
            return x
        estimate = self._impute_missing(observation.project(x), observation)
        estimate = as_matrix(estimate, name=f"{self.name} output")
        if estimate.shape != x.shape:
            raise ValidationError(
                f"{self.name} returned shape {estimate.shape}, expected {x.shape}"
            )
        self.fitted_model_ = FittedModel.from_estimate(
            method=self.name,
            estimate=estimate,
            x_observed=observation.project(x),
            observed=observation.observed,
        )
        return observation.merge(x, estimate)

    def fitted_model(self) -> FittedModel:
        """The extracted fitted state of the last :meth:`fit_impute`."""
        if self.fitted_model_ is None:
            raise NotFittedError(
                f"{type(self).__name__}.fitted_model called before fit_impute"
            )
        return self.fitted_model_

    def _impute_missing(
        self, x_observed: np.ndarray, mask: ObservationMask
    ) -> np.ndarray:
        """Produce a full estimate matrix; only its Psi cells are used."""
        raise NotImplementedError

    @staticmethod
    def _coerce(x: np.ndarray, mask: object) -> tuple[np.ndarray, ObservationMask]:
        # Same input seam as the MF solvers (repro.model).
        return coerce_observations(x, mask)
