"""The fitted-state layer: :class:`FittedModel`.

A solver object (``MaskedNMF``/``SMF``/``SMFL``, or a baseline
``Imputer``) mixes two concerns: *how to fit* (hyper-parameters, update
kernels, workspaces) and *what was fitted* (factors, landmark block,
mask statistics).  :class:`FittedModel` extracts the second concern
into a frozen, self-contained value object so that

- ``impute`` becomes a **pure function of model + data** (no hidden
  solver state; :meth:`FittedModel.impute` and the module-level
  :func:`impute_matrix` produce bit-identical output to the legacy
  in-place ``model.impute()``);
- fitted state can be **persisted** as a versioned artifact
  (:mod:`repro.model.artifact`) and reloaded in a process that never
  imports a solver;
- new, partially observed rows can be **folded in** against the frozen
  feature matrix ``V`` in ``O(M K^2)`` per request without a refit
  (:mod:`repro.serving`) - the serving story the frozen landmark block
  of SMFL makes uniquely cheap.

Two flavours exist, mirroring the two solver families:

- **factor models** carry ``u`` (``N x K``) and ``v`` (``K x M``) plus
  the landmark metadata (frozen column indices and values) - the NMF
  family; these support reconstruction, imputation, and fold-in;
- **estimate models** carry a dense ``estimate`` matrix - the
  SVT/SoftImpute-style baselines, whose ``fit_impute`` seam attaches
  one; these support imputation only.

Mask statistics (per-column observed minima/maxima, observed fraction)
and optional scaler metadata travel with the model, so the
clip-to-observed-range safeguard applies identically at serving time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Any

import numpy as np

from ..exceptions import NotFittedError, ValidationError
from ..masking.mask import ObservationMask
from ..validation import as_matrix
from ..versioning import NUMERICS_VERSION, __version__

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data.preprocessing import MinMaxScaler
    from ..serving.cover import PriorCover

__all__ = [
    "FittedModel",
    "coerce_observations",
    "impute_matrix",
    "observed_column_bounds",
]


def observed_column_bounds(
    x: np.ndarray, observed: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column ``[min, max]`` of the observed entries of ``x``.

    Columns without observed entries get ``(-inf, +inf)`` - clipping
    against them is a no-op, exactly the legacy
    ``clip_columns_to_observed`` behaviour.
    """
    has_observed = observed.any(axis=0)
    lows = np.where(observed, x, np.inf).min(axis=0)
    highs = np.where(observed, x, -np.inf).max(axis=0)
    lows = np.where(has_observed, lows, -np.inf)
    highs = np.where(has_observed, highs, np.inf)
    return lows, highs


def _readonly(array: np.ndarray | None) -> np.ndarray | None:
    if array is None:
        return None
    array = np.array(array, dtype=np.float64, copy=True)
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class FittedModel:
    """Immutable fitted state: everything serving needs, nothing more.

    Parameters
    ----------
    method:
        Short method identifier (``"nmf"``/``"smf"``/``"smfl"``/a
        baseline name) - the same string the telemetry uses.
    u, v:
        Factor matrices of a factor model (``None`` for estimate
        models).  Stored read-only.
    estimate:
        Dense reconstruction of an estimate model (``None`` for factor
        models).
    rank:
        Factorization rank ``K`` (``None`` for estimate models).
    update_rule / kernel_path:
        The update kernel and execution path the fit used; fold-in uses
        ``update_rule`` to decide whether the nonnegativity projection
        applies.
    n_spatial:
        Number of leading spatial columns ``L`` (0 when the model has
        no spatial structure).
    landmark_columns:
        Column indices of the frozen landmark block of ``v`` (empty for
        models without landmarks).  Always the prefix ``0..L-1`` for
        paper-style SMFL, but stored explicitly so artifacts are
        self-describing.
    landmark_values:
        The frozen ``(K, L)`` landmark block itself (``None`` when no
        block was frozen).
    column_low, column_high:
        Mask statistics: per-column observed minima/maxima of the fit
        data (the clip-to-observed bounds; ``+/-inf`` for columns with
        no observed entries).
    observed_fraction:
        Fraction of fit-data cells that were observed.
    n_rows, n_cols:
        Shape of the fit data.
    clip_to_observed:
        Whether imputation clips filled values to ``column_low``/
        ``column_high``.
    scaler_min, scaler_range:
        Optional :class:`~repro.data.preprocessing.MinMaxScaler`
        metadata (``data_min_``/``data_range_``) attached with
        :meth:`with_scaler`, so artifacts can map imputations back to
        original units.
    numerics_version / repro_version:
        The numerics generation and package version that produced the
        fit - both enter the artifact content hash.
    """

    method: str
    u: np.ndarray | None = None
    v: np.ndarray | None = None
    estimate: np.ndarray | None = None
    rank: int | None = None
    update_rule: str = ""
    kernel_path: str = ""
    n_spatial: int = 0
    landmark_columns: tuple[int, ...] = ()
    landmark_values: np.ndarray | None = None
    column_low: np.ndarray | None = None
    column_high: np.ndarray | None = None
    observed_fraction: float | None = None
    n_rows: int = 0
    n_cols: int = 0
    clip_to_observed: bool = True
    scaler_min: np.ndarray | None = None
    scaler_range: np.ndarray | None = None
    numerics_version: int = NUMERICS_VERSION
    repro_version: str = field(default_factory=lambda: __version__)

    def __post_init__(self) -> None:
        if self.u is None and self.v is None and self.estimate is None:
            raise ValidationError(
                "a FittedModel needs factors (u, v) or an estimate"
            )
        if (self.u is None) != (self.v is None):
            raise ValidationError("factor models need both u and v")
        for name in (
            "u", "v", "estimate", "landmark_values",
            "column_low", "column_high", "scaler_min", "scaler_range",
        ):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        object.__setattr__(
            self, "landmark_columns", tuple(int(c) for c in self.landmark_columns)
        )

    # ------------------------------------------------------------ builders

    @classmethod
    def from_factors(
        cls,
        *,
        method: str,
        u: np.ndarray,
        v: np.ndarray,
        x_observed: np.ndarray,
        observed: np.ndarray,
        update_rule: str = "",
        kernel_path: str = "",
        n_spatial: int = 0,
        landmark_values: np.ndarray | None = None,
        clip_to_observed: bool = True,
    ) -> "FittedModel":
        """Extract the fitted state of one completed factor fit.

        ``x_observed``/``observed`` are the zero-filled fit matrix and
        its mask - the mask statistics (clip bounds, observed fraction)
        are computed here so callers cannot desynchronise them from the
        factors.
        """
        lows, highs = observed_column_bounds(x_observed, observed)
        landmark_columns: tuple[int, ...] = ()
        if landmark_values is not None:
            landmark_columns = tuple(range(int(landmark_values.shape[1])))
        return cls(
            method=method,
            u=u,
            v=v,
            rank=int(u.shape[1]),
            update_rule=update_rule,
            kernel_path=kernel_path,
            n_spatial=int(n_spatial),
            landmark_columns=landmark_columns,
            landmark_values=landmark_values,
            column_low=lows,
            column_high=highs,
            observed_fraction=float(observed.mean()),
            n_rows=int(x_observed.shape[0]),
            n_cols=int(x_observed.shape[1]),
            clip_to_observed=clip_to_observed,
        )

    @classmethod
    def from_estimate(
        cls,
        *,
        method: str,
        estimate: np.ndarray,
        x_observed: np.ndarray,
        observed: np.ndarray,
    ) -> "FittedModel":
        """Extract the fitted state of one estimate-based imputer run."""
        lows, highs = observed_column_bounds(x_observed, observed)
        return cls(
            method=method,
            estimate=estimate,
            column_low=lows,
            column_high=highs,
            observed_fraction=float(observed.mean()),
            n_rows=int(x_observed.shape[0]),
            n_cols=int(x_observed.shape[1]),
            clip_to_observed=False,
        )

    def with_scaler(self, scaler: "MinMaxScaler") -> "FittedModel":
        """A copy carrying the scaler's column minima and ranges."""
        if scaler.data_min_ is None or scaler.data_range_ is None:
            raise NotFittedError("with_scaler needs a fitted MinMaxScaler")
        return replace(
            self, scaler_min=scaler.data_min_, scaler_range=scaler.data_range_
        )

    # ----------------------------------------------------------- properties

    @property
    def is_factor_model(self) -> bool:
        """Whether the model carries ``(u, v)`` factors (fold-in capable)."""
        return self.u is not None and self.v is not None

    @property
    def nonnegative(self) -> bool:
        """Whether the factor constraint ``U, V >= 0`` applied.

        True for the whole masked-NMF family (every update rule
        enforces it); fold-in uses this to pick the
        nonnegativity-projected solve and to reject negative observed
        values, exactly as ``fit`` does.
        """
        return self.is_factor_model

    @cached_property
    def training_locations(self) -> np.ndarray:
        """``(L, N)`` spatial coordinates of the training rows.

        The rows' locations as the factors reconstruct them,
        ``(U V[:, :L])ᵀ``, made contiguous so the fold-in prior reads
        one coordinate at a time.  Computed on first access and cached
        on the instance (read-only); it is not a dataclass field, so it
        stays out of the artifact, the content hash and ``replace()``.
        """
        if not self.is_factor_model:
            raise ValidationError(
                f"training locations need a factor model; {self.method!r} "
                "carries only a dense estimate"
            )
        locations = np.ascontiguousarray((self.u @ self.v[:, : self.n_spatial]).T)
        locations.setflags(write=False)
        return locations

    @cached_property
    def training_cover(self) -> "PriorCover":
        """The fold-in prior's per-cell cover of :attr:`training_locations`.

        Lists, per cell of a grid over the locations widened to the
        observed spatial range (the spatial columns of
        :attr:`column_low`/:attr:`column_high`, whether or not
        imputation clips to them), the training rows that can be a
        query's ``p`` nearest for fold-in's default ``p`` (see
        :mod:`repro.serving.cover`).  Built on first access and cached
        on the instance like the locations: not a dataclass field, so
        it stays out of the artifact, the content hash and
        ``replace()``.
        """
        from ..serving.cover import PriorCover
        from ..serving.foldin import DEFAULT_PRIOR_NEIGHBORS

        if self.column_low is None or self.column_high is None:
            return PriorCover(self.training_locations, DEFAULT_PRIOR_NEIGHBORS)
        return PriorCover(self.training_locations, DEFAULT_PRIOR_NEIGHBORS,
                          self.column_low[: self.n_spatial], self.column_high[: self.n_spatial])

    # ------------------------------------------------------------ behaviour

    def reconstruct(self) -> np.ndarray:
        """The model's full reconstruction ``U V`` (or the estimate)."""
        if self.is_factor_model:
            return self.u @ self.v
        assert self.estimate is not None
        return self.estimate.copy()

    def clip_bounds(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The per-column clip interval, or ``None`` when clipping is off."""
        if not self.clip_to_observed:
            return None
        if self.column_low is None or self.column_high is None:
            return None
        return self.column_low, self.column_high

    def impute(self, x: np.ndarray, mask: object = None) -> np.ndarray:
        """Formula 8 as a pure function: see :func:`impute_matrix`."""
        return impute_matrix(self, x, mask)

    def fold_in(
        self,
        x_new: np.ndarray,
        mask: object = None,
        **kwargs: Any,
    ) -> np.ndarray:
        """Impute new partially observed rows against the frozen ``v``.

        Convenience wrapper over :func:`repro.serving.fold_in` (one
        ridge solve per row, no refit); see that module for the math,
        the batched path, and the keyword options (``ridge``,
        ``nonnegative``).  Returns the imputed rows.
        """
        from ..serving.foldin import fold_in

        return fold_in(self, x_new, mask, **kwargs).imputed

    # ---------------------------------------------------------- persistence

    def save(self, path: str) -> dict[str, Any]:
        """Persist as a versioned artifact; see :func:`repro.model.save_model`."""
        from .artifact import save_model

        return save_model(self, path)

    @classmethod
    def load(cls, path: str) -> "FittedModel":
        """Load a saved artifact; see :func:`repro.model.load_model`."""
        from .artifact import load_model

        return load_model(path)


def coerce_observations(
    x: np.ndarray, mask: object
) -> tuple[np.ndarray, ObservationMask]:
    """Normalise an ``(x, mask)`` pair into zero-filled data + mask.

    The single input seam shared by the solvers
    (``MatrixFactorizationBase.fit``), the baseline imputers, the pure
    :func:`impute_matrix`, and the serving fold-in: ``mask=None`` means
    NaN cells are unobserved; otherwise the mask (boolean array or
    :class:`ObservationMask`) overrides NaN detection, unobserved cells
    are zero-filled, and NaN at an observed cell is an error.
    """
    from ..masking.mask import mask_from_missing_values

    if mask is None:
        return mask_from_missing_values(x)
    x = as_matrix(x, name="x", allow_nan=True, copy=True)
    observation = mask if isinstance(mask, ObservationMask) else ObservationMask(
        np.asarray(mask)
    )
    if observation.shape != x.shape:
        raise ValidationError(
            f"mask shape {observation.shape} does not match X shape {x.shape}"
        )
    x[~observation.observed] = 0.0
    if np.isnan(x).any():
        raise ValidationError("X has NaN entries at observed cells")
    return x, observation


def impute_matrix(
    model: FittedModel, x: np.ndarray, mask: object = None
) -> np.ndarray:
    """Formula 8 as a pure function of ``(model, data)``.

    Observed cells of ``x`` are returned verbatim; unobserved cells are
    filled from the model's reconstruction, clipped (when the model
    says so) to the per-column observed range recorded at fit time.
    Bit-identical to the legacy ``solver.impute()`` when called with
    the fit data, because the clip bounds stored on the model are
    exactly the bounds that method derived from its ``_fit_x``.
    """
    x, observation = coerce_observations(x, mask)
    if x.shape != (model.n_rows, model.n_cols):
        raise ValidationError(
            f"x has shape {x.shape}, model was fitted on "
            f"({model.n_rows}, {model.n_cols}); use repro.serving.fold_in "
            "for new rows"
        )
    reconstruction = model.reconstruct()
    bounds = model.clip_bounds()
    if bounds is not None:
        lows, highs = bounds
        reconstruction = np.clip(reconstruction, lows[None, :], highs[None, :])
    return observation.merge(x, reconstruction)
