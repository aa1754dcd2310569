"""SMFL: Spatial Matrix Factorization with Landmarks (Problem 2).

The paper's primary contribution (Algorithm 1): SMF plus a frozen
landmark block in the feature matrix **V**.  The ``K`` cluster centers
of the spatial columns ``SI`` (K-means, Section III-A) are injected
into the first ``L`` columns of **V** (Formula 9) and never updated
("the gradients of those landmarks are set to 0").  Benefits claimed
and reproduced here: more accurate imputation, interpretable feature
locations, and lower per-iteration cost because the landmark block
skips its update (Section IV-E).
"""

from __future__ import annotations

import numpy as np

from ..masking.mask import ObservationMask
from .landmarks import LandmarkSet, kmeans_landmarks_for
from .smf import SMF

__all__ = ["SMFL"]


class SMFL(SMF):
    """Spatial Matrix Factorization with Landmarks (Algorithm 1).

    Parameters
    ----------
    rank:
        Factorization rank ``K``; also the number of landmarks (the
        K-means cluster count ``K'`` is set equal to ``K``,
        Section III-A).
    landmarks:
        Optional custom :class:`LandmarkSet` (e.g. hand-curated
        locations for the interpretability study).  When omitted, the
        paper's K-means landmarks are computed during :meth:`fit`.
    kmeans_max_iter:
        K-means budget ``t2`` (paper default 300).
    **kwargs:
        All :class:`SMF` and :class:`MatrixFactorizationBase`
        parameters (``n_spatial``, ``lam``, ``p_neighbors``,
        ``max_iter``, ``tol``, ``update_rule``, ``random_state``, ...).

    Attributes (after fit)
    ----------------------
    landmarks_:
        The :class:`LandmarkSet` actually used.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.data import load_dataset
    >>> from repro.masking import inject_missing, MissingSpec
    >>> data = load_dataset("lake", n_rows=120, random_state=0)
    >>> x_missing, mask = inject_missing(
    ...     data.values, MissingSpec(missing_rate=0.1, columns=(2, 3)),
    ...     random_state=0)
    >>> model = SMFL(rank=5, n_spatial=2, random_state=0, max_iter=100)
    >>> imputed = model.fit_impute(x_missing, mask)
    >>> imputed.shape == data.values.shape
    True
    """

    method = "smfl"

    def __init__(
        self,
        rank: int,
        *,
        landmarks: LandmarkSet | None = None,
        kmeans_max_iter: int = 300,
        **kwargs: object,
    ) -> None:
        # SMFL defaults to the landmark-informed initialisation; the
        # landmark constraint makes random starts prone to poor local
        # minima (see _landmark_informed_init).
        kwargs.setdefault("init", "landmark")
        super().__init__(rank, **kwargs)  # type: ignore[arg-type]
        self._user_landmarks = landmarks
        self.kmeans_max_iter = kmeans_max_iter
        self.landmarks_: LandmarkSet | None = None
        self._frozen_mask_cache: np.ndarray | None = None

    def _prepare_fit(
        self, x: np.ndarray, x_observed: np.ndarray, mask: ObservationMask
    ) -> None:
        super()._prepare_fit(x, x_observed, mask)
        if self._user_landmarks is not None:
            self.landmarks_ = self._user_landmarks
        else:
            spatial = x[:, : self.n_spatial]
            spatial_observed = mask.observed[:, : self.n_spatial]
            self.landmarks_ = kmeans_landmarks_for(
                self._spatial_digest,
                spatial,
                self.rank,
                observed=spatial_observed,
                max_iter=self.kmeans_max_iter,
                random_state=self.random_state,
            )
        self._frozen_mask_cache = None

    def _initial_factors(
        self,
        x_observed: np.ndarray,
        observed: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        assert self.landmarks_ is not None
        if self.init == "landmark":
            u, v = self._landmark_informed_init(x_observed, observed, rng)
        else:
            u, v = super()._initial_factors(x_observed, observed, rng)
        # Formula 9: inject C into the first L columns of V before the
        # first iteration; the block stays frozen from here on.
        v = self.landmarks_.inject(v)
        return u, v

    def _landmark_informed_init(
        self,
        x_observed: np.ndarray,
        observed: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cluster-membership initialisation (SMFL default).

        The landmark constraint ``U C ~= SI`` creates hard local minima
        under random initialisation (the multiplicative updates cannot
        escape them), so SMFL starts from the structure the landmarks
        encode:

        - ``U0``: Gaussian membership weights of each tuple w.r.t. the
          landmark centers, row-normalised (so ``U0 C`` already sits
          near ``SI``), plus a small positive floor to keep every entry
          live for the multiplicative rule;
        - ``V0`` attribute columns: per-landmark weighted means of the
          observed column values (the "localized feature" each landmark
          should represent).

        This choice only sets the starting point; the update rules and
        the optimisation problem are exactly the paper's.
        """
        assert self.landmarks_ is not None
        centers = self.landmarks_.values
        spatial = x_observed[:, : self.n_spatial]
        spatial_observed = observed[:, : self.n_spatial]
        # Distance to each landmark over the row's *observed* spatial
        # dimensions only (zero-filled unobserved cells must not count;
        # repair injects errors into spatial columns too).
        diff_sq = (spatial[:, None, :] - centers[None, :, :]) ** 2
        dim_weights = spatial_observed[:, None, :].astype(np.float64)
        counts = dim_weights.sum(axis=2)
        with np.errstate(invalid="ignore", divide="ignore"):
            d2 = np.where(
                counts > 0,
                (diff_sq * dim_weights).sum(axis=2) / np.maximum(counts, 1.0),
                0.0,  # no spatial evidence: uniform membership
            )
        # Bandwidth: typical squared distance to the nearest center.
        informative = counts[:, 0] > 0
        nearest = d2[informative].min(axis=1) if informative.any() else np.array([1.0])
        bandwidth = max(float(np.median(nearest)), 1e-8)
        weights = np.exp(-d2 / (2.0 * bandwidth))
        weights /= weights.sum(axis=1, keepdims=True) + 1e-12
        u = weights + 0.01 * rng.random(weights.shape) + 1e-4

        # Per-landmark weighted average of observed values, column-wise.
        responsibilities = weights / (weights.sum(axis=0, keepdims=True) + 1e-12)
        counts = responsibilities.T @ observed.astype(np.float64)
        sums = responsibilities.T @ x_observed
        with np.errstate(invalid="ignore", divide="ignore"):
            v = np.where(counts > 0, sums / np.maximum(counts, 1e-12), 0.0)
        v = np.maximum(v, 1e-4)
        return u, v

    def _frozen_v_mask(self, v_shape: tuple[int, int]) -> np.ndarray | None:
        if self._frozen_mask_cache is None or self._frozen_mask_cache.shape != v_shape:
            assert self.landmarks_ is not None
            self._frozen_mask_cache = self.landmarks_.frozen_mask(v_shape)
        return self._frozen_mask_cache

    def _landmark_values(self) -> np.ndarray | None:
        # The frozen (K, L) block travels with the extracted FittedModel
        # so artifacts (and fold-in servers) know which V columns are
        # landmarks without ever touching this solver.
        return None if self.landmarks_ is None else self.landmarks_.values
