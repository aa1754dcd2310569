"""Landmarks: the frozen spatial block of the feature matrix V.

Definition 1 of the paper fixes the landmark entry set
``Phi = {(i, j) | 1 <= i <= K, 1 <= j <= L}`` - the first ``L`` columns
of **V**.  Section III-A proposes to fill those entries with the ``K``
cluster centers of the spatial information ``SI`` computed by K-means
(Formula 9) and to keep them constant through every update iteration.

:class:`LandmarkSet` carries the landmark values ``C`` and produces the
frozen-cell mask; :func:`kmeans_landmarks` is the paper's default
builder.  Custom landmark matrices (e.g. hand-curated locations, used
by the interpretability study of Section IV-C) are supported through
the class constructor directly.

K-means is a pure function of the coordinates, their mask, ``K``,
``t2`` and the seed, and a Table VII grid fits SMFL on each (dataset,
seed) at five missing rates that leave the spatial columns alone, so
seeded builds are memoized like the spatial graph
(:class:`~repro.spatial.graph_cache.SetupMemo`): one K-means run per
distinct input, emptied by :func:`~repro.spatial.clear_graph_cache`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..clustering.kmeans import DEFAULT_MAX_ITER, KMeans
from ..exceptions import ValidationError
from ..spatial.graph_cache import SetupMemo, coordinate_digest
from ..spatial.similarity import prepare_spatial_coordinates
from ..validation import as_matrix, check_positive_int

__all__ = ["LandmarkSet", "kmeans_landmarks", "kmeans_landmarks_for"]

_MEMO = SetupMemo(capacity=32, counter="landmark_cache")
"""Seeded K-means builds.  A Table VII grid has 15 distinct inputs
(3 datasets x 5 seeds); an entry is ``K x L`` doubles, so 32 entries
hold a few kB.  Hits and misses count as ``landmark_cache.*``."""


@dataclass(frozen=True)
class LandmarkSet:
    """Landmark values ``C`` destined for the first ``L`` columns of V.

    Parameters
    ----------
    values:
        ``(K, L)`` landmark coordinate matrix; must be non-negative
        because V is constrained non-negative (inject after min-max
        normalising the data).
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = as_matrix(self.values, name="landmark values", copy=True)
        if (values < 0).any():
            raise ValidationError(
                "landmark values must be non-negative (V is constrained "
                "non-negative); normalise the data before building landmarks"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_landmarks(self) -> int:
        """``K``: the number of landmark rows."""
        return self.values.shape[0]

    @property
    def n_spatial(self) -> int:
        """``L``: the number of spatial columns the landmarks occupy."""
        return self.values.shape[1]

    def frozen_mask(self, v_shape: tuple[int, int]) -> np.ndarray:
        """Boolean ``(K, M)`` mask of the Phi cells within a V of ``v_shape``."""
        k, m = v_shape
        if k != self.n_landmarks:
            raise ValidationError(
                f"V has {k} rows but the landmark set has {self.n_landmarks}"
            )
        if m < self.n_spatial:
            raise ValidationError(
                f"V has {m} columns, fewer than the {self.n_spatial} landmark columns"
            )
        mask = np.zeros((k, m), dtype=bool)
        mask[:, : self.n_spatial] = True
        return mask

    def inject(self, v: np.ndarray) -> np.ndarray:
        """Formula 9: return a copy of V with the landmark block written in."""
        v = as_matrix(v, name="v", copy=True)
        self.frozen_mask(v.shape)  # shape validation
        v[:, : self.n_spatial] = self.values
        return v


def kmeans_landmarks(
    spatial: np.ndarray,
    n_landmarks: int,
    *,
    observed: np.ndarray | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    random_state: object = None,
) -> LandmarkSet:
    """The paper's landmark builder: K-means centers of ``SI``.

    Parameters
    ----------
    spatial:
        ``(n, L)`` spatial block, possibly with NaN at missing cells
        (filled with observed column means per Section II-C before
        clustering).
    n_landmarks:
        ``K``, equal to the factorization rank (Section III-A sets the
        K-means cluster count ``K'`` equal to the NMF rank ``K``).
    observed:
        Optional boolean mask of observed spatial cells.
    max_iter:
        K-means budget ``t2`` (paper default 300).
    random_state:
        Seed or Generator.  An ``int`` seed makes the build
        deterministic, so it is memoized: equal coordinates (bit for
        bit), mask, ``n_landmarks``, ``max_iter`` and seed return the
        same read-only :class:`LandmarkSet` without running K-means
        again.  ``None`` or a ``Generator`` builds afresh every call.
    """
    spatial = as_matrix(spatial, name="spatial", allow_nan=True)
    digest = None if _memo_seed(random_state) is None else (
        coordinate_digest(spatial, observed)
    )
    return kmeans_landmarks_for(
        digest, spatial, n_landmarks, observed=observed, max_iter=max_iter,
        random_state=random_state,
    )


def _memo_seed(random_state: object) -> int | None:
    """The seed a deterministic build is keyed by, else ``None``."""
    if isinstance(random_state, (int, np.integer)) and not isinstance(random_state, bool):
        return int(random_state)
    return None


def kmeans_landmarks_for(
    digest: bytes | None,
    spatial: np.ndarray,
    n_landmarks: int,
    *,
    observed: np.ndarray | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    random_state: object = None,
) -> LandmarkSet:
    """:func:`kmeans_landmarks` for inputs whose
    :func:`~repro.spatial.graph_cache.coordinate_digest` the caller
    already holds (SMFL shares the one its graph lookup computed);
    ``digest=None`` skips the memo."""
    n_landmarks = check_positive_int(n_landmarks, name="n_landmarks")
    seed = _memo_seed(random_state)
    if digest is None or seed is None:
        return _kmeans_build(spatial, n_landmarks, observed, max_iter, random_state)
    landmarks, _ = _MEMO.get(
        (digest, n_landmarks, int(max_iter), seed),
        lambda: _kmeans_build(spatial, n_landmarks, observed, max_iter, random_state),
    )
    return landmarks


def _kmeans_build(
    spatial: np.ndarray,
    n_landmarks: int,
    observed: np.ndarray | None,
    max_iter: int,
    random_state: object,
) -> LandmarkSet:
    coords = prepare_spatial_coordinates(spatial, observed)
    # A single K-means run (the paper's Algorithm 1 line 5 runs K-means
    # once); k-means++ seeding keeps it stable without restarts.
    model = KMeans(
        n_clusters=n_landmarks, max_iter=max_iter, n_init=1,
        random_state=random_state,
    )
    model.fit(coords)
    assert model.centers_ is not None
    centers = np.maximum(model.centers_, 0.0)
    return LandmarkSet(values=centers)
