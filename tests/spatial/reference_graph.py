"""Reference p-NN graph build: one-shot dense matrices and full stable sorts.

This is the graph construction :mod:`repro.spatial` used before it built
the graph straight into CSR.  It evaluates the masked distances as one
``n x n`` elementwise pass, selects neighbours with a full
``argsort(kind="stable")``, and assembles dense **D**, **W** and
``L = W - D``.  The oracle tests require the sparse builder (grid index
plus row-blocked scan) to match it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.spatial import KDTree, pairwise_sq_euclidean, prepare_spatial_coordinates
from repro.validation import as_matrix, check_mask


def masked_knn_indices(spatial, p, observed=None):
    """One-shot masked mean squared p-NN: every distance in one n x n pass.

    ``d_ij = sum_l w_il w_jl (x_il - x_jl)**2 / max(common_ij, 1)``,
    summed in column order and ``inf`` where the rows share no
    observed dimension - elementwise, so each value depends only on
    its pair.
    """
    spatial = as_matrix(spatial, name="spatial", allow_nan=True, copy=True)
    if observed is None:
        obs = ~np.isnan(spatial)
    else:
        obs = check_mask(observed, spatial.shape, name="observed")
    x = np.where(obs, spatial, 0.0)
    n = x.shape[0]
    d2 = np.zeros((n, n))
    common = np.zeros((n, n))
    with np.errstate(over="ignore"):
        for col in range(x.shape[1]):
            shared = obs[:, col, None] & obs[None, :, col]
            d2 += np.where(shared, (x[:, col, None] - x[None, :, col]) ** 2, 0.0)
            common += shared
    mean_d2 = np.where(common > 0, d2 / np.maximum(common, 1.0), np.inf)
    np.fill_diagonal(mean_d2, np.inf)
    order = np.argsort(mean_d2, axis=1, kind="stable")
    return order[:, :p].astype(np.int64)


def knn_brute(points, p):
    """One-shot Euclidean p-NN with a full stable sort."""
    d2 = pairwise_sq_euclidean(points)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, :p].astype(np.int64)


class ArgsortKDTree(KDTree):
    """KD-tree whose median split uses a full stable sort."""

    def _build(self, indices):
        from repro.spatial.kdtree import _Node

        if indices.size <= self._leaf_size:
            return _Node(indices=indices)
        pts = self._points[indices]
        spreads = pts.max(axis=0) - pts.min(axis=0)
        dim = int(np.argmax(spreads))
        if spreads[dim] == 0.0:
            return _Node(indices=indices)
        values = pts[:, dim]
        order = np.argsort(values, kind="stable")
        mid = indices.size // 2
        split_value = float(values[order[mid]])
        left_mask = values < split_value
        if not left_mask.any() or left_mask.all():
            left_mask = np.zeros(indices.size, dtype=bool)
            left_mask[order[:mid]] = True
        return _Node(
            split_dim=dim,
            split_value=split_value,
            left=self._build(indices[left_mask]),
            right=self._build(indices[~left_mask]),
        )


def knn_kdtree(points, p):
    _, idx = ArgsortKDTree(points).query(points, k=p + 1)
    out = np.empty((points.shape[0], p), dtype=np.int64)
    for i, row in enumerate(idx):
        out[i] = [j for j in row if j != i][:p]
    return out


def knn_neighbors(spatial, p, observed=None, method="brute", missing_strategy="masked"):
    if missing_strategy == "masked":
        return masked_knn_indices(spatial, p, observed)
    coords = prepare_spatial_coordinates(spatial, observed)
    return knn_kdtree(coords, p) if method == "kdtree" else knn_brute(coords, p)


def knn_similarity_matrix(spatial, p, **kwargs):
    """Dense Formula 3 matrix D: scatter, maximum(D, D.T), zero diagonal."""
    neighbors = knn_neighbors(spatial, p, **kwargs)
    n = neighbors.shape[0]
    similarity = np.zeros((n, n))
    similarity[np.repeat(np.arange(n), p), neighbors.ravel()] = 1.0
    np.maximum(similarity, similarity.T, out=similarity)
    np.fill_diagonal(similarity, 0.0)
    return similarity


def laplacian_from_points(spatial, p, **kwargs):
    """Dense (D, W, L = W - D)."""
    similarity = knn_similarity_matrix(spatial, p, **kwargs)
    degree = np.diag(similarity.sum(axis=1))
    return similarity, degree, degree - similarity
