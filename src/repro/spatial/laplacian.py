"""Degree matrix **W** (Formula 4) and graph Laplacian **L = W - D**.

Note the paper's naming is inverted from the common convention: **D**
is the adjacency/similarity matrix and **W** is the diagonal degree
matrix.  We keep the paper's symbols so the update rules (Formulas 13
and 14) read exactly as published:

- numerator term ``lambda * (D @ U)``,
- denominator term ``lambda * (W @ U)``.
"""

from __future__ import annotations

import numpy as np

from ..validation import as_matrix, ValidationError
from .similarity import knn_graph, to_dense

__all__ = ["degree_matrix", "graph_laplacian", "laplacian_from_points"]


def _check_similarity(similarity: np.ndarray) -> np.ndarray:
    sim = as_matrix(similarity, name="similarity")
    if sim.shape[0] != sim.shape[1]:
        raise ValidationError(f"similarity matrix must be square, got {sim.shape}")
    if (sim < 0).any():
        raise ValidationError("similarity matrix must be non-negative")
    if not np.allclose(sim, sim.T):
        raise ValidationError("similarity matrix must be symmetric")
    return sim


def degree_matrix(similarity: np.ndarray) -> np.ndarray:
    """Diagonal degree matrix ``W`` with ``w_ii = sum_t d_it`` (Formula 4)."""
    sim = _check_similarity(similarity)
    return np.diag(sim.sum(axis=1))


def graph_laplacian(similarity: np.ndarray) -> np.ndarray:
    """Graph Laplacian ``L = W - D`` from a similarity matrix ``D``.

    The result is symmetric positive semi-definite with zero row sums,
    which is what makes ``Tr(U^T L U) = 1/2 * sum_ij d_ij |u_i - u_j|^2``
    a valid smoothness penalty (Section II-C).
    """
    sim = _check_similarity(similarity)
    return degree_matrix(sim) - sim


def laplacian_from_points(
    spatial: np.ndarray,
    p: int,
    *,
    observed: np.ndarray | None = None,
    method: str = "auto",
    missing_strategy: str = "masked",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convenience: build dense ``(D, W, L)`` directly from spatial coordinates.

    The dense form of :func:`repro.spatial.similarity.knn_graph`, whose
    parameters it takes.

    Returns
    -------
    similarity, degree, laplacian:
        The Formula 3 matrix **D**, the Formula 4 matrix **W**, and
        ``L = W - D``.
    """
    similarity, degree, laplacian = knn_graph(
        spatial, p, observed=observed, method=method,
        missing_strategy=missing_strategy,
    )
    return to_dense(similarity), np.diag(degree), to_dense(laplacian)
