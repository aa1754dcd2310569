"""``p``-nearest-neighbour search over spatial coordinates.

The similarity matrix of Formula 3 needs, for every tuple, its ``p``
nearest neighbours on the spatial information ``SI`` (excluding the
tuple itself).  This module dispatches between a brute-force distance
matrix (fast for small ``n``) and the KD-tree (sub-quadratic for large
``n``).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DegenerateDataError
from ..validation import as_matrix, check_positive_int
from .distances import DISTANCE_CHUNK_ROWS, pairwise_sq_euclidean
from .kdtree import KDTree

__all__ = ["knn_indices", "smallest_p"]

# Below this many points the O(n^2) distance matrix beats tree traversal.
_BRUTE_FORCE_LIMIT = 2048


def knn_indices(
    points: np.ndarray,
    p: int,
    *,
    method: str = "auto",
) -> np.ndarray:
    """Indices of the ``p`` nearest neighbours of each point (self excluded).

    Parameters
    ----------
    points:
        ``(n, d)`` coordinate array.
    p:
        Number of neighbours per point; requires ``p < n``.
    method:
        ``"auto"`` (default) picks brute force below 2048 points and the
        KD-tree above; ``"brute"`` and ``"kdtree"`` force a strategy.

    Returns
    -------
    ``(n, p)`` integer array; row ``i`` holds the neighbour indices of
    point ``i`` ordered by increasing distance.  Ties are broken by
    index for determinism.
    """
    points = as_matrix(points, name="points")
    p = check_positive_int(p, name="p")
    n = points.shape[0]
    if p >= n:
        raise DegenerateDataError(
            f"p={p} nearest neighbours requested but only {n} points exist "
            "(each point needs p other points)"
        )
    if method not in ("auto", "brute", "kdtree"):
        raise ValueError(f"unknown method {method!r}; use 'auto', 'brute' or 'kdtree'")
    if method == "brute" or (method == "auto" and n <= _BRUTE_FORCE_LIMIT):
        return _knn_brute(points, p)
    return _knn_kdtree(points, p)


def _knn_brute(points: np.ndarray, p: int) -> np.ndarray:
    n = points.shape[0]
    if n <= DISTANCE_CHUNK_ROWS:
        d2 = pairwise_sq_euclidean(points)
        np.fill_diagonal(d2, np.inf)
        return smallest_p(d2, p)
    # Chunked path for large n: peak memory drops from n^2 to chunk x n
    # with one reused distance block.  Each row selects independently, so
    # the neighbour lists match the one-shot path except on distance
    # ties closer than the gemm's last-ulp blocking difference.
    out = np.empty((n, p), dtype=np.int64)
    scratch = np.empty((DISTANCE_CHUNK_ROWS, n), dtype=np.float64)
    for start in range(0, n, DISTANCE_CHUNK_ROWS):
        stop = min(start + DISTANCE_CHUNK_ROWS, n)
        rows = stop - start
        block = pairwise_sq_euclidean(
            points[start:stop], points, out=scratch[:rows]
        )
        block[np.arange(rows), np.arange(start, stop)] = np.inf
        out[start:stop] = smallest_p(block, p)
    return out


def smallest_p(dist: np.ndarray, p: int) -> np.ndarray:
    """Column indices of each row's ``p`` smallest entries, in order.

    Returns exactly ``np.argsort(dist, axis=1, kind="stable")[:, :p]``:
    ascending by value, ties broken by column index, so the neighbour
    graph stays deterministic.  It costs ``O(m)`` per row instead of a
    full ``O(m log m)`` sort.  ``argpartition`` puts each row's ``p``
    smallest entries first; when exactly ``p`` entries are ``<=`` the
    ``p``-th smallest value, those are the answer and only they are
    ordered, by (value, index).  Rows with a tie across that boundary
    (all-``inf`` rows included) stable-sort their ``<=`` candidates
    instead.

    Parameters
    ----------
    dist:
        ``(n, m)`` float array with ``p <= m``.
    p:
        Number of entries to select per row.

    Returns
    -------
    ``(n, p)`` int64 array.
    """
    part = np.argpartition(dist, p - 1, axis=1)[:, :p]
    vals = np.take_along_axis(dist, part, axis=1)
    kth = vals[:, p - 1:p]
    # A NaN kth compares false everywhere, so its row fails this test too.
    n_candidates = np.count_nonzero(dist <= kth, axis=1)
    out = np.take_along_axis(part, np.lexsort((part, vals), axis=1), axis=1)
    for i in np.flatnonzero(n_candidates != p):
        row = dist[i]
        # Entries above kth sort after every candidate, so a stable sort
        # of the candidates (index order kept) matches a full-row sort.
        cand = np.flatnonzero(~(row > kth[i, 0]))
        out[i] = cand[np.argsort(row[cand], kind="stable")[:p]]
    return out.astype(np.int64, copy=False)


def _knn_kdtree(points: np.ndarray, p: int) -> np.ndarray:
    tree = KDTree(points)
    # Query k=p+1 because each point finds itself at distance zero.
    _, idx = tree.query(points, k=p + 1)
    n = points.shape[0]
    out = np.empty((n, p), dtype=np.int64)
    for i in range(n):
        row = idx[i]
        row = row[row != i]
        if row.size < p:
            # Duplicate coordinates can push "self" out of the result;
            # refill from the raw candidate list while skipping self.
            row = np.array([j for j in idx[i] if j != i][:p], dtype=np.int64)
        out[i] = row[:p]
    return out
