"""A from-scratch KD-tree for k-nearest-neighbour queries.

The paper's similarity matrix **D** (Formula 3) needs ``p``-nearest
neighbours over the spatial columns.  For small inputs a brute-force
distance matrix is faster, but the Vehicle-scale experiments
(Section IV-E sweeps up to 100k tuples) need something sub-quadratic,
so this module provides a classic median-split KD-tree with a
best-first bounded-heap query.

The tree is built once over static points; there is no insertion or
deletion API because the library never mutates a fitted neighbour
graph.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..exceptions import DegenerateDataError
from ..validation import as_matrix, check_positive_int

__all__ = ["KDTree"]

_LEAF_SIZE = 16


@dataclass
class _Node:
    """One internal or leaf node of the KD-tree.

    ``indices`` is only populated on leaves; internal nodes carry the
    split dimension/value and child links.
    """

    indices: np.ndarray | None = None
    split_dim: int = -1
    split_value: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.indices is not None


class KDTree:
    """Median-split KD-tree over a fixed point set.

    Parameters
    ----------
    points:
        ``(n, d)`` array of finite coordinates.
    leaf_size:
        Maximum number of points stored in a leaf before splitting.

    Examples
    --------
    >>> import numpy as np
    >>> tree = KDTree(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    >>> dist, idx = tree.query(np.array([[0.1, 0.0]]), k=1)
    >>> int(idx[0, 0])
    0
    """

    def __init__(self, points: np.ndarray, *, leaf_size: int = _LEAF_SIZE) -> None:
        self._points = as_matrix(points, name="points", copy=True)
        self._leaf_size = check_positive_int(leaf_size, name="leaf_size")
        self._root = self._build(np.arange(self._points.shape[0]))

    @property
    def n_points(self) -> int:
        """Number of points indexed by the tree."""
        return self._points.shape[0]

    @property
    def n_dims(self) -> int:
        """Dimensionality of the indexed points."""
        return self._points.shape[1]

    def _build(self, indices: np.ndarray) -> _Node:
        if indices.size <= self._leaf_size:
            return _Node(indices=indices)
        pts = self._points[indices]
        spreads = pts.max(axis=0) - pts.min(axis=0)
        dim = int(np.argmax(spreads))
        if spreads[dim] == 0.0:
            # All points identical along every axis: cannot split further.
            return _Node(indices=indices)
        values = pts[:, dim]
        mid = indices.size // 2
        split_value = float(np.partition(values, mid)[mid])
        left_mask = values < split_value
        # Guard against a degenerate split when the median value repeats:
        # nothing lies below it, so the left child takes the first
        # ``mid`` median-valued points by index.
        if not left_mask.any():
            left_mask[np.flatnonzero(values == split_value)[:mid]] = True
        return _Node(
            split_dim=dim,
            split_value=split_value,
            left=self._build(indices[left_mask]),
            right=self._build(indices[~left_mask]),
        )

    def query(self, queries: np.ndarray, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Find the ``k`` nearest indexed points for each query row.

        Parameters
        ----------
        queries:
            ``(m, d)`` array of query points.
        k:
            Number of neighbours; must not exceed the indexed point count.

        Returns
        -------
        distances, indices:
            Two ``(m, k)`` arrays, sorted by increasing distance.
        """
        queries = as_matrix(queries, name="queries")
        k = check_positive_int(k, name="k")
        if queries.shape[1] != self.n_dims:
            raise DegenerateDataError(
                f"query dimensionality {queries.shape[1]} does not match tree "
                f"dimensionality {self.n_dims}"
            )
        if k > self.n_points:
            raise DegenerateDataError(
                f"requested k={k} neighbours but the tree only holds {self.n_points} points"
            )
        n_queries = queries.shape[0]
        out_dist = np.empty((n_queries, k))
        out_idx = np.empty((n_queries, k), dtype=np.int64)
        for i in range(n_queries):
            dist, idx = self._query_single(queries[i], k)
            out_dist[i] = dist
            out_idx[i] = idx
        return out_dist, out_idx

    def _query_single(self, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        # Max-heap of the best k candidates, stored as (-dist2, index).
        heap: list[tuple[float, int]] = []

        def visit(node: _Node) -> None:
            if node.is_leaf:
                assert node.indices is not None
                diffs = self._points[node.indices] - q
                d2s = np.einsum("ij,ij->i", diffs, diffs)
                for d2, idx in zip(d2s, node.indices):
                    if len(heap) < k:
                        heapq.heappush(heap, (-float(d2), int(idx)))
                    elif -heap[0][0] > d2:
                        heapq.heapreplace(heap, (-float(d2), int(idx)))
                return
            assert node.left is not None and node.right is not None
            diff = q[node.split_dim] - node.split_value
            near, far = (node.right, node.left) if diff >= 0 else (node.left, node.right)
            visit(near)
            # Only descend into the far side if the splitting plane is
            # closer than the current k-th best distance.
            if len(heap) < k or diff * diff < -heap[0][0]:
                visit(far)

        visit(self._root)
        candidates = sorted((-neg_d2, idx) for neg_d2, idx in heap)
        dist = np.sqrt(np.array([d2 for d2, _ in candidates]))
        idx = np.array([i for _, i in candidates], dtype=np.int64)
        return dist, idx
