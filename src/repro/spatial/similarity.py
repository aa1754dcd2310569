"""The symmetric p-NN similarity matrix **D** of Formula 3.

``d_ij = 1`` iff ``x_i`` is among the ``p`` nearest neighbours of
``x_j`` *or* vice versa, computed over the spatial-information columns
``SI``.  Section II-C also prescribes how to handle missing spatial
cells when building the graph: initialise them with the column mean of
the *observed* entries (this initialisation is used only for the
similarity computation; the actual imputation happens later in the
factorization).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DegenerateDataError
from ..validation import as_matrix, check_mask, check_positive_int
from .neighbors import knn_indices, smallest_p

__all__ = [
    "prepare_spatial_coordinates",
    "knn_neighbors",
    "knn_graph",
    "knn_similarity_matrix",
]


def prepare_spatial_coordinates(
    spatial: np.ndarray,
    observed: np.ndarray | None = None,
) -> np.ndarray:
    """Fill missing spatial cells with observed column means (Section II-C).

    Parameters
    ----------
    spatial:
        ``(n, L)`` spatial-information block; may contain NaN at
        unobserved cells.
    observed:
        Optional ``(n, L)`` boolean mask of observed cells.  When
        omitted, NaN entries are treated as unobserved.

    Returns
    -------
    ``(n, L)`` array with every cell finite: observed values are kept,
    unobserved ones are replaced by the mean of the observed entries of
    the same column.

    Raises
    ------
    DegenerateDataError:
        If some spatial column has no observed entry at all, the graph
        cannot be anchored and the caller must drop that column.
    """
    spatial = as_matrix(spatial, name="spatial", allow_nan=True, copy=True)
    if observed is None:
        observed_mask = ~np.isnan(spatial)
    else:
        observed_mask = check_mask(observed, spatial.shape, name="observed")
        spatial[~observed_mask] = np.nan
    for j in range(spatial.shape[1]):
        col_observed = observed_mask[:, j]
        if not col_observed.any():
            raise DegenerateDataError(
                f"spatial column {j} has no observed entries; the similarity "
                "graph cannot be built"
            )
        if not col_observed.all():
            fill = float(spatial[col_observed, j].mean())
            spatial[~col_observed, j] = fill
    return spatial


def knn_neighbors(
    spatial: np.ndarray,
    p: int,
    *,
    observed: np.ndarray | None = None,
    method: str = "auto",
    missing_strategy: str = "masked",
) -> np.ndarray:
    """The ``(n, p)`` neighbour lists the Formula 3 graph is built from.

    Parameters are those of :func:`knn_similarity_matrix`.  Row ``i``
    lists its ``p`` neighbours by increasing distance, ties by index.
    """
    p = check_positive_int(p, name="p")
    if missing_strategy not in ("masked", "column-mean"):
        raise ValueError(
            f"unknown missing_strategy {missing_strategy!r}; "
            "use 'masked' or 'column-mean'"
        )
    if missing_strategy == "masked":
        return _masked_knn_indices(spatial, p, observed)
    coords = prepare_spatial_coordinates(spatial, observed)
    return knn_indices(coords, p, method=method)


def knn_graph(
    spatial: np.ndarray,
    p: int,
    *,
    observed: np.ndarray | None = None,
    method: str = "auto",
    missing_strategy: str = "masked",
) -> tuple[object, np.ndarray, object]:
    """Build ``(D, deg, L)`` straight from coordinates, sparse.

    The one graph builder: :func:`knn_similarity_matrix`,
    :func:`repro.spatial.laplacian.laplacian_from_points` and the graph
    cache all go through it.  No ``n x n`` array is allocated: the
    ``(n, p)`` neighbour lists become **D** (Formula 3) and
    ``L = W - D`` in CSR form, with at most ``2 p n`` off-diagonal
    entries.  Parameters are those of :func:`knn_similarity_matrix`.

    Returns
    -------
    similarity, degree, laplacian:
        **D** and **L** as scipy CSR matrices with sorted indices (dense
        arrays when scipy is not installed), and the degree vector, the
        diagonal of the Formula 4 matrix **W**.
    """
    neighbors = knn_neighbors(
        spatial, p, observed=observed, method=method,
        missing_strategy=missing_strategy,
    )
    n = neighbors.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), neighbors.shape[1])
    cols = neighbors.ravel()
    off = rows != cols
    # An edge in either direction, stored once (the "or" in Formula 3),
    # as sorted row-major keys ``row * n + col``; self-loops dropped.
    keys = np.unique(np.concatenate([rows[off] * n + cols[off], cols[off] * n + rows[off]]))
    degree = np.bincount(keys // n, minlength=n).astype(np.float64)
    # L = diag(degree) - D: D's keys plus the nonzero diagonal, re-sorted.
    lap_keys = np.sort(np.concatenate([keys, np.flatnonzero(degree) * (n + 1)]))
    lap_rows, lap_cols = np.divmod(lap_keys, n)
    lap_data = np.where(lap_rows == lap_cols, degree[lap_rows], -1.0)
    return _csr(keys, np.ones(keys.size), n), degree, _csr(lap_keys, lap_data, n)


def _csr(keys: np.ndarray, data: np.ndarray, n: int) -> object:
    """CSR ``n x n`` matrix from sorted unique row-major keys."""
    rows, indices = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    try:
        from scipy import sparse
    except ImportError:  # pragma: no cover - scipy is a soft dependency
        dense = np.zeros((n, n))
        dense[rows, indices] = data
        return dense
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def to_dense(op: object) -> np.ndarray:
    """Dense array of a :func:`knn_graph` operator (CSR or dense)."""
    return op if isinstance(op, np.ndarray) else op.toarray()


def knn_similarity_matrix(
    spatial: np.ndarray,
    p: int,
    *,
    observed: np.ndarray | None = None,
    method: str = "auto",
    missing_strategy: str = "masked",
) -> np.ndarray:
    """Build the symmetric 0/1 similarity matrix **D** (Formula 3).

    Parameters
    ----------
    spatial:
        ``(n, L)`` spatial coordinates, possibly with NaNs at missing
        cells.
    p:
        Number of nearest neighbours.
    observed:
        Optional boolean mask of observed spatial cells.
    method:
        Neighbour-search strategy of the ``"column-mean"`` strategy,
        forwarded to :func:`repro.spatial.neighbors.knn_indices`
        (``"auto"`` switches from brute force to the KD-tree above 2048
        points).  The default ``"masked"`` strategy ignores it and
        always evaluates the masked distances by brute force.
    missing_strategy:
        How rows with missing spatial cells enter the neighbour search:
        ``"masked"`` (default) measures the mean squared difference
        over the dimensions observed in *both* rows, so a partially
        observed row is matched on its real coordinates only;
        ``"column-mean"`` reproduces Section II-C literally by
        initialising missing cells with the observed column mean
        before a plain Euclidean search.

    Returns
    -------
    ``(n, n)`` symmetric float array with zero diagonal and
    ``d_ij in {0, 1}`` — the dense form of :func:`knn_graph`'s **D**.
    """
    similarity, _, _ = knn_graph(
        spatial, p, observed=observed, method=method,
        missing_strategy=missing_strategy,
    )
    return to_dense(similarity)


_BLOCK_ROWS = 256
"""Rows of the masked distance matrix evaluated at once: the scratch is
two ``256 x n`` float blocks instead of ``n x n`` temporaries.  256
measured fastest at n = 2500 (64-128 and 512-1024 were slower)."""


def _masked_knn_indices(
    spatial: np.ndarray,
    p: int,
    observed: np.ndarray | None,
) -> np.ndarray:
    """p-NN indices under per-dimension masked RMS distance.

    Rows sharing no observed dimension are infinitely far apart, so a
    row is matched to the finite-distance candidates first.  A row
    with *no* observed spatial cell is infinitely far from every row:
    its neighbours are simply rows ``0..p-1`` by index (the stable tie
    order), which include the row itself when its index is below
    ``p`` — that self-edge is dropped from the graph, leaving the row
    fewer than ``p`` edges.
    """
    spatial = as_matrix(spatial, name="spatial", allow_nan=True, copy=True)
    if observed is None:
        obs = ~np.isnan(spatial)
    else:
        obs = check_mask(observed, spatial.shape, name="observed")
    n = spatial.shape[0]
    if p >= n:
        raise DegenerateDataError(
            f"p={p} nearest neighbours requested but only {n} points exist"
        )
    for j in range(spatial.shape[1]):
        if not obs[:, j].any():
            raise DegenerateDataError(
                f"spatial column {j} has no observed entries; the similarity "
                "graph cannot be built"
            )
    x = np.where(obs, spatial, 0.0)
    weights = obs.astype(np.float64)
    xw = x * weights
    x2w = x**2 * weights
    out = np.empty((n, p), dtype=np.int64)
    block = min(_BLOCK_ROWS, n)
    d2, scratch = np.empty((block, n)), np.empty((block, n))
    unshared = np.empty((block, n), dtype=bool)
    for start in range(0, n, block):
        stop = min(start + block, n)
        r = stop - start
        rows = slice(start, stop)
        # Rows start:stop of the one-shot n x n expression
        #   where(common > 0, (sq + sq.T - 2 cross) / max(common, 1), inf)
        # op for op, so every distance is bit-identical to it; sq.T's
        # block is weights[rows] @ x2w.T.
        dist, tmp = d2[:r], scratch[:r]
        np.matmul(x2w[rows], weights.T, out=dist)
        dist += np.matmul(weights[rows], x2w.T, out=tmp)
        np.matmul(xw[rows], xw.T, out=tmp)
        tmp *= 2.0
        dist -= tmp
        common = np.matmul(weights[rows], weights.T, out=tmp)
        np.equal(common, 0.0, out=unshared[:r])
        np.maximum(common, 1.0, out=common)
        dist /= common
        dist[unshared[:r]] = np.inf
        np.maximum(dist, 0.0, out=dist)
        dist[np.arange(r), np.arange(start, stop)] = np.inf
        out[rows] = smallest_p(dist, p)
    return out
