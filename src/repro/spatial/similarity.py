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

from typing import NamedTuple

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
    cache all go through it.  No ``n x n`` array is allocated: under
    the default ``"masked"`` strategy a grid index settles each fully
    observed row from ``c`` nearby candidates (about ``n c`` work in
    all), and only rows with a blank spatial cell or a failed exclusion
    bound scan all ``n`` columns, in row blocks.  The ``(n, p)``
    neighbour lists become **D** (Formula 3) and ``L = W - D`` in CSR
    form, with at most ``2 p n`` off-diagonal entries.  Parameters are
    those of :func:`knn_similarity_matrix`.

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
        points).  The default ``"masked"`` strategy ignores it: its
        grid index returns exactly what the brute-force scan would.
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
"""Rows of the brute-force masked distance matrix evaluated at once: the
scratch is a few ``256 x n`` blocks instead of ``n x n`` temporaries
(fewer rows above ``n = 16384``, so a block stays under
``_BRUTE_ELEMENTS``).  Only the rows the grid index cannot settle (a
blank spatial cell, or a failed exclusion bound) scan all ``n``
columns; they cost ``O(n)`` each, the settled rows ``O(c)`` for ``c``
candidates."""

_BRUTE_ELEMENTS = 1 << 22
"""Element cap of one brute-force block (32 MiB per float scratch)."""

_LEVELS = (0.5, 4.0, 32.0)
"""Grid levels of the candidate index, fine to coarse, as fully observed
rows per cell per neighbour (``p``).  Clustered coordinates settle most
rows on the fine grid; sparse rows fall through to the coarser ones.
One level (any density) or two were slower on clustered data at
N = 2.5k-100k."""

_CANDIDATE_ELEMENTS = 1 << 16
"""Element budget (rows x padded candidate width) of one candidate
batch; clustered cells widen rows, so batches shrink instead of the
scratch growing."""


def _masked_knn_indices(
    spatial: np.ndarray,
    p: int,
    observed: np.ndarray | None,
) -> np.ndarray:
    """p-NN indices under per-dimension masked mean squared distance.

    ``d_ij = sum_l w_il w_jl (x_il - x_jl)**2 / max(common_ij, 1)``,
    ``inf`` when the rows share no observed dimension
    (:func:`_masked_distances`).  Fully observed rows are settled by
    the grid index of :func:`_grid_knn`; the rest scan every column in
    row blocks.  Both paths evaluate a pair with the same elementwise
    form, so every row is what the brute-force scan would select.

    Rows sharing no observed dimension are infinitely far apart, so a
    row is matched to the finite-distance candidates first.  A row
    with *no* observed spatial cell is infinitely far from every row:
    its neighbours are simply rows ``0..p-1`` by index (the stable tie
    order), which include the row itself when its index is below
    ``p`` — that self-edge is dropped from the graph, leaving the row
    fewer than ``p`` edges.
    """
    xt, wt, full = _masked_columns(spatial, p, observed)
    out = np.empty((xt.shape[1], p), dtype=np.int64)
    _brute_knn(xt, wt, _grid_knn(xt, wt, full, p, out), p, out)
    return out


def _masked_columns(spatial: np.ndarray, p: int, observed: np.ndarray | None):
    """Validated ``(L, n)`` coordinates, observed mask and full-row flags.

    Unobserved cells read 0.  The mask is ``None`` when every cell is
    observed, which lets the distance form skip the masking work.
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
    xt = np.ascontiguousarray(np.where(obs, spatial, 0.0).T)
    wt = np.ascontiguousarray(obs.T)
    full = wt.all(axis=0)
    return xt, None if full.all() else wt, full


def _masked_distances(xq, xc, wq, wc, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The one masked distance form, written into ``out``.

    ``out[r, c] = sum_l [wq_l & wc_l] (xq_l - xc_l)**2 / max(common, 1)``,
    summed in column order, ``inf`` where the pair shares no observed
    dimension.  ``xq[l]``/``xc[l]`` (and the masks ``wq[l]``/``wc[l]``)
    broadcast to ``out``'s shape: queries down, candidates across.
    Each value depends only on its pair, never on the block around it,
    so every path that evaluates a pair gets the same bits.  ``wq`` and
    ``wc`` are ``None`` when every cell involved is observed.
    """
    n_dims = len(xq)
    masked = wq is not None
    if masked:
        unshared = np.empty(out.shape, dtype=bool)
        common = np.zeros(out.shape, dtype=np.min_scalar_type(n_dims))
    with np.errstate(over="ignore"):
        for l in range(n_dims):
            term = out if l == 0 else tmp
            np.subtract(xq[l], xc[l], out=term)
            np.multiply(term, term, out=term)
            if masked:
                np.logical_and(wq[l], wc[l], out=unshared)
                common += unshared
                np.logical_not(unshared, out=unshared)
                np.copyto(term, 0.0, where=unshared)
            if l:
                out += tmp
    if not masked:
        out /= n_dims
        return out
    np.equal(common, 0, out=unshared)
    np.maximum(common, 1, out=common)
    out /= common
    out[unshared] = np.inf
    return out


def _brute_knn(xt: np.ndarray, wt: np.ndarray | None, rows: np.ndarray, p: int,
               out: np.ndarray) -> None:
    """Fill ``out[rows]`` by scanning all ``n`` columns, in row blocks."""
    if rows.size == 0:
        return
    n = xt.shape[1]
    block = min(_BLOCK_ROWS, max(1, _BRUTE_ELEMENTS // n), rows.size)
    dist, scratch = np.empty((block, n)), np.empty((block, n))
    wc = None if wt is None else wt[:, None, :]
    for start in range(0, rows.size, block):
        q = rows[start:start + block]
        r = q.size
        wq = None if wt is None else wt[:, q, None]
        d = _masked_distances(xt[:, q, None], xt[:, None, :], wq, wc, dist[:r], scratch[:r])
        d[np.arange(r), q] = np.inf
        out[q] = smallest_p(d, p)


def _grid_knn(xt: np.ndarray, wt: np.ndarray | None, full: np.ndarray, p: int,
              out: np.ndarray) -> np.ndarray:
    """Fill ``out`` for the rows a grid index settles; return the others.

    The fully observed rows are bucketed on the levels of a
    :class:`GridIndex`: uniform grids over the first ``min(L, 2)``
    coordinates, fine to coarse.
    A row's candidates are the rows of its 3 x 3 cell neighbourhood
    plus every row with a blank spatial cell (those cannot be placed,
    and the masked distance can make them arbitrarily close), in index
    order with the row itself at ``inf``, so
    :func:`repro.spatial.neighbors.smallest_p` breaks ties by index as
    the full scan does.  The row is settled when its ``p``-th candidate
    distance is strictly below ``bound**2 / L``: every row outside the
    neighbourhood is at least that far (see :func:`_locate`), so
    none can tie with or beat the ``p``-th value.  Rows with a blank
    cell, and rows no level settles (non-finite values included), are
    returned, sorted.
    """
    n_dims, n = xt.shape
    full_rows = np.flatnonzero(full)
    blank_rows = np.flatnonzero(~full)
    # Padding candidates point at an extra column at +inf.
    xt_pad = np.concatenate([xt, np.full((n_dims, 1), np.inf)], axis=1)
    wt_pad = None if wt is None else np.concatenate([wt, np.ones((n_dims, 1), bool)], axis=1)
    budget = min(_CANDIDATE_ELEMENTS, _BLOCK_ROWS * n)
    pending = full_rows
    for level in GridIndex(xt[:, full_rows], p, full_rows).levels:
        if pending.size == 0:
            break
        limit = np.empty(n)
        with np.errstate(over="ignore"):
            limit[full_rows] = level.bound * level.bound / n_dims
        members = level.members
        slots, near_starts, near_counts = _neighbourhoods(level)
        # Pending rows by (candidate width, cell), batched under the
        # element budget, each batch padded to its widest row; rows with
        # fewer than p other candidates wait for a coarser level.
        width = near_counts.sum(axis=1) + blank_rows.size
        asked = np.zeros(n, dtype=bool)
        asked[pending] = True
        query, row_cell = members[asked[members]], slots[asked[members]]
        order = np.argsort(width[row_cell], kind="stable")
        query, row_cell = query[order], row_cell[order]
        row_width = width[row_cell]
        first = np.searchsorted(row_width, p + 1)
        query, row_cell, row_width = query[first:], row_cell[first:], row_width[first:]
        settled = np.zeros(n, dtype=bool)
        start = 0
        while start < query.size:
            load = np.arange(1, query.size - start + 1) * row_width[start:]
            stop = start + max(1, int(np.searchsorted(load, budget, side="right")))
            rows, batch = query[start:stop], row_cell[start:stop]
            # Rows of one cell are adjacent: build each cell's list once.
            new_cell = np.diff(batch, prepend=-1) != 0
            cand = _candidate_lists(
                near_starts[batch[new_cell]], near_counts[batch[new_cell]],
                members, blank_rows, int(row_width[stop - 1]), n,
            )[np.cumsum(new_cell) - 1]
            r = np.arange(rows.size)
            wq = None if wt is None else wt[:, rows, None]
            wc = None if wt is None else wt_pad[:, cand]
            dist = _masked_distances(xt[:, rows, None], xt_pad[:, cand], wq, wc,
                                     np.empty(cand.shape), np.empty(cand.shape))
            dist[r, np.count_nonzero(cand < rows[:, None], axis=1)] = np.inf  # self
            sel = smallest_p(dist, p)
            ok = dist[r, sel[:, -1]] < limit[rows]
            out[rows[ok]] = cand[r[ok, None], sel[ok]]
            settled[rows[ok]] = True
            start = stop
        pending = pending[~settled[pending]]
    return np.union1d(blank_rows, pending)


def _grid_cells(coords: np.ndarray, cell_points: float):
    """Uniform grid over the ``(G, m)`` coordinates of the full rows.

    Returns each row's cell id, the grid shape, each row's exclusion
    bound and the per-axis slab tables :func:`_locate` places points
    with, or ``None`` when the coordinates are not finite.  Cells are
    near-square with about ``cell_points`` rows each on average; an
    axis without spread (or too narrow to scale) keeps one slab.

    A row's bound is the smallest gap, along any grid axis, between its
    coordinate and the nearest coordinate of a row in a slab two or
    more slabs away (``inf`` where there is none).  A full row outside
    the 3 x 3 neighbourhood sits in such a slab on some axis, so its
    difference there is at least the gap.  Slabs come from ``floor``
    of a scaled offset, which is monotone, and the gap is measured to
    actual coordinates, so edge rounding cannot lose a row; the
    rounded gap, square, sum and division are each monotone too, so
    that row's *computed* distance is at least ``bound**2 / L`` as
    computed.
    """
    n_axes, m = coords.shape
    lo = coords.min(axis=1)
    span = coords.max(axis=1) - lo
    if not np.isfinite(span).all():
        return None
    with np.errstate(divide="ignore", over="ignore"):
        spread = span > 0
        shape = np.ones(n_axes, dtype=np.int64)
        if spread.any():
            target = max(1, int(m / cell_points))
            side = np.exp(np.log(span[spread]).mean() - np.log(target) / spread.sum())
            shape[spread] = np.clip(np.ceil(span[spread] / side), 1, target)
        scale = shape / span
    shape[~np.isfinite(scale)] = 1
    tables = []
    for g in np.flatnonzero(shape > 1):
        x, n_slabs = coords[g], int(shape[g])
        k = _slabs(x, lo[g], scale[g], n_slabs)
        top = np.full(n_slabs, -np.inf)
        np.maximum.at(top, k, x)
        bottom = np.full(n_slabs, np.inf)
        np.minimum.at(bottom, k, x)
        # below[k]: largest coordinate in slabs <= k - 2; above[k + 2]:
        # smallest in slabs >= k + 2.
        below = np.concatenate([[-np.inf, -np.inf], np.maximum.accumulate(top)])
        above = np.concatenate([np.minimum.accumulate(bottom[::-1])[::-1], [np.inf, np.inf]])
        tables.append((g, lo[g], scale[g], below, above))
    shape = tuple(int(k) for k in shape)
    slabs, bound = _locate(coords, shape, tables)
    return np.ravel_multi_index(tuple(slabs), shape), shape, bound, tables


def _slabs(x: np.ndarray, lo: float, scale: float, n_slabs: int) -> np.ndarray:
    """Slab of each coordinate: ``floor((x - lo) * scale)``, clipped in
    float into ``0..n_slabs - 1`` before the integer cast, so points
    outside the indexed range (an overflow to inf included) land in an
    edge slab.  Monotone in ``x``."""
    scaled = (x - lo) * scale
    np.maximum(scaled, 0, out=scaled)
    return np.minimum(scaled, n_slabs - 1, out=scaled).astype(np.int64)


def _locate(coords: np.ndarray, shape: tuple, tables: list):
    """Slab coordinates ``(G, m)`` and exclusion bounds of finite points.

    ``tables`` are :func:`_grid_cells`'s per-axis ``(axis, lo, scale,
    below, above)``.  The bound is a point's smallest gap, along any
    split axis, to the indexed coordinates two or more slabs away, so
    every indexed row outside the point's 3 x 3 neighbourhood differs
    from it by at least the bound on one axis.  This holds for points
    that are not indexed rows too, outside the indexed range included:
    slabs are monotone in the coordinate, so an indexed row two slabs
    below a point is below it.
    """
    slabs = np.zeros(coords.shape, dtype=np.int64)
    bound = np.full(coords.shape[1], np.inf)
    with np.errstate(over="ignore"):
        for g, lo, scale, below, above in tables:
            x = coords[g]
            k = slabs[g] = _slabs(x, lo, scale, shape[g])
            np.minimum(bound, x - below[k], out=bound)
            np.minimum(bound, above[k + 2] - x, out=bound)
    return slabs, bound


def _cell_members(rows: np.ndarray, cells: np.ndarray, shape: tuple):
    """``rows`` sorted by cell (index order within), and the start and
    length of every cell's run in that order."""
    counts = np.bincount(cells, minlength=int(np.prod(shape)))
    members = rows[np.argsort(cells, kind="stable")]
    return members, np.cumsum(counts) - counts, counts


def _neighbourhoods(level: _Level):
    """Neighbourhoods of a level's occupied cells.

    Returns ``(slots, near_starts, near_counts)``: each member's
    occupied-cell slot, and ``(slots, 3**G)`` arrays of the start and
    length, in the member order, of every neighbour cell.
    """
    occupied = np.flatnonzero(level.counts)
    slots = np.repeat(np.arange(occupied.size), level.counts[occupied])
    slabs = np.array(np.unravel_index(occupied, level.shape))
    return (slots,) + _near_ranges(slabs, level.shape, level.starts, level.counts)


def _near_ranges(slabs: np.ndarray, shape: tuple, starts: np.ndarray,
                 counts: np.ndarray):
    """``(c, 3**G)`` start and length, in the member order, of the cells
    around each of ``c`` cells given by slab coordinates ``(G, c)``
    (length 0 outside the grid)."""
    offsets = np.indices((3,) * len(shape)).reshape(len(shape), -1) - 1
    near = slabs[:, :, None] + offsets[:, None, :]
    inside = ((near >= 0) & (near < np.array(shape)[:, None, None])).all(axis=0)
    near_ids = np.ravel_multi_index(tuple(np.where(inside, near, 0)), shape)
    return starts[near_ids], np.where(inside, counts[near_ids], 0)


class _Level(NamedTuple):
    """One grid level: its shape and slab tables (:func:`_grid_cells`),
    each indexed point's exclusion bound, and the members sorted by cell
    with every cell's start and length in that order."""

    shape: tuple
    tables: list
    bound: np.ndarray
    members: np.ndarray
    starts: np.ndarray
    counts: np.ndarray


class GridIndex:
    """Uniform grid levels over a fixed point set, fine to coarse.

    Built over ``(L, n)`` coordinates (the first ``min(L, 2)`` are the
    grid axes), every point placed, with cells sized for ``p``
    neighbours on the levels of :data:`_LEVELS`.  ``rows`` names the
    points in :attr:`_Level.members` (default ``0..n-1``).  There are
    no levels when the coordinates are not finite.  The graph build
    (:func:`_grid_knn`) queries the indexed points themselves; the
    fold-in prior queries outside points, placed with :func:`_locate`,
    and reads their candidates from a level's table
    (:meth:`candidates`).  On a level, a point's candidates are the
    points of the 3 x 3 neighbourhood of its cell, and every other
    point differs from it by at least its exclusion bound on some grid
    axis (:func:`_locate`); the caller ranks candidates with its own
    distance form and keeps a point only when that bound proves no
    other point can tie or win.  The default ``p`` is the paper's
    recommended graph degree (Figure 7).
    """

    def __init__(self, coords: np.ndarray, p: int = 3,
                 rows: np.ndarray | None = None) -> None:
        rows = np.arange(coords.shape[1]) if rows is None else rows
        self.levels: list[_Level] = []
        for cell_points in _LEVELS:
            grid = _grid_cells(coords[:min(len(coords), 2)], cell_points * p)
            if grid is None:
                break
            cells, shape, bound, tables = grid
            self.levels.append(_Level(shape, tables, bound, *_cell_members(rows, cells, shape)))
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def candidates(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Every cell's 3 x 3 neighbourhood on level ``level``, as a table.

        Returns ``(table, width)``: row ``c`` of the ``(cells, w)`` table
        holds the points around cell ``c`` (a flat id, as
        ``np.ravel_multi_index`` gives it) in index order, padded with
        the index one past the largest point; ``width[c]`` counts them.
        ``w`` is the level's widest neighbourhood.  Built on first use
        and kept on the index, in int32 when the padding index fits:
        on the serve_foldin model (``N = 2000``) the three levels take
        1.6 MiB.
        """
        table = self._tables.get(level)
        if table is None:
            lv = self.levels[level]
            slabs = np.indices(lv.shape).reshape(len(lv.shape), -1)
            starts, counts = _near_ranges(slabs, lv.shape, lv.starts, lv.counts)
            width = counts.sum(axis=1)
            pad = int(lv.members.max()) + 1
            dtype = np.int32 if pad <= np.iinfo(np.int32).max else np.int64
            table = self._tables[level] = (
                _candidate_lists(starts, counts, lv.members, np.empty(0, dtype=np.int64),
                                 int(width.max()), pad, dtype),
                width,
            )
        return table


def _candidate_lists(starts: np.ndarray, counts: np.ndarray, members: np.ndarray,
                     blank_rows: np.ndarray, width: int, n: int,
                     dtype: type = np.int64) -> np.ndarray:
    """Each cell's candidates in index order, padded with the index ``n``.

    ``starts``/``counts`` are ``(cells, 3**G)`` ranges into ``members``;
    every cell gets ``blank_rows`` as well.
    """
    cand = np.full((counts.shape[0], width), n, dtype=dtype)
    cand[:, :blank_rows.size] = blank_rows
    per_cell = counts.sum(axis=1)
    rows = np.repeat(np.arange(counts.shape[0]), per_cell)
    cols = blank_rows.size + _ranges(np.zeros_like(per_cell), per_cell)
    cand[rows, cols] = members[_ranges(starts.ravel(), counts.ravel())]
    cand.sort(axis=1)
    return cand


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + c)`` over the pairs."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if ends.size else 0)
