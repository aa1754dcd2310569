"""Per-cell cover lists: the fold-in prior's candidate index.

The fold-in prior (:func:`repro.serving.foldin._spatial_prior`) needs a
new row's ``p`` nearest training rows.  A :class:`PriorCover`, built
once per model over the training locations, answers most rows from one
short list instead of a scan of all ``N``.

A uniform grid over the first ``min(L, 2)`` spatial axes tiles the
cover box: the training locations' range widened to the model's
observed coordinate range (the spatial columns of its
``column_low``/``column_high``), where requests come from.  It has
``N / _CELL_ROWS`` cells, so a cell holds 0.6 training rows on average
and more where rows bunch.  A cell's box spans its slabs on the grid
axes and the cover box on the others; its edges are exact, the
smallest float each slab holds, so a query lies in its cell's box or,
outside the cover box, beyond the box's own faces.  The cell stores
``r2``, about the ``p``-th smallest squared *farthest* distance from a
training row to the cell, and a list, in index order, of every
training row whose squared distance to the cell is below ``r2``.  A
query in the cell is within ``sqrt(r2)`` of at least ``p`` training
rows, so its ``p`` nearest are usually listed.

The bound, in computed arithmetic: every unlisted row is at least
``r2`` from any query of the cell, as computed.  On each axis the row's
difference to the query is at least its gap to the cell's box: inside
the box because the query is, and outside because every training row
lies in the cover box, so a query beyond a face is farther from each
row than the face is.  Rounding is monotone and both sums run in
column order.  The bound is tight (an unlisted row of lower index can
tie at ``r2``), so a query settles only strictly below it.

Any ``r2`` keeps the bound true; a larger one lists and settles more.
The build gathers, per cell, the rows of the block of cells around it
that can hold them (bounds on the slabs from a summed-area table of
cell counts, then from ``sqrt(r2)``), so it makes no ``cells x N``
pass.  A cell whose block is too wide (:data:`_MAX_RING`) or holds too
many rows (:data:`_MAX_LIST`) gets no list and its queries scan, so
the build's work and the lists are ``O(N)``.  The lists are sized by a
counting pass, which keeps one bit per measured row, and then filled
in place, so the build's scratch beyond the cover stays a few
``cells``-long arrays and one run of cells' rows.
"""

from __future__ import annotations

import numpy as np

from ..spatial.similarity import _grid_shape, _ranges, _slabs

__all__ = ["PriorCover"]

_CELL_ROWS = 0.6
"""Mean training rows per cover cell.  Finer cells make shorter lists
(cheaper queries) but more of them (a longer build, more memory), and
need a wider :data:`_MAX_RING` to keep the same share of queries
listed.  Chosen with it under two bounds: the build measures at most
100 rows per training row on 20,000 clustered rows
(``test_build_gathers_linear_in_rows``), and no larger share of the
serve_foldin generator's query rows goes unlisted at 2,000, 8,000 and
100k training rows.  Query-weighted list widths there, against 1.0
row per cell with rings of 8: 49.5 (68.2), 88.7 (118) and 121 (146)
rows; 0.5/12 and 0.25/16 lists are shorter but measure 104 and 160
rows per training row, 0.5/8 leaves 3.8% of the 8,000-row model's
queries unlisted (1.1%)."""

_MAX_LIST = 4096
"""Most rows one cell's block of cells may hold, in each build pass; a
cell past it gets no list and its queries scan.  Caps the build's work
and the lists at ``_MAX_LIST / _CELL_ROWS`` per training row however
the locations cluster.  On a 100k-row model of the serve_foldin
generator (1.0 row per cell), 1,024 left 7.6% of its data rows'
queries in capped cells and 4,096 1.4% (another 15.7% land past
:data:`_MAX_RING`), for 7.1 and 9.5 MiB of lists; the models of 2,000
and 8,000 rows cap no cell."""

_MAX_RING = 11
"""Widest square of cells, in cells each way from its own, that a cell
searches for its ``p`` nearest rows; a cell that needs more (far from
every training row) gets no list and its queries scan.  Caps the
build's blocks at ``O(_MAX_RING)`` runs of cells.  11 cells of 0.6
rows reach about as far as 8 cells of 1.0 row.  Cells without a list
(past this or :data:`_MAX_LIST`) hold 0.02% of serve_foldin's query
rows, 0.98% at 8,000 training rows and 13.5% at 100k (0.02%, 1.07% and
14.0% at 1.0/8)."""

_BUILD_ROWS = 1 << 14
"""Rows the build measures at once, so its scratch stays small: about
2 MiB."""

_SLACK = 2.0 ** -30
"""Relative margin by which the build widens the slabs it searches, so
that rounding in ``sqrt(r2)`` cannot hide a row nearer than ``r2``."""


class PriorCover:
    """Per-cell candidate lists over ``(L, N)`` training locations.

    The cover is built for ``p`` neighbours; queries for another ``p``
    stay exact, they just settle less often.  ``low``/``high`` are the
    model's observed spatial ranges (``None`` when the model keeps
    none; non-finite ends are ignored).  When the locations or the
    cover box's spans are not finite there is no cover (``usable`` is
    false) and every query scans.

    ``lists`` holds every cell's list, from ``starts[c]``, ``widths[c]``
    long; ``points`` is the locations.
    """

    def __init__(self, locations: np.ndarray, p: int, low: np.ndarray | None = None,
                 high: np.ndarray | None = None) -> None:
        n_spatial, n = locations.shape
        lo, hi = locations.min(axis=1), locations.max(axis=1)
        finite = np.isfinite(lo).all() and np.isfinite(hi).all()
        if low is not None:
            lo = np.fmin(lo, np.where(np.isfinite(low), low, np.nan))
            hi = np.fmax(hi, np.where(np.isfinite(high), high, np.nan))
        self.usable = bool(finite and np.isfinite(hi - lo).all())
        if not self.usable:
            return
        self.lo, self.hi = lo, hi
        self.axes = min(n_spatial, 2)
        shape, self.scale = _grid_shape(hi[:self.axes] - lo[:self.axes], n / _CELL_ROWS)
        self.shape = tuple(int(k) for k in shape)
        self.edges = [self._edges(g) for g in range(self.axes)]
        self.points = locations

        cells = self._cells(locations)
        n_cells = int(np.prod(self.shape))
        members = np.argsort(cells, kind="stable")
        sorted_locations = locations[:, members]
        counts = np.bincount(cells, minlength=n_cells)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        table = _summed_area(counts.reshape(self.shape))
        del cells, counts

        # r2: about the p-th smallest farthest distance over the rows of
        # the smallest square of cells around the cell that holds p.  A
        # cell whose square is wider than _MAX_RING cells each way, or
        # holds more than _MAX_LIST rows, gets r2 = 0 and no list.
        slabs = np.array(np.unravel_index(np.arange(n_cells), self.shape))
        ring = _rings_holding(table, slabs, min(p, n))
        first = np.maximum(slabs - ring, 0)
        last = np.minimum(slabs + ring, np.array(self.shape)[:, None] - 1)
        last[:, ring[0] > _MAX_RING] = -1
        del slabs, ring
        self.r2 = np.zeros(n_cells)
        for part in _parts(table, first, last):
            held, at = self._gather(first[:, part], last[:, part], bounds)
            far = _distance2(sorted_locations[:, at], self._box(part), held, far=True)
            self.r2[part][held > 0] = _group_kth(far, held[held > 0], min(p, n))

        # Lists: every row nearer the cell than r2, from the slabs its
        # box widened by sqrt(r2) reaches (the slab function is
        # monotone, and the widening is rounded outward).  A counting
        # pass measures the rows and keeps which to list as bits, so the
        # lists are sized first and filled in place; cells come in runs,
        # so sorting each run's rows by (cell, index) orders them all.
        with np.errstate(over="ignore", invalid="ignore"):
            margin = np.sqrt(self.r2) * (1 + _SLACK)
        low, high = self._box(slice(0, n_cells))
        first = np.array([self._slabs(low[g] - margin, g) for g in range(self.axes)])
        last = np.array([self._slabs(high[g] + margin, g) for g in range(self.axes)])
        last[:, self.r2 == 0] = -1
        del margin, low, high
        parts = _parts(table, first, last)
        del table
        self.widths = np.zeros(n_cells, dtype=np.int64)
        kept = []
        for part in parts:
            held, at = self._gather(first[:, part], last[:, part], bounds)
            keep = _distance2(sorted_locations[:, at], self._box(part), held) \
                < np.repeat(self.r2[part], held)
            self.widths[part] = np.diff(np.concatenate([[0], np.cumsum(keep)])[np.cumsum(held)],
                                        prepend=0)
            kept.append(np.packbits(keep))
        del sorted_locations
        self.r2[(last < 0).any(axis=0)] = 0.0
        self.starts = np.cumsum(self.widths) - self.widths
        self.lists = np.empty(int(self.widths.sum()), dtype=np.int32 if n < 2**31 else np.int64)
        for part, bits in zip(parts, kept):
            held, at = self._gather(first[:, part], last[:, part], bounds)
            keep = np.unpackbits(bits, count=at.size).view(bool)
            keys = np.repeat(np.arange(held.size) * n, held)[keep]
            keys += members[at[keep]]
            keys.sort()
            fill = self.starts[part.start]
            np.remainder(keys, n, out=self.lists[fill:fill + keys.size], casting="unsafe")

    @property
    def nbytes(self) -> int:
        """Bytes of the lists, their starts and widths, and ``r2``."""
        if not self.usable:
            return 0
        return self.lists.nbytes + self.starts.nbytes + self.widths.nbytes + self.r2.nbytes

    def locate(self, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cells and settle bounds of ``(L, B)`` finite query points.

        Returns ``(cells, limit)``: a query whose ``p``-th smallest
        squared distance over its cell's list (computed in column order,
        as :func:`repro.serving.foldin._prior_distances` does) is
        strictly below ``limit`` has every unlisted training row
        strictly farther, as computed (see the module docstring).
        ``limit`` is its cell's ``r2``, 0 for a cell without a list.
        """
        cells = self._cells(xq)
        return cells, self.r2[cells]

    def _slabs(self, x: np.ndarray, g: int) -> np.ndarray:
        """Slabs of coordinates on grid axis ``g`` (monotone in ``x``; see
        :func:`repro.spatial.similarity._slabs`), quietly through an
        overflow or an axis of one slab."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _slabs(x, self.lo[g], self.scale[g], self.shape[g])

    def _cells(self, points: np.ndarray) -> np.ndarray:
        """Flat cell id of ``(L, m)`` points."""
        cells = self._slabs(points[0], 0)
        if self.axes == 2:
            cells = cells * self.shape[1] + self._slabs(points[1], 1)
        return cells

    def _edges(self, g: int) -> np.ndarray:
        """Slab edges on grid axis ``g``: the cover box's ends and, in
        between, the smallest float of each slab, so a coordinate in the
        box lies within its slab's edges.  Found by bisection on the
        floats' order, from a few floats around the nominal edge or,
        where rounding moved the edge farther (a coordinate far smaller
        than the box's end), from half a slab either side."""
        k = np.arange(1, self.shape[g])
        nominal = _ordered(self.lo[g] + k / self.scale[g])
        below, above = nominal - 4, nominal + 4
        loose = (self._slabs(_unordered(below), g) >= k) | (self._slabs(_unordered(above), g) < k)
        below[loose] = _ordered(self.lo[g] + (k[loose] - 0.5) / self.scale[g])
        above[loose] = _ordered(self.lo[g] + (k[loose] + 0.5) / self.scale[g])
        while (above > below + 1).any():
            mid = (below >> 1) + (above >> 1) + (below & above & 1)
            up = self._slabs(_unordered(mid), g) >= k
            above, below = np.where(up, mid, above), np.where(up, below, mid)
        return np.concatenate([[self.lo[g]], _unordered(above), [self.hi[g]]])

    def _box(self, part: slice) -> tuple[list, list]:
        """Low and high ends, per axis, of a run of cells' boxes: their
        slabs' edges on the grid axes, the cover box's on the others."""
        slabs = np.unravel_index(np.arange(part.start, part.stop), self.shape)
        low, high = list(self.lo), list(self.hi)
        for g in range(self.axes):
            low[g], high[g] = self.edges[g][slabs[g]], self.edges[g][slabs[g] + 1]
        return low, high

    def _gather(self, first: np.ndarray, last: np.ndarray,
                bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows in each of some cells' blocks of cells, slabs
        ``first`` to ``last`` per grid axis (none where ``last`` is -1),
        as positions in the cell-sorted order (where ``bounds`` delimits
        each cell's run), grouped by cell; and how many each cell got.
        """
        n_cells = first.shape[1]
        if self.axes == 1:
            run_cell, start = np.arange(n_cells), bounds[first[0]]
            stop = np.maximum(bounds[last[0] + 1], start)
        else:
            runs = np.maximum(last[0] - first[0] + 1, 0)
            run_cell = np.repeat(np.arange(n_cells), runs)
            slab = _ranges(first[0], runs)
            low, high = first[1][run_cell], last[1][run_cell]
            start = bounds[slab * self.shape[1] + low]
            stop = np.maximum(bounds[slab * self.shape[1] + high + 1], start)
        held = np.bincount(run_cell, weights=stop - start, minlength=n_cells).astype(np.int64)
        return held, _ranges(start, stop - start)


def _ordered(x: np.ndarray) -> np.ndarray:
    """int64 keys in the order of the finite floats ``x``."""
    bits = np.asarray(x, dtype=np.float64).view(np.int64)
    return np.where(bits < 0, -(bits & np.int64(2**63 - 1)), bits)


def _unordered(key: np.ndarray) -> np.ndarray:
    """The floats of :func:`_ordered` keys."""
    return np.where(key < 0, -key | np.int64(-2**63), key).view(np.float64)


def _summed_area(counts: np.ndarray) -> np.ndarray:
    """Summed-area table of a grid of counts, zero-padded in front."""
    table = np.zeros(tuple(k + 1 for k in counts.shape), dtype=np.int64)
    table[tuple(slice(1, None) for _ in counts.shape)] = counts
    for axis in range(counts.ndim):
        np.cumsum(table, axis=axis, out=table)
    return table


def _block_counts(table: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Rows in each block of cells, slabs ``first`` to ``last`` per axis
    (``(G, c)``; 0 where ``last`` is -1), from a summed-area table."""
    held = 0
    for corner in np.ndindex(*(2,) * table.ndim):
        index = tuple(np.where(c, last[g] + 1, first[g]) for g, c in enumerate(corner))
        held = held + (-1) ** (table.ndim - sum(corner)) * table[index]
    return np.where((last >= 0).all(axis=0), held, 0)


def _rings_holding(table: np.ndarray, slabs: np.ndarray, p: int) -> np.ndarray:
    """Per cell, the radius in slabs of the smallest square of cells
    around it that holds ``p`` rows, by bisection on the summed-area
    ``table``; ``(G, cells)``."""
    top = np.array(table.shape)[:, None] - 2
    low = np.zeros(slabs.shape[1], dtype=np.int64)
    high = np.full(slabs.shape[1], int(top.max()) + 1)
    while (low < high).any():
        mid = (low + high) // 2
        enough = _block_counts(table, np.maximum(slabs - mid, 0), np.minimum(slabs + mid, top)) >= p
        high = np.where(enough, mid, high)
        low = np.where(enough, low, mid + 1)
    return np.broadcast_to(low, slabs.shape)


def _parts(table: np.ndarray, first: np.ndarray, last: np.ndarray) -> list[slice]:
    """Runs of cells whose blocks (slabs ``first`` to ``last``) hold
    about :data:`_BUILD_ROWS` rows together, so the build's scratch
    stays small.  A block holding more than :data:`_MAX_LIST` rows is
    emptied first (its ``last`` set to -1)."""
    held = _block_counts(table, first, last)
    last[:, held > _MAX_LIST] = -1
    held[held > _MAX_LIST] = 0
    cuts = np.searchsorted(np.cumsum(held), np.arange(_BUILD_ROWS, held.sum(), _BUILD_ROWS))
    edges = np.unique(np.concatenate([[0], cuts, [held.size]]))
    return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]


def _distance2(points: np.ndarray, box: tuple, held: np.ndarray, far: bool = False) -> np.ndarray:
    """Squared distance, in column order, from ``(L, m)`` points to the
    box of their cell (``held`` points per cell, in cell order; ``box``
    is per axis the cells' low and high ends, or scalars), or to the
    box's farthest point."""
    out = np.zeros(points.shape[1])
    with np.errstate(over="ignore"):
        for x, lo, hi in zip(points, *box):
            if np.ndim(lo):
                lo, hi = np.repeat(lo, held), np.repeat(hi, held)
            if far:
                gap = np.maximum(x - lo, hi - x)
            else:
                gap = np.maximum(lo - x, x - hi)
                np.maximum(gap, 0.0, out=gap)
            gap *= gap
            out += gap
    return out


def _group_kth(values: np.ndarray, held: np.ndarray, k: int) -> np.ndarray:
    """About the ``k``-th smallest of each group of ``values`` (``held``
    per group, in order, each at least ``k``): a value of the group
    whose rank is ``k`` up to ties within ~2**-36 of the largest.

    One float argsort of ``group + value / top``, with ``top`` twice
    the largest finite value (an overflowed value sorts as ``top / 2``),
    where a two-key ``lexsort`` took ten times as long.
    """
    finite = values[np.isfinite(values)]
    top = 2.0 * finite.max() if finite.size and finite.max() > 0 else 1.0
    key = np.repeat(np.arange(held.size, dtype=np.float64), held)
    key += np.minimum(values / top, 0.5)
    return values[np.argsort(key)[np.cumsum(held) - held + k - 1]]
