"""Fold-in imputation: new partially observed rows, no refit.

A fitted factor model freezes the feature matrix ``V`` (``K x M``); a
new tuple ``x`` with observation pattern ``m`` then has a closed-form
row embedding - the ridge-regularised masked least squares

    u* = argmin_u || diag(m) (x - u V) ||^2 + ridge ||u||^2
       = (V diag(m) V^T + ridge I)^{-1} V diag(m) x

an ``O(M K^2)`` solve per request against a ``K x K`` system, versus a
full refit's ``O(t1 N M K)``.  For the nonnegative family (every
registered NMF/SMF/SMFL update rule constrains ``U >= 0``) the solution
is projected onto the feasible orthant (``u = max(u*, 0)``), matching
the constraint the training rows satisfied.  The imputed row is
``m ? x : clip(u* V)`` with the model's stored per-column observed
bounds - the same Formula 8 contract as training-time imputation.

**The spatial prior.**  The plain per-row solve is honest but
near-interpolating: with rank ``K`` close to the number of observed
cells of a row, ``u*`` chases the observed values and extrapolates
badly at the unobserved ones.  Training rows never suffer this because
SMF/SMFL's graph regularizer smooths each embedding toward its spatial
neighbours (Section II-C).  Fold-in carries the same idea to serving:
for spatial models the new row's ``p`` nearest *training* rows (by
spatial coordinates - recovered from the factors as ``U V[:, :L]`` and
cached on the model, so the artifact needs no extra state) define an
inverse-distance-weighted prior embedding ``u0``, and the solve becomes

    u* = argmin_u || diag(m) (x - u V) ||^2 + ridge ||u||^2
                  + smooth ||u - u0||^2

- still one ``K x K`` system per row (``smooth`` joins the diagonal,
``smooth * u0`` joins the right-hand side).  On the paper's synthetic
setup this closes the held-out gap entirely (the serving benchmark's
``rms_ratio`` acceptance); ``spatial_smoothing=0`` recovers the plain
ridge solve, and non-spatial models never use the prior.

This is the serving story SMFL's frozen landmark block makes natural:
the landmark columns of ``V`` never moved during training, so a row
folded in months later still expresses its spatial membership against
the *same* landmarks the artifact recorded.

Batching: ``B`` requests stack into two gemms - ``rhs = X_z V^T``
(``B x K``) and the batched Gram build ``G_b = (m_b * V) V^T``
(``B x K x K`` via one ``matmul``) - followed by one batched
``solve``.  When every request shares the observation pattern (the
common "sensor column dropped out" case) and the prior weight, the
Gram matrix is built and factorised once for the whole batch.
Scratch memory comes from a
:class:`~repro.engine.workspace.BufferArena`, so a long-lived server
(see :mod:`repro.serving.service`) reaches zero steady-state
allocations for same-shape batches.  The spatial prior ranks each
row's candidate training rows by squared distance, one spatial
coordinate at a time, and keeps the ``p`` nearest in (distance, index)
order.  In a batch of a dozen rows or more a fully observed row's
candidates are one list: its cell's list in the model's cover
(:attr:`FittedModel.training_cover`, :mod:`repro.serving.cover`),
built once per model in a flat int32 layout (0.4 MiB on the
serve_foldin model).  The rows' lists are gathered back to back,
unpadded, and ranked by segmented minimum passes; a row's picks are
kept only when the cover's bound proves no unlisted training row is as
near.  Every other row scans all ``N`` training
rows, in two grow-only ``B x N`` arena blocks (the running sum and the
current coordinate's term) that every batch size shares; no
``B x N x L`` block exists.  Both paths select the same neighbours bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.workspace import BufferArena
from ..exceptions import ValidationError
from ..masking.mask import ObservationMask
from ..model.fitted import FittedModel, coerce_observations
from ..spatial.neighbors import smallest_p
from ..spatial.similarity import _CANDIDATE_ELEMENTS, _ranges
from ..validation import check_nonnegative, check_positive_int
from .cover import PriorCover

__all__ = [
    "DEFAULT_PRIOR_NEIGHBORS",
    "DEFAULT_RIDGE",
    "DEFAULT_SMOOTHING",
    "FoldInResult",
    "fold_in",
    "fold_in_row",
]

DEFAULT_RIDGE = 1e-6
"""Default Tikhonov weight of the fold-in solve.

Small enough not to bias well-observed rows, large enough to keep the
Gram matrix positive definite when a row observes fewer than ``K``
columns (including the zero-observed row, whose embedding is exactly 0).
"""

DEFAULT_SMOOTHING = 0.3
"""Default spatial-prior weight ``smooth`` for spatial models.

The serving analogue of SMF's regularization weight lambda (whose
recommended region is 0.05-0.1 at training time; the per-row prior
tolerates a broader band, and the held-out rms ratio is flat across
0.1-1.0 on the paper's synthetic setup).  Only applies when the model
has spatial columns and stored row embeddings."""

DEFAULT_PRIOR_NEIGHBORS = 3
"""Training neighbours per prior - the paper's recommended graph
degree ``p`` (Figure 7)."""


@dataclass(frozen=True)
class FoldInResult:
    """One fold-in answer: embeddings + imputed rows + bookkeeping."""

    #: ``(B, K)`` row embeddings (the new rows of ``U``).
    u_new: np.ndarray
    #: ``(B, M)`` imputed rows: observed cells verbatim, the rest from
    #: ``u_new @ V`` clipped to the model's observed column bounds.
    imputed: np.ndarray
    #: Boolean ``(B, M)`` observation mask the request carried.
    observed: np.ndarray
    #: Whether all rows shared one observation pattern and one prior
    #: weight, so one Gram matrix served the batch (fast path).
    shared_pattern: bool
    #: Ridge weight used by the solve.
    ridge: float
    #: Whether the nonnegativity projection was applied.
    nonnegative: bool
    #: Spatial-prior weight the solve used (0 when no prior applied).
    spatial_smoothing: float = 0.0

    @property
    def n_rows(self) -> int:
        return int(self.u_new.shape[0])


def _coerce_rows(
    model: FittedModel, x_new: np.ndarray, mask: object
) -> tuple[np.ndarray, ObservationMask, bool]:
    """Normalise a fold-in request into ``(B, M)`` data + mask.

    Accepts a single ``(M,)`` row or a ``(B, M)`` batch; returns the
    zero-filled matrix, the mask, and whether the input was 1-D (so
    convenience wrappers can unwrap their answer).
    """
    x_arr = np.asarray(x_new, dtype=np.float64)
    was_row = x_arr.ndim == 1
    if was_row:
        x_arr = x_arr[None, :]
        if mask is not None and not isinstance(mask, ObservationMask):
            mask_arr = np.asarray(mask)
            if mask_arr.ndim == 1:
                mask = mask_arr[None, :]
    x, observation = coerce_observations(x_arr, mask)
    if x.shape[1] != model.n_cols:
        raise ValidationError(
            f"fold-in rows have {x.shape[1]} columns, model was fitted "
            f"on {model.n_cols}"
        )
    if model.nonnegative:
        # The contract fit enforces: ``x`` is zero-filled off the mask,
        # so this checks exactly the observed cells.
        check_nonnegative(x, name="observed entries of X")
    return x, observation, was_row


_GRID_MIN_ROWS = 12
"""Smallest batch whose prior tries the cover.

A batch this large ranks its fully observed rows on
:attr:`FittedModel.training_cover` instead of scanning all ``N``
training rows; smaller batches scan.  Both paths select the same
neighbours, so the number only moves time.  The cover's cost per batch
is locating the rows and ranking their lists, with a fixed part that a
one-row scan beats.  Timed interleaved against the scan (one BLAS
thread, medians of 600 batches per size of serve_foldin's held-out
rows, on the serve_foldin model and on one fitted to 8,000 rows of the
same generator), cover over scan: at ``N = 2000`` 1.10 at 8 rows, 1.07
at 10, 0.93 at 12 and 0.74 at 16; at ``N = 8000`` 1.76 at 1 row, 0.97
at 4 and 0.70 at 8.  The crossover falls as the scan grows with ``N``;
the cut-over is the ``N = 2000`` one, so serve_foldin's 16-row
requests take the cover."""

_MAX_PASSES = 8
"""Largest ``p`` selected by ``p`` passes of ``argmin`` (or, on the
cover, of segmented minima); a larger ``p`` scans, through
:func:`~repro.spatial.neighbors.smallest_p`."""


def _spatial_prior(
    model: FittedModel,
    x: np.ndarray,
    observed: np.ndarray,
    p_neighbors: int,
    arena: BufferArena,
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-distance prior embeddings from the nearest training rows.

    Returns ``(u_prior, active)``: the ``(B, K)`` prior and a ``(B,)``
    float mask that is 1 for rows with at least one observed spatial
    coordinate and a finite distance to some training row (other rows
    get no prior, and a zero ``u_prior``).  Training row locations are
    :attr:`FittedModel.training_locations` - recovered from the factors,
    nothing beyond the artifact is needed.

    A row's ``p`` nearest training rows, in (distance, index) order,
    come from one of two paths with the same distance form and the same
    selection, so they agree bit for bit: in a batch of at least
    :data:`_GRID_MIN_ROWS` rows, for ``p`` up to :data:`_MAX_PASSES`,
    a row whose spatial coordinates are all observed and finite is
    tried on the model's cover
    (:func:`_cover_nearest`); every other row scans all ``N``.
    """
    locations = model.training_locations  # (L, N), cached on the model
    n_spatial = model.n_spatial
    spatial_observed = observed[:, :n_spatial]
    active = spatial_observed.any(axis=1).astype(np.float64)
    n_rows, n_train = x.shape[0], locations.shape[1]
    p = min(p_neighbors, n_train)

    scan = np.arange(n_rows)
    nearest = np.empty((n_rows, p), dtype=np.int64)
    nearest_d2 = np.empty((n_rows, p))
    if n_rows >= _GRID_MIN_ROWS and p <= _MAX_PASSES and model.training_cover.usable:
        cover = model.training_cover
        placed = spatial_observed.all(axis=1) & np.isfinite(x[:, :n_spatial]).all(axis=1)
        pending = ~placed
        pending[_cover_nearest(cover, x, np.flatnonzero(placed), p, nearest, nearest_d2)] = True
        scan = np.flatnonzero(pending)
    if scan.size:
        # Squared distance over each row's *observed* spatial dimensions
        # only (zero-filled unobserved coordinates must not count).  Both
        # (B, N) blocks are grow-only arena buffers: allocated per
        # request, a 256-row batch's megabytes can be mapped and unmapped
        # by the allocator on every request, paying page faults each time.
        whole = scan.size == n_rows
        d2 = arena.rows("foldin.prior_d2", scan.size, (n_train,))
        _prior_distances(
            (x if whole else x[scan]).T[:n_spatial, :, None], locations,
            ~(spatial_observed if whole else spatial_observed[scan]),
            d2, arena.rows("foldin.prior_term", scan.size, (n_train,)),
        )
        nearest[scan], nearest_d2[scan] = _nearest(d2, p)

    with np.errstate(over="ignore", invalid="ignore"):
        weights = 1.0 / np.maximum(nearest_d2, 1e-12)
        weights /= weights.sum(axis=1, keepdims=True)
        u_prior = np.einsum("bp,bpk->bk", weights, model.u[nearest])

    # Every distance of a row overflowed: its weights are 0/0.
    unreachable = ~np.isfinite(nearest_d2.min(axis=1))
    if unreachable.any():
        active[unreachable] = 0.0
        u_prior[unreachable] = 0.0
    return u_prior, active


def _prior_distances(xs, points, blank, out: np.ndarray, term: np.ndarray) -> None:
    """The prior's squared distances, ``sum_l m_l (x_l - t_l)**2``, into ``out``.

    Accumulated one coordinate at a time in column order: ``xs[l]``
    (the queries' coordinate ``l``) broadcasts against ``points[l]``
    (the training rows').  For L < 8 these are the additions, in the
    order, of numpy's pairwise sum over a ``(B, N, L)`` block, so the
    result is bit-identical to reducing one, and every path that
    evaluates a pair gets the same bits.  Multiplying by a mask of 1 is
    exact, so only rows that leave the coordinate blank (``blank``,
    ``None`` for none) are multiplied (by 0).  A huge observed
    coordinate may overflow to inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for col, (x_col, point) in enumerate(zip(xs, points)):
            dest = term if col else out
            np.subtract(x_col, point, out=dest)
            np.square(dest, out=dest)
            if blank is not None and blank[:, col].any():
                dest[blank[:, col]] *= 0.0
            if col:
                out += term


def _nearest(d2: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``p`` smallest entries by (value, column): columns, values.

    Exactly :func:`~repro.spatial.neighbors.smallest_p`'s selection, by
    ``p`` passes of ``argmin`` (which returns the first, so the
    lowest-column, minimum), each masking its pick with inf, at less
    than one ``argpartition``'s cost.  Rows with a pick that is not
    finite (a tie at inf, or NaN) go through ``smallest_p``, as does
    every row when ``p`` exceeds :data:`_MAX_PASSES`.  ``d2`` (C
    contiguous) is restored before returning.
    """
    n_rows, width = d2.shape
    if p > _MAX_PASSES:
        cols = smallest_p(d2, p)
        return cols, np.take_along_axis(d2, cols, axis=1)
    if n_rows == 1:
        # Scalar passes skip the per-pass array calls: on the
        # serve_foldin model the 1-row prior takes 91 us this way, 119 us
        # through the general branch (medians, interleaved).
        row = d2[0]
        picks = []
        for _ in range(p):
            k = int(row.argmin())
            picks.append((k, row[k]))
            row[k] = np.inf
        for k, value in reversed(picks):
            row[k] = value
        cols = np.array([[k for k, _ in picks]], dtype=np.int64)
        vals = np.array([[value for _, value in picks]])
    else:
        base = np.arange(0, n_rows * width, width)
        flat = np.empty((p, n_rows), dtype=np.int64)
        vals = np.empty((p, n_rows))
        for j in range(p):
            np.add(d2.argmin(axis=1), base, out=flat[j])
            np.take(d2, flat[j], out=vals[j])
            np.put(d2, flat[j], np.inf)
        for j in reversed(range(p)):
            np.put(d2, flat[j], vals[j])
        cols, vals = (flat - base).T, vals.T
    bad = ~np.isfinite(vals).all(axis=1)
    if bad.any():
        cols[bad] = smallest_p(d2[bad], p)
        vals[bad] = np.take_along_axis(d2[bad], cols[bad], axis=1)
    return cols, vals


def _cover_nearest(
    cover: PriorCover,
    x: np.ndarray,
    rows: np.ndarray,
    p: int,
    nearest: np.ndarray,
    nearest_d2: np.ndarray,
) -> np.ndarray:
    """Fill ``nearest[rows]`` where the cover settles; return the rest.

    ``rows`` have every spatial coordinate observed and finite.  Each
    is ranked against its cell's list (:class:`PriorCover`, built once
    per model, index-ordered) with the scan's distance form and
    :func:`_nearest`'s (distance, index) selection: the rows' lists are
    gathered back to back, unpadded, in chunks of at most
    ``_CANDIDATE_ELEMENTS`` (:func:`_chunks`), and
    :func:`_segment_nearest` picks each list's ``p`` nearest.  A row is
    settled when its ``p``-th distance is strictly below its bound from
    :meth:`PriorCover.locate`, as no unlisted training row can then tie
    or beat it; the other rows, and rows whose list holds fewer than
    ``p``, are returned for the scan.
    """
    xq = np.ascontiguousarray(x[rows, :cover.points.shape[0]].T)
    cells, limit = cover.locate(xq)
    start, width = cover.starts[cells], cover.widths[cells]
    listed = (width >= p).nonzero()[0]
    unsettled = np.ones(rows.size, dtype=bool)
    for chunk in _chunks(width[listed]):
        q = listed[chunk]
        cand = cover.lists[_ranges(start[q], width[q])]
        dist = np.empty(cand.size)
        _prior_distances(xq[:, q].repeat(width[q], axis=1), cover.points.take(cand, axis=1),
                         None, dist, np.empty(cand.size))
        picks, vals = _segment_nearest(dist, width[q], p)
        ok = (vals[:, -1] < limit[q]).nonzero()[0]
        nearest[rows[q[ok]]] = cand[picks[ok]]
        nearest_d2[rows[q[ok]]] = vals[ok]
        unsettled[q[ok]] = False
    return rows[unsettled]


def _chunks(width: np.ndarray) -> list[slice]:
    """Runs of consecutive rows whose lists, ``width`` long, hold at most
    ``_CANDIDATE_ELEMENTS`` elements together; a wider row is a run of
    its own."""
    ends = np.cumsum(width)
    runs, first = [], 0
    while first < width.size:
        budget = _CANDIDATE_ELEMENTS + (ends[first - 1] if first else 0)
        stop = max(first + 1, int(np.searchsorted(ends, budget, side="right")))
        runs.append(slice(first, stop))
        first = stop
    return runs


def _segment_nearest(dist: np.ndarray, width: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Each segment's ``p`` smallest entries by (value, position):
    positions in ``dist``, values.

    ``dist`` is segments of ``width`` (each at least ``p``) back to
    back, with no NaN; it is overwritten.  ``p`` segmented passes: the
    minimum of each segment (``np.minimum.reduceat``), then the first
    position holding it, masked with inf for the next pass.  A segment
    whose ``k``-th pick is inf has no defined picks after it, but its
    ``p``-th value is inf.
    """
    offsets = np.cumsum(width) - width
    picks = np.empty((p, width.size), dtype=np.int64)
    vals = np.empty((p, width.size))
    for j in range(p):
        np.minimum.reduceat(dist, offsets, out=vals[j])
        hits = (dist == vals[j].repeat(width)).nonzero()[0]
        hits.take(hits.searchsorted(offsets), out=picks[j])
        dist[picks[j]] = np.inf
    return picks.T, vals.T


def fold_in(
    model: FittedModel,
    x_new: np.ndarray,
    mask: object = None,
    *,
    ridge: float = DEFAULT_RIDGE,
    spatial_smoothing: float | None = None,
    p_neighbors: int = DEFAULT_PRIOR_NEIGHBORS,
    nonnegative: bool | None = None,
    arena: BufferArena | None = None,
) -> FoldInResult:
    """Impute new partially observed rows against the frozen ``V``.

    Parameters
    ----------
    model:
        A factor-flavour :class:`~repro.model.FittedModel` (estimate
        models have no ``V`` to fold against and raise).
    x_new:
        ``(B, M)`` batch (or a single ``(M,)`` row); NaN cells are
        unobserved when ``mask`` is omitted.
    mask:
        Optional boolean array / :class:`ObservationMask` overriding
        NaN detection.
    ridge:
        Tikhonov weight of the per-row solve (:data:`DEFAULT_RIDGE`).
    spatial_smoothing:
        Weight of the spatial-neighbour prior (see the module
        docstring).  ``None`` (default) resolves to
        :data:`DEFAULT_SMOOTHING` for spatial models and to 0
        otherwise; pass 0 to force the plain ridge solve.
    p_neighbors:
        Training neighbours per prior, a positive integer
        (:data:`DEFAULT_PRIOR_NEIGHBORS`); more than the model's
        training rows means all of them.  Neighbours are the nearest
        by squared distance over the row's observed spatial
        coordinates; a tie at the ``p``-th distance goes to the lower
        training index.
    nonnegative:
        Project embeddings onto ``u >= 0``.  Default ``None`` follows
        the model (the NMF family projects, hypothetical unconstrained
        factor models would not).
    arena:
        Optional :class:`~repro.engine.workspace.BufferArena` whose
        scratch buffers are reused across calls (the serving loop's
        zero-allocation path).
    """
    if not model.is_factor_model:
        raise ValidationError(
            f"fold-in needs a factor model; {model.method!r} carries only "
            "a dense estimate"
        )
    if ridge <= 0.0:
        raise ValidationError(f"ridge must be positive, got {ridge}")
    p_neighbors = check_positive_int(p_neighbors, name="p_neighbors")
    if nonnegative is None:
        nonnegative = model.nonnegative
    spatial_capable = model.n_spatial > 0 and model.u is not None
    if spatial_smoothing is None:
        spatial_smoothing = DEFAULT_SMOOTHING if spatial_capable else 0.0
    elif spatial_smoothing < 0.0:
        raise ValidationError(
            f"spatial_smoothing must be >= 0, got {spatial_smoothing}"
        )
    use_prior = spatial_capable and spatial_smoothing > 0.0

    x, observation, was_row = _coerce_rows(model, x_new, mask)
    observed = observation.observed
    v = model.v  # (K, M), read-only
    n_rows, n_cols = x.shape
    rank = v.shape[0]
    arena = arena if arena is not None else BufferArena()

    # rhs_b = V diag(m_b) x_b for every row at once; x is already
    # zero-filled at unobserved cells, so one gemm covers the batch.
    rhs = np.matmul(x, v.T, out=arena.buf("foldin.rhs", (n_rows, rank)))

    # The spatial prior joins the normal equations per row:
    # (G_b + (ridge + smooth_b) I) u = rhs_b + smooth_b * u0_b.
    if use_prior:
        u_prior, active = _spatial_prior(model, x, observed, p_neighbors, arena)
        smooth = spatial_smoothing * active
        rhs += smooth[:, None] * u_prior
    else:
        smooth = np.zeros(n_rows)

    masks_f = arena.buf("foldin.masks", (n_rows, n_cols))
    np.copyto(masks_f, observed)
    # One Gram matrix serves the batch only when the masks *and* the
    # smoothing weights agree: a row whose prior distances all overflow
    # gets no prior, so equal masks do not imply equal weights.
    shared_pattern = n_rows > 1 and bool(
        np.all(observed == observed[0][None, :]) and np.all(smooth == smooth[0])
    )

    if n_rows == 1 or shared_pattern:
        # One K x K system, every right-hand side at once.
        vm = arena.buf("foldin.vm_shared", (rank, n_cols))
        np.multiply(v, masks_f[0][None, :], out=vm)
        gram = np.matmul(vm, v.T, out=arena.buf("foldin.gram_shared", (rank, rank)))
        gram[np.diag_indices(rank)] += ridge + smooth[0]
        u = np.linalg.solve(gram, rhs.T).T
    else:
        # Batched Gram build: (B, K, M) * (M, K) -> (B, K, K) in one
        # matmul, then one batched factorisation.
        vm = arena.buf("foldin.vm", (n_rows, rank, n_cols))
        np.multiply(masks_f[:, None, :], v[None, :, :], out=vm)
        gram = np.matmul(vm, v.T, out=arena.buf("foldin.gram", (n_rows, rank, rank)))
        gram[:, np.arange(rank), np.arange(rank)] += ridge + smooth[:, None]
        u = np.linalg.solve(gram, rhs[..., None])[..., 0]

    if nonnegative:
        np.maximum(u, 0.0, out=u)

    reconstruction = np.matmul(u, v, out=arena.buf("foldin.recon", (n_rows, n_cols)))
    bounds = model.clip_bounds()
    if bounds is not None:
        lows, highs = bounds
        np.clip(reconstruction, lows[None, :], highs[None, :], out=reconstruction)
    imputed = np.where(observed, x, reconstruction)

    return FoldInResult(
        u_new=u.copy(),
        imputed=imputed,
        observed=observed.copy(),
        shared_pattern=False if was_row else shared_pattern,
        ridge=float(ridge),
        nonnegative=bool(nonnegative),
        spatial_smoothing=float(spatial_smoothing) if use_prior else 0.0,
    )


def fold_in_row(
    model: FittedModel,
    x_row: np.ndarray,
    mask: object = None,
    **kwargs: object,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold in one row; returns ``(u_row, imputed_row)`` as 1-D arrays."""
    result = fold_in(model, np.asarray(x_row, dtype=np.float64), mask, **kwargs)
    if result.n_rows != 1:
        raise ValidationError(
            f"fold_in_row expects one row, got {result.n_rows}"
        )
    return result.u_new[0], result.imputed[0]
