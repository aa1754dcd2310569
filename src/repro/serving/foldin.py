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
spatial coordinates - recovered from the factors as ``U V[:, :L]``, so
the artifact needs no extra state) define an inverse-distance-weighted
prior embedding ``u0``, and the solve becomes

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
common "sensor column dropped out" case) the Gram matrix is built and
factorised once for the whole batch.  Scratch memory comes from a
:class:`~repro.engine.workspace.BufferArena`, so a long-lived server
(see :mod:`repro.serving.service`) reaches zero steady-state
allocations for same-shape batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.workspace import BufferArena
from ..exceptions import ValidationError
from ..masking.mask import ObservationMask
from ..model.fitted import FittedModel, coerce_observations
from ..validation import check_nonnegative

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
    #: Whether all rows shared one observation pattern (fast path).
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


def _spatial_prior(
    model: FittedModel,
    x: np.ndarray,
    observed: np.ndarray,
    p_neighbors: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-distance prior embeddings from the nearest training rows.

    Returns ``(u_prior, active)``: the ``(B, K)`` prior and a ``(B,)``
    float mask that is 1 for rows with at least one observed spatial
    coordinate (rows with no spatial evidence get no prior).  Training
    row locations are recovered from the factors as ``U V[:, :L]`` -
    nothing beyond the artifact is needed.
    """
    n_spatial = model.n_spatial
    train_spatial = model.u @ model.v[:, :n_spatial]  # (N, L)
    new_spatial = x[:, :n_spatial]
    spatial_observed = observed[:, :n_spatial].astype(np.float64)
    active = (spatial_observed.sum(axis=1) > 0).astype(np.float64)

    # Squared distance over each row's *observed* spatial dimensions
    # only (zero-filled unobserved coordinates must not count).
    diff_sq = (new_spatial[:, None, :] - train_spatial[None, :, :]) ** 2
    d2 = (diff_sq * spatial_observed[:, None, :]).sum(axis=2)

    p = min(int(p_neighbors), train_spatial.shape[0])
    nearest = np.argpartition(d2, p - 1, axis=1)[:, :p]
    weights = 1.0 / np.maximum(np.take_along_axis(d2, nearest, axis=1), 1e-12)
    weights /= weights.sum(axis=1, keepdims=True)
    u_prior = np.einsum("bp,bpk->bk", weights, model.u[nearest])
    return u_prior, active


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
        Training neighbours per prior (:data:`DEFAULT_PRIOR_NEIGHBORS`).
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
        u_prior, active = _spatial_prior(model, x, observed, p_neighbors)
        smooth = spatial_smoothing * active
        rhs += smooth[:, None] * u_prior
    else:
        smooth = np.zeros(n_rows)

    masks_f = arena.buf("foldin.masks", (n_rows, n_cols))
    np.copyto(masks_f, observed)
    shared_pattern = n_rows > 1 and bool(
        np.all(observed == observed[0][None, :])
    )

    if n_rows == 1 or shared_pattern:
        # One K x K system, every right-hand side at once (identical
        # masks mean identical smoothing weights too).
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
