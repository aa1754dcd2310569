"""Reference spatial prior: the one-shot ``(B, N, L)`` broadcast build.

The oracle for :func:`repro.serving.foldin._spatial_prior`, which
accumulates the same squared distances one spatial column at a time
over locations cached on the model.  This version recomputes the
training locations ``U V[:, :L]`` per call, materializes the full
difference block, reduces it with ``np.sum(axis=2)`` and selects each
row's nearest training rows with a full stable sort: (distance, index)
order, ties to the lower index.  For fewer than eight spatial columns
both must agree bit for bit, whichever path (scan or cover) the
prior takes.
"""

from __future__ import annotations

import numpy as np

from repro.engine.workspace import BufferArena
from repro.model import FittedModel


def spatial_prior(
    model: FittedModel,
    x: np.ndarray,
    observed: np.ndarray,
    p_neighbors: int,
    arena: BufferArena,
) -> tuple[np.ndarray, np.ndarray]:
    """``(u_prior, active)`` with the signature of ``_spatial_prior``."""
    n_spatial = model.n_spatial
    train_spatial = model.u @ model.v[:, :n_spatial]  # (N, L)
    new_spatial = x[:, :n_spatial]
    spatial_observed = observed[:, :n_spatial].astype(np.float64)
    active = (spatial_observed.sum(axis=1) > 0).astype(np.float64)

    n_rows, n_train = new_spatial.shape[0], train_spatial.shape[0]
    diff_sq = arena.rows("reference.prior_diff", n_rows, train_spatial.shape)
    np.subtract(new_spatial[:, None, :], train_spatial[None, :, :], out=diff_sq)
    np.square(diff_sq, out=diff_sq)
    diff_sq *= spatial_observed[:, None, :]
    d2 = np.sum(diff_sq, axis=2, out=arena.rows("reference.prior_d2", n_rows, (n_train,)))

    p = min(int(p_neighbors), train_spatial.shape[0])
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :p]
    weights = 1.0 / np.maximum(np.take_along_axis(d2, nearest, axis=1), 1e-12)
    weights /= weights.sum(axis=1, keepdims=True)
    u_prior = np.einsum("bp,bpk->bk", weights, model.u[nearest])
    return u_prior, active
