"""Update kernels for the masked NMF family (Section III-B).

Two strategies are implemented, exactly as the paper describes:

1. **Multiplicative updates** (Formulas 13 and 14) - the self-adaptive
   scheme whose convergence Propositions 5 and 7 establish:

       u_ik <- u_ik * (R_O(X) V^T + lam D U)_ik / (R_O(UV) V^T + lam W U)_ik
       v_kj <- v_kj * (U^T R_O(X))_kj / (U^T R_O(UV))_kj    for (k,j) not in Phi
       v_kj <- c_kj                                          for (k,j) in Phi

2. **Gradient descent** (Section III-B1, used as SMF-GD in Figure 5) -
   plain projected gradient steps with a global learning rate.

Landmark freezing is expressed through an optional boolean
``frozen_v`` mask: frozen cells of V keep their value through either
update (their "gradient is set to 0", Section III-A).

Denominators are guarded with a small epsilon; a zero numerator
therefore drives the entry to zero rather than producing NaN.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EPSILON",
    "division_errstate",
    "frozen_column_prefix",
    "guarded_divide",
    "multiplicative_update_u",
    "multiplicative_update_v",
    "gradient_update_u",
    "gradient_update_v",
]

EPSILON = 1e-12
"""Denominator guard for the multiplicative rules."""


def division_errstate() -> np.errstate:
    """The floating-point state of :func:`guarded_divide`: ``divide`` and
    ``invalid`` silenced (the floor already decided them), ``overflow``
    left on.  ``guarded_divide`` runs under it as a decorator, so
    ``guarded_divide.__wrapped__`` is the bare rule, for a caller that
    holds this errstate over several divisions (the workspace's dense
    step)."""
    return np.errstate(divide="ignore", invalid="ignore")


@division_errstate()
def guarded_divide(
    numerator: np.ndarray,
    denominator: np.ndarray,
    *,
    out: np.ndarray | None = None,
    denominator_is_scratch: bool = False,
) -> np.ndarray:
    """``numerator / (denominator + EPSILON)`` — the one division policy.

    Every multiplicative-rule division in the package (the reference
    rules below, the workspace kernels, and the sparse fast path) goes
    through this helper, so the zero-denominator behaviour is defined
    exactly once: the epsilon floor keeps the quotient finite, and a
    zero numerator over a zero denominator yields 0 rather than NaN.
    The explicit :func:`division_errstate` makes the policy auditable:
    it silences only ``divide`` and ``invalid``, the two cases the floor
    already decided.  ``overflow`` is left on on purpose — a finite
    numerator too large for the floored denominator (e.g. ``1e300 /
    EPSILON``) emits ``RuntimeWarning: overflow encountered in divide``
    and yields ``inf``, the honest sign that a fit is diverging.

    Parameters
    ----------
    numerator, denominator:
        Same-shape non-negative arrays (the multiplicative rules
        guarantee non-negativity; nothing here depends on it beyond
        the floor being effective).
    out:
        Optional output buffer (may alias ``numerator`` for in-place
        workspace use).  ``None`` allocates, matching the reference
        expression bit for bit.
    denominator_is_scratch:
        ``True`` lets the helper add the floor into ``denominator``
        in place instead of allocating ``denominator + EPSILON`` —
        only for callers that own the array as scratch.
    """
    if out is None:
        return numerator / (denominator + EPSILON)
    if denominator_is_scratch:
        denominator += EPSILON
        floored = denominator
    else:
        floored = denominator + EPSILON
    return np.divide(numerator, floored, out=out)


def frozen_column_prefix(frozen_v: np.ndarray | None) -> int | None:
    """``L`` when ``frozen_v`` freezes exactly the first ``L`` whole
    columns (the landmark layout, Definition 1), else ``None``.

    Callers that keep the mask fixed across iterations (the engine's
    kernel context) compute this once and pass ``frozen_prefix`` to
    :func:`multiplicative_update_v`, keeping the structural analysis
    out of the per-iteration path.
    """
    if frozen_v is None:
        return None
    frozen_cols = frozen_v.all(axis=0)
    n = int(frozen_cols.sum())
    if n == 0 or not frozen_cols[:n].all():
        return None
    if frozen_v[:, n:].any():
        return None
    return n


def multiplicative_update_u(
    x_observed: np.ndarray,
    observed: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    *,
    lam: float = 0.0,
    similarity: np.ndarray | None = None,
    degree: np.ndarray | None = None,
) -> np.ndarray:
    """One multiplicative step on U (Formula 13).

    Parameters
    ----------
    x_observed:
        ``R_Omega(X)``: the data with unobserved cells already zeroed.
    observed:
        Boolean mask (``True`` = observed), used to mask ``U V``.
    u, v:
        Current factors.
    lam:
        Spatial-regularization weight; 0 disables the graph terms.
    similarity:
        The Formula 3 matrix **D** (numerator term ``lam * D U``).
    degree:
        Degree *vector* ``w_ii = sum_t d_it`` (denominator term
        ``lam * W U`` with diagonal W applied row-wise).

    Returns
    -------
    The updated U (a new array; inputs are not mutated).
    """
    reconstruction = np.where(observed, u @ v, 0.0)
    numerator = x_observed @ v.T
    denominator = reconstruction @ v.T
    if lam != 0.0:
        if similarity is None or degree is None:
            raise ValueError("lam != 0 requires similarity and degree")
        # `similarity` may be a scipy.sparse matrix: the p-NN graph has
        # only O(p N) edges, and Proposition 1's complexity bound
        # requires the D @ U product to exploit that sparsity.
        numerator = numerator + lam * np.asarray(similarity @ u)
        denominator = denominator + lam * (degree[:, None] * u)
    return u * guarded_divide(numerator, denominator)


def multiplicative_update_v(
    x_observed: np.ndarray,
    observed: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    *,
    frozen_v: np.ndarray | None = None,
    frozen_prefix: int | None = None,
) -> np.ndarray:
    """One multiplicative step on V (Formula 14).

    ``frozen_v`` cells (the landmark set Phi) are carried over
    unchanged; all other cells receive the multiplicative factor.

    When the frozen cells are exactly the first ``L`` whole columns
    (the landmark layout), the update is computed only for the live
    column slice - this is the Section IV-E computation saving that
    makes SMFL's iterations cheaper than SMF's.  ``frozen_prefix``
    (see :func:`frozen_column_prefix`) lets callers with a fixed mask
    pay the structural analysis once instead of per iteration.
    """
    if frozen_v is not None:
        if frozen_prefix is None:
            frozen_prefix = frozen_column_prefix(frozen_v)
        if frozen_prefix is not None:
            if frozen_prefix >= v.shape[1]:
                return v.copy()
            live = slice(frozen_prefix, None)
            v_live = v[:, live]
            recon_live = np.where(observed[:, live], u @ v_live, 0.0)
            numerator = u.T @ x_observed[:, live]
            denominator = u.T @ recon_live
            updated = v.copy()
            updated[:, live] = v_live * guarded_divide(numerator, denominator)
            return updated
    reconstruction = np.where(observed, u @ v, 0.0)
    numerator = u.T @ x_observed
    denominator = u.T @ reconstruction
    updated = v * guarded_divide(numerator, denominator)
    if frozen_v is not None:
        updated = np.where(frozen_v, v, updated)
    return updated


def gradient_update_u(
    x_observed: np.ndarray,
    observed: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    *,
    learning_rate: float,
    lam: float = 0.0,
    laplacian: np.ndarray | None = None,
) -> np.ndarray:
    """One projected-gradient step on U (Section III-B1).

    ``grad = -2 R_O(X) V^T + 2 R_O(UV) V^T + 2 lam L U``; the step is
    followed by projection onto the non-negative orthant.
    """
    reconstruction = np.where(observed, u @ v, 0.0)
    grad = 2.0 * (reconstruction - x_observed) @ v.T
    if lam != 0.0:
        if laplacian is None:
            raise ValueError("lam != 0 requires a laplacian")
        grad = grad + 2.0 * lam * (laplacian @ u)
    return np.maximum(u - learning_rate * grad, 0.0)


def gradient_update_v(
    x_observed: np.ndarray,
    observed: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    *,
    learning_rate: float,
    frozen_v: np.ndarray | None = None,
) -> np.ndarray:
    """One projected-gradient step on V (Section III-B1).

    ``grad = -2 U^T R_O(X) + 2 U^T R_O(UV)``; frozen (landmark) cells
    keep their value - their gradient is defined to be zero.
    """
    reconstruction = np.where(observed, u @ v, 0.0)
    grad = 2.0 * u.T @ (reconstruction - x_observed)
    updated = np.maximum(v - learning_rate * grad, 0.0)
    if frozen_v is not None:
        updated = np.where(frozen_v, v, updated)
    return updated
