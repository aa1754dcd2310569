"""The SMFL objective function (Problem 1 / Problem 2).

    O(U, V) = || R_Omega(X - U V) ||_F^2 + lambda * Tr(U^T L U)

The first term is the masked reconstruction error (Formula 5); the
second is the graph-Laplacian smoothness penalty of Section II-C, equal
to ``1/2 sum_ij d_ij |u_i - u_j|^2``.  :func:`masked_frobenius_sq`,
:func:`smoothness_penalty` and :func:`total_objective` are the ground
truth for the monotonicity tests of Propositions 5 and 7;
:func:`graph_penalty` is the form every fit evaluates.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from ..validation import as_matrix

__all__ = [
    "graph_penalty",
    "masked_frobenius_sq",
    "masked_residual_sq",
    "penalty_from_products",
    "smoothness_penalty",
    "total_objective",
]


def masked_frobenius_sq(
    x: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    observed: np.ndarray,
) -> float:
    """``|| R_Omega(X - U V) ||_F^2`` (Formula 5).

    Parameters
    ----------
    x:
        ``(n, m)`` data matrix (values at unobserved cells are ignored).
    u, v:
        Factors of shapes ``(n, k)`` and ``(k, m)``.
    observed:
        ``(n, m)`` boolean mask, ``True`` at observed cells.
    """
    x = as_matrix(x, name="x")
    u = as_matrix(u, name="u")
    v = as_matrix(v, name="v")
    if u.shape[1] != v.shape[0]:
        raise ValidationError(
            f"factor shapes do not chain: U is {u.shape}, V is {v.shape}"
        )
    if (u.shape[0], v.shape[1]) != x.shape:
        raise ValidationError(
            f"U V would be {(u.shape[0], v.shape[1])}, but X is {x.shape}"
        )
    return masked_residual_sq(x, u, v, observed)


def masked_residual_sq(
    x: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    observed: np.ndarray,
) -> float:
    """:func:`masked_frobenius_sq` without its input checks.

    The form a running fit evaluates on its own iterates: a diverged
    iterate gives a non-finite value, which the engine's divergence
    guard reports, instead of a :class:`ValidationError` about ``u``.
    """
    residual = np.where(observed, x - u @ v, 0.0)
    return float(np.einsum("ij,ij->", residual, residual))


def smoothness_penalty(u: np.ndarray, laplacian: np.ndarray) -> float:
    """``Tr(U^T L U)``: the spatial-smoothness regularizer (Section II-C).

    With ``L = W - D`` this equals ``1/2 sum_ij d_ij |u_i - u_j|^2``
    and is always non-negative.
    """
    u = as_matrix(u, name="u")
    laplacian = as_matrix(laplacian, name="laplacian")
    if laplacian.shape != (u.shape[0], u.shape[0]):
        raise ValidationError(
            f"laplacian shape {laplacian.shape} does not match U row count {u.shape[0]}"
        )
    value = float(np.sum(u * (laplacian @ u)))
    # Floating point can produce a tiny negative value for a PSD form.
    return max(value, 0.0)


def graph_penalty(
    u: np.ndarray,
    du: np.ndarray,
    degree: np.ndarray,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``Tr(U^T L U)`` from the similarity product ``D U``, clamped at 0.

    With ``L = W - D`` and ``W = diag(degree)`` the trace is
    ``sum_ik (deg_i u_ik - (D U)_ik) u_ik``, so a fit that already holds
    ``D U`` (the multiplicative U-step needs it) gets the penalty
    without a product by ``L``.  It equals :func:`smoothness_penalty`
    up to rounding (a few ulps).

    ``degree`` is the ``(N, 1)`` degree column (or any operand that
    broadcasts to ``u``).  ``u``/``du`` may be stacked ``(B, N, K)``,
    giving one value per slice; the flat sum of each C-contiguous
    ``(N, K)`` product slice adds in the same pairwise order either
    way, so a stacked member's value equals its own 2-D evaluation bit
    for bit.  ``out`` is an optional scratch buffer of ``u``'s shape.
    """
    wu = np.multiply(degree, u, out=out)
    return penalty_from_products(u, du, wu, out=wu)


def penalty_from_products(
    u: np.ndarray,
    du: np.ndarray,
    wu: np.ndarray,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`graph_penalty` from both products, ``D U`` and ``W U =
    deg ⊙ U``: for a fit that keeps ``W U`` for its next U-step.

    ``out`` (``u``'s shape) may be ``wu`` itself; otherwise ``wu`` and
    ``du`` are left unchanged.
    """
    prod = np.subtract(wu, du, out=out)
    np.multiply(prod, u, out=prod)
    # Floating point can produce a tiny negative value for a PSD form.
    return np.maximum(np.sum(prod.reshape(*prod.shape[:-2], -1), axis=-1), 0.0)


def total_objective(
    x: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    observed: np.ndarray,
    *,
    lam: float = 0.0,
    laplacian: np.ndarray | None = None,
) -> float:
    """Full objective ``O(U, V)`` of Problem 1/2.

    ``lam == 0`` (or ``laplacian is None``) reduces to the masked NMF
    objective.
    """
    value = masked_frobenius_sq(x, u, v, observed)
    if lam != 0.0:
        if laplacian is None:
            raise ValidationError("lam != 0 requires a laplacian matrix")
        value += lam * smoothness_penalty(u, laplacian)
    return value
