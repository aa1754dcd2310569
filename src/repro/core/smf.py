"""SMF: Spatial Matrix Factorization (Problem 1).

Masked NMF plus the graph-Laplacian spatial regularizer of
Section II-C:

    min_{U,V >= 0}  ||R_Omega(X - U V)||_F^2 + lambda Tr(U^T L U)

where ``L = W - D`` is built from the ``p``-nearest-neighbour graph
over the spatial-information columns ``SI`` (the first ``L`` columns of
X).  Both update strategies of Section III-B are available; Figure 5's
"SMF-GD" and "SMF-Multi" correspond to ``update_rule="gradient"`` and
``"multiplicative"``.
"""

from __future__ import annotations

import numpy as np

from ..engine.kernels import KernelContext
from ..exceptions import NotFittedError, ValidationError
from ..masking.mask import ObservationMask
from ..spatial.graph_cache import spatial_graph
from ..validation import check_in_range, check_positive_int, check_spatial_columns
from .factorization import MatrixFactorizationBase

__all__ = ["SMF"]

DEFAULT_LAMBDA = 0.1
"""Default regularization weight, from the paper's best region (Fig. 6)."""

DEFAULT_NEIGHBORS = 3
"""Default p: the paper finds the 3-nearest-neighbour graph best (Fig. 7)."""


class SMF(MatrixFactorizationBase):
    """Spatial Matrix Factorization (Problem 1 of the paper).

    Parameters
    ----------
    rank:
        Factorization rank ``K``.
    n_spatial:
        Number of leading spatial columns ``L`` (typically 2).
    lam:
        Spatial-regularization weight lambda (Figure 6 sweeps it;
        0.05-0.1 is the recommended region).
    p_neighbors:
        Neighbour count ``p`` of the similarity graph (Figure 7;
        ``p = 3`` recommended).
    neighbor_method:
        k-NN search strategy (``"auto"``, ``"brute"``, ``"kdtree"``).
    **kwargs:
        Forwarded to :class:`MatrixFactorizationBase` (``max_iter``,
        ``tol``, ``update_rule``, ``learning_rate``, ``init``,
        ``eval_every``, ``random_state``).

    Attributes (after fit)
    ----------------------
    similarity_:
        The Formula 3 matrix **D**.
    degree_:
        The degree vector (diagonal of the Formula 4 matrix **W**).
    laplacian_:
        ``L = W - D``.
    """

    method = "smf"

    def __init__(
        self,
        rank: int,
        *,
        n_spatial: int = 2,
        lam: float = DEFAULT_LAMBDA,
        p_neighbors: int = DEFAULT_NEIGHBORS,
        neighbor_method: str = "auto",
        **kwargs: object,
    ) -> None:
        super().__init__(rank, **kwargs)  # type: ignore[arg-type]
        self.n_spatial = check_positive_int(n_spatial, name="n_spatial")
        self.lam = check_in_range(lam, name="lam", low=0.0)
        self.p_neighbors = check_positive_int(p_neighbors, name="p_neighbors")
        self.neighbor_method = neighbor_method
        self.similarity_: np.ndarray | None = None
        self.degree_: np.ndarray | None = None
        self.laplacian_: np.ndarray | None = None
        self._similarity_op: object = None
        self._laplacian_op: object = None

    def _prepare_fit(
        self, x: np.ndarray, x_observed: np.ndarray, mask: ObservationMask
    ) -> None:
        check_spatial_columns(self.n_spatial, x.shape[1])
        spatial = x[:, : self.n_spatial]
        spatial_observed = mask.observed[:, : self.n_spatial]
        # Content-addressed graph cache: λ/p sweeps and repeated seeds
        # over one dataset share the same N² build instead of paying it
        # per fit.  The returned arrays are read-only and shared; the
        # `_op` views are the sparse O(p N K) per-iteration operators
        # (dense fallback when scipy is absent).
        graph = spatial_graph(
            spatial,
            self.p_neighbors,
            observed=spatial_observed,
            method=self.neighbor_method,
        )
        self.similarity_ = graph.similarity
        self.degree_ = graph.degree
        self.laplacian_ = graph.laplacian
        self._similarity_op = graph.similarity_op
        self._laplacian_op = graph.laplacian_op

    def _objective(
        self,
        x: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        observed: np.ndarray,
    ) -> float:
        value = self._data_term(x, u, v, observed)
        if self.lam != 0.0:
            assert self._laplacian_op is not None
            # Sparse quadratic form: equals smoothness_penalty(u, L)
            # but costs O(p N K) instead of O(N^2 K) per evaluation.
            penalty = float(np.sum(u * np.asarray(self._laplacian_op @ u)))
            value += self.lam * max(penalty, 0.0)
        return value

    def _kernel_context(self, v_shape: tuple[int, int]) -> KernelContext:
        if self.similarity_ is None or self.degree_ is None or self.laplacian_ is None:
            raise ValidationError("fit must prepare the spatial graph first")
        # The multiplicative kernel consumes the sparse similarity view;
        # the gradient kernel consumes the *dense* Laplacian (exactly
        # the operators the pre-engine code used, preserving numerics).
        return KernelContext(
            lam=self.lam,
            similarity=self._similarity_op,
            degree=self.degree_,
            laplacian=self.laplacian_,
            learning_rate=self.learning_rate,
            frozen_v=self._frozen_v_mask(v_shape),
        )

    def _batched_terms(self) -> dict:
        """Batched-engine mirror of :meth:`_kernel_context` + :meth:`_objective`.

        Same operator choices as the looped fit: the multiplicative
        kernel and the objective penalty consume the *sparse* views,
        the gradient kernel the dense Laplacian — so the batched per-fit
        graph terms run in the exact reference op order.
        """
        if self.similarity_ is None or self.degree_ is None or self.laplacian_ is None:
            raise ValidationError("fit must prepare the spatial graph first")
        return {
            "lam": self.lam,
            "similarity": self._similarity_op,
            "degree": self.degree_,
            "laplacian": self.laplacian_,
            "penalty_op": self._laplacian_op,
        }

    def feature_locations(self) -> np.ndarray:
        """Learned feature locations: the first ``L`` columns of V.

        For SMF these float freely (Figure 5 shows them landing far
        from the observations); for SMFL they are exactly the frozen
        landmark coordinates (Figure 5's red points).
        """
        if self.v_ is None:
            raise NotFittedError("feature_locations requires a fitted model")
        return self.v_[:, : self.n_spatial].copy()
