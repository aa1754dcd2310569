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
from ..spatial.graph_cache import SpatialGraph, coordinate_digest, spatial_graph_for
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
        The graph's default ``"masked"`` missing strategy ignores it:
        a grid index settles every row whose spatial cells are all
        observed from the rows of its neighbouring cells (about
        ``N·c`` work for ``c`` candidates per row), and only rows with
        a blank spatial cell or a failed exclusion bound scan all ``N``
        rows.  Only the ``"column-mean"`` strategy of
        :func:`repro.spatial.knn_similarity_matrix` uses it, where
        ``"auto"`` switches to the KD-tree above 2048 points.
    **kwargs:
        Forwarded to :class:`MatrixFactorizationBase` (``max_iter``,
        ``tol``, ``update_rule``, ``learning_rate``, ``init``,
        ``eval_every``, ``random_state``).

    Attributes (after fit)
    ----------------------
    similarity_:
        The Formula 3 matrix **D**, a lazy read-only dense view: the
        fit itself uses the cached sparse graph, and the ``N x N``
        array is built on first access (then shared).
    degree_:
        The degree vector (diagonal of the Formula 4 matrix **W**).
    laplacian_:
        ``L = W - D``, a lazy read-only dense view like ``similarity_``.
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
        self.degree_: np.ndarray | None = None
        self._graph: SpatialGraph | None = None
        self._spatial_digest: bytes | None = None

    @property
    def similarity_(self) -> np.ndarray | None:
        return None if self._graph is None else self._graph.similarity

    @property
    def laplacian_(self) -> np.ndarray | None:
        return None if self._graph is None else self._graph.laplacian

    def _prepare_fit(
        self, x: np.ndarray, x_observed: np.ndarray, mask: ObservationMask
    ) -> None:
        check_spatial_columns(self.n_spatial, x.shape[1])
        spatial = x[:, : self.n_spatial]
        spatial_observed = mask.observed[:, : self.n_spatial]
        # Content-addressed graph cache: λ/p sweeps and repeated seeds
        # over one dataset share the same N² build instead of paying it
        # per fit.  The entry is shared; its `_op` operators are the
        # sparse O(p N K) per-iteration operators.  SMFL's landmark
        # lookup reuses the coordinate digest.
        self._spatial_digest = coordinate_digest(spatial, spatial_observed)
        self._graph = spatial_graph_for(
            self._spatial_digest,
            spatial,
            self.p_neighbors,
            observed=spatial_observed,
            method=self.neighbor_method,
        )
        self.degree_ = self._graph.degree

    def _objective(
        self,
        x: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        observed: np.ndarray,
    ) -> float:
        value = self._data_term(x, u, v, observed)
        if self.lam != 0.0:
            graph = self._fitted_graph()
            # Tr(U^T L U) from the sparse D·U: O(p N K), and on the
            # workspace kernels the product is the memoized one the
            # next U-step's lam·D U reads, so an iteration runs one
            # graph product, not two.
            kernel = self._objective_kernel(x, observed)
            value += self.lam * kernel.graph_penalty(
                u, graph.similarity_op, graph.degree
            )
        return value

    def _fitted_graph(self) -> SpatialGraph:
        if self._graph is None:
            raise ValidationError("fit must prepare the spatial graph first")
        return self._graph

    def _dense_laplacian(self, graph: SpatialGraph) -> np.ndarray | None:
        """The dense Laplacian for the rules that read it, else ``None``.

        The gradient and stochastic kernels multiply by the *dense*
        ``L`` (exactly the operator the pre-engine code used,
        preserving numerics) when ``lam != 0``; the multiplicative rule
        never touches it, so its fits never materialize the ``N x N``
        array.
        """
        if self.update_rule == "multiplicative" or self.lam == 0.0:
            return None
        return graph.laplacian

    def _kernel_context(self, v_shape: tuple[int, int]) -> KernelContext:
        graph = self._fitted_graph()
        # The multiplicative kernel consumes the sparse similarity view.
        return KernelContext(
            lam=self.lam,
            similarity=graph.similarity_op,
            degree=graph.degree,
            laplacian=self._dense_laplacian(graph),
            learning_rate=self.learning_rate,
            frozen_v=self._frozen_v_mask(v_shape),
        )

    def _batched_terms(self) -> dict:
        """Batched-engine mirror of :meth:`_kernel_context` + :meth:`_objective`.

        Same operator choices as the looped fit: the multiplicative
        kernel and the objective penalty consume the *sparse* similarity
        view, the gradient kernel the dense Laplacian — so the batched
        per-fit graph terms run in the exact reference op order.  Fits
        of one graph share the memoized dense Laplacian by identity.
        """
        graph = self._fitted_graph()
        return {
            "lam": self.lam,
            "similarity": graph.similarity_op,
            "degree": graph.degree,
            "laplacian": self._dense_laplacian(graph),
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
