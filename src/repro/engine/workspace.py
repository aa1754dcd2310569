"""Allocation-free kernel workspace, Gram-cached landmark blocks, and the
sparse-observed fast path (the Proposition 1 cost model, realized in code).

Proposition 1 bounds SMFL at ``O(t1·NMK + N²·L + t2·KNL)``.  The terms
map onto this module as follows:

``t1·NMK``
    The per-iteration full-matrix passes.  :class:`KernelWorkspace`
    preallocates every buffer these passes need (masked reconstruction,
    numerator/denominator blocks, ping-pong factor outputs) and the
    rewritten kernels run them as ``out=``-form BLAS calls — so steady-
    state iterations allocate **no** new ``N×M`` (or ``N×K``) arrays.
    Products shared between the objective at ``(U_t, V_t)`` and the
    next U-step — the masked reconstruction and ``D·U_t`` (the
    objective's penalty is :func:`repro.core.objective.graph_penalty`)
    — are memoized on factor write generations and computed once, so
    an iteration runs Proposition 1's one ``O(pNK)`` graph product.
``t2·KNL``
    The landmark-block contributions.  The landmark columns of ``V``
    are frozen for the whole fit, so their Gram products
    ``V_L V_Lᵀ`` (``K×K``) and ``X_L V_Lᵀ`` (``N×K``) are constants of
    the fit: :class:`GramCache` computes them once and every iteration
    reuses them, turning the landmark share of the update into two
    small cached matmuls.
``N²·L``
    The one-off spatial graph build — handled by
    :mod:`repro.spatial.graph_cache` (shared across runner cells) and
    the grid index of :mod:`repro.spatial.similarity`, which settles
    rows with fully observed coordinates from nearby cells (about
    ``N·c`` work) and scans all ``N`` rows only for the rest.

One factory, :func:`build_kernel`, resolves ``(update_rule,
kernel_path, observed density)`` once per fit and returns the fit's
*kernel object* — the only seam an update step runs through.  Every
kernel object exposes ``step(x_observed, observed, u, v, ctx)`` (one
Algorithm 1 iteration: U, then V with the landmark block frozen) and
``masked_objective(x_observed, u, v)``:

:class:`KernelWorkspace`, ``mode="dense"`` (``kernel_path="workspace"``)
    The allocation-free path for the multiplicative and gradient
    rules.  Every floating-point operation is performed in the same
    order and on the same operand layouts as the reference rules, so
    the two paths are **bit-identical** — the golden fixtures do not
    move.
:class:`KernelWorkspace`, ``mode="sparse"`` (``kernel_path="sparse"``)
    The sparse-observed fast path for high missing rates (Figure 7's
    sweep axis): observed entries of the live block are stored as
    ``(rows, cols, vals)`` index arrays plus a fixed-pattern CSR
    matrix whose data buffer is rewritten in place, and masked
    reconstructions/objectives become gather–multiply–reduce over the
    observed entries only.  Numerically equivalent (not bit-identical:
    sparse products sum in a different order); auto-selection
    therefore only picks it when the observed density is below
    :data:`SPARSE_DENSITY_THRESHOLD`, which keeps every golden-fixture
    configuration (missing rate 0.1) on the bit-exact dense path.
:class:`ReferenceKernel` (``kernel_path="reference"``)
    A thin adapter over the naive allocating rules in
    :mod:`repro.core.updates` — the bit-exact ground truth the
    benchmarks and equivalence tests measure against.
:class:`~repro.engine.stochastic.StochasticWorkspace`
    The mini-batch epochs of the ``sgd``/``svrg`` rules, driven by the
    fit's :class:`~repro.engine.stochastic.BatchScheduler`
    (``kernel_path`` does not apply).

``"auto"`` (the model default) resolves to ``"sparse"`` when the rule
is multiplicative, scipy is importable, and the observed density is at
most the threshold — and to ``"workspace"`` otherwise.
"""

from __future__ import annotations

import numpy as np

from ..core.objective import graph_penalty, masked_frobenius_sq
from ..core.updates import (
    gradient_update_u,
    gradient_update_v,
    guarded_divide,
    multiplicative_update_u,
    multiplicative_update_v,
)
from ..exceptions import ValidationError
from .kernels import FULL_BATCH_RULES, UPDATE_RULES, KernelContext

__all__ = [
    "KERNEL_PATHS",
    "SPARSE_DENSITY_THRESHOLD",
    "BufferArena",
    "GramCache",
    "KernelWorkspace",
    "ReferenceKernel",
    "build_kernel",
    "resolve_kernel_path",
]

KERNEL_PATHS = ("auto", "workspace", "sparse", "reference")
"""Legal values of the models' ``kernel_path`` parameter."""

SPARSE_DENSITY_THRESHOLD = 0.4
"""``auto`` picks the sparse path when ``observed.mean() <=`` this.

The golden experiment configurations all run at missing rate 0.1
(density far above the threshold), so auto-selection keeps them on the
bit-exact dense workspace path.
"""


def _has_scipy() -> bool:
    try:
        from scipy import sparse  # noqa: F401
    except ImportError:  # pragma: no cover - scipy is a soft dependency
        return False
    return True


def resolve_kernel_path(
    path: str,
    *,
    update_rule: str,
    observed: np.ndarray,
) -> str:
    """Resolve ``"auto"`` and validate explicit choices.

    Returns one of ``"reference"``, ``"workspace"``, ``"sparse"``.
    """
    if path not in KERNEL_PATHS:
        raise ValidationError(
            f"unknown kernel_path {path!r}; available: {KERNEL_PATHS}"
        )
    if path == "sparse":
        if update_rule != "multiplicative":
            raise ValidationError(
                "kernel_path='sparse' supports update_rule='multiplicative' "
                f"only, got {update_rule!r}"
            )
        if not _has_scipy():  # pragma: no cover - scipy is a soft dependency
            raise ValidationError("kernel_path='sparse' requires scipy")
        return "sparse"
    if path == "reference" or update_rule not in FULL_BATCH_RULES:
        return "reference"
    if (
        path == "auto"
        and update_rule == "multiplicative"
        and _has_scipy()
        and float(observed.mean()) <= SPARSE_DENSITY_THRESHOLD
    ):
        return "sparse"
    return "workspace"


class BufferArena:
    """Named reusable scratch buffers + ping-pong factor outputs.

    The base discipline every allocation-free kernel shares: a buffer
    is allocated the first time its ``(name, shape, dtype)`` is
    requested and reused on every later request, so steady-state
    iterations perform zero array allocations.  ``out_for`` keeps two
    alternating output slots per factor so a kernel can write the next
    iterate while the engine (and its callbacks) still read the
    current one.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._pairs: dict[str, list[np.ndarray | None]] = {}

    def buf(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Named scratch buffer: allocated once, reused after."""
        b = self._buffers.get(name)
        if b is None or b.shape != shape or b.dtype != dtype:
            b = np.empty(shape, dtype=dtype)
            self._buffers[name] = b
        return b

    def rows(self, name: str, n_rows: int, row_shape: tuple[int, ...]) -> np.ndarray:
        """The first ``n_rows`` rows of a grow-only named float buffer.

        Requests whose batch size varies (serving) share one
        allocation instead of reallocating at every size change.
        """
        b = self._buffers.get(name)
        if b is None or b.shape[0] < n_rows or b.shape[1:] != row_shape:
            b = np.empty((n_rows, *row_shape))
            self._buffers[name] = b
        return b[:n_rows]

    def out_for(self, name: str, current: np.ndarray) -> np.ndarray:
        """Ping-pong output buffer for factor ``name``, never aliasing
        ``current`` (the engine/callbacks may still read it)."""
        slots = self._pairs.setdefault(name, [None, None])
        for arr in slots:
            if arr is not None and arr.shape == current.shape and arr is not current:
                return arr
        for i, arr in enumerate(slots):
            if arr is None or arr.shape != current.shape:
                slots[i] = np.empty_like(current)
                return slots[i]
        raise AssertionError("unreachable: one slot always differs from current")


class GramCache:
    """Per-fit constants of the frozen landmark block (``t2·KNL``).

    With the first ``L`` columns of ``V`` frozen and fully observed,
    their contributions to the U-update are constant across the fit:

    - numerator term ``X_L V_Lᵀ`` (``N×K``), and
    - denominator term ``U (V_L V_Lᵀ)`` via the Gram matrix
      ``V_L V_Lᵀ`` (``K×K``) — valid because the landmark columns of
      the masked reconstruction are the *unmasked* ``U V_L``.

    Only the sparse path splits the landmark block out of the matmuls
    (the split changes float summation order, so the bit-exact dense
    path keeps the fused products).
    """

    def __init__(self, x_observed: np.ndarray, v0: np.ndarray, prefix: int) -> None:
        v_land = np.ascontiguousarray(v0[:, :prefix])
        self.prefix = int(prefix)
        self.gram_vl = v_land @ v_land.T  # (K, K)
        self.xl_vlt = x_observed[:, :prefix] @ v_land.T  # (N, K)
        self.gram_vl.setflags(write=False)
        self.xl_vlt.setflags(write=False)


class _SparseObserved:
    """Observed entries of the live column block as index arrays + CSR.

    ``rows``/``cols`` (``cols`` relative to the live block starting at
    ``offset``) enumerate the observed entries in row-major order —
    exactly CSR order, so one set of index arrays backs the gathers
    *and* the two fixed-pattern CSR matrices: ``x_csr`` holds the data
    values, ``recon_csr`` shares the same ``indices``/``indptr`` and a
    private data buffer that the kernel rewrites in place each
    iteration (gather–multiply–reduce; no sparsity-pattern rebuild).
    """

    def __init__(self, x_observed: np.ndarray, observed: np.ndarray, offset: int) -> None:
        from scipy import sparse

        n, m = x_observed.shape
        self.offset = int(offset)
        self.n_live_cols = m - self.offset
        live = observed[:, self.offset:]
        rows, cols = np.nonzero(live)
        self.rows = np.ascontiguousarray(rows)
        self.cols = np.ascontiguousarray(cols)
        self.vals = np.ascontiguousarray(
            x_observed[self.rows, self.offset + self.cols]
        )
        self.nnz = self.rows.shape[0]
        # Raveled positions of the observed entries inside a dense
        # (n, n_live_cols) block — the SDDMM below reads the needed
        # entries of ``U V`` out of a dense gemm with one flat take,
        # which beats per-entry factor gathers by an order of magnitude
        # on latency-bound single-core hardware.
        self.flat = self.rows.astype(np.int64) * self.n_live_cols + self.cols
        counts = np.bincount(self.rows, minlength=n)
        indptr = np.empty(n + 1, dtype=np.int64)
        indptr[0] = 0
        np.cumsum(counts, out=indptr[1:])
        shape = (n, self.n_live_cols)
        self.x_csr = sparse.csr_matrix(
            (self.vals, self.cols.astype(np.int64), indptr), shape=shape
        )
        self.recon_data = np.empty(self.nnz, dtype=np.float64)
        self.recon_csr = sparse.csr_matrix(
            (self.recon_data, self.x_csr.indices, self.x_csr.indptr), shape=shape
        )


class KernelWorkspace(BufferArena):
    """Per-fit buffer arena + fused full-batch kernels.

    Owns every array a steady-state iteration needs: named scratch
    buffers (allocated on first use, reused forever after), ping-pong
    output buffers for each factor (the engine's previous state is
    still readable by callbacks while the next state is written), the
    precomputed ``~observed`` mask, and — in sparse mode — the
    :class:`_SparseObserved` index structure and :class:`GramCache`.

    ``rule`` picks what :meth:`step` runs: the multiplicative rule
    (dense or sparse) or the gradient rule (dense only).  The dense
    kernels replicate the reference rules of :mod:`repro.core.updates`
    operation for operation (same op order, same operand layouts),
    which makes them bit-identical; the equivalence tests enforce this
    per iteration.
    """

    def __init__(
        self,
        x_observed: np.ndarray,
        observed: np.ndarray,
        *,
        mode: str = "dense",
        rule: str = "multiplicative",
        frozen_prefix: int | None = None,
        v0: np.ndarray | None = None,
    ) -> None:
        if mode not in ("dense", "sparse"):
            raise ValidationError(f"unknown workspace mode {mode!r}")
        if rule not in FULL_BATCH_RULES or (mode == "sparse" and rule != "multiplicative"):
            raise ValidationError(f"no {mode} workspace for update_rule {rule!r}")
        super().__init__()
        self.mode = mode
        self.rule = rule
        self.shape = x_observed.shape
        self.unobserved = ~observed
        # Float mask for branchless masking: multiplying the raw
        # reconstruction by {0.0, 1.0} is bit-identical to the
        # reference ``np.where(observed, recon, 0.0)`` because the
        # factors are non-negative, so every recon entry is ``>= +0.0``
        # and ``recon * 0.0 == +0.0`` exactly.  The multiply streams
        # branch-free at memory bandwidth; ``copyto(..., where=)``
        # costs several times more on high missing rates.
        self.observed_f = observed.astype(np.float64)
        self.gram: GramCache | None = None
        self.sparse: _SparseObserved | None = None
        # Reconstruction memo: (array id, write generation) keys.  The
        # workspace is the only writer of the factors it hands out, so
        # bumping the generation on every factor write makes identity +
        # generation a sound content key — the masked reconstruction of
        # an unchanged (U, V) pair (objective at iteration end, U-update
        # at the start of the next) is computed once, not twice.
        self._u_gen = 0
        self._v_gen = 0
        self._recon_key: tuple[object, object] | None = None
        # ``D·U`` memo, same key discipline: the objective's penalty at
        # ``U_t`` and the next U-step's ``lam·D U_t`` share one product.
        self._du_key: tuple[int, int] | None = None
        self._du: np.ndarray | None = None
        if mode == "sparse":
            # The Gram split needs the landmark columns fully observed
            # (true under the default injection protocol, which only
            # corrupts attribute columns); otherwise the whole matrix
            # goes through the index arrays with no landmark split.
            prefix = 0
            if (
                frozen_prefix
                and v0 is not None
                and bool(observed[:, :frozen_prefix].all())
            ):
                prefix = int(frozen_prefix)
            if prefix:
                self.gram = GramCache(x_observed, v0, prefix)
            self.sparse = _SparseObserved(x_observed, observed, prefix)

    def _degree_stack(self, degree: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
        """The degree column repeated to ``shape``, built once per fit.

        An elementwise op rounds the same on any operand layout but
        runs several times faster without a stride-0 column operand.
        """
        stack = self._buffers.get("degree_stack")
        if stack is None or stack.shape != shape:
            col = np.asarray(degree, dtype=np.float64).reshape(-1, 1)
            stack = np.ascontiguousarray(np.broadcast_to(col, shape))
            self._buffers["degree_stack"] = stack
        return stack

    # ------------------------------------------------- shared graph terms

    def _similarity_product(self, u: np.ndarray, similarity) -> np.ndarray:
        """``D·U``, memoized on ``(id(U), write generation)``.

        The objective's penalty at ``U_t`` (:meth:`graph_penalty`) and
        the U-step of iteration ``t+1`` read the same product, so an
        iteration evaluated every step runs one graph product.
        ``similarity`` is the fit's one operator; callers must not
        write to the returned array.
        """
        key = (id(u), self._u_gen)
        if self._du_key != key:
            if isinstance(similarity, np.ndarray):
                du = self.buf("graph_du", u.shape)
                np.matmul(similarity, u, out=du)
            else:
                # scipy sparse product: allocates O(N K), costs O(p N K)
                # — the sparsity Proposition 1 assumes.
                du = np.asarray(similarity @ u)
            self._du, self._du_key = du, key
        return self._du

    def _add_graph_terms(self, num: np.ndarray, den: np.ndarray, u, ctx) -> None:
        """Add ``lam·D U`` / ``lam·W U`` in the reference op order."""
        if ctx.similarity is None or ctx.degree is None:
            raise ValueError("lam != 0 requires similarity and degree")
        t = self.buf("graph_num", u.shape)
        np.multiply(self._similarity_product(u, ctx.similarity), ctx.lam, out=t)
        num += t
        t2 = self.buf("graph_den", u.shape)
        np.multiply(self._degree_stack(ctx.degree, u.shape), u, out=t2)
        t2 *= ctx.lam
        den += t2

    # --------------------------------------------------- dense mult rules

    def _masked_recon(self, name: str, u, v, col_slice: slice | None = None):
        """``R_O(U V)`` (optionally a column slice) into a named buffer.

        The full-matrix variant is memoized on the factor generation
        keys: calling it again with an unchanged ``(U, V)`` pair (the
        U-update right after an objective evaluation) returns the
        buffer without redoing the ``NMK`` gemm.
        """
        if col_slice is None:
            key = ((id(u), self._u_gen), (id(v), self._v_gen))
            recon = self.buf(name, (u.shape[0], v.shape[1]))
            if name == "recon" and self._recon_key == key:
                return recon
            np.matmul(u, v, out=recon)
            np.multiply(recon, self.observed_f, out=recon)
            if name == "recon":
                self._recon_key = key
        else:
            v_part = v[:, col_slice]
            recon = self.buf(name, (u.shape[0], v_part.shape[1]))
            np.matmul(u, v_part, out=recon)
            np.multiply(recon, self.observed_f[:, col_slice], out=recon)
        return recon

    def _mult_u_dense(self, x_observed, observed, u, v, ctx):
        n, k = u.shape
        recon = self._masked_recon("recon", u, v)
        num = self.buf("num_u", (n, k))
        den = self.buf("den_u", (n, k))
        np.matmul(x_observed, v.T, out=num)
        np.matmul(recon, v.T, out=den)
        if ctx.lam != 0.0:
            self._add_graph_terms(num, den, u, ctx)
        out = self.out_for("u", u)
        guarded_divide(num, den, out=num, denominator_is_scratch=True)
        np.multiply(u, num, out=out)
        self._u_gen += 1
        return out

    def _mult_v_dense(self, x_observed, observed, u, v, ctx):
        k = u.shape[1]
        m = v.shape[1]
        out = self.out_for("v", v)
        prefix = ctx.frozen_prefix
        if ctx.frozen_v is not None and prefix is not None:
            if prefix >= m:
                np.copyto(out, v)
                self._v_gen += 1
                return out
            live = slice(prefix, None)
            np.copyto(out, v)  # carries the frozen landmark block
            recon_live = self._masked_recon("recon_live", u, v, live)
            num = self.buf("num_v", (k, m - prefix))
            den = self.buf("den_v", (k, m - prefix))
            np.matmul(u.T, x_observed[:, live], out=num)
            np.matmul(u.T, recon_live, out=den)
            guarded_divide(num, den, out=num, denominator_is_scratch=True)
            np.multiply(v[:, live], num, out=out[:, live])
            self._v_gen += 1
            return out
        recon = self._masked_recon("recon", u, v)
        num = self.buf("num_v_full", (k, m))
        den = self.buf("den_v_full", (k, m))
        np.matmul(u.T, x_observed, out=num)
        np.matmul(u.T, recon, out=den)
        guarded_divide(num, den, out=num, denominator_is_scratch=True)
        np.multiply(v, num, out=out)
        if ctx.frozen_v is not None:
            np.copyto(out, v, where=ctx.frozen_v)
        self._v_gen += 1
        return out

    # ------------------------------------------------ dense gradient rules

    def _grad_u_dense(self, x_observed, observed, u, v, ctx):
        n, k = u.shape
        recon = self._masked_recon("recon", u, v)
        # The in-place residual overwrite invalidates the recon memo.
        self._recon_key = None
        np.subtract(recon, x_observed, out=recon)
        recon *= 2.0
        grad = self.buf("grad_u", (n, k))
        np.matmul(recon, v.T, out=grad)
        if ctx.lam != 0.0:
            if ctx.laplacian is None:
                raise ValueError("lam != 0 requires a laplacian")
            lap = ctx.laplacian
            if isinstance(lap, np.ndarray):
                t = self.buf("lap_u", (n, k))
                np.matmul(lap, u, out=t)
            else:
                t = np.asarray(lap @ u)
            t *= 2.0 * ctx.lam
            grad += t
        out = self.out_for("u", u)
        grad *= ctx.learning_rate
        np.subtract(u, grad, out=out)
        np.maximum(out, 0.0, out=out)
        self._u_gen += 1
        return out

    def _grad_v_dense(self, x_observed, observed, u, v, ctx):
        n, k = u.shape
        m = v.shape[1]
        recon = self._masked_recon("recon", u, v)
        self._recon_key = None
        np.subtract(recon, x_observed, out=recon)
        # The reference computes ``(2.0 * u.T) @ residual``; the scaled
        # transpose is an **F-ordered** temporary (ufuncs preserve the
        # transposed layout) and gemm bits depend on operand layout, so
        # scale into an (n, k) C buffer and pass its transpose view —
        # the exact reference layout.
        u2 = self.buf("u_x2", (n, k))
        np.multiply(u, 2.0, out=u2)
        grad = self.buf("grad_v", (k, m))
        np.matmul(u2.T, recon, out=grad)
        out = self.out_for("v", v)
        grad *= ctx.learning_rate
        np.subtract(v, grad, out=out)
        np.maximum(out, 0.0, out=out)
        if ctx.frozen_v is not None:
            np.copyto(out, v, where=ctx.frozen_v)
        self._v_gen += 1
        return out

    # ------------------------------------------------------- sparse rules

    def _sparse_recon_data(self, u, v) -> np.ndarray:
        """Per-entry reconstruction ``(U V)[rows, cols]`` via SDDMM.

        Dense gemm into a reused live-block buffer, then one flat
        ``np.take`` of the observed positions.  Counter-intuitively
        this beats gathering ``nnz x K`` factor rows and reducing: the
        gemm runs at BLAS throughput while per-entry row gathers are
        latency-bound (~100 ns each single-core).  Memoized on the
        factor generation keys, so an unchanged ``(U, V)`` pair
        (objective, then next U-update) pays the gemm once.
        """
        sp = self.sparse
        key = ((id(u), self._u_gen), (id(v), self._v_gen))
        if self._recon_key == key:
            return sp.recon_data
        dense = self.buf("sddmm_dense", (u.shape[0], sp.n_live_cols))
        np.matmul(u, v[:, sp.offset:], out=dense)
        np.take(dense.reshape(-1), sp.flat, out=sp.recon_data)
        self._recon_key = key
        return sp.recon_data

    def _vt_live(self, v) -> np.ndarray:
        """C-contiguous copy of ``V_liveᵀ`` for the CSR products (scipy
        would otherwise copy the strided transpose on every call)."""
        sp = self.sparse
        vt = self.buf("vt_live", (sp.n_live_cols, v.shape[0]))
        np.copyto(vt, v[:, sp.offset:].T)
        return vt

    def _mult_u_sparse(self, x_observed, observed, u, v, ctx):
        sp = self.sparse
        n, k = u.shape
        vt_live = self._vt_live(v)
        self._sparse_recon_data(u, v)
        if self.gram is not None:
            num = self.buf("num_u", (n, k))
            den = self.buf("den_u", (n, k))
            # Landmark columns: constant numerator X_L V_Lᵀ; masked
            # recon equals U V_L there (fully observed), so the
            # denominator share is U (V_L V_Lᵀ) via the cached Gram.
            np.copyto(num, self.gram.xl_vlt)
            num += sp.x_csr @ vt_live
            np.matmul(u, self.gram.gram_vl, out=den)
            den += sp.recon_csr @ vt_live
        else:
            num = sp.x_csr @ vt_live
            den = sp.recon_csr @ vt_live
        if ctx.lam != 0.0:
            self._add_graph_terms(num, den, u, ctx)
        out = self.out_for("u", u)
        guarded_divide(num, den, out=num, denominator_is_scratch=True)
        np.multiply(u, num, out=out)
        self._u_gen += 1
        return out

    def _mult_v_sparse(self, x_observed, observed, u, v, ctx):
        sp = self.sparse
        m = v.shape[1]
        out = self.out_for("v", v)
        np.copyto(out, v)  # frozen landmark block (if any) carried over
        if sp.offset >= m:
            self._v_gen += 1
            return out
        self._sparse_recon_data(u, v)
        # (k, m_live) numerator/denominator via the transposed products
        # Xᵀ U and R(UV)ᵀ U; fixed CSR pattern, data rewritten in place.
        num = (sp.x_csr.T @ u).T
        den = (sp.recon_csr.T @ u).T
        live = slice(sp.offset, None)
        guarded_divide(num, den, out=num, denominator_is_scratch=True)
        np.multiply(v[:, live], num, out=out[:, live])
        if ctx.frozen_v is not None and sp.offset == 0:
            # General frozen mask, or a landmark prefix whose columns
            # are not fully observed (no Gram split): the update above
            # covered every column, so restore the frozen cells — the
            # V update is column-separable, making this equivalent to
            # the reference's general path.
            np.copyto(out, v, where=ctx.frozen_v)
        self._v_gen += 1
        return out

    # ------------------------------------------------------- kernel entry

    def step(self, x_observed, observed, u, v, ctx: KernelContext):
        """One Algorithm 1 iteration under the fit's rule: U, then V."""
        if self.rule == "gradient":
            u_next = self._grad_u_dense(x_observed, observed, u, v, ctx)
            return u_next, self._grad_v_dense(x_observed, observed, u_next, v, ctx)
        if self.mode == "sparse":
            u_next = self._mult_u_sparse(x_observed, observed, u, v, ctx)
            return u_next, self._mult_v_sparse(x_observed, observed, u_next, v, ctx)
        u_next = self._mult_u_dense(x_observed, observed, u, v, ctx)
        return u_next, self._mult_v_dense(x_observed, observed, u_next, v, ctx)

    # -------------------------------------------------------- objective

    def graph_penalty(self, u: np.ndarray, similarity, degree: np.ndarray) -> float:
        """:func:`repro.core.objective.graph_penalty` at ``U``.

        Reads the ``D·U`` memo the next U-step reuses, and runs on the
        layout-matched degree stack and a scratch buffer: the bits of
        the plain call, without its allocations.
        """
        return float(
            graph_penalty(
                u,
                self._similarity_product(u, similarity),
                self._degree_stack(degree, u.shape),
                out=self.buf("penalty", u.shape),
            )
        )

    def masked_objective(self, x_observed, u, v) -> float:
        """``||R_O(X - U V)||²`` without allocating a fresh residual.

        Dense mode is bit-identical to
        :func:`repro.core.objective.masked_frobenius_sq`; sparse mode
        reduces over the observed entries only.
        """
        if self.mode == "sparse":
            sp = self.sparse
            total = 0.0
            if sp.offset:
                # Landmark columns are fully observed: dense residual
                # on the (N, L) slab only.
                rl = self.buf("obj_land", (u.shape[0], sp.offset))
                np.matmul(u, v[:, : sp.offset], out=rl)
                np.subtract(x_observed[:, : sp.offset], rl, out=rl)
                total += float(np.vdot(rl, rl))
            recon = self._sparse_recon_data(u, v)
            # Residual into its own buffer: ``recon_data`` stays valid
            # for the gather memo and the fixed-pattern ``recon_csr``.
            r = self.buf("obj_sparse_resid", (sp.nnz,))
            np.subtract(sp.vals, recon, out=r)
            total += float(np.vdot(r, r))
            return total
        # Masked-recon-first is bit-identical to the reference's
        # residual-first masking: at observed cells the recon is
        # unmasked, and at unobserved cells ``x_observed`` is already
        # zero so the residual is ``0 - 0 = +0`` either way.  Going
        # through ``_masked_recon`` shares the memoized gemm with the
        # next iteration's U-update.
        recon = self._masked_recon("recon", u, v)
        resid = self.buf("obj_resid", self.shape)
        np.subtract(x_observed, recon, out=resid)
        return float(np.einsum("ij,ij->", resid, resid))


class ReferenceKernel:
    """``kernel_path="reference"``: the allocating rules of
    :mod:`repro.core.updates`, behind the kernel-object interface.

    Every step allocates fresh factors (inputs are never mutated) — the
    bit-exact oracle the workspace paths are measured against.
    """

    def __init__(self, observed: np.ndarray, rule: str = "multiplicative") -> None:
        if rule not in FULL_BATCH_RULES:
            raise ValidationError(
                f"the reference kernel runs {FULL_BATCH_RULES}, got rule "
                f"{rule!r}; stochastic rules need a BatchScheduler "
                '(construct the model with method="stochastic")'
            )
        self.rule = rule
        self.observed = observed
        self.shape = observed.shape

    def step(self, x_observed, observed, u, v, ctx: KernelContext):
        """One Algorithm 1 iteration under the fit's rule: U, then V."""
        if self.rule == "gradient":
            u = gradient_update_u(
                x_observed, observed, u, v,
                learning_rate=ctx.learning_rate, lam=ctx.lam,
                laplacian=ctx.laplacian,
            )
            v = gradient_update_v(
                x_observed, observed, u, v,
                learning_rate=ctx.learning_rate, frozen_v=ctx.frozen_v,
            )
            return u, v
        u = multiplicative_update_u(
            x_observed, observed, u, v,
            lam=ctx.lam, similarity=ctx.similarity, degree=ctx.degree,
        )
        v = multiplicative_update_v(
            x_observed, observed, u, v,
            frozen_v=ctx.frozen_v, frozen_prefix=ctx.frozen_prefix,
        )
        return u, v

    def masked_objective(self, x_observed, u, v) -> float:
        """:func:`repro.core.objective.masked_frobenius_sq` itself."""
        return masked_frobenius_sq(x_observed, u, v, self.observed)


def build_kernel(
    x_observed: np.ndarray,
    observed: np.ndarray,
    *,
    update_rule: str,
    kernel_path: str = "auto",
    frozen_prefix: int | None = None,
    v0: np.ndarray | None = None,
    scheduler=None,
):
    """The per-fit kernel object for ``update_rule`` on ``kernel_path``.

    Stochastic rules get a
    :class:`~repro.engine.stochastic.StochasticWorkspace` driven by
    ``scheduler`` (``kernel_path`` does not apply to them); the
    full-batch rules resolve ``kernel_path`` (see
    :func:`resolve_kernel_path`) to a :class:`ReferenceKernel` or a
    dense/sparse :class:`KernelWorkspace`.  ``frozen_prefix``/``v0``
    let the sparse path cache the frozen landmark block
    (:class:`GramCache`).
    """
    if update_rule not in UPDATE_RULES:
        raise ValidationError(
            f"unknown update_rule {update_rule!r}; available: {UPDATE_RULES}"
        )
    if update_rule not in FULL_BATCH_RULES:
        from .stochastic import StochasticWorkspace

        if scheduler is None:
            raise ValidationError(
                f"update_rule {update_rule!r} needs a BatchScheduler; "
                'construct the model with method="stochastic"'
            )
        return StochasticWorkspace(scheduler, rule=update_rule, observed=observed)
    resolved = resolve_kernel_path(
        kernel_path, update_rule=update_rule, observed=observed
    )
    if resolved == "reference":
        return ReferenceKernel(observed, update_rule)
    return KernelWorkspace(
        x_observed,
        observed,
        mode="sparse" if resolved == "sparse" else "dense",
        rule=update_rule,
        frozen_prefix=frozen_prefix,
        v0=v0,
    )
