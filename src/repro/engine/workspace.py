"""Allocation-free kernel workspace, Gram-cached landmark blocks, and the
sparse-observed fast path (the Proposition 1 cost model, realized in code).

Proposition 1 bounds SMFL at ``O(t1·NMK + N²·L + t2·KNL)``.  The terms
map onto this module as follows:

``t1·NMK``
    The per-iteration full-matrix passes.  :class:`KernelWorkspace`
    preallocates every buffer these passes need (masked reconstruction,
    numerator/denominator blocks, ping-pong factor outputs) and the
    rewritten kernels run them as ``out=``-form BLAS calls — so steady-
    state iterations allocate **no** new ``N×M`` (or ``N×K``) arrays,
    and the dense multiplicative step binds them once per fit or stack.
    Products shared between the objective at ``(U_t, V_t)`` and the
    next U-step — the masked reconstruction, ``D·U_t`` and
    ``W·U_t = deg ⊙ U_t`` (the objective's penalty is
    :func:`repro.core.objective.graph_penalty`) — are memoized on
    factor write generations and computed once, so an iteration runs
    Proposition 1's one ``O(pNK)`` graph product; a stack sharing one
    graph runs it as one CSR product on a block-diagonal copy.
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
Algorithm 1 iteration: U, then V with the landmark block frozen),
``masked_objective(x_observed, u, v)`` and ``graph_penalty(u,
similarity, degree)`` (the ``Tr(Uᵀ L U)`` term of SMF's objective):

:class:`KernelWorkspace`, ``mode="dense"`` (``kernel_path="workspace"``)
    The allocation-free path for the multiplicative and gradient
    rules, and the only dense implementation of them: the same class
    runs one fit or, through :meth:`KernelWorkspace.stacked`, the
    ``B``-member stacks of :func:`repro.engine.batched.multi_fit`.
    Every floating-point operation is performed in the same order as
    in the reference rules, on operand layouts that keep their bits
    (a layout is changed only where that is measured to be faster and
    bit-exact, e.g. the U-step's contiguous ``Vᵀ``), so the two paths
    are **bit-identical** — the golden fixtures do not move.
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

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ..core.objective import graph_penalty, masked_residual_sq, penalty_from_products
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


def _aligned(shape: tuple[int, ...], dtype=np.float64, src=None) -> np.ndarray:
    """An array of ``shape`` (holding ``src`` broadcast, if given) on a 64-byte
    boundary, where elementwise ufuncs run up to 2x faster: same bits."""
    raw = np.empty(int(np.prod(shape)) * np.dtype(dtype).itemsize + 64, np.uint8)
    start = -raw.__array_interface__["data"][0] % 64
    out = raw[start : start + raw.size - 64].view(dtype).reshape(shape)
    if src is not None:
        np.copyto(out, src)
    return out


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

    _empty = staticmethod(np.empty)

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._pairs: dict[str, list[np.ndarray | None]] = {}

    def buf(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Named scratch buffer: allocated once, reused after."""
        b = self._buffers.get(name)
        if b is None or b.shape != shape or b.dtype != dtype:
            b = self._empty(shape, dtype=dtype)
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


def _block_diagonal(op, b: int):
    """``diag(op, …, op)`` with ``b`` blocks, as one CSR matrix.

    Row ``i·N + r`` holds row ``r`` of ``op`` (its CSR form): the same
    nonzeros in the same order, columns shifted to member ``i``'s block.
    scipy accumulates a CSR row's products in stored order whatever the
    number of dense columns, so ``block @ U.reshape(B·N, K)`` gives
    every member the bits of its own ``op @ U[i]``.
    """
    from scipy import sparse

    op = op.tocsr()
    n_rows, n_cols = op.shape
    nnz = int(op.indptr[-1])
    shift = np.arange(b, dtype=np.int64)[:, None]
    indptr = np.append((op.indptr[:-1] + nnz * shift).ravel(), b * nnz)
    indices = (op.indices + n_cols * shift).ravel()
    return sparse.csr_matrix(
        (np.tile(op.data, b), indices, indptr), shape=(b * n_rows, b * n_cols)
    )


def _stack_operator(op, shape: tuple[int, ...]):
    """The operator a ``U`` of ``shape`` is multiplied by: ``op`` itself
    for one fit, a one-member stack (whose member-major rows are the
    fit's) or a dense ``op`` (``matmul`` broadcasts it over a stack),
    else its block-diagonal copy over the member-major rows."""
    if len(shape) == 2 or shape[0] == 1 or isinstance(op, np.ndarray):
        return op
    return _block_diagonal(op, shape[0])


@dataclass
class _GraphPlan:
    """How the kernel evaluates the graph terms ``lam·D U`` / ``lam·W U``.

    ``terms`` holds what each member's graph terms read (``lam``,
    ``similarity``, ``degree``, ``laplacian``): the fit's
    :class:`~repro.engine.kernels.KernelContext` for one fit, the
    :class:`~repro.engine.batched.BatchedFit` members for a stack.

    The operator fields are set when every member with ``lam != 0``
    holds the **same operator object** (``is`` identity) — always for
    one fit, and for a stack when the runner coalesced cells of one
    cached graph.  Then each graph product runs once for the whole
    stack: ``similarity``/``laplacian`` are the shared operator, or for
    a stack its block-diagonal copy (:func:`_block_diagonal`) that
    multiplies the member-major ``U.reshape(B·N, K)`` in one CSR
    product whose result is already in ``U``'s layout.  ``deg3`` is
    the shared degree column and ``lam_stack`` each member's ``lam`` (0
    for members without a graph term, whose finite contributions are
    then exact zeros), both repeated to ``U``'s shape; ``lam3`` is
    ``lam`` per member.  For one fit both ``lam`` fields are the plain
    float.  Members with their own operators fall back to a per-member
    loop.  ``shape`` is the ``U`` shape the plan was built for.
    """

    terms: list
    shape: tuple = ()
    active: bool = False
    similarity: object | None = None
    laplacian: object | None = None
    deg3: np.ndarray | None = None
    lam3: object = None
    lam_stack: object = None

    @classmethod
    def build(cls, terms, shape: tuple[int, ...]) -> "_GraphPlan":
        graph = [t for t in terms if t.lam != 0.0]
        plan = cls(list(terms), tuple(shape), active=bool(graph))
        if not graph:
            return plan
        first = graph[0]
        if (
            first.similarity is not None
            and first.degree is not None
            and all(t.similarity is first.similarity for t in graph)
            and all(np.array_equal(t.degree, first.degree) for t in graph)
        ):
            plan.similarity = _stack_operator(first.similarity, shape)
            col = np.asarray(first.degree, dtype=np.float64).reshape(-1, 1)
            plan.deg3 = _aligned(shape, src=col)
        if first.laplacian is not None and all(
            t.laplacian is first.laplacian for t in graph
        ):
            plan.laplacian = _stack_operator(first.laplacian, shape)
        if len(shape) == 2:
            plan.lam3 = plan.lam_stack = float(first.lam)
        else:
            lams = np.array([t.lam for t in terms], dtype=np.float64)
            plan.lam3 = lams.reshape(-1, 1, 1)
            plan.lam_stack = _aligned(shape, src=plan.lam3)
        return plan


class KernelWorkspace(BufferArena):
    """Per-fit buffer arena + the full-batch update kernels.

    Owns every array a steady-state iteration needs: named scratch
    buffers (allocated on first use, reused forever after), ping-pong
    output buffers for each factor (the engine's previous state is
    still readable by callbacks while the next state is written), the
    float observation mask, and — in sparse mode — the
    :class:`_SparseObserved` index structure and :class:`GramCache`.

    ``rule`` picks what :meth:`step` runs: the multiplicative rule
    (dense or sparse) or the gradient rule (dense only).  The dense
    kernels replicate the reference rules of :mod:`repro.core.updates`
    operation for operation (same op order, operand layouts that keep
    the reference's bits), which makes them bit-identical; the
    equivalence tests enforce this per iteration.

    Dense mode runs one fit (``X`` ``(N, M)``, ``U`` ``(N, K)``) or a
    stack of ``B`` same-shape fits (``(B, N, M)``, ``(B, N, K)``; see
    :meth:`stacked`) through the same batch-agnostic operations:
    ``swapaxes(-1, -2)`` transposes, ``[..., live]`` column slices and
    ``...ij`` reductions.  NumPy's stacked ``matmul`` applies the 2-D
    gemm to each slice, so every member of a stack gets the bits of
    its own 2-D fit.  A single fit's graph terms come from the
    :class:`~repro.engine.kernels.KernelContext` it is built with
    (``ctx``; a :meth:`step` under another context or ``U`` shape
    rebinds them, dropping the graph memos); a stack's from its members
    (see :class:`_GraphPlan`).  The dense multiplicative step
    (:meth:`_dense_step`, fits and stacks alike) is straight-line
    ``out=`` calls on a record bound after each binding, :meth:`compact`
    or context change: ``Vᵀ``, masked recon,
    U's numerator and denominator, ``W·U``, live-column mask, V blocks,
    ``lam``, shared operator and ping-pong slots, all cache-line aligned.

    Each product is evaluated once per iteration: the objective's
    ``R_O(U V)``, ``D·U`` and ``W·U`` (its penalty's products) are
    memoized for the next U-step under ``(array ids, write generation)``
    keys.  The
    workspace is the only writer of the factors it hands out and every
    write goes through :meth:`out_for`, which bumps the generation, so
    an unchanged key means unchanged operands.
    """

    _empty = staticmethod(_aligned)  # named buffers on cache-line boundaries

    def __init__(
        self,
        x_observed: np.ndarray,
        observed: np.ndarray,
        *,
        mode: str = "dense",
        rule: str = "multiplicative",
        frozen_prefix: int | None = None,
        v0: np.ndarray | None = None,
        members: list | None = None,
        ctx: KernelContext | None = None,
    ) -> None:
        if mode not in ("dense", "sparse"):
            raise ValidationError(f"unknown workspace mode {mode!r}")
        if rule not in FULL_BATCH_RULES or (mode == "sparse" and rule != "multiplicative"):
            raise ValidationError(f"no {mode} workspace for update_rule {rule!r}")
        super().__init__()
        self.mode = mode
        self.rule = rule
        self.x_observed = x_observed
        self.shape = x_observed.shape
        # Float mask for branchless masking: multiplying the raw
        # reconstruction by {0.0, 1.0} is bit-identical to the
        # reference ``np.where(observed, recon, 0.0)`` because the
        # factors are non-negative, so every recon entry is ``>= +0.0``
        # and ``recon * 0.0 == +0.0`` exactly.  The multiply streams
        # branch-free at memory bandwidth; ``copyto(..., where=)``
        # costs several times more on high missing rates.
        self.observed_f = _aligned(observed.shape, src=observed)
        self.gram: GramCache | None = None
        self.sparse: _SparseObserved | None = None
        self._gen = 0
        self._recon_key: tuple[int, int, int] | None = None
        self._du_key: tuple[int, int] | None = None
        self._du = None
        self._wu_key: tuple[int, int] | None = None
        self._dense: SimpleNamespace | None = None
        self.members = None if members is None else list(members)
        self._ctx: KernelContext | None = None
        self._graph_plan = _GraphPlan([])
        if self.members is not None:
            self._graph_plan = _GraphPlan.build(self.members, self._u_shape())
        elif ctx is not None:
            if v0 is None:
                raise ValidationError("a workspace built with ctx needs v0")
            self._bind(ctx, (self.shape[0], v0.shape[0]))
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

    @classmethod
    def stacked(cls, fits, *, rule: str = "multiplicative") -> "KernelWorkspace":
        """The dense kernel over ``B`` same-shape fits (``BatchedFit``-like
        members: ``x_observed``, ``observed``, ``u0`` and graph terms)."""
        shapes = {f.x_observed.shape for f in fits}
        kshapes = {f.u0.shape[1] for f in fits}
        if len(shapes) != 1 or len(kshapes) != 1:
            raise ValidationError(
                f"batched fits must share (N, M, K); got shapes {sorted(shapes)} "
                f"and ranks {sorted(kshapes)}"
            )
        x = np.stack([f.x_observed for f in fits])
        return cls(
            _aligned(x.shape, src=x),
            np.stack([f.observed for f in fits]),
            rule=rule,
            members=fits,
        )

    def _u_shape(self) -> tuple[int, int, int]:
        return (len(self.members), *self.members[0].u0.shape)

    def _bind(self, ctx: KernelContext, u_shape: tuple[int, int]) -> None:
        """A single fit's graph terms from ``ctx`` for ``u_shape``; drops memos and bound step."""
        self._ctx = ctx
        self._graph_plan = _GraphPlan.build([ctx], u_shape)
        self._du_key = self._du = self._wu_key = self._dense = None

    def out_for(self, name: str, current: np.ndarray) -> np.ndarray:
        """Ping-pong factor output; bumps the memo write generation."""
        self._gen += 1
        return super().out_for(name, current)

    def compact(self, keep: list[int]) -> None:
        """Drop stacked members: pure ``np.take`` row-block copies (aligned).

        ``np.take`` along axis 0 copies whole contiguous slices, so the
        surviving members' data/mask bits are untouched; the named
        scratch buffers re-allocate lazily at the new batch size (the
        shape check in :meth:`BufferArena.buf`), and the graph plan's
        block operators are rebuilt for it.  The memos and the bound
        step are dropped: the factors the caller passes next are new.
        """
        kept = (len(keep), *self.shape[1:])
        self.x_observed = np.take(self.x_observed, keep, axis=0, out=_aligned(kept))
        self.observed_f = np.take(self.observed_f, keep, axis=0, out=_aligned(kept))
        self.shape = self.x_observed.shape
        self.members = [self.members[i] for i in keep]
        self._recon_key = self._du_key = self._du = self._wu_key = self._dense = None
        self._graph_plan = _GraphPlan.build(self.members, self._u_shape())

    # ------------------------------------------------- shared graph terms

    def _apply(self, name: str, op, u: np.ndarray) -> np.ndarray:
        """``op @ U`` for every member, in ``U``'s shape.

        A dense ``op`` broadcasts over a stack into a named buffer.  A
        sparse one (a stack's block-diagonal copy, see
        :class:`_GraphPlan`) runs one CSR product on the member-major
        ``U.reshape(-1, K)`` — a view of ``U`` — and its result
        reshapes back without a copy.  The product allocates ``O(N K)``
        and costs ``O(p N K)`` per member: the sparsity Proposition 1
        assumes.
        """
        if isinstance(op, np.ndarray):
            out = self.buf(name, u.shape)
            np.matmul(op, u, out=out)
            return out
        return np.asarray(op @ u.reshape(-1, u.shape[-1])).reshape(u.shape)

    def _similarity_product(self, u: np.ndarray):
        """``D·U``, memoized on ``(id(U), write generation)``.

        The objective's penalty at ``U_t`` and the U-step of iteration
        ``t+1`` read the same product, so an iteration evaluated every
        step runs one graph product.  A shared operator gives one array
        in ``U``'s shape; otherwise a per-member list (``None`` where
        ``lam == 0``).  A caller that scales it in place must clear
        ``_du_key``.
        """
        key = (id(u), self._gen)
        if self._du_key != key:
            plan = self._graph_plan
            if plan.deg3 is not None:
                self._du = self._apply("graph_du", plan.similarity, u)
            else:
                graph = [(i, t) for i, t in enumerate(plan.terms) if t.lam != 0.0]
                if any(t.similarity is None or t.degree is None for _, t in graph):
                    raise ValueError("lam != 0 requires similarity and degree")
                self._du = [None] * len(plan.terms)
                for i, t in graph:
                    self._du[i] = np.asarray(t.similarity @ u[i])
            self._du_key = key
        return self._du

    def _degree_product(self, u: np.ndarray) -> np.ndarray:
        """``W·U = deg ⊙ U`` on a shared plan, memoized like
        :meth:`_similarity_product`: the objective's penalty at ``U_t``
        and the next U-step's ``lam·W U_t`` share one ``N×K`` pass.  A
        caller that scales it in place must clear ``_wu_key``."""
        wu = self.buf("graph_wu", u.shape)
        key = (id(u), self._gen)
        if self._wu_key != key:
            np.multiply(self._graph_plan.deg3, u, out=wu)
            self._wu_key = key
        return wu

    def _add_graph_terms(self, num: np.ndarray, den: np.ndarray, u: np.ndarray) -> None:
        """Add ``lam·D U`` / ``lam·W U`` in the reference op order.

        On a shared plan both products come from the memos (the
        objective's, when it ran at this ``U``) and are scaled by the
        layout-matched ``lam_stack`` in place: the same rounding as the
        reference's ``lam * (D @ U)`` and ``lam * (deg ⊙ U)``.
        """
        plan = self._graph_plan
        if not plan.active:
            return
        du = self._similarity_product(u)
        if plan.deg3 is not None:
            wu = self._degree_product(u)
            # The in-place ``lam`` scaling below uses both memos up.
            self._du_key = self._wu_key = None
            du *= plan.lam_stack
            num += du
            wu *= plan.lam_stack
            den += wu
            return
        self._du_key = None
        t = self.buf("graph_den", u.shape[1:])
        for i, term in enumerate(plan.terms):
            if term.lam == 0.0:
                continue
            du[i] *= term.lam
            num[i] += du[i]
            np.multiply(np.asarray(term.degree).reshape(-1, 1), u[i], out=t)
            t *= term.lam
            den[i] += t

    # --------------------------------------------------- dense mult rules

    def _masked_recon(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``R_O(U V)``, memoized: the U-step right after an objective at
        the same ``(U, V)`` reuses its buffer without redoing the ``NMK``
        gemm.  A caller that overwrites the buffer must clear
        ``_recon_key``."""
        key = (id(u), id(v), self._gen)
        recon = self.buf("recon", (*u.shape[:-1], v.shape[-1]))
        if self._recon_key != key:
            np.matmul(u, v, out=recon)
            np.multiply(recon, self.observed_f, out=recon)
            self._recon_key = key
        return recon

    def _multiply_out(self, name: str, current, num, den) -> np.ndarray:
        """``current ⊙ num / (den + ε)`` into ``current``'s ping-pong slot."""
        out = self.out_for(name, current)
        guarded_divide(num, den, out=num, denominator_is_scratch=True)
        np.multiply(current, num, out=out)
        return out

    def _vt(self, v: np.ndarray) -> np.ndarray:
        """``Vᵀ`` copied C-contiguous into a ``(…, M, K)`` buffer.

        The U-step's ``N×M×K`` gemms run 2-3x faster on this operand
        than on the strided ``swapaxes`` view (which OpenBLAS sends
        down a slow path), and one copy of ``K·M`` doubles per step
        serves both.  The bits are the same wherever numpy runs a gemm
        either way, i.e. at every shape a fit admits: only a 1-row
        ``X`` with ``K > 1`` would go to gemv, and ``K <= min(N, M)``.
        The V-step's ``Uᵀ`` stays a view: a copy there changes bits.
        """
        vt = self.buf("vt", (*v.shape[:-2], v.shape[-1], v.shape[-2]))
        np.copyto(vt, v.swapaxes(-1, -2))
        return vt

    def _dense_step(self, x_observed, u, v, ctx):
        """U then V on the bound record ``s``, in the reference rules' op
        order; memos read as :meth:`_masked_recon`/:meth:`_add_graph_terms`
        (the per-member fallback) do, generation bumped as by :meth:`out_for`.

        The divisions run bare, without :func:`guarded_divide`'s
        errstate: every denominator here is a sum of products of
        non-negative factors plus ``EPSILON``, so only non-finite
        operands can raise ``divide``/``invalid`` - a diverging fit,
        which the next check names (:class:`NumericalDivergenceError`)."""
        s = self._dense
        if s is None or s.ctx is not ctx:  # bind: see the class docstring
            buf, plan, (*lead, n, k), m = self.buf, self._graph_plan, u.shape, v.shape[-1]
            p = (ctx.frozen_prefix or 0) if ctx.frozen_v is not None else 0
            shared, v_live, r_live = plan.deg3 is not None, (*lead, k, m - p), (*lead, n, m - p)
            recon = buf("recon", (*lead, n, m))
            s = self._dense = SimpleNamespace(
                ctx=ctx, prefix=p, vt=buf("vt", (*lead, m, k)), recon=recon,
                num_u=buf("num_u", u.shape), den_u=buf("den_u", u.shape), lam=plan.lam_stack,
                op=plan.similarity if shared else None, deg3=plan.deg3,
                rows=u.shape if isinstance(plan.similarity, np.ndarray) else (-1, k),
                wu=buf("graph_wu", u.shape) if shared else None,
                live=_aligned(r_live, src=self.observed_f[..., p:]) if p else self.observed_f,
                recon_v=buf("recon_live", r_live) if p else recon,
                num_v=buf("num_v", v_live), den_v=buf("den_v", v_live),
                u_out=(_aligned(u.shape), _aligned(u.shape)),
                v_out=(_aligned(v.shape), _aligned(v.shape)),
            )
        divide, gen, p = guarded_divide.__wrapped__, self._gen, s.prefix
        np.copyto(s.vt, v.swapaxes(-1, -2))
        if self._recon_key != (id(u), id(v), gen):
            np.matmul(u, v, out=s.recon)
            np.multiply(s.recon, self.observed_f, out=s.recon)
        np.matmul(x_observed, s.vt, out=s.num_u)
        np.matmul(s.recon, s.vt, out=s.den_u)
        if s.op is not None:
            du = self._du if self._du_key == (id(u), gen) else np.asarray(
                s.op @ u.reshape(s.rows)).reshape(u.shape)
            if self._wu_key != (id(u), gen):
                np.multiply(s.deg3, u, out=s.wu)
            du *= s.lam
            s.num_u += du
            s.wu *= s.lam
            s.den_u += s.wu
        elif self._graph_plan.active:
            self._add_graph_terms(s.num_u, s.den_u, u)
        # The lam scalings use the graph memos up; a prefix-free V-step reuses recon.
        self._recon_key = self._du_key = self._wu_key = None
        u_next = s.u_out[u is s.u_out[0]]
        divide(s.num_u, s.den_u, out=s.num_u, denominator_is_scratch=True)
        np.multiply(u, s.num_u, out=u_next)
        v_next = s.v_out[v is s.v_out[0]]
        if p:
            np.copyto(v_next, v)  # carries the frozen landmark block
        if p < v.shape[-1]:
            np.matmul(u_next, v[..., p:], out=s.recon_v)
            np.multiply(s.recon_v, s.live, out=s.recon_v)
            ut = u_next.swapaxes(-1, -2)
            np.matmul(ut, x_observed[..., p:], out=s.num_v)
            np.matmul(ut, s.recon_v, out=s.den_v)
            divide(s.num_v, s.den_v, out=s.num_v, denominator_is_scratch=True)
            np.multiply(v[..., p:], s.num_v, out=v_next[..., p:])
        if not p and ctx.frozen_v is not None:
            np.copyto(v_next, v, where=ctx.frozen_v)
        self._gen += 2
        return u_next, v_next

    # ------------------------------------------------ dense gradient rules

    def _grad_u_dense(self, x_observed, u, v, ctx):
        recon = self._masked_recon(u, v)
        # The in-place residual overwrite invalidates the recon memo.
        self._recon_key = None
        np.subtract(recon, x_observed, out=recon)
        recon *= 2.0
        grad = self.buf("grad_u", u.shape)
        np.matmul(recon, self._vt(v), out=grad)
        plan = self._graph_plan
        if plan.active and plan.laplacian is not None:
            t = self._apply("lap_u", plan.laplacian, u)
            t *= 2.0 * plan.lam3
            grad += t
        elif plan.active:
            for i, term in enumerate(plan.terms):
                if term.lam == 0.0:
                    continue
                if term.laplacian is None:
                    raise ValueError("lam != 0 requires a laplacian")
                t = np.asarray(term.laplacian @ u[i])
                t *= 2.0 * term.lam
                grad[i] += t
        out = self.out_for("u", u)
        grad *= ctx.learning_rate
        np.subtract(u, grad, out=out)
        np.maximum(out, 0.0, out=out)
        return out

    def _grad_v_dense(self, x_observed, u, v, ctx):
        recon = self._masked_recon(u, v)
        self._recon_key = None
        np.subtract(recon, x_observed, out=recon)
        # The reference computes ``(2.0 * u.T) @ residual``; the scaled
        # transpose is an **F-ordered** temporary (ufuncs preserve the
        # transposed layout) and gemm bits depend on operand layout, so
        # scale into a C buffer of ``U``'s shape and pass its transpose
        # view — the exact reference layout.
        u2 = self.buf("u_x2", u.shape)
        np.multiply(u, 2.0, out=u2)
        grad = self.buf("grad_v", v.shape)
        np.matmul(u2.swapaxes(-1, -2), recon, out=grad)
        out = self.out_for("v", v)
        grad *= ctx.learning_rate
        np.subtract(v, grad, out=out)
        np.maximum(out, 0.0, out=out)
        if ctx.frozen_v is not None:
            np.copyto(out, v, where=ctx.frozen_v)
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
        key = (id(u), id(v), self._gen)
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

    def _mult_u_sparse(self, u, v):
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
        self._add_graph_terms(num, den, u)
        return self._multiply_out("u", u, num, den)

    def _mult_v_sparse(self, u, v, ctx):
        sp = self.sparse
        m = v.shape[1]
        out = self.out_for("v", v)
        np.copyto(out, v)  # frozen landmark block (if any) carried over
        if sp.offset >= m:
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
        return out

    # ------------------------------------------------------- kernel entry

    def step(self, x_observed, observed, u, v, ctx: KernelContext):
        """One Algorithm 1 iteration under the fit's rule: U, then V.

        The masked passes read the workspace's own float mask, so a
        stack passes ``observed=None``.
        """
        if self.members is None and (ctx is not self._ctx or u.shape != self._graph_plan.shape):
            self._bind(ctx, u.shape)
        if self.rule == "gradient":
            u_next = self._grad_u_dense(x_observed, u, v, ctx)
            return u_next, self._grad_v_dense(x_observed, u_next, v, ctx)
        if self.mode == "sparse":
            u_next = self._mult_u_sparse(u, v)
            return u_next, self._mult_v_sparse(u_next, v, ctx)
        return self._dense_step(x_observed, u, v, ctx)

    # -------------------------------------------------------- objective

    def _rebind_rank(self, u: np.ndarray) -> None:
        """Rebind a bound single fit's graph terms to a ``U`` of another
        rank, as :meth:`step` does, before a penalty reads them."""
        if self.members is None and self._ctx is not None and u.shape != self._graph_plan.shape:
            self._bind(self._ctx, u.shape)

    def _penalties(self, u: np.ndarray):
        """:func:`repro.core.objective.graph_penalty` per member, from the
        shared plan's memoized ``D·U`` and ``W·U`` into a scratch
        buffer: the bits of the plain call, without its allocations or
        its ``deg ⊙ U`` pass."""
        return penalty_from_products(
            u,
            self._similarity_product(u),
            self._degree_product(u),
            out=self.buf("penalty", u.shape),
        )

    def graph_penalty(self, u: np.ndarray, similarity, degree: np.ndarray) -> float:
        """``Tr(Uᵀ L U)`` of one fit, reading the ``D·U``/``W·U`` memos
        the next U-step reuses (the plain form for a graph the
        workspace was not bound to)."""
        self._rebind_rank(u)
        if self._graph_plan.deg3 is None or self._graph_plan.similarity is not similarity:
            return ReferenceKernel.graph_penalty(u, similarity, degree)
        return float(self._penalties(u))

    def masked_objective(self, x_observed, u, v):
        """``||R_O(X - U V)||²`` without allocating a fresh residual; one
        value per member for a stack.

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
        recon = self._masked_recon(u, v)
        resid = self.buf("obj_resid", recon.shape)
        np.subtract(x_observed, recon, out=resid)
        data = np.einsum("...ij,...ij->...", resid, resid)
        return data if data.ndim else float(data)

    def objective(self, x_observed, u, v):
        """The data term plus ``lam``·penalty, in ``SMF._objective``'s op
        order: a float for a single fit, one value per member for a
        stack.  A single fit's graph term is the bound context's, so a
        workspace built without ``ctx`` refuses to evaluate before its
        first :meth:`step`."""
        if self.members is None and self._ctx is None:
            raise ValidationError(
                "objective needs the fit's graph terms: build the workspace "
                "with ctx or step it first"
            )
        self._rebind_rank(u)
        data = self.masked_objective(x_observed, u, v)
        plan = self._graph_plan
        if not plan.active:
            return data
        if u.ndim == 2:
            return data + plan.lam3 * float(self._penalties(u))
        if plan.deg3 is not None:
            return data + plan.lam3.ravel() * self._penalties(u)
        du = self._similarity_product(u)
        out = data.copy()
        for i, term in enumerate(plan.terms):
            if term.lam != 0.0:
                degree = np.asarray(term.degree).reshape(-1, 1)
                penalty = float(graph_penalty(u[i], du[i], degree))
                out[i] = float(data[i]) + term.lam * penalty
        return out


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
        """:func:`repro.core.objective.masked_residual_sq` itself."""
        return masked_residual_sq(x_observed, u, v, self.observed)

    @staticmethod
    def graph_penalty(u: np.ndarray, similarity, degree: np.ndarray) -> float:
        """:func:`repro.core.objective.graph_penalty` with its own ``D·U``."""
        return float(graph_penalty(u, np.asarray(similarity @ u), degree[:, None]))


def build_kernel(
    x_observed: np.ndarray,
    observed: np.ndarray,
    *,
    update_rule: str,
    kernel_path: str = "auto",
    frozen_prefix: int | None = None,
    v0: np.ndarray | None = None,
    scheduler=None,
    ctx: KernelContext | None = None,
):
    """The per-fit kernel object for ``update_rule`` on ``kernel_path``.

    Stochastic rules get a
    :class:`~repro.engine.stochastic.StochasticWorkspace` driven by
    ``scheduler`` (``kernel_path`` does not apply to them); the
    full-batch rules resolve ``kernel_path`` (see
    :func:`resolve_kernel_path`) to a :class:`ReferenceKernel` or a
    dense/sparse :class:`KernelWorkspace`.  ``frozen_prefix``/``v0``
    let the sparse path cache the frozen landmark block
    (:class:`GramCache`); a workspace binds its graph terms from
    ``ctx``, the context its steps will receive.
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
        ctx=ctx,
    )
