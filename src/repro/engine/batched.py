"""Batched multi-fit kernel: ``B`` same-shape fits as single 3-D gemms.

The experiment grids (Tables IV-VII, Figures 4-9) spend their wall time
on hundreds of *tiny* same-shape SMFL/SMF/NMF fits.  Each one runs a
handful of small gemms per iteration, so the per-iteration cost is
dominated by Python/BLAS dispatch, not floating-point work.  This
module stacks ``B`` compatible fits — same ``(N, M, K, L)``, different
data/masks/seeds — into 3-D arrays ``U[B,N,K]``, ``V[B,K,M]``,
``X[B,N,M]`` and runs the multiplicative/gradient update rules as
batched ``np.matmul`` calls, amortizing every dispatch across the whole
batch.

Bit-identity contract
---------------------
NumPy's stacked ``matmul`` applies the same 2-D gemm kernel to each
``[b]`` slice, so a batched product is **bit-identical** per slice to
the looped 2-D product on the same operands (verified for the ``out=``
form, strided column slices, and ``transpose(0, 2, 1)`` views this
module uses).  The batched kernels replicate the dense
:class:`~repro.engine.workspace.KernelWorkspace` rules operation for
operation, so a fit run through :func:`multi_fit` produces the same
factor bits, objective history, ``n_iter``, ``converged`` and
``n_increases`` as its looped twin.  The only per-fit report fields
that differ are execution-trace ones: ``wall_times``/``loop_seconds``
are amortized shares of the batch clock, and ``factor_deltas`` are not
collected (documented in DESIGN 3.17).

Convergence dropout
-------------------
Each member fit owns a real :class:`~repro.engine.monitor.
ConvergenceMonitor`, fed the batched objective of its slice at the same
evaluation points the single-fit engine would use (all members share
``eval_every``/``max_iter``, so evaluation iterations align by
construction).  When a member converges it *drops out*: its factors are
copied off and the stacks are compacted with ``np.take`` along axis 0 —
a pure row-block copy that preserves every surviving slice bit-exactly,
so one fit finishing never perturbs the numerics of the others.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.objective import graph_penalty
from ..core.updates import guarded_divide
from ..exceptions import ValidationError
from ..obs.trace import get_tracer
from .kernels import FULL_BATCH_RULES, KernelContext
from .monitor import DEFAULT_MAX_ITER, ConvergenceMonitor
from .report import FitReport
from .workspace import BufferArena, KernelWorkspace

__all__ = [
    "BatchedFit",
    "BatchedWorkspace",
    "MultiFitReport",
    "multi_fit",
]


@dataclass
class BatchedFit:
    """One member of a batched multi-fit: data, init, and graph terms.

    ``similarity``/``laplacian`` may be scipy sparse operators (only
    ``@`` is required).  ``similarity`` feeds both the multiplicative
    U-step and the objective penalty (:func:`repro.core.objective.
    graph_penalty`); ``laplacian`` is what the gradient kernel consumes
    (the dense matrix, matching the single-fit context).  ``method``
    and ``setup_seconds`` are stamped into the member's
    :class:`~repro.engine.report.FitReport`.
    """

    x_observed: np.ndarray
    observed: np.ndarray
    u0: np.ndarray
    v0: np.ndarray
    lam: float = 0.0
    similarity: object | None = None
    degree: np.ndarray | None = None
    laplacian: object | None = None
    method: str = ""
    setup_seconds: float = 0.0
    degree_col: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.lam != 0.0 and (self.similarity is None or self.degree is None):
            raise ValidationError(
                "BatchedFit with lam != 0 requires similarity and degree"
            )
        if self.degree is not None:
            # Column view of the degree vector, precomputed once so the
            # per-iteration graph term is a pure elementwise multiply.
            self.degree_col = np.ascontiguousarray(
                np.asarray(self.degree, dtype=np.float64).reshape(-1, 1)
            )

    def objective_penalty(self, u: np.ndarray, du: np.ndarray) -> float:
        """The member's non-data objective term (SMF's Formula 9 penalty).

        ``du`` is ``similarity @ u``, the product the next U-step reads.
        Matches ``SMF._objective`` operation for operation so batched
        objective values are bit-identical to looped ones.
        """
        return self.lam * float(graph_penalty(u, du, self.degree_col))


@dataclass(frozen=True)
class MultiFitReport:
    """What one :func:`multi_fit` call produced.

    ``reports`` holds one :class:`~repro.engine.report.FitReport` per
    member, in input order — :meth:`split` is the explicit accessor.
    ``batch_iterations`` counts batched loop iterations (the *maximum*
    member ``n_iter``); ``batch_sizes`` records the active-batch size at
    every iteration, so ``sum(batch_sizes)`` is the total number of
    member-iterations the batch ran.
    """

    reports: tuple[FitReport, ...]
    batch_iterations: int
    batch_sizes: tuple[int, ...]
    loop_seconds: float

    @property
    def n_fits(self) -> int:
        return len(self.reports)

    def split(self) -> tuple[FitReport, ...]:
        """Per-fit reports, in the order the fits were submitted."""
        return self.reports


@dataclass
class _GraphPlan:
    """How the workspace evaluates the per-member graph terms.

    ``fits`` lists the members with ``lam != 0``.  The operator fields
    are non-``None`` only when *every* graph member holds the **same
    operator object** (``is`` identity), which is exactly the runner's
    coalesced-cell situation: the spatial graph is seed-independent and
    content-cached, so all members of a coalesced group share one
    similarity/Laplacian.  Shared operators let the ``B`` small graph
    products collapse into one stacked product per iteration;
    heterogeneous operators fall back to the per-member loop.

    The array fields are the layout-matched operands of the shared
    path's elementwise ops: ``deg3`` is the shared degree column and
    ``lam_stack`` the per-member ``lam``, both repeated to ``(B, N, K)``,
    and ``lam_flat`` is ``lam`` in the node-major ``(N, B·K)`` layout of
    a stacked sparse product.
    """

    fits: list[BatchedFit]
    similarity: object | None = None
    laplacian: object | None = None
    lam3: np.ndarray | None = None
    deg3: np.ndarray | None = None
    lam_stack: np.ndarray | None = None
    lam_flat: np.ndarray | None = None


class BatchedWorkspace(BufferArena):
    """Stacked buffer arena + batched update kernels.

    The 3-D mirror of the dense :class:`~repro.engine.workspace.
    KernelWorkspace`: same buffer discipline (named scratch allocated
    once, ping-pong factor outputs), same operation order per slice.
    The heavy ``NMK`` products run as single batched gemms.  The graph
    terms run as stacked products too when the members share their
    operator objects (see :class:`_GraphPlan`); otherwise they loop
    over the batch in the reference op order — bit-identical either
    way.

    Each product is evaluated once per iteration: the objective's
    ``R_O(U V)`` and ``W·U`` (its penalty's product) are memoized for
    the next U-step under ``(array ids, write generation)`` keys.
    Every factor write goes through :meth:`out_for`, which bumps the
    generation, so an unchanged key means unchanged operands.
    """

    def __init__(
        self,
        fits: list[BatchedFit],
        *,
        frozen_prefix: int = 0,
        rule: str = "multiplicative",
    ) -> None:
        super().__init__()
        shapes = {f.x_observed.shape for f in fits}
        kshapes = {f.u0.shape[1] for f in fits}
        if len(shapes) != 1 or len(kshapes) != 1:
            raise ValidationError(
                f"batched fits must share (N, M, K); got shapes {sorted(shapes)} "
                f"and ranks {sorted(kshapes)}"
            )
        self.fits = list(fits)
        self.prefix = int(frozen_prefix)
        self.rule = rule
        self.x3 = np.ascontiguousarray(np.stack([f.x_observed for f in fits]))
        # Float mask stack: same branchless-masking trick as the 2-D
        # workspace (factors are non-negative, so ``recon * 0.0`` is
        # ``+0.0`` exactly — bit-identical to the masked reference).
        self.observed_f3 = np.stack(
            [f.observed.astype(np.float64) for f in fits]
        )
        self._gen = 0
        self._recon_key: tuple[int, int, int] | None = None
        self._wu_key: tuple[int, int] | None = None
        self._wu: np.ndarray | list[np.ndarray | None] | None = None
        self._refresh_graph_plan()

    def _refresh_graph_plan(self) -> None:
        graph = [f for f in self.fits if f.lam != 0.0]
        sim = lap = lam3 = deg3 = lam_stack = lam_flat = None
        if graph:
            first = graph[0]
            if all(f.similarity is first.similarity for f in graph):
                sim = first.similarity
            if first.laplacian is not None and all(
                f.laplacian is first.laplacian for f in graph
            ):
                lap = first.laplacian
            b, n, k = len(self.fits), *first.u0.shape
            if len(graph) == len(self.fits):
                # Every member carries a graph term: the per-member
                # ``lam`` scaling collapses into one multiply.
                lams = np.array([f.lam for f in self.fits], dtype=np.float64)
                lam3 = lams.reshape(-1, 1, 1)
                lam_stack = np.ascontiguousarray(np.broadcast_to(lam3, (b, n, k)))
                lam_flat = np.tile(np.repeat(lams, k), (n, 1))
            if sim is not None and all(
                np.array_equal(f.degree_col, first.degree_col) for f in graph
            ):
                deg3 = np.ascontiguousarray(np.broadcast_to(first.degree_col, (b, n, k)))
        self._graph_plan = _GraphPlan(
            graph,
            similarity=sim,
            laplacian=lap,
            lam3=lam3,
            deg3=deg3,
            lam_stack=lam_stack,
            lam_flat=lam_flat,
        )

    def out_for(self, name: str, current: np.ndarray) -> np.ndarray:
        """Ping-pong factor output; bumps the memo write generation."""
        self._gen += 1
        return super().out_for(name, current)

    def _node_major(self, u3: np.ndarray) -> np.ndarray:
        """``U`` slices side by side as one ``(N, B·K)`` dense operand."""
        b, n, k = u3.shape
        flat = self.buf("u_node", (n, b * k))
        np.copyto(flat.reshape(n, b, k), u3.transpose(1, 0, 2))
        return flat

    def _stacked_apply(self, name: str, op: object, u3: np.ndarray) -> np.ndarray:
        """``op @ u3[i]`` for every slice: dense broadcast or sparse stack.

        A sparse operator runs one product on the node-major operand,
        **bit-identical** per member to the ``B`` separate products: a
        sparse row's accumulation order depends only on the operator's
        nonzero structure, never on how many dense columns sit next to
        each other.
        """
        if isinstance(op, np.ndarray):
            out = self.buf(name, u3.shape)
            np.matmul(op, u3, out=out)
            return out
        b, n, k = u3.shape
        out = np.asarray(op @ self._node_major(u3))
        return out.reshape(n, b, k).transpose(1, 0, 2)

    def _similarity_product(self, u3: np.ndarray):
        """``W·U`` for the graph members, memoized under ``(id(U), generation)``.

        The objective's penalty at ``U_t`` and the U-step of iteration
        ``t+1`` read one product.  A shared operator gives one array in
        the layout its ``lam`` scaling runs in: node-major ``(N, B·K)``
        for a sparse ``W`` (see :meth:`_stacked_apply`), ``(B, N, K)``
        for a dense one.  Otherwise it is a per-member list (``None``
        where ``lam == 0``).  A caller that scales it in place must
        clear ``_wu_key``.
        """
        key = (id(u3), self._gen)
        if self._wu_key != key:
            plan = self._graph_plan
            if plan.similarity is not None and plan.deg3 is not None:
                if isinstance(plan.similarity, np.ndarray):
                    self._wu = self._stacked_apply("graph_wu3", plan.similarity, u3)
                else:
                    self._wu = np.asarray(plan.similarity @ self._node_major(u3))
            else:
                self._wu = [
                    np.asarray(f.similarity @ u3[i]) if f.lam != 0.0 else None
                    for i, f in enumerate(self.fits)
                ]
            self._wu_key = key
        return self._wu

    @property
    def batch_size(self) -> int:
        return self.x3.shape[0]

    def compact(self, keep: list[int]) -> None:
        """Drop converged members: pure ``np.take`` row-block copies.

        ``np.take`` along axis 0 copies whole contiguous slices, so the
        surviving members' data/mask/factor bits are untouched; the
        named scratch buffers re-allocate lazily at the new batch size
        (the shape check in :meth:`BufferArena.buf`).  The memos are
        dropped: the factors the caller passes next are new arrays.
        """
        self.x3 = np.take(self.x3, keep, axis=0)
        self.observed_f3 = np.take(self.observed_f3, keep, axis=0)
        self.fits = [self.fits[i] for i in keep]
        self._recon_key = self._wu_key = self._wu = None
        self._refresh_graph_plan()

    # ------------------------------------------------------- shared pieces

    def _masked_recon(
        self, u3: np.ndarray, v3: np.ndarray, live: slice | None = None
    ) -> np.ndarray:
        """``R_O(U V)`` per slice (optionally live columns only).

        The full variant is memoized: the U-step right after an
        objective at the same ``(U, V)`` reuses its buffer.  A caller
        that overwrites the buffer must clear ``_recon_key``.
        """
        if live is None:
            key = (id(u3), id(v3), self._gen)
            recon = self.buf("recon", (u3.shape[0], u3.shape[1], v3.shape[2]))
            if self._recon_key == key:
                return recon
            np.matmul(u3, v3, out=recon)
            np.multiply(recon, self.observed_f3, out=recon)
            self._recon_key = key
        else:
            v_part = v3[:, :, live]
            recon = self.buf("recon_live", (u3.shape[0], u3.shape[1], v_part.shape[2]))
            np.matmul(u3, v_part, out=recon)
            np.multiply(recon, self.observed_f3[:, :, live], out=recon)
        return recon

    def _add_graph_terms(self, num: np.ndarray, den: np.ndarray, u3: np.ndarray) -> None:
        """Per-member ``lam·W U`` / ``lam·D U`` in the reference op order.

        With a shared similarity operator the ``B`` sparse ``W U``
        products collapse into one stacked product and the degree term
        into one multiply; the per-member ``lam`` scaling and
        accumulation keep the reference op order, so the result is
        bit-identical to the loop it replaces.  The degree and ``lam``
        multiplies run on operands of one layout (the sparse product is
        scaled in its node-major form): they round the same as with a
        strided or broadcast operand, and run several times faster.
        """
        plan = self._graph_plan
        if not plan.fits:
            return
        b, n, k = u3.shape
        wu = self._similarity_product(u3)
        # The in-place ``lam`` scaling below uses the memo up.
        self._wu_key = None
        if plan.similarity is not None and plan.deg3 is not None:
            t3 = self.buf("graph_deg_u3", (b, n, k))
            np.multiply(plan.deg3, u3, out=t3)
            if wu.ndim == 3:
                st, scale = wu, plan.lam_stack
            else:
                st, scale = wu.reshape(n, b, k).transpose(1, 0, 2), plan.lam_flat
            if scale is not None:
                wu *= scale
                num += st
                t3 *= plan.lam_stack
                den += t3
                return
            for i, fit in enumerate(self.fits):
                if fit.lam == 0.0:
                    continue
                t = st[i]
                t *= fit.lam
                num[i] += t
                t2 = t3[i]
                t2 *= fit.lam
                den[i] += t2
            return
        t2 = self.buf("graph_den", (n, k))
        for i, fit in enumerate(self.fits):
            if fit.lam == 0.0:
                continue
            t = wu[i]
            t *= fit.lam
            num[i] += t
            np.multiply(fit.degree_col, u3[i], out=t2)
            t2 *= fit.lam
            den[i] += t2

    # --------------------------------------------------- multiplicative

    def _mult_u(self, u3: np.ndarray, v3: np.ndarray) -> np.ndarray:
        b, n, k = u3.shape
        num = self.buf("num_u", (b, n, k))
        den = self.buf("den_u", (b, n, k))
        vt = v3.transpose(0, 2, 1)
        recon = self._masked_recon(u3, v3)
        np.matmul(self.x3, vt, out=num)
        np.matmul(recon, vt, out=den)
        self._add_graph_terms(num, den, u3)
        out = self.out_for("u", u3)
        guarded_divide(num, den, out=num, denominator_is_scratch=True)
        np.multiply(u3, num, out=out)
        return out

    def _mult_v(self, u3: np.ndarray, v3: np.ndarray) -> np.ndarray:
        b, n, k = u3.shape
        m = v3.shape[2]
        out = self.out_for("v", v3)
        prefix = self.prefix
        if prefix:
            if prefix >= m:
                np.copyto(out, v3)
                return out
            live = slice(prefix, None)
            np.copyto(out, v3)  # carries the frozen landmark block
            recon_live = self._masked_recon(u3, v3, live)
            num = self.buf("num_v", (b, k, m - prefix))
            den = self.buf("den_v", (b, k, m - prefix))
            ut = u3.transpose(0, 2, 1)
            np.matmul(ut, self.x3[:, :, live], out=num)
            np.matmul(ut, recon_live, out=den)
            guarded_divide(num, den, out=num, denominator_is_scratch=True)
            np.multiply(v3[:, :, live], num, out=out[:, :, live])
            return out
        recon = self._masked_recon(u3, v3)
        num = self.buf("num_v_full", (b, k, m))
        den = self.buf("den_v_full", (b, k, m))
        ut = u3.transpose(0, 2, 1)
        np.matmul(ut, self.x3, out=num)
        np.matmul(ut, recon, out=den)
        guarded_divide(num, den, out=num, denominator_is_scratch=True)
        np.multiply(v3, num, out=out)
        return out

    def multiplicative_step(
        self, u3: np.ndarray, v3: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        u_next = self._mult_u(u3, v3)
        v_next = self._mult_v(u_next, v3)
        return u_next, v_next

    # -------------------------------------------------------- gradient

    def _grad_u(self, u3: np.ndarray, v3: np.ndarray, learning_rate: float) -> np.ndarray:
        b, n, k = u3.shape
        recon = self._masked_recon(u3, v3)
        # The in-place residual overwrite invalidates the recon memo.
        self._recon_key = None
        np.subtract(recon, self.x3, out=recon)
        recon *= 2.0
        grad = self.buf("grad_u", (b, n, k))
        np.matmul(recon, v3.transpose(0, 2, 1), out=grad)
        plan = self._graph_plan
        if plan.laplacian is not None:
            st = self._stacked_apply("lap_u3", plan.laplacian, u3)
            if plan.lam3 is not None:
                st *= 2.0 * plan.lam3
                grad += st
            else:
                for i, fit in enumerate(self.fits):
                    if fit.lam == 0.0:
                        continue
                    t = st[i]
                    t *= 2.0 * fit.lam
                    grad[i] += t
        else:
            for i, fit in enumerate(self.fits):
                if fit.lam == 0.0:
                    continue
                if fit.laplacian is None:
                    raise ValidationError("lam != 0 requires a laplacian")
                lap = fit.laplacian
                if isinstance(lap, np.ndarray):
                    t = self.buf("lap_u", (n, k))
                    np.matmul(lap, u3[i], out=t)
                else:
                    t = np.asarray(lap @ u3[i])
                t *= 2.0 * fit.lam
                grad[i] += t
        out = self.out_for("u", u3)
        grad *= learning_rate
        np.subtract(u3, grad, out=out)
        np.maximum(out, 0.0, out=out)
        return out

    def _grad_v(self, u3: np.ndarray, v3: np.ndarray, learning_rate: float) -> np.ndarray:
        b, n, k = u3.shape
        m = v3.shape[2]
        recon = self._masked_recon(u3, v3)
        self._recon_key = None
        np.subtract(recon, self.x3, out=recon)
        # Same layout discipline as the 2-D workspace: scale U into a
        # C-contiguous buffer and hand its transpose view to the gemm.
        u2 = self.buf("u_x2", (b, n, k))
        np.multiply(u3, 2.0, out=u2)
        grad = self.buf("grad_v", (b, k, m))
        np.matmul(u2.transpose(0, 2, 1), recon, out=grad)
        out = self.out_for("v", v3)
        grad *= learning_rate
        np.subtract(v3, grad, out=out)
        np.maximum(out, 0.0, out=out)
        if self.prefix:
            np.copyto(out[:, :, : self.prefix], v3[:, :, : self.prefix])
        return out

    def gradient_step(
        self, u3: np.ndarray, v3: np.ndarray, *, learning_rate: float
    ) -> tuple[np.ndarray, np.ndarray]:
        u_next = self._grad_u(u3, v3, learning_rate)
        v_next = self._grad_v(u_next, v3, learning_rate)
        return u_next, v_next

    # -------------------------------------------------------- objective

    def objectives(self, u3: np.ndarray, v3: np.ndarray) -> np.ndarray:
        """Per-member objective values, shape ``(B,)``.

        The data term is one batched einsum (bit-identical per slice to
        the workspace's 2-D einsum); each member's penalty term is
        added in the exact ``SMF._objective`` op order, from the ``W·U``
        the next U-step reuses.
        """
        recon = self._masked_recon(u3, v3)
        resid = self.buf("obj_resid", self.x3.shape)
        np.subtract(self.x3, recon, out=resid)
        data = np.einsum("bij,bij->b", resid, resid)
        plan = self._graph_plan
        if not plan.fits:
            # No member has a penalty: ``data + 0.0`` is ``data``.
            return data
        wu = self._similarity_product(u3)
        out = data.copy()
        if plan.similarity is not None and plan.deg3 is not None:
            b, n, k = u3.shape
            st = wu if wu.ndim == 3 else wu.reshape(n, b, k).transpose(1, 0, 2)
            # One stacked reduction; the product goes into a C-contiguous
            # buffer, so each member's flat sum adds in the looped order.
            penalties = graph_penalty(
                u3, st, plan.deg3, out=self.buf("pen_prod", (b, n, k))
            )
            if plan.lam3 is not None:
                # ``data + lam * penalty`` for every member at once: the
                # same IEEE operations in the same order.
                return data + plan.lam3.ravel() * penalties
            for i, fit in enumerate(self.fits):
                if fit.lam != 0.0:
                    out[i] = float(data[i]) + fit.lam * float(penalties[i])
            return out
        for i, fit in enumerate(self.fits):
            if fit.lam != 0.0:
                out[i] = float(data[i]) + fit.objective_penalty(u3[i], wu[i])
        return out


# ------------------------------------------------------------------ loop


@dataclass
class _MemberState:
    """Per-member loop bookkeeping (everything FitReport needs)."""

    monitor: ConvergenceMonitor
    wall_times: list[float] = field(default_factory=list)
    loop_share: float = 0.0
    landmark_intact: bool | None = None
    u: np.ndarray | None = None
    v: np.ndarray | None = None


def _member_report(fit: BatchedFit, member: _MemberState) -> FitReport:
    return FitReport(
        u=member.u,
        v=member.v,
        objective_history=tuple(member.monitor.history),
        n_iter=len(member.wall_times),
        converged=member.monitor.converged,
        stop_reason=member.monitor.stop_reason,
        wall_times=tuple(member.wall_times),
        factor_deltas={},
        n_increases=member.monitor.n_increases,
        landmark_block_intact=member.landmark_intact,
        method=fit.method,
        setup_seconds=fit.setup_seconds,
        loop_seconds=member.loop_share,
    )


def _single_fit(
    fit: BatchedFit,
    *,
    update_rule: str,
    max_iter: int,
    tol: float,
    eval_every: int,
    learning_rate: float,
    frozen_prefix: int,
) -> MultiFitReport:
    """The ``B == 1`` fast path: delegate to the 2-D kernel object.

    A one-member stack would pay 3-D dispatch overhead for nothing, so
    a single fit runs through the same dense
    :class:`~repro.engine.workspace.KernelWorkspace` a looped fit uses —
    identical operations, identical bits — inside a lean loop that
    reproduces the engine's step/evaluate schedule.
    """
    k, m = fit.v0.shape
    frozen_v = None
    frozen_values = None
    if frozen_prefix:
        frozen_v = np.zeros((k, m), dtype=bool)
        frozen_v[:, :frozen_prefix] = True
        frozen_values = fit.v0[:, :frozen_prefix].copy()
    ws = KernelWorkspace(
        fit.x_observed,
        fit.observed,
        mode="dense",
        rule=update_rule,
        frozen_prefix=frozen_prefix or None,
        v0=fit.v0,
    )
    ctx = KernelContext(
        lam=fit.lam,
        similarity=fit.similarity,
        degree=fit.degree,
        laplacian=fit.laplacian,
        learning_rate=learning_rate,
        frozen_v=frozen_v,
    )
    member = _MemberState(
        monitor=ConvergenceMonitor(max_iter=max_iter, tol=tol),
        landmark_intact=True if frozen_prefix else None,
    )
    u, v = fit.u0, fit.v0
    steps = 0
    sizes: list[int] = []
    t_loop = time.perf_counter()
    with get_tracer().span(
        "batch.fit", size=1, update_rule=update_rule, delegated=True
    ):
        while steps < max_iter and not member.monitor.converged:
            t0 = time.perf_counter()
            u, v = ws.step(fit.x_observed, fit.observed, u, v, ctx)
            steps += 1
            member.wall_times.append(time.perf_counter() - t0)
            sizes.append(1)
            if steps % eval_every == 0 or steps == max_iter:
                objective = ws.masked_objective(fit.x_observed, u, v)
                if fit.lam != 0.0:
                    objective += fit.lam * ws.graph_penalty(
                        u, fit.similarity, fit.degree
                    )
                member.monitor.record(objective)
            if frozen_prefix and member.landmark_intact:
                if not np.array_equal(v[:, :frozen_prefix], frozen_values):
                    member.landmark_intact = False
    member.loop_share = time.perf_counter() - t_loop
    member.u = u.copy()
    member.v = v.copy()
    return MultiFitReport(
        reports=(_member_report(fit, member),),
        batch_iterations=steps,
        batch_sizes=tuple(sizes),
        loop_seconds=member.loop_share,
    )


def multi_fit(
    fits: list[BatchedFit] | tuple[BatchedFit, ...],
    *,
    update_rule: str = "multiplicative",
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = 1e-6,
    eval_every: int = 1,
    learning_rate: float = 1e-3,
    frozen_prefix: int = 0,
) -> MultiFitReport:
    """Fit ``B`` same-shape problems as one batched iteration loop.

    All members share the iteration policy (``max_iter``/``tol``/
    ``eval_every``), the update rule, and the frozen landmark prefix
    ``L`` (0 = nothing frozen); they differ in data, masks, inits and
    graph terms.  Returns a :class:`MultiFitReport` whose per-member
    reports match looped single fits bit-for-bit on every numeric field
    (factors, objective history, ``n_iter``, ``converged``,
    ``n_increases``, ``landmark_block_intact``).

    ``B == 1`` delegates to the 2-D workspace kernels (no 3-D dispatch
    overhead), so callers can route *every* fit through this entry
    point.
    """
    fits = list(fits)
    if not fits:
        raise ValidationError("multi_fit needs at least one fit")
    if update_rule not in FULL_BATCH_RULES:
        raise ValidationError(
            f"batched update_rule must be one of {FULL_BATCH_RULES}, "
            f"got {update_rule!r}"
        )
    frozen_prefix = int(frozen_prefix or 0)
    if len(fits) == 1:
        return _single_fit(
            fits[0],
            update_rule=update_rule,
            max_iter=max_iter,
            tol=tol,
            eval_every=eval_every,
            learning_rate=learning_rate,
            frozen_prefix=frozen_prefix,
        )

    ws = BatchedWorkspace(fits, frozen_prefix=frozen_prefix, rule=update_rule)
    members = [
        _MemberState(
            monitor=ConvergenceMonitor(max_iter=max_iter, tol=tol),
            landmark_intact=True if frozen_prefix else None,
        )
        for _ in fits
    ]
    frozen_values = (
        [f.v0[:, :frozen_prefix].copy() for f in fits] if frozen_prefix else None
    )
    # Stacked copy of the frozen blocks: one whole-batch equality check
    # per iteration replaces B per-member ones on the (overwhelmingly
    # common) all-intact path; the per-member check only runs when the
    # stacked comparison actually finds a mismatch.
    frozen_stack = np.stack(frozen_values) if frozen_prefix else None
    u3 = np.ascontiguousarray(np.stack([f.u0 for f in fits]))
    v3 = np.ascontiguousarray(np.stack([f.v0 for f in fits]))
    active = list(range(len(fits)))
    steps = 0
    sizes: list[int] = []
    t_loop = time.perf_counter()
    with get_tracer().span(
        "batch.fit", size=len(fits), update_rule=update_rule,
        frozen_prefix=frozen_prefix,
    ) as span:
        while active and steps < max_iter:
            t_iter = time.perf_counter()
            if update_rule == "multiplicative":
                u3, v3 = ws.multiplicative_step(u3, v3)
            else:
                u3, v3 = ws.gradient_step(u3, v3, learning_rate=learning_rate)
            steps += 1
            sizes.append(len(active))
            step_seconds = time.perf_counter() - t_iter
            evaluate = steps % eval_every == 0 or steps == max_iter
            objectives = ws.objectives(u3, v3) if evaluate else None
            share = (time.perf_counter() - t_iter) / len(active)
            step_share = step_seconds / len(active)
            all_intact = (
                bool((v3[:, :, :frozen_prefix] == frozen_stack).all())
                if frozen_prefix
                else True
            )
            drop: list[int] = []
            for pos, orig in enumerate(active):
                member = members[orig]
                member.wall_times.append(step_share)
                member.loop_share += share
                if frozen_prefix and member.landmark_intact and not all_intact:
                    if not np.array_equal(
                        v3[pos, :, :frozen_prefix], frozen_values[orig]
                    ):
                        member.landmark_intact = False
                if evaluate:
                    member.monitor.record(objectives[pos])
                    if member.monitor.converged:
                        drop.append(pos)
            if drop:
                for pos in drop:
                    orig = active[pos]
                    members[orig].u = u3[pos].copy()
                    members[orig].v = v3[pos].copy()
                keep = [p for p in range(len(active)) if p not in drop]
                active = [active[p] for p in keep]
                if active:
                    u3 = np.take(u3, keep, axis=0)
                    v3 = np.take(v3, keep, axis=0)
                    ws.compact(keep)
                    if frozen_prefix:
                        frozen_stack = np.take(frozen_stack, keep, axis=0)
        for pos, orig in enumerate(active):
            members[orig].u = u3[pos].copy()
            members[orig].v = v3[pos].copy()
        span.set_attr("iterations", steps)
        span.set_attr(
            "per_fit_n_iter", [len(m.wall_times) for m in members]
        )
        span.set_attr("converged", [m.monitor.converged for m in members])
    loop_seconds = time.perf_counter() - t_loop
    reports = []
    for fit, member in zip(fits, members):
        if member.u is None:
            # max_iter == 0: the loop never ran; members keep their inits.
            member.u = fit.u0.copy()
            member.v = fit.v0.copy()
        reports.append(_member_report(fit, member))
    return MultiFitReport(
        reports=tuple(reports),
        batch_iterations=steps,
        batch_sizes=tuple(sizes),
        loop_seconds=loop_seconds,
    )
