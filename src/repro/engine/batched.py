"""Batched multi-fit loop: ``B`` same-shape fits as single 3-D gemms.

The experiment grids (Tables IV-VII, Figures 4-9) spend their wall time
on hundreds of *tiny* same-shape SMFL/SMF/NMF fits.  Each one runs a
handful of small gemms per iteration, so the per-iteration cost is
dominated by Python/BLAS dispatch, not floating-point work.  This
module stacks ``B`` compatible fits — same ``(N, M, K, L)``, different
data/masks/seeds — into 3-D arrays ``U[B,N,K]``, ``V[B,K,M]``,
``X[B,N,M]`` and runs them through the dense
:class:`~repro.engine.workspace.KernelWorkspace` (built by
:meth:`~repro.engine.workspace.KernelWorkspace.stacked`), the same
kernel a single fit runs, so every dispatch is amortized across the
whole batch.

Bit-identity contract
---------------------
NumPy's stacked ``matmul`` applies the same 2-D gemm kernel to each
``[b]`` slice, so a batched product is **bit-identical** per slice to
the looped 2-D product on the same operands (verified for the ``out=``
form, strided column slices, and ``swapaxes(-1, -2)`` views the kernel
uses).  A fit run through :func:`multi_fit` therefore produces the same
factor bits, objective history, ``n_iter``, ``converged`` and
``n_increases`` as its looped twin.  The only per-fit report fields
that differ are execution-trace ones: ``wall_times``/``loop_seconds``
are amortized shares of the batch clock, and ``factor_deltas`` are not
collected (documented in DESIGN 3.17).

Convergence dropout
-------------------
Each member fit owns a real :class:`~repro.engine.monitor.
ConvergenceMonitor`, fed the batched objective of its slice at the same
evaluation points the single-fit engine would use: both loops ask
:meth:`~repro.engine.monitor.ConvergenceMonitor.due`, and all members
share ``eval_every``/``max_iter``.  A member checks every iteration
once it nears ``tol``; the stack then evaluates every iteration, but
only the members that are due record, so each history matches its
looped twin.  A stack measures no per-step factor changes, so a member
that blows up between checks is named at the stack's next check.

When a member converges it *drops out*: its factors are copied off
and the stacks are compacted with ``np.take`` along axis 0 —
a pure row-block copy that preserves every surviving slice bit-exactly,
so one fit finishing never perturbs the numerics of the others.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import NumericalDivergenceError, ValidationError
from ..obs.stream import get_recorder
from .kernels import FULL_BATCH_RULES, KernelContext
from .monitor import DEFAULT_MAX_ITER, ConvergenceMonitor
from .report import FitReport
from .workspace import KernelWorkspace

__all__ = [
    "BatchedFit",
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

    def __post_init__(self) -> None:
        if self.lam != 0.0 and (self.similarity is None or self.degree is None):
            raise ValidationError(
                "BatchedFit with lam != 0 requires similarity and degree"
            )


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


# ------------------------------------------------------------------ loop


@dataclass
class _MemberState:
    """Per-member loop bookkeeping (everything FitReport needs)."""

    monitor: ConvergenceMonitor
    checked: int = 0
    """The iteration of the member's last check."""
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

    Raises :class:`~repro.exceptions.NumericalDivergenceError` at the
    first non-finite evaluated objective, naming the member (a blow-up
    between checks surfaces at the next check); the
    ``batch.fit`` observation records it as a ``batch.fit_error`` event.

    Any ``B`` runs the stacked kernel, ``B == 1`` included; a lone fit
    is cheaper through ``model.fit``'s 2-D kernel, which is where
    :func:`repro.core.batched_fit.fit_models_batched` sends it.
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
    ws = KernelWorkspace.stacked(fits, rule=update_rule)
    frozen_v = None
    if frozen_prefix:
        frozen_v = np.zeros(fits[0].v0.shape, dtype=bool)
        frozen_v[:, :frozen_prefix] = True
    ctx = KernelContext(learning_rate=learning_rate, frozen_v=frozen_v)
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
    with get_recorder().observe(
        "batch.fit", size=len(fits), update_rule=update_rule,
        frozen_prefix=frozen_prefix, eval_every=eval_every,
    ) as span:
        while active and steps < max_iter:
            t_iter = time.perf_counter()
            u3, v3 = ws.step(ws.x_observed, None, u3, v3, ctx)
            steps += 1
            sizes.append(len(active))
            step_seconds = time.perf_counter() - t_iter
            due = [members[orig].monitor.due(steps, eval_every) for orig in active]
            evaluate = any(due)
            objectives = ws.objective(ws.x_observed, u3, v3) if evaluate else None
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
                    objective = float(objectives[pos])
                    if not math.isfinite(objective):
                        raise NumericalDivergenceError.at(
                            iteration=steps,
                            update_rule=update_rule,
                            objective=objective,
                            member=orig,
                            learning_rate=learning_rate,
                        )
                    if due[pos]:
                        member.monitor.record(objective, steps - member.checked)
                        member.checked = steps
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
