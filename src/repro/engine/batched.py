"""The factor family's one loop: ``B`` same-shape fits as single 3-D gemms.

Every full-batch NMF/SMF/SMFL fit on the dense workspace runs here:
``model.fit`` at ``B = 1`` and the experiment grids (Tables IV-VII,
Figures 4-9), whose wall time goes on hundreds of *tiny* same-shape
fits, at ``B > 1``.  Each fit runs a handful of small gemms per
iteration, so the per-iteration cost is dominated by Python/BLAS
dispatch, not floating-point work.  This module stacks ``B``
compatible fits — same ``(N, M, K, L)``, different data/masks/seeds —
into 3-D arrays ``U[B,N,K]``, ``V[B,K,M]``, ``X[B,N,M]`` and runs them
through the dense :class:`~repro.engine.workspace.KernelWorkspace`
(built by :meth:`~repro.engine.workspace.KernelWorkspace.stacked`), so
every dispatch is amortized across the whole batch.

Bit-identity contract
---------------------
NumPy's stacked ``matmul`` applies the same 2-D gemm kernel to each
``[b]`` slice, so a batched product is **bit-identical** per slice to
the 2-D product on the same operands (verified for the ``out=``
form, strided column slices, and ``swapaxes(-1, -2)`` views the kernel
uses).  A fit run through :func:`multi_fit` therefore produces the same
factor bits, objective history, ``n_iter``, ``converged`` and
``n_increases`` at any ``B``, and the same as the engine-driven
``kernel_path="reference"`` fit.  ``wall_times``/``loop_seconds`` are
amortized shares of the stack's clock, and ``factor_deltas`` are not
measured (documented in DESIGN 3.17).

Convergence dropout
-------------------
Each member fit owns a real :class:`~repro.engine.monitor.
ConvergenceMonitor`, fed the batched objective of its slice at the
iterations :meth:`~repro.engine.monitor.ConvergenceMonitor.due` names;
all members share ``eval_every``/``max_iter``.  A member checks every
iteration once it nears ``tol``; the stack then evaluates every
iteration, but only the members that are due record, so each history
is the one it has alone.  The loop measures no per-step factor
changes, so a member that blows up between checks is named at the
stack's next check, and the frozen landmark block is compared with
its initial values at checks only (the last iteration is always one):
the step writes the block only by copying it from the previous ``V``,
so a change persists until the next check.  Whether any member is due
is decided from stack state (the shared schedule and a count of active
near-tol members), so the other iterations keep no per-member books.

When a member converges it *drops out*: its factors are copied off
and the stacks are compacted with ``np.take`` along axis 0 —
a pure row-block copy that preserves every surviving slice bit-exactly,
so one fit finishing never perturbs the numerics of the others.

Observation
-----------
The loop runs under ``observe("fit")`` (``fit_start`` / ``fit_done`` /
``fit_error``), each step in an ``iteration`` span and each check in an
``evaluate`` span.  The iteration span's duration is the step's wall
time, so one clock feeds the trace and the reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..exceptions import NumericalDivergenceError, ValidationError
from ..obs.stream import get_recorder
from .callbacks import Callback, IterationRecord
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
    :class:`~repro.engine.report.FitReport` (its ``setup_seconds`` plus
    its share of the stacked workspace's build).
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
    n_iter: int = 0
    """The iteration the member left the stack at (its last step)."""
    landmark_intact: bool | None = None
    u: np.ndarray | None = None
    v: np.ndarray | None = None


@dataclass(frozen=True)
class _FitView:
    """What a one-member stack shows its callbacks: the
    :class:`~repro.engine.Solver` surface they read."""

    name: str
    update_rule: str
    learning_rate: float

    @staticmethod
    def factors(state: tuple[np.ndarray, np.ndarray]) -> dict[str, np.ndarray]:
        u, v = state
        return {"u": u, "v": v}


def _member_report(
    fit: BatchedFit,
    member: _MemberState,
    step_share: np.ndarray,
    iter_share: np.ndarray,
    build_share: float,
) -> FitReport:
    """The member's report; its clocks are its first ``n_iter`` shares
    of the stack's per-iteration step and iteration times."""
    n = member.n_iter
    return FitReport(
        u=member.u,
        v=member.v,
        objective_history=tuple(member.monitor.history),
        n_iter=n,
        converged=member.monitor.converged,
        stop_reason=member.monitor.stop_reason,
        wall_times=tuple(step_share[:n].tolist()),
        n_increases=member.monitor.n_increases,
        landmark_block_intact=member.landmark_intact,
        method=fit.method,
        setup_seconds=fit.setup_seconds + build_share,
        loop_seconds=float(iter_share[:n].sum()),
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
    callbacks: tuple[Callback, ...] = (),
) -> MultiFitReport:
    """Fit ``B`` same-shape problems as one batched iteration loop.

    All members share the iteration policy (``max_iter``/``tol``/
    ``eval_every``), the update rule, and the frozen landmark prefix
    ``L`` (0 = nothing frozen); they differ in data, masks, inits and
    graph terms.  Returns a :class:`MultiFitReport` whose per-member
    reports match the same fits run alone (``B = 1``, which is what
    ``model.fit`` runs) bit-for-bit on every numeric field (factors,
    objective history, ``n_iter``, ``converged``, ``n_increases``,
    ``landmark_block_intact``).

    ``callbacks`` are accepted at ``B = 1`` only: they get
    ``on_fit_start``, an ``on_iteration`` per step whose
    :class:`~repro.engine.IterationRecord` carries the member's 2-D
    ``(U, V)`` views, its objective at checks (``None`` between them)
    and the step's seconds, and ``on_fit_end`` with its monitor.

    Raises :class:`~repro.exceptions.NumericalDivergenceError` at the
    first non-finite evaluated objective, naming the member when
    ``B > 1`` (a blow-up between checks surfaces at the next check);
    the ``fit`` observation records it as a ``fit_error`` event.
    """
    fits = list(fits)
    if not fits:
        raise ValidationError("multi_fit needs at least one fit")
    if update_rule not in FULL_BATCH_RULES:
        raise ValidationError(
            f"batched update_rule must be one of {FULL_BATCH_RULES}, "
            f"got {update_rule!r}"
        )
    callbacks = tuple(callbacks)
    if callbacks and len(fits) > 1:
        raise ValidationError(
            f"multi_fit takes callbacks for one fit only, got {len(fits)} fits"
        )
    frozen_prefix = int(frozen_prefix or 0)
    t_build = time.perf_counter()
    ws = KernelWorkspace.stacked(fits, rule=update_rule)
    build_share = (time.perf_counter() - t_build) / len(fits)
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
    # Stacked copy of the frozen blocks: one whole-batch equality check
    # per check replaces B per-member ones on the (overwhelmingly
    # common) all-intact path; the per-member check only runs when the
    # stacked comparison actually finds a mismatch.
    frozen_stack = (
        np.stack([f.v0[:, :frozen_prefix] for f in fits]) if frozen_prefix else None
    )
    u3 = np.ascontiguousarray(np.stack([f.u0 for f in fits]))
    v3 = np.ascontiguousarray(np.stack([f.v0 for f in fits]))
    view = _FitView(fits[0].method, update_rule, learning_rate)
    active = list(range(len(fits)))
    steps = 0
    sizes: list[int] = []
    # Stack-level clocks: iteration boundaries (``clock[i]`` ends
    # iteration ``i``) and the iteration spans' step times.  Members'
    # wall times and loop shares are derived from them after the loop.
    clock = [time.perf_counter()]
    step_seconds: list[float] = []
    # Members share max_iter, so the scheduled part of the cadence is
    # the stack's; the rest is the count of active near-tol members.
    scheduled = members[0].monitor.scheduled
    n_near = 0
    recorder = get_recorder()
    with recorder.observe(
        "fit", size=len(fits), update_rule=update_rule,
        frozen_prefix=frozen_prefix, eval_every=eval_every,
    ) as span:
        for callback in callbacks:
            callback.on_fit_start(view, (u3[0], v3[0]))
        while active and steps < max_iter:
            with recorder.span("iteration", index=steps + 1) as step_span:
                u3, v3 = ws.step(ws.x_observed, None, u3, v3, ctx)
            steps += 1
            step_seconds.append(step_span.duration)
            sizes.append(len(active))
            checked_objective = None
            if n_near or scheduled(steps, eval_every):
                # Some active member is due: the only iterations with
                # per-member books.
                with recorder.span("evaluate", index=steps):
                    if frozen_prefix and not (
                        v3[:, :, :frozen_prefix] == frozen_stack
                    ).all():
                        for pos, orig in enumerate(active):
                            if not np.array_equal(
                                v3[pos, :, :frozen_prefix], frozen_stack[pos]
                            ):
                                members[orig].landmark_intact = False
                    objectives = ws.objective(ws.x_observed, u3, v3)
                    drop: list[int] = []
                    for pos, orig in enumerate(active):
                        member = members[orig]
                        objective = float(objectives[pos])
                        if not math.isfinite(objective):
                            raise NumericalDivergenceError.at(
                                iteration=steps,
                                update_rule=update_rule,
                                objective=objective,
                                member=orig if len(fits) > 1 else None,
                                learning_rate=learning_rate,
                            )
                        if member.monitor.due(steps, eval_every):
                            member.monitor.record(objective, steps - member.checked)
                            member.checked = steps
                            checked_objective = objective
                            if member.monitor.converged:
                                drop.append(pos)
                    if drop:
                        for pos in drop:
                            member = members[active[pos]]
                            member.u = u3[pos].copy()
                            member.v = v3[pos].copy()
                            member.n_iter = steps
                        keep = [p for p in range(len(active)) if p not in drop]
                        active = [active[p] for p in keep]
                        if active:
                            u3 = np.take(u3, keep, axis=0)
                            v3 = np.take(v3, keep, axis=0)
                            ws.compact(keep)
                            if frozen_prefix:
                                frozen_stack = np.take(frozen_stack, keep, axis=0)
                    n_near = sum(members[orig].monitor.near_tol for orig in active)
            if callbacks:
                record = IterationRecord(
                    iteration=steps,
                    objective=checked_objective,
                    seconds=step_span.duration,
                    state=(u3[0], v3[0]),
                )
                for callback in callbacks:
                    callback.on_iteration(view, record)
            clock.append(time.perf_counter())
        for pos, orig in enumerate(active):
            members[orig].u = u3[pos].copy()
            members[orig].v = v3[pos].copy()
            members[orig].n_iter = steps
        for fit, member in zip(fits, members):
            if member.u is None:
                # max_iter == 0: the loop never ran; members keep their inits.
                member.u = fit.u0.copy()
                member.v = fit.v0.copy()
        # ``n_iter`` is the loop's, as the engine's ``fit`` reports it;
        # the members' books are lists in input order.
        span.set_attr("n_iter", steps)
        span.set_attr("per_fit_n_iter", [m.n_iter for m in members])
        span.set_attr("per_fit_converged", [m.monitor.converged for m in members])
        span.set_attr("per_fit_n_increases", [m.monitor.n_increases for m in members])
        span.set_attr("per_fit_stop_reason", [m.monitor.stop_reason for m in members])
    for callback in callbacks:
        callback.on_fit_end(view, (members[0].u, members[0].v), members[0].monitor)
    # Each iteration's time is shared by the members active in it: the
    # step alone gives the wall times, the whole iteration (objective,
    # books, compaction) the loop shares, which sum to the loop time.
    step_share = np.array(step_seconds) / sizes
    iter_share = np.diff(clock) / sizes
    return MultiFitReport(
        reports=tuple(
            _member_report(fit, member, step_share, iter_share, build_share)
            for fit, member in zip(fits, members)
        ),
        batch_iterations=steps,
        batch_sizes=tuple(sizes),
        loop_seconds=clock[-1] - clock[0],
    )
