"""Engine callbacks: per-iteration observers of a running fit.

:class:`Callback` is the hook interface the engine drives;
:class:`Telemetry` is the standard observer that turns a fit into a
:class:`~repro.engine.report.FitReport` — per-iteration objectives,
wall times, factor deltas, and landmark-block invariance.  Extra
callbacks (recording, plotting, early diagnostics) ride along without
the solver knowing they exist.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.updates import frozen_column_prefix
from .monitor import ConvergenceMonitor
from .report import FitReport, factor_delta
from .solver import Solver

__all__ = ["Callback", "IterationRecord", "Telemetry"]


@dataclass(frozen=True)
class IterationRecord:
    """What the engine hands every callback after each solver step.

    ``objective`` is ``None`` on iterations where the engine skipped
    evaluation (``eval_every > 1``).
    """

    iteration: int
    objective: float | None
    seconds: float
    state: Any


class Callback:
    """No-op base class; override any subset of the hooks."""

    def on_fit_start(self, solver: Solver, state: Any) -> None:
        """Called once, before the first iteration."""

    def on_iteration(self, solver: Solver, record: IterationRecord) -> None:
        """Called after every solver step."""

    def on_fit_end(
        self, solver: Solver, state: Any, monitor: ConvergenceMonitor
    ) -> None:
        """Called once, after the loop stops (for any reason)."""


class Telemetry(Callback):
    """Capture per-iteration telemetry and build a :class:`FitReport`.

    Parameters
    ----------
    method:
        Identifier stamped into the report (defaults to the solver's
        ``name``).
    frozen_mask / frozen_values:
        Optional landmark bookkeeping: a boolean mask over the tracked
        ``"v"`` factor plus the values its frozen cells must keep.  When
        provided, every iteration asserts the block is bit-identical;
        the verdict lands in ``FitReport.landmark_block_intact``.  A
        mask that freezes a column prefix (the landmark layout) is
        checked on the ``v[:, :L]`` view, without a boolean gather.
    track_deltas:
        Record the Frobenius norm of each tracked factor's change per
        iteration.  A change the solver's step already measured
        (:meth:`Solver.step_deltas`) is taken as is; any other costs
        one in-place copy of the factor per step, into buffers kept for
        the whole fit.
    """

    def __init__(
        self,
        *,
        method: str = "",
        frozen_mask: np.ndarray | None = None,
        frozen_values: np.ndarray | None = None,
        track_deltas: bool = True,
    ) -> None:
        if (frozen_mask is None) != (frozen_values is None):
            raise ValueError("frozen_mask and frozen_values must be given together")
        self.method = method
        self.frozen_mask = frozen_mask
        self.frozen_values = frozen_values
        # The boolean gather ``v[mask]`` lists a prefix block row by
        # row, so the same values reshaped to ``(K, L)`` are the block.
        self._frozen_block: np.ndarray | None = None
        prefix = frozen_column_prefix(frozen_mask)
        if prefix is not None and np.size(frozen_values) == frozen_mask.shape[0] * prefix:
            self._frozen_block = np.reshape(
                frozen_values, (frozen_mask.shape[0], prefix)
            )
        self.track_deltas = track_deltas
        self.setup_seconds: float = 0.0
        self._reset()

    def _reset(self) -> None:
        self.wall_times: list[float] = []
        self.objectives: list[float] = []
        self.deltas: dict[str, list[float]] = {}
        self.landmark_block_intact: bool | None = (
            None if self.frozen_mask is None else True
        )
        self.n_iter: int = 0
        self.converged: bool = False
        self.stop_reason: str = "budget"
        self.n_increases: int = 0
        self.loop_seconds: float = 0.0
        self._prev_factors: dict[str, np.ndarray] = {}
        self._diffs: dict[str, np.ndarray] = {}
        self._t_start: float = 0.0

    # ------------------------------------------------------------- hooks

    def on_fit_start(self, solver: Solver, state: Any) -> None:
        self._reset()
        if not self.method:
            self.method = solver.name
        if self.track_deltas:
            self._prev_factors = {
                key: value.copy(order="K")
                for key, value in solver.factors(state).items()
            }
        self._t_start = time.perf_counter()

    def on_iteration(self, solver: Solver, record: IterationRecord) -> None:
        self.wall_times.append(record.seconds)
        if record.objective is not None:
            self.objectives.append(record.objective)
        factors = solver.factors(record.state)
        if self.track_deltas and factors:
            measured = solver.step_deltas(record.state)
            for key, value in factors.items():
                delta = measured.get(key)
                if delta is None:
                    delta = self._delta(key, value)
                self.deltas.setdefault(key, []).append(delta)
        # Once the block has been caught modified the verdict is final -
        # re-comparing the mask every remaining iteration buys nothing.
        if (
            self.frozen_mask is not None
            and self.landmark_block_intact
            and "v" in factors
        ):
            v = factors["v"]
            if self._frozen_block is not None:
                intact = np.array_equal(
                    v[:, : self._frozen_block.shape[1]], self._frozen_block
                )
            else:
                intact = np.array_equal(v[self.frozen_mask], self.frozen_values)
            if not intact:
                self.landmark_block_intact = False

    def _delta(self, key: str, value: np.ndarray) -> float:
        """``‖value − previous‖_F``, then keep ``value`` as the previous.

        Allocation-free after the first iteration: the difference goes
        into a per-factor buffer and ``value`` is copied into the kept
        one.  The norm is :func:`~repro.engine.report.factor_delta`.
        """
        prev = self._prev_factors.get(key)
        if prev is None:
            self._prev_factors[key] = value.copy(order="K")
            return 0.0
        diff = self._diffs.get(key)
        if diff is None:
            diff = self._diffs[key] = np.empty_like(prev)
        delta = factor_delta(value, prev, diff)
        np.copyto(prev, value)
        return delta

    def on_fit_end(
        self, solver: Solver, state: Any, monitor: ConvergenceMonitor
    ) -> None:
        self.loop_seconds = time.perf_counter() - self._t_start
        self.n_iter = len(self.wall_times)
        self.converged = monitor.converged
        self.stop_reason = monitor.stop_reason
        self.n_increases = monitor.n_increases

    # ------------------------------------------------------------ report

    def report(
        self,
        *,
        u: np.ndarray | None = None,
        v: np.ndarray | None = None,
        converged: bool | None = None,
        sampled_objectives: tuple[float, ...] = (),
        rows_touched: tuple[int, ...] = (),
    ) -> FitReport:
        """Assemble the :class:`FitReport` for the finished fit.

        ``sampled_objectives`` / ``rows_touched`` are the stochastic
        path's per-epoch accumulators (collected by the kernel's
        workspace, not by this callback — the engine only sees whole
        epochs).
        """
        return FitReport(
            u=u,
            v=v,
            objective_history=tuple(self.objectives),
            n_iter=self.n_iter,
            converged=self.converged if converged is None else converged,
            wall_times=tuple(self.wall_times),
            factor_deltas={k: tuple(d) for k, d in self.deltas.items()},
            n_increases=self.n_increases,
            landmark_block_intact=self.landmark_block_intact,
            sampled_objectives=tuple(sampled_objectives),
            rows_touched=tuple(rows_touched),
            method=self.method,
            setup_seconds=self.setup_seconds,
            loop_seconds=self.loop_seconds,
            stop_reason=self.stop_reason,
        )
