"""Structured fit telemetry: :class:`FitReport`.

A :class:`FitReport` is the single artefact a fit leaves behind: the
final factors (or estimate), the per-evaluation objective history, the
per-iteration wall times, and the paper's two checkable
invariants — objective monotonicity under the multiplicative rule
(Propositions 5 and 7, via ``n_increases``) and landmark-block
frozenness (``landmark_block_intact``).

It supersedes the seed repo's ``FactorizationResult``; that name is kept
as a thin alias (``FactorizationResult = FitReport``) so existing code
constructing or consuming ``result()`` summaries keeps working — the
original fields (``u``, ``v``, ``objective_history``, ``n_iter``,
``converged``) are unchanged and the new telemetry fields all default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["FitReport", "FactorizationResult"]


@dataclass(frozen=True)
class FitReport:
    """Summary + telemetry of one completed iterative fit.

    Parameters
    ----------
    u, v:
        Final factor matrices (``None`` for estimate-based solvers).
    objective_history:
        Objective value at every checked iteration
        (:meth:`~repro.engine.ConvergenceMonitor.due`: the first two,
        every ``eval_every``-th, the last, and all of them once the fit
        nears ``tol``).  Every iteration is checked when
        ``eval_every=1``; the multiplicative fits check every
        :data:`~repro.engine.DEFAULT_EVAL_EVERY` by default.
        ``wall_times`` cover every iteration whatever the cadence.
    n_iter:
        Iterations actually run.
    converged:
        Whether the stopping rule fired before the budget ran out.
    stop_reason:
        Why the loop stopped: ``"tol"`` (the relative-decrease
        tolerance), ``"solver"`` (a custom
        :meth:`~repro.engine.Solver.converged` rule) or ``"budget"``
        (``max_iter`` ran out).
    wall_times:
        Per-iteration wall-clock seconds of the solver step.
    factor_deltas:
        Per-iteration Frobenius norm of each tracked array's change,
        keyed by factor name.  No loop measures it any more, so it is
        ``{}``; the field stays so older reports still load.
    n_increases:
        How many checked objective values *increased* over the
        previous checked value (must be 0 under the multiplicative
        rule); a rise and fall between two checks is not seen.
    landmark_block_intact:
        ``True``/``False`` when a frozen landmark block was tracked;
        ``None`` when nothing was frozen.  On the stacked loop (every
        default NMF/SMF/SMFL fit) ``True`` means equal to the initial
        block Φ at every check and at the end: the step writes the
        block only by copying the previous one, so a change persists
        to the next check.  The engine loop compares every iteration.
    sampled_objectives:
        Stochastic path only: the per-epoch mini-batch objective
        estimate (sum of squared batch residuals, each row evaluated at
        the parameters current when its batch was visited).  Cheap to
        collect — no extra full-matrix pass — but noisier than
        ``objective_history`` and missing the spatial penalty term.
    rows_touched:
        Stochastic path only: rows updated per epoch (the unit Figure
        9-style efficiency comparisons divide objective decrease by).
    method:
        Short identifier of the fitting method.
    setup_seconds:
        Wall time spent before iteration started (graph building,
        landmark K-means, initialisation).
    loop_seconds:
        Wall time of the whole iteration loop (steps + evaluations +
        callback overhead).
    """

    u: np.ndarray | None = None
    v: np.ndarray | None = None
    objective_history: tuple[float, ...] = ()
    n_iter: int = 0
    converged: bool = False
    wall_times: tuple[float, ...] = ()
    factor_deltas: dict[str, tuple[float, ...]] = field(default_factory=dict)
    n_increases: int = 0
    landmark_block_intact: bool | None = None
    sampled_objectives: tuple[float, ...] = ()
    rows_touched: tuple[int, ...] = ()
    method: str = ""
    setup_seconds: float = 0.0
    loop_seconds: float = 0.0
    stop_reason: str = "budget"

    @property
    def final_objective(self) -> float:
        """Objective value at the last recorded evaluation."""
        return self.objective_history[-1] if self.objective_history else float("nan")

    @property
    def total_row_updates(self) -> int:
        """Row-update count of the whole fit.

        Stochastic fits report the recorded per-epoch counts; full-batch
        fits touch every row of ``U`` each iteration, so the count is
        ``n_iter * N`` (``N`` recovered from the final ``u``; 0 when the
        report carries no factors).
        """
        if self.rows_touched:
            return int(sum(self.rows_touched))
        if self.u is None:
            return 0
        return self.n_iter * int(self.u.shape[0])

    @property
    def total_seconds(self) -> float:
        """End-to-end fit cost: setup plus the iteration loop."""
        return self.setup_seconds + self.loop_seconds

    @property
    def seconds_per_iteration(self) -> float:
        """Mean wall time of one solver step (Figure 9's quantity)."""
        if not self.wall_times:
            return float("nan")
        return float(np.mean(self.wall_times))

    def is_monotone(self, *, rtol: float = 1e-8) -> bool:
        """Whether the objective history never increased beyond ``rtol``.

        The tolerance matches the monotonicity tests: an increase
        smaller than ``rtol * (1 + |objective|)`` is floating-point
        noise, not a violation of Propositions 5/7.
        """
        history = np.asarray(self.objective_history, dtype=np.float64)
        if history.size < 2:
            return True
        return bool((np.diff(history) <= rtol * (1.0 + np.abs(history[:-1]))).all())

    def to_json_dict(self) -> dict[str, Any]:
        """The report as a ``json.dumps``-ready dict - no ndarrays.

        Telemetry travels: into run manifests, trace events, and cache
        entries.  Factor matrices do not - they are summarised by shape
        (``u_shape``/``v_shape``, ``None`` when absent) rather than
        serialised, so the dict stays kilobytes no matter the dataset.
        Histories become plain ``float``/``int`` lists (JSON has no
        tuples; :meth:`from_json_dict` restores them).
        """
        return {
            "method": self.method,
            "n_iter": int(self.n_iter),
            "converged": bool(self.converged),
            "stop_reason": self.stop_reason,
            "objective_history": [float(x) for x in self.objective_history],
            "wall_times": [float(x) for x in self.wall_times],
            "factor_deltas": {
                name: [float(x) for x in deltas]
                for name, deltas in self.factor_deltas.items()
            },
            "n_increases": int(self.n_increases),
            "landmark_block_intact": self.landmark_block_intact,
            "sampled_objectives": [float(x) for x in self.sampled_objectives],
            "rows_touched": [int(x) for x in self.rows_touched],
            "setup_seconds": float(self.setup_seconds),
            "loop_seconds": float(self.loop_seconds),
            "u_shape": list(self.u.shape) if self.u is not None else None,
            "v_shape": list(self.v.shape) if self.v is not None else None,
        }

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "FitReport":
        """Rebuild a report from :meth:`to_json_dict` output.

        The factors themselves were never serialised, so ``u``/``v``
        come back ``None`` - everything telemetry-derived (histories as
        tuples, the invariant verdicts, the ``None``-vs-``False``
        distinction of ``landmark_block_intact``) round-trips exactly.
        """
        intact = data.get("landmark_block_intact")
        return cls(
            u=None,
            v=None,
            objective_history=tuple(
                float(x) for x in data.get("objective_history", ())
            ),
            n_iter=int(data.get("n_iter", 0)),
            converged=bool(data.get("converged", False)),
            wall_times=tuple(float(x) for x in data.get("wall_times", ())),
            factor_deltas={
                name: tuple(float(x) for x in deltas)
                for name, deltas in (data.get("factor_deltas") or {}).items()
            },
            n_increases=int(data.get("n_increases", 0)),
            landmark_block_intact=None if intact is None else bool(intact),
            sampled_objectives=tuple(
                float(x) for x in data.get("sampled_objectives", ())
            ),
            rows_touched=tuple(int(x) for x in data.get("rows_touched", ())),
            method=str(data.get("method", "")),
            setup_seconds=float(data.get("setup_seconds", 0.0)),
            loop_seconds=float(data.get("loop_seconds", 0.0)),
            stop_reason=str(data.get("stop_reason", "budget")),
        )


# Migration alias: the seed repo's result type. See module docstring.
FactorizationResult = FitReport
