"""The :class:`Solver` protocol consumed by :class:`~repro.engine.IterativeEngine`.

A solver owns *what one iteration does*; the engine owns *how many run,
when to stop, and who watches*.  State is deliberately opaque to the
engine — factor solvers carry ``(U, V)`` tuples, SVD solvers carry the
current estimate, GAN solvers carry nothing (their networks live on the
solver) — so any iterative method in the repo can be driven by the same
loop.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .monitor import ConvergenceMonitor

__all__ = ["Solver"]


class Solver:
    """Base class (and de-facto protocol) for engine-driven solvers.

    Subclasses must implement :meth:`step` and :meth:`objective`;
    :meth:`converged` and :meth:`factors` are optional refinements.
    """

    #: Short identifier used by telemetry (e.g. ``"smfl"``, ``"mc"``).
    name: str = "solver"

    def step(self, state: Any) -> Any:
        """Run one iteration and return the new state."""
        raise NotImplementedError

    def objective(self, state: Any) -> float:
        """The scalar the engine monitors (objective value or residual)."""
        raise NotImplementedError

    def converged(self, state: Any, monitor: ConvergenceMonitor) -> bool | None:
        """Optional solver-specific stopping rule.

        Return ``True``/``False`` to fully control stopping (the
        engine then ignores the monitor's relative-decrease rule), or
        ``None`` (the default) to defer to the monitor.
        """
        return None

    def factors(self, state: Any) -> dict[str, np.ndarray]:
        """Named arrays telemetry should track (deltas, frozen blocks).

        The default exposes nothing; factor solvers return
        ``{"u": U, "v": V}``, estimate solvers ``{"estimate": Z}``.
        """
        return {}

    def step_deltas(self, state: Any) -> dict[str, float]:
        """Factor changes the last :meth:`step` measured itself.

        ``{name: ‖new − old‖_F}`` for arrays of :meth:`factors` whose
        change the step computed with
        :func:`~repro.engine.report.factor_delta` while both iterates
        were still in cache; telemetry measures every other tracked
        array.  A name is reported after every step or after none.  The
        default reports none.
        """
        return {}
