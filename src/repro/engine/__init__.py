"""repro.engine: the instrumented iteration layer every solver shares.

Architecture (see DESIGN.md section "Engine layer")::

    Solver  --step/objective-->  IterativeEngine  --records-->  Callback*
                                     |                             |
                              ConvergenceMonitor              Telemetry
                                                                  |
                                                              FitReport

- :class:`Solver` - one iteration of any method (``step``,
  ``objective``, optional ``converged`` rule and ``factors`` exposure);
- :class:`IterativeEngine` - owns the loop of the baselines and of the
  factor fits the stacked loop refuses (reference, sparse and
  stochastic paths): budget, evaluation cadence, early stopping,
  budget warnings, callback dispatch;
- :class:`ConvergenceMonitor` - the default relative-decrease stopping
  policy (never stops on an objective increase; counts them);
- :class:`Callback` / :class:`Telemetry` - per-iteration observers;
  Telemetry captures objectives, wall times and landmark-block
  invariance into a :class:`FitReport`;
- :func:`build_kernel` - the one kernel seam: resolves
  ``(update_rule, kernel_path, observed density)`` once per fit into a
  kernel object exposing ``step(x_observed, observed, u, v, ctx)`` and
  ``masked_objective``:

  - :class:`KernelWorkspace` (:mod:`repro.engine.workspace`) - the
    allocation-free dense and sparse-observed paths of the
    multiplicative/gradient rules (preallocated fused update buffers,
    the frozen-landmark Gram cache, gather/scatter kernels).  Its
    dense mode is the one dense kernel: it runs a 3-D stack of
    same-shape fits (one member for ``model.fit``) or, for an
    engine-driven fit, a single 2-D fit with the same operations;
  - :class:`StochasticWorkspace` (:mod:`repro.engine.stochastic`) - the
    ``sgd``/``svrg`` mini-batch epochs planned by a
    :class:`BatchScheduler`;
  - :class:`ReferenceKernel` - the allocating rules of
    :mod:`repro.core.updates` (``kernel_path="reference"``);

- :mod:`repro.engine.kernels` - the legal ``update_rule`` names and the
  frozen per-fit :class:`KernelContext` every kernel object consumes;
- :mod:`repro.engine.batched` - the factor family's loop:
  :func:`multi_fit` runs ``B`` same-shape fits through one stacked
  :class:`KernelWorkspace` with per-fit convergence dropout,
  bit-identical to the fits run alone; ``model.fit`` runs it at
  ``B = 1`` (``perfbench``'s ``fit_cold`` and ``grid_table7``
  workloads run it end to end).

Both loops raise :class:`~repro.exceptions.NumericalDivergenceError`
at the first non-finite evaluated objective.

Speed is measured outside the package by ``perfbench/``
(``BENCHMARK.json``): its ``engine.member_iter_us.{nmf,smf,smfl}``
metrics carry Figure 9's SMF-vs-SMFL per-iteration question.

``FitReport`` supersedes the seed repo's ``FactorizationResult``; the
old name is an alias of the new class.
"""

from .batched import BatchedFit, MultiFitReport, multi_fit
from .callbacks import Callback, IterationRecord, Telemetry
from .core import EngineOutcome, IterativeEngine
from .kernels import UPDATE_RULES, KernelContext
from .monitor import DEFAULT_EVAL_EVERY, DEFAULT_MAX_ITER, ConvergenceMonitor
from .report import FactorizationResult, FitReport
from .solver import Solver
from .stochastic import (
    DEFAULT_BATCH_SIZE,
    STOCHASTIC_KERNELS,
    BatchScheduler,
    StochasticWorkspace,
)
from .workspace import (
    KERNEL_PATHS,
    SPARSE_DENSITY_THRESHOLD,
    BufferArena,
    GramCache,
    KernelWorkspace,
    ReferenceKernel,
    build_kernel,
    resolve_kernel_path,
)

__all__ = [
    "BatchScheduler",
    "BatchedFit",
    "BufferArena",
    "Callback",
    "MultiFitReport",
    "multi_fit",
    "ConvergenceMonitor",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_EVAL_EVERY",
    "DEFAULT_MAX_ITER",
    "EngineOutcome",
    "GramCache",
    "KERNEL_PATHS",
    "KernelWorkspace",
    "SPARSE_DENSITY_THRESHOLD",
    "STOCHASTIC_KERNELS",
    "StochasticWorkspace",
    "ReferenceKernel",
    "UPDATE_RULES",
    "build_kernel",
    "resolve_kernel_path",
    "FactorizationResult",
    "FitReport",
    "IterationRecord",
    "IterativeEngine",
    "KernelContext",
    "Solver",
    "Telemetry",
]
