"""repro.serving: fold-in imputation of new rows against a fitted model.

The serving half of the model layer (:mod:`repro.model`): given a
frozen :class:`~repro.model.FittedModel` - in memory or loaded from a
versioned artifact - impute new partially observed rows without a
refit:

- :func:`fold_in` / :func:`fold_in_row` - the math: an ``O(M K^2)``
  ridge solve per row against the frozen feature matrix ``V``
  (nonnegativity-projected for the NMF family), batched into single
  gemms for many rows, with a shared-observation-pattern fast path;
- :class:`FoldInServer` - the request loop: chunked batching, a
  lifetime :class:`~repro.engine.workspace.BufferArena` (steady-state
  batches allocate no scratch), and obs instrumentation (spans, an
  imputation counter, p50/p99 request-latency quantiles);
- ``perfbench``'s ``serve_foldin`` workload (``BENCHMARK.json``) -
  the measured benchmark: closed-loop 1/16/256-row requests against a
  frozen SMFL model, with throughput, p50/p99 latency and per-layer
  fold-in and prior timings.
"""

from .foldin import (
    DEFAULT_PRIOR_NEIGHBORS,
    DEFAULT_RIDGE,
    DEFAULT_SMOOTHING,
    FoldInResult,
    fold_in,
    fold_in_row,
)
from .service import DEFAULT_BATCH_SIZE, FoldInServer

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_PRIOR_NEIGHBORS",
    "DEFAULT_RIDGE",
    "DEFAULT_SMOOTHING",
    "FoldInResult",
    "FoldInServer",
    "fold_in",
    "fold_in_row",
]
