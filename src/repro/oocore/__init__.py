"""repro.oocore: out-of-core, shard-parallel fitting for huge matrices.

The in-core engine (:mod:`repro.engine`) assumes the dense data matrix
fits in RAM and one process fits one model.  This package removes both
assumptions for the row-sharded case, following the subsampled-online
MF line (Mensch et al., PAPERS.md):

- :mod:`repro.oocore.blocks` — the :class:`RowBlockSource` protocol:
  row blocks materialized one at a time from memory-mapped ``.npy``
  pairs, in-memory arrays, or chunk-invoked :mod:`repro.bench`
  generator specs, so the full matrix never exists in one process;
- :mod:`repro.oocore.streaming` — :class:`StreamingFactorizer`, the
  ``partial_fit(block)`` seam: projected-SGD updates on the block's
  rows of ``U`` against the shared ``V`` (SMFL's landmark prefix stays
  bit-frozen), running the exact same gathered-batch kernel math as
  the in-core stochastic path so the serial sharded fit reduces to it
  bit-for-bit when the schedules align;
- :mod:`repro.oocore.parallel` — shared-memory workers
  (``multiprocessing.shared_memory`` for ``U``/``V``/gradient slots,
  disjoint row-block ownership for ``U``) with (seed, epoch,
  block)-derived sampling, so ``jobs=1`` is bit-identical to the
  serial path and ``jobs=N`` deviates only through documented
  within-round ``V`` staleness;
- :mod:`repro.oocore.benchmark` — the out-of-core baseline:
  rows-vs-peak-RSS scaling curve plus sharded-vs-in-core equivalence
  checks, written through the shared bench envelope into
  ``results/BENCH_oocore.json`` (by :func:`record_oocore_baseline`)
  and ratcheted by the bench gate.
"""

from .blocks import (
    ArrayBlockSource,
    GeneratorBlockSource,
    MemmapBlockSource,
    RowBlock,
    RowBlockSource,
    block_order,
)
from .parallel import OocoreFitResult, fit_oocore, fit_parallel
from .streaming import StreamingFactorizer, streaming_init

__all__ = [
    "ArrayBlockSource",
    "GeneratorBlockSource",
    "MemmapBlockSource",
    "RowBlock",
    "RowBlockSource",
    "block_order",
    "OocoreFitResult",
    "fit_oocore",
    "fit_parallel",
    "StreamingFactorizer",
    "streaming_init",
]
