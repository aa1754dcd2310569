"""Version constants: the package, numerics, and artifact-schema contracts.

This module is a dependency leaf (stdlib only) so every layer - the
core models, the runner cache, the model artifact store - can import
version constants without touching the package ``__init__`` and its
model re-exports (which would cycle: ``repro`` -> ``repro.core`` ->
``repro.model`` -> ``repro.runner`` -> ``repro``).
"""

from __future__ import annotations

__all__ = ["__version__", "NUMERICS_VERSION", "ARTIFACT_SCHEMA_VERSION"]

__version__ = "1.2.0"
"""The package version (single source; ``repro.__version__`` re-exports it)."""

NUMERICS_VERSION = 4
"""Manual generation counter of the *numerical* contract.

Bump this when a solver change is allowed to alter result bits (a new
default path, a reordered reduction) so every cached entry - runner
cells and model artifacts alike - invalidates even if ``__version__``
stays put.  Pure-speed changes that keep results bit-identical (the
workspace kernels, the graph cache) must NOT bump it - cache reuse
across them is exactly the point.

History:

- 2: the masked p-NN graph ranks by the elementwise distance
  ``sum_l w_il w_jl (x_il - x_jl)**2 / max(common, 1)`` instead of the
  gemm expansion ``sq + sq.T - 2 cross``, so last-ulp ties between
  neighbours may resolve differently (DESIGN §6).
- 3: the fold-in spatial prior selects a row's ``p`` nearest training
  rows in (distance, index) order, the order the p-NN graph uses, and
  weights them in that order; before, the order and the pick among
  rows tied at the ``p``-th distance were whatever ``argpartition``
  returned (DESIGN §6).
- 4: SMF/SMFL objectives take the smoothness penalty from ``D U`` as
  ``sum((deg * U - D U) * U)`` instead of ``sum(U * (L U))``, sharing
  the product with the next multiplicative U-step.  Factors and
  imputed outputs keep their bits; objective values (and so cached
  ``final_objective``s) move by a few ulps (DESIGN §6)."""

ARTIFACT_SCHEMA_VERSION = 1
"""Layout generation of the model artifact files (JSON + npz).

Bump on any change to the artifact document structure - field renames,
hash-rule changes, new required arrays.  A loader refuses artifacts
written under a different schema version rather than guessing."""
