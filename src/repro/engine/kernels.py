"""The update rules' shared vocabulary: rule names and the kernel context.

One update iteration of the NMF family runs through a per-fit *kernel
object* built by :func:`repro.engine.workspace.build_kernel`: a
:class:`~repro.engine.workspace.KernelWorkspace` (dense or sparse), a
:class:`~repro.engine.stochastic.StochasticWorkspace` (``sgd``/``svrg``)
or a :class:`~repro.engine.workspace.ReferenceKernel` (the allocating
rules of :mod:`repro.core.updates`).  Each exposes
``step(x_observed, observed, u, v, ctx)`` and ``masked_objective``;
this module holds what they all consume: the legal rule names and the
frozen per-fit :class:`KernelContext`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.updates import frozen_column_prefix

__all__ = ["FULL_BATCH_RULES", "KernelContext", "UPDATE_RULES"]

FULL_BATCH_RULES: tuple[str, ...] = ("multiplicative", "gradient")
"""Full-matrix rules: Formulas 13-14 and the Section III-B1 gradient step."""

UPDATE_RULES: tuple[str, ...] = FULL_BATCH_RULES + ("sgd", "svrg")
"""Every legal ``update_rule`` (the stochastic ones run mini-batch epochs)."""


@dataclass(frozen=True)
class KernelContext:
    """Everything an update step may need beyond the factors.

    ``similarity``/``laplacian`` may be scipy sparse operators; kernels
    only require them to support ``@``.
    """

    lam: float = 0.0
    similarity: object | None = None
    degree: np.ndarray | None = None
    laplacian: object | None = None
    learning_rate: float = 1e-3
    frozen_v: np.ndarray | None = None
    #: Set in __post_init__: L when frozen_v is the landmark layout
    #: (first L whole columns), letting kernels take the sliced
    #: live-column update without re-analysing the mask every step.
    frozen_prefix: int | None = None

    def __post_init__(self) -> None:
        if self.frozen_v is not None and self.frozen_prefix is None:
            object.__setattr__(
                self, "frozen_prefix", frozen_column_prefix(self.frozen_v)
            )
