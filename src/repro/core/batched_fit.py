"""Model-level batched fitting: many same-shape fits as one 3-D stack.

:func:`fit_models_batched` is the bridge between the model layer and
the batched engine (:mod:`repro.engine.batched`), the loop every
default NMF/SMF/SMFL fit runs (``model.fit`` runs it at ``B = 1``).
Given ``(model, x, mask)`` jobs it:

1. runs each model's :meth:`_fit_setup` — the *identical* pre-loop
   code ``model.fit`` runs, so RNG streams, graphs, landmarks, and
   initial factors match bit for bit,
2. asks each prepared model whether the stacked loop can run it
   (:meth:`~repro.core.factorization.MatrixFactorizationBase._stack_prefix`:
   batch method, dense workspace path, no un-declared ``_objective`` /
   ``_kernel_context`` overrides, landmark block a column prefix) and
   runs the rest on the engine path ``model.fit`` would take,
3. groups the stackable fits by everything the stacked loop shares —
   shape, rank, frozen landmark prefix, update rule and the
   convergence/step hyper-parameters — and hands each group, one
   member or many, to :func:`~repro.engine.batched.multi_fit`,
4. installs each per-member :class:`~repro.engine.report.FitReport`
   back into its model via :meth:`_fit_finish` — the identical
   post-loop code — so ``impute()``, ``fitted_model()``, and
   ``fit_report_`` behave exactly as after ``model.fit``.

Callers never need to pre-sort.  The per-fit numerics are independent
of which other fits share a stack (the batched gemms are bit-identical
per slice), so grouping is purely a performance decision and never
changes results.
"""

from __future__ import annotations

from typing import Sequence

from ..engine.report import FitReport
from .factorization import FitPlan, MatrixFactorizationBase, _fit_stack

__all__ = ["fit_models_batched"]


def fit_models_batched(
    jobs: Sequence[tuple[MatrixFactorizationBase, object, object]],
) -> list[FitReport]:
    """Fit every ``(model, x, mask)`` job, batching the compatible ones.

    Returns the per-model :class:`FitReport` list in job order; each
    model is left fitted exactly as ``model.fit(x, mask)`` would leave
    it (same factors — bit-identical — same ``n_iter`` / ``converged``
    / ``objective_history`` / ``fitted_model_``).
    """
    groups: dict[object, list[tuple[MatrixFactorizationBase, FitPlan]]] = {}
    for model, x, mask in jobs:
        if not isinstance(model, MatrixFactorizationBase):
            model.fit(x, mask)
            continue
        plan = model._fit_setup(x, mask)
        prefix = model._stack_prefix(plan)
        if prefix is None:
            model._run_fit_plan(plan)
            continue
        key = (
            plan.x_observed.shape,
            plan.u.shape[1],
            prefix,
            tuple(model._stack_policy().items()),
        )
        groups.setdefault(key, []).append((model, plan))

    for (_, _, prefix, _), members in groups.items():
        _fit_stack(members, prefix)
    return [model.fit_report_ for model, _, _ in jobs]
