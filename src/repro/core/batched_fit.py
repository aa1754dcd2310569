"""Model-level batched fitting: many same-shape fits as one 3-D stack.

:func:`fit_models_batched` is the bridge between the model layer and
the batched engine (:mod:`repro.engine.batched`).  Given ``(model, x,
mask)`` jobs it:

1. asks each model whether it is batchable
   (:meth:`~repro.core.factorization.MatrixFactorizationBase.batchable`
   — batch method, dense workspace path, no un-declared ``_objective``
   / ``_kernel_context`` overrides),
2. runs each batchable model's :meth:`_fit_setup` — the *identical*
   pre-loop code the looped ``fit`` runs, so RNG streams, graphs,
   landmarks, and initial factors match bit for bit,
3. groups the prepared fits by everything the stacked loop shares —
   shape, rank, update rule, frozen landmark prefix, and the
   convergence/step hyper-parameters — and hands each group to
   :func:`~repro.engine.batched.multi_fit` (``B = 1`` groups take its
   single-fit fast path),
4. installs each per-member :class:`~repro.engine.report.FitReport`
   back into its model via :meth:`_fit_finish` — the identical
   post-loop code — so ``impute()``, ``fitted_model()``, and
   ``fit_report_`` behave exactly as after a looped ``fit``.

Models that are not batchable (stochastic solvers, sparse kernel path,
non-prefix frozen masks, customized steps) simply run their own
``fit`` — callers never need to pre-sort.

The per-fit numerics are independent of which other fits share a
stack (the batched gemms are bit-identical per slice), so grouping is
purely a performance decision and never changes results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..engine.batched import BatchedFit, multi_fit
from ..engine.report import FitReport
from .factorization import FitPlan, MatrixFactorizationBase
from .updates import frozen_column_prefix

__all__ = ["fit_models_batched"]


@dataclass
class _Prepared:
    """One batch-eligible job, after ``_fit_setup``."""

    index: int
    model: MatrixFactorizationBase
    plan: FitPlan
    fit: BatchedFit


def _group_key(model: MatrixFactorizationBase, plan: FitPlan, prefix: int):
    """Everything the stacked loop shares across a batch.

    Two fits with equal keys run the same update rule on same-shape
    operands with the same landmark prefix and the same convergence /
    step schedule — the preconditions for stacking them into one 3-D
    loop without perturbing either one's numerics or iteration counts.
    """
    return (
        plan.x_observed.shape,
        plan.u.shape[1],
        model.update_rule,
        prefix,
        int(model.max_iter),
        float(model.tol),
        int(model.eval_every),
        float(model.learning_rate),
    )


def _prepare(model: MatrixFactorizationBase, plan: FitPlan) -> BatchedFit:
    terms = model._batched_terms()
    return BatchedFit(
        x_observed=plan.x_observed,
        observed=plan.observed,
        u0=plan.u,
        v0=plan.v,
        lam=float(terms["lam"]),
        similarity=terms["similarity"],
        degree=terms["degree"],
        laplacian=terms["laplacian"],
        method=model.method,
        setup_seconds=plan.telemetry.setup_seconds,
    )


def fit_models_batched(
    jobs: Sequence[tuple[MatrixFactorizationBase, object, object]],
) -> list[FitReport]:
    """Fit every ``(model, x, mask)`` job, batching the compatible ones.

    Returns the per-model :class:`FitReport` list in job order; each
    model is left fitted exactly as ``model.fit(x, mask)`` would leave
    it (same factors — bit-identical — same ``n_iter`` / ``converged``
    / ``objective_history`` / ``fitted_model_``).
    """
    reports: list[FitReport | None] = [None] * len(jobs)
    groups: dict[object, list[_Prepared]] = {}

    for index, (model, x, mask) in enumerate(jobs):
        eligible = False
        if isinstance(model, MatrixFactorizationBase):
            _, observation = model._coerce_input(x, mask)
            eligible = model.batchable(observation.observed)
        if not eligible:
            model.fit(x, mask)
            reports[index] = model.fit_report_
            continue

        plan = model._fit_setup(x, mask)
        prefix = 0
        if plan.frozen is not None and bool(plan.frozen.any()):
            layout = frozen_column_prefix(plan.frozen)
            if layout is None:
                # General (non-prefix) frozen mask: the stacked loop
                # only freezes whole leading columns — run it looped
                # on the plan we already built.
                model._run_fit_plan(plan)
                reports[index] = model.fit_report_
                continue
            prefix = int(layout)

        prepared = _Prepared(
            index=index, model=model, plan=plan, fit=_prepare(model, plan)
        )
        groups.setdefault(_group_key(model, plan, prefix), []).append(prepared)

    for key, members in groups.items():
        _, _, update_rule, prefix, max_iter, tol, eval_every, lr = key
        result = multi_fit(
            [m.fit for m in members],
            update_rule=update_rule,
            max_iter=max_iter,
            tol=tol,
            eval_every=eval_every,
            learning_rate=lr,
            frozen_prefix=prefix,
        )
        for member, report in zip(members, result.reports):
            member.model._fit_finish(
                member.plan,
                state=(report.u, report.v),
                n_iter=report.n_iter,
                converged=report.converged,
                objective_history=report.objective_history,
                report=report,
            )
            reports[member.index] = report

    assert all(r is not None for r in reports)
    return reports  # type: ignore[return-value]
