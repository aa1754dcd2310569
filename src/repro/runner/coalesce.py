"""Cell coalescing: compatible grid cells fused into batched super-cells.

The experiment grids spend their wall time on hundreds of *tiny*
same-shape MF fits — the same ``(dataset, method, rate, rank)``
configuration repeated across injection seeds.  This module groups such
cells so :func:`execute_multi_cell` can fit the whole group through the
batched 3-D engine (:func:`repro.core.batched_fit.fit_models_batched`)
in one stacked loop.

Invariants the runner relies on:

- **Per-cell results are unchanged.**  The batched engine is
  bit-identical to the same fits run one by one, so every member's ``value`` (RMS) and
  ``fit`` summary match what :func:`~repro.runner.execute.execute_cell`
  would have produced (wall times excepted — they are measurements).
- **Per-cell cache entries are unchanged.**  Coalescing is invisible to
  the cache layer: keys are still computed per :class:`RunSpec`, and
  the parent stores one entry per member, so warm reruns hit exactly as
  before regardless of how cells were grouped when first computed.
- **Grouping is a pure function of the specs.**  Only deterministic
  ``imputation_rms`` cells running an MF-family batch method coalesce,
  keyed by every parameter except the seed — members differ only in
  their injection/init seed, which is precisely the same-shape
  precondition of the batched engine.  Anything else (volatile cells,
  one-shot baselines, repair/timing cells) stays a singleton.

Eligibility here is a *trigger*, not a guarantee: the model-level
planner re-checks each member (``model.batchable``) and quietly runs
ineligible ones on the engine loop, so an ``overrides`` dict that switches a member
to, say, the sparse kernel path degrades to the exact single-fit
behavior instead of erroring.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..obs.stream import collect, observe
from .cache import canonical_json
from .spec import RunSpec

__all__ = [
    "MF_BATCHABLE_METHODS",
    "coalesce_signature",
    "execute_multi_cell",
    "plan_units",
]

MF_BATCHABLE_METHODS = frozenset({"nmf", "smf", "smfl"})
"""Grid method names whose cells route through the batched engine.

The stochastic variants (``*_sgd``, ``*_svrg``) are excluded — their
row-sampled updates cannot stack into the 3-D gemms (and
``model.batchable`` would reject them anyway)."""


def coalesce_signature(spec: RunSpec) -> str | None:
    """Grouping signature of one cell, or ``None`` when it must not coalesce.

    Two cells with equal signatures run the same method on the same
    dataset/rate/rank/overrides configuration and differ only in
    ``seed`` — eligible to share one batched stack.  The signature is
    the canonical JSON of the seed-stripped config (the same
    canonicalisation the cache key uses), so grouping is deterministic
    across processes and runs.
    """
    if spec.volatile or spec.kind != "imputation_rms":
        return None
    params = spec.params
    if str(params.get("method", "")).lower() not in MF_BATCHABLE_METHODS:
        return None
    stripped = {k: v for k, v in params.items() if k != "seed"}
    return canonical_json({"kind": spec.kind, "params": stripped})


def plan_units(specs: Sequence[RunSpec], indices: Sequence[int]) -> list[list[int]]:
    """Partition pending cell ``indices`` into execution units.

    A unit is a list of grid indices: singletons run through
    ``execute_cell`` unchanged; multi-member units (same signature)
    run through :func:`execute_multi_cell`.  Units keep first-occurrence
    order and members keep grid order, so serial completion order — and
    therefore every ordered artifact (manifest records, cache
    entries) — is independent of grouping.
    """
    units: list[list[int]] = []
    groups: dict[str, list[int]] = {}
    for index in indices:
        signature = coalesce_signature(specs[index])
        if signature is None:
            units.append([index])
            continue
        unit = groups.get(signature)
        if unit is None:
            groups[signature] = unit = []
            units.append(unit)
        unit.append(index)
    return units


def _compute_multi(specs: Sequence[RunSpec]) -> list[dict[str, Any]]:
    """The fused body of N ``imputation_rms`` cells.

    Mirrors :func:`repro.runner.cells._imputation_rms` stage for stage —
    same trial preparation, same imputer construction and overrides,
    same RMS scoring — with the per-member ``fit_impute`` calls replaced
    by one :func:`fit_models_batched` stack.
    """
    from ..baselines.registry import make_imputer
    from ..core.batched_fit import fit_models_batched
    from ..experiments.protocol import DATASET_RANKS, prepare_trial
    from ..metrics.rms import rms_over_mask
    from .cells import summarize_fit

    trials = []
    models = []
    for spec in specs:
        params = spec.params
        trial = prepare_trial(
            params["dataset"],
            missing_rate=params["missing_rate"],
            seed=params["seed"],
            spatial_missing=params.get("spatial_missing", False),
            task="imputation",
            n_rows=params.get("n_rows"),
            fast=params.get("fast", False),
        )
        rank = params.get("rank")
        k = rank if rank is not None else DATASET_RANKS[trial.dataset.name]
        imputer = make_imputer(
            params["method"],
            n_spatial=trial.dataset.n_spatial,
            rank=k,
            random_state=trial.seed,
        )
        for attr, value in (params.get("overrides") or {}).items():
            if not hasattr(imputer, attr):
                raise AttributeError(
                    f"{params['method']} has no parameter {attr!r}"
                )
            setattr(imputer, attr, value)
        trials.append(trial)
        models.append(imputer)

    fit_models_batched(
        [(m, t.x_missing, t.mask) for m, t in zip(models, trials)]
    )

    payloads = []
    for model, trial in zip(models, trials):
        estimate = model.impute()
        rms = rms_over_mask(estimate, trial.dataset.values, trial.mask)
        payloads.append(
            {"value": float(rms), "fit": summarize_fit(model.fit_report_)}
        )
    return payloads


def _run_multi_observed(
    specs: Sequence[RunSpec], attrs: dict[str, Any]
) -> list[dict[str, Any]]:
    """Run one coalesced unit under ``observe("batch.cells")``.

    Each member's ``wall_seconds`` is its share of the fused span —
    the per-cell attribution the manifests and the batched benchmark
    ratchet consume.
    """
    with observe(
        "batch.cells", kind=specs[0].kind, size=len(specs), **attrs
    ) as span:
        payloads = _compute_multi(specs)
    share = span.duration / len(specs)
    for payload in payloads:
        payload["wall_seconds"] = share
    return payloads


def execute_multi_cell(
    specs: Sequence[RunSpec],
    trace: bool = False,
    span_attrs: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Execute one coalesced unit — the worker-safe entry point.

    Top-level and picklable, mirroring
    :func:`~repro.runner.execute.execute_cell`'s worker contract:
    ``trace=True`` records into a fresh in-memory recorder and ships
    the records back under ``"records"`` for the parent to merge (once
    per unit).  Returns ``{"payloads": [...]}`` with one per-member
    payload in spec order.
    """
    attrs = dict(span_attrs or {})
    if trace:
        payloads, records = collect(_run_multi_observed, specs, attrs)
        return {"payloads": payloads, "records": records}
    return {"payloads": _run_multi_observed(specs, attrs)}
