"""Worker-safe cell functions: the executable unit of an experiment grid.

Each function here computes exactly one grid cell - one fit-and-score
unit of a paper table or figure - from a JSON-ready ``params`` dict and
returns a JSON-ready payload::

    {"value": <float | dict>, "fit": <engine FitReport summary | None>}

They are top-level functions dispatched through :data:`CELL_KINDS` by
name, so a :class:`~repro.runner.spec.RunSpec` pickles cleanly into a
``ProcessPoolExecutor`` worker.  All model/experiment imports happen
lazily inside the functions: :mod:`repro.experiments.tables` imports
the runner at module scope, so the runner must not import the
experiments package back at import time.

Every cell reconstructs its own trial (dataset load, injection, route
or cluster setup) from the baked-in seed rather than sharing state with
sibling cells; because the whole protocol layer is deterministic given
its seeds, a cell computes the same value in-process, in a worker, or
on a resumed run - which is what makes content-addressed caching sound.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from ..exceptions import ValidationError

__all__ = ["CELL_KINDS", "summarize_fit", "run_cell"]


def summarize_fit(report: object) -> dict[str, Any] | None:
    """JSON-ready summary of an engine :class:`~repro.engine.FitReport`.

    Keeps the determinism-relevant fields (iterations, objective,
    invariant verdicts) and the wall-time telemetry; the manifest's
    stable view strips the ``*_seconds`` fields before comparing runs.
    """
    from ..engine.report import FitReport

    if not isinstance(report, FitReport):
        return None
    final = report.final_objective
    return {
        "method": report.method,
        "n_iter": int(report.n_iter),
        "converged": bool(report.converged),
        "final_objective": float(final) if math.isfinite(final) else None,
        "n_increases": int(report.n_increases),
        "landmark_block_intact": report.landmark_block_intact,
        "setup_seconds": float(report.setup_seconds),
        "loop_seconds": float(report.loop_seconds),
        "total_seconds": float(report.total_seconds),
    }


def _imputation_rms(params: dict[str, Any]) -> dict[str, Any]:
    """One ``(dataset, method, missing rate, seed)`` imputation fit.

    The cell behind Tables IV/V/VII and the Figure 6/7/8 sweeps: it is
    one iteration of :func:`repro.experiments.protocol.average_rms`'s
    seed loop, computed independently.
    """
    from ..experiments.protocol import prepare_trial, run_method_with_report

    trial = prepare_trial(
        params["dataset"],
        missing_rate=params["missing_rate"],
        seed=params["seed"],
        spatial_missing=params.get("spatial_missing", False),
        task="imputation",
        n_rows=params.get("n_rows"),
        fast=params.get("fast", False),
    )
    rms, report = run_method_with_report(
        params["method"],
        trial,
        rank=params.get("rank"),
        overrides=params.get("overrides"),
    )
    return {"value": float(rms), "fit": summarize_fit(report)}


def _repair_rms(params: dict[str, Any]) -> dict[str, Any]:
    """One ``(dataset, repair method, seed)`` cell of Table VI."""
    from ..baselines.registry import make_imputer
    from ..experiments.protocol import DATASET_RANKS, prepare_trial
    from ..metrics.rms import rms_over_mask
    from ..repair.baran import BaranRepairer
    from ..repair.holoclean import HoloCleanRepairer
    from ..repair.mf_repair import MFRepairer

    dataset_name = params["dataset"]
    method = params["method"]
    seed = params["seed"]
    trial = prepare_trial(
        dataset_name,
        missing_rate=params["error_rate"],
        seed=seed,
        task="repair",
        fast=params.get("fast", False),
    )
    dataset = trial.dataset
    if method == "baran":
        repairer: object = BaranRepairer(random_state=seed)
    elif method == "holoclean":
        repairer = HoloCleanRepairer()
    elif method in ("nmf", "smf", "smfl"):
        repairer = MFRepairer(
            make_imputer(
                method,
                n_spatial=dataset.n_spatial,
                rank=DATASET_RANKS[dataset_name],
                random_state=seed,
            )
        )
    else:
        raise ValidationError(f"unknown repair method {method!r}")
    fixed = repairer.repair(trial.x_missing, trial.mask)
    rms = rms_over_mask(fixed, dataset.values, trial.mask)
    return {"value": float(rms), "fit": None}


def _route_error(params: dict[str, Any]) -> dict[str, Any]:
    """One ``(method, seed)`` cell of Figure 4a on the vehicle dataset."""
    from ..apps.routing import generate_routes, route_planning_error
    from ..baselines.registry import make_imputer
    from ..experiments.protocol import DATASET_RANKS, prepare_trial

    seed = params["seed"]
    trial = prepare_trial(
        "vehicle",
        missing_rate=params["missing_rate"],
        seed=seed,
        fast=params.get("fast", False),
    )
    dataset = trial.dataset
    fuel_col = dataset.column_names.index("fuel_consumption_rate")
    locations = dataset.spatial
    routes = generate_routes(
        locations,
        params["n_routes"],
        route_length=params["route_length"],
        random_state=seed,
    )
    imputer = make_imputer(
        params["method"],
        n_spatial=dataset.n_spatial,
        rank=DATASET_RANKS["vehicle"],
        random_state=seed,
    )
    estimate = imputer.fit_impute(trial.x_missing, trial.mask)
    error = route_planning_error(
        routes,
        locations,
        dataset.values[:, fuel_col],
        estimate[:, fuel_col],
    )
    report = getattr(imputer, "fit_report_", None)
    return {"value": float(error), "fit": summarize_fit(report)}


def _clustering_accuracy(params: dict[str, Any]) -> dict[str, Any]:
    """One ``(method, seed)`` cell of Figure 4b on the lake dataset."""
    from ..apps.clustering import clustering_application_accuracy
    from ..baselines.registry import make_imputer
    from ..experiments.protocol import DATASET_RANKS, prepare_trial

    method = params["method"]
    seed = params["seed"]
    trial = prepare_trial(
        "lake",
        missing_rate=params["missing_rate"],
        seed=seed,
        fast=params.get("fast", False),
    )
    dataset = trial.dataset
    if dataset.labels is None:
        raise ValidationError("figure 4b needs a labelled dataset")
    if method == "pca":
        imputer = make_imputer("mean", random_state=seed)
        accuracy = clustering_application_accuracy(
            imputer,
            trial.x_missing,
            trial.mask,
            dataset.labels,
            pca_components=min(3, dataset.n_cols - 1),
            random_state=seed,
        )
    else:
        imputer = make_imputer(
            method,
            n_spatial=dataset.n_spatial,
            rank=DATASET_RANKS["lake"],
            random_state=seed,
        )
        accuracy = clustering_application_accuracy(
            imputer,
            trial.x_missing,
            trial.mask,
            dataset.labels,
            use_coefficients=method in ("nmf", "smf", "smfl"),
            random_state=seed,
        )
    report = getattr(imputer, "fit_report_", None)
    return {"value": float(accuracy), "fit": summarize_fit(report)}


def _feature_locations(params: dict[str, Any]) -> dict[str, Any]:
    """One model of Figure 5: learned feature locations + geometry.

    ``label`` selects SMF-GD, SMF-Multi, or SMFL; the value also
    carries the observation bounding box and locations (identical
    across the three cells) so the assembler can rebuild the figure's
    full payload from any cell.
    """
    from ..core.smf import SMF
    from ..core.smfl import SMFL
    from ..experiments.protocol import prepare_trial

    label = params["label"]
    seed = params["seed"]
    rank = params["rank"]
    trial = prepare_trial(
        params["dataset"],
        missing_rate=params["missing_rate"],
        seed=seed,
        fast=params.get("fast", False),
    )
    data = trial.dataset
    observations = data.spatial
    box_low = observations.min(axis=0)
    box_high = observations.max(axis=0)
    if label == "smf_gd":
        model: object = SMF(
            rank=rank, n_spatial=data.n_spatial, update_rule="gradient",
            learning_rate=1e-3, random_state=seed,
        )
    elif label == "smf_multi":
        model = SMF(rank=rank, n_spatial=data.n_spatial, random_state=seed)
    elif label == "smfl":
        model = SMFL(rank=rank, n_spatial=data.n_spatial, random_state=seed)
    else:
        raise ValidationError(f"unknown figure-5 model label {label!r}")
    model.fit(trial.x_missing, trial.mask)
    locations = model.feature_locations()
    inside = ((locations >= box_low) & (locations <= box_high)).all(axis=1)
    report = getattr(model, "fit_report_", None)
    return {
        "value": {
            "bounding_box": [box_low.tolist(), box_high.tolist()],
            "observations": observations.tolist(),
            "locations": locations.tolist(),
            "inside_fraction": float(inside.mean()),
        },
        "fit": summarize_fit(report),
    }


def timed_fit_impute(imputer: Any, x: Any, mask: Any = None) -> tuple[Any, float, Any]:
    """Run ``fit_impute`` and report ``(estimate, seconds, report)``.

    Engine-driven methods are timed by their own telemetry
    (``report.total_seconds``); one-shot imputers (kNN, DLM, ...) have
    no iteration loop, so the call is measured as a whole by an obs span
    on the same clock, and ``report`` is ``None``.
    """
    from ..engine.report import FitReport
    from ..obs.stream import get_recorder

    method = getattr(imputer, "name", None) or getattr(imputer, "method", "")
    with get_recorder().span("timed_fit_impute", method=str(method)) as span:
        estimate = imputer.fit_impute(x, mask)
    report = getattr(imputer, "fit_report_", None)
    if isinstance(report, FitReport) and report.wall_times:
        return estimate, report.total_seconds, report
    return estimate, span.duration, None


def _timing(params: dict[str, Any]) -> dict[str, Any]:
    """One ``(dataset, method, n_rows)`` wall-clock cell of Figure 9.

    The value is a measurement, not a deterministic function of the
    params - grids must mark these cells ``volatile`` so they are never
    cached and never pinned by determinism checks.
    """
    from ..baselines.registry import make_imputer
    from ..data.registry import DEFAULT_SEEDS, load_dataset
    from ..experiments.protocol import DATASET_RANKS
    from ..masking.injection import MissingSpec, inject_missing

    name = params["dataset"]
    seed = params["seed"]
    dataset = load_dataset(
        name, n_rows=params["n_rows"], random_state=DEFAULT_SEEDS[name]
    )
    x_missing, mask = inject_missing(
        dataset.values,
        MissingSpec(
            missing_rate=params["missing_rate"],
            columns=dataset.attribute_columns,
        ),
        random_state=seed,
    )
    imputer = make_imputer(
        params["method"],
        n_spatial=dataset.n_spatial,
        rank=DATASET_RANKS[name],
        random_state=seed,
    )
    _, seconds, report = timed_fit_impute(imputer, x_missing, mask)
    return {"value": float(seconds), "fit": summarize_fit(report)}


def _fit_artifact(params: dict[str, Any]) -> dict[str, Any]:
    """Fit one model and persist it as a versioned artifact.

    The value is the artifact's content hash - a deterministic function
    of the params, so the cell caches like any scoring cell - and the
    payload carries an ``artifact`` dict (paths + hash) that the
    manifest records so a run's outputs are discoverable from its
    manifest alone.  ``params["artifact_dir"]`` names the destination
    directory; the file stem is ``<method>-<dataset>-r<rank>-s<seed>``.
    """
    import os

    from ..baselines.registry import make_imputer
    from ..experiments.protocol import DATASET_RANKS, prepare_trial
    from ..model.artifact import save_model

    dataset_name = params["dataset"]
    method = params["method"]
    seed = params["seed"]
    trial = prepare_trial(
        dataset_name,
        missing_rate=params["missing_rate"],
        seed=seed,
        n_rows=params.get("n_rows"),
        fast=params.get("fast", False),
    )
    rank = params.get("rank") or DATASET_RANKS[dataset_name]
    imputer = make_imputer(
        method,
        n_spatial=trial.dataset.n_spatial,
        rank=rank,
        random_state=seed,
    )
    imputer.fit_impute(trial.x_missing, trial.mask)
    model = imputer.fitted_model_
    if model is None:
        raise ValidationError(f"method {method!r} produced no fitted model")
    stem = f"{method}-{dataset_name}-r{rank}-s{seed}"
    info = save_model(model, os.path.join(params["artifact_dir"], stem))
    report = getattr(imputer, "fit_report_", None)
    return {
        "value": info["content_hash"],
        "fit": summarize_fit(report),
        "artifact": info,
    }


def _bench_sweep(params: dict[str, Any]) -> dict[str, Any]:
    """One cell of a :mod:`repro.bench` scaling sweep.

    Generates its dataset from a generator spec (``spec`` +
    ``spec_params`` + ``seed`` - deterministic, so the accuracy half of
    the payload is cacheable in principle), then times ``repeats``
    identical fits on the requested ``kernel_path`` and reports the
    best median per-iteration wall time next to the deterministic
    quality metrics (rms over the injected cells, final objective) and
    the generated data's content hash.  Because wall times ride along,
    sweep grids mark these cells ``volatile`` - never cached, never
    determinism-checked as a whole.
    """
    import numpy as np

    from ..bench.specs import generate
    from ..core.nmf import MaskedNMF
    from ..core.smf import SMF
    from ..core.smfl import SMFL
    from ..metrics.rms import rms_over_mask
    from ..obs.stream import get_recorder

    bench = generate(params["spec"], params["spec_params"], seed=params["seed"])
    model_kind = params.get("model", "smfl")
    rank = params["spec_params"].get("rank") or min(
        6, bench.dataset.n_cols - 1, bench.dataset.n_rows
    )
    common: dict[str, Any] = dict(
        max_iter=params["max_iter"],
        tol=0.0,
        kernel_path=params.get("kernel_path", "auto"),
        random_state=params["seed"],
    )

    def _make(**overrides: Any) -> Any:
        kwargs = {**common, **overrides}
        if model_kind == "nmf":
            return MaskedNMF(rank, **kwargs)
        if model_kind == "smf":
            return SMF(rank, n_spatial=bench.dataset.n_spatial, **kwargs)
        if model_kind == "smfl":
            return SMFL(rank, n_spatial=bench.dataset.n_spatial, **kwargs)
        raise ValidationError(f"unknown sweep model {model_kind!r}")

    # Warmup fit absorbs first-touch page faults / BLAS spin-up so the
    # timed repeats measure steady state.
    with get_recorder().span("bench_warmup_fit", model=model_kind):
        _make(max_iter=params.get("warmup_iter", 2)).fit(
            bench.x_missing, bench.mask
        )

    best_median = float("inf")
    model = None
    report = None
    for index in range(max(int(params.get("repeats", 3)), 1)):
        model = _make()
        with get_recorder().span("bench_fit", model=model_kind, repeat=index):
            model.fit(bench.x_missing, bench.mask)
        report = model.fit_report_
        assert report is not None
        if report.wall_times:
            best_median = min(best_median, float(np.median(report.wall_times)))
    assert model is not None and report is not None
    rms = rms_over_mask(model.impute(), bench.dataset.values, bench.mask)
    value = {
        "rms": float(rms),
        "final_objective": float(report.final_objective),
        "n_iter": int(report.n_iter),
        "median_iteration_seconds": (
            best_median if best_median != float("inf") else 0.0
        ),
        "loop_seconds": float(report.loop_seconds),
        "setup_seconds": float(report.setup_seconds),
        "observed_fraction": float(bench.mask.observed_fraction),
        "data_hash": bench.content_hash(),
    }
    return {"value": value, "fit": summarize_fit(report)}


def _oocore_fit(params: dict[str, Any]) -> dict[str, Any]:
    """Fit a generator-spec dataset through the out-of-core streaming path.

    Streams the dataset block-by-block through
    :func:`repro.oocore.fit_oocore` at ``jobs=1`` (the bit-deterministic
    serial path), freezing the k-means landmark prefix exactly as the
    in-core SMFL fit would.  The value is the final sampled objective;
    the factor hash rides along so grids can determinism-check the fit
    end to end.
    """
    import hashlib

    import numpy as np

    from ..core.landmarks import kmeans_landmarks
    from ..oocore import GeneratorBlockSource, fit_oocore, streaming_init

    seed = params["seed"]
    rank = params["spec_params"]["rank"]
    n_spatial = int(params.get("n_spatial", 2))
    source = GeneratorBlockSource(
        params["spec"],
        params["spec_params"],
        seed=seed,
        block_rows=int(params.get("block_rows", 4096)),
    )
    u0, v0 = streaming_init(source, rank, random_state=seed)
    block0 = source.block(0)
    landmarks = kmeans_landmarks(
        block0.x_observed[:, :n_spatial],
        rank,
        observed=block0.observed[:, :n_spatial],
        random_state=seed,
    )
    v0 = landmarks.inject(v0)
    result = fit_oocore(
        source,
        v0,
        u0,
        epochs=int(params.get("epochs", 3)),
        jobs=1,
        frozen_prefix=n_spatial,
        shuffle=bool(params.get("shuffle", True)),
        seed=seed,
        learning_rate=float(params.get("learning_rate", 1e-3)),
    )
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(result.u).tobytes())
    digest.update(np.ascontiguousarray(result.v).tobytes())
    return {
        "value": float(result.sampled_objectives[-1]),
        "factor_hash": digest.hexdigest(),
        "landmark_block_intact": bool(result.landmark_block_intact),
        "epochs": result.epochs,
    }


CELL_KINDS: dict[str, Callable[[dict[str, Any]], dict[str, Any]]] = {
    "imputation_rms": _imputation_rms,
    "repair_rms": _repair_rms,
    "route_error": _route_error,
    "clustering_accuracy": _clustering_accuracy,
    "feature_locations": _feature_locations,
    "timing": _timing,
    "fit_artifact": _fit_artifact,
    "bench_sweep": _bench_sweep,
    "oocore_fit": _oocore_fit,
}
"""Cell-function registry; the dispatch key a RunSpec carries."""


def run_cell(kind: str, params: dict[str, Any]) -> dict[str, Any]:
    """Dispatch one cell by kind; the worker-safe execution primitive."""
    if kind not in CELL_KINDS:
        raise ValidationError(
            f"unknown cell kind {kind!r}; available: {', '.join(sorted(CELL_KINDS))}"
        )
    return CELL_KINDS[kind](params)
