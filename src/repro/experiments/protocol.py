"""Shared experimental protocol (Section IV-A).

The paper's procedure, reproduced exactly:

1. take the (synthetic stand-in) dataset, min-max normalised;
2. set aside 100 complete tuples protected from injection (several
   baselines need complete rows to operate);
3. inject missing values (imputation task) or errors (repair task)
   into the remaining rows at the configured rate;
4. run each method, compute RMS over the injected cells;
5. repeat ``n_runs`` times (paper: 5) with different injection seeds
   and average.

Per-dataset constants: the experiment row counts are laptop-scaled
stand-ins for Table III's sizes, the ranks follow the paper's guidance
(K < min(N, M); moderately large K is better, Figure 8), and the
dataset seeds pin the synthetic instances used throughout the repo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..baselines.registry import make_imputer
from ..data.registry import DEFAULT_SEEDS, load_dataset
from ..data.preprocessing import extract_complete_holdout
from ..data.schema import SpatialDataset
from ..engine.report import FitReport
from ..masking.injection import ErrorSpec, MissingSpec, inject_errors, inject_missing
from ..masking.mask import ObservationMask
from ..metrics.rms import rms_over_mask
from ..validation import check_positive_int

__all__ = [
    "DATASET_RANKS",
    "DATASET_SEEDS",
    "EXPERIMENT_ROWS",
    "HOLDOUT_SIZE",
    "ImputationTrial",
    "prepare_trial",
    "run_method_on_trial",
    "run_method_with_report",
    "average_rms",
]

DATASET_SEEDS: dict[str, int] = DEFAULT_SEEDS
"""Generation seeds pinning the four synthetic dataset instances
(single source of truth: :data:`repro.data.registry.DEFAULT_SEEDS`)."""

DATASET_RANKS: dict[str, int] = {
    "economic": 12,
    "farm": 12,
    "lake": 6,
    "vehicle": 6,
}
"""Factorization rank per dataset (K < min(N, M); Figure 8 guidance)."""

EXPERIMENT_ROWS: dict[str, int] = {
    "economic": 220,
    "farm": 200,
    "lake": 220,
    "vehicle": 240,
}
"""Laptop-scaled row counts (Table III shapes scaled down; the
synthetic instances are calibrated at these sizes - see DESIGN.md)."""

FAST_ROWS: dict[str, int] = {
    "economic": 140,
    "farm": 140,
    "lake": 140,
    "vehicle": 150,
}
"""Row counts for --fast runs and CI benchmarks."""

HOLDOUT_SIZE = 100
"""Complete tuples protected from injection (Section IV-A1)."""


TRIAL_MEMO_SIZE = 32
"""Trials :func:`prepare_trial` keeps.  A one-shot Table VII grid builds
a trial for NMF and meets it again 25 cells later for SMF (25 distinct
trials apart), a per-(dataset, rate) run 5 cells later; 32 covers both.
At the experiment row counts a trial holds ``N x M`` doubles plus an
``N x M`` mask, 14-26 kB (economic's 220 x 13 the largest), so the memo
keeps under 1 MB."""


@dataclass(frozen=True)
class ImputationTrial:
    """One prepared injection trial: data, corrupted copy, and mask."""

    dataset: SpatialDataset
    x_missing: np.ndarray
    mask: ObservationMask
    seed: int


@lru_cache(maxsize=8)
def _experiment_dataset(name: str, *, n_rows: int | None, fast: bool) -> SpatialDataset:
    """The seeded experiment dataset, generated once per process.

    A grid's cells share their dataset instead of regenerating it per
    cell (2-3 ms each, 225 times in Table VII's grid).  Sharing is safe:
    :class:`SpatialDataset` is frozen and its arrays are read-only.
    """
    rows = n_rows if n_rows is not None else (
        FAST_ROWS[name] if fast else EXPERIMENT_ROWS[name]
    )
    return load_dataset(name, n_rows=rows, random_state=DATASET_SEEDS[name])


def prepare_trial(
    name: str,
    *,
    missing_rate: float = 0.1,
    seed: int = 0,
    spatial_missing: bool = False,
    task: str = "imputation",
    n_rows: int | None = None,
    fast: bool = False,
) -> ImputationTrial:
    """Build one injection trial per the paper's protocol.

    The trial is a pure function of its arguments and is memoized per
    process like the dataset it draws from (:data:`TRIAL_MEMO_SIZE`
    trials): NMF, SMF and SMFL cells of one (dataset, rate, seed) share
    one injection.  Sharing is safe because the trial is read-only -
    ``x_missing`` is write-protected, the mask and dataset are
    immutable - so a caller that needs to edit the corrupted matrix
    must copy it.

    Parameters
    ----------
    name:
        Dataset name (``economic``, ``farm``, ``lake``, ``vehicle``).
    missing_rate:
        Injection rate (missing rate or error rate by ``task``).
    seed:
        Injection seed (varied across the ``n_runs`` repetitions).
    spatial_missing:
        Also inject into the spatial columns (Table V setting).
    task:
        ``"imputation"`` (random removals) or ``"repair"``
        (same-domain value swaps, Table VI setting).
    n_rows:
        Optional row-count override.
    fast:
        Use the reduced row counts for quick runs.
    """
    return _memo_trial(name, missing_rate, seed, spatial_missing, task, n_rows, fast)


@lru_cache(maxsize=TRIAL_MEMO_SIZE)
def _memo_trial(
    name: str,
    missing_rate: float,
    seed: int,
    spatial_missing: bool,
    task: str,
    n_rows: int | None,
    fast: bool,
) -> ImputationTrial:
    dataset = _experiment_dataset(name, n_rows=n_rows, fast=fast)
    holdout, _ = extract_complete_holdout(
        dataset.n_rows, HOLDOUT_SIZE, random_state=seed
    )
    if task == "repair":
        x_missing, mask = inject_errors(
            dataset.values,
            ErrorSpec(error_rate=missing_rate, protect_rows=tuple(holdout)),
            random_state=seed,
        )
    elif task == "imputation":
        columns = None if spatial_missing else dataset.attribute_columns
        x_missing, mask = inject_missing(
            dataset.values,
            MissingSpec(
                missing_rate=missing_rate,
                columns=columns,
                protect_rows=tuple(holdout),
            ),
            random_state=seed,
        )
    else:
        raise ValueError(f"unknown task {task!r}; use 'imputation' or 'repair'")
    x_missing.setflags(write=False)
    return ImputationTrial(dataset=dataset, x_missing=x_missing, mask=mask, seed=seed)


def run_method_on_trial(
    method: str,
    trial: ImputationTrial,
    *,
    rank: int | None = None,
    overrides: dict[str, object] | None = None,
) -> float:
    """Run one method on a prepared trial and return its RMS error."""
    rms, _ = run_method_with_report(method, trial, rank=rank, overrides=overrides)
    return rms


def run_method_with_report(
    method: str,
    trial: ImputationTrial,
    *,
    rank: int | None = None,
    overrides: dict[str, object] | None = None,
) -> tuple[float, FitReport | None]:
    """Run one method and return ``(rms, engine telemetry)``.

    The report is the method's :class:`~repro.engine.FitReport` —
    per-iteration objectives, wall times, and invariant checks — or
    ``None`` for one-shot (non-iterative) imputers.
    """
    dataset = trial.dataset
    k = rank if rank is not None else DATASET_RANKS[dataset.name]
    imputer = make_imputer(
        method, n_spatial=dataset.n_spatial, rank=k, random_state=trial.seed
    )
    for attr, value in (overrides or {}).items():
        if not hasattr(imputer, attr):
            raise AttributeError(f"{method} has no parameter {attr!r}")
        setattr(imputer, attr, value)
    estimate = imputer.fit_impute(trial.x_missing, trial.mask)
    rms = rms_over_mask(estimate, dataset.values, trial.mask)
    report = getattr(imputer, "fit_report_", None)
    return rms, report if isinstance(report, FitReport) else None


def average_rms(
    method: str,
    name: str,
    *,
    missing_rate: float = 0.1,
    n_runs: int = 5,
    spatial_missing: bool = False,
    task: str = "imputation",
    rank: int | None = None,
    overrides: dict[str, object] | None = None,
    n_rows: int | None = None,
    fast: bool = False,
) -> float:
    """The paper's 5-run averaged RMS for one (method, dataset) cell."""
    n_runs = check_positive_int(n_runs, name="n_runs")
    values = []
    for seed in range(n_runs):
        trial = prepare_trial(
            name,
            missing_rate=missing_rate,
            seed=seed,
            spatial_missing=spatial_missing,
            task=task,
            n_rows=n_rows,
            fast=fast,
        )
        values.append(
            run_method_on_trial(method, trial, rank=rank, overrides=overrides)
        )
    return float(np.mean(values))
