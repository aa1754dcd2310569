"""The scaling sweep: rows x rank x missing x kernel_path, one JSON out.

Each sweep cell generates its dataset from a registered generator spec
(:mod:`repro.bench.specs`), fits the chosen model on the requested
kernel path through the ordinary engine seam, and records wall-clock
*and* quality metrics side by side - so a "2x faster" claim and a
"same accuracy" claim always come from the same artifact.  Cells run
through :func:`repro.runner.run_grid` as ``bench_sweep`` cells
(volatile: wall times are measurements, not values), which buys the
worker fan-out, manifest, and span instrumentation the runner already
has.

The output is one canonical, schema-versioned JSON
(``results/BENCH_sweep.json`` by default) that is comparable across
commits cell-by-cell: the regression gate (:mod:`repro.bench.gate`)
diffs a fresh run against the committed baseline and fails on timing
slowdowns, accuracy drift, or a changed generator content hash.
"""

from __future__ import annotations

import itertools
from typing import Any, Mapping

from ..exceptions import ValidationError
from ..hashing import payload_digest
from ..obs.stream import get_recorder
from .io import write_bench_json
from .specs import get_spec

__all__ = [
    "SWEEP_SCHEMA_VERSION",
    "DEFAULT_GRID",
    "SMOKE_GRID",
    "cell_key",
    "build_sweep_cells",
    "run_sweep",
    "record_sweep",
]

SWEEP_SCHEMA_VERSION = 1
"""Generation counter of the sweep payload layout."""

DEFAULT_GRID: dict[str, tuple[Any, ...]] = {
    "rows": (2048, 4096, 8192),
    "rank": (8,),
    "missing": (0.3, 0.6),
    "kernel_path": ("reference", "workspace", "sparse"),
}
"""Full-scale sweep axes (the ``slow``-marked / local-refresh shape)."""

SMOKE_GRID: dict[str, tuple[Any, ...]] = {
    "rows": (1536,),
    "rank": (8,),
    "missing": (0.3, 0.6),
    "kernel_path": ("reference", "workspace", "sparse"),
}
"""CI-scale axes: seconds, not minutes, but cells still big enough
(`~`ms-scale iterations) that a >15% per-iteration regression clears
scheduler jitter."""

_GRID_AXES = ("rows", "rank", "missing", "kernel_path")

_DEFAULT_FIXED: dict[str, Any] = {
    "cols": 48,
    "mask": "mcar",
    "noise": 0.05,
    "mnar_strength": 2.0,
    "seed": 0,
    "max_iter": 12,
    "repeats": 5,
    "warmup_iter": 2,
}


def cell_key(params: dict[str, Any]) -> str:
    """Stable human-readable identity of one sweep cell."""
    return (
        f"rows={params['rows']}/rank={params['rank']}"
        f"/missing={params['missing']:g}/kernel={params['kernel_path']}"
    )


def _normalize_grid(grid: Mapping[str, Any] | None, smoke: bool) -> dict[str, list]:
    base = SMOKE_GRID if smoke else DEFAULT_GRID
    merged = {axis: list(base[axis]) for axis in _GRID_AXES}
    for axis, values in (grid or {}).items():
        if axis not in _GRID_AXES:
            raise ValidationError(
                f"unknown sweep axis {axis!r}; axes: {', '.join(_GRID_AXES)}"
            )
        values = list(values) if isinstance(values, (list, tuple)) else [values]
        if not values:
            raise ValidationError(f"sweep axis {axis!r} must be non-empty")
        merged[axis] = values
    return merged


def build_sweep_cells(
    grid: Mapping[str, Any] | None = None,
    *,
    spec: str = "lowrank_landmark",
    model: str = "smfl",
    smoke: bool = False,
    **fixed_overrides: Any,
) -> tuple[Any, dict[str, list], dict[str, Any]]:
    """Expand a sweep into a runner grid of volatile ``bench_sweep`` cells.

    Returns ``(RunGrid, grid_axes, fixed)``.  Every cell's generator
    params are validated *here*, before any work runs - a bad axis
    value fails the whole sweep up front with the offending key named,
    not 40 minutes in.
    """
    from ..runner.spec import RunGrid, RunSpec

    if model not in ("nmf", "smf", "smfl"):
        raise ValidationError(
            f"unknown sweep model {model!r}; choose nmf, smf, or smfl"
        )
    fixed = dict(_DEFAULT_FIXED)
    unknown = sorted(set(fixed_overrides) - set(fixed))
    if unknown:
        raise ValidationError(
            f"unknown sweep option {unknown[0]!r}; known: "
            f"{', '.join(sorted(fixed))}"
        )
    fixed.update(fixed_overrides)
    axes = _normalize_grid(grid, smoke)
    generator = get_spec(spec)
    spec_field_names = {f.name for f in generator.fields}

    cells = []
    for rows, rank, missing, kernel_path in itertools.product(
        *(axes[axis] for axis in _GRID_AXES)
    ):
        spec_params = {
            "rows": rows,
            "rank": rank,
            "missing": missing,
            "cols": fixed["cols"],
            "mask": fixed["mask"],
            "noise": fixed["noise"],
            "mnar_strength": fixed["mnar_strength"],
        }
        spec_params = {
            key: value for key, value in spec_params.items()
            if key in spec_field_names
        }
        validated = generator.validate(spec_params)  # fail fast, canonical form
        params = {
            "spec": spec,
            "spec_params": validated,
            "seed": fixed["seed"],
            "model": model,
            "kernel_path": kernel_path,
            "max_iter": fixed["max_iter"],
            "repeats": fixed["repeats"],
            "warmup_iter": fixed["warmup_iter"],
        }
        cells.append(RunSpec(kind="bench_sweep", params=params, volatile=True))
    run_grid = RunGrid(
        experiment="bench_sweep",
        cells=tuple(cells),
        assemble=lambda values: list(values),
    )
    return run_grid, axes, fixed


def run_sweep(
    grid: Mapping[str, Any] | None = None,
    *,
    spec: str = "lowrank_landmark",
    model: str = "smfl",
    smoke: bool = False,
    jobs: int = 1,
    **fixed_overrides: Any,
) -> dict[str, Any]:
    """Run one scaling sweep and return the canonical payload."""
    from ..runner import RunnerConfig, run_grid as execute_grid

    sweep_grid, axes, fixed = build_sweep_cells(
        grid, spec=spec, model=model, smoke=smoke, **fixed_overrides
    )
    config = RunnerConfig(jobs=jobs) if jobs > 1 else None
    with get_recorder().span(
        "sweep", spec=spec, model=model, n_cells=len(sweep_grid)
    ):
        outcome = execute_grid(sweep_grid, config)
    values = outcome.value

    cell_entries = []
    for run_spec, value in zip(sweep_grid.cells, values):
        params = run_spec.params
        axis_values = {
            "rows": params["spec_params"]["rows"]
            if "rows" in params["spec_params"] else None,
            "rank": params["spec_params"].get("rank"),
            "missing": params["spec_params"]["missing"],
            "kernel_path": params["kernel_path"],
        }
        metrics = dict(value)
        data_hash = metrics.pop("data_hash")
        cell_entries.append(
            {
                "key": cell_key(
                    {**axis_values, "kernel_path": params["kernel_path"]}
                ),
                "params": params["spec_params"],
                "kernel_path": params["kernel_path"],
                "config_digest": payload_digest(params),
                "data_hash": data_hash,
                "metrics": metrics,
            }
        )
    return {
        "sweep_schema_version": SWEEP_SCHEMA_VERSION,
        "spec": spec,
        "model": model,
        "smoke": bool(smoke),
        "jobs": int(jobs),
        "grid": axes,
        "fixed": fixed,
        "n_cells": len(cell_entries),
        "cells": cell_entries,
    }


def record_sweep(path: str | None = None, **kwargs: Any) -> dict[str, Any]:
    """Run :func:`run_sweep` and persist it via the shared envelope."""
    payload = run_sweep(**kwargs)
    write_bench_json("sweep", payload, path=path)
    return payload
