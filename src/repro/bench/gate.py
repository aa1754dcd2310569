"""The regression gate: fail the build before the trajectory regresses.

``python -m repro.bench gate --baseline results/ --tolerance 0.15``
runs three independent checks and fails (exit != 0) if any produces a
failure string - always naming the file, cell, and metric involved:

1. **Schema validation** - every committed ``BENCH_*.json`` under
   ``--baseline`` (``BENCH_oocore.json`` and ``BENCH_sweep.json`` in
   ``results/``) must satisfy its declared schema
   (:data:`repro.bench.schema.BENCH_SCHEMAS`), envelope included.  A
   writer that drops a key or changes a metric's type breaks here.
2. **Accepted-metric re-derivation** - the gate recomputes each
   benchmark's acceptance verdicts from the *raw* recorded values
   (:func:`repro.bench.schema.check_metrics`).  Editing a number past
   its contract - say the out-of-core ``objective_ratio`` past its
   1.05 limit - fails deterministically even if the file's own
   acceptance flags were left at ``true``.
3. **Sweep diff** - a fresh smoke sweep (same config as the committed
   ``BENCH_sweep.json`` baseline, re-read from the baseline itself so
   the comparison is apples-to-apples by construction) is compared
   cell-by-cell: per-iteration wall time may not exceed baseline by
   more than ``--tolerance`` (relative), accuracy metrics (``rms``,
   ``final_objective``) may not drift past ``--accuracy-rtol``, and
   each cell's generator ``data_hash`` must match exactly - the
   bit-determinism ratchet that catches a generator whose output
   silently changed between commits.

Checks 1-2 are clock-free and therefore never flaky; check 3 measures
wall time and takes the tolerance seriously - CI passes a looser
``--tolerance`` than the local default because absolute timings do not
transfer across machines (accuracy and hash checks transfer as-is).
The repo's measured speed benchmark is ``perfbench/`` (workloads
declared in ``BENCHMARK.json``); this gate guards the committed files.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass, field
from typing import Any

from ..hashing import digest_head
from .io import BENCH_SCHEMA_VERSION, bench_path, read_bench_json
from .schema import (
    BENCH_SCHEMAS,
    bench_name_from_path,
    check_metrics,
    validate_bench_payload,
)

__all__ = [
    "GateReport",
    "check_baseline_dir",
    "compare_sweeps",
    "run_gate",
]

DEFAULT_TOLERANCE = 0.15
"""Maximum relative per-iteration slowdown the sweep diff accepts."""

DEFAULT_ACCURACY_RTOL = 0.02
"""Maximum relative drift of a sweep cell's accuracy metrics.

Fits route through BLAS, whose reduction order may differ between
machines; the committed baselines were recorded once, so a small
rtol absorbs last-ulp noise amplified over the iteration loop while
still failing on any real accuracy change (algorithm regressions move
``rms`` by orders of magnitude more).
"""

_ACCURACY_METRICS = ("rms", "final_objective")


@dataclass
class GateReport:
    """Everything one gate run concluded, JSON-ready."""

    baseline_dir: str
    tolerance: float
    accuracy_rtol: float
    checked_files: list[str] = field(default_factory=list)
    compared_cells: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_payload(self) -> dict[str, Any]:
        return {
            "passed": self.passed,
            "baseline_dir": self.baseline_dir,
            "tolerance": self.tolerance,
            "accuracy_rtol": self.accuracy_rtol,
            "checked_files": list(self.checked_files),
            "compared_cells": self.compared_cells,
            "failures": list(self.failures),
            "notes": list(self.notes),
        }


def check_baseline_dir(baseline_dir: str) -> tuple[list[str], list[str], list[str]]:
    """Checks 1 + 2 over every ``BENCH_*.json`` in ``baseline_dir``.

    Returns ``(failures, checked_paths, notes)``.
    """
    failures: list[str] = []
    checked: list[str] = []
    notes: list[str] = []
    paths = sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json")))
    if not paths:
        failures.append(
            f"no BENCH_*.json baselines found under {baseline_dir!r}"
        )
        return failures, checked, notes
    for path in paths:
        name = bench_name_from_path(path)
        if name not in BENCH_SCHEMAS:
            failures.append(
                f"{path}: unknown benchmark {name!r}; add a schema to "
                "repro.bench.schema.BENCH_SCHEMAS or remove the file"
            )
            continue
        try:
            payload = read_bench_json(path)
        except (OSError, ValueError) as exc:
            failures.append(f"{path}: unreadable baseline ({exc})")
            continue
        checked.append(path)
        version = payload.get("bench_schema_version")
        if version != BENCH_SCHEMA_VERSION:
            failures.append(
                f"{path}: bench_schema_version {version!r} != current "
                f"{BENCH_SCHEMA_VERSION}; refresh the baseline"
            )
            continue
        failures.extend(validate_bench_payload(name, payload))
        failures.extend(check_metrics(name, payload))
    return failures, checked, notes


def _config_mismatches(
    baseline: dict[str, Any], fresh: dict[str, Any]
) -> list[str]:
    mismatches = []
    for fld in ("sweep_schema_version", "spec", "model", "grid", "fixed"):
        if baseline.get(fld) != fresh.get(fld):
            mismatches.append(
                f"sweep: config field {fld!r} differs between baseline "
                f"({baseline.get(fld)!r}) and fresh run ({fresh.get(fld)!r}); "
                "comparison would be apples-to-oranges"
            )
    return mismatches


def compare_sweeps(
    baseline: dict[str, Any],
    fresh: dict[str, Any],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    accuracy_rtol: float = DEFAULT_ACCURACY_RTOL,
) -> tuple[list[str], int]:
    """Cell-by-cell sweep diff (check 3).  Returns ``(failures, n_compared)``."""
    failures = _config_mismatches(baseline, fresh)
    if failures:
        return failures, 0
    base_cells = {cell["key"]: cell for cell in baseline.get("cells", [])}
    fresh_cells = {cell["key"]: cell for cell in fresh.get("cells", [])}
    for key in sorted(set(base_cells) - set(fresh_cells)):
        failures.append(f"sweep cell {key}: present in baseline, missing from fresh run")
    for key in sorted(set(fresh_cells) - set(base_cells)):
        failures.append(f"sweep cell {key}: present in fresh run, missing from baseline")
    compared = 0
    for key in sorted(set(base_cells) & set(fresh_cells)):
        old, new = base_cells[key], fresh_cells[key]
        compared += 1
        if old["data_hash"] != new["data_hash"]:
            failures.append(
                f"sweep cell {key}: data_hash changed "
                f"({digest_head(old['data_hash'])} -> "
                f"{digest_head(new['data_hash'])}) - generator output is no "
                "longer bit-identical for the same (params, seed)"
            )
        for metric in _ACCURACY_METRICS:
            before = float(old["metrics"][metric])
            after = float(new["metrics"][metric])
            drift = abs(after - before) / max(abs(before), 1e-300)
            if drift > accuracy_rtol:
                failures.append(
                    f"sweep cell {key}: metric {metric} drifted {drift:.3%} "
                    f"(baseline {before:.6g}, fresh {after:.6g}, "
                    f"rtol {accuracy_rtol:g})"
                )
        before_s = float(old["metrics"]["median_iteration_seconds"])
        after_s = float(new["metrics"]["median_iteration_seconds"])
        if before_s > 0.0:
            ratio = after_s / before_s
            if ratio > 1.0 + tolerance:
                failures.append(
                    f"sweep cell {key}: metric median_iteration_seconds "
                    f"{after_s:.3e}s is {ratio:.2f}x baseline {before_s:.3e}s "
                    f"(limit {1.0 + tolerance:.2f}x)"
                )
    return failures, compared


def run_gate(
    baseline_dir: str = "results",
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    accuracy_rtol: float = DEFAULT_ACCURACY_RTOL,
    fresh_sweep: dict[str, Any] | None = None,
    skip_sweep: bool = False,
    jobs: int = 1,
) -> GateReport:
    """Run the full gate against ``baseline_dir``.

    ``fresh_sweep`` supplies a pre-recorded fresh sweep payload (CI
    records the smoke sweep as an artifact first, then gates on it);
    when ``None`` the gate runs the smoke sweep itself with the
    committed baseline's own config.  ``skip_sweep`` limits the gate to
    the clock-free checks 1-2.
    """
    report = GateReport(
        baseline_dir=baseline_dir,
        tolerance=float(tolerance),
        accuracy_rtol=float(accuracy_rtol),
    )
    failures, checked, notes = check_baseline_dir(baseline_dir)
    report.failures.extend(failures)
    report.checked_files.extend(checked)
    report.notes.extend(notes)
    if skip_sweep:
        report.notes.append("sweep diff skipped (--skip-sweep)")
        return report

    sweep_path = bench_path("sweep", baseline_dir)
    if not os.path.exists(sweep_path):
        report.failures.append(
            f"no committed sweep baseline at {sweep_path}; record one with "
            "`python -m repro.bench sweep --smoke`"
        )
        return report
    baseline_sweep = read_bench_json(sweep_path)
    if validate_bench_payload("sweep", baseline_sweep):
        # Already reported by check_baseline_dir; a malformed baseline
        # cannot anchor a meaningful diff.
        report.notes.append("sweep diff skipped: baseline sweep failed validation")
        return report

    if fresh_sweep is None:
        from .sweep import run_sweep

        fresh_sweep = run_sweep(
            baseline_sweep["grid"],
            spec=baseline_sweep["spec"],
            model=baseline_sweep["model"],
            smoke=bool(baseline_sweep.get("smoke", True)),
            jobs=jobs,
            **baseline_sweep["fixed"],
        )
        report.notes.append("fresh sweep executed with the baseline's config")
    else:
        report.notes.append("fresh sweep supplied by caller")

    diff_failures, compared = compare_sweeps(
        baseline_sweep,
        fresh_sweep,
        tolerance=tolerance,
        accuracy_rtol=accuracy_rtol,
    )
    report.failures.extend(diff_failures)
    report.compared_cells = compared
    return report
