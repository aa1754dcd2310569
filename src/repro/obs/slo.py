"""The SLO gate: latency/error/liveness budgets over a recorded run.

The bench gate ratchets *throughput*; this module ratchets *service
level*.  A recorded stream's ``serving.request_done`` /
``serving.request_error`` events plus oocore liveness events reduce to
the stats an operator would page on — p50/p99 fold-in latency, error
rate, stall and death counts — and compared against the budgets
committed in ``results/SLO_serving.json``:

- latency quantiles are **exact** (sorted raw latencies from the
  events, not histogram buckets): the gate is offline, so there is no
  reason to accept the ~12% bucket error the live histograms trade
  for bounded memory;
- a violation names the metric, the observed value, and the budget —
  ``python -m repro.obs slo`` exits nonzero on any violation, which is
  what CI keys on.

The committed baseline rides the shared bench envelope
(:func:`repro.bench.io.write_bench_json` under the name
``SLO_serving``), so the schema suite and ``bench gate`` validate it
alongside ``BENCH_oocore.json`` and ``BENCH_sweep.json``.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

__all__ = [
    "SLO_SCHEMA_VERSION",
    "DEFAULT_BUDGETS",
    "serving_stats_from_events",
    "evaluate_slo",
    "build_slo_payload",
    "record_slo_baseline",
]

SLO_SCHEMA_VERSION = 1

DEFAULT_BUDGETS: dict[str, float | int] = {
    "p99_seconds_max": 0.5,
    "error_rate_max": 0.0,
    "stall_count_max": 0,
}
"""CI-friendly defaults: a smoke fold-in request takes milliseconds,
so a 0.5 s p99 only trips on a real regression (or a dying runner),
and the error/stall budgets are zero because the smoke run is fully
deterministic."""


def _exact_quantile(sorted_values: list[float], q: float) -> float | None:
    if not sorted_values:
        return None
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def serving_stats_from_events(
    events: Iterable[dict[str, Any]],
) -> dict[str, Any]:
    """Reduce a record stream to the SLO gate's observed stats."""
    latencies: list[float] = []
    errors = 0
    stalls = 0
    deaths = 0
    for record in events:
        if record.get("kind") != "event":
            continue
        event = record.get("name")
        attrs = record.get("attrs") or {}
        if event == "serving.request_done":
            seconds = attrs.get("seconds")
            if seconds is not None:
                latencies.append(float(seconds))
        elif event == "serving.request_error":
            errors += 1
        elif event == "oocore.worker_stalled":
            stalls += 1
        elif event == "oocore.worker_died":
            deaths += 1
    latencies.sort()
    requests = len(latencies)
    total = requests + errors
    return {
        "requests": requests,
        "errors": errors,
        "error_rate": (errors / total) if total else 0.0,
        "p50_seconds": _exact_quantile(latencies, 0.50),
        "p99_seconds": _exact_quantile(latencies, 0.99),
        "max_seconds": latencies[-1] if latencies else None,
        "stall_count": stalls,
        "worker_deaths": deaths,
    }


def evaluate_slo(
    stats: dict[str, Any], budgets: dict[str, Any]
) -> list[str]:
    """Violation strings (empty = within budget), each naming its metric."""
    violations: list[str] = []
    if not stats.get("requests"):
        violations.append(
            "p99_seconds: no serving.request_done events recorded - "
            "an empty run cannot demonstrate the latency SLO"
        )
        return violations
    p99 = stats.get("p99_seconds")
    p99_max = budgets.get("p99_seconds_max")
    if p99_max is not None and p99 is not None and p99 > float(p99_max):
        violations.append(
            f"p99_seconds: observed {p99:.6g}s exceeds budget "
            f"{float(p99_max):.6g}s"
        )
    error_rate = float(stats.get("error_rate", 0.0))
    error_max = budgets.get("error_rate_max")
    if error_max is not None and error_rate > float(error_max):
        violations.append(
            f"error_rate: observed {error_rate:.6g} exceeds budget "
            f"{float(error_max):.6g}"
        )
    stall_count = int(stats.get("stall_count", 0))
    stall_max = budgets.get("stall_count_max")
    if stall_max is not None and stall_count > int(stall_max):
        violations.append(
            f"stall_count: observed {stall_count} exceeds budget "
            f"{int(stall_max)}"
        )
    if int(stats.get("worker_deaths", 0)) > 0:
        violations.append(
            f"worker_deaths: {stats['worker_deaths']} oocore worker(s) "
            "died during the recorded run"
        )
    return violations


def build_slo_payload(
    stats: dict[str, Any], budgets: dict[str, Any] | None = None
) -> dict[str, Any]:
    """The ``SLO_serving`` document body (envelope added by the writer)."""
    budgets = {**DEFAULT_BUDGETS, **(budgets or {})}
    recorded = {
        "requests": int(stats["requests"]),
        "errors": int(stats["errors"]),
        "error_rate": float(stats["error_rate"]),
        "p50_seconds": float(stats["p50_seconds"] or 0.0),
        "p99_seconds": float(stats["p99_seconds"] or 0.0),
        "stall_count": int(stats["stall_count"]),
        "worker_deaths": int(stats["worker_deaths"]),
    }
    return {
        "slo_schema_version": SLO_SCHEMA_VERSION,
        "recorded": recorded,
        "budgets": {
            "p99_seconds_max": float(budgets["p99_seconds_max"]),
            "error_rate_max": float(budgets["error_rate_max"]),
            "stall_count_max": int(budgets["stall_count_max"]),
        },
        "acceptance": {
            "recorded_within_budgets": not evaluate_slo(recorded, budgets),
        },
    }


def record_slo_baseline(
    stats: dict[str, Any],
    *,
    budgets: dict[str, Any] | None = None,
    path: str = "results/SLO_serving.json",
) -> dict[str, Any]:
    """Write the baseline through the shared bench envelope writer."""
    from ..bench.io import write_bench_json

    payload = build_slo_payload(stats, budgets)
    write_bench_json("SLO_serving", payload, path=path)
    return payload
