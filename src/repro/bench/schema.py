"""Declarative schemas for the committed ``results/`` baselines.

Two files stay committed: ``BENCH_oocore.json`` (the out-of-core
scaling curve) and ``BENCH_sweep.json`` (the gate's generator data-hash
and accuracy ratchet).  Speed is measured by ``perfbench/`` (see
``BENCHMARK.json``), not by these files.  Two registries stop a
malformed or quietly-degraded write from corrupting them:

- :data:`BENCH_SCHEMAS` - per-file required fields (dotted paths
  with ``*`` wildcards over dict values and ``[]`` over list items)
  and their types.  The tier-1 suite validates every committed file
  against these, so a writer that drops a key or changes a metric
  type fails tests instead of silently shipping.
- :data:`ACCEPTED_METRICS` - the gate's contract: recorded metrics
  with an upper limit, plus acceptance flags that must be ``True``.
  :func:`check_metrics` re-derives the verdicts from the *raw*
  metrics, so perturbing a number without touching its acceptance flag
  still fails, with the metric named.

Type names: ``number`` (int or float, bools excluded), ``int``,
``bool``, ``str``, ``dict``, ``list``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

__all__ = [
    "BENCH_SCHEMAS",
    "ACCEPTED_METRICS",
    "ENVELOPE_FIELDS",
    "MetricCheck",
    "iter_paths",
    "validate_bench_payload",
    "check_metrics",
    "bench_name_from_path",
]

_MISSING = object()

ENVELOPE_FIELDS: tuple[tuple[str, str], ...] = (
    ("bench_name", "str"),
    ("bench_schema_version", "int"),
    ("python", "str"),
    ("machine", "str"),
)
"""Fields :func:`repro.bench.io.write_bench_json` stamps on every file."""


BENCH_SCHEMAS: dict[str, tuple[tuple[str, str], ...]] = {
    "oocore": (
        ("spec", "str"),
        ("cols", "int"),
        ("rank", "int"),
        ("block_rows", "int"),
        ("epochs", "int"),
        ("curve", "list"),
        ("curve.[].rows", "int"),
        ("curve.[].peak_rss_bytes", "int"),
        ("curve.[].dense_bytes", "int"),
        ("curve.[].fit_seconds", "number"),
        ("curve.[].final_sampled_objective", "number"),
        ("curve.[].landmark_block_intact", "bool"),
        ("peak_rss_growth_bytes", "int"),
        ("dense_growth_bytes", "int"),
        ("equivalence.rows", "int"),
        ("equivalence.serial_bit_exact", "bool"),
        ("equivalence.objective_ratio", "number"),
        ("acceptance", "dict"),
        ("acceptance.serial_matches_incore_bit_exact", "bool"),
        ("acceptance.bounded_peak_memory", "bool"),
        ("acceptance.landmark_block_intact", "bool"),
    ),
    "sweep": (
        ("sweep_schema_version", "int"),
        ("spec", "str"),
        ("model", "str"),
        ("grid", "dict"),
        ("fixed", "dict"),
        ("cells", "list"),
        ("cells.[].key", "str"),
        ("cells.[].params", "dict"),
        ("cells.[].data_hash", "str"),
        ("cells.[].metrics.rms", "number"),
        ("cells.[].metrics.final_objective", "number"),
        ("cells.[].metrics.median_iteration_seconds", "number"),
        ("cells.[].metrics.loop_seconds", "number"),
        ("cells.[].metrics.n_iter", "int"),
    ),
}
"""Required content fields per benchmark name (envelope checked separately)."""


@dataclass(frozen=True)
class MetricCheck:
    """One recorded metric the gate re-verifies from its raw value.

    ``kind``: ``"max"`` (every resolved value must be <= ``limit``) or
    ``"flag"`` (must be ``True``).
    """

    path: str
    kind: str
    limit: float | None = None


ACCEPTED_METRICS: dict[str, tuple[MetricCheck, ...]] = {
    "oocore": (
        MetricCheck("equivalence.objective_ratio", "max", 1.05),
        MetricCheck("acceptance.*", "flag"),
    ),
}
"""Accuracy-ratio / invariant metrics the gate re-checks per benchmark.

``sweep`` carries no entry: its numbers are wall-clock measurements
whose regression semantics live in the gate's sweep diff, not in a
fixed limit.
"""


def bench_name_from_path(path: str) -> str | None:
    """``.../BENCH_<name>.json`` -> ``<name>`` (else ``None``)."""
    import os

    base = os.path.basename(path)
    if base.startswith("BENCH_") and base.endswith(".json"):
        return base[len("BENCH_"):-len(".json")]
    return None


def iter_paths(payload: Any, path: str) -> Iterator[tuple[str, Any]]:
    """Resolve a dotted path with ``*`` / ``[]`` wildcards to leaves.

    Yields ``(concrete_path, value)`` pairs; a missing segment yields
    the concrete path with the ``_MISSING`` sentinel so callers can
    report exactly which expansion failed.
    """
    def walk(node: Any, segments: list[str], prefix: str) -> Iterator[tuple[str, Any]]:
        if not segments:
            yield prefix, node
            return
        head, rest = segments[0], segments[1:]
        if head == "*":
            if not isinstance(node, dict) or not node:
                yield f"{prefix}.*", _MISSING
                return
            for key in sorted(node):
                yield from walk(node[key], rest, f"{prefix}.{key}" if prefix else key)
        elif head == "[]":
            if not isinstance(node, list) or not node:
                yield f"{prefix}[]", _MISSING
                return
            for index, item in enumerate(node):
                yield from walk(item, rest, f"{prefix}[{index}]")
        else:
            label = f"{prefix}.{head}" if prefix else head
            if not isinstance(node, dict) or head not in node:
                yield label, _MISSING
                return
            yield from walk(node[head], rest, label)

    yield from walk(payload, path.split("."), "")


def _type_ok(value: Any, kind: str) -> bool:
    if kind == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == "bool":
        return isinstance(value, bool)
    if kind == "str":
        return isinstance(value, str)
    if kind == "dict":
        return isinstance(value, dict)
    if kind == "list":
        return isinstance(value, list)
    raise ValueError(f"unknown schema type {kind!r}")


def validate_bench_payload(
    name: str, payload: Any, *, require_envelope: bool = True
) -> list[str]:
    """Problems with ``payload`` as benchmark ``name`` (empty = valid)."""
    if name not in BENCH_SCHEMAS:
        return [f"unknown benchmark name {name!r}; known: "
                f"{', '.join(sorted(BENCH_SCHEMAS))}"]
    if not isinstance(payload, dict):
        return [f"{name}: payload must be a JSON object, got {type(payload).__name__}"]
    problems: list[str] = []
    required = BENCH_SCHEMAS[name]
    if require_envelope:
        required = ENVELOPE_FIELDS + required
    for path, kind in required:
        for concrete, value in iter_paths(payload, path):
            if value is _MISSING:
                problems.append(f"{name}: missing required field {concrete}")
            elif not _type_ok(value, kind):
                problems.append(
                    f"{name}: field {concrete} must be {kind}, "
                    f"got {type(value).__name__} ({value!r})"
                )
    if require_envelope and isinstance(payload.get("bench_name"), str):
        if payload["bench_name"] != name:
            problems.append(
                f"{name}: bench_name field says {payload['bench_name']!r}"
            )
    return problems


def check_metrics(name: str, payload: dict[str, Any]) -> list[str]:
    """Re-verify the accepted metrics of benchmark ``name`` from raw values.

    Returns failure strings naming the metric and the violated limit;
    an empty list means every accepted metric is inside its contract.
    """
    failures: list[str] = []
    for check in ACCEPTED_METRICS.get(name, ()):
        for concrete, value in iter_paths(payload, check.path):
            if value is _MISSING:
                failures.append(f"{name}: accepted metric {concrete} is missing")
                continue
            if check.kind == "flag":
                if value is not True:
                    failures.append(
                        f"{name}: acceptance flag {concrete} is {value!r}, "
                        "expected true"
                    )
            elif not isinstance(value, (int, float)) or isinstance(value, bool):
                failures.append(
                    f"{name}: accepted metric {concrete} is not numeric ({value!r})"
                )
            elif value > check.limit:
                failures.append(
                    f"{name}: metric {concrete} = {value:.6g} exceeds "
                    f"limit {check.limit:g}"
                )
    return failures
