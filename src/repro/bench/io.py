"""The canonical ``results/BENCH_*.json`` envelope: one writer, one reader.

Every benchmark in the repo persists through :func:`write_bench_json`,
which stamps the payload with the envelope fields the regression gate
and the schema suite key on:

- ``bench_name`` - which benchmark this is (``oocore``, ``sweep``,
  ``SLO_serving``), so a file's identity survives being renamed;
- ``bench_schema_version`` - generation counter of the envelope
  itself; the gate refuses to compare across versions rather than
  guessing;
- ``python`` / ``machine`` - the provenance fields the trajectory has
  carried since PR 1.

The write is atomic (temp file + ``os.replace``) with sorted keys and
a trailing newline, so two writes of the same payload are byte-
identical and a crash never leaves a torn baseline behind.

This module is a dependency leaf (stdlib only) so that any layer
(:mod:`repro.oocore.benchmark`, :mod:`repro.obs.slo`) can route
its writer through it without creating an import cycle with the bench
layer's engine-facing modules.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
from typing import Any

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_RESULTS_DIR",
    "bench_path",
    "write_bench_json",
    "read_bench_json",
]

BENCH_SCHEMA_VERSION = 1
"""Generation counter of the BENCH JSON envelope.

Bump on any change to the envelope fields or their meaning; the
regression gate (:mod:`repro.bench.gate`) refuses to diff payloads
written under a different version.
"""

DEFAULT_RESULTS_DIR = "results"
"""Where the committed benchmark trajectory lives."""


def bench_path(name: str, directory: str = DEFAULT_RESULTS_DIR) -> str:
    """Canonical on-disk location of benchmark ``name``.

    Names already carrying the ``SLO_`` prefix (serving-budget
    baselines) keep it as the whole filename; everything else gets the
    historical ``BENCH_`` prefix.
    """
    if name.startswith("SLO_"):
        return os.path.join(directory, f"{name}.json")
    return os.path.join(directory, f"BENCH_{name}.json")


def write_bench_json(
    name: str,
    payload: dict[str, Any],
    *,
    path: str | None = None,
    directory: str = DEFAULT_RESULTS_DIR,
) -> str:
    """Write ``payload`` as benchmark ``name`` with the shared envelope.

    Returns the path written.  ``path`` overrides the canonical
    ``<directory>/BENCH_<name>.json`` location (CI smoke runs write
    next to the workspace, not into ``results/``).  The envelope
    fields are stamped onto a copy - the caller's dict is not mutated
    - and an envelope key already present in ``payload`` is rejected
    rather than silently overwritten.
    """
    destination = path or bench_path(name, directory)
    envelope = {
        "bench_name": str(name),
        "bench_schema_version": BENCH_SCHEMA_VERSION,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    collisions = sorted(set(envelope) & set(payload))
    if collisions:
        raise ValueError(
            f"benchmark payload for {name!r} already carries envelope "
            f"key(s) {collisions}; envelope fields are writer-owned"
        )
    document = {**payload, **envelope}
    parent = os.path.dirname(destination) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, destination)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return destination


def read_bench_json(path: str) -> dict[str, Any]:
    """Load one benchmark JSON file (no validation - see ``schema``)."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError(f"{path}: benchmark JSON must be an object")
    return document
