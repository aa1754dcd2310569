"""Versioned model artifacts: JSON metadata + npz arrays + content hash.

An artifact is a pair of sibling files derived from one base ``path``:

- ``<path>.json`` - the metadata document: schema version, the
  model's scalar fields, an array manifest (name -> dtype/shape/sha256
  digest), and the artifact's ``content_hash``;
- ``<path>.npz`` - the arrays themselves (factors, clip bounds,
  landmark block), uncompressed for bit-exact round-trips.

The **content hash** is computed by :func:`repro.hashing.content_hash`
- the same canonical-JSON SHA-256 rules the runner's cell cache uses -
over the hash-covered metadata (everything except provenance fields
like ``created_at``) plus the per-array digests.  ``save -> load ->
verify`` is therefore bit-identity-checkable: a flipped bit in either
file changes a digest and :func:`verify_model` reports exactly which
one.

Versioning rules:

- ``schema`` (:data:`~repro.versioning.ARTIFACT_SCHEMA_VERSION`) gates
  the file *layout*; a loader refuses other schema generations.
- ``numerics_version`` (:data:`~repro.versioning.NUMERICS_VERSION`)
  travels inside the hash-covered metadata: an artifact fitted under a
  different numerics generation loads fine (the factors are data), but
  the mismatch is visible and :func:`verify_model` flags it.
- ``repro_version`` is provenance, also hash-covered, never a load
  gate.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import time
from typing import Any

import numpy as np

from ..exceptions import ValidationError
from ..hashing import array_digest, content_hash
from ..versioning import ARTIFACT_SCHEMA_VERSION, NUMERICS_VERSION, __version__
from .fitted import FittedModel

__all__ = [
    "artifact_paths",
    "save_model",
    "load_model",
    "verify_model",
]

_ARRAY_FIELDS = (
    "u",
    "v",
    "estimate",
    "landmark_values",
    "column_low",
    "column_high",
    "scaler_min",
    "scaler_range",
)

_FINITE_FIELDS = ("u", "v", "estimate", "landmark_values")
"""Arrays a loaded model must hold finite; the clip bounds may be
``+/-inf`` (a column with no observed entry)."""

_SCALAR_FIELDS = (
    "method",
    "rank",
    "update_rule",
    "kernel_path",
    "n_spatial",
    "observed_fraction",
    "n_rows",
    "n_cols",
    "clip_to_observed",
    "numerics_version",
    "repro_version",
)


def artifact_paths(path: str) -> tuple[str, str]:
    """``(json_path, npz_path)`` for an artifact base ``path``.

    ``path`` may be given with or without the ``.json`` suffix; the
    npz sits next to the json under the same stem.
    """
    base = path[: -len(".json")] if path.endswith(".json") else path
    return f"{base}.json", f"{base}.npz"


def _model_arrays(model: FittedModel) -> dict[str, np.ndarray]:
    return {
        name: getattr(model, name)
        for name in _ARRAY_FIELDS
        if getattr(model, name) is not None
    }


def _hashed_metadata(model: FittedModel) -> dict[str, Any]:
    """The hash-covered scalar metadata (no provenance timestamps)."""
    meta: dict[str, Any] = {name: getattr(model, name) for name in _SCALAR_FIELDS}
    meta["landmark_columns"] = list(model.landmark_columns)
    return meta


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        prefix=f".{os.path.basename(path)}.", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def save_model(model: FittedModel, path: str) -> dict[str, Any]:
    """Persist ``model`` as a versioned artifact pair under ``path``.

    Both files are written atomically (temp file + rename).  Returns an
    info dict: ``{"json_path", "npz_path", "content_hash", "schema"}``
    - the shape the runner manifest records for artifact-producing
    cells.
    """
    json_path, npz_path = artifact_paths(path)
    arrays = _model_arrays(model)
    metadata = _hashed_metadata(model)
    digest = content_hash(metadata, arrays)

    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    _atomic_write(npz_path, buffer.getvalue())

    document = {
        "schema": ARTIFACT_SCHEMA_VERSION,
        "content_hash": digest,
        "metadata": metadata,
        "arrays": {
            name: {
                "dtype": str(array.dtype.str),
                "shape": list(array.shape),
                "sha256": array_digest(array),
            }
            for name, array in sorted(arrays.items())
        },
        # Provenance only - deliberately outside the content hash, so
        # re-saving an identical model yields the identical hash.
        "created_at": time.time(),
        "writer_version": __version__,
    }
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    _atomic_write(json_path, text.encode("utf-8"))
    return {
        "json_path": json_path,
        "npz_path": npz_path,
        "content_hash": digest,
        "schema": ARTIFACT_SCHEMA_VERSION,
    }


def _read_document(json_path: str) -> dict[str, Any]:
    try:
        with open(json_path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read artifact metadata {json_path}: {exc}")
    except ValueError as exc:
        raise ValidationError(f"artifact metadata {json_path} is not JSON: {exc}")
    schema = document.get("schema")
    if schema != ARTIFACT_SCHEMA_VERSION:
        raise ValidationError(
            f"artifact {json_path} has schema version {schema!r}; this "
            f"reader understands {ARTIFACT_SCHEMA_VERSION}"
        )
    return document


def _read_arrays(npz_path: str) -> dict[str, np.ndarray]:
    try:
        with np.load(npz_path) as bundle:
            return {name: np.array(bundle[name]) for name in bundle.files}
    except OSError as exc:
        raise ValidationError(f"cannot read artifact arrays {npz_path}: {exc}")


def load_model(path: str, *, verify: bool = True) -> FittedModel:
    """Load an artifact back into a :class:`FittedModel`.

    With ``verify`` (default) every array digest and the combined
    content hash are recomputed and checked before the model is
    constructed, so a corrupted or mixed-up file pair fails loudly
    instead of serving wrong numbers.  A factor, estimate or landmark
    array holding NaN or inf is refused either way, naming the array.
    """
    json_path, npz_path = artifact_paths(path)
    document = _read_document(json_path)
    arrays = _read_arrays(npz_path)
    if verify:
        report = _verify(document, arrays, json_path)
        if not report["ok"]:
            raise ValidationError(
                f"artifact {json_path} failed verification: "
                + "; ".join(report["errors"])
            )
    for name in _FINITE_FIELDS:
        if name in arrays and not np.isfinite(arrays[name]).all():
            raise ValidationError(
                f"artifact {json_path}: array {name!r} holds NaN or inf"
            )
    metadata = document.get("metadata") or {}
    fields = dict(metadata)
    fields["landmark_columns"] = tuple(fields.get("landmark_columns") or ())
    fields.update(arrays)
    return FittedModel(**fields)


def _verify(
    document: dict[str, Any], arrays: dict[str, np.ndarray], json_path: str
) -> dict[str, Any]:
    errors: list[str] = []
    manifest = document.get("arrays") or {}
    for name in sorted(set(manifest) | set(arrays)):
        if name not in arrays:
            errors.append(f"array {name!r} listed in metadata but missing from npz")
            continue
        if name not in manifest:
            errors.append(f"array {name!r} present in npz but not in metadata")
            continue
        digest = array_digest(arrays[name])
        if digest != manifest[name].get("sha256"):
            errors.append(f"array {name!r} digest mismatch")
    metadata = document.get("metadata") or {}
    recomputed = content_hash(metadata, arrays)
    recorded = document.get("content_hash")
    if recomputed != recorded:
        errors.append(
            f"content hash mismatch (recorded {str(recorded)[:12]}..., "
            f"recomputed {recomputed[:12]}...)"
        )
    stale_numerics = metadata.get("numerics_version") != NUMERICS_VERSION
    return {
        "path": json_path,
        "ok": not errors,
        "errors": errors,
        "content_hash": recorded,
        "recomputed_hash": recomputed,
        "schema": document.get("schema"),
        "numerics_version": metadata.get("numerics_version"),
        "numerics_current": not stale_numerics,
    }


def verify_model(path: str) -> dict[str, Any]:
    """Recompute every digest of a stored artifact and report.

    Returns ``{"ok", "errors", "content_hash", "recomputed_hash",
    "schema", "numerics_version", "numerics_current", "path"}``.
    Unlike :func:`load_model` this never raises on a digest mismatch -
    it is the inspection tool - but unreadable files still raise
    :class:`~repro.exceptions.ValidationError`.
    """
    json_path, npz_path = artifact_paths(path)
    document = _read_document(json_path)
    arrays = _read_arrays(npz_path)
    return _verify(document, arrays, json_path)
