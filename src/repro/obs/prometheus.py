"""Prometheus text exposition (format 0.0.4): render and strictly parse.

:func:`render_prometheus` turns a :class:`~repro.obs.metrics.
MetricsRegistry` — or a JSON snapshot of one, as carried by a
``metrics`` record or a run manifest — into the Prometheus text format:

- names are mangled ``serving.request_seconds`` ->
  ``repro_serving_request_seconds`` (the ``repro_`` namespace prefix
  keeps the repo's metrics from colliding with anything else a scrape
  target exposes);
- counters render as ``<name>_total`` counter samples;
- gauges render as gauge samples (unset gauges are skipped);
- plain histograms render as a summary's ``_count``/``_sum`` pair
  (they carry moments, not quantiles);
- quantile histograms render as a full summary: ``{quantile="0.5"}`` /
  ``0.9`` / ``0.99`` samples plus ``_count``/``_sum``;
- series are written as the registry's flat keys
  (:func:`~repro.obs.metrics.flat_metric_key`), so label values are
  escaped per the spec by the one escaper,
  :func:`~repro.obs.metrics.escape_label_value`.

:func:`parse_exposition` is the strict validator the tests and
``expose --check`` run over every rendered document: name/label
grammar, ``# TYPE`` declared before (and at most once for) each
family, samples consistent with their family's declared type, no
duplicate series.  Rendering and immediately parsing is the
self-check that keeps "it scraped fine on my machine" out of CI.
"""

from __future__ import annotations

import math
import re
from typing import Any, Iterable

from .metrics import flat_metric_key

__all__ = [
    "render_prometheus",
    "snapshot_series",
    "parse_exposition",
    "metric_name",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_PREFIX = "repro_"

_QUANTILES = ((0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"))


def metric_name(family: str) -> str:
    """Mangled exposition name for a registry family."""
    mangled = _PREFIX + re.sub(r"[^a-zA-Z0-9_:]", "_", str(family))
    if not _NAME_RE.match(mangled):  # pragma: no cover - prefix guarantees it
        raise ValueError(f"cannot express metric family {family!r}")
    return mangled


def _series(name: str, labels: dict[str, str]) -> str:
    for key in labels:
        if not _LABEL_NAME_RE.match(key):
            raise ValueError(f"illegal Prometheus label name {key!r}")
    return flat_metric_key(name, labels)


def _format_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def _parse_flat_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`repro.obs.metrics.flat_metric_key`."""
    if "{" not in key:
        return key, {}
    if not key.endswith("}"):
        raise ValueError(f"malformed metric key {key!r}")
    family, _, inner = key[:-1].partition("{")
    labels: dict[str, str] = {}
    position = 0
    while position < len(inner):
        eq = inner.index("=", position)
        name = inner[position:eq]
        if inner[eq + 1] != '"':
            raise ValueError(f"malformed label value in metric key {key!r}")
        value_chars: list[str] = []
        cursor = eq + 2
        while True:
            char = inner[cursor]
            if char == "\\":
                escaped = inner[cursor + 1]
                value_chars.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(escaped, escaped)
                )
                cursor += 2
            elif char == '"':
                cursor += 1
                break
            else:
                value_chars.append(char)
                cursor += 1
        labels[name] = "".join(value_chars)
        if cursor < len(inner):
            if inner[cursor] != ",":
                raise ValueError(f"malformed metric key {key!r}")
            cursor += 1
        position = cursor
    return family, labels


def snapshot_series(
    snapshot: dict[str, dict[str, Any]],
) -> list[tuple[str, dict[str, str], dict[str, Any]]]:
    """A JSON metrics snapshot as ``(family, labels, entry)`` triples."""
    return [
        (*_parse_flat_key(key), entry)
        for key, entry in sorted(snapshot.items())
    ]


def render_prometheus(source: Any) -> str:
    """Render a registry or a snapshot dict to exposition text.

    ``source`` is either a :class:`~repro.obs.metrics.MetricsRegistry`
    (its live ``series()`` is read) or a ``{flat_key: entry}`` snapshot
    dict.  Raises :class:`ValueError` when two families mangle to the
    same exposition name with different sample sets — the collision a
    scrape would otherwise silently merge.
    """
    if hasattr(source, "series"):
        triples: Iterable[tuple[str, dict[str, str], Any]] = (
            (family, labels, instrument.snapshot())
            for family, labels, instrument in source.series()
        )
    else:
        triples = snapshot_series(source)

    # family -> (prom type, [(sample name, labels, value), ...])
    families: dict[str, tuple[str, list[tuple[str, dict[str, str], float]]]] = {}

    def _family(family: str, kind: str, prom_type: str) -> list:
        name = metric_name(family)
        if kind == "counter":
            name += "_total"
        slot = families.get(name)
        if slot is None:
            slot = families[name] = (prom_type, [])
        elif slot[0] != prom_type:
            raise ValueError(
                f"metric family {name!r} rendered as both {slot[0]} and "
                f"{prom_type}; rename one source family"
            )
        return slot[1]

    for family, labels, entry in triples:
        kind = entry.get("type")
        name = metric_name(family)
        if kind == "counter":
            _family(family, "counter", "counter").append(
                (name + "_total", labels, float(entry["value"]))
            )
        elif kind == "gauge":
            samples = _family(family, "gauge", "gauge")
            if entry.get("value") is not None:
                samples.append((name, labels, float(entry["value"])))
        elif kind == "histogram":
            samples = _family(family, "histogram", "summary")
            samples.append((name + "_count", labels, float(entry["count"])))
            samples.append((name + "_sum", labels, float(entry.get("sum", 0.0))))
        elif kind == "quantile_histogram":
            samples = _family(family, "quantile_histogram", "summary")
            for q, text in _QUANTILES:
                value = entry.get(f"p{int(q * 100)}")
                if value is None:
                    continue
                samples.append(
                    (name, {**labels, "quantile": text}, float(value))
                )
            samples.append((name + "_count", labels, float(entry["count"])))
            samples.append((name + "_sum", labels, float(entry.get("sum", 0.0))))
        else:
            raise ValueError(
                f"metric {family!r} has unknown snapshot type {kind!r}"
            )

    lines: list[str] = []
    seen_series: set[str] = set()
    for name in sorted(families):
        prom_type, samples = families[name]
        lines.append(f"# TYPE {name} {prom_type}")
        for sample_name, labels, value in samples:
            series = _series(sample_name, labels)
            if series in seen_series:
                raise ValueError(
                    f"duplicate exposition series {series!r}; two metric "
                    "families collide after name mangling"
                )
            seen_series.add(series)
            lines.append(f"{series} {_format_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


_VALUE_RE = re.compile(
    r"^(NaN|[+-]Inf|[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)$"
)


def _parse_sample_line(line: str) -> tuple[str, str, dict[str, str], float]:
    """One sample line -> ``(series, name, labels, value)``; strict."""
    match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)", line)
    if not match:
        raise ValueError(f"sample line has no legal metric name: {line!r}")
    name = match.group(1)
    rest = line[len(name):]
    labels: dict[str, str] = {}
    if rest.startswith("{"):
        cursor = 1
        while cursor < len(rest) and rest[cursor] != "}":
            label_match = re.match(
                r"([a-zA-Z_][a-zA-Z0-9_]*)=\"", rest[cursor:]
            )
            if not label_match:
                raise ValueError(f"malformed label pair in: {line!r}")
            label_name = label_match.group(1)
            cursor += label_match.end()
            value_chars: list[str] = []
            while cursor < len(rest):
                char = rest[cursor]
                if char == "\\":
                    if cursor + 1 >= len(rest):
                        raise ValueError(f"dangling escape in: {line!r}")
                    escaped = rest[cursor + 1]
                    if escaped not in ('"', "\\", "n"):
                        raise ValueError(
                            f"illegal escape \\{escaped} in: {line!r}"
                        )
                    value_chars.append("\n" if escaped == "n" else escaped)
                    cursor += 2
                elif char == '"':
                    cursor += 1
                    break
                elif char == "\n":
                    raise ValueError(f"raw newline in label value: {line!r}")
                else:
                    value_chars.append(char)
                    cursor += 1
            else:
                raise ValueError(f"unterminated label value in: {line!r}")
            if label_name in labels:
                raise ValueError(
                    f"duplicate label {label_name!r} in: {line!r}"
                )
            labels[label_name] = "".join(value_chars)
            if cursor < len(rest) and rest[cursor] == ",":
                cursor += 1
        if cursor >= len(rest) or rest[cursor] != "}":
            raise ValueError(f"unterminated label set in: {line!r}")
        rest = rest[cursor + 1:]
    if not rest.startswith(" "):
        raise ValueError(f"missing value separator in: {line!r}")
    value_text = rest[1:]
    if not _VALUE_RE.match(value_text):
        raise ValueError(f"malformed sample value {value_text!r} in: {line!r}")
    return flat_metric_key(name, labels), name, labels, float(value_text)


_SAMPLE_SUFFIXES = {
    "counter": ("",),
    "gauge": ("",),
    "summary": ("", "_count", "_sum"),
    "histogram": ("_bucket", "_count", "_sum"),
    "untyped": ("",),
}


def parse_exposition(text: str) -> dict[str, float]:
    """Strictly parse exposition ``text``; returns ``{series: value}``.

    Raises :class:`ValueError` on the first violation: malformed names
    or label syntax, a sample before (or without) its family's ``#
    TYPE`` line, a repeated ``# TYPE``, a sample name inconsistent with
    the declared type, or a duplicate series.
    """
    types: dict[str, str] = {}
    samples: dict[str, float] = {}
    # The exposition format is delimited by "\n" alone; splitlines()
    # would also split on U+0085/U+2028/... which are legal *inside*
    # label values (only backslash, quote, and newline get escaped).
    for number, raw in enumerate(text.split("\n"), 1):
        line = raw.rstrip()
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    raise ValueError(f"line {number}: malformed TYPE: {line!r}")
                _, _, name, prom_type = parts
                if not _NAME_RE.match(name):
                    raise ValueError(
                        f"line {number}: illegal metric name {name!r}"
                    )
                if prom_type not in _SAMPLE_SUFFIXES:
                    raise ValueError(
                        f"line {number}: unknown metric type {prom_type!r}"
                    )
                if name in types:
                    raise ValueError(
                        f"line {number}: repeated TYPE for {name!r}"
                    )
                if any(
                    sample_name == name or sample_name.startswith(name + "_")
                    for sample_name in _sample_names(samples)
                ):
                    raise ValueError(
                        f"line {number}: TYPE for {name!r} after its samples"
                    )
                types[name] = prom_type
            # HELP and free comments are legal and ignored.
            continue
        try:
            series, name, labels, value = _parse_sample_line(line)
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
        family = _family_of(name, labels, types)
        if family is None:
            raise ValueError(
                f"line {number}: sample {name!r} has no preceding TYPE"
            )
        if series in samples:
            raise ValueError(f"line {number}: duplicate series {series!r}")
        samples[series] = value
    return samples


def _sample_names(samples: dict[str, float]) -> Iterable[str]:
    for series in samples:
        yield series.partition("{")[0]


def _family_of(
    name: str, labels: dict[str, str], types: dict[str, str]
) -> str | None:
    """Which declared family a sample belongs to, or ``None``."""
    candidates = [name]
    for suffix in ("_count", "_sum", "_bucket"):
        if name.endswith(suffix):
            candidates.append(name[: -len(suffix)])
    for candidate in candidates:
        prom_type = types.get(candidate)
        if prom_type is None:
            continue
        suffix = name[len(candidate):]
        if suffix not in _SAMPLE_SUFFIXES[prom_type]:
            continue
        if suffix == "" and prom_type == "summary" and "quantile" not in labels:
            # A bare summary sample must be a quantile.
            continue
        return candidate
    return None
