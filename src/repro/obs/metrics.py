"""Counters, gauges, and histograms: the numeric side of observability.

Spans answer "where did the time go"; metrics answer "how much work
happened" - cache hits, rows touched, objective decrease per second,
peak memory.  A :class:`MetricsRegistry` is a flat name -> instrument
map with a JSON-ready :meth:`~MetricsRegistry.snapshot`; the module
-level registry (:func:`get_metrics`) is the ambient home for
instrumented library code, while subsystems that need per-run numbers
(the experiment runner's manifest) build their own registry.

Profiling hooks are opt-in via :func:`profiled`: wrapping a block
records peak traced allocations (``tracemalloc``) and/or the process's
peak RSS (``resource.getrusage``) as gauges.  Neither is touched unless
asked - ``tracemalloc`` in particular slows allocation-heavy numeric
code, which is exactly why it is a flag and not a default.

Label sets (for the Prometheus exposition in :mod:`repro.obs.prometheus`):
every accessor takes an optional ``labels`` dict, and each distinct
``(name, labels)`` pair is its own instrument.  The family keeps one
kind across all of its label sets (a name cannot be a gauge for
``shard="0"`` and a counter for ``shard="1"``), and
:meth:`MetricsRegistry.snapshot` keys labelled series as
``name{k="v",...}`` — unlabelled instruments keep their bare name, so
every pre-existing snapshot consumer is unaffected.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "QuantileHistogram",
    "MetricsRegistry",
    "escape_label_value",
    "flat_metric_key",
    "get_metrics",
    "reset_metrics",
    "profiled",
]


def escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def flat_metric_key(name: str, labels: dict[str, str] | None = None) -> str:
    """The registry's flat key for ``(name, labels)``.

    Unlabelled series keep the bare name; labelled series render as
    ``name{k="v",...}`` with sorted keys and Prometheus-escaped values,
    so the snapshot key doubles as the exposition series identity.
    """
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{escape_label_value(labels[key])}"' for key in sorted(labels)
    )
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count (cache hits, cells run)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def snapshot(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value (peak RSS, in-flight requests)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add to the gauge (an unset gauge counts as 0)."""
        self.value = (self.value or 0.0) + float(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Subtract from the gauge (an unset gauge counts as 0)."""
        self.value = (self.value or 0.0) - float(amount)

    def snapshot(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming distribution summary (per-iteration seconds, deltas).

    Tracks count/sum/min/max plus the streaming mean and variance
    (Welford), so the snapshot carries moments without storing samples.
    """

    __slots__ = ("count", "total", "min", "max", "_mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._mean = 0.0
        self._m2 = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    def snapshot(self) -> dict[str, Any]:
        if not self.count:
            return {"type": "histogram", "count": 0}
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self._mean,
            "stddev": math.sqrt(self._m2 / self.count),
        }


class QuantileHistogram:
    """Log-bucketed distribution with approximate quantiles (p50/p99).

    The plain :class:`Histogram` stores moments only - enough for means
    and variance, useless for tail latency.  This variant counts
    samples into log-spaced buckets (:data:`PER_DECADE` per decade, so
    every estimate is within ~12% relative error) and reads quantiles
    off the cumulative counts; memory stays O(decades touched), never
    O(samples).  Exact count/sum/min/max are kept alongside, and
    quantile estimates are clamped into ``[min, max]`` so tiny sample
    sets cannot report values outside the data.

    Intended for positive quantities (latencies, sizes); zero and
    negative samples land in a dedicated underflow bucket reported as
    ``min``.

    Buckets optionally carry an **exemplar** — an opaque id (a sampled
    request id) attached via ``observe(value, exemplar=...)``; the last
    one per bucket wins and the snapshot lists them, so a p99 bucket
    links to one concrete request without the histogram storing
    samples.
    """

    __slots__ = (
        "count", "total", "min", "max", "_buckets", "_underflow",
        "_exemplars",
    )

    PER_DECADE = 10

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._buckets: dict[int, int] = {}
        self._underflow = 0
        self._exemplars: dict[int, str] = {}

    def observe(self, value: float, exemplar: str | None = None) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if value <= 0.0:
            self._underflow += 1
            return
        index = math.floor(math.log10(value) * self.PER_DECADE)
        self._buckets[index] = self._buckets.get(index, 0) + 1
        if exemplar is not None:
            self._exemplars[index] = str(exemplar)

    def quantile(self, q: float) -> float | None:
        """Approximate ``q``-quantile (0 <= q <= 1); ``None`` when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile wants q in [0, 1], got {q}")
        if not self.count:
            return None
        rank = max(1, math.ceil(q * self.count))
        cumulative = self._underflow
        if rank <= cumulative:
            return self.min
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if rank <= cumulative:
                # Geometric bucket midpoint, clamped into the observed range.
                estimate = 10.0 ** ((index + 0.5) / self.PER_DECADE)
                return min(max(estimate, self.min), self.max)
        return self.max  # pragma: no cover - cumulative always reaches count

    def snapshot(self) -> dict[str, Any]:
        if not self.count:
            return {"type": "quantile_histogram", "count": 0}
        snapshot = {
            "type": "quantile_histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.total / self.count,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }
        if self._exemplars:
            snapshot["exemplars"] = {
                str(index): exemplar
                for index, exemplar in sorted(self._exemplars.items())
            }
        return snapshot


class MetricsRegistry:
    """Name -> instrument map with get-or-create accessors.

    Thread-safe for creation; instrument mutation itself is plain
    attribute arithmetic (safe under the GIL for the int/float updates
    done here).  Asking for an existing name with a different
    instrument kind raises - one name, one meaning - and the rule
    covers the whole label family: every ``(name, labels)`` series of
    one family shares one kind.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Any] = {}
        self._kinds: dict[str, type] = {}
        self._meta: dict[str, tuple[str, dict[str, str]]] = {}
        self._lock = threading.Lock()

    def _get(
        self, name: str, cls: type, labels: dict[str, str] | None = None
    ) -> Any:
        key = flat_metric_key(name, labels)
        with self._lock:
            kind = self._kinds.get(name)
            if kind is not None and kind is not cls:
                raise ValueError(
                    f"metric {name!r} is a {kind.__name__}, "
                    f"not a {cls.__name__}"
                )
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = self._instruments[key] = cls()
                self._kinds[name] = cls
                self._meta[key] = (name, dict(labels or {}))
            return instrument

    def counter(
        self, name: str, labels: dict[str, str] | None = None
    ) -> Counter:
        return self._get(name, Counter, labels)

    def gauge(self, name: str, labels: dict[str, str] | None = None) -> Gauge:
        return self._get(name, Gauge, labels)

    def histogram(
        self, name: str, labels: dict[str, str] | None = None
    ) -> Histogram:
        return self._get(name, Histogram, labels)

    def quantile_histogram(
        self, name: str, labels: dict[str, str] | None = None
    ) -> QuantileHistogram:
        return self._get(name, QuantileHistogram, labels)

    def series(self) -> list[tuple[str, dict[str, str], Any]]:
        """Every registered series as ``(family, labels, instrument)``.

        Sorted by flat key — the renderer's iteration order, so two
        expositions of the same registry are byte-identical.
        """
        with self._lock:
            return [
                (self._meta[key][0], dict(self._meta[key][1]), instrument)
                for key, instrument in sorted(self._instruments.items())
            ]

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """JSON-ready state of every instrument, flat-key-sorted.

        Unlabelled instruments keep their bare name as the key;
        labelled series use :func:`flat_metric_key`.
        """
        with self._lock:
            items = sorted(self._instruments.items())
        return {name: instrument.snapshot() for name, instrument in items}

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()
            self._kinds.clear()
            self._meta.clear()


_global = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The ambient process-wide registry."""
    return _global


def reset_metrics() -> None:
    """Clear the ambient registry (tests, run boundaries)."""
    _global.reset()


@contextmanager
def profiled(
    registry: MetricsRegistry | None = None,
    *,
    prefix: str = "profile",
    trace_allocations: bool = False,
) -> Iterator[MetricsRegistry]:
    """Opt-in memory profiling around a block.

    Always records the process peak RSS (``resource`` module, kB on
    Linux) as ``<prefix>.peak_rss_kb``; with ``trace_allocations`` also
    runs ``tracemalloc`` and records ``<prefix>.peak_traced_bytes``
    (allocation peak *within the block* - the expensive, precise
    number).  Both degrade gracefully where the modules are missing.
    """
    registry = registry or get_metrics()
    tracing = False
    if trace_allocations:
        try:
            import tracemalloc

            tracemalloc.start()
            tracing = True
        except ImportError:  # pragma: no cover - tracemalloc is stdlib
            pass
    try:
        yield registry
    finally:
        if tracing:
            import tracemalloc

            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            registry.gauge(f"{prefix}.peak_traced_bytes").set(peak)
        try:
            import resource

            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            registry.gauge(f"{prefix}.peak_rss_kb").set(peak_rss)
        except ImportError:  # pragma: no cover - non-POSIX platforms
            pass
