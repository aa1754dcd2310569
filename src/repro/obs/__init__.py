"""repro.obs: one telemetry stream, its metrics and its readers.

- :mod:`repro.obs.stream` - the record stream: one envelope for spans,
  events, metrics snapshots and run metadata; one :class:`Sink`
  protocol with three sinks (append-only JSONL, ring buffer, memory);
  one truncation-tolerant reader (:func:`read_records`); the ambient
  :class:`Recorder` (:func:`get_recorder` / :func:`set_recorder` /
  :func:`use_recorder`, :func:`record_to` for a file) and
  :func:`observe`, the lifecycle context manager instrumented code
  uses, plus the per-request :class:`Sampler`;
- :mod:`repro.obs.metrics` - counters / gauges / histograms in a
  :class:`MetricsRegistry` (:func:`get_metrics` is the ambient one),
  the label escaper, and the opt-in :func:`profiled` memory hook;
- readers of the stream: :mod:`repro.obs.analyze` (span tree, self
  time, coverage, Chrome export), :mod:`repro.obs.prometheus` (text
  exposition and its strict parser), :mod:`repro.obs.slo` (serving
  budgets), :mod:`repro.obs.serve` (a stdlib ``/metrics`` endpoint)
  and the ``python -m repro.obs`` CLI (``report``, ``summary``,
  ``chrome``, ``expose``, ``slo``, ``report --tail``).

Producers: the two iteration loops, :class:`repro.engine.IterativeEngine`
and :func:`repro.engine.batched.multi_fit` (``fit`` / ``iteration`` /
``evaluate`` spans; each iteration span's duration is the step's wall
time in the fit's report), every
:class:`repro.baselines.base.Imputer` (``fit_impute``),
:func:`repro.runner.run_grid` (``run`` / ``cell``, merged across worker
processes), :class:`repro.serving.FoldInServer` (``serving.request``),
the spatial graph cache (``spatial.graph``) and the out-of-core fits
(``oocore.fit`` / ``oocore.epoch``).  Enable with ``--trace <path>`` on
the ``repro.experiments`` and ``repro.bench sweep`` CLIs, or with
:func:`record_to` / :func:`use_recorder`.
"""

from .analyze import (
    SpanNode,
    aggregate_spans,
    build_tree,
    coverage,
    render_top,
    render_tree,
    to_chrome_trace,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QuantileHistogram,
    get_metrics,
    profiled,
    reset_metrics,
)
from .prometheus import parse_exposition, render_prometheus
from .serve import MetricsServer
from .slo import evaluate_slo, serving_stats_from_events
from .stream import (
    NULL_RECORDER,
    SCHEMA_VERSION,
    JsonlSink,
    MemorySink,
    NullRecorder,
    NullSpan,
    Recorder,
    RingBufferSink,
    Sampler,
    Sink,
    Span,
    get_recorder,
    next_request_id,
    observe,
    read_records,
    record_to,
    set_recorder,
    traced,
    use_recorder,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "MetricsServer",
    "NULL_RECORDER",
    "NullRecorder",
    "NullSpan",
    "QuantileHistogram",
    "Recorder",
    "RingBufferSink",
    "SCHEMA_VERSION",
    "Sampler",
    "Sink",
    "Span",
    "SpanNode",
    "aggregate_spans",
    "build_tree",
    "coverage",
    "evaluate_slo",
    "get_metrics",
    "get_recorder",
    "next_request_id",
    "observe",
    "parse_exposition",
    "profiled",
    "read_records",
    "record_to",
    "render_prometheus",
    "render_top",
    "render_tree",
    "reset_metrics",
    "serving_stats_from_events",
    "set_recorder",
    "to_chrome_trace",
    "traced",
    "use_recorder",
]
