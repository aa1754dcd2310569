"""repro.obs: the unified tracing + metrics layer.

One observability subsystem instead of three ad-hoc mechanisms
(engine wall-time lists, runner cache counters, ``timing`` stopwatches):

- :mod:`repro.obs.trace` - :class:`Tracer` with nested, attributed
  spans over one monotonic clock; a no-op-cheap :class:`NullTracer` is
  ambient by default, so instrumented hot paths cost two
  ``perf_counter`` calls per span when tracing is off;
- :mod:`repro.obs.metrics` - counters / gauges / histograms in a
  :class:`MetricsRegistry`, plus the opt-in :func:`profiled` memory
  hook (``tracemalloc`` / peak RSS);
- :mod:`repro.obs.sink` - the JSONL event sink (atomic writes), the
  in-memory sink workers ship spans through, and the summary / Chrome
  ``trace_event`` exporters;
- :mod:`repro.obs.analyze` + ``python -m repro.obs report`` - span
  tree reconstruction, self-time accounting, coverage, and the text
  flamegraph CLI;
- :mod:`repro.obs.live` - the operational half: a schema-versioned
  structured :class:`EventLog` (append-only JSONL, live-tailable),
  Prometheus text exposition (``python -m repro.obs expose``),
  per-request trace :class:`Sampler` for the fold-in server, a stdlib
  ``/metrics`` scrape endpoint, and the ``slo`` gate that holds a
  recorded serving run to committed latency/error/stall budgets.

Producers: :class:`repro.engine.IterativeEngine` (``fit`` /
``iteration`` / ``evaluate`` spans, feeding ``Telemetry`` from the same
clock), the factorization kernels (``kernel:<rule>``), every
:class:`repro.baselines.base.Imputer` (``fit_impute`` spans), and
:func:`repro.runner.execute.run_grid` (``run:<experiment>`` / ``cell``
spans merged across worker processes).  Enable with ``--trace <path>``
on the ``repro.experiments`` and ``repro.bench sweep`` CLIs, or
programmatically via :func:`trace_to` / :func:`use_tracer`.
"""

from .live import (
    EVENT_SCHEMA_VERSION,
    AppendJsonlSink,
    EventLog,
    EventSink,
    MetricsServer,
    NULL_EVENT_LOG,
    NullEventLog,
    RingBufferSink,
    Sampler,
    evaluate_slo,
    event_log_to,
    get_event_log,
    next_request_id,
    parse_exposition,
    read_event_log,
    render_prometheus,
    serving_stats_from_events,
    set_event_log,
    use_event_log,
)
from .analyze import (
    SpanNode,
    aggregate_spans,
    build_tree,
    coverage,
    render_top,
    render_tree,
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
from .sink import (
    JsonlSink,
    MemorySink,
    Sink,
    read_events,
    to_chrome_trace,
    write_chrome_trace,
    write_summary,
)
from .trace import (
    NULL_TRACER,
    NullSpan,
    NullTracer,
    Span,
    Tracer,
    collecting_tracer,
    get_tracer,
    set_tracer,
    trace_to,
    traced,
    use_tracer,
)

__all__ = [
    "AppendJsonlSink",
    "Counter",
    "EVENT_SCHEMA_VERSION",
    "EventLog",
    "EventSink",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsServer",
    "NULL_EVENT_LOG",
    "NullEventLog",
    "RingBufferSink",
    "Sampler",
    "MemorySink",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullSpan",
    "NullTracer",
    "QuantileHistogram",
    "Sink",
    "Span",
    "SpanNode",
    "Tracer",
    "aggregate_spans",
    "build_tree",
    "collecting_tracer",
    "coverage",
    "evaluate_slo",
    "event_log_to",
    "get_event_log",
    "get_metrics",
    "get_tracer",
    "next_request_id",
    "parse_exposition",
    "profiled",
    "read_event_log",
    "read_events",
    "render_prometheus",
    "render_top",
    "render_tree",
    "reset_metrics",
    "serving_stats_from_events",
    "set_event_log",
    "set_tracer",
    "to_chrome_trace",
    "trace_to",
    "traced",
    "use_event_log",
    "use_tracer",
    "write_chrome_trace",
    "write_summary",
]
