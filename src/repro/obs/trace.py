"""Nested spans over one monotonic clock: the repo's single timing source.

A :class:`Tracer` hands out :class:`Span` context managers.  Spans nest
through a per-thread stack (``fit`` -> ``iteration`` ->
``kernel:multiplicative``), carry free-form attributes, and time
themselves with ``time.perf_counter``.  Closing a span emits one JSON
-ready event into the tracer's sink; :mod:`repro.obs.analyze` rebuilds
the tree from the ``span_id``/``parent_id`` links.

Two design rules keep the layer zero-cost where it matters:

- **One clock.**  A span measures its own duration and exposes it as
  ``Span.duration``, so instrumented code (the engine loop,
  :func:`repro.runner.cells.timed_fit_impute`) reads the span instead
  of keeping a second ``perf_counter`` pair.  Telemetry and traces can
  never disagree about how long a step took.
- **Null by default.**  The ambient tracer is :data:`NULL_TRACER`
  unless something activates a real one (the CLIs' ``--trace`` flag,
  :func:`trace_to`, :func:`use_tracer`).  A :class:`NullTracer` span
  still measures its duration - callers rely on it - but touches no
  stack, allocates no attributes, and emits nothing, so disabled-mode
  overhead is two ``perf_counter`` calls per span (the same cost the
  hand-rolled stopwatches had).

Cross-process traces: every event records ``pid`` and timestamps on a
shared wall-clock anchor (``time.time`` at tracer creation minus the
monotonic reading), so spans collected in runner workers merge into the
parent's timeline.  Worker tracers write to a :class:`MemorySink` and
the parent re-emits their events - see
:func:`repro.runner.execute.run_grid`.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

from .sink import MemorySink, Sink

__all__ = [
    "Span",
    "NullSpan",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "trace_to",
    "collecting_tracer",
    "traced",
]


class Span:
    """One timed, attributed interval; a reentrant-unsafe context manager.

    Created by :meth:`Tracer.span`, never directly.  After ``__exit__``
    the span is closed: ``duration`` is final and the event has been
    emitted.  ``set_attr`` before closing adds attributes (the engine
    stamps the objective onto evaluation spans this way).
    """

    __slots__ = (
        "name", "attrs", "span_id", "parent_id",
        "start", "end", "duration", "_tracer", "_t0",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: str,
        parent_id: str | None,
        attrs: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0
        self.duration = 0.0
        self._t0 = 0.0

    def set_attr(self, key: str, value: Any) -> None:
        """Attach one attribute; values must be JSON-serialisable."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self._t0 = time.perf_counter()
        self.start = self._tracer.anchor + self._t0
        return self

    def __exit__(self, *exc_info: object) -> None:
        t1 = time.perf_counter()
        self.duration = t1 - self._t0
        self.end = self._tracer.anchor + t1
        self._tracer._pop(self)
        self._tracer._emit_span(self)


class NullSpan:
    """The disabled-mode span: measures duration, records nothing else.

    Instrumented code reads ``duration`` whether tracing is on or off,
    so the null span still runs the two ``perf_counter`` calls - that
    is the whole overhead of disabled tracing.
    """

    __slots__ = ("duration", "_t0")

    def __init__(self) -> None:
        self.duration = 0.0
        self._t0 = 0.0

    def set_attr(self, key: str, value: Any) -> None:
        """Dropped: the null span keeps no attributes."""

    def __enter__(self) -> "NullSpan":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.duration = time.perf_counter() - self._t0


_span_ids = itertools.count(1)
"""Process-wide id counter.  Module-level on purpose: a process may
create many tracers (runner workers build one per cell), and per-tracer
counters would reuse ids within one pid - merged traces would then
alias unrelated spans.  ``pid + process-wide counter`` is unique across
every tracer and every (forked) worker."""


class Tracer:
    """Emits nested spans into a :class:`~repro.obs.sink.Sink`.

    Span nesting is tracked per thread (a ``threading.local`` stack);
    span ids embed the pid plus the process-wide counter so events from
    runner worker processes never collide when merged into one file.
    """

    enabled = True

    def __init__(self, sink: Sink, *, meta: dict[str, Any] | None = None) -> None:
        self.sink = sink
        # Wall-clock anchor: perf_counter readings become comparable
        # across processes (span.start = anchor + perf_counter()).
        self.anchor = time.time() - time.perf_counter()
        self._local = threading.local()
        if meta:
            self.sink.emit({"type": "meta", "pid": os.getpid(), **meta})

    # ------------------------------------------------------------- spans

    def span(self, name: str, **attrs: Any) -> Span:
        """A new span, parented under the calling thread's open span."""
        span_id = f"{os.getpid()}-{next(_span_ids)}"
        return Span(self, name, span_id, self.current_span_id(), attrs)

    def current_span_id(self) -> str | None:
        """Id of the calling thread's innermost open span, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1].span_id if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span.parent_id = stack[-1].span_id if stack else span.parent_id
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # pragma: no cover - misnested exit
            stack.remove(span)

    def _emit_span(self, span: Span) -> None:
        event: dict[str, Any] = {
            "type": "span",
            "name": span.name,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "start": span.start,
            "end": span.end,
            "duration": span.duration,
            "pid": os.getpid(),
            "thread": threading.get_ident(),
        }
        if span.attrs:
            event["attrs"] = span.attrs
        self.sink.emit(event)

    # ------------------------------------------------------------ events

    def emit(self, event: dict[str, Any]) -> None:
        """Pass one non-span event (metrics snapshot, marker) through."""
        self.sink.emit({"pid": os.getpid(), **event})


class NullTracer:
    """The ambient default: spans time themselves, nothing is recorded."""

    enabled = False
    sink = None

    def span(self, name: str, **attrs: Any) -> NullSpan:
        return NullSpan()

    def current_span_id(self) -> None:
        return None

    def emit(self, event: dict[str, Any]) -> None:
        """Dropped."""


NULL_TRACER = NullTracer()
"""The process-wide disabled tracer (stateless, shared)."""

_active: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The ambient tracer instrumented code should emit spans into."""
    return _active


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install ``tracer`` as the ambient tracer; returns the previous one."""
    global _active
    previous = _active
    _active = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer | NullTracer) -> Iterator[Tracer | NullTracer]:
    """Scope ``tracer`` as the ambient tracer, restoring on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


@contextmanager
def trace_to(path: str, **meta: Any) -> Iterator[Tracer]:
    """Trace the enclosed block into a JSONL file at ``path``.

    The sink buffers events and writes the file atomically on exit
    (temp file + rename), so a crash never leaves a half-written trace
    behind.  ``meta`` lands in the leading ``{"type": "meta"}`` event.
    """
    from .sink import JsonlSink

    sink = JsonlSink(path)
    tracer = Tracer(sink, meta=meta)
    try:
        with use_tracer(tracer):
            yield tracer
    finally:
        sink.close()


def collecting_tracer(**meta: Any) -> Tracer:
    """A tracer buffering events in memory (runner workers use this)."""
    return Tracer(MemorySink(), meta=meta or None)


def traced(name: str | None = None) -> Any:
    """Span-decorate a method: one line of instrumentation per entry point.

    The span is named ``<name or function name>`` and tagged with the
    receiver's ``name``/``method`` identifier when it has one - e.g.
    decorating :meth:`repro.baselines.base.Imputer.fit_impute` yields
    ``fit_impute`` spans tagged ``method="knn"`` per baseline.  With
    the null tracer active the wrapper costs one extra frame and two
    ``perf_counter`` calls.
    """
    import functools

    def decorate(func: Any) -> Any:
        label = name or func.__name__

        @functools.wraps(func)
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            tracer = get_tracer()
            if not tracer.enabled:
                return func(self, *args, **kwargs)
            method = getattr(self, "name", None) or getattr(self, "method", "")
            with tracer.span(label, method=str(method)):
                return func(self, *args, **kwargs)

        return wrapper

    return decorate
