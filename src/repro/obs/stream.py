"""The one telemetry stream: records, sinks, the recorder, ``observe``.

Every record shares one envelope - ``schema`` (:data:`SCHEMA_VERSION`),
``kind``, ``ts`` (wall-clock seconds on the one-clock anchor), ``pid``
and, where there is one, ``span_id`` - and is one of four kinds:

- ``span``: a timed interval written when it closes (``name``, ``ts`` =
  start, ``duration``, its own ``span_id``, ``parent_id``, ``thread``,
  ``attrs``);
- ``event``: a point record (``name``, ``level``, ``attrs``) whose
  ``span_id`` is the span open around it;
- ``metrics``: a :class:`~repro.obs.metrics.MetricsRegistry` snapshot
  (``values``);
- ``meta``: run metadata (``attrs``) at the head of a recording.

A :class:`Recorder` writes records, under one lock, into the three
sinks: :class:`JsonlSink` (``O_APPEND``, one whole-line ``os.write``
per record, so forked writers interleave whole lines and a crash tears
at most the final line), :class:`RingBufferSink` (the last N records)
and :class:`MemorySink` (everything; how runner workers ship records
home).  :func:`read_records` is the one reader.

Instrumented code reaches the ambient recorder through
:func:`get_recorder` (:func:`set_recorder` / :func:`use_recorder` scope
it, :func:`record_to` records a block to a file) and has two entry
points: :meth:`Recorder.span`, the timing primitive of inner loops
(``iteration``, ``evaluate``), and :func:`observe`,
the lifecycle form of every operation boundary (a fit, a grid run or
cell, a fold-in request, an out-of-core epoch).  ``observe`` opens a
span unless a :class:`Sampler` said no, writes ``<name>_start`` and
``<name>_done`` events, and on an exception writes ``<name>_error`` at
level ``error`` whatever the sampler decided.

The default :data:`NULL_RECORDER` records nothing; its spans are
:class:`NullSpan`, two ``perf_counter`` calls whose ``duration`` the
iteration loops still read for their wall times.

**Existing files.** :class:`JsonlSink` never truncates a record: a
recording to a path that holds records appends after them (each
recording starts with its ``meta`` record when it has metadata), so a
crashed run's records survive a retry.  Only a crashed writer's torn
final line, which no reader returns, is cut off before the first
append.  Remove the file to start clean.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "SCHEMA_VERSION",
    "Sink",
    "JsonlSink",
    "RingBufferSink",
    "MemorySink",
    "read_records",
    "Span",
    "NullSpan",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "get_recorder",
    "set_recorder",
    "use_recorder",
    "record_to",
    "collect",
    "observe",
    "traced",
    "next_request_id",
    "Sampler",
]

SCHEMA_VERSION = 2
"""Generation of the record envelope.  Version 1 was two streams (trace
``type`` records and event-log ``event`` records); consumers key on
``kind`` and ``name`` since version 2."""

LEVELS = ("debug", "info", "warning", "error")
"""Legal event ``level`` values, in severity order."""


# ------------------------------------------------------------------ sinks


class Sink:
    """Interface: anything with ``emit(record)`` (and optional ``close``)."""

    def emit(self, record: dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; emitting afterwards is an error."""


class JsonlSink(Sink):
    """Append one JSON line per record to ``path`` as it is emitted.

    The file is opened ``O_APPEND`` (created if missing, never
    truncated) and each record lands as a single ``os.write``, so
    concurrent writers - server threads, forked workers that inherit
    the descriptor - interleave whole lines.  A torn final line left by
    a crashed writer is cut off first; appended to, it would swallow
    the next record.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fd: int | None = os.open(
            self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
        )
        size = end = os.fstat(self._fd).st_size
        while end:
            start = max(end - 65536, 0)
            cut = os.pread(self._fd, end - start, start).rfind(b"\n")
            if cut >= 0:
                end = start + cut + 1
                break
            end = start
        if end < size:
            os.ftruncate(self._fd, end)

    def emit(self, record: dict[str, Any]) -> None:
        if self._fd is None:
            raise ValueError(f"sink for {self.path!r} is closed")
        os.write(self._fd, (json.dumps(record, sort_keys=True) + "\n").encode())

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


class RingBufferSink(Sink):
    """Keep the most recent ``maxlen`` records in memory."""

    def __init__(self, maxlen: int = 1024) -> None:
        self.records: deque[dict[str, Any]] = deque(maxlen=int(maxlen))

    def emit(self, record: dict[str, Any]) -> None:
        self.records.append(record)

    def tail(self, n: int | None = None) -> list[dict[str, Any]]:
        """The last ``n`` records (all buffered records when ``None``)."""
        records = list(self.records)
        return records if n is None else records[-int(n):]


class MemorySink(Sink):
    """Keep every record in a list (runner workers, tests)."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def emit(self, record: dict[str, Any]) -> None:
        self.records.append(record)


def read_records(
    path: str, *, tolerate_truncation: bool = True
) -> list[dict[str, Any]]:
    """Load a JSONL record file, tolerating a torn final line.

    :class:`JsonlSink` writes whole lines, so the only legal damage is a
    truncated *final* line (the writer died mid-``write``).  With
    ``tolerate_truncation`` that line is dropped; damage anywhere else,
    or a torn final line with tolerance off, raises :class:`ValueError`
    naming the line.  Blank lines are skipped.
    """
    with open(path, encoding="utf-8") as handle:
        lines = [
            (number, line.strip())
            for number, line in enumerate(handle, 1)
            if line.strip()
        ]
    records: list[dict[str, Any]] = []
    for position, (number, line) in enumerate(lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if tolerate_truncation and position == len(lines) - 1:
                break
            raise ValueError(
                f"{path}: invalid JSONL at line {number}: {exc}"
            ) from exc
    return records


# ------------------------------------------------------------------ spans


class Span:
    """One timed interval of a live :class:`Recorder`.

    Made by :meth:`Recorder.span` (``trace`` only) or
    :meth:`Recorder.observe` (lifecycle events too, and ``trace`` as
    the sampler decided).  ``duration`` is final after ``__exit__``;
    ``set_attr`` before then adds attributes to the span record and to
    the ``_done``/``_error`` event.
    """

    __slots__ = (
        "name", "attrs", "span_id", "parent_id", "ts", "duration",
        "_recorder", "_t0", "_log", "_trace",
    )

    def __init__(self, recorder: "Recorder", name: str, attrs: dict[str, Any],
                 *, log: bool, trace: bool) -> None:
        self._recorder = recorder
        self.name = name
        self.attrs = attrs
        self._log = log
        self._trace = trace
        self.span_id: str | None = None
        self.parent_id: str | None = None
        self.ts = self.duration = self._t0 = 0.0

    def set_attr(self, key: str, value: Any) -> None:
        """Attach one attribute; values must be JSON-serialisable."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        recorder = self._recorder
        if self._log:
            recorder.event(f"{self.name}_start", **self.attrs)
        if self._trace:
            recorder._push(self)
        self._t0 = time.perf_counter()
        self.ts = recorder.anchor + self._t0
        return self

    def __exit__(self, exc_type: Any, exc: BaseException | None, tb: Any) -> None:
        self.duration = time.perf_counter() - self._t0
        recorder = self._recorder
        if self._trace:
            recorder._pop(self)
            record: dict[str, Any] = {
                "schema": SCHEMA_VERSION, "kind": "span", "name": self.name,
                "ts": self.ts, "duration": self.duration,
                "span_id": self.span_id, "parent_id": self.parent_id,
                "pid": os.getpid(), "thread": threading.get_ident(),
            }
            if self.attrs:
                record["attrs"] = self.attrs
            recorder.emit(record)
        if not self._log:
            return
        if exc is None:
            recorder.event(f"{self.name}_done", seconds=self.duration, **self.attrs)
        else:
            recorder.event(
                f"{self.name}_error", level="error", seconds=self.duration,
                error=type(exc).__name__, detail=str(exc), **self.attrs,
            )


class NullSpan:
    """The disabled-mode span: measures its duration, records nothing.

    Instrumented code reads ``duration`` whether recording is on or
    off, so the null span still runs the two ``perf_counter`` calls -
    the whole cost of disabled telemetry.
    """

    __slots__ = ("duration", "_t0")

    def __init__(self) -> None:
        self.duration = self._t0 = 0.0

    def set_attr(self, key: str, value: Any) -> None:
        """Dropped."""

    def __enter__(self) -> "NullSpan":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.duration = time.perf_counter() - self._t0


_span_ids = itertools.count(1)
"""Process-wide id counter.  Module-level on purpose: a process makes
many recorders (runner workers build one per cell), and per-recorder
counters would reuse ids within one pid, aliasing spans once merged.
``pid`` plus this counter is unique across recorders and forked
workers."""


# --------------------------------------------------------------- recorders


class Recorder:
    """Writes records into its sinks, under one lock.

    Span nesting is tracked per thread; events link to the calling
    thread's open span.  ``anchor`` (``time.time() - perf_counter()``,
    taken once) puts every ``ts`` on a wall clock that records from
    other processes share.  ``emitted`` counts the records written.
    """

    enabled = True

    def __init__(self, *sinks: Sink, meta: dict[str, Any] | None = None) -> None:
        self.sinks: tuple[Sink, ...] = tuple(sinks)
        self.anchor = time.time() - time.perf_counter()
        self.emitted = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        if meta:
            self.emit(self._record("meta", attrs=dict(meta)))

    def emit(self, record: dict[str, Any]) -> None:
        """Write one finished record (a worker's, re-emitted) to every sink."""
        with self._lock:
            self.emitted += 1
            for sink in self.sinks:
                sink.emit(record)

    def _record(self, kind: str, **fields: Any) -> dict[str, Any]:
        record: dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "ts": self.anchor + time.perf_counter(),
            "pid": os.getpid(),
        }
        span_id = self.current_span_id()
        if span_id is not None:
            record["span_id"] = span_id
        record.update(fields)
        return record

    def span(self, name: str, **attrs: Any) -> Span:
        """A span parented under the calling thread's open span."""
        return Span(self, name, attrs, log=False, trace=True)

    def observe(self, name: str, *, sampled: bool | None = None, **attrs: Any) -> Span:
        """A lifecycle observation: start/done/error events plus a span.

        ``sampled=False`` (a :class:`Sampler`'s verdict) skips the span
        but keeps the events; any ``sampled`` verdict is recorded as an
        attribute.
        """
        if sampled is not None:
            attrs["sampled"] = sampled
        return Span(self, name, attrs, log=True, trace=sampled is not False)

    def event(self, name: str, *, level: str = "info", **attrs: Any) -> dict[str, Any]:
        """Write one ``event`` record; returns it."""
        if level not in LEVELS:
            raise ValueError(f"unknown event level {level!r}; known: {LEVELS}")
        record = self._record("event", name=str(name), level=level)
        if attrs:
            record["attrs"] = attrs
        self.emit(record)
        return record

    def metrics(self, registry: Any = None) -> dict[str, Any]:
        """Write a ``metrics`` record: a snapshot of ``registry``
        (default: the ambient one).  ``expose`` renders the last one."""
        if registry is None:
            from .metrics import get_metrics

            registry = get_metrics()
        record = self._record("metrics", values=registry.snapshot())
        self.emit(record)
        return record

    def current_span_id(self) -> str | None:
        """Id of the calling thread's innermost open span, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1].span_id if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span.span_id = f"{os.getpid()}-{next(_span_ids)}"
        span.parent_id = stack[-1].span_id if stack else None
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._local.stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - misnested exit
            stack.remove(span)

    def close(self) -> None:
        with self._lock:
            for sink in self.sinks:
                sink.close()


class NullRecorder:
    """The ambient default: spans time themselves, nothing is recorded."""

    enabled = False
    sinks: tuple[Sink, ...] = ()

    def span(self, name: str, **attrs: Any) -> NullSpan:
        return NullSpan()

    def observe(self, name: str, *, sampled: bool | None = None, **attrs: Any) -> NullSpan:
        return NullSpan()

    def event(self, name: str, *, level: str = "info", **attrs: Any) -> None:
        """Dropped."""

    def metrics(self, registry: Any = None) -> None:
        """Dropped."""

    def emit(self, record: dict[str, Any]) -> None:
        """Dropped."""

    def current_span_id(self) -> None:
        return None

    def close(self) -> None:
        """Nothing to release."""


NULL_RECORDER = NullRecorder()
"""The process-wide disabled recorder (stateless, shared)."""

_active: Recorder | NullRecorder = NULL_RECORDER


def get_recorder() -> Recorder | NullRecorder:
    """The ambient recorder instrumented code writes into."""
    return _active


def set_recorder(recorder: Recorder | NullRecorder) -> Recorder | NullRecorder:
    """Install ``recorder`` as the ambient one; returns the previous one."""
    global _active
    previous = _active
    _active = recorder
    return previous


@contextmanager
def use_recorder(
    recorder: Recorder | NullRecorder,
) -> Iterator[Recorder | NullRecorder]:
    """Scope ``recorder`` as the ambient one, restoring on exit."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


@contextmanager
def record_to(path: str, **meta: Any) -> Iterator[Recorder]:
    """Record the enclosed block to the JSONL file at ``path``.

    Records are appended as they happen (see the module docstring for
    what happens to an existing file); ``meta``, when given, lands in a
    leading ``meta`` record.
    """
    recorder = Recorder(JsonlSink(path), meta=meta or None)
    try:
        with use_recorder(recorder):
            yield recorder
    finally:
        recorder.close()


def collect(run: Any, *args: Any) -> tuple[Any, list[dict[str, Any]]]:
    """Run ``run(*args)`` under a fresh in-memory recorder.

    Returns ``(result, records)``: how a worker process ships its
    records back for the parent to :meth:`~Recorder.emit`.
    """
    sink = MemorySink()
    with use_recorder(Recorder(sink)):
        result = run(*args)
    return result, sink.records


def observe(name: str, *, sampled: bool | None = None, **attrs: Any) -> Span | NullSpan:
    """:meth:`Recorder.observe` on the ambient recorder."""
    return _active.observe(name, sampled=sampled, **attrs)


def traced(name: str | None = None) -> Any:
    """Span-decorate a method, tagged with the receiver's ``name`` or
    ``method`` (``fit_impute`` spans tagged ``method="knn"``).  With
    recording off the wrapper costs one frame and one attribute read.
    """

    def decorate(func: Any) -> Any:
        label = name or func.__name__

        @functools.wraps(func)
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            recorder = _active
            if not recorder.enabled:
                return func(self, *args, **kwargs)
            method = getattr(self, "name", None) or getattr(self, "method", "")
            with recorder.span(label, method=str(method)):
                return func(self, *args, **kwargs)

        return wrapper

    return decorate


_request_ids = itertools.count(1)


def next_request_id() -> str:
    """A process-unique request id (``req-<pid>-<n>``)."""
    return f"req-{os.getpid()}-{next(_request_ids)}"


class Sampler:
    """Per-request head sampling with reproducible seeding.

    Each request is kept with probability ``rate`` (a seeded
    ``random.Random``).  The verdict gates only a request's span and
    its latency exemplar: :func:`observe` writes the request's events,
    errors included, whatever the sampler decided.
    """

    def __init__(self, rate: float, *, seed: int = 0) -> None:
        rate = float(rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {rate}")
        self.rate = rate
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.decisions = 0
        self.sampled = 0

    def sample(self) -> bool:
        """Decide one request; counts both outcomes."""
        with self._lock:
            self.decisions += 1
            keep = self.rate >= 1.0 or (
                self.rate > 0.0 and self._rng.random() < self.rate
            )
            self.sampled += keep
            return keep

    def stats(self) -> dict[str, Any]:
        """Decision counts and the effective (empirical) rate."""
        with self._lock:
            return {
                "rate": self.rate,
                "decisions": self.decisions,
                "sampled": self.sampled,
                "effective_rate": (
                    self.sampled / self.decisions if self.decisions else None
                ),
            }
