"""The batched fold-in server: requests in, imputed rows + telemetry out.

:class:`FoldInServer` wraps one frozen :class:`~repro.model.FittedModel`
(typically loaded from an artifact) and serves imputation requests:

- arbitrary request sizes are **chunked** into ``batch_size`` slabs so
  the batched gemms of :func:`repro.serving.fold_in` stay cache-sized
  and scratch memory is bounded;
- one :class:`~repro.engine.workspace.BufferArena` lives for the
  server's lifetime, so steady-state batches allocate no scratch;
- every request feeds the metrics registry: an imputation counter, a
  rows-per-request histogram, an in-flight gauge, and request-latency
  quantile histograms whose p50/p99 the serving benchmark records;
- with a recorder installed each request runs under
  ``observe("serving.request")``: ``serving.request_start`` /
  ``_done`` / ``_error`` events carrying a process-unique request id,
  and a ``serving.request`` span.  An optional
  :class:`~repro.obs.Sampler` downsamples the span and the latency
  exemplar, never the events, so errors are always recorded.

The server is intentionally synchronous - the paper's serving story is
about the *math* being O(M K^2) per row, not about I/O plumbing - but
the metrics names are stable so any transport wrapped around it reports
identically.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Any

import numpy as np

from ..engine.workspace import BufferArena
from ..exceptions import ValidationError
from ..model.fitted import FittedModel
from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.stream import Sampler, get_recorder, next_request_id
from .foldin import DEFAULT_RIDGE, FoldInResult, fold_in

__all__ = ["DEFAULT_BATCH_SIZE", "FoldInServer"]

DEFAULT_BATCH_SIZE = 256
"""Rows per internal batch: large enough to amortise the gemm setup,
small enough that the ``(B, K, K)`` Gram slab stays cache-friendly."""

#: Metric names the server populates (all under this prefix).
METRIC_PREFIX = "serving"

_OBSERVE_REQUEST = f"{METRIC_PREFIX}.request"
_NULL_OBSERVATION = nullcontext()  # reusable/reentrant; no allocation per request


class FoldInServer:
    """Serve batched fold-in imputations from one frozen model.

    Parameters
    ----------
    model:
        A factor-flavour :class:`~repro.model.FittedModel`, or a path
        to a saved artifact (loaded with verification).
    ridge:
        Ridge weight forwarded to :func:`~repro.serving.fold_in`.
    spatial_smoothing:
        Spatial-prior weight forwarded to :func:`~repro.serving.fold_in`
        (``None`` follows the model's default).
    batch_size:
        Internal chunk size for large requests.
    metrics:
        Destination registry (default: the ambient
        :func:`repro.obs.get_metrics` registry).
    sampler:
        Optional per-request :class:`~repro.obs.Sampler`.  When set,
        only sampled requests open a ``serving.request`` span (and
        contribute exemplar request ids to the latency histogram); the
        request events, errors included, are recorded regardless of
        the sampling decision.  ``None`` samples every request.
    """

    def __init__(
        self,
        model: FittedModel | str,
        *,
        ridge: float = DEFAULT_RIDGE,
        spatial_smoothing: float | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        metrics: MetricsRegistry | None = None,
        sampler: Sampler | None = None,
    ) -> None:
        if isinstance(model, str):
            model = FittedModel.load(model)
        if not model.is_factor_model:
            raise ValidationError(
                f"FoldInServer needs a factor model; {model.method!r} "
                "carries only a dense estimate"
            )
        if batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
        self.model = model
        self.ridge = float(ridge)
        self.spatial_smoothing = spatial_smoothing
        self.batch_size = int(batch_size)
        self.metrics = metrics if metrics is not None else get_metrics()
        self.sampler = sampler
        self._arena = BufferArena()
        # Instruments are resolved once: the request path then costs
        # attribute arithmetic, not five lock-guarded registry lookups.
        # Lifetime totals (requests/rows/busy seconds) are read back off
        # the instruments rather than shadow-counted.
        registry = self.metrics
        self._m_requests = registry.counter(f"{METRIC_PREFIX}.requests")
        self._m_imputations = registry.counter(f"{METRIC_PREFIX}.imputations")
        self._m_errors = registry.counter(f"{METRIC_PREFIX}.errors")
        self._m_in_flight = registry.gauge(f"{METRIC_PREFIX}.in_flight")
        self._m_in_flight.set(0)
        self._m_rows = registry.histogram(f"{METRIC_PREFIX}.rows_per_request")
        self._m_request_seconds = registry.quantile_histogram(
            f"{METRIC_PREFIX}.request_seconds"
        )
        self._m_row_seconds = registry.quantile_histogram(
            f"{METRIC_PREFIX}.row_seconds"
        )

    # ------------------------------------------------------------- serving

    def impute_rows(self, x_new: np.ndarray, mask: object = None) -> np.ndarray:
        """Impute a request of new rows; returns the ``(B, M)`` answer.

        Accepts a single ``(M,)`` row (returned 1-D) or a batch.  NaN
        cells are unobserved when ``mask`` is omitted.
        """
        x_arr = np.asarray(x_new, dtype=np.float64)
        if x_arr.ndim == 1:
            return self.fold_in(x_arr, mask).imputed[0]
        return self.fold_in(x_arr, mask).imputed

    def fold_in(self, x_new: np.ndarray, mask: object = None) -> FoldInResult:
        """Full fold-in answer (embeddings + imputed rows) for a request.

        Large requests are chunked into ``batch_size`` slabs; the
        concatenated result is returned as one :class:`FoldInResult`
        (``shared_pattern`` reports whether *every* chunk hit the
        shared-pattern fast path).
        """
        x_arr = np.asarray(x_new, dtype=np.float64)
        if x_arr.ndim == 1:
            x_arr = x_arr[None, :]
            if mask is not None:
                mask_arr = np.asarray(mask)
                if mask_arr.ndim == 1:
                    mask = mask_arr[None, :]
        mask_arr = None if mask is None else np.asarray(mask)

        recorder = get_recorder()
        n_rows = int(x_arr.shape[0])
        sampled = self.sampler.sample() if self.sampler is not None else True
        # A request id is only minted when someone will see it: the
        # recorder, or an exemplar from an explicitly sampled request.
        request_id = (
            next_request_id()
            if (recorder.enabled or (self.sampler is not None and sampled))
            else None
        )
        observation = (
            recorder.observe(
                _OBSERVE_REQUEST,
                sampled=sampled,
                request_id=request_id,
                rows=n_rows,
                method=self.model.method,
            )
            if recorder.enabled
            else _NULL_OBSERVATION
        )
        self._m_in_flight.inc()
        t_start = time.perf_counter()
        try:
            with observation:
                if n_rows <= self.batch_size:
                    # Single-batch fast path: the common serving case
                    # skips the chunk list and concatenation entirely.
                    chunks = [
                        fold_in(
                            self.model,
                            x_arr,
                            mask_arr,
                            ridge=self.ridge,
                            spatial_smoothing=self.spatial_smoothing,
                            arena=self._arena,
                        )
                    ]
                else:
                    chunks = []
                    for lo in range(0, x_arr.shape[0], self.batch_size):
                        hi = lo + self.batch_size
                        chunk_mask = None if mask_arr is None else mask_arr[lo:hi]
                        chunks.append(
                            fold_in(
                                self.model,
                                x_arr[lo:hi],
                                chunk_mask,
                                ridge=self.ridge,
                                spatial_smoothing=self.spatial_smoothing,
                                arena=self._arena,
                            )
                        )
        except Exception:
            self._m_errors.inc()
            raise
        finally:
            self._m_in_flight.dec()
        elapsed = time.perf_counter() - t_start

        result = chunks[0] if len(chunks) == 1 else self._combine(chunks)
        self._record(
            n_rows, elapsed, exemplar=request_id if sampled else None
        )
        return result

    @staticmethod
    def _combine(chunks: list[FoldInResult]) -> FoldInResult:
        if len(chunks) == 1:
            return chunks[0]
        return FoldInResult(
            u_new=np.concatenate([c.u_new for c in chunks], axis=0),
            imputed=np.concatenate([c.imputed for c in chunks], axis=0),
            observed=np.concatenate([c.observed for c in chunks], axis=0),
            shared_pattern=all(c.shared_pattern for c in chunks),
            ridge=chunks[0].ridge,
            nonnegative=chunks[0].nonnegative,
            spatial_smoothing=chunks[0].spatial_smoothing,
        )

    # ------------------------------------------------------------- telemetry

    def _record(
        self, n_rows: int, elapsed: float, exemplar: str | None = None
    ) -> None:
        self._m_requests.inc()
        self._m_imputations.inc(n_rows)
        self._m_rows.observe(n_rows)
        self._m_request_seconds.observe(elapsed, exemplar=exemplar)
        if n_rows:
            self._m_row_seconds.observe(elapsed / n_rows, exemplar=exemplar)

    @property
    def _requests(self) -> int:
        return self._m_requests.value

    @property
    def _rows(self) -> int:
        return self._m_imputations.value

    @property
    def _busy_seconds(self) -> float:
        return self._m_request_seconds.total

    def stats(self) -> dict[str, Any]:
        """Server-lifetime summary: throughput and latency quantiles."""
        latency = self._m_request_seconds
        busy = latency.total
        rows = self._m_imputations.value
        return {
            "method": self.model.method,
            "rank": self.model.rank,
            "n_cols": self.model.n_cols,
            "batch_size": self.batch_size,
            "requests": self._m_requests.value,
            "rows": rows,
            "busy_seconds": busy,
            "imputations_per_second": (
                rows / busy if busy > 0 else None
            ),
            "latency_p50_seconds": latency.quantile(0.50),
            "latency_p99_seconds": latency.quantile(0.99),
        }
