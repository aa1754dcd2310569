"""Content-addressed cache of the spatial similarity/Laplacian build.

The ``N²`` p-NN graph build (Proposition 1's ``N²·L`` term) is a pure
function of the spatial coordinates, the observation mask over them,
``p``, and the neighbour-search options — yet every model fit used to
rebuild it from scratch.  A λ or missing-rate sweep over one dataset
(Figures 6-8) therefore paid the same ``N²`` build once per cell.

This module keeps a small process-local LRU keyed by the SHA-256 of
the exact build inputs (raw coordinate bytes, mask bytes, parameters) —
the same content-addressing discipline as the runner's result cache,
so a hit is *guaranteed* to be the identical matrices.  An entry holds
the sparse graph only (``O(p N)``); dense views are built on demand.
Entries are shared between fits; :class:`repro.core.smf.SMF`
pulls from here, which makes the reuse automatic for every runner cell,
λ value, seed, and SMF/SMFL variant that shares a dataset and ``p``.

Hits and misses are counted on the ambient metrics registry
(``spatial_graph_cache.hits`` / ``.misses``, see :mod:`repro.obs`).
Each lookup runs under ``observe("spatial.graph")``; with a recorder
installed the span carries ``cache_hit`` and the cache's bytes as
:func:`graph_cache_info` reports them.

The graph is one of the fit's *spatial set-up* products: pure functions
of the coordinates and their mask that a grid's cells share.
:class:`SetupMemo` is the LRU each of them is kept in (the K-means
landmarks of :mod:`repro.core.landmarks` are the other), keyed by one
:func:`coordinate_digest` of the inputs plus the product's parameters,
so a fit that needs both hashes its coordinates once.
:func:`clear_graph_cache` empties every such memo.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

from ..obs.metrics import get_metrics
from ..obs.stream import get_recorder
from .similarity import knn_graph, to_dense

T = TypeVar("T")

__all__ = [
    "SetupMemo",
    "SpatialGraph",
    "clear_graph_cache",
    "coordinate_digest",
    "graph_cache_info",
    "spatial_graph",
    "spatial_graph_for",
]

_MAX_ENTRIES = 16
"""LRU capacity: sweeps touch a handful of (dataset, p) combinations."""

_LOCK = threading.Lock()
_VIEW_LOCK = threading.Lock()
"""Serializes dense-view materialization so concurrent first readers
of one entry still share a single array."""
_MEMOS: "list[SetupMemo]" = []
"""Every set-up memo, so :func:`clear_graph_cache` can empty them all."""


class SetupMemo:
    """A bounded LRU of one spatial set-up product, shared between fits.

    Keys are content addresses (a :func:`coordinate_digest` plus the
    product's parameters), so a hit is the product of identical inputs.
    Values must be immutable - frozen, read-only arrays - because every
    hit hands out the same object.  Hits and misses count on the
    ambient metrics registry as ``<counter>.hits`` / ``<counter>.misses``.
    """

    def __init__(self, capacity: int, counter: str) -> None:
        self.capacity = capacity
        self.counter = counter
        self._entries: OrderedDict = OrderedDict()
        _MEMOS.append(self)

    def get(self, key: object, build: Callable[[], T]) -> tuple[T, bool]:
        """The value under ``key``, built and stored on a miss; and whether it hit."""
        with _LOCK:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                get_metrics().counter(f"{self.counter}.hits").inc()
                return value, True
        # Build outside the lock: the build is the expensive part, and a
        # rare duplicate build is cheaper than serializing all fits.
        value = build()
        with _LOCK:
            get_metrics().counter(f"{self.counter}.misses").inc()
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return value, False

    def values(self) -> list:
        with _LOCK:
            return list(self._entries.values())

    def clear(self) -> None:
        with _LOCK:
            self._entries.clear()


_GRAPHS = SetupMemo(_MAX_ENTRIES, "spatial_graph_cache")


@dataclass(frozen=True, eq=False)
class SpatialGraph:
    """One cached graph build, shared between fits.

    ``similarity_op``/``laplacian_op`` are **D** and ``L = W - D`` as
    scipy CSR matrices (the ``O(p N K)`` per-iteration operators; dense
    arrays when scipy is absent), and ``degree`` is the read-only degree
    *vector* (the diagonal of the paper's Formula 4 matrix **W**).

    ``similarity``/``laplacian`` are read-only dense ``N x N`` views,
    built from the CSR on first access and memoized on the entry, so
    every reader gets the same array object.  They are exact: every
    entry is a small integer.  Only dense consumers (the gradient and
    stochastic kernels' Laplacian) should touch them.
    """

    similarity_op: object
    laplacian_op: object
    degree: np.ndarray
    _dense: dict = field(default_factory=dict, repr=False)

    @property
    def similarity(self) -> np.ndarray:
        return self._dense_view("similarity_op")

    @property
    def laplacian(self) -> np.ndarray:
        return self._dense_view("laplacian_op")

    @property
    def sparse_bytes(self) -> int:
        """Bytes of the CSR operators and the degree vector."""
        return (
            _nbytes(self.similarity_op)
            + _nbytes(self.laplacian_op)
            + self.degree.nbytes
        )

    @property
    def dense_bytes(self) -> int:
        """Bytes of the dense views materialized so far (``N²·8`` each)."""
        return sum(view.nbytes for view in list(self._dense.values()))

    def _dense_view(self, name: str) -> np.ndarray:
        with _VIEW_LOCK:
            view = self._dense.get(name)
            if view is None:
                view = to_dense(getattr(self, name))
                view.setflags(write=False)
                self._dense[name] = view
            return view


def _nbytes(op: object) -> int:
    if hasattr(op, "indptr"):
        return op.data.nbytes + op.indices.nbytes + op.indptr.nbytes
    return np.asarray(op).nbytes


def coordinate_digest(spatial: np.ndarray, observed: np.ndarray | None) -> bytes:
    """SHA-256 of the float64 coordinates (shape and raw bytes) and the
    mask bits over them.

    Every spatial set-up product is a pure function of these two (the
    column-mean fill of :func:`~repro.spatial.similarity.
    prepare_spatial_coordinates` included), so the digest plus the
    product's parameters is a sound memo key: a one-ulp change of any
    coordinate, or one flipped mask bit, is another key.
    """
    spatial = np.asarray(spatial, dtype=np.float64)
    h = hashlib.sha256()
    h.update(repr(spatial.shape).encode())
    h.update(spatial.tobytes())
    if observed is None:
        h.update(b"|mask:none")
    else:
        h.update(b"|mask:")
        h.update(np.packbits(observed).tobytes())
    return h.digest()


def _build(
    spatial: np.ndarray,
    p: int,
    observed: np.ndarray | None,
    method: str,
    missing_strategy: str,
) -> SpatialGraph:
    similarity_op, degree, laplacian_op = knn_graph(
        spatial, p, observed=observed, method=method,
        missing_strategy=missing_strategy,
    )
    degree.setflags(write=False)
    return SpatialGraph(
        similarity_op=similarity_op, laplacian_op=laplacian_op, degree=degree
    )


def spatial_graph(
    spatial: np.ndarray,
    p: int,
    *,
    observed: np.ndarray | None = None,
    method: str = "auto",
    missing_strategy: str = "masked",
) -> SpatialGraph:
    """The ``(D, W, L)`` build for these exact inputs, cached.

    Same parameters as
    :func:`repro.spatial.similarity.knn_graph`, which does the building
    on a miss.
    """
    return spatial_graph_for(
        coordinate_digest(spatial, observed), spatial, p, observed=observed,
        method=method, missing_strategy=missing_strategy,
    )


def spatial_graph_for(
    digest: bytes,
    spatial: np.ndarray,
    p: int,
    *,
    observed: np.ndarray | None = None,
    method: str = "auto",
    missing_strategy: str = "masked",
) -> SpatialGraph:
    """:func:`spatial_graph` for inputs whose :func:`coordinate_digest`
    the caller already holds (a fit that also looks up its landmarks)."""
    spatial = np.asarray(spatial, dtype=np.float64)
    recorder = get_recorder()
    with recorder.observe("spatial.graph", p=int(p)) as span:
        graph, hit = _GRAPHS.get(
            (digest, int(p), method, missing_strategy),
            lambda: _build(spatial, p, observed, method, missing_strategy),
        )
        span.set_attr("cache_hit", hit)
        if recorder.enabled:
            info = graph_cache_info()
            span.set_attr("sparse_bytes", info["sparse_bytes"])
            span.set_attr("dense_bytes", info["dense_bytes"])
    return graph


def clear_graph_cache() -> None:
    """Drop every cached graph and every other spatial set-up memo
    (the K-means landmarks), so the next fit starts cold (tests;
    benchmark set-ups; memory pressure)."""
    for memo in _MEMOS:
        memo.clear()


def graph_cache_info() -> dict[str, int]:
    """Entries, capacity and the bytes the cache holds.

    ``sparse_bytes`` is every entry's CSR arrays and degree vector, the
    ``O(p N)`` the cache always keeps; ``dense_bytes`` is the dense
    ``N x N`` views readers have materialized on entries.  The hit/miss
    counts live on the metrics registry.
    """
    graphs = _GRAPHS.values()
    return {
        "entries": len(graphs),
        "capacity": _MAX_ENTRIES,
        "sparse_bytes": sum(graph.sparse_bytes for graph in graphs),
        "dense_bytes": sum(graph.dense_bytes for graph in graphs),
    }
