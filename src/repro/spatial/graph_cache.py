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
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..obs.metrics import get_metrics
from ..obs.stream import get_recorder
from .similarity import knn_graph, to_dense

__all__ = ["SpatialGraph", "spatial_graph", "clear_graph_cache", "graph_cache_info"]

_MAX_ENTRIES = 16
"""LRU capacity: sweeps touch a handful of (dataset, p) combinations."""

_LOCK = threading.Lock()
_VIEW_LOCK = threading.Lock()
"""Serializes dense-view materialization so concurrent first readers
of one entry still share a single array."""
_CACHE: "OrderedDict[str, SpatialGraph]" = OrderedDict()


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


def _graph_key(
    spatial: np.ndarray,
    p: int,
    observed: np.ndarray | None,
    method: str,
    missing_strategy: str,
) -> str:
    h = hashlib.sha256()
    h.update(repr((spatial.shape, str(spatial.dtype), int(p), method,
                   missing_strategy)).encode())
    h.update(spatial.tobytes())
    if observed is None:
        h.update(b"|mask:none")
    else:
        h.update(b"|mask:")
        h.update(np.packbits(observed).tobytes())
    return h.hexdigest()


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
    spatial = np.asarray(spatial, dtype=np.float64)
    recorder = get_recorder()
    with recorder.observe("spatial.graph", p=int(p)) as span:
        key = _graph_key(spatial, p, observed, method, missing_strategy)
        with _LOCK:
            graph = _CACHE.get(key)
            if graph is not None:
                _CACHE.move_to_end(key)
                get_metrics().counter("spatial_graph_cache.hits").inc()
        span.set_attr("cache_hit", graph is not None)
        if graph is None:
            # Build outside the lock: graph construction is the expensive
            # part, and a rare duplicate build is cheaper than
            # serializing all fits.
            graph = _build(spatial, p, observed, method, missing_strategy)
            with _LOCK:
                get_metrics().counter("spatial_graph_cache.misses").inc()
                _CACHE[key] = graph
                _CACHE.move_to_end(key)
                while len(_CACHE) > _MAX_ENTRIES:
                    _CACHE.popitem(last=False)
        if recorder.enabled:
            info = graph_cache_info()
            span.set_attr("sparse_bytes", info["sparse_bytes"])
            span.set_attr("dense_bytes", info["dense_bytes"])
    return graph


def clear_graph_cache() -> None:
    """Drop every cached graph (tests; memory pressure)."""
    with _LOCK:
        _CACHE.clear()


def graph_cache_info() -> dict[str, int]:
    """Entries, capacity and the bytes the cache holds.

    ``sparse_bytes`` is every entry's CSR arrays and degree vector, the
    ``O(p N)`` the cache always keeps; ``dense_bytes`` is the dense
    ``N x N`` views readers have materialized on entries.  The hit/miss
    counts live on the metrics registry.
    """
    with _LOCK:
        graphs = list(_CACHE.values())
    return {
        "entries": len(graphs),
        "capacity": _MAX_ENTRIES,
        "sparse_bytes": sum(graph.sparse_bytes for graph in graphs),
        "dense_bytes": sum(graph.dense_bytes for graph in graphs),
    }
