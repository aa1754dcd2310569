"""Unit tests for the content-addressed spatial graph cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.spatial import (
    clear_graph_cache,
    graph_cache_info,
    laplacian_from_points,
    spatial_graph,
)
from repro.spatial.graph_cache import _MAX_ENTRIES


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_graph_cache()
    yield
    clear_graph_cache()


@pytest.fixture
def points(rng):
    return rng.random((25, 2)) * 10.0


class TestHitIdentity:
    def test_second_call_returns_same_objects(self, points):
        first = spatial_graph(points, 3)
        second = spatial_graph(points, 3)
        assert second is first
        assert second.similarity is first.similarity
        assert second.laplacian is first.laplacian

    def test_matches_uncached_build(self, points):
        graph = spatial_graph(points, 3)
        similarity, degree, laplacian = laplacian_from_points(points, 3)
        assert np.array_equal(graph.similarity, similarity)
        assert np.array_equal(graph.degree, np.diag(degree))
        assert np.array_equal(graph.laplacian, laplacian)

    def test_copy_of_coordinates_still_hits(self, points):
        # Content addressing: the key is the bytes, not the object.
        assert spatial_graph(points.copy(), 3) is spatial_graph(points, 3)


class TestKeySensitivity:
    def test_different_p_misses(self, points):
        assert spatial_graph(points, 3) is not spatial_graph(points, 4)

    def test_different_coordinates_miss(self, points):
        moved = points.copy()
        moved[0, 0] += 1e-9
        assert spatial_graph(points, 3) is not spatial_graph(moved, 3)

    def test_mask_participates_in_key(self, points):
        observed = np.ones(points.shape, dtype=bool)
        observed[1, 0] = False
        with_mask = spatial_graph(points, 3, observed=observed)
        without = spatial_graph(points, 3)
        assert with_mask is not without

    def test_method_and_strategy_participate(self, points):
        a = spatial_graph(points, 3, method="brute")
        b = spatial_graph(points, 3, method="kdtree")
        assert a is not b


class TestSharedEntriesAreReadOnly:
    def test_arrays_reject_writes(self, points):
        graph = spatial_graph(points, 3)
        for arr in (graph.similarity, graph.degree, graph.laplacian):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestEvictionAndClear:
    def test_lru_eviction_caps_entries(self, rng):
        for i in range(_MAX_ENTRIES + 4):
            spatial_graph(rng.random((12, 2)) + i, 3)
        assert graph_cache_info()["entries"] == _MAX_ENTRIES

    def test_oldest_entry_evicted_first(self, rng):
        batches = [rng.random((12, 2)) + i for i in range(_MAX_ENTRIES + 1)]
        first = spatial_graph(batches[0], 3)
        for pts in batches[1:]:
            spatial_graph(pts, 3)
        # The first build fell off the LRU: same inputs rebuild fresh.
        assert spatial_graph(batches[0], 3) is not first

    def test_touching_an_entry_refreshes_it(self, rng):
        batches = [rng.random((12, 2)) + i for i in range(_MAX_ENTRIES)]
        first = spatial_graph(batches[0], 3)
        for pts in batches[1:]:
            spatial_graph(pts, 3)
        spatial_graph(batches[0], 3)  # move to MRU position
        spatial_graph(rng.random((12, 2)) + 99, 3)  # evicts the 2nd entry
        assert spatial_graph(batches[0], 3) is first

    def test_clear_drops_everything(self, points):
        graph = spatial_graph(points, 3)
        clear_graph_cache()
        assert graph_cache_info()["entries"] == 0
        assert spatial_graph(points, 3) is not graph


class TestCacheBytes:
    """The cache reports what it holds: CSR arrays and degree vectors,
    apart from any dense ``N x N`` view a reader materialized."""

    def test_multiplicative_fit_holds_no_dense_view(self, rng):
        from repro.core.smfl import SMFL

        x = np.hstack([rng.random((40, 2)), rng.random((40, 4)) + 0.1])
        SMFL(rank=3, n_spatial=2, max_iter=5, random_state=0).fit(x)
        info = graph_cache_info()
        assert info["entries"] == 1
        assert info["sparse_bytes"] > 0
        assert info["dense_bytes"] == 0

    def test_reading_a_dense_view_adds_n_squared_doubles(self, points):
        graph = spatial_graph(points, 3)
        before = graph_cache_info()
        graph.similarity
        after = graph_cache_info()
        n = points.shape[0]
        assert after["dense_bytes"] - before["dense_bytes"] == n * n * 8
        assert after["sparse_bytes"] == before["sparse_bytes"]

    def test_lookups_are_observed_with_hit_and_bytes(self, points):
        from repro.obs import Recorder, RingBufferSink, use_recorder

        sink = RingBufferSink()
        with use_recorder(Recorder(sink)):
            spatial_graph(points, 3)
            spatial_graph(points, 3)
        spans = [r for r in sink.tail() if r["kind"] == "span"]
        assert [s["name"] for s in spans] == ["spatial.graph", "spatial.graph"]
        assert [s["attrs"]["cache_hit"] for s in spans] == [False, True]
        sparse = graph_cache_info()["sparse_bytes"]
        assert all(s["attrs"]["sparse_bytes"] == sparse for s in spans)
        assert all(s["attrs"]["dense_bytes"] == 0 for s in spans)
