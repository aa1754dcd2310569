"""The graph cache holds the sparse graph only; dense views are on demand."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import SMF, SMFL
from repro.spatial import clear_graph_cache, spatial_graph

pytest.importorskip("scipy.sparse")


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_graph_cache()
    yield
    clear_graph_cache()


def _dense_arrays(graph):
    """Every 2-D ndarray reachable from the cache entry's fields."""
    found = []
    for value in vars(graph).values():
        for item in value.values() if isinstance(value, dict) else (value,):
            if isinstance(item, np.ndarray) and item.ndim == 2:
                found.append(item)
    return found


def test_cold_build_peak_stays_far_below_one_dense_matrix():
    n = 4000
    rng = np.random.default_rng(0)
    points = rng.random((n, 2))
    observed = rng.random((n, 2)) > 0.3
    tracemalloc.start()
    try:
        graph = spatial_graph(points, 3, observed=observed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4
    assert graph.similarity_op.nnz <= 2 * 3 * n


def test_multiplicative_fit_leaves_no_dense_array(tiny_trial):
    _, x_missing, mask = tiny_trial
    model = SMFL(rank=4, n_spatial=2, random_state=0, max_iter=20)
    model.fit(x_missing, mask)
    assert model._graph is not None
    assert _dense_arrays(model._graph) == []


def test_gradient_fits_share_the_memoized_dense_laplacian(tiny_trial):
    _, x_missing, mask = tiny_trial
    fits = [
        SMF(rank=4, n_spatial=2, update_rule="gradient", learning_rate=1e-4,
            random_state=seed, max_iter=5).fit(x_missing, mask)
        for seed in (0, 1)
    ]
    laplacians = [f._kernel_context(f.v_.shape).laplacian for f in fits]
    assert isinstance(laplacians[0], np.ndarray)
    assert laplacians[0] is laplacians[1]
    assert fits[0]._batched_terms()["laplacian"] is laplacians[0]
    assert np.array_equal(laplacians[0], fits[0]._graph.laplacian_op.toarray())


def test_dense_views_are_built_on_first_read_and_memoized(rng):
    graph = spatial_graph(rng.random((30, 2)), 3)
    assert _dense_arrays(graph) == []
    similarity = graph.similarity
    assert graph.similarity is similarity
    assert np.array_equal(similarity, graph.similarity_op.toarray())
