"""The sparse graph builder is bit-identical to the dense reference build.

:func:`repro.spatial.similarity.knn_graph` settles rows through a grid
index or row-blocked scans, selects neighbours by partial selection and
assembles CSR directly;
:mod:`tests.spatial.reference_graph` is the one-shot dense build with
full stable sorts.  Their neighbour lists and CSR arrays must be equal,
not close: the factors, imputations and golden fixtures depend on it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.spatial import knn_similarity_matrix, laplacian_from_points
from repro.spatial.neighbors import smallest_p
from repro.spatial.similarity import _BLOCK_ROWS, knn_graph, knn_neighbors

from . import reference_graph as ref

sparse = pytest.importorskip("scipy.sparse")

ORACLE_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graph_inputs(draw):
    # Sizes straddle the row block (256) so the last block is partial;
    # n % 256 == 1 leaves a one-row block.
    n = draw(st.sampled_from(
        [2, 5, 17, 64, _BLOCK_ROWS - 1, _BLOCK_ROWS + 1, 300,
         2 * _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 1]
    ))
    dims = draw(st.integers(1, 3))
    p = draw(st.one_of(st.just(n - 1), st.integers(1, min(n - 1, 8))))
    layout = draw(st.sampled_from(["uniform", "grid", "snapped", "duplicates"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if layout == "uniform":
        points = rng.random((n, dims)) * 10.0
    elif layout == "grid":
        # Integer coordinates: many exactly tied distances.
        points = rng.integers(0, 6, (n, dims)).astype(np.float64)
    elif layout == "snapped":
        # Multiples of 1/20: ties that only hold up to rounding.
        points = np.round(rng.random((n, dims)) * 20) / 20
    else:
        points = rng.random((max(1, n // 4), dims))[rng.integers(0, max(1, n // 4), n)]
    observed = None
    if draw(st.booleans()):
        observed = rng.random((n, dims)) > draw(st.sampled_from([0.1, 0.5]))
        n_blank = draw(st.integers(0, min(3, n - 1)))
        observed[rng.choice(n, n_blank, replace=False)] = False
        observed[rng.integers(n)] = True  # every column keeps an observed cell
    strategy = draw(st.sampled_from(["masked", "column-mean"]))
    method = draw(st.sampled_from(["brute", "kdtree"]))
    return points, p, dict(observed=observed, method=method, missing_strategy=strategy)


class TestMatchesDenseReference:
    @ORACLE_SETTINGS
    @given(graph_inputs())
    def test_neighbours_and_csr_arrays_equal(self, case):
        points, p, kwargs = case
        assert np.array_equal(
            knn_neighbors(points, p, **kwargs), ref.knn_neighbors(points, p, **kwargs)
        )
        similarity, degree, laplacian = knn_graph(points, p, **kwargs)
        ref_s, ref_w, ref_l = ref.laplacian_from_points(points, p, **kwargs)
        for op, dense in ((similarity, ref_s), (laplacian, ref_l)):
            expected = sparse.csr_matrix(dense)
            for name in ("indptr", "indices", "data"):
                got, want = getattr(op, name), getattr(expected, name)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
        assert np.array_equal(degree, np.diag(ref_w))

    @ORACLE_SETTINGS
    @given(graph_inputs())
    def test_dense_wrappers_equal(self, case):
        points, p, kwargs = case
        assert np.array_equal(
            knn_similarity_matrix(points, p, **kwargs),
            ref.knn_similarity_matrix(points, p, **kwargs),
        )
        for got, want in zip(
            laplacian_from_points(points, p, **kwargs),
            ref.laplacian_from_points(points, p, **kwargs),
        ):
            assert np.array_equal(got, want)


def test_one_row_final_block_matches_reference():
    """n = 257 leaves a one-row final block; under the old gemm form that
    row went through gemv, whose last-ulp result flipped a four-way tie."""
    points = np.round(np.random.default_rng(14).random((257, 2)) * 20) / 20
    assert np.array_equal(knn_neighbors(points, 3), ref.masked_knn_indices(points, 3))


class TestRowsWithNoObservedCoordinate:
    """Pinned behaviour (DESIGN §6): such a row is infinitely far from
    every row, so it takes rows ``0..p-1`` by index — itself included
    when its index is below ``p`` — and keeps fewer than ``p`` edges
    once the self-edge is dropped."""

    def test_takes_first_rows_by_index(self, rng):
        points = rng.random((10, 2))
        observed = np.ones((10, 2), dtype=bool)
        observed[[1, 7]] = False
        neighbors = knn_neighbors(points, 3, observed=observed)
        assert neighbors[1].tolist() == [0, 1, 2]
        assert neighbors[7].tolist() == [0, 1, 2]
        assert np.array_equal(neighbors, ref.masked_knn_indices(points, 3, observed))

    def test_low_index_row_keeps_fewer_than_p_edges(self, rng):
        points = rng.random((10, 2))
        observed = np.ones((10, 2), dtype=bool)
        observed[1] = False
        _, degree, _ = knn_graph(points, 3, observed=observed)
        # Its own list minus itself; finite-distance rows never pick it.
        assert degree[1] == 2


class TestSmallestP:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(1, 6),
        st.integers(1, 12),
        st.data(),
    )
    def test_equals_stable_argsort_prefix(self, rows, cols, data):
        p = data.draw(st.integers(1, cols))
        values = st.sampled_from([0.0, -0.0, 1.0, 2.0, np.inf, np.nan])
        flat = data.draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
        dist = np.array(flat).reshape(rows, cols)
        out = smallest_p(dist, p)
        assert out.dtype == np.int64
        assert np.array_equal(out, np.argsort(dist, axis=1, kind="stable")[:, :p])
