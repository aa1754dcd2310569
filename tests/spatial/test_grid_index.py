"""The grid index settles rows exactly as the brute-force scan would.

:func:`repro.spatial.similarity._grid_knn` settles fully observed rows
from their cell neighbourhood and hands back the rest;
:func:`repro.spatial.similarity._brute_knn` scans every column.  Both
evaluate pairs with one elementwise distance form, so a settled row
must equal the scanned row bit for bit, ties included.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.spatial.similarity import (
    _brute_knn,
    _grid_knn,
    _masked_columns,
    knn_neighbors,
)

INDEX_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def brute_rows(points, p, observed=None, rows=None):
    """Neighbour lists of ``rows`` (all by default) from the full scan."""
    xt, wt, _ = _masked_columns(points, p, observed)
    rows = np.arange(xt.shape[1]) if rows is None else rows
    out = np.empty((xt.shape[1], p), dtype=np.int64)
    _brute_knn(xt, wt, rows, p, out)
    return out[rows]


def grid_rows(points, p, observed=None):
    """``(lists, settled)``: the grid's lists and which rows it settled."""
    xt, wt, full = _masked_columns(points, p, observed)
    n = xt.shape[1]
    out = np.empty((n, p), dtype=np.int64)
    settled = np.ones(n, dtype=bool)
    settled[_grid_knn(xt, wt, full, p, out)] = False
    return out, settled


def clustered(rng, n, dims):
    """One dense cluster plus uniform outliers."""
    points = 0.5 + 0.01 * rng.standard_normal((n, dims))
    outliers = rng.random(n) < 0.1
    points[outliers] = rng.random((int(outliers.sum()), dims)) * 10.0
    return points


@st.composite
def index_inputs(draw):
    n = draw(st.integers(2, 300))
    dims = draw(st.integers(1, 3))
    p = draw(st.one_of(st.integers(1, min(n - 1, 10)), st.integers(1, n - 1)))
    layout = draw(st.sampled_from(
        ["uniform", "duplicates", "single", "cluster", "snapped", "huge"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if layout == "uniform":
        points = rng.random((n, dims))
    elif layout == "duplicates":
        points = rng.random((max(1, n // 5), dims))[rng.integers(0, max(1, n // 5), n)]
    elif layout == "single":
        # Distinct lattice sites far apart: cells hold one point each.
        sites = rng.choice(4 * n, n, replace=False)
        points = np.stack([sites % 64, sites // 64] + [sites % 7] * (dims - 2), axis=1)
        points = points[:, :dims] * 100.0 + rng.random((n, dims))
    elif layout == "cluster":
        points = clustered(rng, n, dims)
    elif layout == "snapped":
        points = np.round(rng.random((n, dims)) * 20) / 20
    else:
        # Every squared difference overflows: nothing can be settled.
        points = 1e200 * (1.0 + rng.random((n, dims)))
    observed = None
    if draw(st.booleans()):
        # A mix of fully observed rows and rows with a blank cell.
        observed = np.ones((n, dims), dtype=bool)
        blank = rng.random(n) < draw(st.sampled_from([0.02, 0.2, 0.6]))
        observed[blank, rng.integers(0, dims, int(blank.sum()))] = False
        observed[rng.random((n, dims)) < 0.02] = False
        observed[rng.integers(n)] = True  # every column keeps an observed cell
    return points, p, observed, layout


class TestSettledRowsEqualBruteRows:
    @INDEX_SETTINGS
    @given(index_inputs())
    def test_settled_rows_and_final_lists_equal_the_scan(self, case):
        points, p, observed, layout = case
        expected = brute_rows(points, p, observed)
        got, settled = grid_rows(points, p, observed)
        assert np.array_equal(got[settled], expected[settled])
        assert np.array_equal(knn_neighbors(points, p, observed=observed), expected)
        if observed is not None:
            assert not settled[~observed.all(axis=1)].any()
        if layout == "huge":
            assert not settled.any()

    def test_one_point_per_cell_and_duplicates(self, rng):
        sites = rng.choice(10_000, 400, replace=False)
        points = np.stack([sites % 100, sites // 100], axis=1) * 10.0
        points = np.concatenate([points, points[:50]])  # exact duplicates
        for p in (1, 3, 50, points.shape[0] - 1):
            got, settled = grid_rows(points, p)
            assert np.array_equal(got[settled], brute_rows(points, p)[settled])


class TestIndexDoesTheWork:
    """The property above would hold vacuously if nothing were settled."""

    def test_uniform_and_clustered_rows_settle_on_the_grid(self, rng):
        for points in (rng.random((3000, 2)), clustered(rng, 3000, 2)):
            for p in (1, 3, 10):
                _, settled = grid_rows(points, p)
                assert settled.mean() > 0.95

    def test_blank_rows_fall_back_and_full_rows_still_settle(self, rng):
        points = rng.random((2000, 2))
        observed = np.ones_like(points, dtype=bool)
        observed[:40, 1] = False
        got, settled = grid_rows(points, 3, observed)
        assert not settled[:40].any()
        assert settled[40:].mean() > 0.95
        assert np.array_equal(got[settled], brute_rows(points, 3, observed)[settled])


def test_hundred_thousand_rows_match_the_scan_on_sampled_rows():
    """The paper's Vehicle shape (100k rows, 2 coordinates) builds in
    seconds; 256 sampled rows must equal their full-scan lists."""
    rng = np.random.default_rng(0)
    n = 100_000
    centres = rng.random((8, 2))
    points = centres[rng.integers(0, 8, n)] + 0.05 * rng.standard_normal((n, 2))
    points[rng.random(n) < 0.01] = rng.random((1, 2))  # a stack of duplicates
    neighbors = knn_neighbors(points, 5)
    rows = np.sort(rng.choice(n, 256, replace=False))
    assert np.array_equal(neighbors[rows], brute_rows(points, 5, rows=rows))
