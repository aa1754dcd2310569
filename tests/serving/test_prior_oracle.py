"""The column-wise spatial prior is bit-identical to the broadcast build.

:func:`repro.serving.foldin._spatial_prior` sums squared distances one
spatial column at a time over training locations cached on the model,
scanning all of them or, for large batches, ranking each row's list
from the model's cover (:class:`repro.serving.cover.PriorCover`);
:mod:`tests.serving.reference_prior` is the one-shot ``(B, N, L)``
broadcast with a full stable sort.  For L < 8 the prior, and so every
fold-in answer, must be equal, not close: neighbour sets, their
(distance, index) order and each weight feed the solve.  The cover and
the scan must agree on every input, wherever the cut-over between them
sits, and the cover's bound must hold for every unlisted row.  Also
pinned here: the location and cover caches stay out of the artifact, a
row whose distances all overflow gets no prior (and no warning), and
``p_neighbors`` is checked at the boundary.
"""

from __future__ import annotations

import tracemalloc
import warnings
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.workspace import BufferArena
from repro.exceptions import ValidationError
from repro.model import FittedModel, load_model
from repro.serving import cover as cover_module
from repro.serving import fold_in, foldin
from repro.serving.cover import PriorCover
from repro.serving.foldin import _nearest, _segment_nearest, _spatial_prior

from . import reference_prior as ref

ORACLE_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

N_ATTRS = 3
RANK = 3


def _model(n_spatial: int, n_train: int, layout: str, rng, box: str = "none") -> FittedModel:
    u = rng.random((n_train, RANK))
    if layout == "duplicates":
        # Repeated training rows sit at one location: tied distances.
        u = u[rng.integers(0, max(1, n_train // 4), n_train)]
    elif layout == "clustered":
        # Rows of U near the unit vectors: locations bunch around the
        # landmarks, the fitted models' shape (wide grid cells).
        u = np.eye(RANK)[rng.integers(0, RANK, n_train)] + 0.01 * u
    elif layout == "lattice":
        # Integer locations: many exact ties at every distance.
        u = rng.integers(0, 3, (n_train, RANK)).astype(float)
    v = rng.random((RANK, n_spatial + N_ATTRS)) * 2.0
    if layout == "lattice":
        v[:, :n_spatial] = rng.integers(0, 3, (RANK, n_spatial))
    bounds = {}
    if box != "none":
        # Observed column ranges, wider or narrower than the locations'
        # box on the spatial columns (the cover tiles their union).
        locations = u @ v[:, :n_spatial]
        lo, span = locations.min(axis=0), np.ptp(locations, axis=0)
        pad = (0.5 if box == "wide" else -0.25) * span
        bounds = {
            "column_low": np.concatenate([lo - pad, np.zeros(N_ATTRS)]),
            "column_high": np.concatenate([lo + span + pad, np.full(N_ATTRS, np.inf)]),
        }
    return FittedModel(
        method="smfl",
        u=u,
        v=v,
        rank=RANK,
        n_spatial=n_spatial,
        n_rows=n_train,
        n_cols=n_spatial + N_ATTRS,
        **bounds,
    )


@st.composite
def prior_inputs(draw):
    n_spatial = draw(st.integers(1, 4))
    n_train = draw(st.sampled_from([1, 2, 7, 40, 130]))
    layout = draw(st.sampled_from(["uniform", "duplicates"]))
    n_rows = draw(st.one_of(st.integers(1, 20), st.sampled_from([255, 256, 300])))
    p = draw(st.sampled_from([1, 3, n_train, n_train + 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    model = _model(n_spatial, n_train, layout, rng)

    n_cols = model.n_cols
    x = rng.random((n_rows, n_cols)) * 3.0
    if draw(st.booleans()):
        # Requests at training locations: zero and tied distances.
        picks = rng.integers(0, n_train, n_rows)
        x[:, :n_spatial] = (model.u @ model.v[:, :n_spatial])[picks]
    observed = rng.random((n_rows, n_cols)) >= 0.3
    spatial = draw(st.sampled_from(["full", "partial", "blank rows"]))
    if spatial == "full":
        observed[:, :n_spatial] = True
    elif spatial == "blank rows":
        observed[rng.random(n_rows) < 0.3, :n_spatial] = False
    x[~observed] = 0.0
    return model, x, observed, p


@st.composite
def grid_inputs(draw):
    """Large batches whose placed rows reach the cover.

    Returns ``(model, x, observed, p, odd_rows)``; ``odd_rows`` are the
    rows holding a 1e300 coordinate (all their distances overflow) or a
    non-finite one, where the broadcast reference overflows.
    """
    queries = draw(st.sampled_from(
        ["inside", "outside", "far outside", "training rows", "half lattice", "holes", "edges"]))
    n_spatial = draw(st.sampled_from([1, 2, 3, 4]))
    n_train = draw(st.sampled_from([3, 40, 600]))
    if queries == "holes":
        layout = "clustered"
    else:
        layout = draw(st.sampled_from(["uniform", "duplicates", "clustered", "lattice"]))
    box = draw(st.sampled_from(["none", "wide", "narrow"]))
    n_rows = draw(st.sampled_from([foldin._GRID_MIN_ROWS, 256, 300]))
    p = draw(st.sampled_from([1, 3, 7, n_train, n_train + 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    model = _model(n_spatial, n_train, layout, rng, box)

    locations = model.training_locations.T
    lo, span = locations.min(axis=0), np.ptp(locations, axis=0)
    x = rng.random((n_rows, model.n_cols)) * 3.0
    if queries == "holes":
        x[:, :n_spatial] = _holes(model, n_rows, rng)
    elif queries == "inside":
        x[:, :n_spatial] = lo + rng.random((n_rows, n_spatial)) * span
    elif queries == "outside":
        # The bounding box tripled: most queries fall outside it.
        x[:, :n_spatial] = lo - span + rng.random((n_rows, n_spatial)) * 3 * span
    elif queries == "far outside":
        # Outside the observed ranges as well, up to ten spans away.
        x[:, :n_spatial] = lo + (rng.random((n_rows, n_spatial)) * 21 - 10) * (span + 1)
    elif queries == "training rows":
        x[:, :n_spatial] = locations[rng.integers(0, n_train, n_rows)]
    elif queries == "edges":
        x[:, :n_spatial] = _edges(model, n_rows, rng)
    else:
        # Halfway between lattice points: ties at the p-th distance.
        x[:, :n_spatial] = rng.integers(0, 12, (n_rows, n_spatial)) * 0.5
    observed = rng.random(x.shape) >= 0.3
    observed[:, :n_spatial] = True
    if draw(st.booleans()):
        # Blank and partially blank spatial rows mixed in (scanned).
        mixed = rng.random((n_rows, n_spatial)) < 0.1
        mixed[rng.random(n_rows) < 0.05] = True
        observed[:, :n_spatial] &= ~mixed
    odd_rows = []
    for value in draw(st.sampled_from([(), (1e300,), (np.inf, -np.inf, np.nan)])):
        row = int(rng.integers(0, n_rows))
        col = int(rng.integers(0, n_spatial))
        x[row, col], observed[row, col] = value, True
        odd_rows.append(row)
    x[~observed] = 0.0
    return model, x, observed, p, odd_rows


def _holes(model: FittedModel, n_rows: int, rng) -> np.ndarray:
    """``(n_rows, L)`` points between the training locations, in cover
    cells that hold no training row (any points when the layout leaves
    none empty)."""
    locations = model.training_locations
    lo, span = locations.min(axis=1), np.ptp(locations, axis=1)
    points = (lo[:, None] + rng.random((locations.shape[0], 50 * n_rows)) * span[:, None])
    cover = model.training_cover
    if cover.usable:
        empty = np.ones(cover.r2.size, dtype=bool)
        empty[cover._cells(locations)] = False
        if empty[cover._cells(points)].any():
            points = points[:, empty[cover._cells(points)]]
    return points[:, rng.integers(0, points.shape[1], n_rows)].T


def _edges(model: FittedModel, n_rows: int, rng) -> np.ndarray:
    """``(n_rows, L)`` points on the cover's cell edges and corners, and
    one float either side of them."""
    cover = model.training_cover
    n_spatial = model.n_spatial
    points = cover.lo + rng.random((n_rows, n_spatial)) * (cover.hi - cover.lo)
    for axis in range(n_spatial):
        edges = cover.edges[axis] if axis < cover.axes else np.array([cover.lo[axis], cover.hi[axis]])
        on = rng.random(n_rows) < 0.7  # corners where two axes land on edges
        points[on, axis] = edges[rng.integers(0, edges.size, on.sum())]
        step = rng.integers(-1, 2, n_rows)
        points[:, axis] = np.where(step < 0, np.nextafter(points[:, axis], -np.inf),
                                   np.where(step > 0, np.nextafter(points[:, axis], np.inf),
                                            points[:, axis]))
    return points


def _prior_via(path: str, model, x, observed, p):
    """``_spatial_prior`` with the cover forced on, forced off, or as is."""
    min_rows = {"grid": 1, "scan": np.inf, "default": foldin._GRID_MIN_ROWS}[path]
    with mock.patch.object(foldin, "_GRID_MIN_ROWS", min_rows):
        return _spatial_prior(model, x, observed, p, BufferArena())


class TestGridPath:
    @ORACLE_SETTINGS
    @given(grid_inputs())
    def test_grid_and_scan_bit_identical(self, case):
        model, x, observed, p, _ = case
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            grid = _prior_via("grid", model, x, observed, p)
            scan = _prior_via("scan", model, x, observed, p)
        assert np.array_equal(grid[0], scan[0])
        assert np.array_equal(grid[1], scan[1])

    @ORACLE_SETTINGS
    @given(grid_inputs())
    def test_every_path_matches_reference(self, case):
        model, x, observed, p, odd_rows = case
        with warnings.catch_warnings():
            # The reference overflows on the odd rows and gives them NaN.
            warnings.simplefilter("ignore", RuntimeWarning)
            want_prior, want_active = ref.spatial_prior(model, x, observed, p, BufferArena())
        keep = ~np.isin(np.arange(x.shape[0]), odd_rows)
        for path in ("grid", "scan", "default"):
            u_prior, active = _prior_via(path, model, x, observed, p)
            assert np.array_equal(u_prior[keep], want_prior[keep]), path
            assert np.array_equal(active[keep], want_active[keep]), path
            for row in odd_rows:
                assert active[row] == 0.0
                assert not u_prior[row].any()

    def test_default_cut_over_takes_the_grid(self):
        # 256 rows near training rows, N = 2000: most settle on the cover.
        rng = np.random.default_rng(3)
        model = _model(2, 2000, "uniform", rng)
        locations = model.training_locations.T
        x = rng.random((256, model.n_cols))
        x[:, :2] = locations[rng.integers(0, 2000, 256)] + 1e-3 * rng.random((256, 2))
        observed = np.ones(x.shape, dtype=bool)
        left = []
        real = foldin._cover_nearest
        with mock.patch.object(foldin, "_cover_nearest",
                               side_effect=lambda *a: left.append(real(*a)) or left[-1]):
            got = _spatial_prior(model, x, observed, 3, BufferArena())
        assert len(left) == 1
        assert left[0].size < 256 // 4  # rows left for the scan
        want = _prior_via("scan", model, x, observed, 3)
        assert np.array_equal(got[0], want[0])
        small = foldin._GRID_MIN_ROWS - 1
        with mock.patch.object(foldin, "_cover_nearest") as spy:
            _spatial_prior(model, x[:small], observed[:small], 3, BufferArena())
        spy.assert_not_called()  # smaller batches scan

    @pytest.mark.parametrize("layout", ["uniform", "clustered"])
    def test_hole_queries_settle_from_the_cover(self, layout):
        # Queries in cells that hold no training row.  Between uniform
        # locations their lists still settle most of them; between tight
        # clusters most cells are too far from every row to get a list
        # (_MAX_RING) and their queries scan.  Both answer exactly.
        rng = np.random.default_rng(5)
        model = _model(2, 600, layout, rng)
        x = rng.random((256, model.n_cols))
        x[:, :2] = _holes(model, 256, rng)
        observed = np.ones(x.shape, dtype=bool)
        cover = model.training_cover
        assert not np.isin(cover._cells(x[:, :2].T), cover._cells(model.training_locations)).any()
        left = []
        real = foldin._cover_nearest
        with mock.patch.object(foldin, "_cover_nearest",
                               side_effect=lambda *a: left.append(real(*a)) or left[-1]):
            grid = _prior_via("grid", model, x, observed, 3)
        if layout == "uniform":
            assert left[0].size < 256 // 4
        scan = _prior_via("scan", model, x, observed, 3)
        want = ref.spatial_prior(model, x, observed, 3, BufferArena())
        for got in (grid, scan):
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_tie_at_the_bound_is_not_settled(self):
        # One spatial axis, cells [k, k + 1] over the observed range;
        # rows 0..3 at 0, 2, 1 and 1.5.  Cell [1, 2]'s r2 is 1 (the
        # third smallest farthest distance, exactly), so row 0 at
        # distance 1 is off its list.  A query at 1 ties rows 0 and 1
        # at its third pick, distance 1 = r2: the list offers row 1, the
        # scan takes row 0 (the lower index), so the query must not
        # settle.
        cells = float(int(4 / cover_module._CELL_ROWS))  # of width 1
        model = FittedModel(method="smfl", u=np.array([[0.0], [2.0], [1.0], [1.5]]),
                            v=np.ones((1, 2)), rank=1, n_spatial=1, n_rows=4, n_cols=2,
                            column_low=np.zeros(2), column_high=np.full(2, cells))
        cover = model.training_cover
        x = np.array([[1.0, 0.5]])
        cell = int(cover._cells(x[:, :1].T)[0])
        assert cover.r2[cell] == 1.0
        assert cover.lists[cover.starts[cell]:cover.starts[cell] + cover.widths[cell]].tolist() \
            == [1, 2, 3]
        observed = np.ones(x.shape, dtype=bool)
        left = foldin._cover_nearest(cover, x, np.array([0]), 3, np.empty((1, 3), dtype=np.int64),
                                     np.empty((1, 3)))
        assert left.tolist() == [0]
        grid = _prior_via("grid", model, x, observed, 3)
        want = ref.spatial_prior(model, x, observed, 3, BufferArena())
        assert np.array_equal(grid[0], want[0])


    def test_many_rows_at_one_site_match_the_scan(self):
        # 3,000 rows at one location share one list: their gathers are
        # cut into chunks under the element budget, not one per row.
        rng = np.random.default_rng(8)
        model = _model(2, 2000, "uniform", rng)
        row = rng.random(model.n_cols)
        x = np.tile(row, (3000, 1))
        observed = np.ones(x.shape, dtype=bool)
        left, gathered = [], []
        real, select = foldin._cover_nearest, foldin._segment_nearest

        def spy(dist, *args):
            gathered.append(dist.size)
            return select(dist, *args)

        with mock.patch.object(foldin, "_cover_nearest",
                               side_effect=lambda *a: left.append(real(*a)) or left[-1]), \
                mock.patch.object(foldin, "_segment_nearest", side_effect=spy):
            grid = _prior_via("grid", model, x, observed, 3)
        assert left[0].size == 0  # every row settled on the cover
        assert sum(gathered) > foldin._CANDIDATE_ELEMENTS
        assert max(gathered) <= foldin._CANDIDATE_ELEMENTS
        scan = _prior_via("scan", model, x, observed, 3)
        assert np.array_equal(grid[0], scan[0])
        assert np.array_equal(grid[1], scan[1])
        result = fold_in(model, x)  # the public entry point, unchunked
        assert result.imputed.shape == x.shape and np.isfinite(result.imputed).all()

    @pytest.mark.parametrize("budget", [1, 40, 700])
    def test_small_chunks_match_the_scan(self, budget):
        # Chunks of one row (every list wider than the budget) up to many:
        # the same neighbours as the scan, and no chunk past the budget
        # unless it is one row.
        rng = np.random.default_rng(9)
        model = _model(2, 600, "clustered", rng)
        x = rng.random((300, model.n_cols))
        x[:, :2] = model.training_locations[:, rng.integers(0, 600, 300)].T
        observed = np.ones(x.shape, dtype=bool)
        gathered = []
        select = foldin._segment_nearest
        with mock.patch.object(foldin, "_CANDIDATE_ELEMENTS", budget), \
                mock.patch.object(foldin, "_segment_nearest",
                                  side_effect=lambda d, w, p: gathered.append((d.size, w.size))
                                  or select(d, w, p)):
            grid = _prior_via("grid", model, x, observed, 3)
        assert len(gathered) > 1
        assert all(size <= budget or rows == 1 for size, rows in gathered)
        scan = _prior_via("scan", model, x, observed, 3)
        assert np.array_equal(grid[0], scan[0])
        assert np.array_equal(grid[1], scan[1])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(1, 3000), st.integers(1, 2000)), min_size=1,
                    max_size=6), st.randoms(use_true_random=False))
    def test_chunks_stay_under_the_budget(self, runs, shuffle):
        # Rows' list widths in any order: consecutive chunks that cover
        # every row, each gathering at most the element budget (or one
        # row), and each as long as the budget allows.
        width = [w for n, w in runs for _ in range(n)]
        shuffle.shuffle(width)
        width = np.array(width)
        chunks = foldin._chunks(width)
        assert chunks[0].start == 0 and chunks[-1].stop == width.size
        assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
        budget = foldin._CANDIDATE_ELEMENTS
        for chunk in chunks:
            assert chunk.stop - chunk.start == 1 or width[chunk].sum() <= budget
        for chunk in chunks[:-1]:
            assert width[chunk.start:chunk.stop + 1].sum() > budget


class TestCover:
    """The cover's own contract, row by row against every training row."""

    @ORACLE_SETTINGS
    @given(
        st.sampled_from([1, 2, 3, 4]), st.sampled_from([1, 2, 3, 40, 300]),
        st.sampled_from(["uniform", "duplicates", "clustered", "lattice"]),
        st.sampled_from(["none", "wide", "narrow"]),
        st.sampled_from(["inside", "outside", "edges", "training rows", "huge"]),
        st.integers(0, 2**31 - 1),
    )
    def test_unlisted_rows_are_past_the_bound(self, n_spatial, n_train, layout, box, queries,
                                              seed):
        rng = np.random.default_rng(seed)
        model = _model(n_spatial, n_train, layout, rng, box)
        cover = model.training_cover
        locations = model.training_locations
        lo, span = locations.min(axis=1), np.ptp(locations, axis=1)
        if queries == "edges":
            xq = _edges(model, 64, rng).T
        elif queries == "training rows":
            xq = locations[:, rng.integers(0, n_train, 64)]
        else:
            scale = {"inside": 1, "outside": 5, "huge": 1e200}[queries]
            xq = lo[:, None] + (rng.random((n_spatial, 64)) - 0.5) * scale * (span[:, None] + 1)
        cells, limit = cover.locate(xq)
        with np.errstate(over="ignore"):
            d2 = np.zeros((64, n_train))
            for axis in range(n_spatial):
                d2 += (xq[axis][:, None] - locations[axis]) ** 2
        for row, cell in enumerate(cells):
            start, width = cover.starts[cell], cover.widths[cell]
            listed = cover.lists[start:start + width]
            assert np.all(np.diff(listed) > 0)
            unlisted = np.setdiff1d(np.arange(n_train), listed)
            assert (d2[row, unlisted] >= limit[row]).all()

    def test_long_lists_are_dropped(self):
        rng = np.random.default_rng(4)
        model = _model(2, 600, "clustered", rng)
        with mock.patch("repro.serving.cover._MAX_LIST", 40):
            cover = PriorCover(model.training_locations, 3)
        full = model.training_cover
        dropped = full.widths > 40
        assert dropped.any() and (full.widths <= 40).any()
        assert (cover.widths[dropped] == 0).all() and (cover.r2[dropped] == 0).all()
        assert np.array_equal(cover.widths[~dropped], full.widths[~dropped])
        assert cover.lists.size < full.lists.size
        x = rng.random((256, model.n_cols))
        x[:, :2] = model.training_locations[:, rng.integers(0, 600, 256)].T
        observed = np.ones(x.shape, dtype=bool)
        model.__dict__["training_cover"] = cover
        got = _prior_via("grid", model, x, observed, 3)
        want = _prior_via("scan", model, x, observed, 3)
        assert np.array_equal(got[0], want[0])

    @pytest.mark.parametrize("layout", ["uniform", "clustered"])
    def test_build_gathers_linear_in_rows(self, layout):
        # No cells x N pass: every row the build measures lies in a block
        # of cells around the cell asking, capped per cell, so the rows
        # it measures grow with N: 65-78 per training row on these
        # layouts, where a cells x N pass would measure 20,000.  It
        # measures them a bounded number at a time.
        model = _model(2, 20_000, layout, np.random.default_rng(6))
        sizes = []
        real = cover_module._distance2
        with mock.patch.object(cover_module, "_distance2",
                               side_effect=lambda points, *a, **k: sizes.append(points.shape[1])
                               or real(points, *a, **k)):
            cover = model.training_cover
        assert max(sizes) <= cover_module._BUILD_ROWS + cover_module._MAX_LIST
        assert sum(sizes) <= 100 * 20_000
        assert cover.lists.size <= 100 * 20_000

    @pytest.mark.parametrize("layout", ["uniform", "clustered"])
    def test_build_scratch_stays_near_the_cover(self, layout):
        # The build sizes its lists with a counting pass and fills them
        # in place, and keeps per-cell scratch only while a pass reads
        # it: its traced peak, the cover included, stays within 3x the
        # cover's bytes (2.0-2.4x on these layouts; 3.6-4.1x when every
        # run's lists were kept and then concatenated).
        locations = _model(2, 20_000, layout, np.random.default_rng(6)).training_locations
        tracemalloc.start()
        try:
            cover = PriorCover(locations, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * cover.nbytes


class TestSelection:
    """The selection helper is the full stable sort, cut to ``p``."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(1, 5), st.integers(1, 40), st.integers(1, 12),
        st.sampled_from(["ties", "inf", "nan"]), st.integers(0, 2**31 - 1),
    )
    def test_nearest(self, n_rows, width, p, kind, seed):
        rng = np.random.default_rng(seed)
        p = min(p, width)
        d2 = rng.integers(0, 4, (n_rows, width)).astype(float)
        if kind != "ties":
            d2[rng.random(d2.shape) < 0.3] = np.inf if kind == "inf" else np.nan
        before = d2.copy()
        want = np.argsort(before, axis=1, kind="stable")[:, :p]
        cols, vals = _nearest(d2, p)
        assert np.array_equal(cols, want)
        assert np.array_equal(vals, np.take_along_axis(before, want, axis=1), equal_nan=True)
        assert np.array_equal(d2, before, equal_nan=True)
        if kind == "nan":
            return  # the cover's distances are never NaN
        # The cover's selector: each row cut to a width of at least p
        # (the first exactly p), the segments back to back.
        widths = rng.integers(p, width + 1, n_rows)
        widths[0] = p
        picks, vals = _segment_nearest(np.concatenate([r[:w] for r, w in zip(before, widths)]),
                                       widths, p)
        offsets = np.cumsum(widths) - widths
        for row, (w, offset) in enumerate(zip(widths, offsets)):
            want = np.argsort(before[row, :w], kind="stable")[:p]
            if np.isfinite(before[row, want[-1]]):
                assert np.array_equal(picks[row] - offset, want)
                assert np.array_equal(vals[row], before[row, want])
            else:  # undefined picks past an inf, but never a finite p-th
                assert vals[row, -1] == np.inf


class TestMatchesBroadcastReference:
    @ORACLE_SETTINGS
    @given(prior_inputs())
    def test_prior_bit_identical(self, case):
        model, x, observed, p = case
        u_prior, active = _spatial_prior(model, x, observed, p, BufferArena())
        ref_prior, ref_active = ref.spatial_prior(model, x, observed, p, BufferArena())
        assert np.array_equal(u_prior, ref_prior)
        assert np.array_equal(active, ref_active)

    @ORACLE_SETTINGS
    @given(prior_inputs())
    def test_fold_in_bit_identical(self, case):
        model, x, observed, p = case
        arena = BufferArena()
        got = fold_in(model, x, observed, p_neighbors=p, arena=arena)
        with mock.patch("repro.serving.foldin._spatial_prior", ref.spatial_prior):
            want = fold_in(model, x, observed, p_neighbors=p, arena=arena)
        assert np.array_equal(got.u_new, want.u_new)
        assert np.array_equal(got.imputed, want.imputed)


class TestLocationCache:
    def test_computed_once_and_read_only(self):
        model = _model(2, 30, "uniform", np.random.default_rng(0))
        locations = model.training_locations
        assert model.training_locations is locations
        assert locations.shape == (2, 30)
        assert locations.flags.c_contiguous
        assert not locations.flags.writeable
        assert np.array_equal(locations, (model.u @ model.v[:, :2]).T)
        x = np.ones((4, model.n_cols))
        fold_in(model, x)
        assert model.training_locations is locations

    def test_not_a_field_and_not_copied_by_replace(self):
        model = _model(2, 30, "uniform", np.random.default_rng(0))
        locations = model.training_locations
        assert "training_locations" not in {f.name for f in fields(FittedModel)}
        copy = replace(model, method="smf")
        assert copy.training_locations is not locations
        assert np.array_equal(copy.training_locations, locations)

    def test_estimate_model_has_no_locations(self):
        estimate_model = FittedModel.from_estimate(
            method="mean",
            estimate=np.ones((3, 4)),
            x_observed=np.ones((3, 4)),
            observed=np.ones((3, 4), dtype=bool),
        )
        with pytest.raises(ValidationError):
            estimate_model.training_locations

    def test_grid_index_cached_and_not_a_field(self):
        model = _model(2, 30, "uniform", np.random.default_rng(0))
        cover = model.training_cover
        assert isinstance(cover, PriorCover)
        assert model.training_cover is cover
        assert np.array_equal(cover.points, model.training_locations)
        assert "training_cover" not in {f.name for f in fields(FittedModel)}
        copy = replace(model, method="smf")
        assert copy.training_cover is not cover
        assert np.array_equal(copy.training_cover.lists, cover.lists)

    def test_candidate_table_built_once_on_first_use(self):
        model = _model(2, 300, "clustered", np.random.default_rng(0), "wide")
        with mock.patch.object(PriorCover, "__init__", autospec=True,
                               side_effect=PriorCover.__init__) as build:
            cover = model.training_cover
            assert model.training_cover is cover
            fold_in(model, np.ones((256, model.n_cols)))
            assert build.call_count == 1
        assert cover.lists.dtype == np.int32
        # The cover box is the locations' box widened to the observed
        # spatial ranges.
        low, high = model.clip_bounds()
        locations = model.training_locations
        assert np.array_equal(cover.lo, np.minimum(locations.min(axis=1), low[:2]))
        assert np.array_equal(cover.hi, np.maximum(locations.max(axis=1), high[:2]))
        # Cell c: every row whose squared distance to the cell's box is
        # below r2, in index order; the lists lie back to back.
        slabs = np.array(np.unravel_index(np.arange(cover.r2.size), cover.shape))
        for cell in range(cover.r2.size):
            lo = [cover.edges[g][slabs[g, cell]] for g in range(2)]
            hi = [cover.edges[g][slabs[g, cell] + 1] for g in range(2)]
            gap = np.maximum(np.maximum(np.array(lo)[:, None] - locations,
                                        locations - np.array(hi)[:, None]), 0.0)
            near = np.flatnonzero(gap[0] ** 2 + gap[1] ** 2 < cover.r2[cell])
            start, width = cover.starts[cell], cover.widths[cell]
            assert np.array_equal(cover.lists[start:start + width], near)
        assert np.array_equal(cover.starts, np.cumsum(cover.widths) - cover.widths)
        assert cover.lists.size == cover.widths.sum()
        assert cover.nbytes == (cover.lists.nbytes + cover.starts.nbytes
                                + cover.widths.nbytes + cover.r2.nbytes)

    def test_cover_box_holds_the_observed_range_without_clipping(self):
        # The observed ranges widen the cover box whether or not
        # imputation clips to them.
        model = _model(2, 300, "clustered", np.random.default_rng(0), "wide")
        loose = replace(model, clip_to_observed=False)
        assert loose.clip_bounds() is None
        cover, want = loose.training_cover, model.training_cover
        assert cover.lo.tolist() == want.lo.tolist() and cover.hi.tolist() == want.hi.tolist()
        assert (cover.lo < model.training_locations.min(axis=1)).all()
        assert np.array_equal(cover.lists, want.lists)

    def test_replace_copy_builds_its_own_table(self):
        model = _model(2, 300, "clustered", np.random.default_rng(0))
        lists = model.training_cover.lists
        copy = replace(model, method="smf")
        assert "training_cover" not in vars(copy)
        assert copy.training_cover.lists is not lists
        assert np.array_equal(copy.training_cover.lists, lists)

    def test_tables_leave_the_artifact_hash(self, tmp_path):
        model = _model(2, 300, "clustered", np.random.default_rng(0))
        before = model.save(str(tmp_path / "before"))["content_hash"]
        fold_in(model, np.ones((256, model.n_cols)))
        assert "training_cover" in vars(model)  # the 256-row request built it
        assert model.save(str(tmp_path / "after"))["content_hash"] == before

    def test_warm_fold_in_builds_no_candidate_lists(self):
        # A slide back to building candidate lists per request fails here
        # by the builder's name.
        rng = np.random.default_rng(3)
        model = _model(2, 2000, "uniform", rng)
        x = rng.random((256, model.n_cols))
        fold_in(model, x)  # warm: builds the cover it reads
        assert "training_cover" in vars(model)
        assert not hasattr(foldin, "_candidate_lists")
        with mock.patch.object(PriorCover, "__init__", autospec=True,
                               side_effect=PriorCover.__init__) as build:
            fold_in(model, rng.random((256, model.n_cols)))
        assert build.call_count == 0, "a warm fold_in built a cover"

    def test_non_finite_locations_have_no_cover(self):
        model = _model(2, 30, "uniform", np.random.default_rng(0))
        u = np.array(model.u)
        u[3, 0] = np.inf
        broken = replace(model, u=u)
        x = np.ones((300, model.n_cols))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert not broken.training_cover.usable
            assert broken.training_cover.nbytes == 0
            grid = _prior_via("grid", broken, x, np.ones(x.shape, bool), 3)
            scan = _prior_via("scan", broken, x, np.ones(x.shape, bool), 3)
        assert np.array_equal(grid[0], scan[0], equal_nan=True)

    def test_artifact_hash_unchanged_by_cache(self, tmp_path):
        model = _model(2, 30, "uniform", np.random.default_rng(0))
        before = model.save(str(tmp_path / "before"))["content_hash"]
        fold_in(model, np.ones((3, model.n_cols)))
        model.training_cover
        after = model.save(str(tmp_path / "after"))["content_hash"]
        assert after == before
        loaded = load_model(str(tmp_path / "after"))
        assert loaded.save(str(tmp_path / "again"))["content_hash"] == before
        assert np.array_equal(loaded.training_locations, model.training_locations)


class TestOverflowingCoordinate:
    def test_huge_coordinate_gets_no_prior(self):
        model = _model(2, 30, "uniform", np.random.default_rng(1))
        rng = np.random.default_rng(2)
        x = rng.random((3, model.n_cols)) * 3.0
        observed = np.ones(x.shape, dtype=bool)
        observed[0, 3] = observed[2, 4] = False  # distinct patterns
        x[~observed] = 0.0
        x[1, 0] = 1e300  # finite, but its squared distances overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = fold_in(model, x, observed)
            u_prior, active = _spatial_prior(model, x, observed, 3, BufferArena())
        assert np.isfinite(result.u_new).all()
        assert np.isfinite(result.imputed).all()
        assert active.tolist() == [1.0, 0.0, 1.0]
        assert np.array_equal(u_prior[1], np.zeros(RANK))
        # The row is solved as if it had no spatial evidence ...
        plain = fold_in(model, x, observed, spatial_smoothing=0.0)
        assert np.array_equal(result.u_new[1], plain.u_new[1])
        # ... and the rows with finite distances keep their answers.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with mock.patch("repro.serving.foldin._spatial_prior", ref.spatial_prior):
                want = fold_in(model, x, observed)
        for row in (0, 2):
            assert np.array_equal(result.u_new[row], want.u_new[row])
            assert np.array_equal(result.imputed[row], want.imputed[row])


class TestNeighbourCountValidated:
    @pytest.mark.parametrize("p", [0, -1, 2.5, True, "3"])
    def test_rejected(self, p):
        model = _model(2, 30, "uniform", np.random.default_rng(0))
        with pytest.raises(ValidationError, match="p_neighbors"):
            fold_in(model, np.ones((2, model.n_cols)), p_neighbors=p)

    def test_numpy_integer_accepted(self):
        model = _model(2, 30, "uniform", np.random.default_rng(0))
        x = np.ones((2, model.n_cols))
        assert np.array_equal(
            fold_in(model, x, p_neighbors=np.int64(3)).imputed,
            fold_in(model, x, p_neighbors=3).imputed,
        )
