"""The column-wise spatial prior is bit-identical to the broadcast build.

:func:`repro.serving.foldin._spatial_prior` sums squared distances one
spatial column at a time over training locations cached on the model,
scanning all of them or, for large batches, ranking candidates from
the model's grid index; :mod:`tests.serving.reference_prior` is the
one-shot ``(B, N, L)`` broadcast with a full stable sort.  For L < 8
the prior, and so every fold-in answer, must be equal, not close:
neighbour sets, their (distance, index) order and each weight feed the
solve.  The grid and the scan must agree on every input, wherever the
cut-over between them sits.  Also pinned here: the location and index
caches stay out of the artifact, a row whose distances all overflow
gets no prior (and no warning), and ``p_neighbors`` is checked at the
boundary.
"""

from __future__ import annotations

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
from repro.serving import fold_in, foldin
from repro.serving.foldin import _nearest, _spatial_prior
from repro.spatial.similarity import GridIndex

from . import reference_prior as ref

ORACLE_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

N_ATTRS = 3
RANK = 3


def _model(n_spatial: int, n_train: int, layout: str, rng) -> FittedModel:
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
    return FittedModel(
        method="smfl",
        u=u,
        v=v,
        rank=RANK,
        n_spatial=n_spatial,
        n_rows=n_train,
        n_cols=n_spatial + N_ATTRS,
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
    """Large batches whose placed rows reach the grid index.

    Returns ``(model, x, observed, p, huge_row)``; ``huge_row`` is the
    row holding a 1e300 coordinate (all its distances overflow), or
    ``None``.
    """
    n_spatial = draw(st.sampled_from([1, 2, 3, 4]))
    n_train = draw(st.sampled_from([3, 40, 600]))
    layout = draw(st.sampled_from(["uniform", "duplicates", "clustered", "lattice"]))
    n_rows = draw(st.sampled_from([foldin._GRID_MIN_ROWS, 256, 300]))
    p = draw(st.sampled_from([1, 3, 7, n_train, n_train + 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    model = _model(n_spatial, n_train, layout, rng)

    locations = model.training_locations.T
    lo, span = locations.min(axis=0), np.ptp(locations, axis=0)
    x = rng.random((n_rows, model.n_cols)) * 3.0
    queries = draw(st.sampled_from(["inside", "outside", "training rows", "half lattice"]))
    if queries == "inside":
        x[:, :n_spatial] = lo + rng.random((n_rows, n_spatial)) * span
    elif queries == "outside":
        # The bounding box tripled: most queries fall outside it.
        x[:, :n_spatial] = lo - span + rng.random((n_rows, n_spatial)) * 3 * span
    elif queries == "training rows":
        x[:, :n_spatial] = locations[rng.integers(0, n_train, n_rows)]
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
    huge_row = None
    if draw(st.booleans()):
        huge_row = int(rng.integers(0, n_rows))
        col = int(rng.integers(0, n_spatial))
        x[huge_row, col], observed[huge_row, col] = 1e300, True
    x[~observed] = 0.0
    return model, x, observed, p, huge_row


def _prior_via(path: str, model, x, observed, p):
    """``_spatial_prior`` with the grid forced on, forced off, or as is."""
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
        model, x, observed, p, huge_row = case
        with warnings.catch_warnings():
            # The reference overflows on the 1e300 row and gives it NaN.
            warnings.simplefilter("ignore", RuntimeWarning)
            want_prior, want_active = ref.spatial_prior(model, x, observed, p, BufferArena())
        keep = np.arange(x.shape[0]) != huge_row
        for path in ("grid", "scan", "default"):
            u_prior, active = _prior_via(path, model, x, observed, p)
            assert np.array_equal(u_prior[keep], want_prior[keep]), path
            assert np.array_equal(active[keep], want_active[keep]), path
            if huge_row is not None:
                assert active[huge_row] == 0.0
                assert not u_prior[huge_row].any()

    def test_default_cut_over_takes_the_grid(self):
        # 256 rows near training rows, N = 2000: most settle on the grid.
        rng = np.random.default_rng(3)
        model = _model(2, 2000, "uniform", rng)
        locations = model.training_locations.T
        x = rng.random((256, model.n_cols))
        x[:, :2] = locations[rng.integers(0, 2000, 256)] + 1e-3 * rng.random((256, 2))
        observed = np.ones(x.shape, dtype=bool)
        left = []
        real = foldin._grid_nearest
        with mock.patch.object(foldin, "_grid_nearest",
                               side_effect=lambda *a: left.append(real(*a)) or left[-1]):
            got = _spatial_prior(model, x, observed, 3, BufferArena())
        assert len(left) == 1
        assert left[0].size < 256 // 4  # rows left for the scan
        want = _prior_via("scan", model, x, observed, 3)
        assert np.array_equal(got[0], want[0])
        with mock.patch.object(foldin, "_grid_nearest") as spy:
            _spatial_prior(model, x[:8], observed[:8], 3, BufferArena())
        spy.assert_not_called()  # small batches scan


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
        index = model.training_grid
        assert isinstance(index, GridIndex)
        assert model.training_grid is index
        assert index.levels[0].members.size == 30
        assert "training_grid" not in {f.name for f in fields(FittedModel)}
        copy = replace(model, method="smf")
        assert copy.training_grid is not index
        assert len(copy.training_grid.levels) == len(index.levels)

    def test_non_finite_locations_have_no_grid_levels(self):
        model = _model(2, 30, "uniform", np.random.default_rng(0))
        u = np.array(model.u)
        u[3, 0] = np.inf
        broken = replace(model, u=u)
        x = np.ones((300, model.n_cols))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert broken.training_grid.levels == []
            grid = _prior_via("grid", broken, x, np.ones(x.shape, bool), 3)
            scan = _prior_via("scan", broken, x, np.ones(x.shape, bool), 3)
        assert np.array_equal(grid[0], scan[0], equal_nan=True)

    def test_artifact_hash_unchanged_by_cache(self, tmp_path):
        model = _model(2, 30, "uniform", np.random.default_rng(0))
        before = model.save(str(tmp_path / "before"))["content_hash"]
        fold_in(model, np.ones((3, model.n_cols)))
        model.training_grid
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
