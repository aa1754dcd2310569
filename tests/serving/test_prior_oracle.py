"""The column-wise spatial prior is bit-identical to the broadcast build.

:func:`repro.serving.foldin._spatial_prior` sums squared distances one
spatial column at a time over training locations cached on the model;
:mod:`tests.serving.reference_prior` is the one-shot ``(B, N, L)``
broadcast it replaced.  For L < 8 the prior, and so every fold-in
answer, must be equal, not close: neighbour sets, their order and each
weight feed the solve.  Also pinned here: the location cache stays out
of the artifact, a row whose distances all overflow gets no prior
(and no warning), and ``p_neighbors`` is checked at the boundary.
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
from repro.serving import fold_in
from repro.serving.foldin import _spatial_prior

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
    v = rng.random((RANK, n_spatial + N_ATTRS)) * 2.0
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

    def test_artifact_hash_unchanged_by_cache(self, tmp_path):
        model = _model(2, 30, "uniform", np.random.default_rng(0))
        before = model.save(str(tmp_path / "before"))["content_hash"]
        fold_in(model, np.ones((3, model.n_cols)))
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
