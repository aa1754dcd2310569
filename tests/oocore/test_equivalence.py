"""Equivalence contract: sharded streaming reduces to the in-core fit.

The out-of-core path is only trustworthy if it is *provably the same
algorithm* as the in-core stochastic fit.  Two layers of that claim:

1. With ``shuffle=False`` and block-aligned batches, the streaming
   factorizer reproduces the in-core SGD fit **bit-exactly** — factors
   and telemetry.
2. ``fit_oocore`` is the serial streaming path, bit-exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.specs import generate
from repro.core.initialization import init_factors
from repro.core.smfl import SMFL
from repro.oocore import (
    ArrayBlockSource,
    GeneratorBlockSource,
    StreamingFactorizer,
    fit_oocore,
    streaming_init,
)

COLS, RANK = 9, 4


def _problem(rows: int, seed: int):
    bench = generate("lowrank_landmark", {"rows": rows, "cols": COLS, "rank": RANK}, seed=seed)
    x_observed = bench.mask.project(np.nan_to_num(bench.x_missing))
    return bench, x_observed, bench.mask.observed


def _incore(bench, *, epochs: int, batch_size: int, seed: int, shuffle: bool, lr: float = 1e-3):
    model = SMFL(
        rank=RANK, lam=0.0, method="stochastic", batch_size=batch_size,
        learning_rate=lr, tol=0.0, max_iter=epochs, random_state=seed, shuffle=shuffle,
    )
    # x_missing stores injected cells as 0.0 (not NaN) for this spec, so
    # the mask MUST ride along or the fit would treat them as observed.
    model.fit(bench.x_missing, bench.mask)
    return model


class TestSerialBitExactness:
    @given(
        rows_pow=st.integers(min_value=6, max_value=8),
        batch_pow=st.integers(min_value=4, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        epochs=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=8, deadline=None)
    def test_streaming_reduces_to_incore_bit_exactly(self, rows_pow, batch_pow, seed, epochs):
        """Unshuffled, block-aligned streaming == in-core SGD, bit for bit."""
        rows, batch_size = 2**rows_pow, 2**batch_pow
        block_rows = batch_size * 2  # block-aligned: block_rows % batch_size == 0
        bench, x_observed, observed = _problem(rows, seed)
        incore = _incore(bench, epochs=epochs, batch_size=batch_size, seed=seed, shuffle=False)

        init = _incore(bench, epochs=0, batch_size=batch_size, seed=seed, shuffle=False)
        streamer = StreamingFactorizer(
            rows, init.v_, u0=init.u_, frozen_prefix=init.landmarks_.n_spatial,
            batch_size=batch_size, shuffle=False, seed=seed, learning_rate=1e-3,
        ).fit(ArrayBlockSource(x_observed, observed, block_rows), epochs=incore.n_iter_)

        np.testing.assert_array_equal(streamer.u, incore.u_)
        np.testing.assert_array_equal(streamer.v, incore.v_)
        assert tuple(streamer.sampled_objectives) == incore.fit_report_.sampled_objectives
        assert streamer.landmark_block_intact

    def test_jobs1_oocore_matches_streaming_factorizer(self):
        rows, seed, epochs = 192, 11, 3
        _, x_observed, observed = _problem(rows, seed)
        u0, v0 = init_factors(x_observed, observed, RANK, random_state=seed)
        source = ArrayBlockSource(x_observed, observed, block_rows=64)
        a = fit_oocore(source, v0, u0, epochs=epochs, frozen_prefix=2, seed=seed)
        b = fit_oocore(source, v0, u0, epochs=epochs, frozen_prefix=2, seed=seed)
        streamer = StreamingFactorizer(
            rows, v0, u0=u0, frozen_prefix=2, batch_size=64, seed=seed
        ).fit(source, epochs=epochs)
        for other in (b, streamer):
            np.testing.assert_array_equal(a.u, other.u)
            np.testing.assert_array_equal(a.v, other.v)
            assert a.sampled_objectives == other.sampled_objectives
        assert a.epochs == epochs


class TestLandmarkFreeze:
    @pytest.mark.parametrize("prefix", [1, 2])
    def test_landmark_block_is_bit_frozen(self, prefix):
        rows, seed = 256, 17
        _, x_observed, observed = _problem(rows, seed)
        u0, v0 = init_factors(x_observed, observed, RANK, random_state=seed)
        source = ArrayBlockSource(x_observed, observed, block_rows=64)
        result = fit_oocore(
            source, v0, u0, epochs=3, frozen_prefix=prefix, seed=seed
        )
        np.testing.assert_array_equal(result.v[:, :prefix], v0[:, :prefix])
        assert result.landmark_block_intact
        # ...and the live block actually moved — frozen != inert fit.
        assert not np.array_equal(result.v[:, prefix:], v0[:, prefix:])


class TestStreamingInit:
    def test_single_block_source_matches_incore_init(self):
        rows, seed = 96, 21
        _, x_observed, observed = _problem(rows, seed)
        source = ArrayBlockSource(x_observed, observed, block_rows=rows)
        u_stream, v_stream = streaming_init(source, RANK, random_state=seed)
        u_incore, v_incore = init_factors(
            x_observed, observed, RANK, strategy="random", random_state=seed
        )
        np.testing.assert_array_equal(u_stream, u_incore)
        np.testing.assert_array_equal(v_stream, v_incore)

    def test_generator_source_init_is_deterministic(self):
        source = GeneratorBlockSource(
            "lowrank_landmark", {"rows": 64, "cols": COLS, "rank": RANK},
            seed=2, block_rows=32,
        )
        a = streaming_init(source, RANK, random_state=4)
        b = streaming_init(source, RANK, random_state=4)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
