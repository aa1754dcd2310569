"""Live events from the out-of-core fit.

The contract under test (DESIGN.md section 3.16): every block of every
epoch records one ``oocore.block_done`` event whose ``round`` - the
V-step application sequence number - equals the block index.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.initialization import init_factors
from repro.obs import Recorder, RingBufferSink, use_recorder
from repro.oocore import ArrayBlockSource, StreamingFactorizer, fit_oocore

ROWS, COLS, RANK = 256, 9, 4
BLOCK_ROWS = 64


@pytest.fixture
def problem(rng):
    x = rng.random((ROWS, COLS))
    observed = rng.random((ROWS, COLS)) > 0.3
    x_observed = np.where(observed, x, 0.0)
    u0, v0 = init_factors(x_observed, observed, RANK, random_state=0)
    return x_observed, observed, u0, v0


class TestBlockEvents:
    def test_round_equals_block_index_on_both_paths(self, problem):
        # ``round`` is the V-step application sequence number; blocks
        # apply their V steps in ascending order whether a block is one
        # batch (``fit_oocore``) or several (the streamer's mini-batches).
        x_observed, observed, u0, v0 = problem
        source = ArrayBlockSource(x_observed, observed, BLOCK_ROWS)
        fits = (
            lambda: fit_oocore(source, v0, u0, epochs=2, frozen_prefix=2, seed=0),
            lambda: StreamingFactorizer(
                ROWS, v0, u0=u0, frozen_prefix=2, batch_size=16, seed=0
            ).fit(source, epochs=2),
        )
        for fit in fits:
            sink = RingBufferSink(4096)
            with use_recorder(Recorder(sink)):
                fit()
            done = [r for r in sink.tail() if r["name"] == "oocore.block_done"]
            assert len(done) == 2 * (ROWS // BLOCK_ROWS)
            for record in done:
                attrs = record["attrs"]
                assert attrs["round"] == attrs["block"]
