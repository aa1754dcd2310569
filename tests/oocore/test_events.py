"""Live events from the oocore paths: equivalence, liveness, post-mortems.

The contract under test (DESIGN.md section 3.16): the serial streaming
path and the shard-parallel path emit the *same* ``(event, epoch,
round, block)`` set — worker-scoped events excluded — so a consumer
tailing the log cannot tell the execution strategies apart; a worker
that dies (SIGKILL, no chance to report) or raises leaves a persisted
post-mortem event in the JSONL file *before* the parent raises; and a
parallel fit feeds per-worker last-seen heartbeat gauges.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.core.initialization import init_factors
from repro.obs import (
    MemorySink,
    Recorder,
    RingBufferSink,
    read_records,
    record_to,
    use_recorder,
)
from repro.obs.metrics import get_metrics, reset_metrics
from repro.oocore import ArrayBlockSource, fit_oocore, fit_parallel

ROWS, COLS, RANK = 256, 9, 4
BLOCK_ROWS = 64


class KillerSource(ArrayBlockSource):
    """SIGKILLs the worker on ``kill_index`` — no error tuple possible."""

    kill_index = 1

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._parent_pid = os.getpid()

    def _materialize(self, index, start, stop):
        if index == self.kill_index and os.getpid() != self._parent_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return super()._materialize(index, start, stop)


class FaultySource(ArrayBlockSource):
    """Raises inside the worker; the error tuple must surface."""

    def _materialize(self, index, start, stop):
        if index == 2:
            raise ValueError("synthetic block corruption")
        return super()._materialize(index, start, stop)


@pytest.fixture
def problem(rng):
    x = rng.random((ROWS, COLS))
    observed = rng.random((ROWS, COLS)) > 0.3
    x_observed = np.where(observed, x, 0.0)
    u0, v0 = init_factors(x_observed, observed, RANK, random_state=0)
    return x_observed, observed, u0, v0


def _equivalence_key(record):
    attrs = record.get("attrs") or {}
    return (
        record["name"],
        attrs.get("epoch"),
        attrs.get("round"),
        attrs.get("block"),
    )


def _shared_events(records):
    """The strategy-independent event keys (worker events excluded)."""
    return sorted(
        _equivalence_key(r)
        for r in records
        if r["kind"] == "event" and not r["name"].startswith("oocore.worker")
    )


class TestSerialParallelEquivalence:
    def test_event_sets_match_across_strategies(self, problem):
        x_observed, observed, u0, v0 = problem
        source = ArrayBlockSource(x_observed, observed, BLOCK_ROWS)

        serial_sink = RingBufferSink(4096)
        with use_recorder(Recorder(serial_sink)):
            fit_oocore(
                source, v0, u0, epochs=2, jobs=1, frozen_prefix=2, seed=0
            )
        parallel_sink = RingBufferSink(4096)
        with use_recorder(Recorder(parallel_sink)):
            fit_parallel(
                source, v0, u0, epochs=2, jobs=2, frozen_prefix=2, seed=0
            )

        serial = _shared_events(serial_sink.tail())
        parallel = _shared_events(parallel_sink.tail())
        assert serial == parallel
        # The set is non-trivial: every block of every epoch is there.
        block_done = [k for k in serial if k[0] == "oocore.block_done"]
        assert len(block_done) == 2 * (ROWS // BLOCK_ROWS)

    def test_round_equals_block_index_on_both_paths(self, problem):
        # ``round`` is the V-step application sequence number; both
        # paths apply V steps in ascending block order, so it must
        # equal the block index (the physical scheduling round rides
        # along as the parallel-only ``sched_round``).
        x_observed, observed, u0, v0 = problem
        source = ArrayBlockSource(x_observed, observed, BLOCK_ROWS)
        sink = RingBufferSink(4096)
        with use_recorder(Recorder(sink)):
            fit_parallel(
                source, v0, u0, epochs=1, jobs=2, frozen_prefix=2, seed=0
            )
        done = [r for r in sink.tail() if r["name"] == "oocore.block_done"]
        assert done
        for record in done:
            attrs = record["attrs"]
            assert attrs["round"] == attrs["block"]
            assert attrs["sched_round"] == attrs["block"] // 2

    def test_workers_never_emit_events(self, problem):
        # All records come from the parent: the JSONL merge story needs
        # no cross-process ordering because only one pid ever writes.
        x_observed, observed, u0, v0 = problem
        source = ArrayBlockSource(x_observed, observed, BLOCK_ROWS)
        sink = RingBufferSink(4096)
        with use_recorder(Recorder(sink)):
            fit_parallel(
                source, v0, u0, epochs=1, jobs=2, frozen_prefix=2, seed=0
            )
        pids = {record["pid"] for record in sink.tail()}
        assert pids == {os.getpid()}

    def test_workers_record_nothing_under_any_recorder(self, problem, tmp_path):
        # Forked workers inherit the ambient recorder.  A JSONL file
        # would take their block-load spans under the worker's pid; a
        # memory sink's copy would drop them.  Both must hold exactly the
        # parent's records.
        x_observed, observed, u0, v0 = problem
        source = ArrayBlockSource(x_observed, observed, BLOCK_ROWS)
        log_path = str(tmp_path / "records.jsonl")
        with record_to(log_path):
            fit_parallel(source, v0, u0, epochs=1, jobs=2, frozen_prefix=2, seed=0)
        sink = MemorySink()
        with use_recorder(Recorder(sink)):
            fit_parallel(source, v0, u0, epochs=1, jobs=2, frozen_prefix=2, seed=0)
        by_file, in_memory = read_records(log_path), sink.records
        for records in (by_file, in_memory):
            assert {record["pid"] for record in records} == {os.getpid()}
            assert not [r for r in records if r["name"] == "oocore:block_load"]

        def shape(records):
            return sorted((r["kind"], r["name"]) for r in records if r["kind"] != "meta")

        assert shape(by_file) == shape(in_memory)
        assert any(name == "oocore.block_done" for _, name in shape(by_file))


class TestFaultPostMortems:
    def test_sigkilled_worker_leaves_persisted_death_event(
        self, problem, tmp_path
    ):
        # SIGKILL gives the worker no chance to report; the parent must
        # attribute the death from the heartbeat slab and persist the
        # event BEFORE raising, so the JSONL post-mortem survives.
        x_observed, observed, u0, v0 = problem
        source = KillerSource(x_observed, observed, BLOCK_ROWS)
        log_path = str(tmp_path / "events.jsonl")
        with record_to(log_path):
            with pytest.raises(RuntimeError, match="worker"):
                fit_parallel(
                    source, v0, u0,
                    epochs=2, jobs=2, frozen_prefix=2, seed=0, timeout=30.0,
                )
        records = read_records(log_path)
        deaths = [r for r in records if r["name"] == "oocore.worker_died"]
        assert len(deaths) == 1
        attrs = deaths[0]["attrs"]
        assert deaths[0]["level"] == "error"
        assert attrs["worker"] in (0, 1)
        assert attrs["block"] == KillerSource.kill_index
        assert attrs["exitcode"] == -signal.SIGKILL

    def test_worker_exception_event_survives_a_swallowed_raise(
        self, problem, tmp_path
    ):
        x_observed, observed, u0, v0 = problem
        source = FaultySource(x_observed, observed, BLOCK_ROWS)
        log_path = str(tmp_path / "events.jsonl")
        with record_to(log_path):
            try:
                fit_parallel(
                    source, v0, u0, epochs=1, jobs=2, frozen_prefix=2, seed=0
                )
            except RuntimeError:
                pass  # a sloppy caller swallows it; the log must not
        records = read_records(log_path)
        errors = [r for r in records if r["name"] == "oocore.worker_error"]
        assert len(errors) == 1
        attrs = errors[0]["attrs"]
        assert attrs["block"] == 2
        assert "synthetic block corruption" in attrs["detail"]


class TestWorkerLiveness:
    def test_parallel_fit_publishes_last_seen_gauges(self, problem):
        x_observed, observed, u0, v0 = problem
        source = ArrayBlockSource(x_observed, observed, BLOCK_ROWS)
        reset_metrics()
        fit_parallel(source, v0, u0, epochs=1, jobs=2, frozen_prefix=2, seed=0)
        snapshot = get_metrics().snapshot()
        gauges = {
            key: entry
            for key, entry in snapshot.items()
            if key.startswith("oocore.worker.last_seen_age_seconds")
        }
        # Every worker that stamped a heartbeat gets a labelled gauge;
        # at least one worker must have (the fit did finish).
        assert gauges
        for key, entry in gauges.items():
            assert entry["type"] == "gauge"
            assert entry["value"] >= 0.0
            assert 'worker="' in key
