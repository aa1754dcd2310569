"""Shared-memory shard-parallel fitting: disjoint ``U`` rows, shared ``V``.

Layout (DESIGN.md sections 3.15-3.16): four
``multiprocessing.shared_memory`` segments back the fit —

- ``U`` (``n x k`` float64): workers write disjoint row blocks, so no
  two processes ever touch the same cacheline of it in one round;
- ``V`` (``k x m`` float64): read-only to workers; only the parent
  writes it, and only *between* rounds;
- ``G`` (``jobs x k x m_live`` float64): one V-gradient slot per
  worker task of the current round;
- ``H`` (``jobs x 4`` float64): the heartbeat slab — each worker
  stamps ``[wall-clock ts, epoch, block, state]`` on task receipt
  (*before* loading the block, so a SIGKILL mid-load still leaves the
  victim block on record) and again with ``state=0`` on completion.
  Only the parent reads it: per-worker ``last_seen`` age gauges, stall
  events past ``stall_timeout``, and post-mortem attribution when a
  worker dies.

Scheduling is round-based: round ``r`` of an epoch covers blocks
``r*J .. r*J+J-1``.  Each worker task gathers its block (one batch =
the whole block, in :func:`~repro.oocore.blocks.block_order` order),
runs the same :func:`~repro.engine.stochastic.gathered_batch_u_step` /
:func:`~repro.engine.stochastic.sgd_grad_v` sequence as the serial
path against the round-stable ``V``, scatters its ``U`` rows, and
writes its ``V``-gradient into its slot.  The parent then applies the
projected ``V`` steps **sequentially in ascending block order** and
starts the next round.

Determinism contract: with ``jobs=1`` every round is one block, so
``V`` advances after every block exactly as in the serial streaming
path — the fits are bit-identical.  With ``jobs=N`` the only deviation
is within-round ``V`` staleness (block ``r*J+1`` steps against the
``V`` that block ``r*J`` has not yet updated); the sampling order,
scatter targets, and gradient operand layouts are unchanged, so the
factors agree to the tolerance pinned in
``tests/oocore/test_equivalence.py`` and gated by the benchmark.

Fault handling: a worker that dies mid-epoch (or raises) surfaces as a
:class:`RuntimeError` naming the worker *and the block it was on*
(read from the heartbeat slab) — and the same attribution is emitted
through the structured event log (``oocore.worker_died`` /
``worker_error``) **before** the raise, so the post-mortem survives
even when a caller swallows the exception.  The parent polls worker
liveness while draining results, and the ``finally`` block terminates
survivors and closes + unlinks every segment, so nothing hangs and no
shared memory leaks (``tests/oocore/test_faults.py``).

Event equivalence: the parent (never the workers) emits
``oocore.block_done`` with ``round`` equal to the block's V-step
application sequence number — the block index, since V steps apply in
ascending block order within each round — so the ``(event, epoch,
round, block)`` set matches the serial streaming path exactly; the
physical scheduling round rides along as the parallel-only
``sched_round`` attr, and worker-scoped events (``oocore.worker_*``)
are outside the equivalence contract.
"""

from __future__ import annotations

import queue as _queue
import time
from dataclasses import dataclass, field

import multiprocessing
import numpy as np

from ..exceptions import ValidationError
from ..obs.live.events import get_event_log
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from .blocks import RowBlockSource, block_order
from .streaming import StreamingFactorizer

__all__ = ["OocoreFitResult", "fit_parallel", "fit_oocore", "LAST_RUN_SHM_NAMES"]

LAST_RUN_SHM_NAMES: list[str] = []
"""Names of the segments the most recent ``fit_parallel`` created.

Refreshed at the start of every run; the fault-injection tests attach
to these names after a run (successful or failed) to prove the
segments were unlinked.
"""


@dataclass(frozen=True)
class OocoreFitResult:
    """The factors and telemetry of one out-of-core fit."""

    u: np.ndarray
    v: np.ndarray
    sampled_objectives: list[float] = field(default_factory=list)
    rows_touched: list[int] = field(default_factory=list)
    landmark_block_intact: bool = True
    jobs: int = 1
    epochs: int = 0


def _worker_main(
    worker_id: int,
    source: RowBlockSource,
    task_q,
    result_q,
    names: dict,
    shapes: dict,
    config: dict,
) -> None:
    """Persistent worker: attach the segments, drain tasks until sentinel."""
    from multiprocessing import shared_memory

    from ..engine.stochastic import gathered_batch_u_step, sgd_grad_v
    from ..engine.workspace import BufferArena

    shm_u = shared_memory.SharedMemory(name=names["u"])
    shm_v = shared_memory.SharedMemory(name=names["v"])
    shm_g = shared_memory.SharedMemory(name=names["grads"])
    shm_h = shared_memory.SharedMemory(name=names["heartbeat"])
    u = np.ndarray(shapes["u"], dtype=np.float64, buffer=shm_u.buf)
    v = np.ndarray(shapes["v"], dtype=np.float64, buffer=shm_v.buf)
    grads = np.ndarray(shapes["grads"], dtype=np.float64, buffer=shm_g.buf)
    heartbeat = np.ndarray(
        shapes["heartbeat"], dtype=np.float64, buffer=shm_h.buf
    )
    pulse = heartbeat[worker_id]
    live = slice(config["frozen_prefix"], None)
    n_rows = config["n_rows"]
    seed = config["seed"]
    shuffle = config["shuffle"]
    cap = source.block_rows
    m = source.n_cols
    k = shapes["u"][1]
    ws = BufferArena()
    try:
        while True:
            task = task_q.get()
            if task is None:
                break
            epoch, block_index, slot, lr = task
            # Stamp the heartbeat BEFORE touching the block: a SIGKILL
            # during the load still leaves the victim block on record.
            pulse[1] = epoch
            pulse[2] = block_index
            pulse[3] = 1.0
            pulse[0] = time.time()
            try:
                block = source.block(block_index)
                order = block_order(
                    block.rows, seed, epoch, block_index, shuffle
                )
                rows = block.rows
                x_rows = ws.buf("x_rows", (cap, m))[:rows]
                observed_rows = ws.buf("observed_rows", (cap, m), np.bool_)[:rows]
                unobserved_rows = ws.buf(
                    "unobserved_rows", (cap, m), np.bool_
                )[:rows]
                u_rows = ws.buf("u_rows", (cap, k))[:rows]
                np.take(block.x_observed, order, axis=0, out=x_rows)
                np.take(block.observed, order, axis=0, out=observed_rows)
                np.logical_not(observed_rows, out=unobserved_rows)
                u_block = u[block.start : block.stop]
                np.take(u_block, order, axis=0, out=u_rows)
                residual, sq = gathered_batch_u_step(
                    ws, u_rows, x_rows, observed_rows, unobserved_rows,
                    v, lr, cap,
                )
                u_block[order] = u_rows
                scale = 2.0 * n_rows / rows
                sgd_grad_v(
                    ws, u_rows, residual, live, scale, cap, m,
                    out=grads[slot],
                )
                pulse[3] = 0.0
                pulse[0] = time.time()
                result_q.put(("ok", block_index, worker_id, slot, sq, rows))
            except Exception as exc:  # surfaced as RuntimeError by the parent
                import traceback

                pulse[3] = 0.0
                pulse[0] = time.time()
                result_q.put(
                    ("error", block_index, worker_id,
                     f"{exc!r}\n{traceback.format_exc()}")
                )
    finally:
        for shm in (shm_u, shm_v, shm_g, shm_h):
            shm.close()


def fit_parallel(
    source: RowBlockSource,
    v0: np.ndarray,
    u0: np.ndarray,
    *,
    epochs: int,
    jobs: int,
    frozen_prefix: int = 0,
    shuffle: bool = True,
    seed: int = 0,
    learning_rate: float = 1e-3,
    lr_decay: float = 0.0,
    start_method: str | None = None,
    timeout: float = 120.0,
    stall_timeout: float = 5.0,
) -> OocoreFitResult:
    """Shard-parallel out-of-core fit with ``jobs`` worker processes.

    One batch per block (``batch_size == block_rows``) — the invariant
    that makes the round scheme well-defined.  ``timeout`` bounds the
    wait for any single worker result; exceeding it (or a worker dying)
    raises :class:`RuntimeError` after cleanup.  ``stall_timeout`` is
    the heartbeat-age threshold past which a still-working worker is
    reported as stalled (an ``oocore.worker_stalled`` event, once per
    ``(worker, epoch, block)``) without aborting the fit.
    """
    from multiprocessing import shared_memory

    if jobs < 1:
        raise ValidationError(f"param 'jobs' must be >= 1, got {jobs}")
    v0 = np.ascontiguousarray(v0, dtype=np.float64)
    u0 = np.ascontiguousarray(u0, dtype=np.float64)
    n, k = u0.shape
    m = v0.shape[1]
    if n != source.n_rows or m != source.n_cols:
        raise ValidationError(
            f"factor shapes ({n}, {k}) / ({v0.shape[0]}, {m}) do not match "
            f"source shape ({source.n_rows}, {source.n_cols})"
        )
    if not 0 <= int(frozen_prefix) <= m:
        raise ValidationError(
            f"param 'frozen_prefix' must be in [0, {m}], got {frozen_prefix}"
        )
    m_live = m - int(frozen_prefix)
    live = slice(int(frozen_prefix), None)
    v_frozen = np.array(v0[:, :frozen_prefix], order="C", copy=True)

    if start_method is None:
        start_method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
    ctx = multiprocessing.get_context(start_method)

    shm_u = shared_memory.SharedMemory(create=True, size=max(u0.nbytes, 8))
    shm_v = shared_memory.SharedMemory(create=True, size=max(v0.nbytes, 8))
    shm_g = shared_memory.SharedMemory(
        create=True, size=max(jobs * k * m_live * 8, 8)
    )
    shm_h = shared_memory.SharedMemory(create=True, size=jobs * 4 * 8)
    LAST_RUN_SHM_NAMES[:] = [shm_u.name, shm_v.name, shm_g.name, shm_h.name]
    u = np.ndarray((n, k), dtype=np.float64, buffer=shm_u.buf)
    v = np.ndarray((k, m), dtype=np.float64, buffer=shm_v.buf)
    grads = np.ndarray((jobs, k, m_live), dtype=np.float64, buffer=shm_g.buf)
    heartbeat = np.ndarray((jobs, 4), dtype=np.float64, buffer=shm_h.buf)
    np.copyto(u, u0)
    np.copyto(v, v0)
    heartbeat[:] = 0.0

    names = {
        "u": shm_u.name,
        "v": shm_v.name,
        "grads": shm_g.name,
        "heartbeat": shm_h.name,
    }
    shapes = {
        "u": (n, k),
        "v": (k, m),
        "grads": (jobs, k, m_live),
        "heartbeat": (jobs, 4),
    }
    config = {
        "frozen_prefix": int(frozen_prefix),
        "n_rows": n,
        "seed": int(seed),
        "shuffle": bool(shuffle),
    }
    task_q = ctx.Queue()
    result_q = ctx.Queue()
    workers = [
        ctx.Process(
            target=_worker_main,
            args=(i, source, task_q, result_q, names, shapes, config),
            daemon=True,
        )
        for i in range(jobs)
    ]
    sampled_objectives: list[float] = []
    rows_touched: list[int] = []
    from ..engine.stochastic import apply_v_step
    from ..engine.workspace import BufferArena

    parent_ws = BufferArena()
    tracer = get_tracer()
    events = get_event_log()
    metrics = get_metrics()
    stalls_reported: set[tuple[int, int, int]] = set()

    def publish_heartbeats() -> None:
        """Per-worker last-seen gauges + one-shot stall events."""
        now = time.time()
        for i in range(jobs):
            ts = heartbeat[i, 0]
            if ts <= 0.0:  # never stamped yet
                continue
            age = max(0.0, now - ts)
            metrics.gauge(
                "oocore.worker.last_seen_age_seconds", {"worker": str(i)}
            ).set(age)
            if heartbeat[i, 3] == 1.0 and age > stall_timeout:
                key = (i, int(heartbeat[i, 1]), int(heartbeat[i, 2]))
                if key not in stalls_reported:
                    stalls_reported.add(key)
                    if events.enabled:
                        events.emit(
                            "oocore.worker_stalled",
                            level="warning",
                            worker=key[0],
                            epoch=key[1],
                            block=key[2],
                            age_seconds=age,
                        )

    def worker_post_mortem(index: int) -> tuple[int | None, int | None]:
        """(epoch, block) the dead worker last stamped, if it ever did."""
        if heartbeat[index, 0] <= 0.0:
            return None, None
        return int(heartbeat[index, 1]), int(heartbeat[index, 2])

    try:
        for p in workers:
            p.start()
        if events.enabled:
            events.emit(
                "oocore.fit_start",
                jobs=jobs,
                epochs=int(epochs),
                blocks=source.n_blocks,
                n_rows=n,
            )
            for i, p in enumerate(workers):
                events.emit("oocore.worker_start", worker=i, pid=p.pid)
        n_blocks = source.n_blocks
        for epoch in range(int(epochs)):
            lr = learning_rate / (1.0 + lr_decay * epoch)
            epoch_sq: dict[int, float] = {}
            epoch_rows = 0
            epoch_t0 = time.perf_counter()
            if events.enabled:
                events.emit(
                    "oocore.epoch_start", epoch=epoch, blocks=n_blocks
                )
            with tracer.span(
                "oocore:epoch", epoch=epoch, blocks=n_blocks, jobs=jobs
            ):
                for round_start in range(0, n_blocks, jobs):
                    round_blocks = list(
                        range(round_start, min(round_start + jobs, n_blocks))
                    )
                    for slot, block_index in enumerate(round_blocks):
                        task_q.put((epoch, block_index, slot, lr))
                    done: dict[int, int] = {}
                    block_rows: dict[int, int] = {}
                    block_worker: dict[int, int] = {}
                    idle = 0.0
                    while len(done) < len(round_blocks):
                        try:
                            result = result_q.get(timeout=0.2)
                        except _queue.Empty:
                            publish_heartbeats()
                            dead = [
                                (i, p)
                                for i, p in enumerate(workers)
                                if not p.is_alive() and p.exitcode != 0
                            ]
                            if dead:
                                w_index, w_proc = dead[0]
                                hb_epoch, hb_block = worker_post_mortem(
                                    w_index
                                )
                                if events.enabled:
                                    # Persisted BEFORE the raise: the
                                    # post-mortem survives even when a
                                    # caller swallows the RuntimeError.
                                    events.emit(
                                        "oocore.worker_died",
                                        level="error",
                                        worker=w_index,
                                        pid=w_proc.pid,
                                        exitcode=w_proc.exitcode,
                                        epoch=hb_epoch,
                                        round=hb_block,
                                        block=hb_block,
                                    )
                                raise RuntimeError(
                                    f"oocore worker {w_index} "
                                    f"(pid={w_proc.pid}) died with exit "
                                    f"code {w_proc.exitcode} mid-epoch "
                                    f"{epoch} on block {hb_block}; "
                                    "aborting the fit"
                                )
                            idle += 0.2
                            if idle > timeout:
                                raise RuntimeError(
                                    "timed out waiting for oocore worker "
                                    f"results in epoch {epoch}"
                                )
                            continue
                        idle = 0.0
                        if result[0] == "error":
                            _, block_index, worker_id, detail = result
                            if events.enabled:
                                events.emit(
                                    "oocore.worker_error",
                                    level="error",
                                    worker=worker_id,
                                    epoch=epoch,
                                    round=block_index,
                                    block=block_index,
                                    detail=detail,
                                )
                            raise RuntimeError(
                                f"oocore worker {worker_id} failed on block "
                                f"{block_index}: {detail}"
                            )
                        _, block_index, worker_id, slot, sq, rows = result
                        done[block_index] = slot
                        block_rows[block_index] = int(rows)
                        block_worker[block_index] = int(worker_id)
                        epoch_sq[block_index] = float(sq)
                        epoch_rows += int(rows)
                    # Apply the V steps sequentially in ascending block
                    # order — the serial ordering, so jobs=1 is
                    # bit-identical to the streaming path.
                    with tracer.span(
                        "oocore:v_step", epoch=epoch, round=round_start // jobs
                    ):
                        for block_index in round_blocks:
                            apply_v_step(
                                v, grads[done[block_index]], lr, live,
                                parent_ws,
                            )
                            if events.enabled:
                                # round == block index: the V-step
                                # application sequence number, shared
                                # with the serial path.
                                events.emit(
                                    "oocore.block_done",
                                    epoch=epoch,
                                    round=block_index,
                                    block=block_index,
                                    rows=block_rows[block_index],
                                    worker=block_worker[block_index],
                                    sched_round=round_start // jobs,
                                )
                    metrics.counter("oocore.rounds_completed").inc()
                    publish_heartbeats()
            sampled_objectives.append(
                float(sum(epoch_sq[b] for b in sorted(epoch_sq)))
            )
            rows_touched.append(epoch_rows)
            epoch_seconds = time.perf_counter() - epoch_t0
            if epoch_seconds > 0:
                metrics.gauge("oocore.rows_per_second").set(
                    epoch_rows / epoch_seconds
                )
            if events.enabled:
                events.emit(
                    "oocore.epoch_done", epoch=epoch, rows=epoch_rows
                )
        if events.enabled:
            events.emit("oocore.fit_done", epochs=int(epochs))
        u_out = np.array(u, copy=True)
        v_out = np.array(v, copy=True)
    finally:
        for _ in workers:
            task_q.put(None)
        for p in workers:
            if p.pid is None:  # never started
                continue
            p.join(timeout=5.0)
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        for q in (task_q, result_q):
            q.close()
            q.cancel_join_thread()
        for shm in (shm_u, shm_v, shm_g, shm_h):
            shm.close()
            shm.unlink()
    return OocoreFitResult(
        u=u_out,
        v=v_out,
        sampled_objectives=sampled_objectives,
        rows_touched=rows_touched,
        landmark_block_intact=bool(
            np.array_equal(v_out[:, : int(frozen_prefix)], v_frozen)
        ),
        jobs=int(jobs),
        epochs=int(epochs),
    )


def fit_oocore(
    source: RowBlockSource,
    v0: np.ndarray,
    u0: np.ndarray,
    *,
    epochs: int,
    jobs: int = 1,
    frozen_prefix: int = 0,
    shuffle: bool = True,
    seed: int = 0,
    learning_rate: float = 1e-3,
    lr_decay: float = 0.0,
    start_method: str | None = None,
    stall_timeout: float = 5.0,
) -> OocoreFitResult:
    """Route an out-of-core fit: in-process at ``jobs=1``, else workers.

    Both routes take one batch per block (``batch_size ==
    block_rows``), so ``jobs=1`` here, single-process
    :class:`StreamingFactorizer` at block-sized batches, and
    ``fit_parallel(jobs=1)`` all produce bit-identical factors.
    """
    if jobs > 1:
        return fit_parallel(
            source, v0, u0,
            epochs=epochs, jobs=jobs, frozen_prefix=frozen_prefix,
            shuffle=shuffle, seed=seed, learning_rate=learning_rate,
            lr_decay=lr_decay, start_method=start_method,
            stall_timeout=stall_timeout,
        )
    streamer = StreamingFactorizer(
        source.n_rows,
        v0,
        u0=u0,
        frozen_prefix=frozen_prefix,
        batch_size=source.block_rows,
        shuffle=shuffle,
        seed=seed,
        learning_rate=learning_rate,
        lr_decay=lr_decay,
    ).fit(source, epochs=epochs)
    return OocoreFitResult(
        u=streamer.u,
        v=streamer.v,
        sampled_objectives=streamer.sampled_objectives,
        rows_touched=streamer.rows_touched,
        landmark_block_intact=streamer.landmark_block_intact,
        jobs=1,
        epochs=int(epochs),
    )
