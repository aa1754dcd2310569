"""The out-of-core benchmark: rows-vs-peak-RSS scaling + equivalence.

Two halves, both landing in ``results/BENCH_oocore.json`` through the
shared envelope writer and ratcheted by ``python -m repro.bench gate``:

- **Scaling curve.**  For each row count, a *fresh spawned subprocess*
  fits a vehicle-style ``lowrank_landmark`` matrix (13 columns, rank
  6) out of core via :class:`~repro.oocore.blocks.GeneratorBlockSource`
  and reports its ``ru_maxrss`` high-water mark — a clean per-fit peak
  because nothing else ran in that interpreter.  Each point also
  records ``dense_bytes``, the in-core materialization floor (data +
  observed-projection + mask + factors) the dense path would need.
  The memory acceptance compares *growth*: scaling the rows up across
  the curve must grow peak RSS by less than it grows the dense floor — the absolute RSS of a
  Python process is dominated by the interpreter at small sizes, but
  the growth isolates the data-dependent part.

- **Equivalence.**  On an in-core-sized instance: (a) the serial
  streaming fit replays the in-core SMFL stochastic fit bit-exactly
  (``shuffle=False``, block-aligned batches); (b) block-local
  shuffling costs nothing measurable in fit quality (objective ratio
  gated at 1.05).

Acceptance flags: ``serial_matches_incore_bit_exact``,
``bounded_peak_memory`` and ``landmark_block_intact``.
``tests/oocore/test_benchmark.py`` runs the smoke configuration
(``oocore_benchmark(smoke=True)``) and checks the schema, the accepted
metrics and every flag; refresh the committed file with
``record_oocore_baseline()``.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any

import numpy as np

from ..bench.io import write_bench_json

__all__ = ["oocore_benchmark", "record_oocore_baseline"]

_CURVE_ROWS = (10_000, 100_000, 1_000_000)
_CURVE_ROWS_SMOKE = (16_384, 131_072)
_COLS = 13  # vehicle-style: 2 spatial + 11 attribute columns
_RANK = 6


def _dense_bytes(rows: int, cols: int, rank: int) -> int:
    """The in-core materialization floor of the equivalent dense fit.

    ``x`` + its observed projection (float64 each), the boolean mask,
    and the factors — what :meth:`fit` materializes before the first
    iteration even starts.
    """
    return rows * cols * (8 + 8 + 1) + (rows * rank + rank * cols) * 8


def _probe_fit(params: dict[str, Any]) -> dict[str, Any]:
    """One out-of-core fit + this process's peak-RSS report.

    Runs inside a fresh spawned interpreter (see
    :func:`_scaling_probe_entry`) so ``ru_maxrss`` reflects only this
    fit.
    """
    import resource

    from ..core.landmarks import kmeans_landmarks
    from .blocks import GeneratorBlockSource
    from .streaming import fit_oocore, streaming_init

    source = GeneratorBlockSource(
        "lowrank_landmark",
        {"rows": params["rows"], "cols": params["cols"],
         "rank": params["rank"]},
        seed=params["seed"],
        block_rows=params["block_rows"],
    )
    block0 = source.block(0)
    landmarks = kmeans_landmarks(
        block0.x_observed[:, :2], params["rank"],
        observed=block0.observed[:, :2],
        random_state=params["seed"],
    )
    u0, v0 = streaming_init(
        source, params["rank"], random_state=params["seed"]
    )
    v0 = landmarks.inject(v0)
    start = time.perf_counter()
    result = fit_oocore(
        source, v0, u0,
        epochs=params["epochs"], frozen_prefix=2,
        shuffle=True, seed=params["seed"],
        learning_rate=params["learning_rate"],
    )
    fit_seconds = time.perf_counter() - start
    peak_rss = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024
    return {
        "rows": int(params["rows"]),
        "block_rows": int(source.block_rows),
        "n_blocks": int(source.n_blocks),
        "fit_seconds": float(fit_seconds),
        "peak_rss_bytes": peak_rss,
        "dense_bytes": int(
            _dense_bytes(params["rows"], params["cols"], params["rank"])
        ),
        "final_sampled_objective": float(result.sampled_objectives[-1]),
        "objective_per_row": float(
            result.sampled_objectives[-1] / params["rows"]
        ),
        "landmark_block_intact": bool(result.landmark_block_intact),
    }


def _scaling_probe_entry(conn, params: dict[str, Any]) -> None:
    """Spawn target: run :func:`_probe_fit`, ship the result back."""
    try:
        conn.send(("ok", _probe_fit(params)))
    except Exception as exc:
        import traceback

        conn.send(("error", f"{exc!r}\n{traceback.format_exc()}"))
    finally:
        conn.close()


def _run_probe(params: dict[str, Any], timeout: float = 1800.0) -> dict[str, Any]:
    """Run one scaling point in a fresh spawned interpreter."""
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_scaling_probe_entry, args=(child_conn, params)
    )
    proc.start()
    child_conn.close()
    try:
        if not parent_conn.poll(timeout):
            raise RuntimeError(
                f"scaling probe at rows={params['rows']} timed out"
            )
        status, payload = parent_conn.recv()
    finally:
        proc.join(timeout=30.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=10.0)
        parent_conn.close()
    if status != "ok":
        raise RuntimeError(
            f"scaling probe at rows={params['rows']} failed: {payload}"
        )
    return payload


def _equivalence(
    *, rows: int, block_rows: int, batch_size: int, epochs: int,
    seed: int, learning_rate: float,
) -> dict[str, Any]:
    """Sharded-vs-in-core checks on an in-core-sized instance."""
    from ..bench.specs import generate
    from ..core.smfl import SMFL
    from .blocks import ArrayBlockSource
    from .streaming import StreamingFactorizer

    bench = generate(
        "lowrank_landmark",
        {"rows": rows, "cols": _COLS, "rank": _RANK},
        seed=seed,
    )
    x_observed = bench.mask.project(np.nan_to_num(bench.x_missing))
    observed = bench.mask.observed
    kw: dict[str, Any] = dict(
        rank=_RANK, lam=0.0, method="stochastic", batch_size=batch_size,
        learning_rate=learning_rate, tol=0.0, max_iter=epochs,
        random_state=seed,
    )
    incore_aligned = SMFL(shuffle=False, **kw)
    incore_aligned.fit(bench.x_missing, bench.mask)
    init = SMFL(shuffle=False, **{**kw, "max_iter": 0})
    init.fit(bench.x_missing, bench.mask)
    prefix = init.landmarks_.n_spatial

    source = ArrayBlockSource(x_observed, observed, block_rows)
    streamer = StreamingFactorizer(
        rows, init.v_, u0=init.u_, frozen_prefix=prefix,
        batch_size=batch_size, shuffle=False, seed=seed,
        learning_rate=learning_rate,
    ).fit(source, epochs=incore_aligned.n_iter_)
    serial_bit_exact = bool(
        np.array_equal(streamer.u, incore_aligned.u_)
        and np.array_equal(streamer.v, incore_aligned.v_)
    )

    # Block-local vs global shuffling: same batch size, same epochs —
    # the only difference is the permutation scope.
    incore_shuffled = SMFL(shuffle=True, **kw)
    incore_shuffled.fit(bench.x_missing, bench.mask)
    stream_shuffled = StreamingFactorizer(
        rows, init.v_, u0=init.u_, frozen_prefix=prefix,
        batch_size=batch_size, shuffle=True, seed=seed,
        learning_rate=learning_rate,
    ).fit(source, epochs=incore_shuffled.n_iter_)
    obj_stream = stream_shuffled.evaluate(source)
    r = incore_shuffled.u_ @ incore_shuffled.v_ - x_observed
    r[~observed] = 0.0
    obj_incore = float(np.vdot(r, r))
    objective_ratio = float(obj_stream / max(obj_incore, 1e-12))
    return {
        "rows": int(rows),
        "block_rows": int(block_rows),
        "batch_size": int(batch_size),
        "epochs": int(epochs),
        "serial_bit_exact": serial_bit_exact,
        "objective_incore": obj_incore,
        "objective_streaming": float(obj_stream),
        "objective_ratio": objective_ratio,
        "landmark_block_intact": bool(
            streamer.landmark_block_intact
            and stream_shuffled.landmark_block_intact
        ),
    }


def oocore_benchmark(
    *,
    smoke: bool = False,
    seed: int = 0,
    epochs: int = 3,
    learning_rate: float = 1e-3,
) -> dict[str, Any]:
    """Run the scaling curve + equivalence checks; see module docstring."""
    curve_rows = _CURVE_ROWS_SMOKE if smoke else _CURVE_ROWS
    block_rows = 8_192 if smoke else 65_536
    curve = [
        _run_probe({
            "rows": rows,
            "cols": _COLS,
            "rank": _RANK,
            "block_rows": block_rows,
            "epochs": epochs,
            "seed": seed,
            # V gradients carry the full-dataset scale (2 n_rows /
            # block rows per block), so the stable step size shrinks
            # as 1/n_rows — cap lr * rows or the biggest curve points
            # diverge while the small ones converge.
            "learning_rate": min(learning_rate, 100.0 / rows),
        })
        for rows in curve_rows
    ]
    eq_rows = 1_024 if smoke else 2_048
    # V gradients are full-dataset-scaled (scale = 2 n_rows / block
    # rows), so the stable step size shrinks as 1/n_rows; pin the
    # equivalence run safely inside that regime.
    equivalence = _equivalence(
        rows=eq_rows,
        block_rows=128 if smoke else 256,
        batch_size=64,
        epochs=epochs,
        seed=seed,
        learning_rate=min(learning_rate, 0.25 / eq_rows),
    )
    rss_growth = curve[-1]["peak_rss_bytes"] - curve[0]["peak_rss_bytes"]
    dense_growth = curve[-1]["dense_bytes"] - curve[0]["dense_bytes"]
    return {
        "spec": "lowrank_landmark",
        "cols": _COLS,
        "rank": _RANK,
        "block_rows": block_rows,
        "epochs": int(epochs),
        "seed": int(seed),
        "learning_rate": float(learning_rate),
        "smoke": bool(smoke),
        "curve": curve,
        "peak_rss_growth_bytes": int(rss_growth),
        "dense_growth_bytes": int(dense_growth),
        "equivalence": equivalence,
        "acceptance": {
            "serial_matches_incore_bit_exact": bool(
                equivalence["serial_bit_exact"]
            ),
            "bounded_peak_memory": bool(rss_growth < dense_growth),
            "landmark_block_intact": bool(
                equivalence["landmark_block_intact"]
                and all(p["landmark_block_intact"] for p in curve)
            ),
        },
    }


def record_oocore_baseline(
    path: str = "results/BENCH_oocore.json", **kwargs: Any
) -> dict[str, Any]:
    """Run :func:`oocore_benchmark` and write the result as JSON."""
    results = oocore_benchmark(**kwargs)
    write_bench_json("oocore", results, path=path)
    return results
