"""Benchmark launcher: one workload per process, BLAS pinned to one thread.

Run from the repository root::

    python3 perfbench/run.py --workload fit_cold --seed 1 --seconds 20 --trace 0

Each invocation is one fresh interpreter running one workload
(``fit_cold``, ``grid_table7`` or ``serve_foldin``, see README.md), so
``peak_rss_mb`` is that workload's own.  The run sets the workload up
``SETUP_REPEATS`` times (inputs generated from ``--seed`` plus one
warm-up op each; ``setup_s`` is the median), then runs ops in a closed
loop for ``--seconds`` and at least the workload's ``MIN_OPS``.  Every
op is checked; an op that raises or fails a check counts as failed.
Between ops the run samples the host's speed with a fixed kernel and
reports every time at one reference speed (see README.md), because the
shared host it was tuned on changes speed by up to 1.7x.

With ``--trace 0`` it reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
ops and reports the per-layer metrics (median over traced ops; ``_frac``
metrics are means, ``_mb`` ones maxima; a layer the workload never calls
reads 0) plus ``trace.overhead_pct``, the traced against the untraced
op p50.

Informational lines start with ``#``; the last line of stdout is the
JSON result.  Without the repository sources next to it the launcher
exits with code 2 and prints no result.
"""

import os

# Before numpy loads anywhere in this process: with default 2-thread
# OpenBLAS a 150-cell grid was reported to swing 2.87-4.61 s in one process.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fit_cold", "grid_table7", "serve_foldin")
SETUP_REPEATS = 3
DEADLINE_SECONDS = 150.0  # stop starting ops here; the run must end within 180 s
CALIBRATE_EVERY = 0.1  # seconds of ops between host-speed samples
TIME_UNITS = ("ms", "us", "s")


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _blas_name() -> str:
    import numpy as np

    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # older numpy: no dict mode
        return "unknown"


def _setup(module, seed: int) -> tuple[object, list[float], list[str]]:
    """Set up ``SETUP_REPEATS`` times; keep the last workload.

    Each repetition starts from an empty spatial-graph cache, as a
    fresh process would, so a repeat does not reuse the previous one's
    graph builds.  Each set-up time is rescaled by host-speed samples
    taken just before and after it.
    """
    from common import calibration_seconds, reference_scale
    from repro.spatial import clear_graph_cache

    seconds, problems = [], []
    for rep in range(SETUP_REPEATS):
        clear_graph_cache()
        workload = module.Workload(seed, rep)
        before = calibration_seconds()
        start = time.perf_counter()
        problems = workload.setup()
        elapsed = time.perf_counter() - start
        seconds.append(elapsed * reference_scale(before, calibration_seconds()))
        if problems:
            break
    return workload, seconds, problems


def _measure(workload, seconds: float, trace: bool, deadline: float):
    """Closed loop of ops with a host-speed sample every ``CALIBRATE_EVERY`` s.

    Every op that did not sample the host itself gets the scale of its
    window, from the samples taken before and after the window.
    Returns ``(traced, result)`` pairs and the samples.
    """
    from common import OpResult, calibration_seconds, reference_scale

    results, windows, samples = [], [], []
    start = time.perf_counter()
    window_start = -math.inf
    index = 0
    while index < workload.MIN_OPS or time.perf_counter() - start < seconds:
        if index and time.perf_counter() > deadline:
            break
        if time.perf_counter() - window_start >= CALIBRATE_EVERY:
            samples.append(calibration_seconds())
            window_start = time.perf_counter()
        traced = trace and index % 2 == 1
        try:
            result = workload.op(index, traced)
        except Exception as exc:  # a crashing op is a failed op; keep measuring
            traceback.print_exc(file=sys.stderr)
            result = OpResult(seconds=math.nan, rows=0, problems=[f"raised {exc!r}"])
        results.append((traced, result))
        windows.append(len(samples) - 1)
        index += 1
    samples.append(calibration_seconds())
    for (_, result), window in zip(results, windows):
        if result.scale is None:
            result.scale = reference_scale(samples[window], samples[window + 1])
    return results, samples


def _throughput(timed) -> float:
    """Rows per second of op time, each op size taken at its median time.

    Ops are grouped by the rows they impute (one group on fit_cold and
    the grid, one per request class when serving), so a single stalled
    op does not move the figure.
    """
    by_rows: dict[int, list[float]] = {}
    for r in timed:
        by_rows.setdefault(r.rows, []).append(r.reference_seconds)
    busy = sum(len(times) * statistics.median(times) for times in by_rows.values())
    return sum(r.rows for r in timed) / busy


def _end_to_end(workload, results, setup_seconds) -> dict[str, float]:
    timed = [r for _, r in results if math.isfinite(r.seconds)]
    op_ms = [r.reference_seconds * 1e3 for r in timed]
    # Quality over the first MIN_OPS ops only, so it is a function of the
    # seed; an op that raised has no output to score (it counts in `failed`).
    first = [r for _, r in results[:workload.MIN_OPS] if math.isfinite(r.seconds)]
    return {
        "setup_s": statistics.median(setup_seconds),
        "op_p50_ms": statistics.median(op_ms),
        "op_p99_ms": statistics.quantiles(op_ms, n=100, method="inclusive")[98],
        "throughput_rows_s": _throughput(timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "imputation_rms": workload.imputation_rms(first),
    }


def _per_layer(results, units: dict[str, str]) -> dict[str, float]:
    """Per-layer medians; times rescaled to the reference speed like the ops."""
    samples: dict[str, list[float]] = {}
    for traced, result in results:
        if traced and not result.problems:
            for name, value in result.layers.items():
                scale = result.scale if units.get(name) in TIME_UNITS else 1.0
                samples.setdefault(name, []).append(float(value) * scale)
    unknown = sorted(set(samples) - set(units))
    if unknown:
        raise KeyError(f"layer metrics missing from BENCHMARK.json: {unknown}")
    untraced = [r.reference_seconds for t, r in results if not t and math.isfinite(r.seconds)]
    traced = [r.reference_seconds for t, r in results if t and math.isfinite(r.seconds)]
    samples["trace.overhead_pct"] = [
        (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0
    ]
    return {name: _aggregate(name, samples.get(name, [0.0])) for name in units}


def _aggregate(name: str, values: list[float]) -> float:
    """Fractions average, memory takes its high-water mark, the rest the median."""
    if name.endswith("_frac"):
        return statistics.fmean(values)
    if name.endswith("_mb"):
        return max(values)
    return statistics.median(values)


def _spread(values: list[float]) -> list[float]:
    """min, quartiles and max, for reading a run's noise."""
    values = sorted(values)
    if len(values) < 2:
        return values
    return [values[0], *statistics.quantiles(values, n=4, method="inclusive"), values[-1]]


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_SECONDS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    module = importlib.import_module(args.workload)

    workload, setup_seconds, setup_problems = _setup(module, args.seed)
    hashes = workload.input_hashes()
    if args.trace and not setup_problems:
        setup_problems = workload.verify_trace()
    gc.collect()
    results, samples = _measure(workload, args.seconds, bool(args.trace), deadline)

    failed = [r for _, r in results if r.problems]
    timed = [r for _, r in results if math.isfinite(r.seconds)]
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = _per_layer(results, units)
    else:
        metrics = _end_to_end(workload, results, setup_seconds)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "blas_env": BLAS_ENV,
        "blas": _blas_name(),
        "setup_s_each": setup_seconds,
        "ops": len(results),
        "traced_ops": sum(1 for traced, _ in results if traced),
        "op_ms_min_q1_q2_q3_max": _spread([r.reference_seconds * 1e3 for r in timed]),
        "raw_op_ms_min_q1_q2_q3_max": _spread([r.seconds * 1e3 for r in timed]),
        "calibration_ms_min_q1_q2_q3_max": _spread([s * 1e3 for s in samples]),
        "problems": (setup_problems + [p for r in failed for p in r.problems])[:10],
        "inputs_digest": hashlib.sha256("".join(hashes).encode()).hexdigest(),
        "input_hashes": hashes,
    }
    print("# " + json.dumps(info))
    print(json.dumps({
        "correct": not setup_problems and not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
