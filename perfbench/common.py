"""What every workload shares: the per-op result record and its checks.

A workload op returns an :class:`OpResult`: the op's own wall time
(measured by the workload around exactly the call that produces the
answer, so checks and trace probes stay outside it), the rows it
imputed, the squared error over its injected cells, the failed checks,
and - on traced ops - per-layer numbers keyed by the metric names in
``BENCHMARK.json``.

It also holds the host-speed calibration: a fixed kernel that uses
nothing from the package, timed between ops, by which the launcher
rescales every wall time to one reference speed.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.obs.metrics import get_metrics

# Median calibration-kernel time, in seconds, on the machine the benchmark
# was tuned on (2-vCPU Intel Xeon VM at 2.1 GHz nominal) in its slower
# clock state.  Op times are rescaled to this speed; see README.md.
REFERENCE_CALIBRATION_SECONDS = 1.7e-3

_CAL_MATRIX = np.random.default_rng(0).random((64, 64))
_CAL_POINTS = np.random.default_rng(1).random(400)
# Preallocated: a fresh 1 MiB array is slower to get after an op has
# churned the heap, which read as a slower host when it was not.
_CAL_PAIRWISE = np.empty((400, 400))


def _calibration_kernel() -> None:
    """Fixed work in the ops' three kinds: interpreter, small BLAS, and
    ufuncs over a pairwise array like a (small) graph build."""
    acc = 0
    for i in range(6000):
        acc += i * i
    for _ in range(40):
        _CAL_MATRIX @ _CAL_MATRIX
    np.subtract.outer(_CAL_POINTS, _CAL_POINTS, out=_CAL_PAIRWISE)
    np.square(_CAL_PAIRWISE, out=_CAL_PAIRWISE)
    np.negative(_CAL_PAIRWISE, out=_CAL_PAIRWISE)
    np.exp(_CAL_PAIRWISE, out=_CAL_PAIRWISE)


def reference_scale(before: float, after: float) -> float:
    """Reference over measured host speed, from the samples either side."""
    return REFERENCE_CALIBRATION_SECONDS / ((before + after) / 2)


def calibration_seconds() -> float:
    """One host-speed sample: the median of three timed calibration kernels."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _calibration_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class OpResult:
    seconds: float
    rows: int
    sq_err: float = 0.0
    n_err: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    # Reference over measured host speed during this op.  The launcher
    # sets it from the samples around the op unless the op sampled itself.
    scale: float | None = None

    @property
    def reference_seconds(self) -> float:
        return self.seconds * self.scale


def output_problems(imputed: np.ndarray, x: np.ndarray, observed: np.ndarray) -> list[str]:
    """Imputed output is finite and hands observed cells back verbatim."""
    problems = []
    if not np.isfinite(imputed).all():
        problems.append("non-finite imputed cells")
    if imputed.shape != x.shape or not np.array_equal(imputed[observed], x[observed]):
        problems.append("observed cells not returned verbatim")
    return problems


def fit_problems(n_increases: int, landmark_block_intact: bool | None, *, landmarks: bool) -> list[str]:
    """Propositions 5/7 (monotone objective) and the frozen landmark block."""
    problems = []
    if n_increases != 0:
        problems.append(f"objective increased {n_increases} times")
    if landmarks and landmark_block_intact is not True:
        problems.append(f"landmark block intact = {landmark_block_intact}")
    return problems


def squared_error(imputed: np.ndarray, truth: np.ndarray, observed: np.ndarray) -> tuple[float, int]:
    """Sum of squared errors over the injected (unobserved) cells, and their count."""
    missing = ~observed
    diff = imputed[missing] - truth[missing]
    return float(diff @ diff), int(missing.sum())


def graph_cache_counts() -> tuple[int, int]:
    """The spatial-graph cache's lifetime (hits, misses) in this process."""
    metrics = get_metrics()
    return (
        metrics.counter("spatial_graph_cache.hits").value,
        metrics.counter("spatial_graph_cache.misses").value,
    )
