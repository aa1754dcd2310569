"""fit_cold: one cold SMFL fit-and-impute per op - the analyst's path.

Each op is ``SMFL(rank=6, n_spatial=2).fit_impute`` on its own
vehicle dataset (N=2500, a 30% MCAR mask drawn from the seed), so every
op misses the spatial-graph cache and pays Proposition 1's ``N^2 L``
graph build.
Datasets come from a pool larger than the graph cache's LRU and are
visited in order, so a revisit is still a miss.

The traced op decomposes the same computation into the layers'
public calls - ``spatial_graph`` -> ``kmeans_landmarks`` ->
``SMFL(landmarks=...).fit`` -> ``impute`` - and returns an output
bit-identical to the untraced op (checked once per traced run).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from common import OpResult, fit_problems, graph_cache_counts, output_problems, squared_error
from repro import SMFL, kmeans_landmarks
from repro.bench.specs import BenchDataset
from repro.data import load_dataset
from repro.masking import MissingSpec, inject_missing
from repro.model import coerce_observations
from repro.spatial import graph_cache_info, spatial_graph

DATASET = "vehicle"
ROWS = 2500
MISSING = 0.3
RANK = 6
N_SPATIAL = 2
POOL = 64
WARMUP_INDEX = 900
DEFAULTS = SMFL(RANK, n_spatial=N_SPATIAL)  # graph and k-means settings fit uses


def _graph_mib(graph) -> float:
    """Array bytes of one cached graph: dense D, W, L plus the CSR views."""
    total = graph.similarity.nbytes + graph.degree.nbytes + graph.laplacian.nbytes
    for op in (graph.similarity_op, graph.laplacian_op):
        if not isinstance(op, np.ndarray):  # dense fallback is counted above
            total += op.data.nbytes + op.indices.nbytes + op.indptr.nbytes
    return total / 2**20


class Workload:
    # 20 datasets for the median RMS; with the warm-ups they also overfill
    # the graph LRU, so peak RSS always reaches its plateau.
    MIN_OPS = 20

    def __init__(self, seed: int, rep: int) -> None:
        self.seed = seed
        self.rep = rep

    def _dataset(self, index: int) -> BenchDataset:
        """Dataset ``index`` is the same for every seed; the seed draws its mask.

        Datasets differ up to 3x in how hard they are to impute, so
        seed-drawn datasets made ``imputation_rms`` swing 15-25% between
        seeds; seed-drawn masks over fixed datasets keep it comparable.
        """
        data = load_dataset(DATASET, n_rows=ROWS, random_state=index)
        x_missing, mask = inject_missing(
            data.values,
            MissingSpec(missing_rate=MISSING, columns=data.attribute_columns),
            random_state=np.random.default_rng([self.seed, index]),
        )
        return BenchDataset(
            spec="fit_cold", params={"dataset": DATASET, "rows": ROWS, "missing": MISSING,
                                     "data_seed": index},
            seed=self.seed, dataset=data, x_missing=x_missing, mask=mask,
        )

    def _model(self, dataset, landmarks=None) -> SMFL:
        return SMFL(rank=RANK, n_spatial=N_SPATIAL, landmarks=landmarks,
                    random_state=dataset.params["data_seed"])

    def setup(self) -> list[str]:
        self.pool = [self._dataset(i) for i in range(POOL)]
        self.warmup = self._dataset(WARMUP_INDEX + self.rep)
        self.warmup_imputed, result = self._op(self.warmup)
        return result.problems

    def input_hashes(self) -> list[str]:
        return [d.content_hash() for d in (*self.pool, self.warmup)]

    def imputation_rms(self, results: list[OpResult]) -> float:
        """Geometric mean of the ops' RMS.

        Datasets differ 2-4x in error, so every dataset counts by its
        relative change.  A median jumped 10-25% between seeds when one
        dataset's fit landed in another local minimum under another mask.
        """
        return statistics.geometric_mean(float(np.sqrt(r.sq_err / r.n_err)) for r in results)

    def verify_trace(self) -> list[str]:
        """The decomposed op reproduces the untraced output bit for bit."""
        imputed, _ = self._traced_op(self.warmup)
        if not np.array_equal(imputed, self.warmup_imputed):
            return ["traced decomposition differs from fit_impute output"]
        return []

    def op(self, index: int, traced: bool) -> OpResult:
        dataset = self.pool[index % POOL]
        _, result = self._traced_op(dataset) if traced else self._op(dataset)
        return result

    def _op(self, dataset) -> tuple[np.ndarray, OpResult]:
        start = time.perf_counter()
        model = self._model(dataset)
        imputed = model.fit_impute(dataset.x_missing, dataset.mask)
        seconds = time.perf_counter() - start
        return imputed, _result(seconds, imputed, dataset, model.fit_report_)

    def _traced_op(self, dataset) -> tuple[np.ndarray, OpResult]:
        hits, misses = graph_cache_counts()
        t0 = time.perf_counter()
        x, observation = coerce_observations(dataset.x_missing, dataset.mask)
        spatial = x[:, :N_SPATIAL]
        spatial_observed = observation.observed[:, :N_SPATIAL]
        t1 = time.perf_counter()
        graph = spatial_graph(
            spatial, DEFAULTS.p_neighbors, observed=spatial_observed,
            method=DEFAULTS.neighbor_method,
        )
        t2 = time.perf_counter()
        landmarks = kmeans_landmarks(
            spatial, RANK, observed=spatial_observed,
            max_iter=DEFAULTS.kmeans_max_iter, random_state=dataset.params["data_seed"],
        )
        t3 = time.perf_counter()
        model = self._model(dataset, landmarks).fit(dataset.x_missing, dataset.mask)
        t4 = time.perf_counter()
        imputed = model.impute()
        t5 = time.perf_counter()

        report = model.fit_report_
        result = _result(t5 - t0, imputed, dataset, report)
        hits_after, misses_after = graph_cache_counts()
        step_total = float(np.sum(report.wall_times))
        result.layers = {
            "spatial.graph_build_ms": (t2 - t1) * 1e3,
            "spatial.graph_cache_mb": graph_cache_info()["entries"] * _graph_mib(graph),
            "spatial.graph_cache_hits": hits_after - hits,
            "spatial.graph_cache_misses": misses_after - misses,
            "clustering.kmeans_ms": (t3 - t2) * 1e3,
            "core.fit_setup_ms": report.setup_seconds * 1e3,
            "engine.loop_ms": report.loop_seconds * 1e3,
            "engine.iters": report.n_iter,
            "engine.n_increases": report.n_increases,
            "engine.step_us": float(np.median(report.wall_times)) * 1e6,
            "engine.loop_overhead_ms": (report.loop_seconds - step_total) * 1e3,
            "engine.member_iter_us.smfl": report.loop_seconds / report.n_iter * 1e6,
            "model.impute_ms": (t5 - t4) * 1e3,
        }
        return imputed, result


def _result(seconds: float, imputed: np.ndarray, dataset, report) -> OpResult:
    observed = dataset.mask.observed
    sq_err, n_err = squared_error(imputed, dataset.dataset.values, observed)
    return OpResult(
        seconds=seconds,
        rows=imputed.shape[0],
        sq_err=sq_err,
        n_err=n_err,
        problems=output_problems(imputed, dataset.x_missing, observed)
        + fit_problems(report.n_increases, report.landmark_block_intact, landmarks=True),
    )
