"""serve_foldin: fold-in requests against a frozen SMFL model - the read path.

Set-up fits SMFL on the first 2000 rows of a ``paper``/vehicle dataset
and stands up a ``FoldInServer``.  Each op is one
``FoldInServer.fold_in`` request on a held-out pool of 4096 rows of the
same dataset: a closed loop with one client (the server is a
synchronous in-process call whose caller waits for each reply).  The
seeded request mix is 60% 1-row, 30% 16-row and 10% 256-row requests,
each row with its own missing mask (30% of attribute cells, spatial
columns observed), so a multi-row request almost never takes the
server's one-solve path for rows sharing a pattern.  p50 is the 1-row
class, p99 the 256-row class.

A traced op times the same request, then probes it outside the op's
own time: observation coercion, bare ``fold_in`` with a persistent
arena, and bare ``fold_in`` without the spatial prior.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from common import OpResult, fit_problems, output_problems, squared_error
from repro import SMFL
from repro.bench.specs import generate
from repro.engine.workspace import BufferArena
from repro.hashing import content_hash
from repro.model import coerce_observations
from repro.serving import FoldInServer, fold_in

TRAIN_ROWS = 2000
POOL_ROWS = 4096
MISSING = 0.3
PARAMS = {"dataset": "vehicle", "rows": TRAIN_ROWS + POOL_ROWS, "missing": MISSING}
RANK = 6
N_SPATIAL = 2
SIZES = (1, 16, 256)
SIZE_SHARES = (0.6, 0.3, 0.1)
N_REQUESTS = 4096
DATA_SEED = 0  # one served model; the benchmark seed draws the request stream


@dataclass(frozen=True)
class Request:
    x: np.ndarray  # zero-filled at unobserved cells
    observed: np.ndarray
    truth: np.ndarray


class Workload:
    MIN_OPS = 3000

    def __init__(self, seed: int, rep: int) -> None:
        self.seed = seed

    def setup(self) -> list[str]:
        self.data = generate("paper", PARAMS, seed=DATA_SEED)
        model = SMFL(rank=RANK, n_spatial=N_SPATIAL, random_state=DATA_SEED)
        model.fit(self.data.x_missing[:TRAIN_ROWS], self.data.mask.observed[:TRAIN_ROWS])
        report = model.fit_report_
        problems = fit_problems(report.n_increases, report.landmark_block_intact, landmarks=True)
        self.model = model.fitted_model()
        self.server = FoldInServer(self.model)
        self.arena = BufferArena()
        self.requests = self._requests(self.data.dataset.values[TRAIN_ROWS:])
        for size in SIZES:  # warm-up: one request of each class
            index = next(i for i, r in enumerate(self.requests) if r.x.shape[0] == size)
            problems += self.op(index, traced=False).problems
        return problems

    def _requests(self, pool: np.ndarray) -> list[Request]:
        rng = np.random.default_rng([self.seed, 1])
        n_attrs = pool.shape[1] - N_SPATIAL
        requests = []
        for size in rng.choice(SIZES, size=N_REQUESTS, p=SIZE_SHARES):
            start = int(rng.integers(0, POOL_ROWS - size + 1))
            truth = pool[start:start + size]
            attrs = rng.random((size, n_attrs)) >= MISSING
            observed = np.hstack([np.ones((size, N_SPATIAL), dtype=bool), attrs])
            requests.append(Request(np.where(observed, truth, 0.0), observed, truth))
        return requests

    def input_hashes(self) -> list[str]:
        stream = content_hash(
            {"seed": self.seed, "requests": N_REQUESTS},
            arrays={
                "x": np.concatenate([r.x for r in self.requests]),
                "observed": np.concatenate([r.observed for r in self.requests]),
            },
        )
        return [self.data.content_hash(), stream]

    def imputation_rms(self, results: list[OpResult]) -> float:
        """Pooled RMS over every injected cell of the requests."""
        return math.sqrt(sum(r.sq_err for r in results) / sum(r.n_err for r in results))

    def verify_trace(self) -> list[str]:
        return []

    def op(self, index: int, traced: bool) -> OpResult:
        request = self.requests[index % N_REQUESTS]
        start = time.perf_counter()
        answer = self.server.fold_in(request.x, request.observed)
        seconds = time.perf_counter() - start
        sq_err, n_err = squared_error(answer.imputed, request.truth, request.observed)
        result = OpResult(
            seconds=seconds,
            rows=request.x.shape[0],
            sq_err=sq_err,
            n_err=n_err,
            problems=output_problems(answer.imputed, request.x, request.observed),
        )
        if traced:
            result.layers = self._probe(request, seconds, answer.shared_pattern)
        return result

    def _probe(self, request: Request, seconds: float, shared: bool) -> dict[str, float]:
        t0 = time.perf_counter()
        coerce_observations(request.x, request.observed)
        t1 = time.perf_counter()
        fold_in(self.model, request.x, request.observed, arena=self.arena)
        t2 = time.perf_counter()
        fold_in(self.model, request.x, request.observed, spatial_smoothing=0.0,
                arena=self.arena)
        t3 = time.perf_counter()
        size = request.x.shape[0]
        layers = {
            f"serving.fold_in_us.b{size}": (t2 - t1) * 1e6,
            f"serving.prior_us.b{size}": ((t2 - t1) - (t3 - t2)) * 1e6,
            "obs.server_overhead_us": (seconds - (t2 - t1)) * 1e6,
            "model.coerce_us": (t1 - t0) * 1e6,
        }
        if size > 1:
            layers["serving.shared_pattern_frac"] = float(shared)
        return layers
