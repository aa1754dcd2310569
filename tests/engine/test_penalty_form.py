"""The smoothness penalty taken from ``D·U``: same stops, one graph product.

Every fit evaluates ``Tr(Uᵀ L U)`` as ``Σ (deg ⊙ U − D U) ⊙ U``
(:func:`repro.core.objective.graph_penalty`), reusing the ``D·U`` the
next multiplicative U-step needs.  The tests pin three things:

- on every recorded iterate, the objective equals the ``L·U`` forms it
  replaced (the sparse ``Σ U ⊙ (L U)`` and the dense
  ``smoothness_penalty``) to 1e-13 relative, on every kernel path,
  looped and batched, so no stopping decision moves;
- a multiplicative iteration runs exactly one sparse graph product;
- the stop reason the fit reports, and that it measures no factor deltas.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import SMF, SMFL
from repro.core.batched_fit import fit_models_batched
from repro.core.objective import masked_frobenius_sq, smoothness_penalty
from repro.engine import Callback, ConvergenceMonitor, IterativeEngine, Telemetry
from repro.engine.callbacks import IterationRecord
from repro.engine.workspace import KernelWorkspace
from repro.obs import Recorder as StreamRecorder
from repro.obs import RingBufferSink, use_recorder

from .test_engine import Checks, CountingSolver, StopAtSolver

MODELS = {"smf": SMF, "smfl": SMFL}
# (update_rule, kernel_path): every full-batch path a fit can resolve to.
PATHS = [
    ("multiplicative", "workspace"),
    ("multiplicative", "sparse"),
    ("multiplicative", "reference"),
    ("gradient", "workspace"),
    ("gradient", "reference"),
]
TOLS = (1e-2, 1e-3, 1e-4, 1e-6)
MAX_ITER = 400


def _problem(seed: int, n: int = 48, m: int = 7, coords: int = 99) -> np.ndarray:
    """Seeded data; every seed shares the ``coords`` layout (one graph)."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, m)) * 4.0
    x[:, :2] = np.random.default_rng(coords).random((n, 2)) * 10.0
    observed = rng.random((n, m)) >= 0.3
    observed[:, :2] = True
    return np.where(observed, x, np.nan)


def _model(name, rule, path, seed, tol, **kwargs):
    extra = {"learning_rate": 1e-4} if rule == "gradient" else {}
    return MODELS[name](
        rank=3,
        lam=0.5,
        max_iter=MAX_ITER,
        tol=tol,
        update_rule=rule,
        kernel_path=path,
        random_state=seed,
        **extra,
        **kwargs,
    )


class Recorder(Callback):
    """Copies of every iterate, the start state first."""

    def on_fit_start(self, solver, state):
        self.states = [tuple(a.copy() for a in state)]

    def on_iteration(self, solver, record):
        self.states.append(tuple(a.copy() for a in record.state))


def _reference_objectives(model, x, states):
    """The replaced ``L·U`` forms on every iterate after the start."""
    observed = ~np.isnan(x)
    x_observed = np.where(observed, x, 0.0)
    graph = model._graph
    dense_l = graph.laplacian_op.toarray()
    sparse_form, dense_form = [], []
    for u, v in states[1:]:
        data = masked_frobenius_sq(x_observed, u, v, observed)
        old = float(np.sum(u * np.asarray(graph.laplacian_op @ u)))
        sparse_form.append(data + model.lam * max(old, 0.0))
        dense_form.append(data + model.lam * smoothness_penalty(u, dense_l))
    return np.array(sparse_form), np.array(dense_form)


def _stop_index(objectives, tol):
    monitor = ConvergenceMonitor(max_iter=len(objectives), tol=tol)
    for objective in objectives:
        monitor.record(objective)
        if monitor.converged:
            break
    return monitor.n_iter, monitor.converged


def _assert_close(history, reference):
    history = np.asarray(history)
    assert history.shape == reference.shape
    assert np.all(np.abs(history - reference) <= 1e-13 * np.abs(reference))


CASES = [
    pytest.param(name, rule, path, id=f"{name}-{rule}-{path}")
    for name in MODELS
    for rule, path in PATHS
]


class TestStopIterationInvariance:
    @pytest.mark.parametrize("name, rule, path", CASES)
    def test_looped(self, name, rule, path):
        # The reference records every iterate; the stopped fits run the
        # default cadence (every 10th iteration for the multiplicative
        # rule, falling to every iteration near tol) and must still stop
        # where the every-iteration sequence does.
        x = _problem(0)
        recorder = Recorder()
        model = _model(name, rule, path, 0, tol=0.0, eval_every=1)
        model.fit(x, callbacks=(recorder,))
        sparse_form, dense_form = _reference_objectives(model, x, recorder.states)
        _assert_close(model.objective_history_, sparse_form)
        _assert_close(model.objective_history_, dense_form)
        full = np.asarray(model.objective_history_)
        for tol in TOLS:
            checks = Checks()
            stopped = _model(name, rule, path, 0, tol=tol)
            stopped.fit(x, callbacks=(checks,))
            n_iter, converged = _stop_index(sparse_form, tol)
            assert stopped.n_iter_ == n_iter, tol
            assert stopped.converged_ == converged
            assert stopped.fit_report_.stop_reason == ("tol" if converged else "budget")
            # The stop iteration is the only thing tol changes.
            assert np.array_equal(stopped.u_, recorder.states[n_iter][0])
            # The checked history is the full one read at its checks.
            checked = np.asarray(checks.iterations) - 1
            assert np.array_equal(stopped.objective_history_, full[checked])

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("rule", ["multiplicative", "gradient"])
    def test_batched(self, name, rule):
        # Two seeds share one graph (the stacked path); one fit alone
        # takes the B == 1 path.  Both must stop where the reference
        # sequence of their looped twin stops.
        problems = [_problem(seed) for seed in range(2)]
        references = []
        for seed, x in enumerate(problems):
            recorder = Recorder()
            model = _model(name, rule, "workspace", seed, tol=0.0, eval_every=1)
            model.fit(x, callbacks=(recorder,))
            sparse_form, _ = _reference_objectives(model, x, recorder.states)
            references.append(sparse_form)
        for tol in (0.0, *TOLS):
            twins = [
                _model(name, rule, "workspace", s, tol=tol).fit(x)
                for s, x in enumerate(problems)
            ]
            for group in ([0, 1], [0]):
                jobs = [
                    (_model(name, rule, "workspace", s, tol=tol), problems[s], None)
                    for s in group
                ]
                fit_models_batched(jobs)
                for s, (model, _, _) in zip(group, jobs):
                    n_iter, converged = _stop_index(references[s], tol)
                    assert model.n_iter_ == n_iter, (tol, group)
                    assert model.converged_ == converged
                    assert model.fit_report_.stop_reason == (
                        "tol" if converged else "budget"
                    )
                    assert model.objective_history_ == twins[s].objective_history_
                    assert np.array_equal(model.u_, twins[s].u_)


class TestOneGraphProductPerIteration:
    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize(
        "path, batch",
        [
            ("workspace", None),
            ("sparse", None),
            ("workspace", [99]),
            ("workspace", [99, 99]),
            ("workspace", [98, 99]),
        ],
        ids=["workspace", "sparse", "b1", "b2-shared-graph", "b2-own-graphs"],
    )
    def test_n_iter_plus_one_similarity_products(self, monkeypatch, name, path, batch):
        # Per graph, whether one fit uses it or a stacked batch shares
        # it: one D·U per iteration plus the final objective's.  A
        # stack sharing the graph multiplies its block-diagonal copy
        # (built once per fit) by the member-major U; no node-major
        # (N, B·K) copy of U exists.
        calls: list[tuple[object, np.ndarray]] = []
        spmm = sp.csr_matrix.__matmul__

        def counting(op, other):
            calls.append((op, other))
            return spmm(op, other)

        stacks: list[KernelWorkspace] = []
        stacked = KernelWorkspace.stacked.__func__

        def spy(cls, fits, **kwargs):
            stacks.append(stacked(cls, fits, **kwargs))
            return stacks[-1]

        monkeypatch.setattr(sp.csr_matrix, "__matmul__", counting)
        monkeypatch.setattr(KernelWorkspace, "stacked", classmethod(spy))
        for max_iter in (5, 12):
            calls.clear()
            stacks.clear()
            jobs = [
                (
                    _model(name, "multiplicative", path, seed, tol=0.0, eval_every=1),
                    _problem(seed, coords=coords),
                    None,
                )
                for seed, coords in enumerate(batch or [99])
            ]
            for model, _, _ in jobs:
                model.max_iter = max_iter
            if batch is None:
                jobs[0][0].fit(jobs[0][1])
            else:
                fit_models_batched(jobs)
            for model, _, _ in jobs:
                assert model.n_iter_ == max_iter
                assert not any(op is model._graph.laplacian_op for op, _ in calls)
            shared = len(set(batch or [])) == 1 and len(batch) > 1
            if not shared:
                for model, _, _ in jobs:
                    graph = model._graph
                    n = sum(op is graph.similarity_op for op, _ in calls)
                    assert n == max_iter + 1
                continue
            (ws,) = stacks
            block = ws._graph_plan.similarity
            b, n, k = len(jobs), *jobs[0][0].u_.shape
            assert block.shape == (b * n, b * n)
            assert len(calls) == max_iter + 1
            assert all(op is block for op, _ in calls)
            assert all(u.shape == (b * n, k) for _, u in calls)
            assert all(buf.shape != (n, b * k) for buf in ws._buffers.values())


class TestStopReason:
    def test_engine_reasons(self):
        budget = IterativeEngine(max_iter=5, tol=0.0).run(CountingSolver(), 0)
        assert budget.stop_reason == "budget"
        tol = IterativeEngine(max_iter=100, tol=0.2).run(CountingSolver(), 0)
        assert tol.converged and tol.stop_reason == "tol"
        solver = IterativeEngine(max_iter=100, tol=0.0).run(StopAtSolver(4), 0)
        assert solver.converged and solver.stop_reason == "solver"
        vetoed = IterativeEngine(max_iter=6, tol=0.9).run(StopAtSolver(100), 0)
        assert not vetoed.converged and vetoed.stop_reason == "budget"

    def test_telemetry_and_event_carry_it(self):
        telemetry = Telemetry()
        sink = RingBufferSink()
        with use_recorder(StreamRecorder(sink)):
            IterativeEngine(max_iter=50, tol=0.2, callbacks=(telemetry,)).run(
                CountingSolver(), 0
            )
        assert telemetry.report().stop_reason == "tol"
        end = next(r for r in sink.tail() if r["name"] == "fit_done")
        assert end["attrs"]["stop_reason"] == "tol"

    def test_zero_budget_is_budget(self):
        model = SMF(rank=3, max_iter=0, random_state=0).fit(_problem(0))
        assert model.fit_report_.stop_reason == "budget"


class TestTelemetryDeltas:
    @pytest.mark.parametrize("name, rule, path", CASES)
    def test_factor_family_measures_none(self, name, rule, path):
        # Neither loop measures per-step factor changes any more; the
        # field stays (empty) so older reports still load.
        model = _model(name, rule, path, 1, tol=0.0)
        model.max_iter = 5
        model.fit(_problem(1))
        assert model.fit_report_.factor_deltas == {}

    def test_steady_state_allocates_no_factor_copies(self):
        rng = np.random.default_rng(0)
        factors = [rng.random((4000, 8)) for _ in range(4)]

        class Factors(CountingSolver):
            def factors(self, state):
                return {"u": factors[state % 4]}

        solver = Factors()
        telemetry = Telemetry()
        telemetry.on_fit_start(solver, 0)
        for i in range(1, 3):  # warm-up: the diff buffer is allocated once
            telemetry.on_iteration(solver, IterationRecord(i, None, 0.0, i))
        tracemalloc.start()
        try:
            for i in range(3, 9):
                telemetry.on_iteration(solver, IterationRecord(i, None, 0.0, i))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < factors[0].nbytes // 4
