"""Steady-state allocation contract of the workspace kernels.

The tentpole claim of :mod:`repro.engine.workspace` is that once the
per-fit buffers exist, iterations allocate **no** new ``N x M`` (or
``N x K``) arrays — every pass is an ``out=``-form operation into the
arena.  ``tracemalloc`` (which numpy's allocator reports into) measures
the peak of warmed-up iterations directly; the reference rules allocate
several full matrices per step and serve as the control.  The dense
multiplicative step also reads its buffers from a record bound once, so
a warm step makes no named-buffer lookup at all.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.engine.batched import BatchedFit
from repro.engine.kernels import KernelContext
from repro.engine.workspace import BufferArena, KernelWorkspace, ReferenceKernel
from repro.spatial.similarity import knn_graph

N, M, K = 300, 80, 6
FULL_MATRIX_BYTES = N * M * 8


@pytest.fixture
def problem(rng):
    x = rng.random((N, M)) * 3.0
    observed = rng.random((N, M)) > 0.4
    x_observed = np.where(observed, x, 0.0)
    u = rng.random((N, K)) + 0.1
    v = rng.random((K, M)) + 0.1
    return x_observed, observed, u, v


def measure_peak(kernel, x_observed, observed, u, v, ctx, iters=5, objective="masked_objective"):
    """Peak allocated bytes across warmed-up step+objective iterations."""
    evaluate = getattr(kernel, objective)
    # Warm the arena: first iterations allocate every named buffer and
    # both ping-pong slots; afterwards the pools are steady.
    for _ in range(3):
        u, v = kernel.step(x_observed, observed, u, v, ctx)
        evaluate(x_observed, u, v)
    tracemalloc.start()
    try:
        for _ in range(iters):
            u, v = kernel.step(x_observed, observed, u, v, ctx)
            evaluate(x_observed, u, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _graph_terms(seed=7, lam=0.5):
    coords = np.random.default_rng(seed).random((N, 2))
    similarity, degree, laplacian = knn_graph(coords, 3)
    return dict(lam=lam, similarity=similarity, degree=degree, laplacian=laplacian)


def _landmark_ctx(**terms):
    frozen = np.zeros((K, M), dtype=bool)
    frozen[:, :2] = True
    return KernelContext(frozen_v=frozen, **terms)


def _bound_cases(problem):
    """``(kernel, x_observed, observed, u, v, ctx)`` for the dense
    multiplicative step: graph-free, a single fit with a graph term and
    a landmark prefix, and a shared-graph stack of ``B = 3``."""
    x_observed, observed, u, v = problem
    ctx = _landmark_ctx(**_graph_terms())
    fits = []
    for seed in range(3):
        frng = np.random.default_rng(seed)
        fits.append(BatchedFit(
            x_observed=np.where(observed, frng.random((N, M)) * 3.0, 0.0),
            observed=observed, u0=frng.random((N, K)) + 0.1,
            v0=frng.random((K, M)) + 0.1, **_graph_terms(),
        ))
    for f in fits[1:]:
        f.similarity = fits[0].similarity
    stack = KernelWorkspace.stacked(fits)
    return {
        "graph-free": (KernelWorkspace(x_observed, observed), x_observed, observed, u, v,
                       KernelContext()),
        "graph-landmarks": (KernelWorkspace(x_observed, observed, ctx=ctx, v0=v),
                            x_observed, observed, u, v, ctx),
        "shared-stack": (stack, stack.x_observed, None, np.stack([f.u0 for f in fits]),
                         np.stack([f.v0 for f in fits]), _landmark_ctx()),
    }


@pytest.mark.parametrize("rule", ["multiplicative", "gradient"])
def test_dense_workspace_steady_state_is_allocation_free(problem, rule):
    x_observed, observed, u, v = problem
    ws = KernelWorkspace(x_observed, observed, rule=rule)
    ctx = KernelContext(learning_rate=1e-3)
    peak = measure_peak(ws, x_observed, observed, u, v, ctx)
    # Far below one N x M matrix: only interpreter-level float/tuple
    # churn remains (the guard is 1/8 of a single full-matrix pass;
    # the reference path allocates several per iteration).
    assert peak < FULL_MATRIX_BYTES / 8


@pytest.mark.parametrize("case", ["graph-landmarks", "shared-stack"])
def test_bound_step_with_graph_terms_stays_below_one_pass(problem, case):
    kernel, x_observed, observed, u, v, ctx = _bound_cases(problem)[case]
    assert kernel._graph_plan.deg3 is not None
    peak = measure_peak(kernel, x_observed, observed, u, v, ctx, objective="objective")
    # scipy's O(N K) D·U result (per member) is the one array a step
    # allocates; no N x M pass.
    assert peak < FULL_MATRIX_BYTES


@pytest.mark.parametrize("case", ["graph-free", "graph-landmarks", "shared-stack"])
def test_warm_dense_steps_make_no_buffer_lookups(problem, monkeypatch, case):
    # The dense multiplicative step reads its bound record: once warm,
    # neither its steps nor the ones reading an objective's memos
    # resolve a named buffer.
    kernel, x_observed, observed, u, v, ctx = _bound_cases(problem)[case]
    for _ in range(2):
        u, v = kernel.step(x_observed, observed, u, v, ctx)
    lookups = []
    buf = BufferArena.buf

    def counting(arena, name, *args, **kwargs):
        lookups.append(name)
        return buf(arena, name, *args, **kwargs)

    for evaluate in (False, True, True, False):
        if evaluate:
            kernel.objective(x_observed, u, v)
        monkeypatch.setattr(BufferArena, "buf", counting)
        u, v = kernel.step(x_observed, observed, u, v, ctx)
        monkeypatch.setattr(BufferArena, "buf", buf)
    assert lookups == []


def test_sparse_workspace_steady_state_allocates_only_small_blocks(problem):
    pytest.importorskip("scipy.sparse")
    x_observed, observed, u, v = problem
    ws = KernelWorkspace(x_observed, observed, mode="sparse")
    peak = measure_peak(ws, x_observed, observed, u, v, KernelContext())
    # scipy's csr products allocate their (N x K)/(M x K) results —
    # O((N + M) K) per iteration, several alive at once — but never a
    # full N x M matrix, so the peak stays below a single dense pass.
    assert peak < FULL_MATRIX_BYTES


def test_reference_rules_allocate_full_matrices(problem):
    """Control: the naive rules allocate multiples of N x M per step —
    if this ever stops holding, the workspace guard above has lost its
    meaning and both thresholds need revisiting."""
    x_observed, observed, u, v = problem
    peak = measure_peak(
        ReferenceKernel(observed), x_observed, observed, u, v, KernelContext(),
        iters=2,
    )
    assert peak > FULL_MATRIX_BYTES
