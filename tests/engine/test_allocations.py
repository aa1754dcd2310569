"""Steady-state allocation contract of the workspace kernels.

The tentpole claim of :mod:`repro.engine.workspace` is that once the
per-fit buffers exist, iterations allocate **no** new ``N x M`` (or
``N x K``) arrays — every pass is an ``out=``-form operation into the
arena.  ``tracemalloc`` (which numpy's allocator reports into) measures
the peak of warmed-up iterations directly; the reference rules allocate
several full matrices per step and serve as the control.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.engine.kernels import KernelContext
from repro.engine.workspace import KernelWorkspace, ReferenceKernel

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


def measure_peak(kernel, x_observed, observed, u, v, ctx, iters=5):
    """Peak allocated bytes across warmed-up step+objective iterations."""
    # Warm the arena: first iterations allocate every named buffer and
    # both ping-pong slots; afterwards the pools are steady.
    for _ in range(3):
        u, v = kernel.step(x_observed, observed, u, v, ctx)
        kernel.masked_objective(x_observed, u, v)
    tracemalloc.start()
    try:
        for _ in range(iters):
            u, v = kernel.step(x_observed, observed, u, v, ctx)
            kernel.masked_objective(x_observed, u, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


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
