"""Unit tests for repro.engine.workspace (the allocation-free kernels).

The per-iteration *equivalence* of the workspace paths against the
reference rules lives in ``test_kernel_equivalence.py`` (hypothesis
driven) and the steady-state allocation contract in
``test_allocations.py``; this module covers the structural pieces:
path resolution, the buffer arena, the Gram cache, the sparse index
structure, and the masked objective.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.workspace import (
    KERNEL_PATHS,
    SPARSE_DENSITY_THRESHOLD,
    BufferArena,
    GramCache,
    KernelWorkspace,
    ReferenceKernel,
    build_kernel,
    resolve_kernel_path,
)
from repro.core import SMF, SMFL, MaskedNMF
from repro.core.objective import masked_frobenius_sq
from repro.engine import BatchedFit, KernelContext
from repro.exceptions import ValidationError
from repro.spatial.similarity import knn_graph

scipy_sparse = pytest.importorskip("scipy.sparse")


def _problem(rng, n=30, m=12, k=4, rate=0.3, prefix=0):
    x = rng.random((n, m)) * 3
    observed = rng.random((n, m)) > rate
    if prefix:
        observed[:, :prefix] = True
    x_observed = np.where(observed, x, 0.0)
    u = rng.random((n, k))
    v = rng.random((k, m))
    return x_observed, observed, u, v


class TestResolveKernelPath:
    def test_kernel_paths_are_the_four_paths(self):
        assert KERNEL_PATHS == ("auto", "workspace", "sparse", "reference")

    @pytest.mark.parametrize("path", ["numba", "batched", "gpu"])
    def test_unknown_path_rejected_names_legal_values(self, rng, path):
        _, observed, _, _ = _problem(rng)
        with pytest.raises(ValidationError, match="kernel_path") as info:
            resolve_kernel_path(path, update_rule="multiplicative", observed=observed)
        for legal in KERNEL_PATHS:
            assert repr(legal) in str(info.value)
        # The models reject it at construction, before any fit work.
        with pytest.raises(ValidationError, match="kernel_path"):
            MaskedNMF(rank=2, kernel_path=path)

    def test_unknown_path_rejected(self, rng):
        _, observed, _, _ = _problem(rng)
        with pytest.raises(ValidationError, match="kernel_path"):
            resolve_kernel_path(
                "turbo", update_rule="multiplicative", observed=observed
            )

    def test_reference_passthrough(self, rng):
        _, observed, _, _ = _problem(rng)
        out = resolve_kernel_path(
            "reference", update_rule="multiplicative", observed=observed
        )
        assert out == "reference"

    def test_stochastic_rules_fall_back_to_reference(self, rng):
        _, observed, _, _ = _problem(rng)
        for rule in ("sgd", "svrg"):
            assert (
                resolve_kernel_path("auto", update_rule=rule, observed=observed)
                == "reference"
            )

    def test_sparse_requires_multiplicative(self, rng):
        _, observed, _, _ = _problem(rng)
        with pytest.raises(ValidationError, match="multiplicative"):
            resolve_kernel_path("sparse", update_rule="gradient", observed=observed)

    def test_auto_picks_sparse_below_density_threshold(self, rng):
        observed = rng.random((40, 20)) > (1 - SPARSE_DENSITY_THRESHOLD / 2)
        assert (
            resolve_kernel_path(
                "auto", update_rule="multiplicative", observed=observed
            )
            == "sparse"
        )

    def test_auto_stays_dense_at_golden_density(self, rng):
        # Missing rate 0.1 (the golden configurations) => density 0.9.
        observed = rng.random((40, 20)) > 0.1
        assert (
            resolve_kernel_path(
                "auto", update_rule="multiplicative", observed=observed
            )
            == "workspace"
        )

    def test_gradient_auto_resolves_to_workspace(self, rng):
        observed = rng.random((40, 20)) > 0.8  # sparse density, but gradient
        assert (
            resolve_kernel_path("auto", update_rule="gradient", observed=observed)
            == "workspace"
        )

    def test_all_legal_paths_resolve(self, rng):
        _, observed, _, _ = _problem(rng)
        for path in KERNEL_PATHS:
            out = resolve_kernel_path(
                path, update_rule="multiplicative", observed=observed
            )
            assert out in ("reference", "workspace", "sparse")


class TestBufferArena:
    def test_buf_reused_for_same_key(self):
        arena = BufferArena()
        a = arena.buf("x", (3, 4))
        b = arena.buf("x", (3, 4))
        assert a is b

    def test_buf_reallocates_on_shape_change(self):
        arena = BufferArena()
        a = arena.buf("x", (3, 4))
        b = arena.buf("x", (5, 4))
        assert a is not b and b.shape == (5, 4)

    def test_rows_reuse_one_allocation_until_outgrown(self):
        arena = BufferArena()
        big = arena.rows("x", 8, (3,))
        small = arena.rows("x", 2, (3,))
        assert small.shape == (2, 3) and small.base is big.base
        assert small.flags.c_contiguous
        grown = arena.rows("x", 9, (3,))
        assert grown.shape == (9, 3) and grown.base is not big.base
        assert arena.rows("x", 9, (4,)).shape == (9, 4)

    def test_out_for_never_aliases_current(self):
        arena = BufferArena()
        u = np.zeros((4, 2))
        first = arena.out_for("u", u)
        assert first is not u
        # Ping-pong: asking against the previous output returns the
        # other slot, and the set of slots stabilises at two arrays.
        second = arena.out_for("u", first)
        assert second is not first
        third = arena.out_for("u", second)
        assert third is first


class TestGramCache:
    def test_matches_direct_products(self, rng):
        x_observed, observed, u, v = _problem(rng, prefix=3)
        cache = GramCache(x_observed, v, 3)
        v_land = v[:, :3]
        assert np.allclose(cache.gram_vl, v_land @ v_land.T)
        assert np.allclose(cache.xl_vlt, x_observed[:, :3] @ v_land.T)

    def test_buffers_are_read_only(self, rng):
        x_observed, _, _, v = _problem(rng, prefix=2)
        cache = GramCache(x_observed, v, 2)
        with pytest.raises(ValueError):
            cache.gram_vl[0, 0] = 1.0
        with pytest.raises(ValueError):
            cache.xl_vlt[0, 0] = 1.0


class TestSparseObserved:
    def test_index_arrays_match_mask(self, rng):
        x_observed, observed, u, v = _problem(rng, rate=0.7)
        ws = KernelWorkspace(x_observed, observed, mode="sparse")
        sp = ws.sparse
        rows, cols = np.nonzero(observed)
        assert np.array_equal(sp.rows, rows)
        assert np.array_equal(sp.cols, cols)
        assert np.array_equal(sp.vals, x_observed[rows, cols])
        assert sp.nnz == int(observed.sum())

    def test_csr_matrices_share_structure(self, rng):
        x_observed, observed, _, _ = _problem(rng, rate=0.7)
        ws = KernelWorkspace(x_observed, observed, mode="sparse")
        sp = ws.sparse
        # scipy may rewrap (and downcast) the index arrays, but the
        # sparsity pattern is one structure and — critically — the
        # recon matrix must see in-place writes to ``recon_data``.
        assert np.array_equal(sp.recon_csr.indices, sp.x_csr.indices)
        assert np.array_equal(sp.recon_csr.indptr, sp.x_csr.indptr)
        assert np.shares_memory(sp.recon_csr.data, sp.recon_data)
        assert np.shares_memory(sp.x_csr.data, sp.vals)
        sp.recon_data[:] = 7.0
        assert (sp.recon_csr.data == 7.0).all()
        assert np.allclose(sp.x_csr.toarray(), x_observed)

    def test_flat_indices_address_live_block(self, rng):
        x_observed, observed, u, v = _problem(rng, rate=0.7, prefix=2)
        ws = KernelWorkspace(
            x_observed, observed, mode="sparse", frozen_prefix=2, v0=v
        )
        sp = ws.sparse
        assert sp.offset == 2
        dense = u @ v[:, 2:]
        taken = dense.reshape(-1)[sp.flat]
        gathered = (u[sp.rows] * v[:, 2:].T[sp.cols]).sum(axis=1)
        assert np.allclose(taken, gathered)

    def test_gram_skipped_when_landmark_columns_not_fully_observed(self, rng):
        x_observed, observed, u, v = _problem(rng, rate=0.7, prefix=0)
        observed[:, :2] = rng.random((observed.shape[0], 2)) > 0.5
        ws = KernelWorkspace(
            x_observed, observed, mode="sparse", frozen_prefix=2, v0=v
        )
        assert ws.gram is None
        assert ws.sparse.offset == 0

    def test_unknown_mode_rejected(self, rng):
        x_observed, observed, _, _ = _problem(rng)
        with pytest.raises(ValidationError, match="mode"):
            KernelWorkspace(x_observed, observed, mode="quantum")


class TestMaskedObjective:
    def test_dense_bit_identical_to_reference(self, rng):
        x_observed, observed, u, v = _problem(rng)
        ws = KernelWorkspace(x_observed, observed)
        expected = masked_frobenius_sq(x_observed, u, v, observed)
        assert ws.masked_objective(x_observed, u, v) == expected

    def test_dense_objective_memo_survives_repeat_calls(self, rng):
        x_observed, observed, u, v = _problem(rng)
        ws = KernelWorkspace(x_observed, observed)
        first = ws.masked_objective(x_observed, u, v)
        # Second call hits the recon memo; must return the same value.
        assert ws.masked_objective(x_observed, u, v) == first

    def test_sparse_close_to_reference(self, rng):
        x_observed, observed, u, v = _problem(rng, rate=0.8)
        ws = KernelWorkspace(x_observed, observed, mode="sparse")
        expected = masked_frobenius_sq(x_observed, u, v, observed)
        assert ws.masked_objective(x_observed, u, v) == pytest.approx(
            expected, rel=1e-12
        )

    def test_sparse_with_landmark_slab(self, rng):
        x_observed, observed, u, v = _problem(rng, rate=0.8, prefix=2)
        ws = KernelWorkspace(
            x_observed, observed, mode="sparse", frozen_prefix=2, v0=v
        )
        assert ws.gram is not None
        expected = masked_frobenius_sq(x_observed, u, v, observed)
        assert ws.masked_objective(x_observed, u, v) == pytest.approx(
            expected, rel=1e-12
        )


class TestFullObjective:
    """``KernelWorkspace.objective`` on a single fit with a graph term."""

    @pytest.mark.parametrize("cls", [SMF, SMFL])
    @pytest.mark.parametrize("rule", ["multiplicative", "gradient"])
    def test_single_fit_matches_model_objective(self, rng, cls, rule):
        x = rng.random((40, 6)) * 3
        x[rng.random(x.shape) < 0.2] = np.nan
        x[:, :2] = rng.random((40, 2)) * 10
        model = cls(
            rank=3, n_spatial=2, max_iter=4, tol=0.0, random_state=0,
            update_rule=rule, learning_rate=1e-3, kernel_path="workspace",
        ).fit(x)
        kernel = model._kernel
        x_observed = model._fit_mask.project(model._fit_x)
        observed = model._fit_mask.observed
        # The fit's last iterate (memoized products) and fresh copies.
        for u, v in ((model.u_, model.v_), (model.u_.copy(), model.v_.copy())):
            value = kernel.objective(x_observed, u, v)
            assert isinstance(value, float)
            assert value == model._objective(x_observed, u, v, observed)

    @staticmethod
    def _smf_40(rng):
        x = rng.random((40, 6)) * 3
        x[rng.random(x.shape) < 0.2] = np.nan
        x[:, :2] = rng.random((40, 2)) * 10
        return SMF(rank=3, n_spatial=2, random_state=0, kernel_path="workspace"), x

    def test_single_fit_before_first_step_keeps_the_penalty(self, rng):
        # The fit's workspace binds its graph terms at construction, so
        # an objective before any step already carries lam·penalty
        # (binding at the first step gave the data term alone).  The
        # model's own objective runs the reference rules here (the
        # plan's kernel is built where it runs), bit for bit the same.
        model, x = self._smf_40(rng)
        plan = model._fit_setup(x)
        kernel = model._fit_kernel(plan)
        value = kernel.objective(plan.x_observed, plan.u, plan.v)
        data = kernel.masked_objective(plan.x_observed, plan.u, plan.v)
        assert isinstance(value, float)
        assert value == model._objective(
            plan.x_observed, plan.u, plan.v, plan.observed
        )
        assert value > data

    def test_unbound_single_fit_refuses_objective(self, rng):
        model, x = self._smf_40(rng)
        plan = model._fit_setup(x)
        ws = KernelWorkspace(plan.x_observed, plan.observed)
        with pytest.raises(ValidationError, match="graph terms"):
            ws.objective(plan.x_observed, plan.u, plan.v)


def _knn_terms(n, seed, lam=0.5):
    """``lam`` and a kNN graph (p = 3) on seeded random coordinates."""
    coords = np.random.default_rng(seed).random((n, 2))
    similarity, degree, laplacian = knn_graph(coords, 3)
    return dict(lam=lam, similarity=similarity, degree=degree, laplacian=laplacian)


def _prefix_mask(v_shape, prefix):
    frozen = np.zeros(v_shape, dtype=bool)
    frozen[:, :prefix] = True
    return frozen


def _assert_steps_match(ws, x_observed, observed, u, v, ctx, steps=3):
    """``steps`` workspace steps, each after an objective at its inputs
    (so the U-step reads the memos), against ReferenceKernel."""
    ref = ReferenceKernel(observed)
    u_ref, v_ref = u, v
    for _ in range(steps):
        ws.objective(x_observed, u, v)
        u, v = ws.step(x_observed, observed, u, v, ctx)
        u_ref, v_ref = ref.step(x_observed, observed, u_ref, v_ref, ctx)
        assert np.array_equal(u, u_ref) and np.array_equal(v, v_ref)
    return u, v


class TestRebind:
    """The dense step binds its operands once and rebinds on every
    change of context, ``U`` shape or stack size, bit for bit."""

    def test_step_under_another_graph_drops_the_old_memos(self, rng):
        # The objective under graph A memoizes D_A·U and W_A·U at this
        # U; a step under graph B must not read them.
        x_observed, observed, u, v = _problem(rng, n=60, m=6, k=3)
        ctx_a = KernelContext(**_knn_terms(60, 1))
        ctx_b = KernelContext(**_knn_terms(60, 2))
        ws = KernelWorkspace(x_observed, observed, ctx=ctx_a, v0=v)
        ws.objective(x_observed, u, v)
        u_next, v_next = ws.step(x_observed, observed, u, v, ctx_b)
        fresh = KernelWorkspace(x_observed, observed, ctx=ctx_b, v0=v)
        for got in ((u_next, v_next), fresh.step(x_observed, observed, u, v, ctx_b)):
            want = ReferenceKernel(observed).step(x_observed, observed, u, v, ctx_b)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_context_switches_follow_lam_and_prefix(self, rng):
        x_observed, observed, u, v = _problem(rng, n=40, m=7, k=3, prefix=3)
        terms = _knn_terms(40, 3)
        contexts = [
            KernelContext(**terms),
            KernelContext(**{**terms, "lam": 0.1}, frozen_v=_prefix_mask(v.shape, 2)),
            KernelContext(frozen_v=_prefix_mask(v.shape, 3)),
            KernelContext(**_knn_terms(40, 4, lam=2.0), frozen_v=_prefix_mask(v.shape, 2)),
            KernelContext(**terms),
        ]
        ws = KernelWorkspace(x_observed, observed, ctx=contexts[0], v0=v)
        for ctx in contexts:
            u, v = _assert_steps_match(ws, x_observed, observed, u, v, ctx)

    def test_u_of_another_rank_rebinds(self, rng):
        # One context throughout: only U's shape tells the step to rebind.
        x_observed, observed, _, _ = _problem(rng, n=40, m=7, k=3)
        ctx = KernelContext(**_knn_terms(40, 5))
        ws = KernelWorkspace(x_observed, observed, ctx=ctx, v0=np.ones((3, 7)))
        for k in (3, 2, 4, 3):
            u, v = rng.random((40, k)), rng.random((k, 7))
            got = ws.step(x_observed, observed, u, v, ctx)
            want = ReferenceKernel(observed).step(x_observed, observed, u, v, ctx)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            _assert_steps_match(ws, x_observed, observed, *got, ctx)

    def test_objective_at_another_rank_rebinds(self, rng):
        # Before any step, only U's shape tells the objective and the
        # penalty that the bound plan's deg ⊙ U no longer fits.
        x_observed, observed, _, _ = _problem(rng, n=60, m=6, k=4)
        ctx = KernelContext(**_knn_terms(60, 6))
        ws = KernelWorkspace(x_observed, observed, ctx=ctx, v0=np.ones((4, 6)))
        ref = ReferenceKernel(observed)
        for k in (4, 3, 2, 4):
            u, v = rng.random((60, k)), rng.random((k, 6))
            penalty = ref.graph_penalty(u, ctx.similarity, ctx.degree)
            want = ref.masked_objective(x_observed, u, v) + ctx.lam * penalty
            assert ws.objective(x_observed, u, v) == want
            assert ws.graph_penalty(u.copy(), ctx.similarity, ctx.degree) == penalty

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "own-graphs"])
    def test_compaction_mid_fit_rebinds_the_stack(self, shared):
        n, m, k, prefix = 30, 7, 3, 2
        fits = []
        for i, lam in enumerate((0.5, 0.0, 0.2, 0.5)):
            x_observed, observed, u, v = _problem(np.random.default_rng(i), n, m, k, prefix=prefix)
            terms = _knn_terms(n, 7 if shared else 7 + i, lam)
            fits.append(BatchedFit(x_observed, observed, u, v, **terms))
        if shared:
            for f in fits[1:]:
                f.similarity, f.laplacian = fits[0].similarity, fits[0].laplacian
        ws = KernelWorkspace.stacked(fits)
        assert (ws._graph_plan.deg3 is not None) == shared
        frozen = _prefix_mask((k, m), prefix)
        ctx = KernelContext(frozen_v=frozen)
        contexts = [
            KernelContext(lam=f.lam, similarity=f.similarity, degree=f.degree,
                          laplacian=f.laplacian, frozen_v=frozen)
            for f in fits
        ]
        ref = [ReferenceKernel(f.observed) for f in fits]
        u3, v3 = np.stack([f.u0 for f in fits]), np.stack([f.v0 for f in fits])
        looped = [(f.u0, f.v0) for f in fits]
        active = [0, 1, 2, 3]
        for it in range(9):
            if it in (3, 6):
                keep = [0, 2, 3] if it == 3 else [0, 2]
                active = [active[p] for p in keep]
                u3, v3 = np.take(u3, keep, axis=0), np.take(v3, keep, axis=0)
                ws.compact(keep)
            if it % 2:
                ws.objective(ws.x_observed, u3, v3)
            u3, v3 = ws.step(ws.x_observed, None, u3, v3, ctx)
            for pos, i in enumerate(active):
                f = fits[i]
                looped[i] = ref[i].step(f.x_observed, f.observed, *looped[i], contexts[i])
                assert np.array_equal(u3[pos], looped[i][0])
                assert np.array_equal(v3[pos], looped[i][1])


class TestBuildKernelWorkspace:
    def test_reference_returns_reference_kernel(self, rng):
        x_observed, observed, u, v = _problem(rng)
        kernel = build_kernel(
            x_observed, observed,
            kernel_path="reference", update_rule="multiplicative",
        )
        assert isinstance(kernel, ReferenceKernel)
        assert kernel.masked_objective(x_observed, u, v) == masked_frobenius_sq(
            x_observed, u, v, observed
        )

    def test_workspace_mode_dense(self, rng):
        x_observed, observed, _, _ = _problem(rng)
        ws = build_kernel(
            x_observed, observed,
            kernel_path="workspace", update_rule="multiplicative",
        )
        assert isinstance(ws, KernelWorkspace) and ws.mode == "dense"

    def test_sparse_mode_with_prefix(self, rng):
        x_observed, observed, u, v = _problem(rng, rate=0.8, prefix=2)
        ws = build_kernel(
            x_observed, observed,
            kernel_path="sparse", update_rule="multiplicative",
            frozen_prefix=2, v0=v,
        )
        assert ws.mode == "sparse" and ws.gram is not None
