"""Unit tests for the batched multi-fit kernel (repro.engine.batched).

The contract under test is bit-identity: a fit run inside a stack must
produce the same factor bits, objective history, ``n_iter``,
``converged`` and ``n_increases`` as its looped twin — including when
other members of the stack converge first and drop out.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SMF, SMFL, MaskedNMF
from repro.core.batched_fit import fit_models_batched
from repro.engine import (
    DEFAULT_EVAL_EVERY,
    BatchedFit,
    KernelContext,
    MultiFitReport,
    multi_fit,
)
from repro.engine.workspace import KernelWorkspace
from repro.exceptions import NumericalDivergenceError, ValidationError

from .test_engine import Checks

RANK = 3


def make_spatial_problem(n, m, missing, seed):
    rng = np.random.default_rng(seed)
    x = rng.random((n, m)) * 4.0
    x[:, :2] = rng.random((n, 2)) * 10.0
    observed = rng.random((n, m)) >= missing
    observed[:, :2] = True
    observed[0, 2] = True
    return np.where(observed, x, np.nan)


def make_shared_graph_problem(n, m, missing, seed):
    """Like :func:`make_spatial_problem`, but every seed shares one set
    of fully observed coordinates, so the members share one cached
    spatial graph (the runner's coalesced-cell case)."""
    x = make_spatial_problem(n, m, missing, seed)
    x[:, :2] = np.random.default_rng(12345).random((n, 2)) * 10.0
    return x


def fit_pair(factory, seeds, problem=make_spatial_problem, **fit_kwargs):
    """(batched models, looped models) fitted on identical problems."""
    batched, looped = [], []
    for seed in seeds:
        x = problem(24, 8, 0.3, seed)
        batched.append((factory(seed), x, None))
        looped.append((factory(seed), x, None))
    fit_models_batched([(m, x, mask) for m, x, mask in batched], **fit_kwargs)
    for model, x, mask in looped:
        model.fit(x)
    return batched, looped


def assert_models_identical(batched, looped):
    for (mb, _, _), (ml, _, _) in zip(batched, looped):
        assert np.array_equal(mb.u_, ml.u_)
        assert np.array_equal(mb.v_, ml.v_)
        assert mb.n_iter_ == ml.n_iter_
        assert mb.converged_ == ml.converged_
        assert mb.objective_history_ == ml.objective_history_
        rb, rl = mb.fit_report_, ml.fit_report_
        assert rb.n_increases == rl.n_increases
        assert rb.landmark_block_intact == rl.landmark_block_intact


def _memo_cases(names):
    """``(name, problem, eval_every)`` params; the plain case keeps its bare id.

    ``eval_every=3`` skips the objective on two of three iterations, so
    those U-steps find no memoized ``R_O(U V)`` / ``W·U`` and compute
    their own.  Shared-graph problems take the stacked ``W·U`` path,
    per-seed problems the per-member graph loop.
    """
    cases = []
    for name in names:
        for problem, tag in (
            (make_spatial_problem, ""), (make_shared_graph_problem, "-shared")
        ):
            for eval_every in (1, 3):
                suffix = tag + ("" if eval_every == 1 else f"-eval{eval_every}")
                cases.append(pytest.param(name, problem, eval_every, id=name + suffix))
    return cases


MODELS = {"nmf": MaskedNMF, "smf": SMF, "smfl": SMFL}


class TestBatchedVsLooped:
    @pytest.mark.parametrize("name, problem, eval_every", _memo_cases(MODELS))
    def test_bit_identical(self, name, problem, eval_every):
        def factory(seed):
            return MODELS[name](
                rank=RANK, max_iter=40, tol=0.0, random_state=seed,
                eval_every=eval_every,
            )

        batched, looped = fit_pair(factory, range(4), problem=problem)
        assert_models_identical(batched, looped)

    @staticmethod
    def _assert_gradient_identical(problem, eval_every):
        def factory(seed):
            return SMFL(
                rank=RANK,
                max_iter=30,
                tol=0.0,
                random_state=seed,
                update_rule="gradient",
                learning_rate=1e-4,
                eval_every=eval_every,
            )

        batched, looped = fit_pair(factory, range(3), problem=problem)
        assert_models_identical(batched, looped)

    def test_gradient_rule(self):
        self._assert_gradient_identical(make_spatial_problem, 1)

    @pytest.mark.parametrize("name, problem, eval_every", _memo_cases(["smfl"])[1:])
    def test_gradient_rule_memo_paths(self, name, problem, eval_every):
        self._assert_gradient_identical(problem, eval_every)

    def test_ragged_convergence_dropout(self):
        # A loose tolerance makes members converge at different
        # iterations, exercising the np.take compaction path; every
        # survivor must still match its looped twin bit-for-bit.
        def factory(seed):
            return SMFL(rank=RANK, max_iter=150, tol=2e-3, random_state=seed)

        batched, looped = fit_pair(factory, range(5))
        assert_models_identical(batched, looped)
        iters = sorted({m.n_iter_ for m, _, _ in batched})
        assert len(iters) > 1, "tolerance never produced ragged convergence"

    def test_ragged_dropout_shared_graph_skipped_evaluations(self, monkeypatch):
        # Members drop out (``compact``) while the memos hold products
        # of the pre-compaction stack; with ``eval_every=2`` the step
        # after a compaction also runs without an objective memo.
        plans = []
        compact = KernelWorkspace.compact

        def spy(ws, keep):
            compact(ws, keep)
            plan = ws._graph_plan
            plans.append(plan.similarity is not None and plan.deg3 is not None)

        monkeypatch.setattr(KernelWorkspace, "compact", spy)

        def factory(seed):
            return SMF(
                rank=RANK, max_iter=150, tol=2e-3, random_state=seed, eval_every=2
            )

        batched, looped = fit_pair(factory, range(5), problem=make_shared_graph_problem)
        assert_models_identical(batched, looped)
        assert plans and all(plans), "no compaction on the stacked shared-graph path"
        iters = sorted({m.n_iter_ for m, _, _ in batched})
        assert len(iters) > 1, "tolerance never produced ragged convergence"

    @pytest.mark.parametrize("cls", [SMF, SMFL], ids=["smf", "smfl"])
    def test_ragged_dropout_rebuilds_block_operator(self, monkeypatch, cls):
        # A shared-graph stack evaluated every step: the objective's
        # W·U and D·U memos are live when a member converges, and the
        # compacted stack multiplies a block-diagonal D at its new B.
        blocks = []
        compact = KernelWorkspace.compact

        def spy(ws, keep):
            old = ws._graph_plan.similarity
            compact(ws, keep)
            assert ws._wu_key is None and ws._du_key is None
            blocks.append((old, ws._graph_plan.similarity, len(keep)))

        monkeypatch.setattr(KernelWorkspace, "compact", spy)

        def factory(seed):
            return cls(rank=RANK, max_iter=150, tol=2e-3, random_state=seed)

        batched, looped = fit_pair(factory, range(5), problem=make_shared_graph_problem)
        assert_models_identical(batched, looped)
        assert blocks, "no compaction on the stacked shared-graph path"
        n = batched[0][0].u_.shape[0]
        for old, new, b in blocks:
            assert new is not old
            assert new.shape == (b * n, b * n)
        iters = sorted({m.n_iter_ for m, _, _ in batched})
        assert len(iters) > 1, "tolerance never produced ragged convergence"

    @staticmethod
    def _assert_mixed_identical(problem, eval_every):
        # nmf and smf cells with the same shape/rank stack together;
        # per-fit lam keeps the graph term out of the nmf members.
        jobs, looped = [], []
        for seed in range(2):
            x = problem(24, 8, 0.3, seed)
            for cls in (MaskedNMF, SMF):
                for out in (jobs, looped):
                    model = cls(
                        rank=RANK, max_iter=30, tol=0.0, random_state=seed,
                        eval_every=eval_every,
                    )
                    out.append((model, x, None))
        fit_models_batched(jobs)
        for model, x, _ in looped:
            model.fit(x)
        assert_models_identical(jobs, looped)

    def test_mixed_methods_share_one_group(self):
        self._assert_mixed_identical(make_spatial_problem, 1)

    @pytest.mark.parametrize("eval_every", [1, 3])
    def test_mixed_methods_shared_graph(self, eval_every):
        # The shared graph is stacked; the nmf members' ``lam`` of 0
        # turns their share of the stacked graph terms into exact zeros.
        self._assert_mixed_identical(make_shared_graph_problem, eval_every)

    def test_landmark_prefix_stays_bit_frozen(self):
        batched, _ = fit_pair(
            lambda seed: SMFL(rank=RANK, max_iter=40, tol=0.0, random_state=seed),
            range(3),
        )
        for model, _, _ in batched:
            assert model.fit_report_.landmark_block_intact is True


class TestDefaultCadence:
    """The default check cadence moves no factor bit, looped or stacked."""

    @pytest.mark.parametrize(
        "tol, max_iter", [(0.0, 45), (2e-5, 300)], ids=["budget", "tol"]
    )
    @pytest.mark.parametrize("name", MODELS)
    def test_matches_every_iteration_checks(self, name, tol, max_iter):
        # At tol=2e-5 the fits check every 10th iteration, then every
        # iteration once near tol, and converge at different iterations
        # (ragged dropout from the stack).
        def make(seed, **kwargs):
            return MODELS[name](
                rank=RANK, max_iter=max_iter, tol=tol, random_state=seed, **kwargs
            )

        problems = [make_shared_graph_problem(24, 8, 0.3, seed) for seed in range(4)]
        full = [make(seed, eval_every=1).fit(x) for seed, x in enumerate(problems)]
        looped, checks = [], []
        for seed, x in enumerate(problems):
            checks.append(Checks())
            looped.append(make(seed).fit(x, callbacks=(checks[-1],)))
        stacked = [(make(seed), x, None) for seed, x in enumerate(problems)]
        fit_models_batched(stacked)
        assert looped[0].eval_every == DEFAULT_EVAL_EVERY
        for ref, one, check, (member, _, _) in zip(full, looped, checks, stacked):
            for model in (one, member):
                assert np.array_equal(model.u_, ref.u_)
                assert np.array_equal(model.v_, ref.v_)
                assert np.array_equal(model.impute(), ref.impute())
                assert model.n_iter_ == ref.n_iter_
                assert model.converged_ == ref.converged_
                assert (
                    model.fit_report_.landmark_block_intact
                    == ref.fit_report_.landmark_block_intact
                )
            # The short history is the full one read at the checks.
            history = np.asarray(ref.objective_history_)
            assert one.objective_history_ == list(history[np.asarray(check.iterations) - 1])
            assert member.objective_history_ == one.objective_history_
            assert len(one.objective_history_) < len(history)
        if tol:
            assert len({m.n_iter_ for m in full}) > 1, "no ragged convergence"

    def test_fit_observations_carry_the_cadence(self):
        from repro.obs import Recorder, RingBufferSink, use_recorder

        x = make_spatial_problem(24, 8, 0.3, 0)
        sink = RingBufferSink()
        with use_recorder(Recorder(sink)):
            SMF(rank=RANK, max_iter=5, random_state=0).fit(x)
            SMF(rank=RANK, max_iter=5, update_rule="gradient", random_state=0).fit(x)
            fit_models_batched(
                [(SMF(rank=RANK, max_iter=5, random_state=s), x, None) for s in (0, 1)]
            )
        done = {
            (r["name"], r["attrs"].get("eval_every"))
            for r in sink.tail()
            if r["name"] in ("fit_done", "batch.fit_done")
        }
        assert done == {
            ("fit_done", DEFAULT_EVAL_EVERY),
            ("fit_done", 1),
            ("batch.fit_done", DEFAULT_EVAL_EVERY),
        }


class TestMultiFitAPI:
    def _fits(self, b, n=16, m=6, k=2):
        fits = []
        for seed in range(b):
            rng = np.random.default_rng(seed)
            x = rng.random((n, m))
            observed = rng.random((n, m)) > 0.2
            fits.append(
                BatchedFit(
                    x_observed=np.where(observed, x, 0.0),
                    observed=observed,
                    u0=rng.random((n, k)) + 0.1,
                    v0=rng.random((k, m)) + 0.1,
                )
            )
        return fits

    def test_empty_fits_rejected(self):
        with pytest.raises(ValidationError):
            multi_fit([])

    def test_unknown_update_rule_rejected(self):
        with pytest.raises(ValidationError):
            multi_fit(self._fits(2), update_rule="sgd")

    def test_mismatched_shapes_rejected(self):
        fits = self._fits(1) + self._fits(1, n=20)
        with pytest.raises(ValidationError):
            multi_fit(fits, max_iter=1)

    def test_graph_term_requires_operators(self):
        fit = self._fits(1)[0]
        with pytest.raises(ValidationError):
            BatchedFit(
                x_observed=fit.x_observed,
                observed=fit.observed,
                u0=fit.u0,
                v0=fit.v0,
                lam=0.5,
            )

    def test_report_split_preserves_order_and_counts(self):
        report = multi_fit(self._fits(3), max_iter=5, tol=0.0)
        assert isinstance(report, MultiFitReport)
        assert report.n_fits == 3
        assert len(report.split()) == 3
        assert report.batch_iterations == 5
        assert sum(report.batch_sizes) == 15  # 3 members x 5 iterations
        for member in report.split():
            assert member.n_iter == 5
            assert len(member.objective_history) == 5

    def test_max_iter_zero_returns_inits(self):
        fits = self._fits(2)
        report = multi_fit(fits, max_iter=0)
        for fit, member in zip(fits, report.split()):
            assert np.array_equal(member.u, fit.u0)
            assert np.array_equal(member.v, fit.v0)
            assert member.n_iter == 0
            assert not member.converged

    @pytest.mark.parametrize("cls", [MaskedNMF, SMF, SMFL])
    def test_one_job_leaves_the_model_as_fit_does(self, cls):
        # A one-member group runs the model's own engine path, so the
        # model ends exactly as after ``fit``, factor deltas included
        # (only the engine's telemetry records them).
        x = make_spatial_problem(24, 8, 0.3, 0)
        alone = cls(rank=RANK, max_iter=25, tol=0.0, random_state=0)
        looped = cls(rank=RANK, max_iter=25, tol=0.0, random_state=0)
        (report,) = fit_models_batched([(alone, x, None)])
        looped.fit(x)
        assert report is alone.fit_report_
        assert np.array_equal(alone.u_, looped.u_)
        assert np.array_equal(alone.v_, looped.v_)
        assert alone.objective_history_ == looped.objective_history_
        assert alone.n_iter_ == looped.n_iter_ == 25
        deltas = alone.fit_report_.factor_deltas
        assert deltas and deltas == looped.fit_report_.factor_deltas


class TestStackBooks:
    """A stack keeps per-member books only at iterations where some
    active member is due; the members' clocks come from the stack's."""

    def test_books_follow_the_members_checks(self, monkeypatch):
        import repro.core.batched_fit as batched_fit

        results, calls = [], []
        real_multi_fit = batched_fit.multi_fit

        def spy_multi_fit(fits, **kwargs):
            results.append(real_multi_fit(fits, **kwargs))
            return results[-1]

        def spy(name):
            real = getattr(KernelWorkspace, name)

            def method(ws, *args):
                if ws.members is not None:
                    calls.append(name)
                return real(ws, *args)

            return method

        monkeypatch.setattr(batched_fit, "multi_fit", spy_multi_fit)
        monkeypatch.setattr(KernelWorkspace, "step", spy("step"))
        monkeypatch.setattr(KernelWorkspace, "objective", spy("objective"))

        def make(seed):
            return SMFL(rank=RANK, max_iter=300, tol=2e-5, random_state=seed)

        problems = [make_shared_graph_problem(24, 8, 0.3, seed) for seed in range(4)]
        checks = []
        for seed, x in enumerate(problems):
            checks.append(Checks())
            make(seed).fit(x, callbacks=(checks[-1],))
        fit_models_batched([(make(seed), x, None) for seed, x in enumerate(problems)])
        (result,) = results

        evaluated, steps = [], 0
        for name in calls:
            if name == "step":
                steps += 1
            else:
                evaluated.append(steps)
        # The objective runs exactly where some looped twin checks.
        assert evaluated == sorted(set().union(*(c.iterations for c in checks)))
        n_iters = [report.n_iter for report in result.reports]
        assert len(set(n_iters)) > 1, "no ragged dropout"
        assert steps == result.batch_iterations == max(n_iters)
        near_tol = [i for c in checks for i in c.iterations if i > 2 and i % DEFAULT_EVAL_EVERY]
        assert near_tol, "no member reached the near-tol cadence"
        assert sum(result.batch_sizes) == sum(n_iters)
        for report in result.reports:
            assert len(report.wall_times) == report.n_iter
            assert all(t > 0 for t in report.wall_times)
            assert report.loop_seconds >= sum(report.wall_times)
        total = sum(report.loop_seconds for report in result.reports)
        assert total == pytest.approx(result.loop_seconds, rel=1e-9)


class TestSharedOperatorFastPath:
    """The stacked graph-term path must match the per-member loop."""

    def _graph_fits(self, b, shared, lam=0.1):
        import scipy.sparse as sp

        rng = np.random.default_rng(0)
        n, m, k = 18, 7, 3
        sim_shared = sp.random(n, n, density=0.2, random_state=1, format="csr")
        sim_shared = sim_shared + sim_shared.T
        deg_shared = np.asarray(sim_shared.sum(axis=1)).ravel()
        lap_shared = np.diag(deg_shared) - sim_shared.toarray()
        fits = []
        for seed in range(b):
            frng = np.random.default_rng(100 + seed)
            x = frng.random((n, m))
            observed = frng.random((n, m)) > 0.2
            if shared:
                sim, deg, lap = sim_shared, deg_shared, lap_shared
            else:
                sim = sp.random(
                    n, n, density=0.2, random_state=10 + seed, format="csr"
                )
                sim = sim + sim.T
                deg = np.asarray(sim.sum(axis=1)).ravel()
                lap = np.diag(deg) - sim.toarray()
            fits.append(
                BatchedFit(
                    x_observed=np.where(observed, x, 0.0),
                    observed=observed,
                    u0=frng.random((n, k)) + 0.1,
                    v0=frng.random((k, m)) + 0.1,
                    lam=lam,
                    similarity=sim,
                    degree=deg,
                    laplacian=lap,
                )
            )
        return fits

    def test_plan_detects_shared_operators(self):
        ws = KernelWorkspace.stacked(self._graph_fits(3, shared=True))
        plan = ws._graph_plan
        assert plan.similarity is not None
        assert plan.laplacian is not None
        assert plan.deg3 is not None
        assert plan.lam3 is not None

    def test_plan_rejects_heterogeneous_operators(self):
        ws = KernelWorkspace.stacked(self._graph_fits(3, shared=False))
        plan = ws._graph_plan
        assert plan.similarity is None
        assert plan.laplacian is None
        assert plan.deg3 is None

    @pytest.mark.parametrize("update_rule", ["multiplicative", "gradient"])
    def test_shared_matches_per_member_loop(self, update_rule):
        # Same values, different sharing: one batch holds one operator
        # object, the other holds per-member copies (defeating the
        # ``is`` check) — the results must agree bit-for-bit.
        import scipy.sparse as sp

        shared = self._graph_fits(3, shared=True)
        copied = []
        for f in shared:
            copied.append(
                BatchedFit(
                    x_observed=f.x_observed.copy(),
                    observed=f.observed.copy(),
                    u0=f.u0.copy(),
                    v0=f.v0.copy(),
                    lam=f.lam,
                    similarity=sp.csr_matrix(f.similarity.copy()),
                    degree=np.asarray(f.degree).copy(),
                    laplacian=np.asarray(f.laplacian).copy(),
                )
            )
        kwargs = dict(max_iter=25, tol=0.0, update_rule=update_rule)
        if update_rule == "gradient":
            kwargs["learning_rate"] = 1e-4
        a = multi_fit(shared, **kwargs)
        b = multi_fit(copied, **kwargs)
        for ra, rb in zip(a.split(), b.split()):
            assert np.array_equal(ra.u, rb.u)
            assert np.array_equal(ra.v, rb.v)
            assert ra.objective_history == rb.objective_history

    def test_one_recon_pair_and_one_graph_product_per_iteration(self, monkeypatch):
        # Structural guard for the evaluate-once loop: on a shared-graph
        # SMF batch evaluated every iteration, a steady-state iteration
        # runs exactly two masked ``U·V`` gemms (V-step and objective;
        # the next U-step reuses the objective's) and one sparse product
        # (``W·U`` for the objective's penalty; the next U-step reuses it).
        import scipy.sparse as sp

        from repro.engine import workspace

        counts = {"uv": 0, "sparse": 0}
        fits = self._graph_fits(3, shared=True)
        n, k = fits[0].u0.shape

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def matmul(a, b, *args, **kwargs):
                if np.shape(a)[-2:] == (n, k):  # U (B, N, K) on the left
                    counts["uv"] += 1
                return np.matmul(a, b, *args, **kwargs)

        spmm = sp.csr_matrix.__matmul__

        def counting_spmm(op, other):
            counts["sparse"] += 1
            return spmm(op, other)

        monkeypatch.setattr(workspace, "np", CountingNumpy())
        monkeypatch.setattr(sp.csr_matrix, "__matmul__", counting_spmm)

        def run(max_iter):
            counts.update(uv=0, sparse=0)
            multi_fit(fits, max_iter=max_iter, tol=0.0, eval_every=1)
            return dict(counts)

        short, long = run(4), run(10)
        assert (long["uv"] - short["uv"]) / 6 == 2
        assert (long["sparse"] - short["sparse"]) / 6 == 1

    @pytest.mark.parametrize("update_rule", ["multiplicative", "gradient"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["2d", "stacked"])
    def test_u_step_gemms_read_a_contiguous_vt(self, monkeypatch, update_rule, stacked):
        # Operand-layout rule: the U-step's N×M×K products (X·Vᵀ and
        # R_O(UV)·Vᵀ; the gradient rule's residual·Vᵀ) multiply a
        # C-contiguous (…, M, K) copy of Vᵀ, not the strided view.
        from repro.engine import workspace

        fits = self._graph_fits(3, shared=True)
        n, m = fits[0].x_observed.shape
        k = fits[0].u0.shape[1]
        rights = []

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def matmul(a, b, *args, **kwargs):
                if np.shape(a)[-2:] == (n, m):  # X or R_O(U V) on the left
                    rights.append(b)
                return np.matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(workspace, "np", RecordingNumpy())
        if stacked:
            ws = KernelWorkspace.stacked(fits, rule=update_rule)
            x, observed = ws.x_observed, None
            u = np.stack([f.u0 for f in fits])
            v = np.stack([f.v0 for f in fits])
            ctx = KernelContext(learning_rate=1e-4)
        else:
            f = fits[0]
            ws = KernelWorkspace(f.x_observed, f.observed, rule=update_rule)
            x, observed, u, v = f.x_observed, f.observed, f.u0, f.v0
            ctx = KernelContext(
                lam=f.lam, similarity=f.similarity, degree=f.degree,
                laplacian=f.laplacian, learning_rate=1e-4,
            )
        steps = 3
        for _ in range(steps):
            u, v = ws.step(x, observed, u, v, ctx)
        per_step = 2 if update_rule == "multiplicative" else 1
        assert len(rights) == per_step * steps
        for b in rights:
            assert b.shape == (*u.shape[:-2], m, k)
            assert b.flags.c_contiguous


class TestDivergenceGuard:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stacked_loop_names_the_diverging_member(self):
        from .test_engine import diverging_lake

        bad = diverging_lake()
        good = bad.copy()
        good[5, 4] = good[6, 4]
        jobs = [
            (SMFL(rank=4, max_iter=50, random_state=seed), x, None)
            for seed, x in enumerate((good, bad))
        ]
        with pytest.raises(NumericalDivergenceError) as info:
            fit_models_batched(jobs)
        message = str(info.value)
        assert "iteration 1 " in message and "'multiplicative'" in message
        assert "stacked member 1" in message

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stacked_loop_emits_fit_diverged_with_the_step_size(self):
        from repro.obs import Recorder, RingBufferSink, use_recorder

        from .test_engine import diverging_lake

        bad = diverging_lake()
        good = bad.copy()
        good[5, 4] = good[6, 4]
        jobs = [
            (
                SMFL(
                    rank=4, max_iter=50, random_state=seed,
                    update_rule="gradient", learning_rate=2.5e-4,
                ),
                x,
                None,
            )
            for seed, x in enumerate((good, bad))
        ]
        sink = RingBufferSink()
        with use_recorder(Recorder(sink)):
            with pytest.raises(NumericalDivergenceError) as info:
                fit_models_batched(jobs)
        message = str(info.value)
        assert "'gradient' with learning_rate 0.00025" in message
        assert "stacked member 1" in message
        diverged = [r for r in sink.tail() if r["name"] == "batch.fit_error"]
        assert len(diverged) == 1
        attrs = diverged[0]["attrs"]
        assert diverged[0]["level"] == "error"
        assert attrs["error"] == "NumericalDivergenceError"
        assert attrs["update_rule"] == "gradient"
        assert attrs["detail"] == message
