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
from repro.engine import BatchedFit, MultiFitReport, multi_fit
from repro.engine.batched import BatchedWorkspace
from repro.exceptions import ValidationError

RANK = 3


def make_spatial_problem(n, m, missing, seed):
    rng = np.random.default_rng(seed)
    x = rng.random((n, m)) * 4.0
    x[:, :2] = rng.random((n, 2)) * 10.0
    observed = rng.random((n, m)) >= missing
    observed[:, :2] = True
    observed[0, 2] = True
    return np.where(observed, x, np.nan)


def fit_pair(factory, seeds, **fit_kwargs):
    """(batched models, looped models) fitted on identical problems."""
    batched, looped = [], []
    for seed in seeds:
        x = make_spatial_problem(24, 8, 0.3, seed)
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


class TestBatchedVsLooped:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda seed: MaskedNMF(
                rank=RANK, max_iter=40, tol=0.0, random_state=seed
            ),
            lambda seed: SMF(rank=RANK, max_iter=40, tol=0.0, random_state=seed),
            lambda seed: SMFL(
                rank=RANK, max_iter=40, tol=0.0, random_state=seed
            ),
        ],
        ids=["nmf", "smf", "smfl"],
    )
    def test_bit_identical(self, factory):
        batched, looped = fit_pair(factory, range(4))
        assert_models_identical(batched, looped)

    def test_gradient_rule(self):
        def factory(seed):
            return SMFL(
                rank=RANK,
                max_iter=30,
                tol=0.0,
                random_state=seed,
                update_rule="gradient",
                learning_rate=1e-4,
            )

        batched, looped = fit_pair(factory, range(3))
        assert_models_identical(batched, looped)

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

    def test_mixed_methods_share_one_group(self):
        # nmf and smf cells with the same shape/rank stack together;
        # per-fit lam keeps the graph term out of the nmf members.
        jobs, looped = [], []
        for seed in range(2):
            x = make_spatial_problem(24, 8, 0.3, seed)
            for cls in (MaskedNMF, SMF):
                jobs.append(
                    (cls(rank=RANK, max_iter=30, tol=0.0, random_state=seed), x, None)
                )
                looped.append(
                    (cls(rank=RANK, max_iter=30, tol=0.0, random_state=seed), x, None)
                )
        fit_models_batched(jobs)
        for model, x, _ in looped:
            model.fit(x)
        assert_models_identical(jobs, looped)

    def test_landmark_prefix_stays_bit_frozen(self):
        batched, _ = fit_pair(
            lambda seed: SMFL(rank=RANK, max_iter=40, tol=0.0, random_state=seed),
            range(3),
        )
        for model, _, _ in batched:
            assert model.fit_report_.landmark_block_intact is True


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

    def test_b1_delegates_without_3d_dispatch(self):
        fits = self._fits(1)
        report = multi_fit(fits, max_iter=4, tol=0.0)
        assert report.n_fits == 1
        assert report.batch_sizes == (1, 1, 1, 1)


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
        pen_shared = sp.csr_matrix(lap_shared)
        fits = []
        for seed in range(b):
            frng = np.random.default_rng(100 + seed)
            x = frng.random((n, m))
            observed = frng.random((n, m)) > 0.2
            if shared:
                sim, deg, lap, pen = sim_shared, deg_shared, lap_shared, pen_shared
            else:
                sim = sp.random(
                    n, n, density=0.2, random_state=10 + seed, format="csr"
                )
                sim = sim + sim.T
                deg = np.asarray(sim.sum(axis=1)).ravel()
                lap = np.diag(deg) - sim.toarray()
                pen = sp.csr_matrix(lap)
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
                    penalty_op=pen,
                )
            )
        return fits

    def test_plan_detects_shared_operators(self):
        ws = BatchedWorkspace(self._graph_fits(3, shared=True))
        plan = ws._graph_plan
        assert plan.similarity is not None
        assert plan.laplacian is not None
        assert plan.penalty_op is not None
        assert plan.lam3 is not None

    def test_plan_rejects_heterogeneous_operators(self):
        ws = BatchedWorkspace(self._graph_fits(3, shared=False))
        plan = ws._graph_plan
        assert plan.similarity is None
        assert plan.laplacian is None
        assert plan.penalty_op is None

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
                    penalty_op=sp.csr_matrix(np.asarray(f.penalty_op.toarray())),
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
