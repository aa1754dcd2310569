"""Property-based invariants of the update kernels (multiplicative + stochastic).

Hypothesis drives randomized shapes, masks and seeds through the whole
kernel family and asserts the guarantees the paper (and the stochastic
extension) must keep regardless of the draw:

- **Non-negativity**: every kernel maps non-negative factors to
  non-negative factors (multiplicative by construction, gradient/SGD
  through explicit projection);
- **Landmark frozenness**: SMFL's landmark block of ``V`` is never
  mutated, by any kernel, on any draw — checked both through the
  telemetry verdict and directly against the K-means centers;
- **Objective discipline**: the multiplicative rule keeps the full
  objective non-increasing (Propositions 5/7); the stochastic rules
  with a decaying step keep it within a bounded factor of the initial
  objective (they may fluctuate, but must not blow up).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SMF, SMFL, MaskedNMF
from repro.core.objective import masked_frobenius_sq
from repro.engine import STOCHASTIC_KERNELS, BatchScheduler, StochasticWorkspace
from repro.engine.kernels import KernelContext
from repro.engine.workspace import build_kernel

PROPERTY_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Random problem draw: shape, missing rate, data/mask/shuffle seed.
problem = st.fixed_dictionaries(
    {
        "n": st.integers(min_value=10, max_value=28),
        "m": st.integers(min_value=4, max_value=8),
        "missing": st.floats(min_value=0.0, max_value=0.5),
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
    }
)

RANK = 3


def make_problem(n, m, missing, seed):
    """A non-negative low-rank-ish matrix with a random mask."""
    rng = np.random.default_rng(seed)
    u = rng.random((n, RANK))
    v = rng.random((RANK, m))
    x = u @ v + 0.05 * rng.random((n, m))
    observed = rng.random((n, m)) >= missing
    # Keep at least one observed cell so the objective is defined.
    observed[0, 0] = True
    x_missing = np.where(observed, x, np.nan)
    return x_missing, observed


def stochastic_kwargs(seed):
    return dict(
        method="stochastic",
        batch_size=7,
        learning_rate=5e-3,
        lr_decay=0.5,
        max_iter=6,
        tol=0.0,
        random_state=seed,
    )


class TestNonnegativity:
    @PROPERTY_SETTINGS
    @given(problem=problem, rule=st.sampled_from(["multiplicative", "sgd", "svrg"]))
    def test_nmf_factors_stay_nonnegative(self, problem, rule):
        x_missing, _ = make_problem(**problem)
        kwargs = (
            stochastic_kwargs(problem["seed"])
            if rule in STOCHASTIC_KERNELS
            else dict(max_iter=6, tol=0.0, random_state=problem["seed"])
        )
        kwargs["update_rule"] = rule
        model = MaskedNMF(rank=RANK, **kwargs).fit(x_missing)
        assert np.isfinite(model.u_).all() and np.isfinite(model.v_).all()
        assert (model.u_ >= 0).all()
        assert (model.v_ >= 0).all()

    @PROPERTY_SETTINGS
    @given(problem=problem, rule=st.sampled_from(["multiplicative", "sgd", "svrg"]))
    def test_smf_factors_stay_nonnegative(self, problem, rule):
        x_missing, _ = make_problem(**problem)
        kwargs = (
            stochastic_kwargs(problem["seed"])
            if rule in STOCHASTIC_KERNELS
            else dict(max_iter=6, tol=0.0, random_state=problem["seed"])
        )
        kwargs["update_rule"] = rule
        model = SMF(rank=RANK, n_spatial=2, **kwargs).fit(x_missing)
        assert np.isfinite(model.u_).all() and np.isfinite(model.v_).all()
        assert (model.u_ >= 0).all()
        assert (model.v_ >= 0).all()


class TestLandmarkFrozenness:
    @PROPERTY_SETTINGS
    @given(
        problem=problem,
        rule=st.sampled_from(["multiplicative", "gradient", "sgd", "svrg"]),
    )
    def test_landmark_block_never_mutated(self, problem, rule):
        x_missing, _ = make_problem(**problem)
        kwargs = (
            stochastic_kwargs(problem["seed"])
            if rule in STOCHASTIC_KERNELS
            else dict(max_iter=6, tol=0.0, random_state=problem["seed"])
        )
        kwargs["update_rule"] = rule
        model = SMFL(rank=RANK, n_spatial=2, **kwargs).fit(x_missing)
        # Telemetry checked the block after *every* epoch/iteration.
        assert model.fit_report_.landmark_block_intact is True
        # And the final block is bit-identical to the K-means centers.
        frozen = model._frozen_v_mask(model.v_.shape)
        assert np.array_equal(model.v_[frozen], model.landmarks_.values.ravel())


class TestObjectiveDiscipline:
    @PROPERTY_SETTINGS
    @given(problem=problem, family=st.sampled_from(["nmf", "smf", "smfl"]))
    def test_multiplicative_objective_never_increases(self, problem, family):
        x_missing, _ = make_problem(**problem)
        kwargs = dict(rank=RANK, max_iter=8, tol=0.0, random_state=problem["seed"])
        if family == "nmf":
            model = MaskedNMF(**kwargs)
        elif family == "smf":
            model = SMF(n_spatial=2, **kwargs)
        else:
            model = SMFL(n_spatial=2, **kwargs)
        model.fit(x_missing)
        report = model.fit_report_
        assert report.n_increases == 0
        assert report.is_monotone()

    @PROPERTY_SETTINGS
    @given(problem=problem, rule=st.sampled_from(["sgd", "svrg"]))
    def test_stochastic_objective_increase_is_bounded(self, problem, rule):
        x_missing, observed = make_problem(**problem)
        model = MaskedNMF(
            rank=RANK, update_rule=rule, **{
                k: v for k, v in stochastic_kwargs(problem["seed"]).items()
                if k != "method"
            }
        )
        # Objective at the exact initial factors (max_iter=0 fit).
        probe = MaskedNMF(
            rank=RANK, max_iter=0, random_state=problem["seed"]
        ).fit(x_missing)
        x_observed = np.where(observed, np.nan_to_num(x_missing), 0.0)
        initial = masked_frobenius_sq(x_observed, probe.u_, probe.v_, observed)

        model.fit(x_missing)
        history = np.asarray(model.fit_report_.objective_history)
        assert np.isfinite(history).all()
        # Decaying small steps may fluctuate but must stay bounded.
        assert history.max() <= 1.5 * initial + 1e-6


class TestKernelLevelInvariants:
    """Direct kernel calls: cover the general (non-prefix) frozen mask."""

    @PROPERTY_SETTINGS
    @given(problem=problem, rule=st.sampled_from(["sgd", "svrg"]))
    def test_scattered_frozen_mask_respected(self, problem, rule):
        x_missing, observed = make_problem(**problem)
        rng = np.random.default_rng(problem["seed"])
        n, m = observed.shape
        x_observed = np.where(observed, np.nan_to_num(x_missing), 0.0)
        u = rng.random((n, RANK)) + 0.1
        v = rng.random((RANK, m)) + 0.1
        frozen = rng.random((RANK, m)) < 0.3  # scattered, not a column prefix
        ctx = KernelContext(learning_rate=5e-3, frozen_v=frozen)
        kernel = StochasticWorkspace(
            BatchScheduler(n, batch_size=5, seed=problem["seed"]), rule=rule
        )
        v_before = v.copy()
        u1, v1 = kernel.step(x_observed, observed, u, v, ctx)
        assert (u1 >= 0).all() and (v1 >= 0).all()
        assert np.array_equal(v1[frozen], v_before[frozen])
        # The caller's V is never mutated in place.
        assert np.array_equal(v, v_before)

    @PROPERTY_SETTINGS
    @given(problem=problem)
    def test_multiplicative_kernel_preserves_inputs(self, problem):
        x_missing, observed = make_problem(**problem)
        rng = np.random.default_rng(problem["seed"])
        n, m = observed.shape
        x_observed = np.where(observed, np.nan_to_num(x_missing), 0.0)
        u = rng.random((n, RANK)) + 0.1
        v = rng.random((RANK, m)) + 0.1
        u_before, v_before = u.copy(), v.copy()
        kernel = build_kernel(
            x_observed, observed,
            update_rule="multiplicative", kernel_path="reference",
        )
        u1, v1 = kernel.step(x_observed, observed, u, v, KernelContext())
        assert np.array_equal(u, u_before) and np.array_equal(v, v_before)
        assert (u1 >= 0).all() and (v1 >= 0).all()
