"""Property-based equivalence of the workspace kernel paths.

The contract of :mod:`repro.engine.workspace`, enforced across random
shapes, masks, seeds and both model families:

- the dense ``workspace`` path is **bit-identical** to the
  ``reference`` rules — every objective evaluation and the final
  factors, not just "close" (this is what lets the golden fixtures
  stay frozen while the default path changes);
- the ``sparse`` path is numerically equivalent (tight ``allclose``),
  keeps SMFL's frozen landmark block bit-intact, and preserves the
  multiplicative rule's objective monotonicity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SMFL, MaskedNMF

pytest.importorskip("scipy.sparse")

EQUIVALENCE_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

problem = st.fixed_dictionaries(
    {
        "n": st.integers(min_value=12, max_value=30),
        "m": st.integers(min_value=6, max_value=10),
        "missing": st.floats(min_value=0.1, max_value=0.8),
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
    }
)

RANK = 3


def make_spatial_problem(n, m, missing, seed):
    """Non-negative data whose first two columns are (observed) coords."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, m)) * 4.0
    x[:, :2] = rng.random((n, 2)) * 10.0
    observed = rng.random((n, m)) >= missing
    observed[:, :2] = True
    observed[0, 2] = True  # at least one observed attribute cell
    return np.where(observed, x, np.nan)


def fit_pair(model_factory, x_missing, path_a, path_b):
    a = model_factory(path_a).fit(x_missing)
    b = model_factory(path_b).fit(x_missing)
    return a, b


class TestWorkspaceBitIdentity:
    @given(problem=problem, rule=st.sampled_from(["multiplicative", "gradient"]))
    @EQUIVALENCE_SETTINGS
    def test_nmf_trace_bit_identical(self, problem, rule):
        x_missing = make_spatial_problem(**problem)

        def factory(path):
            return MaskedNMF(
                rank=RANK, update_rule=rule, learning_rate=1e-3,
                max_iter=15, tol=0.0, random_state=0, kernel_path=path,
            )

        ref, ws = fit_pair(factory, x_missing, "reference", "workspace")
        assert list(ref.objective_history_) == list(ws.objective_history_)
        assert np.array_equal(ref.u_, ws.u_)
        assert np.array_equal(ref.v_, ws.v_)

    @given(problem=problem, rule=st.sampled_from(["multiplicative", "gradient"]))
    @EQUIVALENCE_SETTINGS
    def test_smfl_trace_bit_identical(self, problem, rule):
        x_missing = make_spatial_problem(**problem)

        def factory(path):
            return SMFL(
                rank=RANK, n_spatial=2, lam=0.05, p_neighbors=3,
                update_rule=rule, learning_rate=1e-3,
                max_iter=15, tol=0.0, random_state=0, kernel_path=path,
            )

        ref, ws = fit_pair(factory, x_missing, "reference", "workspace")
        assert list(ref.objective_history_) == list(ws.objective_history_)
        assert np.array_equal(ref.u_, ws.u_)
        assert np.array_equal(ref.v_, ws.v_)


class TestGemvShapes:
    """Shapes on which numpy runs a U- or V-step product as a
    matrix-vector call (rank 1, one live column, two rows): the
    operand-layout rules must keep the workspace's bits there too."""

    @pytest.mark.parametrize("rule", ["multiplicative", "gradient"])
    @pytest.mark.parametrize(
        "n, m, rank, n_spatial",
        [
            (20, 6, 1, 2),  # rank 1: X·Vᵀ is a gemv
            (20, 3, 2, 2),  # one live column after the landmark block
            (20, 3, 1, 2),  # both
            (2, 4, 1, 1),  # two rows
            (2, 4, 2, 2),  # two rows, full rank
        ],
    )
    def test_smfl_and_nmf_bit_identical(self, rule, n, m, rank, n_spatial):
        x_missing = make_spatial_problem(n, m, 0.2, seed=n * 100 + m * 10 + rank)
        for factory in (
            lambda path: SMFL(
                rank=rank, n_spatial=n_spatial, lam=0.05, p_neighbors=1,
                update_rule=rule, learning_rate=1e-3, max_iter=12, tol=0.0,
                random_state=0, kernel_path=path,
            ),
            lambda path: MaskedNMF(
                rank=rank, update_rule=rule, learning_rate=1e-3, max_iter=12,
                tol=0.0, random_state=0, kernel_path=path,
            ),
        ):
            ref, ws = fit_pair(factory, x_missing, "reference", "workspace")
            assert list(ref.objective_history_) == list(ws.objective_history_)
            assert np.array_equal(ref.u_, ws.u_)
            assert np.array_equal(ref.v_, ws.v_)


class TestSparseEquivalence:
    @given(problem=problem)
    @EQUIVALENCE_SETTINGS
    def test_nmf_factors_numerically_equal(self, problem):
        x_missing = make_spatial_problem(**problem)

        def factory(path):
            return MaskedNMF(
                rank=RANK, max_iter=15, tol=0.0, random_state=0,
                kernel_path=path,
            )

        ref, sp = fit_pair(factory, x_missing, "reference", "sparse")
        assert np.allclose(ref.u_, sp.u_, rtol=0.0, atol=1e-10)
        assert np.allclose(ref.v_, sp.v_, rtol=0.0, atol=1e-10)

    @given(problem=problem)
    @EQUIVALENCE_SETTINGS
    def test_smfl_frozen_block_and_monotonicity(self, problem):
        x_missing = make_spatial_problem(**problem)
        model = SMFL(
            rank=RANK, n_spatial=2, lam=0.05, p_neighbors=3,
            max_iter=15, tol=0.0, random_state=0, kernel_path="sparse",
        ).fit(x_missing)
        # The landmark block of V must be bit-identical to its K-means
        # initialisation (the telemetry checks it every iteration).
        assert model.fit_report_.landmark_block_intact is True
        history = np.asarray(model.objective_history_)
        assert (np.diff(history) <= 1e-8 * (1.0 + history[:-1])).all()

    @given(problem=problem)
    @EQUIVALENCE_SETTINGS
    def test_smfl_factors_numerically_equal(self, problem):
        x_missing = make_spatial_problem(**problem)

        def factory(path):
            return SMFL(
                rank=RANK, n_spatial=2, lam=0.05, p_neighbors=3,
                max_iter=15, tol=0.0, random_state=0, kernel_path=path,
            )

        ref, sp = fit_pair(factory, x_missing, "reference", "sparse")
        assert np.allclose(ref.u_, sp.u_, rtol=0.0, atol=1e-10)
        assert np.allclose(ref.v_, sp.v_, rtol=0.0, atol=1e-10)
