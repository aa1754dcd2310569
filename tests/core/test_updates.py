"""Unit tests for the multiplicative / gradient update kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.updates import (
    gradient_update_u,
    gradient_update_v,
    multiplicative_update_u,
    multiplicative_update_v,
)
from repro.spatial import laplacian_from_points


@pytest.fixture
def problem(rng):
    n, m, k = 12, 5, 3
    u_true = rng.random((n, k))
    v_true = rng.random((k, m))
    x = u_true @ v_true
    observed = rng.random((n, m)) > 0.2
    x_observed = np.where(observed, x, 0.0)
    u0 = rng.random((n, k)) + 0.1
    v0 = rng.random((k, m)) + 0.1
    return x_observed, observed, u0, v0


class TestMultiplicativeUpdates:
    def test_preserves_nonnegativity(self, problem):
        x_observed, observed, u, v = problem
        for _ in range(10):
            u = multiplicative_update_u(x_observed, observed, u, v)
            v = multiplicative_update_v(x_observed, observed, u, v)
        assert (u >= 0).all() and (v >= 0).all()

    def test_inputs_not_mutated(self, problem):
        x_observed, observed, u, v = problem
        u_copy, v_copy = u.copy(), v.copy()
        multiplicative_update_u(x_observed, observed, u, v)
        multiplicative_update_v(x_observed, observed, u, v)
        assert np.array_equal(u, u_copy)
        assert np.array_equal(v, v_copy)

    def test_fixed_point_at_exact_factorization(self, rng):
        u = rng.random((8, 2)) + 0.1
        v = rng.random((2, 4)) + 0.1
        x = u @ v
        observed = np.ones((8, 4), dtype=bool)
        u_next = multiplicative_update_u(x, observed, u, v)
        v_next = multiplicative_update_v(x, observed, u, v)
        assert np.allclose(u_next, u, rtol=1e-6)
        assert np.allclose(v_next, v, rtol=1e-6)

    def test_zero_numerator_drives_to_zero(self):
        # A column of X that is all zero forces the matching V column down.
        x = np.zeros((4, 2))
        observed = np.ones((4, 2), dtype=bool)
        u = np.ones((4, 2))
        v = np.ones((2, 2))
        v_next = multiplicative_update_v(x, observed, u, v)
        assert (v_next < 1e-6).all()

    def test_graph_terms_require_inputs(self, problem):
        x_observed, observed, u, v = problem
        with pytest.raises(ValueError, match="similarity and degree"):
            multiplicative_update_u(x_observed, observed, u, v, lam=0.5)

    def test_frozen_cells_kept(self, problem):
        x_observed, observed, u, v = problem
        frozen = np.zeros(v.shape, dtype=bool)
        frozen[:, :2] = True
        v_next = multiplicative_update_v(
            x_observed, observed, u, v, frozen_v=frozen
        )
        assert np.array_equal(v_next[:, :2], v[:, :2])
        assert not np.allclose(v_next[:, 2:], v[:, 2:])

    def test_graph_terms_change_update(self, problem, rng):
        x_observed, observed, u, v = problem
        similarity, degree_mat, _ = laplacian_from_points(
            rng.random((u.shape[0], 2)), 2
        )
        degree = np.diag(degree_mat)
        plain = multiplicative_update_u(x_observed, observed, u, v)
        regularized = multiplicative_update_u(
            x_observed, observed, u, v,
            lam=1.0, similarity=similarity, degree=degree,
        )
        assert not np.allclose(plain, regularized)


class TestGradientUpdates:
    def test_projection_to_nonneg(self, problem):
        x_observed, observed, u, v = problem
        u_next = gradient_update_u(
            x_observed, observed, u, v, learning_rate=10.0
        )
        assert (u_next >= 0).all()

    def test_descent_direction_small_step(self, problem):
        from repro.core.objective import masked_frobenius_sq

        x_observed, observed, u, v = problem
        before = masked_frobenius_sq(x_observed, u, v, observed)
        u_next = gradient_update_u(
            x_observed, observed, u, v, learning_rate=1e-4
        )
        after = masked_frobenius_sq(x_observed, u_next, v, observed)
        assert after <= before

    def test_lam_requires_laplacian(self, problem):
        x_observed, observed, u, v = problem
        with pytest.raises(ValueError, match="laplacian"):
            gradient_update_u(
                x_observed, observed, u, v, learning_rate=1e-3, lam=0.5
            )

    def test_frozen_cells_kept(self, problem):
        x_observed, observed, u, v = problem
        frozen = np.zeros(v.shape, dtype=bool)
        frozen[:, 0] = True
        v_next = gradient_update_v(
            x_observed, observed, u, v, learning_rate=1e-2, frozen_v=frozen
        )
        assert np.array_equal(v_next[:, 0], v[:, 0])


class TestGuardedDivide:
    """The shared division policy every update rule goes through."""

    def test_matches_reference_expression_bitwise(self, rng):
        from repro.core.updates import EPSILON, guarded_divide

        num = rng.random((6, 4))
        den = rng.random((6, 4))
        assert np.array_equal(guarded_divide(num, den), num / (den + EPSILON))

    def test_out_buffer_matches_allocating_form(self, rng):
        from repro.core.updates import guarded_divide

        num = rng.random((6, 4))
        den = rng.random((6, 4))
        expected = guarded_divide(num, den)
        out = np.empty_like(num)
        result = guarded_divide(num, den, out=out)
        assert result is out
        assert np.array_equal(out, expected)

    def test_out_may_alias_numerator(self, rng):
        from repro.core.updates import guarded_divide

        num = rng.random((6, 4))
        den = rng.random((6, 4))
        expected = guarded_divide(num, den)
        scratch = num.copy()
        guarded_divide(scratch, den, out=scratch)
        assert np.array_equal(scratch, expected)

    def test_denominator_scratch_floors_in_place(self, rng):
        from repro.core.updates import EPSILON, guarded_divide

        num = rng.random((6, 4))
        den = rng.random((6, 4))
        expected = guarded_divide(num, den)
        scratch = den.copy()
        out = np.empty_like(num)
        guarded_divide(num, scratch, out=out, denominator_is_scratch=True)
        assert np.array_equal(out, expected)
        assert np.array_equal(scratch, den + EPSILON)

    def test_zero_denominator_never_raises(self):
        from repro.core.updates import guarded_divide

        num = np.ones((2, 2))
        den = np.zeros((2, 2))
        with np.errstate(divide="raise", invalid="raise"):
            out = guarded_divide(num, den)
        assert np.isfinite(out).all()

    def test_overflow_still_warns(self):
        # Only divide/invalid are silenced: a quotient too large for a
        # double is a divergence signal and must stay visible.
        from repro.core.updates import guarded_divide

        with pytest.warns(RuntimeWarning, match="overflow"):
            out = guarded_divide(np.array([1e300]), np.array([0.0]))
        assert np.isposinf(out).all()
