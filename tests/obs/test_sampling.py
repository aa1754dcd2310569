"""Per-request head sampling: reproducible coins, honest bookkeeping."""

from __future__ import annotations

import pytest

from repro.obs import Sampler


class TestRates:
    def test_rate_one_keeps_everything(self):
        sampler = Sampler(1.0)
        assert all(sampler.sample() for _ in range(100))
        assert sampler.stats()["effective_rate"] == 1.0

    def test_rate_zero_drops_everything(self):
        sampler = Sampler(0.0)
        assert not any(sampler.sample() for _ in range(100))
        stats = sampler.stats()
        assert stats["decisions"] == 100
        assert stats["sampled"] == 0
        assert stats["effective_rate"] == 0.0

    def test_fractional_rate_is_seed_deterministic(self):
        def draws(seed):
            sampler = Sampler(0.1, seed=seed)
            return [sampler.sample() for _ in range(200)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)

    def test_fractional_rate_lands_near_target(self):
        sampler = Sampler(0.1, seed=0)
        for _ in range(2000):
            sampler.sample()
        assert 0.05 < sampler.stats()["effective_rate"] < 0.20


class TestValidation:
    @pytest.mark.parametrize("rate", [-0.1, 1.5, 2.0])
    def test_out_of_range_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="sample rate"):
            Sampler(rate)

    def test_no_decisions_means_no_effective_rate(self):
        assert Sampler(0.5).stats()["effective_rate"] is None
