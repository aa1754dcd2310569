"""Tier-1 invariants of the factorization family, via engine telemetry.

Two theoretical guarantees from the paper, checked on every fit through
the engine's callbacks rather than by re-running ad-hoc loops:

- **Monotonicity** (Propositions 5 and 7): the multiplicative updates
  of Formulas 13-14 never increase the masked objective, for NMF, SMF
  and SMFL alike.
- **Landmark frozenness** (Formula 9 / Algorithm 1): SMFL's landmark
  block in V is bit-identical to the injected K-means centers at
  *every* iteration, not just at the end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SMF, SMFL, MaskedNMF
from repro.engine import Callback

RANK = 5
MAX_ITER = 60


def make_model(name, **overrides):
    # eval_every=1: the invariants are certified at every iteration.
    kwargs = dict(rank=RANK, max_iter=MAX_ITER, tol=0.0, eval_every=1, random_state=0)
    kwargs.update(overrides)
    if name == "nmf":
        return MaskedNMF(**kwargs)
    if name == "smf":
        return SMF(n_spatial=2, **kwargs)
    return SMFL(n_spatial=2, **kwargs)


class TestMultiplicativeMonotonicity:
    """Props 5 & 7: objective history is non-increasing for the family."""

    @pytest.mark.parametrize("name", ["nmf", "smf", "smfl"])
    def test_objective_never_increases(self, name, tiny_trial):
        _, x_missing, mask = tiny_trial
        model = make_model(name).fit(x_missing, mask)
        report = model.fit_report_
        assert len(report.objective_history) == MAX_ITER
        assert report.n_increases == 0
        assert report.is_monotone()
        history = np.asarray(report.objective_history)
        assert np.all(np.diff(history) <= 1e-10 * np.abs(history[:-1]))

    @pytest.mark.parametrize("name", ["nmf", "smf", "smfl"])
    def test_telemetry_counts_every_iteration(self, name, tiny_trial):
        _, x_missing, mask = tiny_trial
        model = make_model(name).fit(x_missing, mask)
        report = model.fit_report_
        assert report.n_iter == MAX_ITER
        assert len(report.wall_times) == MAX_ITER
        assert report.factor_deltas == {}  # not measured for the factor family


class _LandmarkRecorder(Callback):
    """Capture the landmark block of V after every iteration."""

    def __init__(self, frozen_mask: np.ndarray) -> None:
        self.frozen_mask = frozen_mask
        self.blocks: list[np.ndarray] = []

    def on_iteration(self, solver, record) -> None:
        v = solver.factors(record.state)["v"]
        self.blocks.append(v[self.frozen_mask].copy())


class TestLandmarkFrozenness:
    """Formula 9: the landmark block never moves, at any iteration."""

    def test_block_identical_at_every_iteration(self, tiny_trial):
        _, x_missing, mask = tiny_trial
        model = make_model("smfl")
        # The frozen mask only exists after _prepare_fit; fit once to
        # learn the landmarks, then refit with the recorder attached
        # (same seed => same landmarks, same trajectory).
        model.fit(x_missing, mask)
        frozen = model._frozen_v_mask(model.v_.shape)
        recorder = _LandmarkRecorder(frozen)
        model.fit(x_missing, mask, callbacks=(recorder,))

        expected = model.landmarks_.values.ravel()
        assert len(recorder.blocks) == MAX_ITER
        for block in recorder.blocks:
            assert np.array_equal(block, expected)

    def test_report_confirms_landmark_block(self, tiny_trial):
        _, x_missing, mask = tiny_trial
        model = make_model("smfl").fit(x_missing, mask)
        assert model.fit_report_.landmark_block_intact is True

    def test_non_landmark_models_have_no_block_claim(self, tiny_trial):
        _, x_missing, mask = tiny_trial
        for name in ("nmf", "smf"):
            model = make_model(name).fit(x_missing, mask)
            assert model.fit_report_.landmark_block_intact is None

    def test_gradient_rule_also_freezes_block(self, tiny_trial):
        _, x_missing, mask = tiny_trial
        model = make_model(
            "smfl", update_rule="gradient", learning_rate=1e-3, max_iter=30
        ).fit(x_missing, mask)
        assert model.fit_report_.landmark_block_intact is True

    def test_block_change_between_checks_is_caught(self, tiny_trial, monkeypatch):
        # The stacked loop compares the block at checks only; the step
        # writes it only by copying the previous V's, so a change at an
        # unchecked iteration (13, with checks at 10 and 20) persists to
        # the next check and is caught there.
        from repro.engine.workspace import KernelWorkspace

        _, x_missing, mask = tiny_trial
        step = KernelWorkspace.step
        calls = []

        def perturbing(ws, *args):
            u, v = step(ws, *args)
            calls.append(len(calls) + 1)
            if calls[-1] == 13:
                v[..., 0, 0] += 1.0
            return u, v

        monkeypatch.setattr(KernelWorkspace, "step", perturbing)
        model = make_model("smfl", eval_every=10, max_iter=30).fit(x_missing, mask)
        assert len(calls) == 30
        assert model.fit_report_.landmark_block_intact is False
