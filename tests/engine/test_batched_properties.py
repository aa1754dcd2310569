"""Property-based batched-vs-looped equivalence (repro.core.batched_fit).

Hypothesis drives random problems through :func:`fit_models_batched`
and a plain ``model.fit`` loop and asserts the bit-identity contract on
every draw, across the grid the runner's coalescing actually exercises:
solver family x update rule x kernel path x batch size (including the
``B == 1`` delegation and ineligible-path fallbacks), with the
adversarial corners pinned — ragged convergence dropout,
``max_iter=0``, all-missing rows, and SMFL's frozen landmark prefix.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SMF, SMFL, MaskedNMF
from repro.core.batched_fit import fit_models_batched

pytest.importorskip("scipy.sparse")

BATCH_SETTINGS = settings(
    max_examples=6,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

RANK = 3

MODEL_FAMILIES = {
    "nmf": MaskedNMF,
    "smf": SMF,
    "smfl": SMFL,
}

problem = st.fixed_dictionaries(
    {
        "family": st.sampled_from(sorted(MODEL_FAMILIES)),
        "update_rule": st.sampled_from(["multiplicative", "gradient"]),
        "kernel_path": st.sampled_from(["auto", "workspace"]),
        "b": st.sampled_from([1, 2, 7]),
        "missing": st.floats(min_value=0.1, max_value=0.6),
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
        "all_missing_row": st.booleans(),
        "tol": st.sampled_from([0.0, 2e-3]),
    }
)


def make_spatial_problem(n, m, missing, seed, all_missing_row=False):
    rng = np.random.default_rng(seed)
    x = rng.random((n, m)) * 4.0
    x[:, :2] = rng.random((n, 2)) * 10.0
    observed = rng.random((n, m)) >= missing
    observed[:, :2] = True
    observed[0, 2] = True
    if all_missing_row:
        # One row with every attribute cell missing (coords stay
        # observed - the injection protocol never corrupts them).
        observed[1, 2:] = False
    return np.where(observed, x, np.nan)


def build(family, update_rule, kernel_path, seed, tol, max_iter=25):
    kwargs = dict(
        rank=RANK,
        max_iter=max_iter,
        tol=tol,
        random_state=seed,
        update_rule=update_rule,
        kernel_path=kernel_path,
    )
    if update_rule == "gradient":
        kwargs["learning_rate"] = 1e-4
    return MODEL_FAMILIES[family](**kwargs)


def assert_pair_identical(mb, ml):
    assert np.array_equal(mb.u_, ml.u_)
    assert np.array_equal(mb.v_, ml.v_)
    assert mb.n_iter_ == ml.n_iter_
    assert mb.converged_ == ml.converged_
    assert mb.objective_history_ == ml.objective_history_
    assert mb.fit_report_.n_increases == ml.fit_report_.n_increases
    assert (
        mb.fit_report_.landmark_block_intact
        == ml.fit_report_.landmark_block_intact
    )


class TestBatchedLoopedEquivalence:
    @given(problem)
    @BATCH_SETTINGS
    def test_batched_matches_looped(self, draw):
        jobs, loops = [], []
        for i in range(draw["b"]):
            seed = (draw["seed"] + i) % 2**31
            x = make_spatial_problem(
                22, 8, draw["missing"], seed,
                all_missing_row=draw["all_missing_row"],
            )
            for target in (jobs, loops):
                target.append(
                    (
                        build(
                            draw["family"], draw["update_rule"],
                            draw["kernel_path"], seed, draw["tol"],
                        ),
                        x,
                        None,
                    )
                )
        fit_models_batched(jobs)
        for model, x, _ in loops:
            model.fit(x)
        for (mb, _, _), (ml, _, _) in zip(jobs, loops):
            assert_pair_identical(mb, ml)

    @given(
        family=st.sampled_from(sorted(MODEL_FAMILIES)),
        b=st.sampled_from([1, 2, 7]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @BATCH_SETTINGS
    def test_max_iter_zero_keeps_inits(self, family, b, seed):
        jobs, loops = [], []
        for i in range(b):
            s = (seed + i) % 2**31
            x = make_spatial_problem(20, 8, 0.3, s)
            for target in (jobs, loops):
                target.append(
                    (build(family, "multiplicative", "auto", s, 0.0, max_iter=0), x, None)
                )
        fit_models_batched(jobs)
        for model, x, _ in loops:
            model.fit(x)
        for (mb, _, _), (ml, _, _) in zip(jobs, loops):
            assert_pair_identical(mb, ml)
            assert mb.n_iter_ == 0

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @BATCH_SETTINGS
    def test_landmark_prefix_bit_frozen_in_batch(self, seed):
        jobs = []
        for i in range(4):
            s = (seed + i) % 2**31
            x = make_spatial_problem(22, 8, 0.3, s)
            jobs.append((build("smfl", "multiplicative", "auto", s, 0.0), x, None))
        fit_models_batched(jobs)
        for model, _, _ in jobs:
            assert model.fit_report_.landmark_block_intact is True

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @BATCH_SETTINGS
    def test_ineligible_kernel_path_falls_back_looped(self, seed):
        # The sparse path has no batched twin: fit_models_batched must
        # quietly run such members as plain single fits.
        jobs, loops = [], []
        for i in range(3):
            s = (seed + i) % 2**31
            x = make_spatial_problem(22, 8, 0.3, s)
            for target in (jobs, loops):
                target.append(
                    (build("nmf", "multiplicative", "sparse", s, 0.0), x, None)
                )
        fit_models_batched(jobs)
        for model, x, _ in loops:
            model.fit(x)
        for (mb, _, _), (ml, _, _) in zip(jobs, loops):
            assert_pair_identical(mb, ml)
