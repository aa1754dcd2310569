"""Artifact round-trips: save -> load -> verify must be bit-exact.

Hypothesis drives randomized factor shapes, landmark blocks, and
non-finite clip bounds through the save/load/verify cycle; the
contract is bit identity of every array, metadata equality, a stable
content hash (re-saving an identical model reproduces it), and loud
failure on real content mutation - while trailing file junk that does
not change the arrays is *not* corruption (verification is
content-based, not byte-based).
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.model import (
    FittedModel,
    load_model,
    save_model,
    verify_model,
)
from repro.versioning import ARTIFACT_SCHEMA_VERSION
from repro.model.__main__ import main as model_cli

ROUND_TRIP_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

model_draw = st.fixed_dictionaries(
    {
        "n": st.integers(min_value=2, max_value=12),
        "m": st.integers(min_value=2, max_value=9),
        "k": st.integers(min_value=1, max_value=5),
        "n_landmarks": st.integers(min_value=0, max_value=2),
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
        "clip": st.booleans(),
    }
)


def _random_model(draw: dict) -> FittedModel:
    rng = np.random.default_rng(draw["seed"])
    n, m, k = draw["n"], draw["m"], draw["k"]
    n_landmarks = min(draw["n_landmarks"], m)
    u = np.abs(rng.normal(size=(n, k)))
    v = np.abs(rng.normal(size=(k, m)))
    x = np.abs(rng.normal(size=(n, m)))
    observed = rng.random((n, m)) < 0.7
    observed[0, 0] = True  # at least one observed cell
    return FittedModel.from_factors(
        method="smfl" if n_landmarks else "nmf",
        u=u,
        v=v,
        x_observed=np.where(observed, x, 0.0),
        observed=observed,
        update_rule="multiplicative",
        kernel_path="fused",
        n_spatial=n_landmarks,
        landmark_values=v[:, :n_landmarks] if n_landmarks else None,
        clip_to_observed=draw["clip"],
    )


class TestRoundTripProperty:
    @ROUND_TRIP_SETTINGS
    @given(draw=model_draw)
    def test_save_load_verify_bit_identity(self, draw, tmp_path_factory):
        model = _random_model(draw)
        base = str(tmp_path_factory.mktemp("artifact") / "model")
        info = save_model(model, base)

        report = verify_model(base)
        assert report["ok"], report["errors"]
        assert report["content_hash"] == info["content_hash"]
        assert report["schema"] == ARTIFACT_SCHEMA_VERSION

        loaded = load_model(base)
        for name in ("u", "v", "estimate", "landmark_values",
                     "column_low", "column_high"):
            original = getattr(model, name)
            restored = getattr(loaded, name)
            if original is None:
                assert restored is None
            else:
                # Bit identity, including any +/-inf clip bounds.
                assert original.dtype == restored.dtype
                assert np.array_equal(original, restored, equal_nan=True)
        assert loaded.method == model.method
        assert loaded.rank == model.rank
        assert loaded.landmark_columns == model.landmark_columns
        assert loaded.clip_to_observed == model.clip_to_observed
        assert loaded.observed_fraction == model.observed_fraction
        assert (loaded.n_rows, loaded.n_cols) == (model.n_rows, model.n_cols)

    @ROUND_TRIP_SETTINGS
    @given(draw=model_draw)
    def test_resave_reproduces_content_hash(self, draw, tmp_path_factory):
        model = _random_model(draw)
        root = tmp_path_factory.mktemp("rehash")
        first = save_model(model, str(root / "a"))
        second = save_model(load_model(str(root / "a")), str(root / "b"))
        assert first["content_hash"] == second["content_hash"]


@pytest.fixture
def saved(tmp_path):
    model = _random_model(
        {"n": 6, "m": 5, "k": 3, "n_landmarks": 2, "seed": 7, "clip": True}
    )
    base = str(tmp_path / "model")
    info = save_model(model, base)
    return model, base, info


class TestTamper:
    def test_metadata_mutation_fails_verify_and_load(self, saved):
        _, base, info = saved
        document = json.loads(open(info["json_path"]).read())
        document["metadata"]["rank"] = 99
        with open(info["json_path"], "w") as fh:
            json.dump(document, fh)
        report = verify_model(base)
        assert not report["ok"]
        assert any("content hash" in error for error in report["errors"])
        with pytest.raises(ValidationError):
            load_model(base)
        # Verification is opt-out for forensics.
        assert load_model(base, verify=False).rank == 99

    def test_array_mutation_fails(self, saved):
        model, base, info = saved
        arrays = dict(np.load(info["npz_path"]))
        arrays["u"] = arrays["u"] + 1.0
        np.savez(info["npz_path"], **arrays)
        report = verify_model(base)
        assert not report["ok"]
        assert any("digest mismatch" in error for error in report["errors"])

    def test_trailing_junk_is_not_corruption(self, saved):
        # Content-based verification: appending bytes the npz reader
        # ignores does not change any array, so the artifact is intact.
        _, base, info = saved
        with open(info["npz_path"], "ab") as fh:
            fh.write(b"\0" * 16)
        assert verify_model(base)["ok"]


class TestNonFiniteFactors:
    @pytest.mark.parametrize("name, value", [("u", np.nan), ("v", np.inf)])
    def test_load_refuses_and_names_the_array(self, saved, tmp_path, name, value):
        model, _, _ = saved
        array = np.array(getattr(model, name))
        array[0, 0] = value
        base = str(tmp_path / "bad")
        save_model(FittedModel(**{**_fields(model), name: array}), base)
        assert verify_model(base)["ok"]  # the files are intact ...
        for verify in (True, False):  # ... the content is out of contract
            with pytest.raises(ValidationError, match=f"array '{name}' holds NaN or inf"):
                load_model(base, verify=verify)

    def test_infinite_clip_bounds_still_load(self, tmp_path):
        observed = np.ones((3, 2), dtype=bool)
        observed[:, 1] = False  # a column with no observed entry
        model = FittedModel.from_factors(
            method="nmf", u=np.ones((3, 1)), v=np.ones((1, 2)),
            x_observed=np.where(observed, 1.0, 0.0), observed=observed,
        )
        assert np.isinf(model.column_low[1]) and np.isinf(model.column_high[1])
        save_model(model, str(tmp_path / "inf"))
        loaded = load_model(str(tmp_path / "inf"))
        assert np.array_equal(loaded.column_low, model.column_low)


def _fields(model: FittedModel) -> dict:
    return {f.name: getattr(model, f.name) for f in dataclasses.fields(model)}


class TestCli:
    def test_verify_and_info_round_trip(self, saved, capsys):
        _, base, _ = saved
        assert model_cli(["verify", base, "--check"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert model_cli(["info", base]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["method"] == "smfl"

    def test_verify_check_fails_on_tamper(self, saved):
        _, base, info = saved
        document = json.loads(open(info["json_path"]).read())
        document["metadata"]["method"] = "other"
        with open(info["json_path"], "w") as fh:
            json.dump(document, fh)
        assert model_cli(["verify", base, "--check"]) == 1
