"""The ``fit_artifact`` cell: runner-managed model artifacts.

A grid cell that fits one model and persists it as a versioned
artifact: the cell value is the artifact's content hash (deterministic
given the params, so the cell caches like any scoring cell), the
manifest record carries the ``artifact`` payload (paths + hash), and
the written pair survives load + verify.
"""

from __future__ import annotations

import os

from repro.model import load_model, verify_model
from repro.runner import RunnerConfig, RunSpec, run_cell, run_grid
from repro.runner.spec import RunGrid


def _params(artifact_dir: str, **overrides) -> dict:
    params = {
        "dataset": "lake",
        "method": "smfl",
        "missing_rate": 0.1,
        "seed": 0,
        "rank": 4,
        "n_rows": 120,
        "fast": True,
        "artifact_dir": artifact_dir,
    }
    params.update(overrides)
    return params


class TestFitArtifactCell:
    def test_cell_writes_verifiable_artifact(self, tmp_path):
        out = run_cell("fit_artifact", _params(str(tmp_path)))
        info = out["artifact"]
        assert out["value"] == info["content_hash"]
        assert os.path.exists(info["json_path"])
        assert os.path.exists(info["npz_path"])
        base = info["json_path"][: -len(".json")]
        assert verify_model(base)["ok"]
        model = load_model(base)
        assert model.method == "smfl"
        assert model.rank == 4
        assert out["fit"] is not None and out["fit"]["method"] == "smfl"

    def test_content_hash_is_deterministic(self, tmp_path):
        first = run_cell("fit_artifact", _params(str(tmp_path / "a")))
        second = run_cell("fit_artifact", _params(str(tmp_path / "b")))
        assert first["value"] == second["value"]

    def test_different_seed_different_hash(self, tmp_path):
        base = run_cell("fit_artifact", _params(str(tmp_path), seed=0))
        other = run_cell("fit_artifact", _params(str(tmp_path), seed=1))
        assert base["value"] != other["value"]

    def test_estimate_only_methods_also_persist(self, tmp_path):
        out = run_cell("fit_artifact", _params(str(tmp_path), method="mean"))
        base = out["artifact"]["json_path"][: -len(".json")]
        assert not load_model(base).is_factor_model


class TestManifestPassthrough:
    def test_record_carries_artifact_payload(self, tmp_path):
        spec = RunSpec(kind="fit_artifact", params=_params(str(tmp_path)))
        grid = RunGrid(
            experiment="artifact-smoke",
            cells=(spec,),
            assemble=lambda values: values,
        )
        outcome = run_grid(grid, RunnerConfig())
        record = outcome.records[0]
        assert record["artifact"]["content_hash"] == record["value"]
        assert os.path.exists(record["artifact"]["json_path"])

    def test_scoring_cells_stay_artifact_free(self):
        spec = RunSpec(
            kind="imputation_rms",
            params={
                "dataset": "lake", "method": "mean",
                "missing_rate": 0.1, "seed": 0, "fast": True,
            },
        )
        grid = RunGrid(
            experiment="no-artifact",
            cells=(spec,),
            assemble=lambda values: values,
        )
        outcome = run_grid(grid, RunnerConfig())
        assert "artifact" not in outcome.records[0]
