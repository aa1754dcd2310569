"""Benchmark payload contract and the oocore runner cell."""

from __future__ import annotations

import pytest

from repro.bench.schema import (
    ACCEPTED_METRICS,
    BENCH_SCHEMAS,
    check_metrics,
    validate_bench_payload,
)
from repro.oocore.benchmark import oocore_benchmark
from repro.runner.cells import CELL_KINDS, run_cell


class TestSchemaRegistration:
    def test_oocore_is_a_registered_benchmark(self):
        assert "oocore" in BENCH_SCHEMAS
        assert "oocore" in ACCEPTED_METRICS

    def test_acceptance_flags_are_ratcheted(self):
        paths = {check.path for check in ACCEPTED_METRICS["oocore"]}
        assert "acceptance.*" in paths
        assert "equivalence.objective_ratio" in paths


@pytest.mark.slow
class TestSmokePayload:
    @pytest.fixture(scope="class")
    def payload(self):
        return oocore_benchmark(smoke=True)

    def test_payload_validates_against_the_schema(self, payload):
        assert validate_bench_payload("oocore", payload, require_envelope=False) == []

    def test_metrics_inside_contract(self, payload):
        assert check_metrics("oocore", payload) == []

    def test_all_acceptance_flags_hold(self, payload):
        assert all(payload["acceptance"].values()), payload["acceptance"]

    def test_curve_is_monotone_in_rows(self, payload):
        rows = [point["rows"] for point in payload["curve"]]
        assert rows == sorted(rows) and len(rows) >= 2


class TestOocoreCell:
    PARAMS = {
        "spec": "lowrank_landmark",
        "spec_params": {"rows": 96, "cols": 9, "rank": 3},
        "seed": 11,
        "block_rows": 32,
        "epochs": 2,
    }

    def test_registered(self):
        assert "oocore_fit" in CELL_KINDS

    def test_cell_is_deterministic(self):
        a = run_cell("oocore_fit", dict(self.PARAMS))
        b = run_cell("oocore_fit", dict(self.PARAMS))
        assert a["factor_hash"] == b["factor_hash"]
        assert a["value"] == b["value"]
        assert a["landmark_block_intact"] is True
        assert a["epochs"] == 2

    def test_cell_value_is_the_final_objective(self):
        result = run_cell("oocore_fit", dict(self.PARAMS))
        assert isinstance(result["value"], float) and result["value"] >= 0.0
