"""Schema validation of the committed ``results/`` baselines."""

from __future__ import annotations

import glob
import os

import pytest

from repro.bench import (
    ACCEPTED_METRICS,
    BENCH_SCHEMAS,
    bench_name_from_path,
    bench_path,
    check_metrics,
    read_bench_json,
    validate_bench_payload,
)
from repro.bench.schema import iter_paths

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "results")
COMMITTED = sorted(glob.glob(os.path.join(RESULTS_DIR, "BENCH_*.json")))
EXPECTED_NAMES = ("oocore", "sweep")
OOCORE_PATH = os.path.join(RESULTS_DIR, "BENCH_oocore.json")


class TestCommittedTrajectory:
    def test_every_expected_baseline_is_committed(self):
        names = sorted(bench_name_from_path(path) for path in COMMITTED)
        assert names == sorted(EXPECTED_NAMES)

    @pytest.mark.parametrize(
        "path", COMMITTED, ids=[os.path.basename(p) for p in COMMITTED]
    )
    def test_committed_file_validates(self, path):
        name = bench_name_from_path(path)
        assert name in BENCH_SCHEMAS
        payload = read_bench_json(path)
        assert validate_bench_payload(name, payload) == []

    @pytest.mark.parametrize(
        "path", COMMITTED, ids=[os.path.basename(p) for p in COMMITTED]
    )
    def test_committed_metrics_inside_contract(self, path):
        name = bench_name_from_path(path)
        assert check_metrics(name, read_bench_json(path)) == []


class TestValidateBenchPayload:
    def test_missing_field_named(self):
        payload = read_bench_json(OOCORE_PATH)
        del payload["dense_growth_bytes"]
        problems = validate_bench_payload("oocore", payload)
        assert any("dense_growth_bytes" in problem for problem in problems)

    def test_wrong_type_named(self):
        payload = read_bench_json(OOCORE_PATH)
        payload["rank"] = "six"
        problems = validate_bench_payload("oocore", payload)
        assert any("rank" in problem and "int" in problem for problem in problems)

    def test_wildcard_expands_over_dict_values(self):
        payload = read_bench_json(OOCORE_PATH)
        resolved = dict(iter_paths(payload, "acceptance.*"))
        assert sorted(resolved) == [
            f"acceptance.{flag}" for flag in sorted(payload["acceptance"])
        ]
        del payload["acceptance"]["bounded_peak_memory"]
        assert "acceptance.bounded_peak_memory" not in dict(
            iter_paths(payload, "acceptance.*")
        )

    def test_list_wildcard_expands_over_items(self):
        payload = read_bench_json(os.path.join(RESULTS_DIR, "BENCH_sweep.json"))
        del payload["cells"][1]["metrics"]["rms"]
        problems = validate_bench_payload("sweep", payload)
        assert any("cells[1].metrics.rms" in problem for problem in problems)

    def test_spoofed_bench_name_rejected(self):
        payload = read_bench_json(OOCORE_PATH)
        payload["bench_name"] = "sweep"
        problems = validate_bench_payload("oocore", payload)
        assert any("bench_name" in problem for problem in problems)

    def test_unknown_name_lists_known(self):
        problems = validate_bench_payload("nope", {})
        assert problems and "sweep" in problems[0]

    def test_non_object_payload(self):
        assert validate_bench_payload("sweep", [1, 2]) != []


class TestCheckMetrics:
    def test_perturbed_metric_fails_with_name_and_limit(self):
        payload = read_bench_json(OOCORE_PATH)
        payload["equivalence"]["objective_ratio"] = 1.22  # > the 1.05 contract
        failures = check_metrics("oocore", payload)
        assert any("objective_ratio" in f and "1.05" in f for f in failures)

    def test_false_acceptance_flag_fails(self):
        payload = read_bench_json(OOCORE_PATH)
        payload["acceptance"]["bounded_peak_memory"] = False
        failures = check_metrics("oocore", payload)
        assert any("bounded_peak_memory" in f for f in failures)

    def test_null_flag_fails(self):
        payload = read_bench_json(OOCORE_PATH)
        payload["acceptance"]["landmark_block_intact"] = None
        failures = check_metrics("oocore", payload)
        assert any("landmark_block_intact" in f and "None" in f for f in failures)

    def test_every_accepted_metric_resolves_in_its_baseline(self):
        # The contract table must not drift away from what writers emit.
        for name, checks in ACCEPTED_METRICS.items():
            payload = read_bench_json(bench_path(name, RESULTS_DIR))
            for check in checks:
                resolved = list(iter_paths(payload, check.path))
                assert resolved, (name, check.path)
