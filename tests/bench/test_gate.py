"""The regression gate: passes clean, fails loudly with the metric named.

The acceptance criterion under test: the gate exits 0 on an unmodified
tree and exits non-zero - naming the perturbed metric - when a
committed baseline value is pushed >15% past its recorded state.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.bench import (
    bench_path,
    compare_sweeps,
    read_bench_json,
    run_gate,
    write_bench_json,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "results")


def _gate_cli(baseline_dir, *extra):
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.bench", "gate",
         "--baseline", str(baseline_dir), *extra],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture
def results_copy(tmp_path):
    """A private copy of the committed baselines, safe to perturb."""
    destination = tmp_path / "results"
    shutil.copytree(RESULTS_DIR, destination)
    return destination


class TestGatePasses:
    def test_unmodified_tree_passes(self):
        # The committed sweep stands in for the fresh run, so the check
        # is clock-free and deterministic: schema + accepted metrics +
        # a self-diff that must be exactly equal.
        baseline_sweep = read_bench_json(bench_path("sweep", RESULTS_DIR))
        report = run_gate(RESULTS_DIR, fresh_sweep=baseline_sweep)
        assert report.failures == []
        assert report.passed
        assert report.compared_cells == baseline_sweep["n_cells"]
        assert len(report.checked_files) == 2

    def test_unmodified_tree_passes_via_cli(self):
        proc = _gate_cli(RESULTS_DIR, "--sweep", bench_path("sweep", RESULTS_DIR))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "gate: PASS" in proc.stdout

    def test_skip_sweep_mode(self):
        report = run_gate(RESULTS_DIR, skip_sweep=True)
        assert report.passed
        assert report.compared_cells == 0


class TestGateFailsOnPerturbation:
    def test_perturbed_accuracy_metric_fails_cli_with_name(self, results_copy):
        # Push objective_ratio >15% past its recorded value (and past
        # the 1.05 contract); the gate must exit non-zero naming it.
        path = results_copy / "BENCH_oocore.json"
        payload = json.loads(path.read_text())
        equivalence = payload["equivalence"]
        equivalence["objective_ratio"] = round(equivalence["objective_ratio"] * 1.25, 6)
        path.write_text(json.dumps(payload))
        proc = _gate_cli(
            results_copy, "--sweep", bench_path("sweep", str(results_copy))
        )
        assert proc.returncode != 0
        assert "objective_ratio" in proc.stdout

    def test_perturbed_sweep_timing_fails_with_name(self, results_copy):
        # Fresh run 1.25x slower than baseline > the 15% tolerance.
        sweep_path = bench_path("sweep", str(results_copy))
        baseline = read_bench_json(sweep_path)
        fresh = copy.deepcopy(baseline)
        cell = fresh["cells"][0]
        cell["metrics"]["median_iteration_seconds"] *= 1.25
        report = run_gate(str(results_copy), fresh_sweep=fresh)
        assert not report.passed
        assert any(
            "median_iteration_seconds" in failure and cell["key"] in failure
            for failure in report.failures
        )

    def test_missing_required_field_fails(self, results_copy):
        path = results_copy / "BENCH_oocore.json"
        payload = json.loads(path.read_text())
        del payload["peak_rss_growth_bytes"]
        path.write_text(json.dumps(payload))
        report = run_gate(str(results_copy), skip_sweep=True)
        assert any("peak_rss_growth_bytes" in failure for failure in report.failures)

    def test_stale_envelope_version_fails(self, results_copy):
        path = results_copy / "BENCH_oocore.json"
        payload = json.loads(path.read_text())
        payload["bench_schema_version"] = 99
        path.write_text(json.dumps(payload))
        report = run_gate(str(results_copy), skip_sweep=True)
        assert any("bench_schema_version" in failure for failure in report.failures)

    def test_unknown_bench_file_fails(self, results_copy):
        write_bench_json("mystery", {"x": 1}, directory=str(results_copy))
        report = run_gate(str(results_copy), skip_sweep=True)
        assert any("mystery" in failure for failure in report.failures)

    def test_missing_sweep_baseline_is_actionable(self, results_copy):
        os.unlink(bench_path("sweep", str(results_copy)))
        report = run_gate(str(results_copy))
        assert any("repro.bench sweep" in failure for failure in report.failures)

    def test_empty_baseline_dir_fails(self, tmp_path):
        report = run_gate(str(tmp_path / "nothing"))
        assert not report.passed


class TestCompareSweeps:
    @pytest.fixture
    def baseline(self):
        return read_bench_json(bench_path("sweep", RESULTS_DIR))

    def test_identical_sweeps_compare_clean(self, baseline):
        failures, compared = compare_sweeps(baseline, copy.deepcopy(baseline))
        assert failures == []
        assert compared == baseline["n_cells"]

    def test_data_hash_change_is_a_failure(self, baseline):
        fresh = copy.deepcopy(baseline)
        fresh["cells"][2]["data_hash"] = "0" * 64
        failures, _ = compare_sweeps(baseline, fresh)
        assert any("data_hash" in f and "bit-identical" in f for f in failures)

    def test_accuracy_drift_is_a_failure(self, baseline):
        fresh = copy.deepcopy(baseline)
        fresh["cells"][0]["metrics"]["rms"] *= 1.10
        failures, _ = compare_sweeps(baseline, fresh, accuracy_rtol=0.02)
        assert any("rms drifted" in f for f in failures)

    def test_speedup_is_not_a_failure(self, baseline):
        fresh = copy.deepcopy(baseline)
        for cell in fresh["cells"]:
            cell["metrics"]["median_iteration_seconds"] *= 0.5
        failures, _ = compare_sweeps(baseline, fresh)
        assert failures == []

    def test_config_mismatch_refuses_comparison(self, baseline):
        fresh = copy.deepcopy(baseline)
        fresh["fixed"]["max_iter"] += 1
        failures, compared = compare_sweeps(baseline, fresh)
        assert compared == 0
        assert any("apples-to-oranges" in f for f in failures)

    def test_cell_set_mismatch_named_both_ways(self, baseline):
        fresh = copy.deepcopy(baseline)
        dropped = fresh["cells"].pop()
        failures, _ = compare_sweeps(baseline, fresh)
        assert any(dropped["key"] in f and "missing from fresh" in f
                   for f in failures)

    def test_tolerance_boundary(self, baseline):
        fresh = copy.deepcopy(baseline)
        for cell in fresh["cells"]:
            cell["metrics"]["median_iteration_seconds"] *= 1.14
        failures, _ = compare_sweeps(baseline, fresh, tolerance=0.15)
        assert failures == []
        for cell in fresh["cells"]:
            cell["metrics"]["median_iteration_seconds"] *= 1.05
        failures, _ = compare_sweeps(baseline, fresh, tolerance=0.15)
        assert len(failures) == len(fresh["cells"])


class TestGateReport:
    def test_report_payload_round_trips(self, tmp_path):
        report = run_gate(RESULTS_DIR, skip_sweep=True)
        payload = report.to_payload()
        assert payload["passed"] is True
        assert payload["compared_cells"] == 0
        path = write_bench_json(
            "gate_report", payload, path=str(tmp_path / "report.json")
        )
        assert read_bench_json(path)["passed"] is True
