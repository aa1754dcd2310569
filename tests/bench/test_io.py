"""The shared BENCH envelope writer: round-trip, atomicity, ownership."""

from __future__ import annotations

import json
import os

import pytest

from repro.bench import (
    BENCH_SCHEMA_VERSION,
    bench_path,
    read_bench_json,
    write_bench_json,
)


class TestWriteBenchJson:
    def test_round_trip_preserves_payload_and_stamps_envelope(self, tmp_path):
        payload = {"metric": 1.25, "nested": {"flag": True}, "items": [1, 2]}
        destination = write_bench_json(
            "sweep", payload, path=str(tmp_path / "BENCH_sweep.json")
        )
        on_disk = read_bench_json(destination)
        for key, value in payload.items():
            assert on_disk[key] == value
        assert on_disk["bench_name"] == "sweep"
        assert on_disk["bench_schema_version"] == BENCH_SCHEMA_VERSION
        assert isinstance(on_disk["python"], str)
        assert isinstance(on_disk["machine"], str)

    def test_caller_dict_not_mutated(self, tmp_path):
        payload = {"metric": 1.0}
        write_bench_json("sweep", payload, path=str(tmp_path / "b.json"))
        assert payload == {"metric": 1.0}

    def test_envelope_collision_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="bench_name"):
            write_bench_json(
                "sweep", {"bench_name": "spoof"}, path=str(tmp_path / "b.json")
            )

    def test_default_location_is_canonical(self, tmp_path):
        destination = write_bench_json(
            "oocore", {"x": 1}, directory=str(tmp_path / "results")
        )
        assert destination == bench_path("oocore", str(tmp_path / "results"))
        assert os.path.exists(destination)

    def test_rewrite_is_byte_identical_and_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "BENCH_oocore.json")
        write_bench_json("oocore", {"x": 1}, path=path)
        first = open(path, "rb").read()
        write_bench_json("oocore", {"x": 1}, path=path)
        assert open(path, "rb").read() == first
        assert first.endswith(b"\n")
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_oocore.json"]

    def test_sorted_keys_deterministic_serialisation(self, tmp_path):
        a = write_bench_json(
            "sweep", {"b": 1, "a": 2}, path=str(tmp_path / "one.json")
        )
        b = write_bench_json(
            "sweep", {"a": 2, "b": 1}, path=str(tmp_path / "two.json")
        )
        assert open(a).read() == open(b).read()

    def test_read_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError, match="object"):
            read_bench_json(str(path))


class TestTimingWritersRouteThroughEnvelope:
    """Every writer of a committed baseline uses the envelope helper."""

    def test_no_writer_bypasses_the_envelope(self):
        import inspect

        from repro.bench import sweep
        from repro.obs import slo
        from repro.oocore import benchmark

        for module, name in (
            (benchmark, "oocore"), (sweep, "sweep"), (slo, "SLO_serving")
        ):
            source = inspect.getsource(module)
            assert f'write_bench_json("{name}"' in source
            assert "json.dump(" not in source
