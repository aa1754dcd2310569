"""FitReport JSON round-trip: the telemetry travels, the factors don't.

A report crosses process and file boundaries (manifests, cache entries,
trace attributes), so ``to_json_dict`` must be ``json.dumps``-clean -
no ndarrays, no tuples - and ``from_json_dict`` must restore the exact
dataclass (tuples back, ``None``-vs-``False`` verdicts preserved)
except for the deliberately dropped factor matrices.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.engine import FitReport


def _full_report() -> FitReport:
    return FitReport(
        u=np.arange(12.0).reshape(4, 3),
        v=np.arange(6.0).reshape(3, 2),
        objective_history=(9.5, 3.25, 1.125),
        n_iter=3,
        converged=True,
        wall_times=(0.25, 0.125, 0.0625),
        factor_deltas={"u": (1.5, 0.5, 0.25), "v": (0.75, 0.25, 0.125)},
        n_increases=0,
        landmark_block_intact=True,
        sampled_objectives=(8.0, 2.0),
        rows_touched=(64, 64),
        method="smfl",
        setup_seconds=0.5,
        loop_seconds=0.4375,
        stop_reason="tol",
    )


def _assert_ndarray_free(value: object) -> None:
    assert not isinstance(value, np.ndarray)
    if isinstance(value, dict):
        for inner in value.values():
            _assert_ndarray_free(inner)
    elif isinstance(value, (list, tuple)):
        for inner in value:
            _assert_ndarray_free(inner)


class TestToJsonDict:
    def test_is_json_serialisable_and_ndarray_free(self):
        data = _full_report().to_json_dict()
        _assert_ndarray_free(data)
        # Round-tripping through the actual codec is the real contract.
        assert json.loads(json.dumps(data)) == data

    def test_factors_become_shapes_not_payloads(self):
        data = _full_report().to_json_dict()
        assert data["u_shape"] == [4, 3]
        assert data["v_shape"] == [3, 2]
        assert "u" not in data and "v" not in data

    def test_numpy_scalars_are_coerced(self):
        report = FitReport(
            objective_history=(np.float64(2.0),),
            wall_times=(np.float32(0.5),),
            rows_touched=(np.int64(7),),
            n_iter=int(np.int32(1)),
        )
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data["objective_history"] == [2.0]
        assert data["rows_touched"] == [7]


class TestRoundTrip:
    def test_full_report_round_trips_minus_factors(self):
        original = _full_report()
        wire = json.loads(json.dumps(original.to_json_dict()))
        restored = FitReport.from_json_dict(wire)
        assert restored == dataclasses.replace(original, u=None, v=None)

    def test_tuples_come_back_as_tuples(self):
        restored = FitReport.from_json_dict(_full_report().to_json_dict())
        assert isinstance(restored.objective_history, tuple)
        assert isinstance(restored.wall_times, tuple)
        assert isinstance(restored.rows_touched, tuple)
        assert all(
            isinstance(deltas, tuple)
            for deltas in restored.factor_deltas.values()
        )

    def test_default_report_round_trips(self):
        blank = FitReport()
        assert FitReport.from_json_dict(blank.to_json_dict()) == blank

    @pytest.mark.parametrize("verdict", [None, True, False])
    def test_landmark_verdict_three_states_survive(self, verdict):
        report = FitReport(landmark_block_intact=verdict)
        wire = json.loads(json.dumps(report.to_json_dict()))
        assert FitReport.from_json_dict(wire).landmark_block_intact is verdict

    def test_derived_properties_survive(self):
        original = _full_report()
        restored = FitReport.from_json_dict(original.to_json_dict())
        assert restored.final_objective == original.final_objective
        assert restored.total_seconds == original.total_seconds
        assert restored.seconds_per_iteration == original.seconds_per_iteration
        assert restored.is_monotone() == original.is_monotone()
        # total_row_updates uses rows_touched here, not the dropped u.
        assert restored.total_row_updates == original.total_row_updates

    def test_real_engine_fit_round_trips(self, rng):
        from repro.core.smfl import SMFL

        x = np.abs(rng.normal(size=(40, 6))) + 0.1
        model = SMFL(rank=3, n_spatial=2, max_iter=5, random_state=0)
        model.fit(x)
        report = model.fit_report_
        restored = FitReport.from_json_dict(
            json.loads(json.dumps(report.to_json_dict()))
        )
        assert restored == dataclasses.replace(report, u=None, v=None)


# --------------------------------------------------------------- properties

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_history = st.lists(_finite, max_size=6).map(tuple)

report_draw = st.builds(
    FitReport,
    objective_history=_history,
    n_iter=st.integers(min_value=0, max_value=10_000),
    converged=st.booleans(),
    wall_times=_history,
    factor_deltas=st.dictionaries(
        st.sampled_from(["u", "v"]), _history, max_size=2
    ),
    n_increases=st.integers(min_value=0, max_value=50),
    landmark_block_intact=st.sampled_from([None, True, False]),
    sampled_objectives=_history,
    rows_touched=st.lists(
        st.integers(min_value=0, max_value=10_000), max_size=6
    ).map(tuple),
    method=st.sampled_from(["", "nmf", "smf", "smfl", "nmf_sgd"]),
    setup_seconds=st.floats(min_value=0.0, max_value=1e6),
    loop_seconds=st.floats(min_value=0.0, max_value=1e6),
)


class TestRoundTripProperty:
    """Hypothesis: the JSON codec is the identity on every telemetry draw."""

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(report=report_draw)
    def test_codec_is_identity_through_real_json(self, report):
        wire = json.loads(json.dumps(report.to_json_dict()))
        assert FitReport.from_json_dict(wire) == report
        # A second hop changes nothing (the codec is idempotent).
        again = FitReport.from_json_dict(
            json.loads(json.dumps(FitReport.from_json_dict(wire).to_json_dict()))
        )
        assert again == report
