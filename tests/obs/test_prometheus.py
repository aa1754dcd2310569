"""Prometheus exposition: golden output, escaping, strict self-checks.

The renderer's output is consumed by real scrapers, so the format is
pinned three ways: a golden fixture (byte-exact output for a fixed
snapshot), property tests over the label-escaping round trip (any
label value must survive render -> parse), and the strict parser
itself rejecting the malformations CI's ``expose --check`` guards
against.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.prometheus import (
    _parse_flat_key,
    metric_name,
    parse_exposition,
    render_prometheus,
    snapshot_series,
)
from repro.obs.metrics import MetricsRegistry, flat_metric_key

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

GOLDEN_SNAPSHOT = {
    "serving.requests": {"type": "counter", "value": 3},
    'oocore.worker.last_seen_age_seconds{worker="0"}': {
        "type": "gauge", "value": 0.25,
    },
    'oocore.worker.last_seen_age_seconds{worker="1"}': {
        "type": "gauge", "value": 1.5,
    },
    "serving.rows_per_request": {"type": "histogram", "count": 2, "sum": 12.0},
    "serving.request_seconds": {
        "type": "quantile_histogram", "count": 2, "sum": 0.5,
        "p50": 0.2, "p90": 0.3, "p99": 0.3,
    },
    'runner.cells{status="done"}': {"type": "counter", "value": 7},
}


class TestGolden:
    def test_render_matches_committed_fixture(self):
        with open(
            os.path.join(FIXTURES, "exposition.golden.prom"),
            encoding="utf-8",
        ) as handle:
            golden = handle.read()
        assert render_prometheus(GOLDEN_SNAPSHOT) == golden

    def test_golden_fixture_parses_strictly(self):
        text = render_prometheus(GOLDEN_SNAPSHOT)
        samples = parse_exposition(text)
        assert samples["repro_serving_requests_total"] == 3.0
        assert samples['repro_serving_request_seconds{quantile="0.99"}'] == 0.3
        assert (
            samples['repro_oocore_worker_last_seen_age_seconds{worker="1"}']
            == 1.5
        )


class TestRegistryRender:
    def test_populated_registry_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("unit.hits").inc(5)
        registry.gauge("unit.depth", {"queue": "main"}).set(2.0)
        registry.histogram("unit.sizes").observe(4.0)
        qh = registry.quantile_histogram("unit.seconds")
        for value in (0.1, 0.2, 0.3):
            qh.observe(value, exemplar="req-1-1")
        text = render_prometheus(registry)
        samples = parse_exposition(text)
        assert samples["repro_unit_hits_total"] == 5.0
        assert samples['repro_unit_depth{queue="main"}'] == 2.0
        assert samples["repro_unit_sizes_count"] == 1.0
        assert samples["repro_unit_seconds_count"] == 3.0
        assert 'repro_unit_seconds{quantile="0.5"}' in samples

    def test_unset_gauge_skipped(self):
        registry = MetricsRegistry()
        registry.gauge("unit.idle")  # created, never set
        registry.counter("unit.hits").inc()
        # The family's TYPE header is legal exposition; what must not
        # appear is a sample line for the never-set gauge.
        samples = parse_exposition(render_prometheus(registry))
        assert "repro_unit_idle" not in samples
        assert samples["repro_unit_hits_total"] == 1.0

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""
        assert parse_exposition("") == {}


class TestFailureModes:
    def test_mangling_collision_is_an_error(self):
        # "a.b" and "a_b" both mangle to repro_a_b: a scrape would
        # silently merge them, so the renderer must refuse.
        snapshot = {
            "unit.count": {"type": "counter", "value": 1},
            "unit_count": {"type": "counter", "value": 2},
        }
        with pytest.raises(ValueError, match="duplicate exposition series"):
            render_prometheus(snapshot)

    def test_cross_type_collision_is_an_error(self):
        snapshot = {
            "unit.kind": {"type": "counter", "value": 1},
            "unit_kind_total": {"type": "gauge", "value": 2.0},
        }
        with pytest.raises(ValueError, match="rendered as both"):
            render_prometheus(snapshot)

    def test_unknown_snapshot_type_is_an_error(self):
        with pytest.raises(ValueError, match="unknown snapshot type"):
            render_prometheus({"unit.x": {"type": "mystery", "value": 1}})

    @pytest.mark.parametrize(
        "text",
        [
            "repro_x 1.0\n",  # sample before TYPE
            "# TYPE repro_x counter\nrepro_x notanumber\n",
            "# TYPE repro_x counter\nrepro_x 1\nrepro_x 2\n",  # duplicate
            "# TYPE repro_x counter\n# TYPE repro_x counter\n",  # repeated
            '# TYPE repro_x gauge\nrepro_x{a="unclosed 1\n',
        ],
    )
    def test_strict_parser_rejects(self, text):
        with pytest.raises(ValueError):
            parse_exposition(text)


_LABEL_NAMES = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,8}", fullmatch=True)
_LABEL_VALUES = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20
)
_LABELS = st.dictionaries(_LABEL_NAMES, _LABEL_VALUES, max_size=4)


class TestEscapingProperties:
    @given(labels=_LABELS)
    @settings(max_examples=200, deadline=None)
    def test_flat_key_round_trips(self, labels):
        # The registry's flat key and the exposition parser agree on
        # escaping: any label values survive the round trip exactly.
        key = flat_metric_key("unit.family", labels)
        family, parsed = _parse_flat_key(key)
        assert family == "unit.family"
        assert parsed == labels

    @given(
        series=st.lists(
            st.tuples(
                _LABELS,
                st.floats(allow_nan=False, width=64),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_rendered_gauges_survive_strict_parsing(self, series):
        snapshot = {
            flat_metric_key("unit.family", labels): {
                "type": "gauge", "value": value,
            }
            for labels, value in series
        }
        text = render_prometheus(snapshot)
        samples = parse_exposition(text)  # strictness: must not raise
        assert len(samples) == len(snapshot)
        assert sorted(samples.values()) == sorted(
            float(entry["value"]) for entry in snapshot.values()
        )

    @given(labels=_LABELS)
    @settings(max_examples=100, deadline=None)
    def test_snapshot_series_inverts_flat_keys(self, labels):
        snapshot = {
            flat_metric_key("unit.family", labels): {
                "type": "counter", "value": 1,
            }
        }
        ((family, parsed, entry),) = snapshot_series(snapshot)
        assert (family, parsed) == ("unit.family", labels)
        assert entry["value"] == 1


class TestMetricName:
    def test_mangling(self):
        assert metric_name("serving.request_seconds") == (
            "repro_serving_request_seconds"
        )
        assert metric_name("a-b c.d") == "repro_a_b_c_d"
