"""Unit tests for landmark generation and injection (Section III-A)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LandmarkSet, kmeans_landmarks
from repro.exceptions import ValidationError


class TestLandmarkSet:
    def test_shape_properties(self):
        landmarks = LandmarkSet(values=np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert landmarks.n_landmarks == 2
        assert landmarks.n_spatial == 2

    def test_rejects_negative_values(self):
        with pytest.raises(ValidationError, match="non-negative"):
            LandmarkSet(values=np.array([[-0.1, 0.2]]))

    def test_values_immutable(self):
        landmarks = LandmarkSet(values=np.array([[0.1, 0.2]]))
        with pytest.raises(ValueError):
            landmarks.values[0, 0] = 9.0

    def test_frozen_mask(self):
        landmarks = LandmarkSet(values=np.array([[0.1, 0.2], [0.3, 0.4]]))
        mask = landmarks.frozen_mask((2, 5))
        assert mask[:, :2].all()
        assert not mask[:, 2:].any()

    def test_frozen_mask_row_mismatch(self):
        landmarks = LandmarkSet(values=np.array([[0.1, 0.2]]))
        with pytest.raises(ValidationError, match="rows"):
            landmarks.frozen_mask((3, 5))

    def test_frozen_mask_too_few_columns(self):
        landmarks = LandmarkSet(values=np.array([[0.1, 0.2]]))
        with pytest.raises(ValidationError, match="columns"):
            landmarks.frozen_mask((1, 1))

    def test_inject_formula_9(self, rng):
        landmarks = LandmarkSet(values=np.array([[0.1, 0.2], [0.3, 0.4]]))
        v = rng.random((2, 5))
        injected = landmarks.inject(v)
        assert np.allclose(injected[:, :2], landmarks.values)
        assert np.allclose(injected[:, 2:], v[:, 2:])
        # Original untouched.
        assert not np.allclose(v[:, :2], landmarks.values)


class TestKmeansLandmarks:
    def test_centers_match_kmeans(self, rng):
        pts = np.vstack([
            rng.normal(loc=0.2, scale=0.02, size=(30, 2)),
            rng.normal(loc=0.8, scale=0.02, size=(30, 2)),
        ])
        landmarks = kmeans_landmarks(pts, 2, random_state=0)
        centers = np.sort(landmarks.values[:, 0])
        assert centers[0] == pytest.approx(0.2, abs=0.05)
        assert centers[1] == pytest.approx(0.8, abs=0.05)

    def test_count_matches_rank(self, rng):
        landmarks = kmeans_landmarks(rng.random((50, 2)), 7, random_state=0)
        assert landmarks.n_landmarks == 7

    def test_handles_missing_spatial_cells(self, rng):
        pts = rng.random((40, 2))
        pts[3, 0] = np.nan
        landmarks = kmeans_landmarks(pts, 3, random_state=0)
        assert np.isfinite(landmarks.values).all()

    def test_deterministic(self, rng):
        pts = rng.random((40, 2))
        a = kmeans_landmarks(pts, 4, random_state=11)
        b = kmeans_landmarks(pts, 4, random_state=11)
        assert np.allclose(a.values, b.values)

    def test_landmarks_inside_data_hull_boxwise(self, rng):
        pts = rng.random((60, 2))
        landmarks = kmeans_landmarks(pts, 5, random_state=0)
        assert (landmarks.values >= pts.min(axis=0) - 1e-9).all()
        assert (landmarks.values <= pts.max(axis=0) + 1e-9).all()


class TestLandmarkMemo:
    """Seeded K-means builds are memoized on their exact inputs."""

    @pytest.fixture(autouse=True)
    def fresh_memos(self):
        from repro.spatial import clear_graph_cache

        clear_graph_cache()
        yield
        clear_graph_cache()

    @pytest.fixture
    def kmeans_runs(self, monkeypatch):
        from repro.clustering.kmeans import KMeans

        runs = []
        fit = KMeans.fit

        def counting_fit(model, points):
            runs.append(points.shape)
            return fit(model, points)

        monkeypatch.setattr(KMeans, "fit", counting_fit)
        return runs

    @pytest.fixture
    def points(self, rng):
        return rng.random((40, 2))

    def test_equal_inputs_share_one_build(self, points, kmeans_runs):
        first = kmeans_landmarks(points, 4, random_state=3)
        again = kmeans_landmarks(points.copy(), 4, random_state=np.int64(3))
        assert again is first
        assert len(kmeans_runs) == 1
        assert not first.values.flags.writeable

    def test_hit_equals_a_fresh_build(self, points):
        first = kmeans_landmarks(points, 4, random_state=3)
        fresh = kmeans_landmarks(points, 4, random_state=np.random.default_rng(3))
        assert np.array_equal(first.values, fresh.values)

    def test_one_ulp_misses(self, points, kmeans_runs):
        first = kmeans_landmarks(points, 4, random_state=3)
        moved = points.copy()
        moved[7, 1] = np.nextafter(moved[7, 1], np.inf)
        assert kmeans_landmarks(moved, 4, random_state=3) is not first
        assert len(kmeans_runs) == 2

    @pytest.mark.parametrize(
        "change",
        [
            {"n_landmarks": 5},
            {"max_iter": 50},
            {"random_state": 4},
            {"observed": "mask"},
        ],
        ids=["rank", "budget", "seed", "mask"],
    )
    def test_every_key_part_misses(self, points, kmeans_runs, change):
        args = {"n_landmarks": 4, "max_iter": 300, "random_state": 3}
        first = kmeans_landmarks(points, **args)
        if change.get("observed") == "mask":
            observed = np.ones(points.shape, dtype=bool)
            observed[0, 0] = False
            change = {"observed": observed}
        assert kmeans_landmarks(points, **{**args, **change}) is not first
        assert len(kmeans_runs) == 2

    @pytest.mark.parametrize("seed", [None, "generator"])
    def test_unseeded_builds_bypass_the_memo(self, points, kmeans_runs, seed):
        from repro.obs import get_metrics

        hits = get_metrics().counter("landmark_cache.hits").value
        misses = get_metrics().counter("landmark_cache.misses").value
        for _ in range(2):
            state = np.random.default_rng(0) if seed == "generator" else None
            kmeans_landmarks(points, 4, random_state=state)
        assert len(kmeans_runs) == 2
        assert get_metrics().counter("landmark_cache.hits").value == hits
        assert get_metrics().counter("landmark_cache.misses").value == misses

    def test_clear_graph_cache_empties_it(self, points, kmeans_runs):
        from repro.spatial import clear_graph_cache

        first = kmeans_landmarks(points, 4, random_state=3)
        clear_graph_cache()
        assert kmeans_landmarks(points, 4, random_state=3) is not first
        assert len(kmeans_runs) == 2

    def test_counted_apart_from_the_graph_cache(self, points):
        from repro.obs import get_metrics
        from repro.spatial import graph_cache_info

        metrics = get_metrics()
        names = [f"{cache}.{kind}" for cache in ("landmark_cache", "spatial_graph_cache")
                 for kind in ("hits", "misses")]
        before = [metrics.counter(name).value for name in names]
        for _ in range(3):
            kmeans_landmarks(points, 4, random_state=3)
        after = [metrics.counter(name).value for name in names]
        assert [b - a for a, b in zip(before, after)] == [2, 1, 0, 0]
        assert graph_cache_info()["entries"] == 0

    def test_smfl_fits_share_the_graph_digest_and_the_build(self, rng, kmeans_runs):
        from repro.core import SMFL

        x = np.hstack([rng.random((40, 2)), rng.random((40, 4)) + 0.1])
        models = [SMFL(rank=3, n_spatial=2, max_iter=5, random_state=0).fit(x) for _ in range(2)]
        assert models[1].landmarks_ is models[0].landmarks_
        assert len(kmeans_runs) == 1
        # The public builder keys the same inputs (mask included) the same way.
        observed = np.ones((40, 2), dtype=bool)
        again = kmeans_landmarks(x[:, :2], 3, observed=observed, random_state=0)
        assert again is models[0].landmarks_
        custom = LandmarkSet(values=np.full((3, 2), 0.5))
        SMFL(rank=3, n_spatial=2, landmarks=custom, max_iter=5, random_state=0).fit(x)
        assert len(kmeans_runs) == 1
