import tracemalloc

import numpy as np
import pytest

from helpers import make_cube_mesh

from scipy.spatial import cKDTree

from lidarforge import (PointCloud, SensorConfig, TriangleMesh, ValidationError,
                        estimate_normals, intensity, lambert_intensity, normalize_and_noise,
                        point_ranges, project, sample_surface)
from lidarforge.intensity import NOISE_SCALE

KITTI_SENSOR = SensorConfig(beams=64, width=2048, fov_up_deg=3.0, fov_down_deg=25.0)


def every_point(pts):
    return np.arange(len(pts))


def fibonacci_sphere(n, center, radius=1.0):
    """Near-uniform points on a sphere (deterministic)."""
    i = np.arange(n)
    phi = np.arccos(1 - 2 * (i + 0.5) / n)
    theta = np.pi * (1 + 5**0.5) * i
    pts = np.stack([np.sin(phi) * np.cos(theta),
                    np.sin(phi) * np.sin(theta),
                    np.cos(phi)], axis=1) * radius
    return pts + np.asarray(center)


class TestEstimateNormals:
    def test_plane_normals_vertical(self):
        rng = np.random.default_rng(0)
        pts = np.zeros((500, 3))
        pts[:, :2] = rng.uniform(-5, 5, (500, 2))
        pts[:, 0] += 10.0  # keep away from the origin
        normals = estimate_normals(pts, at=every_point(pts))
        np.testing.assert_allclose(np.abs(normals[:, 2]), 1.0, atol=1e-9)
        np.testing.assert_allclose(normals[:, :2], 0.0, atol=1e-9)

    def test_sphere_normals_near_radial(self):
        center = np.array([5.0, 0.0, 0.0])
        pts = fibonacci_sphere(5000, center)
        normals = estimate_normals(pts, at=every_point(pts))
        radial = pts - center
        radial /= np.linalg.norm(radial, axis=1, keepdims=True)
        # estimation orients toward the sensor, so compare up to sign
        cos = np.abs(np.einsum("ij,ij->i", normals, radial))
        within_5_deg = cos >= np.cos(np.deg2rad(5.0))
        assert within_5_deg.mean() >= 0.99

    def test_collinear_points_flagged_degenerate(self):
        # every neighborhood of a line is degenerate: its normal faces the sensor
        t = np.linspace(0, 1, 12)
        pts = np.stack([10 + t, 0.5 * t, np.zeros_like(t)], axis=1)
        normals = estimate_normals(pts, at=every_point(pts))
        toward_sensor = -pts / np.linalg.norm(pts, axis=1, keepdims=True)
        np.testing.assert_allclose(normals, toward_sensor, atol=1e-12)

    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(2, 20, (300, 3))
        normals = estimate_normals(pts, at=every_point(pts))
        np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-6)

    def test_orientation_toward_sensor(self):
        pts = fibonacci_sphere(2000, center=[8.0, 0.0, 0.0])
        normals = estimate_normals(pts, at=every_point(pts))
        d = np.linalg.norm(pts, axis=1, keepdims=True)
        toward = -pts / d
        assert (np.einsum("ij,ij->i", normals, toward) >= -1e-9).all()

    def test_too_few_points_rejected(self):
        with pytest.raises(ValidationError):
            estimate_normals(np.zeros((10, 3)), at=np.arange(10))


def _object_cloud():
    """Sphere points with exact duplicates, then a collinear run through
    the origin, then the origin once more."""
    rng = np.random.default_rng(12)
    sphere = fibonacci_sphere(3000, center=[6.0, -2.0, 1.0])
    duplicates = sphere[rng.integers(0, 3000, 200)]
    t = np.linspace(-1.0, 1.0, 15)[:, None]
    line = t * np.array([[1.0, 0.5, 0.0]])  # t = 0 at row 3207
    origin = np.zeros((1, 3))
    return np.vstack([sphere, duplicates, line, origin])


class TestEstimateNormalsAt:
    """``at=idx`` must equal the estimate at every point indexed by ``idx``, bit for bit."""

    @pytest.mark.parametrize("name", ["random", "repeated", "empty", "duplicates",
                                      "rank-deficient", "origin", "all"])
    def test_bitwise_equal_to_full_estimate(self, name):
        pts = _object_cloud()
        rng = np.random.default_rng(13)
        idx = {
            "random": rng.choice(len(pts), 150, replace=False),
            "repeated": np.array([5, 5, 17, 5, 3000, 3000, 42]),
            "empty": np.array([], dtype=np.int64),
            "duplicates": np.arange(3000, 3200),
            "rank-deficient": np.arange(3200, 3215),
            "origin": np.array([len(pts) - 1, 3207, 0]),
            "all": np.arange(len(pts)),
        }[name]
        full = estimate_normals(pts, at=every_point(pts))
        part = estimate_normals(pts, at=idx)
        assert part.shape == (len(idx), 3)
        assert np.array_equal(part, full[idx])

    def test_cases_reach_the_special_paths(self):
        pts = _object_cloud()
        at = np.arange(3200, len(pts))
        normals = estimate_normals(pts, at=at)
        origin = [7, len(at) - 1]
        np.testing.assert_array_equal(normals[origin], [[0.0, 0.0, 1.0]] * 2)
        # collinear neighborhoods are degenerate: their normal faces the sensor
        off = np.delete(pts[at], origin, axis=0)
        np.testing.assert_allclose(np.delete(normals, origin, axis=0),
                                   -off / np.linalg.norm(off, axis=1, keepdims=True),
                                   atol=1e-12)


def brute_force_normals(pts, at):
    """The k+1 nearest points (k = 10) by a full distance sort, then the
    steps of estimate_normals after its neighbor query."""
    k = 10
    d2 = ((pts[None, :, :] - pts[at, None, :]) ** 2).sum(axis=2)
    order = np.argsort(d2, axis=1, kind="stable")
    # tie-free: the k+2 nearest distances of every query are distinct
    nearest = np.take_along_axis(d2, order[:, :k + 2], axis=1)
    assert (np.diff(nearest, axis=1) > 0).all()
    neighbors = pts[order[:, 1:k + 1]]
    query = pts[at]
    centered = neighbors - neighbors.mean(axis=1, keepdims=True)
    eigvals, eigvecs = np.linalg.eigh(np.einsum("nki,nkj->nij", centered, centered))
    normals = eigvecs[:, :, 0].copy()
    degenerate = eigvals[:, 1] <= 1e-8 * np.maximum(eigvals[:, 2], 1e-300)
    first = np.argmax(np.abs(normals) > 1e-12, axis=1)
    normals[normals[np.arange(len(at)), first] < 0] *= -1.0
    d = point_ranges(query)
    toward_sensor = -query / np.where(d > 0, d, 1.0)[:, None]
    normals[np.einsum("ij,ij->i", normals, toward_sensor) < 0] *= -1.0
    normals[degenerate] = toward_sensor[degenerate]
    normals[degenerate & (d == 0)] = (0.0, 0.0, 1.0)
    norms = point_ranges(normals)[:, None]
    return normals / np.where(norms > 0, norms, 1.0)


class TestNeighborOracle:
    """The voxel-grid search finds the same neighbors, in the same order,
    as a full distance sort, so the normals equal the brute-force
    estimate bit for bit."""

    def test_bitwise_equal_to_brute_force(self):
        pts = sample_surface(make_cube_mesh(1.5), 4000, 31) + [7.0, -3.0, 0.5]
        at = np.random.default_rng(32).choice(len(pts), 300, replace=False)
        assert np.array_equal(estimate_normals(pts, at=at), brute_force_normals(pts, at))


def columns(pts):
    return np.ascontiguousarray(pts.T)


def search_all_points(monkeypatch, pts, at):
    """estimate_normals with every query searched among all of ``pts``."""
    def nothing_found(cols, at):
        return np.empty((len(at), intensity.DEFAULT_NEIGHBORS + 1), dtype=np.intp), \
            np.zeros(len(at), dtype=bool)
    with monkeypatch.context() as patch:
        patch.setattr(intensity, "_query_neighbourhood", nothing_found)
        return estimate_normals(pts, at=at)


def grid_found(pts, at):
    """Which queries the voxel-grid search answers itself; checks that
    each answer is the KD-tree's over the whole cloud."""
    idx, found = intensity._query_neighbourhood(columns(pts), at)
    _, tree_idx = cKDTree(pts).query(pts[at], k=intensity.DEFAULT_NEIGHBORS + 1)
    assert np.array_equal(idx[found], tree_idx[found])
    return found


def assert_blocks_exact(pts, at):
    """Every point closer than the radius to a query is in its block."""
    crop, run_start, run_len, radius = intensity._query_blocks(columns(pts), at)
    for i, q in enumerate(at):
        block = np.concatenate([crop[s:s + n] for s, n in
                                zip(run_start[9 * i:9 * i + 9], run_len[9 * i:9 * i + 9])])
        close = np.flatnonzero(np.linalg.norm(pts - pts[q], axis=1) < radius)
        assert np.isin(close, block).all()
    return crop


class TestNeighbourhoodCrop:
    """The search in the queries' voxel blocks finds the neighbors of a
    search over the whole cloud, and the brute-force fallback covers
    what it cannot."""

    @pytest.mark.parametrize("size", [(0.8, 0.8, 0.8), (1.0, 1.0, 0.04), (0.9, 0.04, 2.0)],
                             ids=["cube", "plate", "door"])
    def test_production_object_at_its_survivors(self, monkeypatch, size):
        cube = make_cube_mesh(0.5)
        box = TriangleMesh(cube.vertices * size, cube.faces)
        dense = sample_surface(box, 50_000, 41) + [9.0, 2.0, -1.3]
        dense = dense.astype(np.float32).astype(np.float64)
        cloud = PointCloud(np.hstack([dense, np.zeros((len(dense), 1))]).astype(np.float32))
        at = project(cloud, KITTI_SENSOR).surviving_indices()
        assert 0 < len(at) < len(dense) // 10
        crop = assert_blocks_exact(dense, at)
        # a door seen face-on shows half its surface, so its crop is more than half
        assert len(crop) < len(dense) * 0.6 and grid_found(dense, at).all()
        assert np.array_equal(estimate_normals(dense, at=at),
                              search_all_points(monkeypatch, dense, at))

    def test_isolated_query_falls_back(self):
        rng = np.random.default_rng(42)
        pts = np.vstack([rng.uniform(0.0, 1.0, (2000, 3)) + [6.0, 0.0, 0.0],
                         [[12.0, 5.0, 3.0]]])
        alone = np.array([len(pts) - 1])
        crop = assert_blocks_exact(pts, alone)
        assert np.array_equal(crop, alone)  # its voxel block holds only itself
        mixed = np.array([3, len(pts) - 1, 700])
        assert grid_found(pts, mixed).tolist() == [True, False, True]
        for at in (alone, mixed):
            assert np.array_equal(estimate_normals(pts, at=at), brute_force_normals(pts, at))

    @pytest.mark.parametrize("shape", ["planar", "thin", "collinear"])
    def test_degenerate_clouds(self, shape):
        rng = np.random.default_rng(43)
        pts = np.zeros((1500, 3))
        pts[:, 0] = rng.uniform(5.0, 8.0, len(pts))
        if shape != "collinear":
            pts[:, 1] = rng.uniform(-1.0, 1.0, len(pts))
        if shape == "thin":
            pts[:, 2] = rng.uniform(0.0, 1e-9, len(pts))
        at = rng.choice(len(pts), 200, replace=False)
        # a plane still has area to bin by; a line has none
        assert (intensity._query_blocks(columns(pts), at) is None) == (shape == "collinear")
        assert grid_found(pts, at).all() == (shape != "collinear")
        assert np.array_equal(estimate_normals(pts, at=at), brute_force_normals(pts, at))

    @pytest.mark.parametrize("at", [np.array([], dtype=np.int64),
                                    np.array([7, 7, 1200, 7, 0, 1200])],
                             ids=["empty", "repeated"])
    def test_empty_and_repeated_queries(self, monkeypatch, at):
        pts = sample_surface(make_cube_mesh(1.0), 3000, 44) + [8.0, -2.0, 0.0]
        assert grid_found(pts, at).all()
        normals = estimate_normals(pts, at=at)
        assert normals.shape == (len(at), 3)
        assert np.array_equal(normals, search_all_points(monkeypatch, pts, at))
        assert np.array_equal(normals, brute_force_normals(pts, at))

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_extreme_coordinates(self, scale):
        pts = (sample_surface(make_cube_mesh(1.0), 3000, 45) + [8.0, -2.0, 0.0]) * scale
        at = np.random.default_rng(46).choice(len(pts), 150, replace=False)
        assert grid_found(pts, at).all()
        assert np.array_equal(estimate_normals(pts, at=at), brute_force_normals(pts, at))


class TestPairBudget:
    """Both searches hold at most about _PAIR_BUDGET (query, point) pairs at once."""

    @pytest.mark.parametrize("budget", [1, 7, 200, 4000])
    def test_chunk_edges(self, monkeypatch, budget):
        # budgets below one query's candidates, a few queries' and many queries';
        # the isolated last point sends its query to the brute-force search
        rng = np.random.default_rng(47)
        pts = np.vstack([sample_surface(make_cube_mesh(1.0), 1500, 48) + [8.0, -2.0, 0.0],
                         [[14.0, 3.0, 2.0]]])
        at = np.append(rng.choice(len(pts) - 1, 60, replace=False), len(pts) - 1)
        monkeypatch.setattr(intensity, "_PAIR_BUDGET", budget)
        assert grid_found(pts, at).tolist() == [True] * 60 + [False]
        assert np.array_equal(estimate_normals(pts, at=at), brute_force_normals(pts, at))

    @pytest.mark.parametrize("cloud", ["object", "collinear"])
    def test_peak_memory(self, cloud):
        # 50k object points and 400 queries: the search's own arrays, not
        # a distance per (query, point) pair of the 20M that a full search holds
        rng = np.random.default_rng(49)
        pts = sample_surface(make_cube_mesh(1.0), 50_000, 50) + [8.0, -2.0, 0.0]
        if cloud == "collinear":  # no grid: every query is searched among all points
            pts[:, 1:] = 0.0
        at = rng.choice(len(pts), 400, replace=False)
        tracemalloc.start()
        try:
            estimate_normals(pts, at=at)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * pts.nbytes


def head_on(distance, normal):
    """One point on the x axis at ``distance`` with the given normal, as (1, 3) arrays."""
    return np.array([[distance, 0.0, 0.0]]), np.array([normal])


class TestLambertIntensity:
    def test_head_on_one_meter(self):
        out = lambert_intensity(*head_on(1.0, [-1.0, 0.0, 0.0]), 0.6)
        assert out.shape == (1,) and out[0] == pytest.approx(0.6, abs=1e-15)

    def test_perpendicular_is_zero(self):
        assert lambert_intensity(*head_on(1.0, [0.0, 1.0, 0.0]), 0.6)[0] == 0.0

    def test_inverse_square_falloff(self):
        assert lambert_intensity(*head_on(2.0, [-1.0, 0.0, 0.0]), 0.6)[0] \
            == pytest.approx(0.15, abs=1e-15)

    def test_back_facing_is_exactly_zero(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(1, 20, (100, 3))
        d = np.linalg.norm(pts, axis=1, keepdims=True)
        away = pts / d  # normals pointing away from the sensor
        out = lambert_intensity(pts, away, 0.5)
        assert (out == 0.0).all()

    def test_monotone_decrease_with_distance(self):
        dists = np.linspace(1, 30, 50)
        pts = np.stack([dists, np.zeros(50), np.zeros(50)], axis=1)
        normals = np.tile([-1.0, 0.0, 0.0], (50, 1))
        out = lambert_intensity(pts, normals, 0.6)
        assert (np.diff(out) < 0).all()

    def test_linear_in_reflectivity(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(1, 20, (50, 3))
        normals = -pts / np.linalg.norm(pts, axis=1, keepdims=True)
        np.testing.assert_allclose(lambert_intensity(pts, normals, 0.8),
                                   2.0 * lambert_intensity(pts, normals, 0.4), rtol=1e-12)

    def test_zero_distance_rejected(self):
        with pytest.raises(ValidationError, match="index 0"):
            lambert_intensity(*head_on(0.0, [1.0, 0.0, 0.0]), 0.5)

    def test_non_unit_normal_rejected(self):
        with pytest.raises(ValidationError, match="unit length"):
            lambert_intensity(*head_on(1.0, [2.0, 0.0, 0.0]), 0.5)

    @pytest.mark.parametrize("points", [[1.0, 0.0, 0.0], [[1.0, 0.0]], np.ones((2, 2, 3))])
    def test_points_not_n_by_3_rejected(self, points):
        with pytest.raises(ValidationError, match=r"points must be \(N, 3\)"):
            lambert_intensity(points, points, 0.5)


def noise_oracle(raw, scene_mean, scene_max, seed):
    """Mean matching, then NOISE_SCALE * scene_mean Gaussian noise from
    ``default_rng(seed)``, clamped to [0, 1] or [0, 255]."""
    mean = raw.mean()
    scaled = raw * (scene_mean / mean) if mean > 0 else raw
    noise = np.random.default_rng(seed).normal(0.0, NOISE_SCALE * scene_mean, raw.shape[0])
    return np.clip(scaled + noise, 0.0, 1.0 if scene_max <= 1.0 else 255.0)


class TestNormalizeAndNoise:
    @pytest.mark.parametrize("raw, scene_mean, scene_max, seed", [
        (np.full(100, 0.42), 0.25, 1.0, 0),
        (np.random.default_rng(4).uniform(0.0, 0.2, 1000), 0.3, 1.0, 3),
        (np.random.default_rng(6).uniform(0.0, 3.0, 5000), 0.9, 1.0, 7),
        (np.random.default_rng(6).uniform(0.0, 3.0, 5000), 20.0, 255.0, 7),
        (np.zeros(10), 0.3, 1.0, 0),
    ], ids=["constant", "uniform", "unit-clamp", "8-bit-clamp", "zero-mean"])
    def test_equals_oracle(self, raw, scene_mean, scene_max, seed):
        out = normalize_and_noise(raw, scene_mean, scene_max, seed)
        assert out.tobytes() == noise_oracle(raw, scene_mean, scene_max, seed).tobytes()

    def test_constant_raw_maps_to_scene_mean(self):
        out = normalize_and_noise(np.full(10_000, 0.42), scene_mean=0.25, scene_max=1.0, seed=0)
        assert out.mean() == pytest.approx(0.25, abs=1e-3)

    def test_mean_matching_without_noise(self):
        # raw values well above zero: the noise never reaches the clamp, so
        # taking the seed's noise draws back off leaves the mean-matched values
        raw = np.random.default_rng(4).uniform(0.05, 0.2, 1000)
        out = normalize_and_noise(raw, scene_mean=0.3, scene_max=1.0, seed=0)
        noise = np.random.default_rng(0).normal(0.0, NOISE_SCALE * 0.3, raw.shape[0])
        assert (out - noise).mean() == pytest.approx(0.3, abs=1e-9)

    def test_noise_standard_deviation(self):
        raw = np.full(10_000, 0.5)
        out = normalize_and_noise(raw, scene_mean=0.5, scene_max=1.0, seed=5)
        assert out.std() == pytest.approx(NOISE_SCALE * 0.5, rel=0.10)

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(6)
        raw = rng.uniform(0, 3.0, 5000)
        out = normalize_and_noise(raw, scene_mean=0.9, scene_max=1.0, seed=7)
        assert out.min() == 0.0 and out.max() == 1.0

    def test_clamped_to_the_hosts_8_bit_scale(self):
        # a 0-255 scene (nuScenes-style remissions, mean about 20)
        rng = np.random.default_rng(6)
        raw = rng.uniform(0, 3.0, 5000)
        out = normalize_and_noise(raw, scene_mean=20.0, scene_max=255.0, seed=7)
        assert out.min() >= 0.0 and out.max() <= 255.0
        assert (out > 1.0).mean() > 0.9
        assert out.mean() == pytest.approx(20.0, rel=0.1)

    def test_unit_scale_up_to_a_largest_intensity_of_one(self):
        raw = np.full(100, 0.5)
        assert normalize_and_noise(raw, 0.98, 1.0, seed=1).max() == 1.0
        assert normalize_and_noise(raw, 0.98, 1.5, seed=1).max() > 1.0

    def test_zero_raw_mean_is_identity_scale(self):
        out = normalize_and_noise(np.zeros(10_000), scene_mean=0.3, scene_max=1.0, seed=0)
        # only the noise is left: its positive half survives the clamp
        assert (out > 0).mean() == pytest.approx(0.5, abs=0.02)

    def test_nonpositive_scene_mean_rejected(self):
        with pytest.raises(ValidationError, match="must be non-negative, got -1.0"):
            normalize_and_noise(np.ones(5), scene_mean=-1.0, scene_max=1.0, seed=0)

    @pytest.mark.parametrize("raw", [np.zeros(5), np.linspace(0.1, 0.9, 5)])
    def test_zero_scene_mean_gives_zero_intensity(self, raw):
        # a scan without an intensity channel: scaled values and noise are 0
        out = normalize_and_noise(raw, scene_mean=0.0, scene_max=0.0, seed=0)
        assert out.tobytes() == np.zeros(5).tobytes()

    def test_infinite_scene_mean_rejected(self):
        # the float32 mean of a scan with huge remissions overflows to inf
        with pytest.raises(ValidationError, match="must be finite, got inf"):
            normalize_and_noise(np.ones(5), scene_mean=float("inf"), scene_max=1.0, seed=0)

    def test_deterministic_given_seed(self):
        raw = np.linspace(0, 0.5, 100)
        a = normalize_and_noise(raw, 0.3, 1.0, seed=9)
        b = normalize_and_noise(raw, 0.3, 1.0, seed=9)
        np.testing.assert_array_equal(a, b)
