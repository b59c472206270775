import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import TEST_SENSOR, full_coverage_wall, make_random_cloud

from lidarforge import (PointCloud, SensorConfig, ValidationError, beam_rows_of,
                        point_ranges, project, reproject, write_pgm)
from lidarforge._kernels import scatter_min
from lidarforge.range_projection import RangeImage, _cell_coords

KITTI_LIKE = SensorConfig(beams=64, width=2048, fov_up_deg=3.0, fov_down_deg=25.0)


def brute_force_cells(cloud: PointCloud, cfg: SensorConfig):
    """Independent per-point cell computation with a python min-scan."""
    best = {}
    for i in range(cloud.count):
        x, y, z, _ = (float(v) for v in cloud.data[i])
        r = np.sqrt(x * x + y * y + z * z)
        u = 0.5 * (1.0 - np.arctan2(y, x) / np.pi) * cfg.width
        v = (1.0 - (np.arcsin(z / r) + cfg.fov_down_rad) / cfg.fov_rad) * cfg.beams
        if v < 0 or v > cfg.beams:
            continue
        col = min(cfg.width - 1, max(0, int(np.floor(u))))
        row = min(cfg.beams - 1, max(0, int(np.floor(v))))
        key = (row, col)
        if key not in best or r < best[key][1]:
            best[key] = (i, r)
    return best


class TestProject:
    def test_forward_point_center_column(self):
        cloud = PointCloud.from_xyz(np.array([[10.0, 0.0, 0.0]]))
        img = project(cloud, KITTI_LIKE)
        _, cols = np.nonzero(img.filled)
        assert cols.tolist() == [1024]

    def test_collision_keeps_closest(self):
        direction = np.array([1.0, 0.0, 0.0])
        cloud = PointCloud.from_xyz(np.vstack([direction * 9.0, direction * 5.0]))
        img = project(cloud, KITTI_LIKE)
        assert img.filled.sum() == 1
        assert img.point_index[img.filled][0] == 1
        assert img.ranges[img.filled][0] == pytest.approx(5.0)

    def test_stored_range_matches_norm(self):
        rng = np.random.default_rng(0)
        cloud = make_random_cloud(rng, 4000)
        img = project(cloud, TEST_SENSOR)
        idx = img.point_index[img.filled]
        recomputed = np.linalg.norm(cloud.xyz[idx].astype(np.float64), axis=1)
        np.testing.assert_allclose(img.ranges[img.filled], recomputed, atol=1e-6)

    def test_point_ranges_equal_norm_bit_for_bit(self):
        rng = np.random.default_rng(6)
        n = 100_000
        # float32 points spread over 6 orders of magnitude of range
        xyz = (rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-3, 3, (n, 1))).astype(np.float32)
        xyz = np.vstack([xyz, make_random_cloud(rng, 4000).xyz])
        got = point_ranges(xyz)
        assert got.tobytes() == np.linalg.norm(xyz.astype(np.float64), axis=1).tobytes()
        # the data tells the summation orders apart: right-to-left rounds differently
        x, y, z = (xyz[:, i].astype(np.float64) for i in range(3))
        assert (np.sqrt(x * x + (y * y + z * z)) != got).any()

    def test_matches_brute_force_winner(self):
        rng = np.random.default_rng(1)
        cloud = make_random_cloud(rng, 2000)
        img = project(cloud, TEST_SENSOR)
        expected = brute_force_cells(cloud, TEST_SENSOR)
        got = {(r, c): img.point_index[r, c]
               for r, c in zip(*np.nonzero(img.filled))}
        assert got == {key: i for key, (i, _) in expected.items()}

    def test_origin_point_is_outside_fov(self):
        cloud = PointCloud.from_xyz(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        img = project(cloud, KITTI_LIKE)
        assert img.point_index[img.filled].tolist() == [0]
        assert _cell_coords(cloud.xyz, KITTI_LIKE)[3].tolist() == [True, False]
        only_origin = project(PointCloud.from_xyz(np.zeros((3, 3))), KITTI_LIKE)
        assert not only_origin.filled.any()

    def test_pole_point_is_valid_but_out_of_fov(self):
        cloud = PointCloud.from_xyz(np.array([[0.0, 0.0, 5.0], [10.0, 0.0, 0.0]]))
        img = project(cloud, KITTI_LIKE)
        assert img.point_index[img.filled].tolist() == [1]

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValidationError):
            project(PointCloud(np.empty((0, 4), dtype=np.float32)), KITTI_LIKE)

    def test_fov_boundaries_kept_within_one_row(self):
        up = TEST_SENSOR.fov_up_rad
        down = TEST_SENSOR.fov_down_rad
        pts = np.array([
            [10 * np.cos(up), 0.0, 10 * np.sin(up)],       # exactly the top edge
            [10 * np.cos(down), 0.0, -10 * np.sin(down)],  # exactly the bottom edge
        ])
        img = project(PointCloud.from_xyz(pts), TEST_SENSOR)
        rows, _ = np.nonzero(img.filled)
        assert set(rows.tolist()) <= {0, TEST_SENSOR.beams - 1}
        assert img.filled.sum() == 2


class TestReproject:
    def test_distinct_cells_is_permutation(self):
        pts = np.array([[10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [-10.0, 0.0, 0.0]])
        cloud = PointCloud.from_xyz(pts, intensity=0.5)
        img = project(cloud, KITTI_LIKE)
        out = reproject(img, cloud)
        assert out.count == 3
        assert sorted(map(tuple, out.data.tolist())) == sorted(map(tuple, cloud.data.tolist()))

    def test_never_grows(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            cloud = make_random_cloud(rng, int(rng.integers(100, 3000)))
            out = reproject(project(cloud, TEST_SENSOR), cloud)
            assert out.count <= cloud.count

    def test_occluded_points_never_survive(self):
        wall = full_coverage_wall(TEST_SENSOR, distance=5.0)
        n_wall = wall.shape[0]
        rng = np.random.default_rng(3)
        behind = make_random_cloud(rng, 500)  # ranges start at 2.0 but most beyond 5
        far_mask = np.linalg.norm(behind.xyz, axis=1) > 5.0
        combined = PointCloud.from_xyz(
            np.vstack([wall, behind.xyz[far_mask].astype(np.float64)]))
        img = project(combined, TEST_SENSOR, scene_count=n_wall)
        assert (img.surviving_indices() < n_wall).all()

    def test_idempotent_winner_set(self):
        rng = np.random.default_rng(4)
        cloud = make_random_cloud(rng, 3000)
        img1 = project(cloud, TEST_SENSOR)
        once = reproject(img1, cloud)
        img2 = project(once, TEST_SENSOR)
        twice = reproject(img2, once)
        assert twice == once

    def test_wrong_cloud_rejected(self):
        rng = np.random.default_rng(5)
        cloud = make_random_cloud(rng, 100)
        img = project(cloud, TEST_SENSOR)
        with pytest.raises(ValidationError):
            reproject(img, make_random_cloud(rng, 99))

    def test_bit_exact_recovery(self):
        rng = np.random.default_rng(6)
        cloud = make_random_cloud(rng, 2000)
        img = project(cloud, TEST_SENSOR)
        out = reproject(img, cloud)
        idx = img.surviving_indices()
        assert out.tobytes() == cloud.data[idx].tobytes()


class TestBeamRows:
    def test_object_below_fov_gives_empty_map(self):
        scene = np.array([[10.0, 0.0, 0.0]])
        # elevation of -60 degrees, far below the 24-degree lower edge
        obj = np.array([[5.0, 0.0, -8.66]])
        cloud = PointCloud.from_xyz(np.vstack([scene, obj]))
        img = project(cloud, TEST_SENSOR, scene_count=1)
        assert beam_rows_of(img) == {}

    def test_three_beam_object(self):
        cfg = TEST_SENSOR
        row_height = cfg.fov_rad / cfg.beams
        elevations = [-cfg.fov_down_rad + (i + 0.5) * row_height for i in (10, 11, 12)]
        pts = []
        for elev in elevations:
            for yaw in np.linspace(-0.05, 0.05, 40):
                pts.append([10 * np.cos(elev) * np.cos(yaw),
                            10 * np.cos(elev) * np.sin(yaw),
                            10 * np.sin(elev)])
        scene = np.array([[40.0, 0.0, 0.0]])
        cloud = PointCloud.from_xyz(np.vstack([scene, np.array(pts)]))
        img = project(cloud, cfg, scene_count=1)
        rows = beam_rows_of(img)
        assert len(rows) == 3

    def test_counts_partition_object_survivors(self):
        rng = np.random.default_rng(7)
        scene = make_random_cloud(rng, 1000)
        objects = make_random_cloud(rng, 500)
        cloud = PointCloud(np.vstack([scene.data, objects.data]))
        img = project(cloud, TEST_SENSOR, scene_count=1000)
        rows = beam_rows_of(img)
        n_obj = int((img.surviving_indices() >= 1000).sum())
        assert sum(len(v) for v in rows.values()) == n_obj


def sequential_scatter_min(rows, cols, ranges, height, width):
    """Reference winner-per-cell: one pass in index order with a strict
    ``<``, so a tie on range keeps the earlier (smaller) index."""
    index_grid = np.full((height, width), -1, dtype=np.int64)
    range_grid = np.full((height, width), np.inf, dtype=np.float64)
    for i in range(rows.shape[0]):
        u, v, r = rows[i], cols[i], ranges[i]
        if r < range_grid[u, v]:
            range_grid[u, v] = r
            index_grid[u, v] = i
    return index_grid, range_grid


class TestBackends:
    """The numpy kernel against the sequential reference above."""

    def test_scatter_min_backends_identical(self):
        rng = np.random.default_rng(8)
        n = 20000
        rows = rng.integers(0, 64, n)
        cols = rng.integers(0, 512, n)
        ranges = rng.uniform(1.0, 80.0, n)
        ranges[: n // 2] = ranges[: n // 2].round(1)  # force some exact ties
        idx, rgrid = scatter_min(rows, cols, ranges, 64, 512)
        idx_ref, rgrid_ref = sequential_scatter_min(rows, cols, ranges, 64, 512)
        np.testing.assert_array_equal(idx, idx_ref)
        np.testing.assert_array_equal(rgrid, rgrid_ref)

    def test_project_backend_equivalence(self):
        rng = np.random.default_rng(9)
        data = make_random_cloud(rng, 5000).data.copy()
        # a few points outside the vertical FOV exercise the filter and
        # the map back to cloud indices
        data[:50, 2] = np.abs(data[:50, 2]) + 30.0
        cloud = PointCloud(data)
        img = project(cloud, TEST_SENSOR)
        rows, cols, ranges, in_fov = _cell_coords(cloud.xyz, TEST_SENSOR)
        assert not in_fov[:50].all()
        # out-of-FOV points get an infinite range, so they never win a cell
        ranges = np.where(in_fov, ranges, np.inf)
        idx_ref, rgrid_ref = sequential_scatter_min(rows, cols, ranges,
                                                    TEST_SENSOR.beams, TEST_SENSOR.width)
        np.testing.assert_array_equal(img.point_index, idx_ref)
        np.testing.assert_array_equal(img.ranges, rgrid_ref)


def _scatter_case(cells, ranges, height, width):
    cells = np.asarray(cells, dtype=np.int64)
    return (cells // width, cells % width, np.asarray(ranges, dtype=np.float64),
            height, width)


@st.composite
def tie_heavy_scatters(draw):
    """A small grid with few distinct ranges, so that exact ties are common."""
    height = draw(st.integers(1, 4))
    width = draw(st.integers(1, 5))
    n = draw(st.integers(0, 60))
    cells = draw(st.lists(st.integers(0, height * width - 1), min_size=n, max_size=n))
    ranges = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=n, max_size=n))
    return _scatter_case(cells, ranges, height, width)


class TestScatterMin:
    def test_tie_goes_to_first_index(self):
        rows = np.array([3, 3])
        cols = np.array([7, 7])
        ranges = np.array([5.0, 5.0])
        idx, _ = scatter_min(rows, cols, ranges, 8, 8)
        assert idx[3, 7] == 0

    @given(case=tie_heavy_scatters())
    @example(case=_scatter_case([], [], 3, 4))                                  # no points
    @example(case=_scatter_case([5] * 7, [2.0, 1.0, 1.5, 1.0, 1.0, 0.5, 0.5], 3, 4))  # one cell
    @example(case=_scatter_case([1, 6, 1, 1, 6, 1], [1.5, 1.0, 1.5, 1.5, 1.0, 1.5], 2, 4))  # repeated pairs
    @settings(max_examples=200, deadline=None)
    def test_matches_sequential_reference(self, case):
        rows, cols, ranges, height, width = case
        idx, rgrid = scatter_min(rows, cols, ranges, height, width)
        idx_ref, rgrid_ref = sequential_scatter_min(rows, cols, ranges, height, width)
        np.testing.assert_array_equal(idx, idx_ref)
        np.testing.assert_array_equal(rgrid, rgrid_ref)
        assert idx.dtype == np.int64 and rgrid.dtype == np.float64

        img = RangeImage(point_index=idx, ranges=rgrid,
                         source_count=ranges.shape[0], scene_count=ranges.shape[0])
        np.testing.assert_array_equal(img.surviving_indices(),
                                      np.sort(img.point_index[img.filled]))


class TestPgm:
    def test_header_and_size(self, tmp_path):
        rng = np.random.default_rng(10)
        cloud = make_random_cloud(rng, 500)
        img = project(cloud, TEST_SENSOR)
        out = tmp_path / "img.pgm"
        write_pgm(img, out)
        raw = out.read_bytes()
        assert raw.startswith(b"P5\n512 32\n255\n")
        assert len(raw) == len(b"P5\n512 32\n255\n") + 32 * 512
