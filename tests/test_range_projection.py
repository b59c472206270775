import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import TEST_SENSOR, full_coverage_wall, make_random_cloud

from lidarforge import (PointCloud, SensorConfig, ValidationError, point_ranges, project,
                        write_pgm)
from lidarforge._kernels import scatter_min
from lidarforge.range_projection import RangeImage, _cell_coords

KITTI_LIKE = SensorConfig(beams=64, width=2048, fov_up_deg=3.0, fov_down_deg=25.0)


def cell_coords(xyz: np.ndarray, cfg: SensorConfig):
    """(rows, cols, ranges) of every point; row cfg.beams marks a point
    outside the vertical FOV."""
    n = xyz.shape[0]
    rows, cols, ranges = np.empty(n, np.int64), np.empty(n, np.int64), np.empty(n)
    _cell_coords(xyz, cfg, rows, cols, ranges)
    return rows, cols, ranges


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
        # two columns: the distance from the vertical axis, in float32 and float64
        for xy in (xyz[:, :2], xyz[:, :2].astype(np.float64) * np.pi):
            assert point_ranges(xy).tobytes() == \
                np.linalg.norm(np.asarray(xy, dtype=np.float64), axis=1).tobytes()

    def test_point_ranges_needs_two_or_three_columns(self):
        for shape in ((5,), (5, 1), (5, 4)):
            with pytest.raises(ValidationError, match="must be"):
                point_ranges(np.ones(shape))

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
        assert (cell_coords(cloud.xyz, KITTI_LIKE)[0] < KITTI_LIKE.beams).tolist() == [True, False]
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
        out = cloud.take(img.surviving_indices())
        assert out.count == 3
        assert sorted(map(tuple, out.data.tolist())) == sorted(map(tuple, cloud.data.tolist()))

    def test_never_grows(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            cloud = make_random_cloud(rng, int(rng.integers(100, 3000)))
            out = cloud.take(project(cloud, TEST_SENSOR).surviving_indices())
            assert out.count <= cloud.count

    def test_occluded_points_never_survive(self):
        wall = full_coverage_wall(TEST_SENSOR, distance=5.0)
        n_wall = wall.shape[0]
        rng = np.random.default_rng(3)
        behind = make_random_cloud(rng, 500)  # ranges start at 2.0 but most beyond 5
        far_mask = np.linalg.norm(behind.xyz, axis=1) > 5.0
        img = project(PointCloud.from_xyz(wall), TEST_SENSOR,
                      [behind.xyz[far_mask].astype(np.float64)])
        assert (img.surviving_indices() < n_wall).all()

    def test_idempotent_winner_set(self):
        rng = np.random.default_rng(4)
        cloud = make_random_cloud(rng, 3000)
        img1 = project(cloud, TEST_SENSOR)
        once = cloud.take(img1.surviving_indices())
        twice = once.take(project(once, TEST_SENSOR).surviving_indices())
        assert twice == once

    def test_bit_exact_recovery(self):
        rng = np.random.default_rng(6)
        cloud = make_random_cloud(rng, 2000)
        img = project(cloud, TEST_SENSOR)
        out = cloud.take(img.surviving_indices())
        assert out.tobytes() == cloud.data[np.sort(img.point_index[img.filled])].tobytes()


def concatenated_project(scene: PointCloud, cfg: SensorConfig, objects) -> RangeImage:
    """Reference for ``project(scene, cfg, objects)``: the objects
    appended to the scene as one float32 cloud with zero intensity."""
    blocks = [scene.data]
    for pts in objects:
        block = np.zeros((len(pts), 4), dtype=np.float32)
        block[:, :3] = pts
        blocks.append(block)
    return project(PointCloud(np.concatenate(blocks, axis=0)), cfg)


class TestObjectBlocks:
    """``project(scene, cfg, objects)`` against the concatenated cloud."""

    def assert_matches_concatenation(self, scene, objects, cfg=TEST_SENSOR):
        img = project(scene, cfg, objects)
        ref = concatenated_project(scene, cfg, objects)
        np.testing.assert_array_equal(img.point_index, ref.point_index)
        assert img.ranges.tobytes() == ref.ranges.tobytes()
        assert img.source_count == ref.source_count == scene.count + sum(map(len, objects))
        assert img.scene_count == scene.count
        return img

    def test_random_blocks(self):
        rng = np.random.default_rng(11)
        scene = make_random_cloud(rng, 3000)
        # float64 coordinates that float32 rounds, and a float32 block
        objects = [make_random_cloud(rng, n).xyz * np.float64(1.0 + 1e-9 * np.pi)
                   for n in (700, 1, 1200)]
        objects.append(make_random_cloud(rng, 500).xyz)
        self.assert_matches_concatenation(scene, objects)
        self.assert_matches_concatenation(scene, [])
        self.assert_matches_concatenation(PointCloud(np.empty((0, 4), np.float32)), objects)

    def test_object_partly_outside_the_vertical_fov(self):
        rng = np.random.default_rng(12)
        scene = make_random_cloud(rng, 2000)
        z = np.linspace(-10.0, 10.0, 400)
        column = np.column_stack([np.full_like(z, 6.0), np.linspace(-1.0, 1.0, 400), z])
        rows = cell_coords(column.astype(np.float32), TEST_SENSOR)[0]
        assert (rows == TEST_SENSOR.beams).any() and (rows < TEST_SENSOR.beams).any()
        img = self.assert_matches_concatenation(scene, [column])
        assert (img.surviving_indices() >= scene.count).any()

    def test_object_points_at_the_sensor_origin(self):
        rng = np.random.default_rng(13)
        scene = make_random_cloud(rng, 2000)
        block = make_random_cloud(rng, 300).xyz.astype(np.float64)
        block[::7] = 0.0
        img = self.assert_matches_concatenation(scene, [block])
        won = img.surviving_indices()
        assert not np.isin(won, scene.count + np.arange(0, 300, 7)).any()
        only_origin = project(PointCloud(np.empty((0, 4), np.float32)), TEST_SENSOR,
                              [np.zeros((5, 3))])
        assert not only_origin.filled.any()

    def test_equal_ranges_across_the_boundary_go_to_the_scene(self):
        rng = np.random.default_rng(14)
        scene = make_random_cloud(rng, 2000)
        twins = scene.xyz[::3].astype(np.float64)   # exact copies of scene points
        img = self.assert_matches_concatenation(scene, [twins])
        assert (img.surviving_indices() < scene.count).all()

    def test_float32_rounding_decides_the_cell(self):
        # points a hair either side of column edges: float64 and float32
        # coordinates of the same point fall into different columns
        cfg = TEST_SENSOR
        edges = np.arange(1, cfg.width, 3)
        yaw = np.pi * (1.0 - 2.0 * edges / cfg.width)
        offsets = np.linspace(-4e-7, 4e-7, 41)
        angle = (yaw[:, None] + offsets[None, :]).ravel()
        pts = np.column_stack([7.3 * np.cos(angle), 7.3 * np.sin(angle),
                               np.full(angle.size, -0.3)])
        cols64 = cell_coords(pts, cfg)[1]
        cols32 = cell_coords(pts.astype(np.float32), cfg)[1]
        assert (cols64 != cols32).any()
        scene = make_random_cloud(np.random.default_rng(15), 1000)
        self.assert_matches_concatenation(scene, [pts[::2], pts[1::2]])

    @pytest.mark.parametrize("bad", [1e39, np.inf, np.nan])
    def test_non_finite_object_point_names_its_index(self, bad):
        rng = np.random.default_rng(16)
        scene = make_random_cloud(rng, 100)
        first, second = make_random_cloud(rng, 40).xyz, make_random_cloud(rng, 30).xyz
        second = second.astype(np.float64)
        second[17, 2] = bad
        with pytest.raises(ValidationError, match=r"non-finite value at point index 157$"):
            project(scene, TEST_SENSOR, [first, second])

    def test_object_blocks_must_be_n_by_3(self):
        scene = make_random_cloud(np.random.default_rng(17), 10)
        for shape in ((5,), (5, 4)):
            with pytest.raises(ValidationError, match=r"must be \(M, 3\)"):
                project(scene, TEST_SENSOR, [np.ones(shape)])
        with pytest.raises(ValidationError, match="empty"):
            project(PointCloud(np.empty((0, 4), np.float32)), TEST_SENSOR, [np.empty((0, 3))])


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
        rows, cols, ranges = cell_coords(cloud.xyz, TEST_SENSOR)
        in_fov = rows < TEST_SENSOR.beams
        assert not in_fov[:50].all()
        # out-of-FOV points get an infinite range, so they never win a cell
        ranges = np.where(in_fov, ranges, np.inf)
        rows = np.where(in_fov, rows, 0)
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
