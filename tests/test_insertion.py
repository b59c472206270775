import importlib.util
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.stats import kstest

from helpers import (ROAD_CLASS, ROAD_Z, TEST_SENSOR, full_coverage_wall,
                     half_wall_scene, make_cube_mesh, make_flat_scene, write_off)

from lidarforge import (AnomalyObject, LabelArray, PlacementInfeasibleError,
                        PointCloud, ReflectivityCatalog, SensorConfig, SplitPolicy,
                        TriangleMesh, ValidationError, build_anomaly_object, compose_scan,
                        forge_scan, forge_split, pick_placement, place, project,
                        scan_seed)
from lidarforge import insertion, mesh_bank, range_projection
from lidarforge.insertion import GROUND_NEIGHBORHOOD, PlacementSurface, discover_pairs
from lidarforge.mesh_bank import OBJECT_POINTS, MeshBank
from lidarforge.scan_io import read_labels, read_scan, write_labels, write_scan

CATALOG = ReflectivityCatalog({"chair": 0.35})
HEIGHTS = {"chair": 0.9}


def single_policy():
    return SplitPolicy.single(surface_classes=(ROAD_CLASS,), anomaly_label=2)


def multi_policy():
    return SplitPolicy.multi(surface_classes=(ROAD_CLASS,), anomaly_label=2)


class EveryScanPolicy(SplitPolicy):
    """A single-object policy that selects every scan for an anomaly."""

    anomaly_ratio = 1.0


# every scan is selected for an anomaly, so every scan reaches the projection
EVERY_SCAN = EveryScanPolicy.single(surface_classes=(ROAD_CLASS,), anomaly_label=2)


class NoScanPolicy(SplitPolicy):
    """A single-object policy that selects no scan for an anomaly."""

    anomaly_ratio = 0.0


# every scan passes through as read: the same bytes and memory for each copy
NO_SCAN = NoScanPolicy.single(surface_classes=(ROAD_CLASS,), anomaly_label=2)


def cube_object(rng, at=(10.0, 0.0)):
    obj = build_anomaly_object(make_cube_mesh(), "chair", CATALOG.get("chair"),
                               HEIGHTS["chair"], rng)
    return place(obj, at[0], at[1], ROAD_Z)


class TestSplitPolicy:
    def test_single_defaults(self):
        p = single_policy()
        assert p.anomaly_ratio == 0.40
        assert p.count_distribution == (1.0,)
        assert p.max_radius == 50.0

    def test_multi_defaults(self):
        p = multi_policy()
        assert p.anomaly_ratio == 0.60
        assert p.count_distribution == (0.40, 0.30, 0.20, 0.10)

    def test_single_ratio_matches_reference_datasets(self):
        # reference datasets built with this recipe realize 196 anomaly
        # scans out of 500, i.e. 0.392 per scan
        assert abs(196 / 500 - single_policy().anomaly_ratio) < 0.015

    @pytest.mark.parametrize("style, kind, label, surfaces", [
        ("kitti", "single", 2, {40}), ("kitti", "multi", 2, {40, 44, 48, 49}),
        ("poss", "multi", 2, {22}), ("nuscenes", "single", 100, {24}),
        ("nuscenes", "multi", 100, {24, 25, 26})])
    def test_unset_values_come_from_the_style_preset(self, style, kind, label, surfaces):
        p = SplitPolicy(kind, style=style)
        assert (p.anomaly_label, p.surface_classes) == (label, frozenset(surfaces))

    def test_set_values_override_the_preset(self):
        p = SplitPolicy("multi", (24, 25), 7, style="nuscenes")
        assert (p.anomaly_label, p.surface_classes) == (7, frozenset({24, 25}))
        assert SplitPolicy.single() == SplitPolicy("single", frozenset({40}), 2)

    def test_unknown_style_rejected(self):
        with pytest.raises(ValidationError, match="style 'waymo' is not one of"):
            SplitPolicy("single", style="waymo")


class TestPickPlacement:
    def test_flat_disc_placement(self):
        rng = np.random.default_rng(0)
        scene, labels = make_flat_scene(rng, 8000, r_min=4, r_max=20)
        x, y, gz = pick_placement(PlacementSurface(scene, labels, single_policy()), seed=1)
        assert np.hypot(x, y) <= 20.0 + 1e-6
        assert gz == pytest.approx(ROAD_Z, abs=0.02)

    def test_no_road_is_infeasible(self):
        rng = np.random.default_rng(1)
        scene, _ = make_flat_scene(rng, 1000)
        labels = LabelArray.from_class_ids(np.full(1000, 50))
        with pytest.raises(PlacementInfeasibleError):
            pick_placement(PlacementSurface(scene, labels, single_policy()), seed=0)

    def test_too_few_surface_points_infeasible(self):
        rng = np.random.default_rng(2)
        scene, labels = make_flat_scene(rng, 10)
        with pytest.raises(PlacementInfeasibleError):
            pick_placement(PlacementSurface(scene, labels, single_policy()), seed=0)

    def test_object_radius_shrinks_reach(self):
        rng = np.random.default_rng(3)
        scene, labels = make_flat_scene(rng, 8000, r_min=4, r_max=49.5)
        surface = PlacementSurface(scene, labels, single_policy())
        for seed in range(20):
            x, y, _ = pick_placement(surface, seed=seed, object_radius=5.0)
            assert np.hypot(x, y) <= 45.0 + 1e-6

    def test_overlap_rejection(self):
        rng = np.random.default_rng(4)
        scene, labels = make_flat_scene(rng, 8000, r_min=4, r_max=30)
        surface = PlacementSurface(scene, labels, single_policy())
        occupied = [(10.0, 0.0, 3.0)]
        for seed in range(20):
            x, y, _ = pick_placement(surface, seed=seed, object_radius=2.0, occupied=occupied)
            assert np.hypot(x - 10.0, y - 0.0) >= 5.0

    def test_rough_ground_rejected(self):
        rng = np.random.default_rng(5)
        scene, labels = make_flat_scene(rng, 4000, z_noise=0.5)  # spread >> threshold
        with pytest.raises(PlacementInfeasibleError):
            pick_placement(PlacementSurface(scene, labels, single_policy()), seed=0)

    def test_uniform_over_annulus_ks(self):
        rng = np.random.default_rng(6)
        scene, labels = make_flat_scene(rng, 40_000, r_min=10, r_max=45)
        surface = PlacementSurface(scene, labels, single_policy())
        draw = np.random.default_rng(7)
        xs, ys = [], []
        for _ in range(10_000):
            x, y, _ = pick_placement(surface, seed=draw)
            xs.append(x)
            ys.append(y)
        r_sq = np.square(xs) + np.square(ys)
        theta = np.mod(np.arctan2(ys, xs), 2 * np.pi)
        assert kstest(r_sq, "uniform", args=(100.0, 2025.0 - 100.0)).pvalue > 0.01
        assert kstest(theta, "uniform", args=(0.0, 2 * np.pi)).pvalue > 0.01


def indexed_surface(xy):
    """PlacementSurface over float32-cast road points whose heights are their indices."""
    xy = np.asarray(xy, dtype=np.float32).reshape(-1, 2)
    scene = PointCloud.from_xyz(np.column_stack([xy, np.arange(len(xy))]))
    return PlacementSurface(scene, LabelArray.from_class_ids(np.full(len(xy), ROAD_CLASS)),
                            single_policy())


ONE_UP = float(np.nextafter(np.float32(1.0), np.float32(2.0)))      # 1 m plus one ulp
FORTY_ONE_UP = float(np.nextafter(np.float32(41.0), np.float32(42.0)))
# quarter-metre grid values make exact 1 m distances common
COORD = st.floats(-3.0, 3.0, width=32) | st.integers(-12, 12).map(lambda k: k / 4)


class TestPlacementSurface:
    def test_heights_near_includes_the_boundary(self):
        surface = indexed_surface([(1, 0), (0, 1), (-1, 0), (0, -1), (ONE_UP, 0), (0, -ONE_UP)])
        assert sorted(surface.heights_near(0.0, 0.0)) == [0, 1, 2, 3]

    @given(points=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=200),
           offset=st.sampled_from([0.0, 40.0, -17.25]), query=st.tuples(COORD, COORD))
    @example(points=[(1, 0), (0, 1), (-1, 0), (0, -1), (ONE_UP, 0), (0, -ONE_UP)],
             offset=0.0, query=(0.0, 0.0))
    @example(points=[(41, 0), (39, 0), (40, 1), (40, -1), (FORTY_ONE_UP, 0)],
             offset=0.0, query=(40.0, 0.0))
    @settings(max_examples=200, deadline=None)
    def test_heights_near_matches_kdtree(self, points, offset, query):
        surface = indexed_surface(np.asarray(points) + offset)
        x, y = (float(np.float32(q + offset)) for q in query)
        expected = sorted(cKDTree(surface.xy).query_ball_point((x, y), GROUND_NEIGHBORHOOD))
        assert sorted(surface.heights_near(x, y).astype(int)) == expected


class TestComposeScan:
    def test_empty_objects_is_projection_identity(self):
        rng = np.random.default_rng(10)
        scene, labels = make_flat_scene(rng, 3000)
        cloud, words, records = compose_scan(scene, labels, [], TEST_SENSOR,
                                             single_policy(), seed=0)
        kept = project(scene, TEST_SENSOR).surviving_indices()
        assert cloud == scene.take(kept)
        assert words == labels.take(kept)
        assert records == []

    def test_object_survives_and_gets_anomaly_label(self):
        rng = np.random.default_rng(11)
        scene, labels = make_flat_scene(rng, 6000)
        obj = cube_object(rng)
        cloud, words, records = compose_scan(scene, labels, [obj], TEST_SENSOR,
                                             single_policy(), seed=1)
        rec = records[0]
        assert rec.surviving_count > 0
        anomaly_mask = words.class_ids == 2
        assert int(anomaly_mask.sum()) == rec.surviving_count
        # the anomaly block is exactly the recorded index range
        assert anomaly_mask[rec.index_start:rec.index_end].all()
        assert not anomaly_mask[:rec.index_start].any()

    def test_scene_points_bitwise_preserved(self):
        rng = np.random.default_rng(12)
        scene, labels = make_flat_scene(rng, 6000)
        obj = cube_object(rng)
        cloud, words, records = compose_scan(scene, labels, [obj], TEST_SENSOR,
                                             single_policy(), seed=2)
        n_scene_out = records[0].index_start
        scene_rows = {row.tobytes() for row in scene.data}
        for row in cloud.data[:n_scene_out]:
            assert row.tobytes() in scene_rows

    def test_scene_order_preserved(self):
        rng = np.random.default_rng(13)
        scene, labels = make_flat_scene(rng, 4000)
        # tag scene points with a strictly increasing intensity ramp
        data = np.array(scene.data)
        data[:, 3] = np.linspace(0.1, 0.9, 4000).astype(np.float32)
        scene = PointCloud(data)
        obj = cube_object(rng)
        cloud, _, records = compose_scan(scene, labels, [obj], TEST_SENSOR,
                                         single_policy(), seed=3)
        scene_part = cloud.data[:records[0].index_start]
        assert (np.diff(scene_part[:, 3]) > 0).all()

    def test_wall_blocks_everything(self, monkeypatch):
        monkeypatch.setattr(insertion, "RETRY_BUDGET", 0)
        wall_pts = full_coverage_wall(TEST_SENSOR, distance=5.0)
        wall = PointCloud.from_xyz(wall_pts, intensity=0.3)
        labels = LabelArray.from_class_ids(np.full(wall.count, ROAD_CLASS))
        rng = np.random.default_rng(14)
        obj = cube_object(rng, at=(10.0, 0.0))
        _, words, records = compose_scan(wall, labels, [obj], TEST_SENSOR,
                                         single_policy(), seed=4)
        assert records[0].surviving_count == 0
        assert not (words.class_ids == 2).any()

    def test_fully_occluded_object_replaced_within_the_retry_budget(self, monkeypatch):
        scene, labels = half_wall_scene()
        obj = cube_object(np.random.default_rng(14), at=(0.0, 10.0))  # behind the wall
        monkeypatch.setattr(insertion, "RETRY_BUDGET", 0)
        _, _, records = compose_scan(scene, labels, [obj], TEST_SENSOR,
                                     single_policy(), seed=4)
        assert records[0].surviving_count == 0
        assert (records[0].x, records[0].y) == (0.0, 10.0)
        monkeypatch.setattr(insertion, "RETRY_BUDGET", 10)
        cloud, words, records = compose_scan(scene, labels, [obj], TEST_SENSOR,
                                             single_policy(), seed=4)
        rec = records[0]
        assert rec.surviving_count > 0 and rec.y < 0  # re-placed on the open half
        assert (rec.scan_id, rec.seed) == ("", 0)
        assert int((words.class_ids == 2).sum()) == rec.surviving_count
        assert rec.index_end == cloud.count

    def test_object_outside_radius_rejected(self):
        rng = np.random.default_rng(15)
        scene, labels = make_flat_scene(rng, 3000)
        obj = cube_object(rng, at=(49.9, 0.0))
        with pytest.raises(ValidationError, match="radius"):
            compose_scan(scene, labels, [obj], TEST_SENSOR, single_policy(),
                         seed=5)

    def test_object_intensities_in_unit_interval(self):
        rng = np.random.default_rng(16)
        scene, labels = make_flat_scene(rng, 6000)
        obj = cube_object(rng)
        cloud, words, records = compose_scan(scene, labels, [obj], TEST_SENSOR,
                                             single_policy(), seed=6)
        block = cloud.data[records[0].index_start:records[0].index_end]
        assert (block[:, 3] >= 0).all() and (block[:, 3] <= 1).all()

    def test_object_intensities_on_the_hosts_8_bit_scale(self):
        rng = np.random.default_rng(16)
        scene, labels = make_flat_scene(rng, 6000, intensity=20.0)
        obj = cube_object(rng)
        cloud, _, records = compose_scan(scene, labels, [obj], TEST_SENSOR,
                                         single_policy(), seed=6)
        block = cloud.data[records[0].index_start:records[0].index_end, 3]
        assert block.max() <= 255 and (block > 1).mean() > 0.9
        assert float(block.mean()) == pytest.approx(20.0, rel=0.1)

    def test_two_objects_grouped_contiguously(self):
        rng = np.random.default_rng(17)
        scene, labels = make_flat_scene(rng, 8000)
        a = cube_object(rng, at=(10.0, 0.0))
        b = cube_object(rng, at=(-12.0, 5.0))
        cloud, words, records = compose_scan(scene, labels, [a, b], TEST_SENSOR,
                                             multi_policy(), seed=7)
        assert len(records) == 2
        assert records[0].index_end == records[1].index_start
        assert records[1].index_end == cloud.count

    def test_overflowing_object_point_rejected_before_projection(self, monkeypatch):
        rng = np.random.default_rng(18)
        scene, labels = make_flat_scene(rng, 3000)
        a = cube_object(rng, at=(10.0, 0.0))
        b = cube_object(rng, at=(-12.0, 5.0))
        points = np.array(b.points)
        points[123, 2] = 1e39   # finite in float64, infinite in float32
        b = replace(b, points=points)

        def unreachable(*args, **kwargs):
            raise AssertionError("scatter_min ran on a non-finite point")

        monkeypatch.setattr(range_projection, "scatter_min", unreachable)
        index = scene.count + a.count + 123
        with pytest.raises(ValidationError, match=f"non-finite value at point index {index}$"):
            compose_scan(scene, labels, [a, b], TEST_SENSOR, multi_policy(), seed=8)


def street_scan(seed: int = 0):
    """A ray-cast street like a KITTI scan: 64 beams x 1800 azimuth
    steps over +3/-25 degrees, ground at 1.73 m below the sensor, walls
    12 m either side and 50 m ahead and behind, 2% of returns dropped
    (about 113 000 points)."""
    rng = np.random.default_rng(seed)
    elev = np.deg2rad(np.linspace(3.0, -25.0, 64))[:, None]
    az = np.linspace(0.0, 2.0 * np.pi, 1800, endpoint=False)[None, :]
    d = np.stack(np.broadcast_arrays(np.cos(elev) * np.cos(az), np.cos(elev) * np.sin(az),
                                     np.sin(elev)), axis=-1).reshape(-1, 3)
    with np.errstate(divide="ignore"):
        t = np.minimum.reduce([np.where(d[:, 2] < 0, 1.73 / -d[:, 2], np.inf),
                               12.0 / np.abs(d[:, 1]), 50.0 / np.abs(d[:, 0])])
    xyz = (d * t[:, None])[rng.random(t.size) >= 0.02]
    return PointCloud.from_xyz(xyz, intensity=0.3)


class TestOcclusionMemory:
    def test_peak_per_projected_point(self):
        cfg = SensorConfig(beams=64, width=2048, fov_up_deg=3.0, fov_down_deg=25.0)
        scene = street_scan()
        rng = np.random.default_rng(19)
        objects = [AnomalyObject(points=rng.uniform(-0.5, 0.5, (OBJECT_POINTS, 3)) + at,
                                 category="chair", reflectivity=0.35)
                   for at in ([8.0, 2.0, -1.2], [-9.0, -3.0, -1.2])]
        projected = scene.count + 2 * OBJECT_POINTS
        assert 200_000 < projected < 225_000
        tracemalloc.start()
        try:
            scene_idx, own = insertion._occlude(scene, objects, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(len(mine) for mine in own) and len(scene_idx) > 0.9 * scene.count
        assert peak < 64 * projected


class TestForgeScan:
    def test_deterministic(self):
        rng = np.random.default_rng(20)
        scene, labels = make_flat_scene(rng, 6000)
        bank = _bank_with_cube()
        a = forge_scan(scene, labels, "000000", TEST_SENSOR, single_policy(), bank, seed=99)
        b = forge_scan(scene, labels, "000000", TEST_SENSOR, single_policy(), bank, seed=99)
        assert a.cloud == b.cloud and a.labels == b.labels
        assert a.records == b.records

    def test_clean_scan_unchanged(self):
        rng = np.random.default_rng(21)
        scene, labels = make_flat_scene(rng, 3000)
        bank = _bank_with_cube()
        # seed chosen so the bernoulli draw misses the 40% ratio
        for seed in range(30):
            result = forge_scan(scene, labels, "s", TEST_SENSOR, single_policy(),
                                bank, seed=seed)
            if not result.modified:
                assert result.cloud == scene and result.labels == labels
                assert result.records == []
                return
        pytest.fail("no clean scan in 30 seeds")

    def test_fully_occluded_retries_then_unmodified(self, monkeypatch):
        # wall shell at 5 m covers every cell; the only placeable road
        # lies behind it at ~10 m, so every insertion loses everywhere
        wall_pts = full_coverage_wall(TEST_SENSOR, distance=5.0)
        rng = np.random.default_rng(22)
        road, road_labels = make_flat_scene(rng, 3000, r_min=8, r_max=12)
        data = np.vstack([
            np.column_stack([wall_pts, np.full(len(wall_pts), 0.3)]).astype(np.float32),
            road.data,
        ])
        scene = PointCloud(data)
        labels = LabelArray(np.concatenate([
            np.zeros(len(wall_pts), dtype=np.uint32), road_labels.words]))
        bank = _bank_with_cube()
        monkeypatch.setattr(insertion, "RETRY_BUDGET", 3)
        for seed in range(40):
            result = forge_scan(scene, labels, "w", TEST_SENSOR, single_policy(),
                                bank, seed=seed)
            if result.records:
                assert not result.modified
                assert all(rec.surviving_count == 0 for rec in result.records)
                assert result.cloud == scene
                return
        pytest.fail("no anomaly draw in 40 seeds")

    def test_retry_reprojects_and_output_is_built_once(self, tmp_path, monkeypatch):
        # passes[i] is True when occlusion pass i left some object with no point
        passes, noised = [], []
        real_project, real_noise = insertion.project, insertion.normalize_and_noise

        def counting_project(cloud, cfg, objects=()):
            img = real_project(cloud, cfg, objects)
            won = img.surviving_indices()
            alive = np.unique((won[won >= img.scene_count] - img.scene_count)
                              // OBJECT_POINTS)
            passes.append(alive.size < (img.source_count - img.scene_count) // OBJECT_POINTS)
            return img

        def counting_noise(*args, **kwargs):
            noised.append(1)
            return real_noise(*args, **kwargs)

        monkeypatch.setattr(insertion, "project", counting_project)
        monkeypatch.setattr(insertion, "normalize_and_noise", counting_noise)
        scene, labels = half_wall_scene()
        bank = _bank_with_cube(tmp_path)
        retried = once_at_zero_budget = False
        for budget in (0, 1, 2, 10):
            monkeypatch.setattr(insertion, "RETRY_BUDGET", budget)
            for seed in range(16):
                passes.clear()
                noised.clear()
                result = forge_scan(scene, labels, "w", TEST_SENSOR, multi_policy(), bank,
                                    seed=seed)
                if not result.records:
                    assert passes == [] and noised == []
                    continue
                # a pass is followed by another only to retry a dead object
                assert all(passes[:-1])
                assert len(passes) <= budget + 1
                assert not passes[-1] or len(passes) == budget + 1
                # one noise draw per object in the output, none per attempt
                assert len(noised) == sum(rec.surviving_count > 0 for rec in result.records)
                retried |= len(passes) > 1
                if budget == 0 and result.modified:
                    assert len(passes) == 1
                    once_at_zero_budget = True
        assert retried and once_at_zero_budget


    def test_point_at_sensor_origin_does_not_abort(self, tmp_path):
        rng = np.random.default_rng(2)
        scene, labels = make_flat_scene(rng, 3000)
        data = scene.data.copy()
        data[0, :3] = 0.0
        scene = PointCloud(data)
        bank = _bank_with_cube(tmp_path)
        for seed in range(30):
            result = forge_scan(scene, labels, "o", TEST_SENSOR, single_policy(),
                                bank, seed=seed)
            if result.modified:
                # re-projected like any point outside the field of view
                assert (np.linalg.norm(result.cloud.xyz, axis=1) > 0).all()
                return
        pytest.fail("no anomaly scan in 30 seeds")


WORKER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


class TestBenchmarkObjectCount:
    """perfbench/worker.py keeps its own copy of forge_scan's first two
    draws to pick stratified master seeds; the copy must stay in step."""

    @pytest.mark.parametrize("policy", [single_policy(), multi_policy()], ids=["single", "multi"])
    def test_equals_the_objects_forge_scan_draws(self, monkeypatch, policy):
        spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER_PATH)
        worker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(worker)
        scene, labels = make_flat_scene(np.random.default_rng(22), 3000)
        bank = _bank_with_cube()
        chosen = []
        real_choose = bank.choose
        monkeypatch.setattr(bank, "choose", lambda rng: chosen.append(1) or real_choose(rng))
        # only the draws are under test: skip building and placing each object
        monkeypatch.setattr(insertion.mesh_bank, "build_anomaly_object", lambda *args: None)
        monkeypatch.setattr(insertion, "_settle", lambda *args: None)
        counts = set()
        for master in range(200):
            chosen.clear()
            forge_scan(scene, labels, "s", TEST_SENSOR, policy, bank,
                       seed=scan_seed(master, "s"))
            count = worker._drawn_objects(master, "s", policy)
            assert count == len(chosen)
            counts.add(count)
        assert counts == set(range(len(policy.count_distribution) + 1))


def _bank_with_cube(tmp_root=None, heights=HEIGHTS):
    import tempfile
    from pathlib import Path
    root = Path(tempfile.mkdtemp()) if tmp_root is None else Path(tmp_root)
    chair = root / "chair"
    chair.mkdir(parents=True, exist_ok=True)
    write_off(make_cube_mesh(), chair / "chair_0001.off")
    return MeshBank(root, CATALOG, heights)


class TestForgeSplit:
    def _dataset(self, tmp_path, n_scans=8, seed=0):
        rng = np.random.default_rng(seed)
        scans = tmp_path / "in" / "velodyne"
        labels = tmp_path / "in" / "labels"
        scans.mkdir(parents=True)
        labels.mkdir(parents=True)
        for i in range(n_scans):
            scene, lab = make_flat_scene(rng, 3000)
            write_scan(scene, scans / f"{i:06d}.bin")
            write_labels(lab, labels / f"{i:06d}.label")
        return scans, labels

    def test_forge_writes_tree_and_manifest(self, tmp_path):
        scans, labels = self._dataset(tmp_path)
        bank = _bank_with_cube(tmp_path / "meshes")
        out = tmp_path / "out"
        summary = forge_split(discover_pairs(scans, labels), out, single_policy(),
                              TEST_SENSOR, bank, master_seed=5)
        assert summary.scan_count == 8
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in", "meshes", "out"]
        assert sorted(p.name for p in (out / "velodyne").iterdir()) == \
            [f"{i:06d}.bin" for i in range(8)]
        manifest = (out / "manifest.tsv").read_text()
        assert "# scans_total = 8" in manifest
        assert "scan_id\tcategory" in manifest
        for rec in summary.records:
            if rec.surviving_count > 0:
                assert rec.scan_id in manifest

    def test_int_settings_write_the_float_manifest(self, tmp_path):
        # the CLI parses --max-radius and the sensor file's angles as floats
        scans, labels = self._dataset(tmp_path, n_scans=2)
        bank = _bank_with_cube(tmp_path / "meshes")
        manifests = []
        for name, radius, up, down in (("int", 50, 3, 25), ("float", 50.0, 3.0, 25.0)):
            forge_split(discover_pairs(scans, labels), tmp_path / name,
                        SplitPolicy("multi", max_radius=radius), SensorConfig(64, 2048, up, down),
                        bank, master_seed=5)
            manifests.append((tmp_path / name / "manifest.tsv").read_bytes())
        assert b"# max_radius = 50.0\n" in manifests[1]
        assert b"# sensor_fov_up_deg = 3.0\n" in manifests[1]
        assert manifests[0] == manifests[1]

    def test_anomaly_labels_match_manifest(self, tmp_path):
        scans, labels = self._dataset(tmp_path, seed=1)
        bank = _bank_with_cube(tmp_path / "meshes")
        out = tmp_path / "out"
        summary = forge_split(discover_pairs(scans, labels), out, single_policy(),
                              TEST_SENSOR, bank, master_seed=6)
        total = 0
        for sid in summary.per_scan_objects:
            words = read_labels(out / "labels" / f"{sid}.label")
            total += int((words.class_ids == 2).sum())
        assert total == summary.anomaly_point_count
        assert total > 0

    def test_anomaly_points_inside_radius(self, tmp_path):
        scans, labels = self._dataset(tmp_path, seed=2)
        bank = _bank_with_cube(tmp_path / "meshes")
        out = tmp_path / "out"
        summary = forge_split(discover_pairs(scans, labels), out, single_policy(),
                              TEST_SENSOR, bank, master_seed=7)
        for sid in summary.per_scan_objects:
            cloud = read_scan(out / "velodyne" / f"{sid}.bin")
            words = read_labels(out / "labels" / f"{sid}.label")
            pts = cloud.xyz[words.class_ids == 2]
            assert (np.linalg.norm(pts[:, :2], axis=1) <= 50.0).all()

    def test_unreadable_scan_skipped_and_reported(self, tmp_path):
        scans, labels = self._dataset(tmp_path, n_scans=3, seed=3)
        (scans / "000001.bin").write_bytes(b"\x00" * 7)  # truncated
        bank = _bank_with_cube(tmp_path / "meshes")
        out = tmp_path / "out"
        summary = forge_split(discover_pairs(scans, labels), out, single_policy(),
                              TEST_SENSOR, bank, master_seed=8)
        assert [sid for sid, _ in summary.skipped] == ["000001"]
        assert "# skipped: 000001" in (out / "manifest.tsv").read_text()
        assert not (out / "velodyne" / "000001.bin").exists()

    def test_scan_failing_to_forge_skipped_and_reported(self, tmp_path):
        scans, labels = self._dataset(tmp_path, n_scans=3, seed=5)
        bright = read_scan(scans / "000001.bin").data.copy()
        bright[:, 3] = 1e38  # the float32 mean overflows: no finite mean to blend objects into
        write_scan(PointCloud(bright), scans / "000001.bin")
        bank = _bank_with_cube(tmp_path / "meshes")
        out = tmp_path / "out"
        summary = forge_split(discover_pairs(scans, labels), out, EVERY_SCAN,
                              TEST_SENSOR, bank, master_seed=10)
        assert summary.skipped == [
            ("000001", "ValidationError: scene mean intensity must be finite, got inf")]
        assert summary.scan_count == 2
        assert "# skipped: 000001\tValidationError" in (out / "manifest.tsv").read_text()
        assert sorted(p.name for p in (out / "velodyne").iterdir()) == ["000000.bin", "000002.bin"]
        assert sorted(p.name for p in (out / "labels").iterdir()) == ["000000.label", "000002.label"]

    def test_zero_intensity_scene_forged(self, tmp_path):
        # a scan without an intensity channel: its objects get intensity 0
        scans, labels = self._dataset(tmp_path, n_scans=1, seed=5)
        dark = read_scan(scans / "000000.bin").data.copy()
        dark[:, 3] = 0.0
        write_scan(PointCloud(dark), scans / "000000.bin")
        out = tmp_path / "out"
        summary = forge_split(discover_pairs(scans, labels), out, EVERY_SCAN,
                              TEST_SENSOR, _bank_with_cube(tmp_path / "meshes"), master_seed=10)
        assert summary.skipped == [] and summary.anomaly_point_count > 0
        cloud = read_scan(out / "velodyne" / "000000.bin")
        is_object = read_labels(out / "labels" / "000000.label").class_ids == 2
        assert is_object.sum() == summary.anomaly_point_count
        assert cloud.intensity[is_object].tobytes() == bytes(4 * summary.anomaly_point_count)
        host_rows = {row.tobytes() for row in dark}
        assert all(row.tobytes() in host_rows for row in cloud.data[~is_object])

    def test_scan_failing_to_write_skipped_and_reported(self, tmp_path, monkeypatch):
        scans, labels = self._dataset(tmp_path, n_scans=3, seed=6)
        real_write_labels = insertion.write_labels

        def write_labels_failing_for_one(words, path):
            if Path(path).stem == "000001":
                raise ValidationError("label write refused")
            real_write_labels(words, path)

        monkeypatch.setattr(insertion, "write_labels", write_labels_failing_for_one)
        bank = _bank_with_cube(tmp_path / "meshes")
        out = tmp_path / "out"
        summary = forge_split(discover_pairs(scans, labels), out, single_policy(),
                              TEST_SENSOR, bank, master_seed=11)
        assert summary.skipped == [("000001", "ValidationError: label write refused")]
        assert summary.scan_count == 2
        # the scan file was written before the label write failed, and is removed
        assert sorted(p.name for p in (out / "velodyne").iterdir()) == ["000000.bin", "000002.bin"]
        assert sorted(p.name for p in (out / "labels").iterdir()) == ["000000.label", "000002.label"]

    def test_existing_out_dir_rejected_and_left_as_it_was(self, tmp_path):
        scans, labels = self._dataset(tmp_path, n_scans=2)
        out = tmp_path / "out"
        (out / "labels").mkdir(parents=True)
        (out / "manifest.tsv").write_text("an earlier split\n")
        with pytest.raises(ValidationError, match=f"output directory {out} already exists"):
            forge_split(discover_pairs(scans, labels), out, single_policy(), TEST_SENSOR,
                        _bank_with_cube(tmp_path / "meshes"), master_seed=0)
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == \
            ["labels", "manifest.tsv"]
        assert (out / "manifest.tsv").read_text() == "an earlier split\n"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_split_aborted_mid_run_leaves_no_tree(self, tmp_path, monkeypatch, workers):
        # an OSError is not a per-scan failure: it aborts the split
        scans, labels = self._dataset(tmp_path, n_scans=4, seed=6)
        real_write_labels = insertion.write_labels

        def write_labels_failing_for_one(words, path):
            if Path(path).stem == "000002":
                raise OSError("no space left on device")
            real_write_labels(words, path)

        monkeypatch.setattr(insertion, "write_labels", write_labels_failing_for_one)
        bank = _bank_with_cube(tmp_path / "meshes")
        with pytest.raises(OSError, match="no space left on device"):
            forge_split(discover_pairs(scans, labels), tmp_path / "out", single_policy(),
                        TEST_SENSOR, bank, master_seed=11, workers=workers)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in", "meshes"]

    @pytest.mark.parametrize("master_seed, workers", [(-1, 1), (2**64, 1), (0, 0), (0, -3)])
    def test_bad_seed_or_workers_rejected_before_output(self, tmp_path, master_seed, workers):
        scans, labels = self._dataset(tmp_path, n_scans=2)
        bank = _bank_with_cube(tmp_path / "meshes")
        out = tmp_path / "out"
        with pytest.raises(ValidationError):
            forge_split(discover_pairs(scans, labels), out, single_policy(), TEST_SENSOR,
                        bank, master_seed=master_seed, workers=workers)
        assert not out.exists()

    def test_mesh_category_without_height_rejected_before_output(self, tmp_path):
        # the bank a split draws from cannot be built without a height for
        # every kept category, so no split starts with one missing
        scans, labels = self._dataset(tmp_path, n_scans=2)
        out = tmp_path / "out"
        with pytest.raises(ValidationError, match="no target height for mesh categories chair"):
            forge_split(discover_pairs(scans, labels), out, single_policy(), TEST_SENSOR,
                        _bank_with_cube(tmp_path / "meshes", {"toilet": 0.5}), master_seed=0)
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_does_not_grow_with_the_split(self, tmp_path, monkeypatch, workers):
        """Forging 8 copies of a scan holds less than one more scan's
        cloud plus labels than forging 2, at the peak and when the
        manifest is written: a worker holds one scan at a time, and only
        the records wait for the manifest.  With two workers the peak
        depends on how the threads overlap, so only the one-worker
        forge's is compared."""
        scene, lab = make_flat_scene(np.random.default_rng(12), 20_000)
        bank = _bank_with_cube(tmp_path / "meshes")
        held = []
        write_manifest = insertion._write_manifest

        def write_manifest_noting_memory(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            write_manifest(*args)

        monkeypatch.setattr(insertion, "_write_manifest", write_manifest_noting_memory)
        peaks = []
        for n_scans in (2, 8):
            scans = tmp_path / f"in{n_scans}" / "velodyne"
            labels = tmp_path / f"in{n_scans}" / "labels"
            scans.mkdir(parents=True)
            labels.mkdir(parents=True)
            for i in range(n_scans):
                write_scan(scene, scans / f"{i:06d}.bin")
                write_labels(lab, labels / f"{i:06d}.label")
            pairs = discover_pairs(scans, labels)
            tracemalloc.start()
            try:
                forge_split(pairs, tmp_path / f"out{n_scans}", NO_SCAN, TEST_SENSOR, bank,
                            master_seed=3, workers=workers)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one_scan = scene.data.nbytes + lab.words.nbytes
        assert held[1] - held[0] < one_scan
        if workers == 1:
            assert peaks[1] - peaks[0] < one_scan

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_does_not_grow_with_the_meshes_drawn(self, tmp_path, monkeypatch, workers):
        """Forging 8 scans that draw from a bank of 16 distinct meshes
        holds less than one more mesh than forging 2, when the manifest
        is written: no mesh outlives the scan that drew it."""
        rng = np.random.default_rng(13)
        (tmp_path / "meshes" / "chair").mkdir(parents=True)
        for i in range(16):
            mesh = TriangleMesh(rng.random((3000, 3)), rng.integers(0, 3000, (6000, 3)))
            write_off(mesh, tmp_path / "meshes" / "chair" / f"chair_{i:04d}.off")
        one_mesh = mesh.vertices.nbytes + mesh.faces.nbytes + mesh.face_areas.nbytes
        scene, lab = make_flat_scene(np.random.default_rng(12), 20_000)
        drawn, held = [], []
        load_off, write_manifest = mesh_bank.load_off, insertion._write_manifest

        def load_off_noting_path(path):
            drawn[-1].add(path)
            return load_off(path)

        def write_manifest_noting_memory(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            write_manifest(*args)

        monkeypatch.setattr(mesh_bank, "load_off", load_off_noting_path)
        monkeypatch.setattr(insertion, "_write_manifest", write_manifest_noting_memory)
        for n_scans in (2, 8):
            scans = tmp_path / f"in{n_scans}" / "velodyne"
            labels = tmp_path / f"in{n_scans}" / "labels"
            scans.mkdir(parents=True)
            labels.mkdir(parents=True)
            for i in range(n_scans):
                write_scan(scene, scans / f"{i:06d}.bin")
                write_labels(lab, labels / f"{i:06d}.label")
            bank = MeshBank(tmp_path / "meshes", CATALOG, HEIGHTS)
            drawn.append(set())
            tracemalloc.start()
            try:
                forge_split(discover_pairs(scans, labels), tmp_path / f"out{n_scans}",
                            EVERY_SCAN, TEST_SENSOR, bank, master_seed=3, workers=workers)
            finally:
                tracemalloc.stop()
        assert len(drawn[1]) >= len(drawn[0]) + 4
        assert held[1] - held[0] < one_mesh

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        scans, labels = self._dataset(tmp_path, n_scans=6, seed=4)
        # the second bank adds a file cut after its counts line: the
        # scans that draw it are skipped, at any worker count
        (tmp_path / "broken" / "chair").mkdir(parents=True)
        (tmp_path / "broken" / "chair" / "chair_0000.off").write_text("OFF\n8 12 0\n")
        for name in ("meshes", "broken"):
            bank = _bank_with_cube(tmp_path / name)
            trees = []
            for workers in (1, 4):
                out = tmp_path / f"{name}-w{workers}"
                forge_split(discover_pairs(scans, labels), out, single_policy(),
                            TEST_SENSOR, bank, master_seed=9,
                            workers=workers)
                tree = {p.relative_to(out).as_posix(): p.read_bytes()
                        for p in sorted(out.rglob("*")) if p.is_file()}
                trees.append(tree)
            assert trees[0] == trees[1]
        assert b"# skipped: " in trees[0]["manifest.tsv"]


def degenerate_scan(n_points, seed=0, origin_at=None, intensity_scale=1.0,
                    below_fov=False, anomaly_at=None):
    """A flat road scan with any mix of the defects a real split may hold.

    Returns (cloud, labels, uses_anomaly_id).
    """
    scene, labels = make_flat_scene(np.random.default_rng(seed), n_points, r_max=15.0)
    data, ids = scene.data.copy(), labels.class_ids.copy()
    if origin_at is not None:
        data[origin_at, :3] = 0.0
    data[:, 3] *= intensity_scale
    if below_fov:
        data[:, :2] *= 0.2  # steeper than the 24 degree lower FOV edge: nothing visible
    if anomaly_at is not None:
        ids[anomaly_at] = EVERY_SCAN.anomaly_label
    return PointCloud(data), LabelArray.from_class_ids(ids), anomaly_at is not None


@st.composite
def degenerate_scans(draw):
    n_points = draw(st.sampled_from([0, 1, 2, 3, 1500]))
    index = st.none() | st.integers(0, n_points - 1) if n_points else st.none()
    return degenerate_scan(
        n_points, seed=draw(st.integers(0, 2**16)), origin_at=draw(index),
        # 0: all-zero intensities; 1e38: their float32 mean overflows
        intensity_scale=draw(st.sampled_from([1.0, 0.0, 1e38])),
        below_fov=draw(st.booleans()), anomaly_at=draw(index))


class TestForgeSplitDegenerateScans:
    @given(scans=st.lists(degenerate_scans(), min_size=1, max_size=3),
           master_seed=st.integers(0, 2**32))
    @example(scans=[degenerate_scan(1500, origin_at=0)], master_seed=0)
    @example(scans=[degenerate_scan(1500, intensity_scale=0.0)], master_seed=0)
    @example(scans=[degenerate_scan(1500, intensity_scale=1e38)], master_seed=0)
    @example(scans=[degenerate_scan(1500, below_fov=True)], master_seed=0)
    @example(scans=[degenerate_scan(n) for n in range(4)], master_seed=0)
    @example(scans=[degenerate_scan(1500, anomaly_at=7)], master_seed=0)
    @settings(max_examples=40, deadline=None)
    def test_written_whole_or_skipped(self, scans, master_seed):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "in" / "velodyne").mkdir(parents=True)
            (root / "in" / "labels").mkdir(parents=True)
            for i, (scene, labels, _) in enumerate(scans):
                write_scan(scene, root / "in" / "velodyne" / f"{i:06d}.bin")
                write_labels(labels, root / "in" / "labels" / f"{i:06d}.label")
            out = root / "out"
            summary = forge_split(
                discover_pairs(root / "in" / "velodyne", root / "in" / "labels"), out,
                EVERY_SCAN, TEST_SENSOR, _bank_with_cube(root / "meshes"),
                master_seed=master_seed)

            skipped = {sid for sid, _ in summary.skipped}
            assert {f"{i:06d}" for i, scan in enumerate(scans) if scan[2]} <= skipped
            for i in range(len(scans)):
                sid = f"{i:06d}"
                scan_file = out / "velodyne" / f"{sid}.bin"
                label_file = out / "labels" / f"{sid}.label"
                if sid in skipped:
                    assert not scan_file.exists() and not label_file.exists()
                else:
                    assert read_scan(scan_file).count == read_labels(label_file).count
            assert summary.scan_count == len(scans) - len(skipped)

    def test_overflowing_scene_mean_skipped_without_warning(self, tmp_path):
        scene, labels, _ = degenerate_scan(1500, intensity_scale=1e38)
        (tmp_path / "velodyne").mkdir()
        (tmp_path / "labels").mkdir()
        write_scan(scene, tmp_path / "velodyne" / "000000.bin")
        write_labels(labels, tmp_path / "labels" / "000000.label")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = forge_split(
                discover_pairs(tmp_path / "velodyne", tmp_path / "labels"), tmp_path / "out",
                EVERY_SCAN, TEST_SENSOR, _bank_with_cube(tmp_path / "meshes"),
                master_seed=0)
        assert summary.skipped == [
            ("000000", "ValidationError: scene mean intensity must be finite, got inf")]


class TestScanSeed:
    def test_stable_and_distinct(self):
        assert scan_seed(1, "000000") == scan_seed(1, "000000")
        assert scan_seed(1, "000000") != scan_seed(1, "000001")
        assert scan_seed(1, "000000") != scan_seed(2, "000000")

    def test_seed_range_enforced(self):
        with pytest.raises(ValidationError):
            scan_seed(-1, "000000")
        with pytest.raises(ValidationError):
            scan_seed(2**64, "000000")


class TestAnomalyIdProvenance:
    def test_scene_with_anomaly_id_rejected(self):
        rng = np.random.default_rng(30)
        scene, _ = make_flat_scene(rng, 500)
        labels = LabelArray.from_class_ids(np.full(500, 2))  # already the anomaly id
        with pytest.raises(ValidationError, match="anomaly id"):
            compose_scan(scene, labels, [], TEST_SENSOR, single_policy(), seed=0)
