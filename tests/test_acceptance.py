"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured evidence."""

import time

import numpy as np
import pytest
from scipy.stats import chisquare

from helpers import (ROAD_CLASS, ROAD_Z, TEST_SENSOR, full_coverage_wall,
                     make_cube_mesh, make_flat_scene, make_random_cloud, write_off)

from lidarforge import (AnomalyObject, FeatureSet, LabelArray, PointCloud, PrototypeBank,
                        ReflectivityCatalog, SensorConfig, SplitPolicy, auroc,
                        compose_scan, compute_scores, forge_split, lambert_intensity,
                        loss_ce, loss_contrastive, loss_lovasz, loss_objectosphere,
                        loss_prototype, place, project, read_labels, read_scan,
                        sample_surface, score_contrastive, write_labels, write_scan,
                        write_tensor)
from lidarforge import insertion, losses
from lidarforge.cli import main as cli_main
from lidarforge.insertion import discover_pairs
from lidarforge.mesh_bank import MeshBank
from lidarforge.metrics import average_precision, fpr_at_tpr
from lidarforge.scoring import DEFAULT_NORM_THRESHOLD

from test_losses import fd_grad, assert_grad_close
from test_metrics import (exhaustive_ap_oracle, exhaustive_fpr_oracle,
                          pairwise_auroc_oracle, random_pair)

KITTI_LIKE = SensorConfig(beams=64, width=2048, fov_up_deg=3.0, fov_down_deg=25.0)
CATALOG = ReflectivityCatalog({"chair": 0.35, "xbox": 0.30})
HEIGHTS = {"chair": 0.9, "xbox": 0.3}


def _box_mesh(sx, sy, sz):
    mesh = make_cube_mesh(0.5)
    scaled = mesh.vertices * np.array([sx, sy, sz])
    return type(mesh)(vertices=scaled, faces=mesh.faces)


@pytest.fixture(scope="module")
def mesh_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("meshes")
    (root / "chair").mkdir()
    (root / "xbox").mkdir()
    write_off(make_cube_mesh(), root / "chair" / "chair_0001.off")
    write_off(_box_mesh(1.0, 0.6, 0.3), root / "xbox" / "xbox_0001.off")
    return root


def _write_inputs(root, n_scans, seed):
    rng = np.random.default_rng(seed)
    scans = root / "velodyne"
    labels = root / "labels"
    scans.mkdir(parents=True)
    labels.mkdir(parents=True)
    for i in range(n_scans):
        scene, lab = make_flat_scene(rng, 3000)
        write_scan(scene, scans / f"{i:06d}.bin")
        write_labels(lab, labels / f"{i:06d}.label")
    return scans, labels


@pytest.fixture(scope="module")
def mini_inputs(tmp_path_factory):
    return _write_inputs(tmp_path_factory.mktemp("mini"), 20, seed=100)


@pytest.fixture(scope="module")
def bulk_inputs(tmp_path_factory):
    return _write_inputs(tmp_path_factory.mktemp("bulk"), 500, seed=200)


def test_criterion_1_metric_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(1000):
        pair = random_pair(rng, n_max=200, with_ties=True)
        assert abs(auroc(pair) - pairwise_auroc_oracle(pair.scores, pair.truth)) < 1e-12
        assert fpr_at_tpr(pair) == exhaustive_fpr_oracle(pair.scores, pair.truth, 0.95)
        assert average_precision(pair) == pytest.approx(
            exhaustive_ap_oracle(pair.scores, pair.truth), abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: 1000 eval pairs match the pairwise and "
          f"exhaustive oracles ({elapsed:.1f}s < 10s)")


def test_criterion_2_projection_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    cfg = KITTI_LIKE
    for _ in range(100):
        cloud = make_random_cloud(rng, 20_000, cfg=cfg)
        img = project(cloud, cfg)

        # independent recomputation of every point's cell and per-cell minimum
        xyz = cloud.xyz.astype(np.float64)
        r = np.linalg.norm(xyz, axis=1)
        u = 0.5 * (1.0 - np.arctan2(xyz[:, 1], xyz[:, 0]) / np.pi) * cfg.width
        v = (1.0 - (np.arcsin(xyz[:, 2] / r) + cfg.fov_down_rad) / cfg.fov_rad) * cfg.beams
        inside = (v >= 0) & (v <= cfg.beams)
        cols = np.clip(np.floor(u).astype(np.int64), 0, cfg.width - 1)
        rows = np.clip(np.floor(v).astype(np.int64), 0, cfg.beams - 1)
        cells = rows * cfg.width + cols
        best = np.full(cfg.beams * cfg.width, np.inf)
        np.minimum.at(best, cells[inside], r[inside])

        filled = img.filled
        np.testing.assert_array_equal(img.ranges[filled],
                                      best.reshape(cfg.beams, cfg.width)[filled])
        assert np.isinf(best.reshape(cfg.beams, cfg.width)[~filled]).all()

        idx = img.surviving_indices()
        out = cloud.take(idx)
        assert out.tobytes() == cloud.data[idx].tobytes()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 PASS: 100 clouds, every cell holds its minimum-range "
          f"point and reprojection is bit-exact ({elapsed:.1f}s < 30s)")


def test_criterion_3_occlusion_fixture(monkeypatch):
    cube = make_cube_mesh()
    pts = sample_surface(cube, 20_000, seed=3)
    obj = AnomalyObject(points=pts, category="chair", reflectivity=0.35)
    placed = place(obj, 10.0, 0.0, ROAD_Z)
    # one occlusion pass: no retry may move the object out from behind the wall
    monkeypatch.setattr(insertion, "RETRY_BUDGET", 0)
    policy = SplitPolicy.single(surface_classes=(ROAD_CLASS,), anomaly_label=2)

    wall = full_coverage_wall(TEST_SENSOR, distance=5.0)
    wall_scene = PointCloud.from_xyz(wall, intensity=0.3)
    wall_labels = LabelArray.from_class_ids(np.zeros(wall_scene.count, dtype=np.int64))
    _, _, records = compose_scan(wall_scene, wall_labels, [placed], TEST_SENSOR,
                                 policy, seed=3)
    assert records[0].surviving_count == 0

    rng = np.random.default_rng(3)
    open_scene, open_labels = make_flat_scene(rng, 2000, r_min=25, r_max=45)
    cloud, words, records = compose_scan(open_scene, open_labels, [placed],
                                         TEST_SENSOR, policy, seed=3)
    m_surv = records[0].surviving_count
    assert m_surv > 0

    # surviving points must lie on sensor-facing cube faces
    survivors = cloud.xyz[records[0].index_start:records[0].index_end].astype(np.float64)
    center = np.array([10.0, 0.0, ROAD_Z + 0.5])
    local = survivors - center
    face_axis = np.argmax(np.abs(local), axis=1)
    face_sign = np.sign(local[np.arange(len(local)), face_axis])
    normals = np.zeros_like(local)
    normals[np.arange(len(local)), face_axis] = face_sign
    toward_sensor = -survivors / np.linalg.norm(survivors, axis=1, keepdims=True)
    facing = np.einsum("ij,ij->i", normals, toward_sensor)
    assert (facing > 0).all()
    print(f"\nACCEPTANCE 3 PASS: wall at 5m kills all {placed.count} object points; "
          f"open scene keeps {m_surv}, all on front-facing surfaces")


def test_criterion_4_intensity_law():
    # head on at 1 m, grazing at 1 m, head on at 2 m
    pts = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    normals = np.array([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    np.testing.assert_allclose(lambert_intensity(pts, normals, 0.6), [0.6, 0.0, 0.15],
                               rtol=0, atol=1e-12)

    # sphere with exact radial normals: bin-averaged intensity must fall
    # as the incidence angle grows
    rng = np.random.default_rng(4)
    center = np.array([8.0, 0.0, 0.0])
    direction = rng.standard_normal((10_000, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    pts = center + direction
    normals = direction
    raw = lambert_intensity(pts, normals, 0.5)
    beam = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    incidence = np.arccos(np.clip(-np.einsum("ij,ij->i", normals, beam), -1.0, 1.0))
    visible = incidence < np.pi / 2
    bins = np.linspace(0.0, np.pi / 2, 10)
    which = np.digitize(incidence[visible], bins)
    means = np.array([raw[visible][which == b].mean() for b in range(1, 10)])
    assert (np.diff(means) < 1e-12).all()
    print("\nACCEPTANCE 4 PASS: analytic reflectance cases exact at 1e-12; "
          "sphere bin-averaged intensity monotone in incidence angle")


def _forge(inputs, out, policy, seed, workers=1):
    scans, labels = inputs
    bank = MeshBank(_forge.mesh_root, CATALOG, HEIGHTS)
    return forge_split(discover_pairs(scans, labels), out, policy, TEST_SENSOR,
                       bank, master_seed=seed, workers=workers)


@pytest.fixture(scope="module")
def forge_env(mesh_root):
    _forge.mesh_root = mesh_root
    return mesh_root


def test_criterion_5_split_statistics(bulk_inputs, forge_env, tmp_path):
    single = SplitPolicy.single(surface_classes=(ROAD_CLASS,), anomaly_label=2)
    summary_s = _forge(bulk_inputs, tmp_path / "single", single, seed=55)
    fraction = summary_s.anomaly_scan_count / summary_s.scan_count
    assert 0.34 <= fraction <= 0.46

    multi = SplitPolicy.multi(surface_classes=(ROAD_CLASS,), anomaly_label=2)
    summary_m = _forge(bulk_inputs, tmp_path / "multi", multi, seed=56)
    counts = np.bincount(list(summary_m.per_scan_objects.values()), minlength=5)[1:5]
    expected = np.array([0.4, 0.3, 0.2, 0.1]) * counts.sum()
    pvalue = chisquare(counts, expected).pvalue
    assert pvalue > 0.01

    # reference datasets realize 0.39-0.40 single and 1.17-1.21 multi
    # instances per scan; the policy expectation is 0.40 and 1.20
    instances_per_scan = summary_m.object_count / summary_m.scan_count
    assert 1.0 <= instances_per_scan <= 1.4

    worst = 0.0
    for out_dir, summary in ((tmp_path / "single", summary_s), (tmp_path / "multi", summary_m)):
        for sid in summary.per_scan_objects:
            cloud = read_scan(out_dir / "velodyne" / f"{sid}.bin")
            words = read_labels(out_dir / "labels" / f"{sid}.label")
            radii = np.linalg.norm(cloud.xyz[words.class_ids == 2][:, :2], axis=1)
            assert (radii <= 50.0).all()
            worst = max(worst, float(radii.max()))
    print(f"\nACCEPTANCE 5 PASS: single anomaly fraction {fraction:.3f} in [0.34, 0.46]; "
          f"multi count histogram {counts.tolist()} chi2 p={pvalue:.3f} > 0.01, "
          f"{instances_per_scan:.2f} instances/scan; "
          f"all anomaly points within 50 m (max {worst:.2f} m)")


def test_criterion_6_scoring_constants_and_forms():
    assert (losses.WEIGHT_CE, losses.WEIGHT_LOVASZ, losses.WEIGHT_PROTOTYPE,
            losses.WEIGHT_CONTRASTIVE, losses.WEIGHT_OBJECTOSPHERE) == (1.0, 1.5, 0.1, 0.5, 0.5)
    assert losses.TEMPERATURE == 0.1
    assert DEFAULT_NORM_THRESHOLD == 5.0

    # squared norm exactly 5 (2^2 + 1^2) and exactly 0
    boundary = score_contrastive(np.array([[2.0, 1.0, 0.0]]))
    zero = score_contrastive(np.array([[0.0, 0.0, 0.0]]))
    assert boundary[0] == 0.0
    assert zero[0] == 1.0

    rng = np.random.default_rng(6)
    n, c = 100_000, 8
    feats = FeatureSet(semantic=rng.standard_normal((n, c)) * 4,
                       contrastive=rng.standard_normal((n, c)) * 2)
    bank = PrototypeBank(rng.standard_normal((c, c)))
    sv = compute_scores(feats, bank)
    for name in ("cosine", "entropy", "semantic", "contrastive", "fused"):
        arr = getattr(sv, name)
        assert arr.min() >= 0.0 and arr.max() <= 1.0, name
    np.testing.assert_array_equal(sv.fused, 0.5 * (sv.semantic + sv.contrastive))
    print("\nACCEPTANCE 6 PASS: defaults r=5.0, tau=0.1, weights (1.0, 1.5, 0.1, "
          "0.5, 0.5); boundary scores exact; all five scores in [0,1] on 1e5 points; "
          "fused is the exact mean")


def test_criterion_7_loss_gradients():
    rng = np.random.default_rng(7)
    n, c = 10, 4
    checked = 0
    while checked < 100:
        f_sem = rng.standard_normal((n, c)) * 2
        f_cont = rng.standard_normal((n, c)) * 1.5
        y = rng.integers(0, c, n)
        if len(np.unique(y)) < 2:
            continue
        bank = PrototypeBank(rng.standard_normal((c, c)))
        w = rng.uniform(0.5, 2.0, c)
        mask = rng.random(n) < 0.7

        # keep instances away from sort ties and the hypersphere kink
        z = f_sem - f_sem.max(axis=1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        gaps = []
        for cls in np.unique(y):
            errors = np.sort(np.abs((y == cls).astype(float) - p[:, cls]))
            gaps.append(np.diff(errors).min() if errors.size > 1 else 1.0)
        sq = np.einsum("ij,ij->i", f_cont, f_cont)
        if min(gaps) < 1e-3 or np.abs(sq - 5.0).min() < 1e-3:
            continue

        _, g = loss_ce(f_sem, y, w)
        assert_grad_close(g, fd_grad(lambda x: loss_ce(x, y, w)[0], f_sem))
        _, g = loss_prototype(f_sem, y, bank)
        assert_grad_close(g, fd_grad(lambda x: loss_prototype(x, y, bank)[0], f_sem))
        _, g = loss_lovasz(f_sem, y)
        assert_grad_close(g, fd_grad(lambda x: loss_lovasz(x, y)[0], f_sem))
        fbar = rng.standard_normal((c, c))
        _, g = loss_contrastive(fbar, bank)
        assert_grad_close(g, fd_grad(lambda x: loss_contrastive(x, bank)[0], fbar))
        _, g = loss_objectosphere(f_cont, mask, radius=5.0)
        assert_grad_close(g, fd_grad(
            lambda x: loss_objectosphere(x, mask, radius=5.0)[0], f_cont))
        checked += 1

    value, _ = loss_ce(np.full((6, 5), 2.2), np.arange(6) % 5)
    assert value == pytest.approx(np.log(5), abs=1e-12)
    big = np.full((4, 3), 2.0)  # squared norms 12 >= 5
    value, _ = loss_objectosphere(big, np.ones(4, dtype=bool), radius=5.0)
    assert value == 0.0
    print("\nACCEPTANCE 7 PASS: 100 instances, every loss gradient within 1e-4 "
          "of central differences; uniform CE = log C at 1e-12; "
          "saturated objectosphere = 0")


def test_criterion_8_end_to_end_smoke(mini_inputs, forge_env, tmp_path, capsys):
    start = time.perf_counter()
    scans_dir, labels_dir = mini_inputs
    out = tmp_path / "mini_split"
    sensor_cfg = tmp_path / "sensor.cfg"
    sensor_cfg.write_text("beams = 32\nwidth = 512\nfov_up_deg = 8.0\n"
                          "fov_down_deg = 24.0\n")
    code = cli_main(["forge", "--scans", str(scans_dir), "--labels", str(labels_dir),
                     "--meshes", str(forge_env), "--out", str(out),
                     "--sensor", str(sensor_cfg), "--policy", "single",
                     "--seed", "88"])
    assert code == 0

    # synthesize head features from the forged labels: anomalies get flat
    # semantic logits and near-zero contrastive norms
    c = 4
    rng = np.random.default_rng(8)
    feat_dir = tmp_path / "features"
    feat_dir.mkdir()
    n_anom = 0
    for label_path in sorted((out / "labels").glob("*.label")):
        words = read_labels(label_path)
        anom = words.class_ids == 2
        n_anom += int(anom.sum())
        n = words.count
        sem = 0.05 * rng.standard_normal((n, c)).astype(np.float32)
        cont = 0.05 * rng.standard_normal((n, c)).astype(np.float32)
        inlier_class = rng.integers(0, c, n)
        rows = np.flatnonzero(~anom)
        sem[rows, inlier_class[rows]] = 9.0
        cont[rows, inlier_class[rows]] = 4.0
        write_tensor(feat_dir / f"{label_path.stem}.sem.ftr", sem)
        write_tensor(feat_dir / f"{label_path.stem}.cont.ftr", cont)
    assert n_anom > 0
    write_tensor(tmp_path / "proto.ftr", np.eye(c, dtype=np.float32))

    scores_dir = tmp_path / "scores"
    assert cli_main(["score", "--features", str(feat_dir),
                     "--prototypes", str(tmp_path / "proto.ftr"),
                     "--out", str(scores_dir)]) == 0
    report = tmp_path / "report.txt"
    assert cli_main(["eval", "--scores", str(scores_dir),
                     "--labels", str(out / "labels"),
                     "--scans", str(out / "velodyne"),
                     "--anomaly-label", "2", "--out", str(report)]) == 0
    capsys.readouterr()

    kv = {}
    for line in report.read_text().splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            kv[key] = value
    measured = float(kv["auroc"])
    elapsed = time.perf_counter() - start
    assert measured > 0.95
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 8 PASS: forge+score+eval pipeline, AUROC {measured:.4f} "
          f"> 0.95 on {n_anom} anomaly points ({elapsed:.1f}s < 60s)")


def test_criterion_9_determinism(mini_inputs, forge_env, tmp_path):
    single = SplitPolicy.single(surface_classes=(ROAD_CLASS,), anomaly_label=2)
    trees = []
    for run, workers in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / f"run_{run}"
        _forge(mini_inputs, out, single, seed=99, workers=workers)
        trees.append({p.relative_to(out).as_posix(): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert trees[0] == trees[1], "repeat run differs"
    assert trees[0] == trees[2], "worker count changed bytes"
    n_files = len(trees[0])
    print(f"\nACCEPTANCE 9 PASS: {n_files} output files byte-identical across "
          "repeat runs and worker counts 1 and 8")
