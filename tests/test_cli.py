import numpy as np
import pytest

from helpers import make_cube_mesh, make_flat_scene, write_off

from lidarforge import LabelArray, write_labels, write_scan, write_tensor
from lidarforge.cli import main

SENSOR_CFG = """beams = 32
width = 512
fov_up_deg = 8.0
fov_down_deg = 24.0
"""


@pytest.fixture
def forge_inputs(tmp_path):
    rng = np.random.default_rng(0)
    scans = tmp_path / "in" / "velodyne"
    labels = tmp_path / "in" / "labels"
    meshes = tmp_path / "meshes" / "chair"
    scans.mkdir(parents=True)
    labels.mkdir(parents=True)
    meshes.mkdir(parents=True)
    for i in range(5):
        scene, lab = make_flat_scene(rng, 2500)
        write_scan(scene, scans / f"{i:06d}.bin")
        write_labels(lab, labels / f"{i:06d}.label")
    write_off(make_cube_mesh(), meshes / "chair_0001.off")
    sensor = tmp_path / "sensor.cfg"
    sensor.write_text(SENSOR_CFG)
    return tmp_path


def forge_args(root, out, seed=7, workers=1):
    return ["forge",
            "--scans", str(root / "in" / "velodyne"),
            "--labels", str(root / "in" / "labels"),
            "--meshes", str(root / "meshes"),
            "--out", str(out),
            "--sensor", str(root / "sensor.cfg"),
            "--policy", "single",
            "--seed", str(seed),
            "--object-points", "1200",
            "--workers", str(workers)]


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestForgeCommand:
    def test_repeat_runs_byte_identical(self, forge_inputs):
        root = forge_inputs
        assert main(forge_args(root, root / "out_a")) == 0
        assert main(forge_args(root, root / "out_b")) == 0
        assert tree_bytes(root / "out_a") == tree_bytes(root / "out_b")

    def test_existing_output_refused(self, forge_inputs):
        root = forge_inputs
        (root / "occupied").mkdir()
        assert main(forge_args(root, root / "occupied")) == 1

    def test_failure_leaves_no_partial_output(self, forge_inputs, tmp_path):
        root = forge_inputs
        args = forge_args(root, root / "out_c")
        args[args.index("--meshes") + 1] = str(tmp_path / "nowhere")
        assert main(args) == 1
        assert not (root / "out_c").exists()

    def test_manifest_echoes_config(self, forge_inputs):
        root = forge_inputs
        assert main(forge_args(root, root / "out_d", seed=11)) == 0
        manifest = (root / "out_d" / "manifest.tsv").read_text()
        assert "# seed = 11" in manifest
        assert "# policy = single" in manifest
        assert "# anomaly_ratio = 0.4" in manifest


class TestStylePresets:
    def test_anomaly_label_conventions(self):
        from lidarforge.cli import STYLE_PRESETS
        assert STYLE_PRESETS["kitti"][0] == 2
        assert STYLE_PRESETS["poss"][0] == 2
        assert STYLE_PRESETS["nuscenes"][0] == 100

    def test_single_uses_road_only_for_kitti(self):
        from lidarforge.cli import STYLE_PRESETS
        label, single, multi = STYLE_PRESETS["kitti"]
        assert single == (40,)
        assert set(single) < set(multi)


class TestProjectCommand:
    def test_writes_pgm_and_stats(self, forge_inputs, capsys):
        root = forge_inputs
        out = root / "debug.pgm"
        code = main(["project", "--scan", str(root / "in" / "velodyne" / "000000.bin"),
                     "--sensor", str(root / "sensor.cfg"), "--out", str(out)])
        assert code == 0
        assert out.read_bytes().startswith(b"P5\n512 32\n255\n")
        assert "filled cells" in capsys.readouterr().out

    def test_bundled_sensor_name(self, forge_inputs, capsys):
        root = forge_inputs
        code = main(["project", "--scan", str(root / "in" / "velodyne" / "000000.bin"),
                     "--sensor", "semantickitti", "--out", str(root / "k.pgm")])
        assert code == 0


def synth_features(n, c, anomaly_mask, rng):
    """Inliers: confident logits + large contrastive norm.  Anomalies:
    flat logits + near-zero contrastive norm."""
    sem = np.zeros((n, c), dtype=np.float32)
    cont = np.zeros((n, c), dtype=np.float32)
    classes = rng.integers(0, c, n)
    for i in range(n):
        if anomaly_mask[i]:
            sem[i] = 0.05 * rng.standard_normal(c)
            cont[i] = 0.01 * rng.standard_normal(c)
        else:
            sem[i, classes[i]] = 8.0
            cont[i, classes[i]] = 4.0
    return sem, cont


class TestScoreAndEval:
    def _setup(self, tmp_path, n=400, c=4):
        rng = np.random.default_rng(1)
        anomaly = rng.random(n) < 0.25
        sem, cont = synth_features(n, c, anomaly, rng)
        feat_dir = tmp_path / "features"
        label_dir = tmp_path / "labels"
        feat_dir.mkdir()
        label_dir.mkdir()
        write_tensor(feat_dir / "scan0.sem.ftr", sem)
        write_tensor(feat_dir / "scan0.cont.ftr", cont)
        words = np.where(anomaly, 2, 40).astype(np.uint32)
        write_labels(LabelArray(words), label_dir / "scan0.label")
        write_tensor(tmp_path / "proto.ftr", np.eye(c, dtype=np.float32))
        return feat_dir, label_dir, tmp_path / "proto.ftr"

    def test_score_then_eval_perfect_separation(self, tmp_path, capsys):
        feat_dir, label_dir, proto = self._setup(tmp_path)
        out_dir = tmp_path / "scores"
        assert main(["score", "--features", str(feat_dir), "--prototypes", str(proto),
                     "--out", str(out_dir)]) == 0
        assert (out_dir / "scan0.scores").exists()
        assert (out_dir / "scan0.scores.meta").exists()
        capsys.readouterr()

        report = tmp_path / "report.txt"
        assert main(["eval", "--scores", str(out_dir), "--labels", str(label_dir),
                     "--anomaly-label", "2", "--out", str(report)]) == 0
        text = report.read_text()
        assert "auroc = 1.000000000" in text
        assert "ap = 1.000000000" in text
        assert "fpr_at_95tpr = 0.000000000" in text

    def test_single_class_features_rejected(self, tmp_path, capsys):
        feat_dir = tmp_path / "features"
        feat_dir.mkdir()
        write_tensor(feat_dir / "s.sem.ftr", np.zeros((10, 1), dtype=np.float32))
        write_tensor(feat_dir / "s.cont.ftr", np.zeros((10, 1), dtype=np.float32))
        write_tensor(tmp_path / "proto.ftr", np.ones((1, 1), dtype=np.float32))
        code = main(["score", "--features", str(feat_dir),
                     "--prototypes", str(tmp_path / "proto.ftr"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "C<2" in capsys.readouterr().err

    def test_losses_flag_prints_values(self, tmp_path, capsys):
        feat_dir, label_dir, proto = self._setup(tmp_path)
        code = main(["score", "--features", str(feat_dir), "--prototypes", str(proto),
                     "--out", str(tmp_path / "s2"), "--losses", "--labels", str(label_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ce=" in out and "lovasz=" in out and "objectosphere=" in out

    def test_losses_without_labels_rejected(self, tmp_path, capsys):
        code = main(["score", "--features", str(tmp_path), "--prototypes", "x",
                     "--out", str(tmp_path / "o"), "--losses"])
        assert code == 2
