import contextlib
import io
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import make_cube_mesh, make_flat_scene, write_off

from lidarforge import EvalPair, LabelArray, auroc, write_labels, write_scan, write_tensor
from lidarforge.cli import main

SENSOR_CFG = """beams = 32
width = 512
fov_up_deg = 8.0
fov_down_deg = 24.0
"""


def write_forge_inputs(root):
    rng = np.random.default_rng(0)
    scans = root / "in" / "velodyne"
    labels = root / "in" / "labels"
    meshes = root / "meshes" / "chair"
    scans.mkdir(parents=True)
    labels.mkdir(parents=True)
    meshes.mkdir(parents=True)
    for i in range(5):
        scene, lab = make_flat_scene(rng, 2500)
        write_scan(scene, scans / f"{i:06d}.bin")
        write_labels(lab, labels / f"{i:06d}.label")
    write_off(make_cube_mesh(), meshes / "chair_0001.off")
    sensor = root / "sensor.cfg"
    sensor.write_text(SENSOR_CFG)
    return root


@pytest.fixture
def forge_inputs(tmp_path):
    return write_forge_inputs(tmp_path)


@pytest.fixture(scope="module")
def shared_forge_inputs(tmp_path_factory):
    """forge_inputs once per module, for tests that run many forges."""
    return write_forge_inputs(tmp_path_factory.mktemp("forge"))


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

    @pytest.mark.parametrize("flag, value", [
        ("--object-points", "0"), ("--object-points", "1"), ("--object-points", "10"),
        ("--neighbors", "0"), ("--neighbors", "1"),
        ("--noise-scale", "nan"), ("--noise-scale", "-1"),
        ("--max-radius", "nan"), ("--max-radius", "inf"),
        ("--workers", "0"),
        ("--anomaly-label", "-1"), ("--anomaly-label", "70000"), ("--anomaly-label", "40"),
        ("--surface-classes", "abc"), ("--surface-classes", "70000"),
    ])
    def test_invalid_knob_rejected_before_output(self, forge_inputs, capsys, flag, value):
        root = forge_inputs
        out = root / "out_knob"
        assert main(forge_args(root, out) + [flag, value]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()
        assert not list(root.glob("out_knob.tmp.*"))

    def test_manifest_echoes_config(self, forge_inputs):
        root = forge_inputs
        assert main(forge_args(root, root / "out_d", seed=11)) == 0
        manifest = (root / "out_d" / "manifest.tsv").read_text()
        assert "# seed = 11" in manifest
        assert "# policy = single" in manifest
        assert "# anomaly_ratio = 0.4" in manifest


# per knob: (valid values, edge values); edges mix invalid and boundary values
FLOAT_EDGES = [math.nan, math.inf, -math.inf, 0.0, 1.0, -1.0]
KNOBS = {
    "object-points": (st.integers(50, 3000), [0, 1, -1, 10]),
    "neighbors": (st.integers(2, 40), [0, 1, -1, 3000]),
    "noise-scale": (st.floats(0.0, 2.0), FLOAT_EDGES),
    "max-radius": (st.floats(0.5, 60.0), FLOAT_EDGES),
    "anomaly-label": (st.integers(0, 100), [-1, 65535, 65536, 70000]),
    "surface-classes": (st.sampled_from(["40", "40,44"]), ["abc", "40,,44", "-1", "70000"]),
    # small worker counts only: each is a real thread pool
    "workers": (st.sampled_from([1, 2]), [-1, 0]),
}
VALID_KNOBS = {"object-points": 1200, "neighbors": 10, "noise-scale": 0.05, "max-radius": 50.0,
               "anomaly-label": 2, "surface-classes": "40", "workers": 1}


@st.composite
def knob_settings(draw):
    """Valid values for every knob, then edge values for up to two of them."""
    knobs = {name: draw(valid) for name, (valid, _) in KNOBS.items()}
    for name in draw(st.sets(st.sampled_from(sorted(KNOBS)), max_size=2)):
        knobs[name] = draw(st.sampled_from(KNOBS[name][1]))
    return knobs


class TestForgeKnobs:
    @given(knobs=knob_settings())
    @example(knobs={**VALID_KNOBS, "anomaly-label": -1})
    @example(knobs={**VALID_KNOBS, "anomaly-label": 70000})
    @example(knobs={**VALID_KNOBS, "surface-classes": "abc"})
    @example(knobs={**VALID_KNOBS, "surface-classes": "70000"})
    @settings(max_examples=100, deadline=None)
    def test_forge_exits_cleanly(self, shared_forge_inputs, knobs):
        root = shared_forge_inputs
        parent = Path(tempfile.mkdtemp(dir=root))
        # --flag=value: argparse would read a lone "-inf" as an option
        args = forge_args(root, parent / "out") + [f"--{k}={v}" for k, v in knobs.items()]
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(args)
            if code == 0:
                assert [p.name for p in parent.iterdir()] == ["out"]
            else:
                assert code == 1
                assert err.getvalue().startswith("error:")
                assert not any(parent.iterdir())
        finally:
            shutil.rmtree(parent)


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

    def test_per_scan_auroc_reads_each_scans_own_points(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        scores_dir, label_dir = tmp_path / "scores", tmp_path / "labels"
        scores_dir.mkdir()
        label_dir.mkdir()
        expected = []
        for i, n in enumerate((9, 14, 11)):
            scores = rng.random(n).astype(np.float32)
            truth = np.arange(n) % 3 == i
            (scores_dir / f"s{i}.scores").write_bytes(scores.astype("<f4").tobytes())
            write_labels(LabelArray(np.where(truth, 2, 40).astype(np.uint32)),
                         label_dir / f"s{i}.label")
            value = auroc(EvalPair(scores.astype(np.float64), truth))
            expected.append(f"scan s{i} auroc = {value:.6f}")
        assert main(["eval", "--scores", str(scores_dir), "--labels", str(label_dir),
                     "--anomaly-label", "2", "--per-scan"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("scan ")] == expected

    def test_eval_truncated_score_file_reports_error(self, tmp_path, capsys):
        feat_dir, label_dir, proto = self._setup(tmp_path)
        out_dir = tmp_path / "scores"
        assert main(["score", "--features", str(feat_dir), "--prototypes", str(proto),
                     "--out", str(out_dir)]) == 0
        score_path = out_dir / "scan0.scores"
        score_path.write_bytes(score_path.read_bytes()[:-1])
        capsys.readouterr()
        code = main(["eval", "--scores", str(out_dir), "--labels", str(label_dir),
                     "--anomaly-label", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(score_path) in err and "1599 bytes" in err

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
