import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import make_cube_mesh, make_flat_scene, write_off

from lidarforge import (EvalPair, FeatureSet, LabelArray, MeshBank, PointCloud, PrototypeBank,
                        ReflectivityCatalog, SensorConfig, SplitPolicy, auroc, compute_scores,
                        forge_split, load_target_heights, point_ranges, range_binned_ap,
                        read_tensor, write_labels, write_scan, write_tensor)
from lidarforge import scoring
from lidarforge.cli import BUNDLED_SENSORS, _float32_at_most, main
from lidarforge.insertion import discover_pairs

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


# forge config files holding a value the forge must refuse
BAD_CONFIGS = {
    "fov-up-nan": ("--sensor", SENSOR_CFG.replace("fov_up_deg = 8.0", "fov_up_deg = nan")),
    "fov-up-inf": ("--sensor", SENSOR_CFG.replace("fov_up_deg = 8.0", "fov_up_deg = inf")),
    "fov-down-negative": ("--sensor",
                          SENSOR_CFG.replace("fov_down_deg = 24.0", "fov_down_deg = -4")),
    "fov-up-text": ("--sensor", SENSOR_CFG.replace("fov_up_deg = 8.0", "fov_up_deg = up")),
    "beams-fraction": ("--sensor", SENSOR_CFG.replace("beams = 32", "beams = 32.5")),
    "grid-too-large": ("--sensor", SENSOR_CFG.replace("beams = 32", "beams = 65536")
                       .replace("width = 512", "width = 65536")),
    "height-nan": ("--heights", "chair = nan\n"),
    "height-inf": ("--heights", "chair = inf\n"),
    "height-text": ("--heights", "chair = tall\n"),
    # the bank's one category has no height, so every anomaly scan would be skipped
    "height-missing": ("--heights", "toilet = 0.5\n"),
}


def forge_args(root, out, seed=7, workers=1):
    return ["forge",
            "--scans", str(root / "in" / "velodyne"),
            "--labels", str(root / "in" / "labels"),
            "--meshes", str(root / "meshes"),
            "--out", str(out),
            "--sensor", str(root / "sensor.cfg"),
            "--policy", "single",
            "--seed", str(seed),
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
        assert not list(root.glob("out_*.tmp.*"))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_library_forge_writes_the_cli_tree(self, forge_inputs, workers):
        """forge_split with the bundled configs and the default policy
        writes the CLI's tree byte for byte, the manifest header included."""
        root = forge_inputs
        args = forge_args(root, root / "cli", workers=workers)
        args[args.index("--policy") + 1] = "multi"
        assert main(args) == 0
        bank = MeshBank(root / "meshes", ReflectivityCatalog.default(), load_target_heights())
        forge_split(discover_pairs(root / "in" / "velodyne", root / "in" / "labels"),
                    root / "lib", SplitPolicy.multi(), SensorConfig.from_file(root / "sensor.cfg"),
                    bank, master_seed=7, workers=workers)
        cli_tree = tree_bytes(root / "cli")
        assert b"# seed = 7\n" in cli_tree["manifest.tsv"]
        assert tree_bytes(root / "lib") == cli_tree

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

    @pytest.mark.parametrize("flag", ["--sensor", "--scans", "--meshes"])
    def test_input_with_nothing_usable_rejected(self, forge_inputs, capsys, flag):
        root = forge_inputs
        empty = root / "empty"
        (empty / "chair").mkdir(parents=True)   # a category directory without a mesh
        value = str(root / "nowhere.cfg") if flag == "--sensor" else str(empty)
        want = {
            "--sensor": f"sensor {value!r} is neither a file nor one of {sorted(BUNDLED_SENSORS)}",
            "--scans": f"no .bin scans found under {empty}",
            "--meshes": f"no usable mesh categories under {empty}",
        }[flag]
        out = root / "out_empty"
        assert main(forge_args(root, out) + [flag, value]) == 1
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not out.exists()
        assert not list(root.glob("out_empty.tmp.*"))

    @pytest.mark.parametrize("vertex, reason", [
        ("nan", "FormatError: {path}:5: non-finite vertex coordinate 'nan'"),
        ("1e200", "ValidationError: mesh total surface area is not finite (inf)"),
    ])
    def test_malformed_mesh_skips_the_scans_that_draw_it(self, forge_inputs, capsys,
                                                         vertex, reason):
        root = forge_inputs
        bad = root / "meshes" / "chair" / "chair_0001.off"
        lines = bad.read_text().splitlines()
        lines[4] = f"{vertex} 0.5 -0.5"  # vertex 2, on line 5
        bad.write_text("\n".join(lines) + "\n")
        # multi at 2 workers: several scans draw the mesh, in parallel, and
        # each parses it and is skipped for the same reason
        for policy, workers in (("single", 1), ("multi", 2)):
            out = root / f"out_bad_mesh_{policy}"
            args = forge_args(root, out, workers=workers)
            args[args.index("--policy") + 1] = policy
            assert main(args) == 0
            assert "Traceback" not in capsys.readouterr().err
            manifest = (out / "manifest.tsv").read_text()
            skipped = dict(line[len("# skipped: "):].split("\t")
                           for line in manifest.splitlines() if line.startswith("# skipped: "))
            assert len(skipped) > (policy == "multi")  # the anomaly scans, each drawing the mesh
            assert set(skipped.values()) == {reason.format(path=bad)}
            written = {p.stem for p in (out / "velodyne").iterdir()}
            assert {p.stem for p in (out / "labels").iterdir()} == written
            assert written.isdisjoint(skipped) and len(written) + len(skipped) == 5

    def test_object_points_is_an_unknown_option(self, forge_inputs, capsys):
        root = forge_inputs
        out = root / "out_points"
        with pytest.raises(SystemExit) as exit_info:
            main(forge_args(root, out) + ["--object-points", "10"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --object-points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
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

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_invalid_config_number_rejected_before_output(self, forge_inputs, capsys, case):
        root = forge_inputs
        flag, text = BAD_CONFIGS[case]
        config = root / "bad.cfg"
        config.write_text(text)
        out = root / "out_cfg"
        assert main(forge_args(root, out) + [flag, str(config)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()
        assert not list(root.glob("out_cfg.tmp.*"))

    @pytest.mark.parametrize("flag, text", [
        ("--sensor", SENSOR_CFG), ("--catalog", "chair = 0.35\n"), ("--heights", "chair = 0.9\n"),
    ], ids=["sensor", "catalog", "heights"])
    def test_config_that_is_not_utf8_rejected(self, forge_inputs, capsys, flag, text):
        root = forge_inputs
        config = root / "latin1.cfg"
        first, rest = text.split("\n", 1)
        # a Latin-1 e-acute in a comment on line 2
        config.write_bytes(f"{first}\n# caf\xe9\n{rest}".encode("latin-1"))
        out = root / "out_cfg"
        assert main(forge_args(root, out) + [flag, str(config)]) == 1
        assert capsys.readouterr().err == f"error: {config}:2: not UTF-8 text (byte 0xe9)\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, text, reason", [
        ("--heights", "chair 0.9\n", "expected 'key = value', got 'chair 0.9'"),
        ("--catalog", " = 0.35\n", "empty key"),
    ], ids=["no-equals", "empty-key"])
    def test_config_line_that_is_not_a_pair_rejected(self, forge_inputs, capsys,
                                                      flag, text, reason):
        root = forge_inputs
        config = root / "bad.cfg"
        config.write_text("# a comment\n" + text)
        out = root / "out_cfg"
        assert main(forge_args(root, out) + [flag, str(config)]) == 1
        assert capsys.readouterr().err == f"error: {config}:2: {reason}\n"
        assert not out.exists()

    def test_config_with_byte_order_mark_read(self, forge_inputs):
        root = forge_inputs
        config = root / "bom.cfg"
        config.write_text("chair = 0.9\n", encoding="utf-8-sig")
        out = root / "out_cfg"
        assert main(forge_args(root, out) + ["--heights", str(config)]) == 0
        assert out.is_dir()

    def test_config_key_set_twice_rejected(self, forge_inputs, capsys):
        root = forge_inputs
        config = root / "twice.cfg"
        config.write_text(SENSOR_CFG + "# a later edit\nbeams = 64\n")
        out = root / "out_cfg"
        assert main(forge_args(root, out) + ["--sensor", str(config)]) == 1
        assert capsys.readouterr().err == \
            f"error: {config}:6: key 'beams' already set on line 1\n"
        assert not out.exists()

    def test_manifest_echoes_config(self, forge_inputs):
        root = forge_inputs
        assert main(forge_args(root, root / "out_d", seed=11)) == 0
        manifest = (root / "out_d" / "manifest.tsv").read_text()
        header = dict(line[2:].split(" = ", 1) for line in manifest.splitlines()
                      if line.startswith("# ") and " = " in line)
        assert list(header) == [
            "seed", "policy", "anomaly_ratio", "surface_classes", "anomaly_label", "max_radius",
            "count_distribution", "sensor_beams", "sensor_width", "sensor_fov_up_deg",
            "sensor_fov_down_deg", "style", "object_points", "noise_scale", "normal_neighbors",
            "normalization", "scans_total", "scans_skipped", "scans_with_anomaly",
            "objects_inserted", "anomaly_points"]
        assert header["seed"] == "11"
        assert header["policy"] == "single"
        assert header["anomaly_ratio"] == "0.4"
        # fixed since their knobs went; the golden digests cover these lines
        assert header["object_points"] == "50000"
        assert (header["noise_scale"], header["normal_neighbors"], header["normalization"]) \
            == ("0.05", "10", "mean")


# per knob: (valid values, edge values); edges mix invalid and boundary values
FLOAT_EDGES = [math.nan, math.inf, -math.inf, 0.0, 1.0, -1.0]
KNOBS = {
    "max-radius": (st.floats(0.5, 60.0), FLOAT_EDGES),
    "anomaly-label": (st.integers(0, 100), [-1, 65535, 65536, 70000]),
    "surface-classes": (st.sampled_from(["40", "40,44"]), ["abc", "40,,44", "-1", "70000"]),
    # small worker counts only: each is a real thread pool
    "workers": (st.sampled_from([1, 2]), [-1, 0]),
}
VALID_KNOBS = {"max-radius": 50.0, "anomaly-label": 2,
               "surface-classes": "40", "workers": 1}


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

    def test_sensor_grid_too_large_rejected_before_allocating(self, forge_inputs, capsys):
        root = forge_inputs
        sensor = root / "huge.cfg"
        sensor.write_text(SENSOR_CFG.replace("beams = 32", "beams = 65536")
                          .replace("width = 512", "width = 65536"))
        out = root / "huge.pgm"
        tracemalloc.start()
        try:
            code = main(["project", "--scan", str(root / "in" / "velodyne" / "000000.bin"),
                         "--sensor", str(sensor), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: sensor grid too large: beams = 65536 and width = 65536")
        assert not out.exists()
        assert peak < 1 << 20   # no grid, not even the scan


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

    @pytest.mark.parametrize("radius", ["nan", "inf", "0", "-1"])
    def test_invalid_radius_rejected_before_output(self, tmp_path, capsys, radius):
        feat_dir, _, proto = self._setup(tmp_path)
        out_dir = tmp_path / "scores"
        # --flag=value: argparse would read a lone "-1" as an option
        assert main(["score", "--features", str(feat_dir), "--prototypes", str(proto),
                     "--out", str(out_dir), f"--radius={radius}"]) == 1
        assert capsys.readouterr().err.startswith("error: radius must be positive and finite")
        assert not out_dir.exists()

    def test_score_count_is_the_scans_scored(self, tmp_path, capsys):
        feat_dir, _, proto = self._setup(tmp_path)
        out_dir = tmp_path / "scores"
        assert main(["score", "--features", str(feat_dir), "--prototypes", str(proto),
                     "--out", str(out_dir)]) == 0
        assert capsys.readouterr().out == f"scored 1 scans -> {out_dir}\n"

    @staticmethod
    def _write_scans(tmp_path, sizes, c=4):
        """One feature pair and label file per ``stem: points`` of ``sizes``;
        returns the directories, the prototype path and each scan's truth."""
        rng = np.random.default_rng(2)
        feat_dir, label_dir = tmp_path / "features", tmp_path / "labels"
        feat_dir.mkdir()
        label_dir.mkdir()
        truth = {}
        for stem, n in sizes.items():
            truth[stem] = rng.random(n) < 0.25
            sem, cont = synth_features(n, c, truth[stem], rng)
            write_tensor(feat_dir / f"{stem}.sem.ftr", sem)
            write_tensor(feat_dir / f"{stem}.cont.ftr", cont)
            write_labels(LabelArray(np.where(truth[stem], 2, 40).astype(np.uint32)),
                         label_dir / f"{stem}.label")
        write_tensor(tmp_path / "proto.ftr", np.eye(c, dtype=np.float32))
        return feat_dir, label_dir, tmp_path / "proto.ftr", truth

    def test_dotted_stems_keep_their_own_score_files(self, tmp_path, capsys):
        feat_dir, label_dir, proto, truth = self._write_scans(tmp_path, {"a.1": 30, "a.2": 50})
        out_dir = tmp_path / "scores"
        assert main(["score", "--features", str(feat_dir), "--prototypes", str(proto),
                     "--out", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "a.1.scores", "a.1.scores.meta", "a.2.scores", "a.2.scores.meta"]
        capsys.readouterr()
        assert main(["eval", "--scores", str(out_dir), "--labels", str(label_dir),
                     "--anomaly-label", "2", "--per-scan"]) == 0
        lines = capsys.readouterr().out.splitlines()
        scores = [scoring.read_scores(out_dir / f"{stem}.scores") for stem in truth]
        assert [s.shape[0] for s in scores] == [30, 50]
        every_point = EvalPair(np.concatenate(scores), np.concatenate(list(truth.values())))
        assert f"auroc = {auroc(every_point):.9f}" in lines
        assert [line.split(" auroc")[0] for line in lines if line.startswith("scan ")] == [
            "scan a.1", "scan a.2"]

    @pytest.mark.parametrize("parents", ["", "deep/er/"], ids=["parent-exists", "parents-missing"])
    def test_failed_score_leaves_no_directory(self, tmp_path, capsys, parents):
        feat_dir, _, proto, _ = self._write_scans(tmp_path, {"s0": 20, "s1": 20, "s2": 20})
        with open(feat_dir / "s2.sem.ftr", "ab") as f:
            f.write(b"\0")
        before = sorted(tmp_path.iterdir())
        out_dir = tmp_path / parents / "scores"
        assert main(["score", "--features", str(feat_dir), "--prototypes", str(proto),
                     "--out", str(out_dir)]) == 1
        assert "s2.sem.ftr" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_rerun_into_existing_out_is_refused(self, tmp_path, capsys):
        feat_dir, label_dir, proto, _ = self._write_scans(tmp_path, {"s0": 50, "s1": 50, "s2": 50})
        out_dir = tmp_path / "scores"
        args = ["score", "--features", str(feat_dir), "--prototypes", str(proto),
                "--out", str(out_dir)]
        assert main(args) == 0
        good = tree_bytes(out_dir)
        assert len(good) == 6
        capsys.readouterr()
        # fewer scans on another channel: a merge would mix s0 and s1 of this
        # run with s2 of the first
        for head in ("sem", "cont"):
            (feat_dir / f"s2.{head}.ftr").unlink()
        assert main(args + ["--score", "cont"]) == 1
        assert capsys.readouterr().err == f"error: output directory {out_dir} already exists\n"
        assert tree_bytes(out_dir) == good
        assert not list(tmp_path.glob("scores.tmp.*"))
        assert main(["eval", "--scores", str(out_dir), "--labels", str(label_dir),
                     "--anomaly-label", "2"]) == 0

    def test_score_error_names_the_scan(self, tmp_path, capsys):
        feat_dir, _, proto, _ = self._write_scans(tmp_path, {"s0": 20, "s1": 20, "s2": 20})
        sem = read_tensor(feat_dir / "s1.sem.ftr").copy()
        sem[3, 1] = np.nan
        write_tensor(feat_dir / "s1.sem.ftr", sem)
        out_dir = tmp_path / "scores"
        assert main(["score", "--features", str(feat_dir), "--prototypes", str(proto),
                     "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == \
            f"error: {feat_dir / 's1.sem.ftr'}: features must be finite\n"
        assert not out_dir.exists()

    def test_score_error_names_the_contrastive_file(self, tmp_path, capsys):
        feat_dir, _, proto, _ = self._write_scans(tmp_path, {"s0": 20, "s1": 20, "s2": 20})
        cont = read_tensor(feat_dir / "s1.cont.ftr").copy()
        cont[3, 1] = np.nan
        write_tensor(feat_dir / "s1.cont.ftr", cont)
        out_dir = tmp_path / "scores"
        assert main(["score", "--features", str(feat_dir), "--prototypes", str(proto),
                     "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == \
            f"error: {feat_dir / 's1.cont.ftr'}: features must be finite\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("case", ["missing-features", "no-sem-ftr", "no-cont-ftr",
                                      "losses-count"])
    def test_score_input_error_names_the_path(self, tmp_path, capsys, case):
        feat_dir, label_dir, proto, _ = self._write_scans(tmp_path, {"s0": 20, "s1": 20})
        features, extra = feat_dir, []
        if case == "missing-features":
            features = tmp_path / "nowhere"
            want = f"--features directory {features} does not exist"
        elif case == "no-sem-ftr":
            for path in feat_dir.glob("*.sem.ftr"):
                path.unlink()
            want = f"no *.sem.ftr feature files under {feat_dir}"
        elif case == "no-cont-ftr":
            (feat_dir / "s1.cont.ftr").unlink()
            want = f"missing contrastive features for 's1': {feat_dir / 's1.cont.ftr'}"
        else:
            write_labels(LabelArray(np.zeros(19, dtype=np.uint32)), label_dir / "s1.label")
            extra = ["--losses", str(label_dir)]
            want = f"{feat_dir / 's1.sem.ftr'}: 19 labels vs 20 feature rows"
        out_dir = tmp_path / "scores"
        assert main(["score", "--features", str(features), "--prototypes", str(proto),
                     "--out", str(out_dir)] + extra) == 1
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not out_dir.exists()

    @staticmethod
    def _write_eval_inputs(tmp_path):
        """Scores, labels and scans of stems a, b, c (4, 5 and 3 points)."""
        dirs = {name: tmp_path / name for name in ("scores", "labels", "scans")}
        for d in dirs.values():
            d.mkdir()
        for stem, n in (("a", 4), ("b", 5), ("c", 3)):
            (dirs["scores"] / f"{stem}.scores").write_bytes(
                np.linspace(0, 1, n, dtype="<f4").tobytes())
            write_labels(LabelArray(np.full(n, 2, dtype=np.uint32)),
                         dirs["labels"] / f"{stem}.label")
            write_scan(PointCloud.from_xyz(np.full((n, 3), 5.0)), dirs["scans"] / f"{stem}.bin")
        return dirs

    @pytest.mark.parametrize("case", ["no-scores", "no-label", "label-count", "scan-size",
                                      "scan-nonfinite"])
    def test_eval_error_names_the_file(self, tmp_path, capsys, case):
        dirs = self._write_eval_inputs(tmp_path)
        label_path, scan_path = dirs["labels"] / "b.label", dirs["scans"] / "b.bin"
        if case == "no-scores":
            for path in dirs["scores"].iterdir():
                path.unlink()
            want = f"no *.scores files under {dirs['scores']}"
        elif case == "no-label":
            label_path.unlink()
            want = f"missing labels for 'b': {label_path}"
        elif case == "label-count":
            write_labels(LabelArray(np.full(4, 2, dtype=np.uint32)), label_path)
            want = f"{label_path}: 5 scores vs 4 labels"
        elif case == "scan-size":
            write_scan(PointCloud.from_xyz(np.full((6, 3), 5.0)), scan_path)
            want = f"{scan_path}: 6 points vs 5 scores"
        else:  # read_scan's own message names no file
            points = np.full((5, 4), 5.0, dtype="<f4")
            points[4, 2] = np.nan
            scan_path.write_bytes(points.tobytes())
            want = f"{scan_path}: non-finite value at point index 4"
        report = tmp_path / "report.txt"
        assert main(["eval", "--scores", str(dirs["scores"]), "--labels", str(dirs["labels"]),
                     "--scans", str(dirs["scans"]), "--anomaly-label", "2",
                     "--out", str(report)]) == 1
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not report.exists()

    def test_eval_names_the_file_with_a_nonfinite_score(self, tmp_path, capsys):
        scores_dir, label_dir = tmp_path / "scores", tmp_path / "labels"
        scores_dir.mkdir()
        label_dir.mkdir()
        for stem, n in (("a", 4), ("b", 5), ("c", 3)):
            scores = np.linspace(0, 1, n, dtype="<f4")
            if stem == "b":
                scores[n - 1] = np.nan
            (scores_dir / f"{stem}.scores").write_bytes(scores.tobytes())
            write_labels(LabelArray(np.full(n, 2, dtype=np.uint32)), label_dir / f"{stem}.label")
        assert main(["eval", "--scores", str(scores_dir), "--labels", str(label_dir),
                     "--anomaly-label", "2"]) == 1
        assert capsys.readouterr().err == \
            f"error: {scores_dir / 'b.scores'}: scores must be finite\n"

    @pytest.mark.parametrize("label", ["-1", "65536", "65538", "70000"])
    def test_invalid_eval_anomaly_label_rejected(self, tmp_path, capsys, label):
        scores_dir, label_dir = tmp_path / "scores", tmp_path / "labels"
        scores_dir.mkdir()
        label_dir.mkdir()
        (scores_dir / "s.scores").write_bytes(np.linspace(0, 1, 4, dtype="<f4").tobytes())
        write_labels(LabelArray(np.array([2, 2, 40, 40], dtype=np.uint32)), label_dir / "s.label")
        report = tmp_path / "report.txt"
        assert main(["eval", "--scores", str(scores_dir), "--labels", str(label_dir),
                     f"--anomaly-label={label}", "--out", str(report)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not report.exists()

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

    @pytest.mark.parametrize("anomaly_share, ap", [(0.0, "undefined"),
                                                   (1.0, "1.000000000")])
    def test_eval_split_without_one_class_reports_undefined(self, tmp_path, capsys,
                                                            anomaly_share, ap):
        rng = np.random.default_rng(9)
        dirs = {name: tmp_path / name for name in ("scores", "labels", "scans")}
        for d in dirs.values():
            d.mkdir()
        for i in range(2):
            n = 50
            (dirs["scores"] / f"s{i}.scores").write_bytes(
                rng.random(n).astype("<f4").tobytes())
            words = np.where(rng.random(n) < anomaly_share, 2, 40).astype(np.uint32)
            write_labels(LabelArray(words), dirs["labels"] / f"s{i}.label")
            write_scan(PointCloud.from_xyz(rng.uniform(1.0, 30.0, (n, 3))),
                       dirs["scans"] / f"s{i}.bin")
        report = tmp_path / "report.txt"
        assert main(["eval", "--scores", str(dirs["scores"]), "--labels", str(dirs["labels"]),
                     "--scans", str(dirs["scans"]), "--anomaly-label", "2", "--per-scan",
                     "--out", str(report)]) == 0
        lines = report.read_text().splitlines()
        assert "auroc = undefined" in lines and "fpr_at_95tpr = undefined" in lines
        assert f"ap = {ap}" in lines
        assert sum(line.startswith("ap_bin_") and "=" in line for line in lines) == 5
        assert sum(line.startswith("scan s") and "undefined" in line for line in lines) == 2
        assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("shape", [(3, 3), (4, 6)])
    def test_prototype_shape_mismatch_rejected_before_output(self, tmp_path, capsys, shape):
        feat_dir = tmp_path / "features"
        feat_dir.mkdir()
        rng = np.random.default_rng(12)
        write_tensor(feat_dir / "s.sem.ftr", rng.standard_normal((5, 4)))
        write_tensor(feat_dir / "s.cont.ftr", rng.standard_normal((5, 4)))
        write_tensor(tmp_path / "proto.ftr", np.ones(shape, dtype=np.float32))
        out_dir = tmp_path / "out"
        assert main(["score", "--features", str(feat_dir),
                     "--prototypes", str(tmp_path / "proto.ftr"), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {feat_dir / 's.sem.ftr'}: prototypes must be (4, 4)")
        assert not out_dir.exists()

    def test_prototype_zero_row_rejected_before_output(self, tmp_path, capsys):
        feat_dir, _, _ = self._setup(tmp_path)
        proto = np.eye(4, dtype=np.float32)
        proto[3] = 0.0
        write_tensor(tmp_path / "proto.ftr", proto)
        out_dir = tmp_path / "scores"
        assert main(["score", "--features", str(feat_dir),
                     "--prototypes", str(tmp_path / "proto.ftr"), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == "error: prototype bank has uninitialized classes: [3]\n"
        assert not out_dir.exists()

    def test_subnormal_prototype_row_is_a_prototype(self, tmp_path):
        # a class has a prototype iff its row is nonzero: a row holding only
        # the smallest float32 subnormal points the same way as the unit row
        feat_dir, _, proto = self._setup(tmp_path)
        tiny = np.eye(4, dtype=np.float32)
        tiny[3, 3] = np.finfo(np.float32).smallest_subnormal
        write_tensor(tmp_path / "tiny.ftr", tiny)
        for name, path in (("unit", proto), ("tiny", tmp_path / "tiny.ftr")):
            assert main(["score", "--features", str(feat_dir), "--prototypes", str(path),
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "tiny" / "scan0.scores").read_bytes() == \
            (tmp_path / "unit" / "scan0.scores").read_bytes()

    @staticmethod
    def _score_peak_and_footprint(tmp_path):
        """The traced peak of scoring three scans, and one scan's features
        plus scores in bytes."""
        n, c = 60_000, 19
        rng = np.random.default_rng(13)
        feat_dir = tmp_path / "features"
        feat_dir.mkdir()
        for i in range(3):
            for head in ("sem", "cont"):
                write_tensor(feat_dir / f"s{i}.{head}.ftr",
                             rng.standard_normal((n, c)).astype(np.float32))
        write_tensor(tmp_path / "proto.ftr", np.eye(c, dtype=np.float32))
        one = compute_scores(FeatureSet(semantic=read_tensor(feat_dir / "s0.sem.ftr"),
                                        contrastive=read_tensor(feat_dir / "s0.cont.ftr")),
                             PrototypeBank(np.eye(c)))
        footprint = 2 * n * c * 4 + sum(a.nbytes for a in vars(one).values()
                                        if isinstance(a, np.ndarray))
        del one
        tracemalloc.start()
        try:
            assert main(["score", "--features", str(feat_dir), "--prototypes",
                         str(tmp_path / "proto.ftr"), "--out", str(tmp_path / "scores")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, footprint

    def test_score_keeps_one_scan_alive(self, tmp_path):
        peak, footprint = self._score_peak_and_footprint(tmp_path)
        assert peak < 1.5 * footprint

    @pytest.mark.parametrize("cpus", [4, 64])
    def test_score_memory_does_not_grow_with_cpus(self, tmp_path, monkeypatch, cpus):
        # each scoring thread keeps one block's temporaries alive
        monkeypatch.setattr(scoring, "_usable_cpus", lambda: cpus)
        peak, footprint = self._score_peak_and_footprint(tmp_path)
        assert peak < 1.5 * footprint

    def test_eval_range_bins_split_exact_ranges(self, tmp_path, capsys):
        # the positive lies just below 10 m; its range rounds to 10.0 in float32
        xyz = np.array([[np.nextafter(np.float32(10), np.float32(0)), 0.0037, 0.0],
                        [5.0, 0.0, 0.0], [15.0, 0.0, 0.0]], dtype=np.float32)
        exact = point_ranges(xyz)
        assert exact[0] < 10.0 and np.float32(exact[0]) == 10.0
        scores = np.array([0.9, 0.1, 0.2], dtype="<f4")
        truth = np.array([True, False, False])
        dirs = {name: tmp_path / name for name in ("scores", "labels", "scans")}
        for d in dirs.values():
            d.mkdir()
        (dirs["scores"] / "s.scores").write_bytes(scores.tobytes())
        write_labels(LabelArray(np.where(truth, 2, 40).astype(np.uint32)),
                     dirs["labels"] / "s.label")
        write_scan(PointCloud.from_xyz(xyz), dirs["scans"] / "s.bin")
        assert main(["eval", "--scores", str(dirs["scores"]), "--labels", str(dirs["labels"]),
                     "--scans", str(dirs["scans"]), "--anomaly-label", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        want = range_binned_ap(EvalPair(scores, truth, exact))
        assert want["0_10"] == 1.0 and want["10_20"] is None
        for key, value in want.items():
            shown = "undefined" if value is None else f"{value:.9f}"
            assert f"ap_bin_{key} = {shown}" in lines

    def test_eval_ranges_round_down_like_nextafter(self):
        # 0, float32 values, float64 values just above them, float32's
        # largest value (3.4028235e38 lies just above it) and ranges past it
        f32 = np.array([1e-45, 0.5, 10.0, 49.999996, 3.4028235e38], dtype=np.float32)
        values = np.r_[0.0, f32, np.nextafter(f32.astype(np.float64), np.inf),
                       3.4028235e38, 3.4028236e38, 1e39, 1e300]
        want = []
        for v in values:
            with np.errstate(over="ignore"):
                f = np.float32(v)
            want.append(np.nextafter(f, np.float32(-np.inf)) if f > v else f)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _float32_at_most(values)
        assert got.dtype == np.float32
        assert got.tobytes() == np.array(want, dtype=np.float32).tobytes()
        assert got[-3:].tolist() == [float(np.finfo(np.float32).max)] * 3

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
                     "--out", str(tmp_path / "s2"), "--losses", str(label_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ce=" in out and "lovasz=" in out and "objectosphere=" in out

    def test_losses_skipped_without_inlier_points(self, tmp_path, capsys):
        feat_dir, label_dir, proto = self._setup(tmp_path)
        # every label is a class id of 4 or more, so no point is an inlier of C = 4
        write_labels(LabelArray(np.full(400, 40, dtype=np.uint32)), label_dir / "scan0.label")
        out_dir = tmp_path / "scores"
        assert main(["score", "--features", str(feat_dir), "--prototypes", str(proto),
                     "--out", str(out_dir), "--losses", str(label_dir)]) == 0
        assert capsys.readouterr().out == (
            "scan0\tno inlier-labeled points, losses skipped\n"
            f"scored 1 scans -> {out_dir}\n")
        assert (out_dir / "scan0.scores").exists()

    def test_losses_without_labels_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["score", "--features", str(tmp_path), "--prototypes", "x",
                  "--out", str(tmp_path / "o"), "--losses"])
        assert exc.value.code == 2
        assert "--losses: expected one argument" in capsys.readouterr().err

    def test_score_has_no_labels_option(self, tmp_path, capsys):
        # --losses takes the labels directory: a --labels would be read by nothing
        feat_dir, label_dir, proto = self._setup(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["score", "--features", str(feat_dir), "--prototypes", str(proto),
                  "--out", str(tmp_path / "o"), "--labels", str(label_dir)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --labels" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# argv[1]: JSON list of commands, each run in turn
SCIPY_PROBE = """
import json, sys
from lidarforge.cli import main

for args in json.loads(sys.argv[1]):
    assert main(args) == 0, args
    assert "scipy" not in sys.modules, f"{args[0]} loaded scipy"
"""


class TestScipyImport:
    def test_no_command_loads_scipy(self, forge_inputs):
        root = forge_inputs
        n, c = 300, 4
        rng = np.random.default_rng(3)
        anomaly = rng.random(n) < 0.25
        sem, cont = synth_features(n, c, anomaly, rng)
        for name in ("features", "labels", "scans"):
            (root / name).mkdir()
        write_tensor(root / "features" / "s.sem.ftr", sem)
        write_tensor(root / "features" / "s.cont.ftr", cont)
        write_tensor(root / "proto.ftr", np.eye(c, dtype=np.float32))
        write_labels(LabelArray(np.where(anomaly, 2, 40).astype(np.uint32)),
                     root / "labels" / "s.label")
        write_scan(make_flat_scene(rng, n)[0], root / "scans" / "s.bin")
        commands = [
            ["score", "--features", str(root / "features"), "--prototypes",
             str(root / "proto.ftr"), "--out", str(root / "scores")],
            ["eval", "--scores", str(root / "scores"), "--labels", str(root / "labels"),
             "--scans", str(root / "scans"), "--anomaly-label", "2"],
            ["project", "--scan", str(root / "in" / "velodyne" / "000000.bin"),
             "--sensor", str(root / "sensor.cfg"), "--out", str(root / "p.pgm")],
            forge_args(root, root / "out"),  # inserts objects, so it estimates normals
        ]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE, json.dumps(commands)],
            env=env, capture_output=True, text=True, timeout=300)
        assert probe.returncode == 0, probe.stderr
        manifest = (root / "out" / "manifest.tsv").read_text()
        assert "# objects_inserted = 0" not in manifest
        assert "# objects_inserted = " in manifest
