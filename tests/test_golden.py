"""Golden digests of a small forge -> score -> eval run.

A fixed synthetic split is forged through the CLI with one and with two
workers, then scored and evaluated.  The SHA-256 of the forged tree
(``velodyne/``, ``labels/``, ``manifest.tsv``) and of the eval report
must equal the digests committed below, so a refactor that changes a
single output byte fails here instead of going unnoticed.

The digests depend on the numpy/scipy/LAPACK build: normal estimation
goes through ``numpy.linalg.eigh`` and ``scipy.spatial.cKDTree``, whose
last bits may differ between builds.  They were recorded with Python
3.11, numpy 2.4 and scipy 1.17.  A change that alters the bytes on
purpose records new digests here and says why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from helpers import make_cube_mesh, make_flat_scene, write_off

from lidarforge import read_labels, write_labels, write_scan, write_tensor
from lidarforge.cli import main

TREE_SHA256 = "39b55318928f7d031046a7867d3f834173edc3e22c61c67a67e824d1a3c6321b"
REPORT_SHA256 = "181aab366e34937294d317b35b957d58ae90fcbb3fd14a76eee745c4ff4ddf74"

SENSOR_CFG = "beams = 32\nwidth = 512\nfov_up_deg = 8.0\nfov_down_deg = 24.0\n"
N_CLASSES = 4


def tree_digest(root) -> str:
    """SHA-256 over the relative path and bytes of every output file."""
    h = hashlib.sha256()
    files = sorted(p for p in root.rglob("*") if p.is_file())
    assert {p.relative_to(root).parts[0] for p in files} == {"velodyne", "labels",
                                                            "manifest.tsv"}
    for p in files:
        h.update(p.relative_to(root).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    rng = np.random.default_rng(2024)
    (root / "in" / "velodyne").mkdir(parents=True)
    (root / "in" / "labels").mkdir(parents=True)
    for i in range(6):
        scene, lab = make_flat_scene(rng, 2500)
        write_scan(scene, root / "in" / "velodyne" / f"{i:06d}.bin")
        write_labels(lab, root / "in" / "labels" / f"{i:06d}.label")
    for category, half in (("chair", 0.5), ("toilet", 0.35)):
        (root / "meshes" / category).mkdir(parents=True)
        write_off(make_cube_mesh(half), root / "meshes" / category / f"{category}_0001.off")
    (root / "sensor.cfg").write_text(SENSOR_CFG)
    return root


def forge(root, workers: int):
    out = root / f"forged_w{workers}"
    code = main(["forge",
                 "--scans", str(root / "in" / "velodyne"),
                 "--labels", str(root / "in" / "labels"),
                 "--meshes", str(root / "meshes"),
                 "--out", str(out),
                 "--sensor", str(root / "sensor.cfg"),
                 "--policy", "multi",
                 "--seed", "5",
                 "--object-points", "1500",
                 "--workers", str(workers)])
    assert code == 0
    return out


def score_and_eval(root, forged) -> str:
    """Synthesize head features from the forged labels, score, evaluate."""
    rng = np.random.default_rng(11)
    feats = root / "features"
    feats.mkdir()
    for label_path in sorted((forged / "labels").glob("*.label")):
        anomaly = read_labels(label_path).class_ids == 2
        n = anomaly.size
        sem = rng.standard_normal((n, N_CLASSES)).astype(np.float32)
        cont = rng.standard_normal((n, N_CLASSES)).astype(np.float32)
        inlier = np.flatnonzero(~anomaly)
        cls = rng.integers(0, N_CLASSES, inlier.size)
        sem[inlier, cls] += 4.0
        cont[inlier, cls] += 3.0
        sem[anomaly] *= 0.2
        cont[anomaly] *= 0.2
        write_tensor(feats / f"{label_path.stem}.sem.ftr", sem)
        write_tensor(feats / f"{label_path.stem}.cont.ftr", cont)
    write_tensor(root / "proto.ftr", np.eye(N_CLASSES, dtype=np.float32))
    scores = root / "scores"
    assert main(["score", "--features", str(feats), "--prototypes", str(root / "proto.ftr"),
                 "--out", str(scores)]) == 0
    report = root / "report.txt"
    assert main(["eval", "--scores", str(scores), "--labels", str(forged / "labels"),
                 "--scans", str(forged / "velodyne"), "--per-scan",
                 "--out", str(report)]) == 0
    return report.read_text(encoding="utf-8")


def test_forge_tree_matches_golden_digest_for_1_and_2_workers(inputs):
    one = tree_digest(forge(inputs, workers=1))
    two = tree_digest(forge(inputs, workers=2))
    assert one == two
    assert one == TREE_SHA256


def test_eval_report_matches_golden_digest(inputs, capsys):
    forged = inputs / "forged_w1"
    if not forged.exists():
        forged = forge(inputs, workers=1)
    report = score_and_eval(inputs, forged)
    capsys.readouterr()
    assert "ap_bin_40_50 = " in report
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == REPORT_SHA256
