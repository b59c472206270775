"""Golden digests of a small forge -> score -> eval run.

A fixed synthetic split is forged through the CLI with one and with two
workers, then scored and evaluated.  The SHA-256 of the forged tree
(``velodyne/``, ``labels/``, ``manifest.tsv``) and of the eval report
must equal the digests committed below, so a refactor that changes a
single output byte fails here instead of going unnoticed.  A third
digest covers ``forge_scan``'s retry paths (re-placement after full
occlusion, a spent retry budget, an object that never survives) on a
half-walled scene, which the split above never reaches.  A fourth
digest covers the score files: the split's own, and every score channel
of one C=19 feature set that spans several of the scorer's row blocks.
Every object is forged at the production setting, 50 000 surface
points (``mesh_bank.OBJECT_POINTS``), so the digests pin the dense
sample, the normals and the occlusion contest that real splits run.

The digests depend on the numpy/scipy/LAPACK build: normal estimation
goes through ``numpy.linalg.eigh`` and ``scipy.spatial.cKDTree``, whose
last bits may differ between builds.  They were recorded with Python
3.11, numpy 2.4 and scipy 1.17.  A change that alters the bytes on
purpose records new digests here and says why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from helpers import (ROAD_CLASS, TEST_SENSOR, half_wall_scene, make_cube_mesh,
                     make_flat_scene, write_off)

from lidarforge import (MeshBank, ReflectivityCatalog, SplitPolicy, forge_scan, read_labels,
                        write_labels, write_scan, write_tensor)
from lidarforge import insertion
from lidarforge.cli import main

TREE_SHA256 = "3daeb16af4266c114c19623946040ace4e77f2b14563b529f83a3d436e88f037"
REPORT_SHA256 = "1e40bb1f26c6cbbfa7c283544d8cb61389e6140feaa5052d232f499cea745f20"
RETRY_SHA256 = "b3da8085439c27c8a9abb1a3f043e073f2200ecf4d526644e86b126085954481"
SCORES_SHA256 = "52926acc3d949cfd108704da25a40ba792d6be73831e8659c5e7cca558f9eb3e"

SENSOR_CFG = "beams = 32\nwidth = 512\nfov_up_deg = 8.0\nfov_down_deg = 24.0\n"
N_CLASSES = 4
# 3 full row blocks of the scorer plus 2 rows; 19 columns as in SemanticKITTI
WIDE_ROWS = 3 * 4096 + 2
WIDE_CLASSES = 19
SCORE_CHANNELS = ("fused", "sem", "cont", "cos", "ent")


def files_digest(root, files) -> str:
    """SHA-256 over the path relative to ``root`` and the bytes of each file."""
    h = hashlib.sha256()
    for p in files:
        h.update(p.relative_to(root).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def tree_digest(root) -> str:
    """SHA-256 over the relative path and bytes of every output file."""
    files = sorted(p for p in root.rglob("*") if p.is_file())
    assert {p.relative_to(root).parts[0] for p in files} == {"velodyne", "labels",
                                                            "manifest.tsv"}
    return files_digest(root, files)


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
                 "--workers", str(workers)])
    assert code == 0
    return out


def wide_features(rng):
    """One C=19 feature set: random logits, rows near a prototype (where
    1 - similarity is exact), zero rows, and one row whose logits spread
    by more than 745 so that a softmax entry underflows."""
    protos = rng.standard_normal((WIDE_CLASSES, WIDE_CLASSES)).astype(np.float32)
    sem = 3.0 * rng.standard_normal((WIDE_ROWS, WIDE_CLASSES))
    cont = 0.6 * rng.standard_normal((WIDE_ROWS, WIDE_CLASSES))
    near = np.arange(6, WIDE_ROWS, 7)
    sem[near] = 2.0 * protos[rng.integers(0, WIDE_CLASSES, near.size)] \
        + 0.1 * rng.standard_normal((near.size, WIDE_CLASSES))
    sem[::97] = 0.0
    cont[::97] = 0.0
    sem[WIDE_ROWS // 2] = 0.0
    sem[WIDE_ROWS // 2, 3] = 800.0
    return sem.astype(np.float32), cont.astype(np.float32), protos


def score_and_eval(root, forged) -> tuple[str, str]:
    """Synthesize head features from the forged labels, score, evaluate;
    then score one C=19 feature set with every score channel.

    Returns the eval report and the digest of every score and meta file
    written.
    """
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

    wide = root / "wide_features"
    wide.mkdir()
    sem, cont, protos = wide_features(rng)
    write_tensor(wide / "wide.sem.ftr", sem)
    write_tensor(wide / "wide.cont.ftr", cont)
    write_tensor(root / "wide_proto.ftr", protos)
    for channel in SCORE_CHANNELS:
        assert main(["score", "--features", str(wide), "--prototypes",
                     str(root / "wide_proto.ftr"), "--score", channel,
                     "--out", str(root / "wide_scores" / channel)]) == 0
    written = sorted(p for d in (scores, root / "wide_scores") for p in d.rglob("*")
                     if p.is_file())
    assert len(written) == 2 * (len(list(forged.glob("labels/*.label"))) + len(SCORE_CHANNELS))
    return report.read_text(encoding="utf-8"), files_digest(root, written)


@pytest.fixture(scope="module")
def scored(inputs):
    """Report and score-file digest of score_and_eval on the 1-worker forge."""
    forged = inputs / "forged_w1"
    if not forged.exists():
        forged = forge(inputs, workers=1)
    return score_and_eval(inputs, forged)


def test_forge_tree_matches_golden_digest_for_1_and_2_workers(inputs):
    one = tree_digest(forge(inputs, workers=1))
    two = tree_digest(forge(inputs, workers=2))
    assert one == two
    assert one == TREE_SHA256


def test_eval_report_matches_golden_digest(scored):
    report, _ = scored
    assert "ap_bin_40_50 = " in report
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == REPORT_SHA256


def test_score_files_match_golden_digest(scored):
    _, digest = scored
    assert digest == SCORES_SHA256


def test_retry_paths_match_golden_digest(tmp_path, monkeypatch):
    (tmp_path / "chair").mkdir()
    write_off(make_cube_mesh(), tmp_path / "chair" / "chair_0001.off")
    bank = MeshBank(tmp_path, ReflectivityCatalog({"chair": 0.35}), {"chair": 0.9})
    scene, labels = half_wall_scene()

    h = hashlib.sha256()
    outcomes = {}
    policy = SplitPolicy.multi(surface_classes=(ROAD_CLASS,), anomaly_label=2)
    for budget in (0, 1, 2, 10):
        monkeypatch.setattr(insertion, "RETRY_BUDGET", budget)
        for seed in range(16):
            r = forge_scan(scene, labels, "w", TEST_SENSOR, policy, bank, seed=seed)
            h.update(r.cloud.data.tobytes())
            h.update(r.labels.words.tobytes())
            h.update(repr(r.records).encode() + repr(r.modified).encode())
            outcomes[budget, seed] = ([rec.surviving_count > 0 for rec in r.records],
                                      r.modified)

    def dead_at_first_try(seed):
        return not all(outcomes[0, seed][0])

    # an object occluded at its first site survives after re-placement
    assert any(dead_at_first_try(seed) and alive and all(alive) and modified
               for (budget, seed), (alive, modified) in outcomes.items() if budget > 0)
    # the budget is spent with one object still dead and another alive
    assert any(budget > 0 and modified and not all(alive)
               for (budget, _), (alive, modified) in outcomes.items())
    # every object stays dead: the scan is written unchanged
    assert any(alive and not any(alive) and not modified
               for alive, modified in outcomes.values())
    assert h.hexdigest() == RETRY_SHA256
