"""The benchmark's tracer (perfbench/tracer.py) wraps lidarforge functions
by the names their callers look up.  Installing it here makes a renamed
or removed name fail in the tier-1 suite, not only in a traced benchmark
run, and checks that forge, score and eval run through the traced
stages, so no per-layer metric silently reads 0."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from helpers import TEST_SENSOR, make_cube_mesh, make_flat_scene, write_off

from lidarforge import (LabelArray, PointCloud, ReflectivityCatalog, SplitPolicy, cli,
                        insertion, write_labels, write_scan, write_tensor)
from lidarforge.mesh_bank import MeshBank

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_forge_scan_composes_once(tmp_path):
    tracing = load_tracer_module()
    (tmp_path / "chair").mkdir()
    write_off(make_cube_mesh(), tmp_path / "chair" / "chair_0001.off")
    bank = MeshBank(tmp_path, ReflectivityCatalog({"chair": 0.35}), {"chair": 0.9})
    scene, labels = make_flat_scene(np.random.default_rng(30), 4000)
    policy = SplitPolicy.single(surface_classes=(40,), anomaly_label=2)

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        modified = 0
        for seed in range(6):
            before = len(tracer.spans)
            result = insertion.forge_scan(scene, labels, "s", TEST_SENSOR, policy, bank, seed)
            spans = tracer.spans[before:]
            composes = [s for s in spans if s.name == "insertion.compose_scan"]
            assert len(composes) == (1 if result.records else 0)
            if composes:
                forge = next(s for s in spans if s.name == "insertion.forge_scan")
                assert composes[0].parent == forge.id
            modified += result.modified
    finally:
        tracer.uninstall()
    assert modified
    assert not hasattr(insertion.forge_scan, "__wrapped__")  # uninstalled

    layers = tracing.layer_metrics(tracer, reps=1, workers=1)
    assert layers["insertion.composes_per_anomaly_scan"] == (1.0, "count")
    assert layers["insertion.compose_scan.self_s"][0] > 0


def test_score_and_eval_run_through_traced_layers(tmp_path):
    tracing = load_tracer_module()
    rng = np.random.default_rng(31)
    dirs = {name: tmp_path / name for name in ("features", "labels", "scans")}
    for d in dirs.values():
        d.mkdir()
    n, c = 200, 4
    for stem in ("s0", "s1"):
        for head in ("sem", "cont"):
            write_tensor(dirs["features"] / f"{stem}.{head}.ftr",
                         rng.standard_normal((n, c)).astype(np.float32))
        words = np.where(np.arange(n) % 4 == 0, 2, 40).astype(np.uint32)
        write_labels(LabelArray(words), dirs["labels"] / f"{stem}.label")
        write_scan(PointCloud.from_xyz(rng.uniform(1.0, 20.0, (n, 3))),
                   dirs["scans"] / f"{stem}.bin")
    write_tensor(tmp_path / "proto.ftr", np.eye(c, dtype=np.float32))
    scores = tmp_path / "scores"

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert cli.main(["score", "--features", str(dirs["features"]),
                         "--prototypes", str(tmp_path / "proto.ftr"), "--out", str(scores)]) == 0
        assert cli.main(["eval", "--scores", str(scores), "--labels", str(dirs["labels"]),
                         "--scans", str(dirs["scans"]), "--anomaly-label", "2"]) == 0
    finally:
        tracer.uninstall()
    names = {span.name for span in tracer.spans}
    for name in ("scoring.read_tensor", "scoring.compute_scores", "scoring.read_scores",
                 "metrics.range_binned_ap", "metrics.average_precision"):
        assert name in names
