"""Measured process of one benchmark run.

    python3 perfbench/worker.py SPEC.json RESULT.json

It imports lidarforge from the checkout, times that set-up, then runs
the workload's commands through ``lidarforge.cli.main`` in-process,
repetition after repetition, until the time budget is spent.  Between
repetitions, outside the timed region, it checks each output.  Input
generation and the heavier metric oracles stay in the parent process,
so the peak RSS reported here is that of the timed commands.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def _setup(src: str) -> float:
    """Import lidarforge and load the sensor, catalog and height configs."""
    start = time.perf_counter()
    sys.path.insert(0, src)
    from lidarforge import cli
    from lidarforge.mesh_bank import ReflectivityCatalog, load_target_heights
    cli._load_sensor("semantickitti")
    ReflectivityCatalog.default()
    load_target_heights()
    return time.perf_counter() - start


def env_stamp() -> dict:
    import numpy
    import scipy
    from lidarforge import _kernels
    return {
        "use_numba": _kernels.USE_NUMBA,
        "have_numba": _kernels.HAVE_NUMBA,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _drawn_objects(master: int, stem: str, policy) -> int:
    """Objects forge_scan will try to insert into ``stem`` (0: left clean).

    Mirrors the first two draws of ``insertion.forge_scan``.
    """
    import numpy as np
    from lidarforge.insertion import scan_seed
    rng = np.random.default_rng(scan_seed(master, stem))
    if rng.random() >= policy.anomaly_ratio:
        return 0
    dist = policy.count_distribution
    return 1 + int(rng.choice(len(dist), p=np.asarray(dist)))


def stratified_master_seed(seed: int, rep: int, stems: list[str], policy) -> int:
    """The first candidate master seed of repetition ``rep`` whose draws
    select round(ratio * scans) anomaly scans holding the expected number
    of objects.

    The realized anomaly-scan count of a small split is binomial and
    dominates forge time; fixing it to its expectation keeps the work
    of a repetition independent of the seed while every placement,
    mesh choice and pose stays random.
    """
    import inputs
    dist = policy.count_distribution
    want_scans = round(policy.anomaly_ratio * len(stems))
    want_objects = round(want_scans * sum((i + 1) * p for i, p in enumerate(dist)))
    candidate = 0
    while True:
        master = inputs.master_seed(seed, rep, candidate)
        drawn = [_drawn_objects(master, stem, policy) for stem in stems]
        if sum(1 for d in drawn if d) == want_scans and sum(drawn) == want_objects:
            return master
        candidate += 1


def _timed(cli, argv: list[str]) -> tuple[int, float]:
    """Run one command; an exception it raises counts as a failed command."""
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:  # noqa: BLE001 - report and count, keep measuring
        traceback.print_exc()
        rc = -1
    return rc, time.perf_counter() - start


class Run:
    """Repetitions of one workload, with per-repetition output checks."""

    def __init__(self, spec: dict):
        from lidarforge import cli
        self.cli = cli
        self.spec = spec
        self.work = Path(spec["work"])
        self.stems = spec["stems"]
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.tracer = None

    def command(self, rep: int, traced: bool) -> dict:
        """Run repetition ``rep`` once; returns its stage times."""
        if traced:
            import tracer
            tracer.install(self.tracer)
        try:
            if self.spec["kind"] == "forge":
                return self._forge(rep, traced)
            return self._score_eval(rep, traced)
        finally:
            if traced:
                self.tracer.uninstall()

    def _forge(self, rep: int, traced: bool) -> dict:
        import checks
        from lidarforge.insertion import SplitPolicy
        spec = self.spec
        policy = SplitPolicy.single() if spec["policy"] == "single" else SplitPolicy.multi()
        master = stratified_master_seed(spec["seed"], rep, self.stems, policy)
        out = self.work / f"forged-{rep}-{int(traced)}"
        rc, seconds = _timed(self.cli, [
            "forge", "--scans", str(self.work / "scans"), "--labels", str(self.work / "labels"),
            "--meshes", str(self.work / "meshes"), "--out", str(out),
            "--sensor", "semantickitti", "--policy", spec["policy"], "--style", "kitti",
            "--seed", str(master), "--workers", str(spec["workers"])])
        self.attempted += len(self.stems)
        if rc != 0:
            self.failed += len(self.stems)
            return {"forge": seconds}
        self.failed += checks.forged_tree_failures(out, self.stems, spec["anomaly_label"])
        if rep == 0:
            digest = checks.tree_digest(out)
            self.digests["forge_tree"] = digest
            golden = spec["golden"].get("forge_tree")
            if golden is not None and digest != golden:
                print(f"golden digest mismatch: forged tree {digest} != {golden}", file=sys.stderr)
                self.failed += len(self.stems)
        shutil.rmtree(out)
        return {"forge": seconds}

    def _score_eval(self, rep: int, traced: bool) -> dict:
        import checks
        spec = self.spec
        scores = self.work / f"scores-{rep}-{int(traced)}"
        report = self.work / f"report-{rep}-{int(traced)}.txt"
        rc_score, t_score = _timed(self.cli, [
            "score", "--features", str(self.work / "features"),
            "--prototypes", str(self.work / "prototypes.ftr"), "--out", str(scores)])
        rc_eval, t_eval = _timed(self.cli, [
            "eval", "--scores", str(scores), "--labels", str(self.work / "labels"),
            "--scans", str(self.work / "velodyne"),
            "--anomaly-label", str(spec["anomaly_label"]), "--out", str(report)])
        self.attempted += len(self.stems) + 1
        if rc_score != 0:
            self.failed += len(self.stems)
        else:
            self.failed += checks.score_file_failures(scores, self.stems, spec["counts"])
        if rc_eval != 0:
            self.failed += 1
        else:
            digests = {"eval_report": checks.file_digest(report),
                       "score_tree": checks.tree_digest(scores, parts=(".",))}
            if not self.digests:
                self.digests = digests
                if spec["golden"] and digests != spec["golden"]:
                    print(f"golden digest mismatch: {digests} != {spec['golden']}",
                          file=sys.stderr)
                    self.failed += 1
            elif digests != self.digests:
                print(f"repetition {rep} output differs from repetition 0", file=sys.stderr)
                self.failed += 1
        # the first repetition's outputs stay for the parent's oracle
        if (rep, traced) != (0, False):
            shutil.rmtree(scores, ignore_errors=True)
            report.unlink(missing_ok=True)
        return {"score": t_score, "eval": t_eval}


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    result: dict = {"setup_s": _setup(spec["src"])}
    if spec["mode"] != "setup":
        result.update(_repeat(spec), env=env_stamp(),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    Path(argv[1]).write_text(json.dumps(result))
    return 0


def _repeat(spec: dict) -> dict:
    """Repeat the workload until the time budget is spent (once to record)."""
    run = Run(spec)
    trace = spec["mode"] == "trace"
    if trace:
        import tracer
        run.tracer = tracer.Tracer()
    reps: list[dict] = []
    overhead: list[tuple[float, float]] = []   # (untraced, traced) seconds
    start = time.perf_counter()
    while len(reps) < spec["min_reps"] or time.perf_counter() - start < spec["seconds"]:
        stages = run.command(len(reps), traced=False)
        if trace:
            traced = run.command(len(reps), traced=True)
            overhead.append((sum(stages.values()), sum(traced.values())))
        reps.append(stages)
        if spec["mode"] == "record":
            break
    out = {"reps": reps, "attempted": run.attempted, "failed": run.failed,
           "digests": run.digests}
    if trace:
        out["layers"] = tracer.layer_metrics(run.tracer, len(reps), spec.get("workers", 1))
        out["overhead"] = overhead
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
