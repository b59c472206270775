#!/usr/bin/env python3
"""End-to-end benchmark of lidarforge's forge, score and eval commands.

    python3 perfbench/run.py --workload forge-single --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; lidarforge is imported from
``src/``.  The inputs are generated from ``--seed`` into a scratch
directory under ``perfbench/.work`` that is removed at exit.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  ``--record-golden`` rewrites the
golden digests of the default seed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402

DEFAULT_SEED = 0
FORGE_SCANS = 10
SCORE_SCANS = 10
SETUP_PROBES = 4
MIN_REPS = 3
WORKER_TIMEOUT_S = 170

WORKLOADS = {
    "forge-single": {"kind": "forge", "policy": "single", "workers": 1},
    "forge-multi-2w": {"kind": "forge", "policy": "multi", "workers": 2},
    "score-eval": {"kind": "score-eval"},
}
GOLDEN = HERE / "golden.json"


def _worker(spec: dict, work: Path, name: str) -> dict:
    """Run worker.py on ``spec`` in a fresh interpreter; returns its result."""
    spec_path, result_path = work / f"{name}.spec.json", work / f"{name}.result.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                          stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {name} exited with code {proc.returncode}")
    return json.loads(result_path.read_text())


def _make_inputs(workload: str, seed: int, work: Path) -> dict:
    """Generate the workload's inputs; returns the spec fields describing them."""
    if WORKLOADS[workload]["kind"] == "forge":
        inputs.write_scans(seed, FORGE_SCANS, work / "scans", work / "labels")
        inputs.write_mesh_bank(seed, work / "meshes")
        return {"stems": [f"{i:06d}" for i in range(FORGE_SCANS)]}
    counts = inputs.write_score_inputs(seed, SCORE_SCANS, work)
    return {"stems": sorted(counts), "counts": counts}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="store the digests of this workload at the default seed")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "lidarforge" / "__init__.py").is_file():
        print(f"perfbench: no lidarforge source at {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.record_golden and args.seed != DEFAULT_SEED:
        parser.error("--record-golden needs the default seed")

    workload = WORKLOADS[args.workload]
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        spec = {
            **workload, **_make_inputs(args.workload, args.seed, work),
            "src": str(src), "work": str(work), "seed": args.seed,
            "seconds": args.seconds, "min_reps": MIN_REPS,
            "anomaly_label": inputs.ANOMALY_LABEL,
            "golden": golden.get(args.workload, {}) if args.seed == DEFAULT_SEED else {},
            "mode": "record" if args.record_golden else ("trace" if args.trace else "measure"),
        }
        if args.record_golden:
            # forge at one worker: the digest then also proves worker-count independence
            result = _worker({**spec, "workers": 1}, work, "record")
            if result["failed"]:
                print("perfbench: outputs failed their checks; golden not recorded",
                      file=sys.stderr)
                return 1
            golden[args.workload] = result["digests"]
            GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
            print(json.dumps(golden[args.workload]))
            return 0

        result = _worker(spec, work, "measure")
        # more fresh interpreters, now that the measured one compiled the bytecode
        setup = [result["setup_s"]]
        if not args.trace:
            setup += [_worker({**spec, "mode": "setup"}, work, f"setup{i}")["setup_s"]
                      for i in range(SETUP_PROBES)]
        failed = result["failed"]
        attempted = result["attempted"]
        if workload["kind"] == "score-eval":
            attempted += 1
            try:
                report = checks.read_report((work / "report-0-0.txt").read_text(encoding="utf-8"))
                failed += checks.eval_oracle_failures(report, work / "scores-0-0", work / "labels",
                                                      spec["stems"], inputs.ANOMALY_LABEL)
            except (OSError, ValueError) as exc:   # outputs missing or malformed
                print(f"perfbench: oracle could not read the outputs: {exc}", file=sys.stderr)
                failed += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = result["reps"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)}")
    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    print("repetition_s " + " ".join(f"{sum(r.values()):.3f}" for r in reps))
    if spec["golden"]:
        print(f"golden digests checked: {sorted(spec['golden'])}")
    if args.trace:
        metrics = {name: _metric(v, unit) for name, (v, unit) in result["layers"].items()}
        extra = [t - u for u, t in result["overhead"]]
        frac = [t / u - 1.0 for u, t in result["overhead"]]
        metrics["trace.overhead_s"] = _metric(statistics.median(extra), "s")
        metrics["trace.overhead_frac"] = _metric(statistics.median(frac), "fraction")
    else:
        # Interference from other tenants only ever slows a command down, for
        # seconds to minutes at a time, so the fastest repetition of each
        # stage is the steadiest estimate of the program's own speed.
        scans = len(spec["stems"])
        fastest = {stage: min(r[stage] for r in reps) for stage in reps[0]}
        metrics = {
            "scans_per_s": _metric(scans / sum(fastest.values()), "scans/s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        }
        # per-stage rates, printed for reading only
        stages = {"forge": ("forge_scans_per_s", scans, "scans/s"),
                  "score": ("score_points_per_s", sum(spec.get("counts", {}).values()), "points/s"),
                  "eval": ("eval_points_per_s", sum(spec.get("counts", {}).values()), "points/s")}
        for stage, (name, work_done, unit) in stages.items():
            if stage in fastest:
                print(f"{name:<22} {work_done / fastest[stage]:.6g} {unit}")
    for name, m in metrics.items():
        print(f"{name:<22} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':<22} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
