"""In-memory span tracer that wraps lidarforge's public functions from outside.

Each wrapper replaces a name at the place where its callers look it up
(``insertion.estimate_normals``, ``mesh_bank.load_off``, ...), records a
span (name, start, end, parent span, thread) and, through an optional
hook, counts what the call did.  Spans and counts stay in memory until
:func:`layer_metrics` turns them into the per-layer metrics.

A span opened on a thread that has no open span (a ``forge_split`` pool
thread) takes the innermost ``forge_split`` span as its parent, so self
time is computed across threads.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    error: bool


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.forge_scans: list[tuple[float, bool]] = []   # (seconds, modified)
        self._ids = itertools.count()
        self._local = threading.local()
        self._adopter: int | None = None
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, hook=None, adopts: bool = False) -> None:
        """Replace ``owner.attr`` with a traced wrapper.

        ``hook(tracer, args, kwargs, result, seconds)`` runs after a call
        that returned; ``adopts`` makes the span the parent of spans
        opened on threads without an open span.
        """
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span_id = next(tracer._ids)
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._adopter
            previous_adopter = tracer._adopter
            if adopts:
                tracer._adopter = span_id
            stack.append(span_id)
            error = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = time.perf_counter()
                stack.pop()
                if adopts:
                    tracer._adopter = previous_adopter
                tracer.spans.append(Span(span_id, name, start, end, parent,
                                         threading.get_ident(), error))
            if hook is not None:
                hook(tracer, args, kwargs, result, end - start)
            return result

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()


# -- hooks: counts measured where the work happens ---------------------------

def _count_normals(tracer, args, kwargs, result, seconds):
    tracer.add("normals_points", len(args[0]))


def _count_projection(tracer, args, kwargs, img, seconds):
    won = img.point_index[img.point_index >= 0]
    tracer.add("projected_scene_points", img.scene_count)
    tracer.add("kept_scene_points", int((won < img.scene_count).sum()))


def _count_forge_scan(tracer, args, kwargs, result, seconds):
    scene = args[0]
    surviving = sum(rec.surviving_count for rec in result.records)
    with tracer._lock:
        tracer.forge_scans.append((seconds, result.modified))
        if result.modified:
            tracer.counts["useful_object_points"] += surviving
            tracer.counts["scene_points_removed"] += scene.count - (result.cloud.count - surviving)


def _bytes_read(record_bytes):
    def hook(tracer, args, kwargs, result, seconds):
        tracer.add("bytes_read", result.count * record_bytes)
    return hook


def _bytes_written(record_bytes):
    def hook(tracer, args, kwargs, result, seconds):
        tracer.add("bytes_written", args[0].count * record_bytes)
    return hook


def install(tracer: Tracer) -> None:
    """Wrap every measured layer of lidarforge (see README for the list)."""
    from lidarforge import cli, insertion, mesh_bank, metrics, range_projection, scoring

    for cmd in ("cmd_forge", "cmd_score", "cmd_eval"):
        tracer.wrap(cli, cmd, f"cli.{cmd}")
    tracer.wrap(cli, "read_scan", "scan_io.read", _bytes_read(16))
    tracer.wrap(cli, "read_labels", "scan_io.read", _bytes_read(4))

    tracer.wrap(insertion, "forge_split", "insertion.forge_split", adopts=True)
    tracer.wrap(insertion, "forge_scan", "insertion.forge_scan", _count_forge_scan)
    tracer.wrap(insertion, "compose_scan", "insertion.compose_scan")
    tracer.wrap(insertion, "PlacementSurface", "insertion.placement_surface")
    tracer.wrap(insertion, "pick_placement", "insertion.pick_placement")
    tracer.wrap(insertion, "read_scan", "scan_io.read", _bytes_read(16))
    tracer.wrap(insertion, "read_labels", "scan_io.read", _bytes_read(4))
    tracer.wrap(insertion, "write_scan", "scan_io.write", _bytes_written(16))
    tracer.wrap(insertion, "write_labels", "scan_io.write", _bytes_written(4))
    tracer.wrap(insertion, "estimate_normals", "intensity.estimate_normals", _count_normals)
    tracer.wrap(insertion, "lambert_intensity", "intensity.lambert_intensity")
    tracer.wrap(insertion, "normalize_and_noise", "intensity.normalize_and_noise")
    tracer.wrap(insertion, "project", "range_projection.project", _count_projection)

    tracer.wrap(mesh_bank, "build_anomaly_object", "mesh_bank.build_anomaly_object")
    tracer.wrap(mesh_bank, "sample_surface", "mesh_bank.sample_surface")
    tracer.wrap(mesh_bank, "load_off", "mesh_bank.load_off")
    tracer.wrap(mesh_bank.MeshBank, "choose", "mesh_bank.choose")

    tracer.wrap(range_projection, "scatter_min", "kernels.scatter_min")

    for fn in ("read_tensor", "compute_scores", "classify", "score_entropy",
               "write_scores", "read_scores"):
        tracer.wrap(scoring, fn, f"scoring.{fn}")
    for fn in ("auroc", "fpr_at_tpr", "average_precision", "range_binned_ap"):
        tracer.wrap(metrics, fn, f"metrics.{fn}")


# -- aggregation -------------------------------------------------------------

def _union_length(intervals) -> float:
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _self_seconds(spans: list[Span], names) -> float:
    """Duration of spans named in ``names`` minus the part of each that
    its child spans cover (children may overlap across threads)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    total = 0.0
    for s in spans:
        if s.name in names:
            covered = _union_length((max(c.start, s.start), min(c.end, s.end))
                                    for c in children[s.id])
            total += (s.end - s.start) - covered
    return total


def _frac(num: float, den: float) -> float:
    """Ratio, or 0.0 when nothing was attempted (the layer did not run)."""
    return float(num) / den if den else 0.0


def layer_metrics(tracer: Tracer, reps: int, workers: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as mean per repetition unless the name is a ratio."""
    seconds = defaultdict(float)
    calls = defaultdict(int)
    errors = defaultdict(int)
    for s in tracer.spans:
        seconds[s.name] += s.end - s.start
        calls[s.name] += 1
        errors[s.name] += s.error
    c = tracer.counts
    per = 1.0 / reps
    anomaly_ms = [1e3 * t for t, modified in tracer.forge_scans if modified]
    clean_ms = [1e3 * t for t, modified in tracer.forge_scans if not modified]
    anomaly_scans = len(anomaly_ms)
    cmd_names = ("cli.cmd_forge", "cli.cmd_score", "cli.cmd_eval")

    def s(name):
        return seconds[name] * per, "s"

    return {
        "intensity.estimate_normals.s": s("intensity.estimate_normals"),
        "intensity.estimate_normals.calls": (calls["intensity.estimate_normals"] * per, "count"),
        "intensity.normals_points": (c["normals_points"] * per, "count"),
        "intensity.normals_useful_frac": (_frac(c["useful_object_points"], c["normals_points"]),
                                          "fraction"),
        "intensity.lambert_intensity.s": s("intensity.lambert_intensity"),
        "intensity.normalize_and_noise.s": s("intensity.normalize_and_noise"),
        "insertion.compose_scan.self_s": (
            _self_seconds(tracer.spans, {"insertion.compose_scan"}) * per, "s"),
        "insertion.composes_per_anomaly_scan": (
            _frac(calls["insertion.compose_scan"], anomaly_scans), "count"),
        "insertion.placement_surface.s": s("insertion.placement_surface"),
        "insertion.pick_placement.s": s("insertion.pick_placement"),
        "insertion.placement_failed_frac": (
            _frac(errors["insertion.pick_placement"], calls["insertion.pick_placement"]),
            "fraction"),
        "insertion.forge_scan.anomaly_ms_p50": (
            float(np.median(anomaly_ms)) if anomaly_ms else 0.0, "ms"),
        "insertion.forge_scan.clean_ms_p50": (
            float(np.median(clean_ms)) if clean_ms else 0.0, "ms"),
        "insertion.worker_busy_frac": (
            _frac(seconds["insertion.forge_scan"], workers * seconds["insertion.forge_split"]),
            "fraction"),
        "insertion.anomaly_scan_frac": (_frac(anomaly_scans, len(tracer.forge_scans)),
                                        "fraction"),
        "mesh_bank.load_off.s": s("mesh_bank.load_off"),
        "mesh_bank.load_off.calls": (calls["mesh_bank.load_off"] * per, "count"),
        "mesh_bank.cache_hit_frac": (
            1.0 - _frac(calls["mesh_bank.load_off"], calls["mesh_bank.choose"])
            if calls["mesh_bank.choose"] else 0.0, "fraction"),
        "mesh_bank.build_anomaly_object.self_s": (
            _self_seconds(tracer.spans, {"mesh_bank.build_anomaly_object"}) * per, "s"),
        "mesh_bank.sample_surface.s": s("mesh_bank.sample_surface"),
        "range_projection.project.s": s("range_projection.project"),
        "range_projection.project.calls": (calls["range_projection.project"] * per, "count"),
        "kernels.scatter_min.s": s("kernels.scatter_min"),
        "range_projection.keep_frac": (
            _frac(c["kept_scene_points"], c["projected_scene_points"]), "fraction"),
        "range_projection.scene_points_removed_per_anomaly_scan": (
            _frac(c["scene_points_removed"], anomaly_scans), "count"),
        "scan_io.read.s": s("scan_io.read"),
        "scan_io.write.s": s("scan_io.write"),
        "scan_io.bytes_read": (c["bytes_read"] * per, "bytes"),
        "scan_io.bytes_written": (c["bytes_written"] * per, "bytes"),
        "scoring.read_tensor.s": s("scoring.read_tensor"),
        "scoring.compute_scores.self_s": (
            _self_seconds(tracer.spans, {"scoring.compute_scores"}) * per, "s"),
        "scoring.classify.s": s("scoring.classify"),
        "scoring.score_entropy.s": s("scoring.score_entropy"),
        "scoring.write_scores.s": s("scoring.write_scores"),
        "scoring.read_scores.s": s("scoring.read_scores"),
        "metrics.auroc.s": s("metrics.auroc"),
        "metrics.fpr_at_tpr.s": s("metrics.fpr_at_tpr"),
        "metrics.average_precision.s": s("metrics.average_precision"),
        "metrics.range_binned_ap.s": s("metrics.range_binned_ap"),
        "cli.self_s": (_self_seconds(tracer.spans, set(cmd_names)) * per, "s"),
        "cli.cmd_forge.s": s("cli.cmd_forge"),
        "cli.cmd_score.s": s("cli.cmd_score"),
        "cli.cmd_eval.s": s("cli.cmd_eval"),
    }
