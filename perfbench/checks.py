"""Output checks that do not trust lidarforge: digests, read-back
structure of forged trees, score-file sanity and metric oracles.

Only numpy, scipy and the standard library are used here, so a defect
in lidarforge's readers or metrics cannot hide itself.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np

ORACLE_TOLERANCE = 1e-9


def tree_digest(root: Path, parts=("velodyne", "labels", "manifest.tsv")) -> str:
    """SHA-256 over the relative path and content digest of every file in ``parts``."""
    outer = hashlib.sha256()
    files = []
    for part in parts:
        path = root / part
        files.extend(sorted(path.rglob("*")) if path.is_dir() else [path])
    for path in files:
        if path.is_file():
            outer.update(path.relative_to(root).as_posix().encode() + b"\0")
            outer.update(hashlib.sha256(path.read_bytes()).digest())
    return outer.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def forged_tree_failures(root: Path, stems: list[str], anomaly_label: int) -> int:
    """Count scans of a forged tree that fail the structural checks.

    A scan fails when it is missing or skipped, or when its scan and
    label files do not read back with equal lengths.  When the
    manifest's ``anomaly_points`` disagrees with the number of points
    that carry the anomaly label, every scan counts as failed.
    """
    manifest = (root / "manifest.tsv").read_text(encoding="utf-8")
    skipped = set(re.findall(r"^# skipped: (\S+)\t", manifest, flags=re.M))
    failed = 0
    anomaly_points = 0
    for stem in stems:
        scan = root / "velodyne" / f"{stem}.bin"
        label = root / "labels" / f"{stem}.label"
        if stem in skipped or not scan.is_file() or not label.is_file():
            failed += 1
            continue
        raw_scan, raw_label = scan.read_bytes(), label.read_bytes()
        words = np.frombuffer(raw_label, dtype="<u4") if len(raw_label) % 4 == 0 else None
        if len(raw_scan) % 16 or words is None or len(raw_scan) // 16 != words.size:
            failed += 1
            continue
        anomaly_points += int(((words & 0xFFFF) == anomaly_label).sum())
    declared = re.search(r"^# anomaly_points = (\d+)$", manifest, flags=re.M)
    if declared is None or int(declared.group(1)) != anomaly_points:
        return len(stems)
    return failed


def score_file_failures(scores_dir: Path, stems: list[str], counts: dict[str, int]) -> int:
    """Scans whose score file is missing, has the wrong length, or holds
    a value that is not finite or lies outside [0, 1]."""
    failed = 0
    for stem in stems:
        path = scores_dir / f"{stem}.scores"
        if not path.is_file():
            failed += 1
            continue
        values = np.frombuffer(path.read_bytes(), dtype="<f4")
        if values.size != counts[stem] or not np.isfinite(values).all() \
                or values.min() < 0.0 or values.max() > 1.0:
            failed += 1
    return failed


def oracle_auroc(scores: np.ndarray, truth: np.ndarray) -> float:
    """Mann-Whitney AUROC from average ranks."""
    from scipy.stats import rankdata   # parent process only: keeps it out of the worker's RSS
    ranks = rankdata(scores)
    pos = int(truth.sum())
    neg = truth.size - pos
    return (ranks[truth].sum() - pos * (pos + 1) / 2.0) / (pos * neg)


def oracle_ap(scores: np.ndarray, truth: np.ndarray) -> float:
    """Mean over positives of the precision at their own score threshold
    (all points scoring at least as high count as retrieved)."""
    ordered = np.sort(scores)
    ordered_pos = np.sort(scores[truth])
    s = scores[truth]
    retrieved = ordered.size - np.searchsorted(ordered, s, side="left")
    relevant = ordered_pos.size - np.searchsorted(ordered_pos, s, side="left")
    return float(np.mean(relevant / retrieved))


def read_report(text: str) -> dict[str, float | None]:
    """The ``key = value`` lines of an eval report."""
    out = {}
    for key, value in re.findall(r"^(\w+) = (\S+)$", text, flags=re.M):
        out[key] = None if value == "undefined" else float(value)
    return out


def eval_oracle_failures(report: dict, scores_dir: Path, labels_dir: Path,
                         stems: list[str], anomaly_label: int) -> int:
    """Recompute AUROC and AP from the written score and label files;
    one failure per reported value that differs by more than 1e-9."""
    scores = np.concatenate([np.frombuffer((scores_dir / f"{s}.scores").read_bytes(), dtype="<f4")
                             for s in stems]).astype(np.float64)
    truth = np.concatenate([(np.frombuffer((labels_dir / f"{s}.label").read_bytes(), dtype="<u4")
                             & 0xFFFF) == anomaly_label for s in stems])
    failed = 0
    for key, expected in (("auroc", oracle_auroc(scores, truth)),
                          ("ap", oracle_ap(scores, truth))):
        got = report.get(key)
        if got is None or abs(got - expected) > ORACLE_TOLERANCE:
            failed += 1
    return failed
