"""Point-level anomaly segmentation metrics.

All metrics use step-function (non-interpolated) conventions with tied
scores grouped into a single threshold block, and are invariant under
strictly increasing transforms of the scores.  Each metric call sorts
the score values once (``np.sort``, no argsort): the distinct sorted
values are the thresholds, and binary searches into the sorted values
and into the sorted positive scores count the points at or above each
one, so every count is an exact integer.  Metrics that are not
defined for an input (no positives, no negatives, empty range bin)
raise UndefinedMetricError or report a typed absence rather than 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError, ValidationError

DEFAULT_RANGE_EDGES = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)


@dataclass(frozen=True)
class EvalPair:
    """Per-point anomaly scores with binary ground truth and optional
    per-point sensor range in meters."""

    scores: np.ndarray
    truth: np.ndarray
    ranges: np.ndarray | None = None

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        t = np.asarray(self.truth, dtype=bool)
        if s.ndim != 1 or t.shape != s.shape:
            raise ValidationError("scores and truth must be equal-length 1-D arrays")
        if not np.isfinite(s).all():
            raise ValidationError("scores must be finite")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "truth", t)
        if self.ranges is not None:
            r = np.asarray(self.ranges, dtype=np.float64)
            if r.shape != s.shape:
                raise ValidationError("ranges must match scores in length")
            object.__setattr__(self, "ranges", r)

    @property
    def positives(self) -> int:
        return int(self.truth.sum())

    @property
    def negatives(self) -> int:
        return int((~self.truth).sum())


def _require_both_classes(pair: EvalPair, metric: str) -> None:
    if pair.positives == 0:
        raise UndefinedMetricError(f"{metric} undefined: no positive points")
    if pair.negatives == 0:
        raise UndefinedMetricError(f"{metric} undefined: no negative points")


def auroc(pair: EvalPair) -> float:
    """Area under the ROC curve via the rank statistic, with tied
    positive/negative pairs contributing one half."""
    _require_both_classes(pair, "auroc")
    ordered = np.sort(pair.scores)
    pos = pair.scores[pair.truth]
    # a positive's tie group fills the sorted positions below .. above-1
    below = np.searchsorted(ordered, pos, "left")
    above = np.searchsorted(ordered, pos, "right")
    ranks = 0.5 * (below + above - 1) + 1.0
    p = pos.shape[0]
    rank_sum = float(ranks.sum())
    return (rank_sum - 0.5 * p * (p + 1)) / (p * pair.negatives)


def _threshold_blocks(pair: EvalPair):
    """Counts (tp, fp) of points scoring at or above each distinct score
    threshold, thresholds descending, ties grouped into one block.

    ``-0.0`` and ``0.0`` are one block; its threshold may be either.
    """
    ordered = np.sort(pair.scores)
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    # a positive's left insertion point in `ordered` is the start of its tie block
    hit = np.searchsorted(ordered, pair.scores[pair.truth], "left")
    per_block = np.bincount(np.searchsorted(starts, hit), minlength=starts.shape[0])
    # with blocks descending, the counts at or above each threshold are prefix sums
    starts = starts[::-1]
    tp = np.cumsum(per_block[::-1])
    fp = (ordered.shape[0] - starts) - tp
    return tp.astype(np.float64), fp.astype(np.float64), ordered[starts]


def roc_curve(pair: EvalPair):
    """Step ROC curve: (fpr, tpr, thresholds), starting at (0, 0)."""
    _require_both_classes(pair, "roc curve")
    tp, fp, thresholds = _threshold_blocks(pair)
    tpr = np.r_[0.0, tp / pair.positives]
    fpr = np.r_[0.0, fp / pair.negatives]
    return fpr, tpr, thresholds


def auroc_trapezoid(pair: EvalPair) -> float:
    """AUROC by trapezoidal integration of the ROC curve; must agree
    with the rank-statistic form."""
    fpr, tpr, _ = roc_curve(pair)
    return float(0.5 * np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1])))


def fpr_at_tpr(pair: EvalPair, tpr_target: float = 0.95) -> float:
    """False-positive rate at the largest threshold whose true-positive
    rate reaches the target (step convention, no interpolation)."""
    _require_both_classes(pair, "fpr_at_tpr")
    tp, fp, _ = _threshold_blocks(pair)
    tpr = tp / pair.positives
    k = int(np.argmax(tpr >= tpr_target))
    if tpr[k] < tpr_target:
        raise UndefinedMetricError(f"no threshold reaches TPR {tpr_target}")
    return float(fp[k] / pair.negatives)


def average_precision(pair: EvalPair) -> float:
    """Step-interpolated average precision over descending-score
    prefixes, ties grouped as one threshold block."""
    if pair.positives == 0:
        raise UndefinedMetricError("average precision undefined: no positive points")
    tp, fp, _ = _threshold_blocks(pair)
    recall = tp / pair.positives
    precision = tp / (tp + fp)
    prev_recall = np.r_[0.0, recall[:-1]]
    return float(np.sum((recall - prev_recall) * precision))


def range_binned_ap(pair: EvalPair) -> dict:
    """Average precision per range bin [e_i, e_i+1) of DEFAULT_RANGE_EDGES.

    Returns {"0_10": ap, ...}; bins without positive points map to
    None (undefined), never to 0 or NaN.
    """
    if pair.ranges is None:
        raise ValidationError("range_binned_ap needs per-point ranges")

    out: dict[str, float | None] = {}
    for lo, hi in zip(DEFAULT_RANGE_EDGES[:-1], DEFAULT_RANGE_EDGES[1:]):
        key = f"{lo:g}_{hi:g}"
        inside = (pair.ranges >= lo) & (pair.ranges < hi)
        if not inside.any() or not pair.truth[inside].any():
            out[key] = None
            continue
        sub = EvalPair(pair.scores[inside], pair.truth[inside])
        out[key] = average_precision(sub)
    return out
