"""Point-level anomaly segmentation metrics.

All metrics use step-function (non-interpolated) conventions with tied
scores grouped into a single threshold block, and are invariant under
strictly increasing transforms of the scores.  Each metric call sorts
the score values once (``np.sort``, no argsort), and ``split_metrics``
sorts once for three metrics.  The distinct sorted values are the
thresholds.  A block's counts are a function of its start position in
the sorted scores alone: the points at or above its threshold are the
positions from the start up, and the true positives among them are all
positives but those whose block starts lower.  Every count is an exact
integer.  No metric walks every block: AP is built from the positives'
blocks alone, since a block without positives adds an exact +0.0 term.

Memory stays bounded: scores are used in the dtype given (float32, as
the ``.scores`` files store them, or float64), and AP visits the
positives' blocks ``_CHUNK`` positives at a time, so beyond the sorted
copy only AP's one term per block and one index per tied position grow
with the input, 8 bytes per point together.
Metrics that are not defined for an input (no positives, no negatives,
empty range bin) raise UndefinedMetricError or report a typed absence
rather than 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError, ValidationError

DEFAULT_RANGE_EDGES = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)
# the operating point of fpr_at_tpr, as anomaly-segmentation benchmarks report it
TPR_TARGET = 0.95
# entries per chunk of a pass: each chunk's temporaries stay small
_CHUNK = 8192


def _compact(values) -> np.ndarray:
    """``values`` as an array: float32 as given, anything else as float64.

    Widening float32 to float64 is exact and keeps order and ties, so
    no metric depends on which of the two it reads.
    """
    a = np.asarray(values)
    return a if a.dtype == np.float32 else np.asarray(a, dtype=np.float64)


@dataclass(frozen=True)
class EvalPair:
    """Per-point anomaly scores with binary ground truth and optional
    per-point sensor range in meters.  Scores and ranges keep a float32
    dtype as given; other dtypes become float64."""

    scores: np.ndarray
    truth: np.ndarray
    ranges: np.ndarray | None = None

    def __post_init__(self):
        s = _compact(self.scores)
        t = np.asarray(self.truth, dtype=bool)
        if s.ndim != 1 or t.shape != s.shape:
            raise ValidationError("scores and truth must be equal-length 1-D arrays")
        if not np.isfinite(s).all():
            raise ValidationError("scores must be finite")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "truth", t)
        if self.ranges is not None:
            r = _compact(self.ranges)
            if r.shape != s.shape:
                raise ValidationError("ranges must match scores in length")
            object.__setattr__(self, "ranges", r)

    @property
    def positives(self) -> int:
        return int(np.count_nonzero(self.truth))

    @property
    def negatives(self) -> int:
        return self.truth.shape[0] - self.positives


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
    return _auroc(ordered, _positive_starts(pair, ordered))


def _auroc(ordered: np.ndarray, hit: np.ndarray) -> float:
    """AUROC of a pair with both classes, given its sorted scores and
    ``_positive_starts``."""
    # a positive's tie group fills the sorted positions hit .. above-1, so
    # its mid rank is (hit + above + 1) / 2; sorted queries keep the
    # binary search local, and the ranks sum as exact integers
    above = np.searchsorted(ordered, ordered[hit], "right")
    n, p = ordered.shape[0], hit.shape[0]
    rank_sum = 0.5 * float(int(hit.sum()) + int(above.sum()) + p)
    return (rank_sum - 0.5 * p * (p + 1)) / (p * (n - p))


def _positive_starts(pair: EvalPair, ordered: np.ndarray) -> np.ndarray:
    """The start in ``ordered`` of each positive's tie block (its left
    insertion point), ascending; one entry per positive."""
    return np.searchsorted(ordered, np.sort(pair.scores[pair.truth]), "left")


def _true_positives(hit: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Positives at or above the threshold of each block at ``starts``:
    all of them but those whose block starts lower (``hit`` is
    ``_positive_starts``)."""
    return hit.shape[0] - np.searchsorted(hit, starts, "left")


def fpr_at_tpr(pair: EvalPair) -> float:
    """False-positive rate at the largest threshold whose true-positive
    rate reaches ``TPR_TARGET`` (step convention, no interpolation)."""
    _require_both_classes(pair, "fpr_at_tpr")
    ordered = np.sort(pair.scores)
    return _fpr_at_tpr(ordered, _positive_starts(pair, ordered))


def _fpr_at_tpr(ordered: np.ndarray, hit: np.ndarray) -> float:
    """FPR at ``TPR_TARGET`` of a pair with both classes, given its
    sorted scores and ``_positive_starts``.

    A block's TPR is ``(p - m) / p``, ``m`` the positives whose block
    starts lower, and ``m`` grows as the threshold falls.  With ``M``
    the largest ``m`` whose TPR reaches the target, the answer is the
    highest block with at most ``M`` positives below it: the block of
    ``hit[M]``.  TPR 1 (``m = 0``) always reaches the target and TPR 0
    (``m = p``) never does, so ``M < p``.  Only the positives are
    visited, not the blocks.
    """
    n, p = ordered.shape[0], hit.shape[0]
    m = np.flatnonzero(np.arange(p, -1, -1) / p >= TPR_TARGET)[-1]
    start = hit[m]
    tp = _true_positives(hit, start)
    return float((n - start - tp) / (n - p))


def average_precision(pair: EvalPair) -> float:
    """Step-interpolated average precision over descending-score
    prefixes, ties grouped as one threshold block."""
    if pair.positives == 0:
        raise UndefinedMetricError("average precision undefined: no positive points")
    ordered = np.sort(pair.scores)
    return _average_precision(ordered, _positive_starts(pair, ordered))


def _average_precision(ordered: np.ndarray, hit: np.ndarray) -> float:
    """AP of a pair with positives, given its sorted scores and
    ``_positive_starts``.

    One term per block, thresholds descending: the recall gained at the
    block times its precision.  A block without positives gains no
    recall, so its term is +0.0, and only the positives' blocks are
    computed, ``_CHUNK`` positives at a time.  The terms fill one array
    over all blocks, so the sum is numpy's pairwise sum over all of them.
    """
    n, p = ordered.shape[0], hit.shape[0]
    # each i whose position i + 1 repeats it: the block starting at s is
    # the (s - repeats below s)-th from the bottom, counting from 0
    tied = np.flatnonzero(ordered[1:] == ordered[:-1])
    terms = np.zeros(n - tied.shape[0])
    for lo in range(0, p, _CHUNK):
        mine = hit[lo:lo + _CHUNK]
        # each block once, in the chunk of its lowest positive: first[j] is
        # that positive's index in hit, and all positives from it up are at
        # or above the block
        first = lo + np.flatnonzero(np.r_[lo == 0 or mine[0] != hit[lo - 1],
                                          mine[1:] != mine[:-1]])
        starts = hit[first]
        tp = p - first
        # the positives above the block: those from the next block's first up
        tp_above = p - np.r_[first[1:], np.searchsorted(hit, starts[-1:], "right")]
        rank = starts - np.searchsorted(tied, starts, "left")
        terms[terms.shape[0] - 1 - rank] = (tp / p - tp_above / p) * (tp / (n - starts))
    return float(np.sum(terms))


def split_metrics(pair: EvalPair) -> tuple[float, float, float]:
    """``(auroc(pair), fpr_at_tpr(pair), average_precision(pair))``
    from one sort and one threshold pass, bit for bit.

    Raises what ``auroc`` raises first: a pair without both classes.
    """
    _require_both_classes(pair, "auroc")
    ordered = np.sort(pair.scores)
    hit = _positive_starts(pair, ordered)
    return (_auroc(ordered, hit), _fpr_at_tpr(ordered, hit),
            _average_precision(ordered, hit))


def range_binned_ap(pair: EvalPair) -> dict:
    """Average precision per range bin [e_i, e_i+1) of DEFAULT_RANGE_EDGES.

    Returns {"0_10": ap, ...}; bins without positive points map to
    None (undefined), never to 0 or NaN.  Each point's bin index is
    computed once, in chunks, as one byte.
    """
    if pair.ranges is None:
        raise ValidationError("range_binned_ap needs per-point ranges")

    edges = np.asarray(DEFAULT_RANGE_EDGES)
    # bin b holds [edges[b], edges[b + 1]); -1 and len(edges) - 1 lie outside every bin
    bins = np.empty(pair.ranges.shape[0], dtype=np.int8)
    for lo in range(0, bins.shape[0], _CHUNK):
        hi = lo + _CHUNK
        bins[lo:hi] = np.searchsorted(edges, pair.ranges[lo:hi], "right") - 1

    out: dict[str, float | None] = {}
    for b, (lo, hi) in enumerate(zip(DEFAULT_RANGE_EDGES[:-1], DEFAULT_RANGE_EDGES[1:])):
        inside = bins == b
        sub = EvalPair(pair.scores[inside], pair.truth[inside])
        out[f"{lo:g}_{hi:g}"] = average_precision(sub) if sub.positives else None
    return out
