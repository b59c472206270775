import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarforge import (EvalPair, UndefinedMetricError, ValidationError, auroc,
                        average_precision, fpr_at_tpr, metrics, range_binned_ap,
                        split_metrics)


def pairwise_auroc_oracle(scores, truth):
    """O(N^2) pair counting: wins + half ties over all pos/neg pairs."""
    pos = scores[truth]
    neg = scores[~truth]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def exhaustive_fpr_oracle(scores, truth, target=0.95):
    p, n = truth.sum(), (~truth).sum()
    for t in sorted(set(scores.tolist()), reverse=True):
        predicted = scores >= t
        tpr = (predicted & truth).sum() / p
        if tpr >= target:
            return (predicted & ~truth).sum() / n
    return None


def exhaustive_ap_oracle(scores, truth):
    p = truth.sum()
    thresholds = sorted(set(scores.tolist()), reverse=True)
    ap, prev_recall = 0.0, 0.0
    for t in thresholds:
        predicted = scores >= t
        tp = (predicted & truth).sum()
        recall = tp / p
        precision = tp / predicted.sum()
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def random_pair(rng, n_max=200, with_ties=True):
    n = int(rng.integers(5, n_max + 1))
    truth = rng.random(n) < rng.uniform(0.1, 0.9)
    if not truth.any():
        truth[0] = True
    if truth.all():
        truth[0] = False
    scores = rng.random(n)
    if with_ties:
        scores = np.round(scores, 2)  # heavy ties
    return EvalPair(scores, truth)


class TestAuroc:
    def test_perfect_separation(self):
        pair = EvalPair(np.array([0.9, 0.8, 0.2, 0.1]), np.array([True, True, False, False]))
        assert auroc(pair) == 1.0

    def test_constant_scores_half(self):
        pair = EvalPair(np.full(10, 0.5), np.arange(10) < 4)
        assert auroc(pair) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            pair = random_pair(rng)
            expected = pairwise_auroc_oracle(pair.scores, pair.truth)
            assert abs(auroc(pair) - expected) < 1e-12

    def test_rank_and_trapezoid_agree(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            pair = random_pair(rng, n_max=500)
            assert abs(auroc(pair) - oracle_auroc_trapezoid(pair)) < 1e-12

    def test_reversal_symmetry_without_ties(self):
        rng = np.random.default_rng(2)
        n = 100
        scores = rng.permutation(n) / n
        truth = rng.random(n) < 0.3
        truth[0] = True
        truth[1] = False
        a = auroc(EvalPair(scores, truth))
        b = auroc(EvalPair(-scores, truth))
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_undefined_without_both_classes(self):
        with pytest.raises(UndefinedMetricError):
            auroc(EvalPair(np.array([0.5, 0.6]), np.array([True, True])))
        with pytest.raises(UndefinedMetricError):
            auroc(EvalPair(np.array([0.5, 0.6]), np.array([False, False])))

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        pair = random_pair(rng, n_max=80)
        warped = EvalPair(np.exp(3.0 * pair.scores) + 7.0, pair.truth)
        assert auroc(warped) == pytest.approx(auroc(pair), abs=1e-12)
        assert fpr_at_tpr(warped) == fpr_at_tpr(pair)
        assert average_precision(warped) == pytest.approx(average_precision(pair), abs=1e-12)


class TestFprAtTpr:
    def test_perfect_separation_zero(self):
        pair = EvalPair(np.array([0.9, 0.8, 0.2, 0.1]), np.array([True, True, False, False]))
        assert fpr_at_tpr(pair) == 0.0

    def test_constant_scores_one(self):
        pair = EvalPair(np.full(8, 0.3), np.arange(8) < 3)
        assert fpr_at_tpr(pair) == 1.0

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            pair = random_pair(rng, n_max=100)
            assert fpr_at_tpr(pair) == exhaustive_fpr_oracle(pair.scores, pair.truth)

    def test_step_convention_no_interpolation(self):
        # 2 positives: TPR jumps 0.5 -> 1.0; target 0.95 needs both
        scores = np.array([0.9, 0.5, 0.7, 0.6])
        truth = np.array([True, True, False, False])
        assert fpr_at_tpr(EvalPair(scores, truth)) == 1.0


class TestAveragePrecision:
    def test_perfect_separation(self):
        pair = EvalPair(np.array([0.9, 0.8, 0.2, 0.1]), np.array([True, True, False, False]))
        assert average_precision(pair) == 1.0

    def test_single_positive_ranked_last(self):
        scores = np.linspace(1.0, 0.1, 10)
        truth = np.zeros(10, dtype=bool)
        truth[-1] = True
        assert average_precision(EvalPair(scores, truth)) == pytest.approx(0.1, abs=1e-12)

    def test_matches_prefix_scan_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            pair = random_pair(rng, n_max=100)
            expected = exhaustive_ap_oracle(pair.scores, pair.truth)
            assert abs(average_precision(pair) - expected) < 1e-12

    def test_constant_scores_equal_prevalence(self):
        truth = np.arange(20) < 7
        pair = EvalPair(np.full(20, 0.4), truth)
        assert average_precision(pair) == pytest.approx(7 / 20, abs=1e-12)

    def test_undefined_without_positives(self):
        with pytest.raises(UndefinedMetricError):
            average_precision(EvalPair(np.array([0.1, 0.2]), np.array([False, False])))


class TestRangeBinnedAp:
    def test_single_occupied_bin(self):
        scores = np.array([0.9, 0.8, 0.1, 0.2])
        truth = np.array([True, True, False, False])
        ranges = np.array([5.0, 7.0, 3.0, 9.0])
        out = range_binned_ap(EvalPair(scores, truth, ranges))
        assert out["0_10"] == 1.0
        assert [v for k, v in out.items() if k != "0_10"] == [None] * 4

    def test_matches_per_bin_oracle(self):
        rng = np.random.default_rng(5)
        n = 400
        scores = np.round(rng.random(n), 2)
        truth = rng.random(n) < 0.3
        ranges = rng.uniform(0, 50, n)
        out = range_binned_ap(EvalPair(scores, truth, ranges))
        for k, (lo, hi) in zip(out, [(0, 10), (10, 20), (20, 30), (30, 40), (40, 50)]):
            inside = (ranges >= lo) & (ranges < hi)
            if not truth[inside].any():
                assert out[k] is None
            else:
                expected = exhaustive_ap_oracle(scores[inside], truth[inside])
                assert out[k] == pytest.approx(expected, abs=1e-12)

    def test_empty_bin_is_typed_absence(self):
        scores = np.array([0.5, 0.6])
        truth = np.array([True, False])
        ranges = np.array([5.0, 5.0])
        out = range_binned_ap(EvalPair(scores, truth, ranges))
        assert out["10_20"] is None
        assert not any(v is not None and np.isnan(v) for v in out.values())

    def test_requires_ranges(self):
        with pytest.raises(ValidationError):
            range_binned_ap(EvalPair(np.array([0.5]), np.array([True])))


class TestEvalPair:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            EvalPair(np.array([0.1, 0.2]), np.array([True]))

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(ValidationError):
            EvalPair(np.array([0.1, np.nan]), np.array([True, False]))


# -- argsort reference: the stable-argsort implementation that the value
# sorts in lidarforge.metrics replaced, kept to pin exact equality ----------

def reference_average_ranks(values):
    """1-based ranks with ties assigned their group average."""
    n = values.shape[0]
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], n]
    group_rank = 0.5 * (starts + ends - 1) + 1.0
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(group_rank, ends - starts)
    return ranks


def reference_threshold_blocks(scores, truth):
    """Cumulative (tp, fp) after each distinct score threshold, scores
    descending, ties grouped into one block."""
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    t = truth[order]
    last_of_block = np.r_[s[1:] != s[:-1], True]
    tp = np.cumsum(t)[last_of_block].astype(np.float64)
    fp = np.cumsum(~t)[last_of_block].astype(np.float64)
    return tp, fp, s[last_of_block]


def reference_metrics(scores, truth, ranges):
    p, n = int(truth.sum()), int((~truth).sum())
    rank_sum = float(reference_average_ranks(scores)[truth].sum())
    tp, fp, _ = reference_threshold_blocks(scores, truth)
    tpr = tp / p
    k = int(np.argmax(tpr >= 0.95))

    def ap(sc, tr):
        tp_, fp_, _ = reference_threshold_blocks(sc, tr)
        recall = tp_ / tr.sum()
        return float(np.sum((recall - np.r_[0.0, recall[:-1]]) * (tp_ / (tp_ + fp_))))

    binned = {}
    for lo, hi in zip((0, 10, 20, 30, 40), (10, 20, 30, 40, 50)):
        inside = (ranges >= lo) & (ranges < hi)
        binned[f"{lo}_{hi}"] = ap(scores[inside], truth[inside]) if truth[inside].any() else None
    return {
        "auroc": (rank_sum - 0.5 * p * (p + 1)) / (p * n),
        "fpr_at_tpr": float(fp[k] / n),
        "average_precision": ap(scores, truth),
        "range_binned_ap": binned,
    }


def _tie_heavy_float32(rng):
    n = 5000
    truth = rng.random(n) < 0.05
    scores = np.round(rng.random(n), 3).astype(np.float32).astype(np.float64)
    return scores, truth


def _all_tied(rng):
    n = 300
    return np.full(n, 0.25), rng.random(n) < 0.3


def _single_positive(rng):
    n = 1000
    truth = np.zeros(n, dtype=bool)
    truth[417] = True
    return np.round(rng.random(n), 2), truth


def _negative_scores(rng):
    n = 2000
    return np.round(-rng.exponential(3.0, n), 1), rng.random(n) < 0.2


def _signed_zeros(rng):
    n = 1000
    scores = rng.choice(np.array([-0.0, 0.0, 0.5, -0.5, 1e-300]), n)
    return scores, rng.random(n) < 0.4


@pytest.mark.parametrize("make", [_tie_heavy_float32, _all_tied, _single_positive,
                                  _negative_scores, _signed_zeros])
def test_value_sort_metrics_equal_argsort_reference(make):
    rng = np.random.default_rng(11)
    scores, truth = make(rng)
    ranges = rng.uniform(0.0, 55.0, scores.shape[0])
    pair = EvalPair(scores, truth, ranges)
    ref = reference_metrics(scores, truth, ranges)
    assert auroc(pair) == ref["auroc"]
    assert fpr_at_tpr(pair) == ref["fpr_at_tpr"]
    assert average_precision(pair) == ref["average_precision"]
    assert range_binned_ap(pair) == ref["range_binned_ap"]


# -- the one-sort-per-call forms that the sorted-input helpers replaced,
# kept as oracles: each public metric and split_metrics must equal them
# bit for bit ----------------------------------------------------------------

def oracle_auroc(pair):
    ordered = np.sort(pair.scores)
    pos = pair.scores[pair.truth]
    below = np.searchsorted(ordered, pos, "left")
    above = np.searchsorted(ordered, pos, "right")
    ranks = 0.5 * (below + above - 1) + 1.0
    p = pos.shape[0]
    rank_sum = float(ranks.sum())
    return (rank_sum - 0.5 * p * (p + 1)) / (p * pair.negatives)


def oracle_threshold_blocks(pair):
    ordered = np.sort(pair.scores)
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    hit = np.searchsorted(ordered, pair.scores[pair.truth], "left")
    per_block = np.bincount(np.searchsorted(starts, hit), minlength=starts.shape[0])
    starts = starts[::-1]
    tp = np.cumsum(per_block[::-1])
    fp = (ordered.shape[0] - starts) - tp
    return tp.astype(np.float64), fp.astype(np.float64), ordered[starts]


def oracle_auroc_trapezoid(pair):
    """AUROC by trapezoidal integration of the step ROC curve from (0, 0)."""
    tp, fp, _ = oracle_threshold_blocks(pair)
    tpr = np.r_[0.0, tp / pair.positives]
    fpr = np.r_[0.0, fp / pair.negatives]
    return float(0.5 * np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1])))


def oracle_fpr_at_tpr(pair, tpr_target):
    tp, fp, _ = oracle_threshold_blocks(pair)
    tpr = tp / pair.positives
    k = int(np.argmax(tpr >= tpr_target))
    return float(fp[k] / pair.negatives)


def oracle_average_precision(pair):
    tp, fp, _ = oracle_threshold_blocks(pair)
    recall = tp / pair.positives
    precision = tp / (tp + fp)
    prev_recall = np.r_[0.0, recall[:-1]]
    return float(np.sum((recall - prev_recall) * precision))


def bits(value) -> bytes:
    return np.float64(value).tobytes()


def with_positive_counts(pair):
    """``pair``'s scores with 1, 2, 19, 20, 21 and 40 positives and with
    all points but one, where that leaves a negative.  At 95% TPR the
    FPR's threshold lies above 0, 1 (from 20 positives) or 2 (from 40)
    positives."""
    n = pair.scores.shape[0]
    order = np.random.default_rng(n).permutation(n)
    for count in sorted({k for k in (1, 2, 19, 20, 21, 40, n - 1) if 0 < k < n}):
        truth = np.zeros(n, dtype=bool)
        truth[order[:count]] = True
        yield EvalPair(pair.scores, truth)


@st.composite
def split_pairs(draw):
    """Pairs with both classes: heavy ties, float32-rounded scores,
    signed zeros, one positive or one negative."""
    n = draw(st.sampled_from([2, 3, 50, 4097]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    truth = rng.random(n) < draw(st.sampled_from([0.01, 0.3, 0.9]))
    truth[0], truth[-1] = True, False
    kind = draw(st.sampled_from(["ties", "float32", "signed_zeros", "distinct"]))
    if kind == "ties":
        scores = np.round(rng.random(n), 2)
    elif kind == "float32":
        scores = rng.random(n).astype(np.float32).astype(np.float64)
    elif kind == "signed_zeros":
        scores = rng.choice(np.array([-0.0, 0.0, 0.5, -0.5, 1e-300]), n)
    else:
        scores = rng.standard_normal(n)
    return EvalPair(scores, truth)


class TestSplitMetricsOracles:
    @given(pair=split_pairs())
    @settings(max_examples=80, deadline=None)
    def test_metrics_equal_one_sort_per_call_oracles(self, pair):
        want = (oracle_auroc(pair), oracle_fpr_at_tpr(pair, 0.95),
                oracle_average_precision(pair))
        assert [bits(v) for v in split_metrics(pair)] == [bits(v) for v in want]
        assert bits(auroc(pair)) == bits(want[0])
        assert bits(average_precision(pair)) == bits(want[2])
        for other in with_positive_counts(pair):
            assert bits(fpr_at_tpr(other)) == bits(oracle_fpr_at_tpr(other, 0.95))

    @pytest.mark.parametrize("truth", [[True, True], [False, False]])
    def test_split_metrics_raises_what_auroc_raises(self, truth):
        pair = EvalPair(np.array([0.5, 0.6]), np.array(truth))
        with pytest.raises(UndefinedMetricError) as expected:
            auroc(pair)
        with pytest.raises(UndefinedMetricError) as got:
            split_metrics(pair)
        assert str(got.value) == str(expected.value)


# -- the chunked threshold pass: tie blocks that straddle chunk edges, in
# float32 and float64, must give the oracles' bits --------------------------

@st.composite
def chunked_pairs(draw):
    """Pairs with both classes and ranges: heavy ties or signed zeros, in
    float32 or float64."""
    n = draw(st.sampled_from([2, 3, 5, 9, 40, 150]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    truth = rng.random(n) < draw(st.sampled_from([0.1, 0.5, 0.9]))
    truth[0], truth[-1] = True, False
    if draw(st.booleans()):
        scores = np.round(rng.random(n), 1)
    else:
        scores = rng.choice(np.array([-0.0, 0.0, 0.5, -0.5]), n)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    ranges = rng.choice(np.array([0.0, 5.0, 9.5, 10.0, 25.0, 49.0, 50.0, 60.0]), n)
    return EvalPair(scores.astype(dtype), truth, ranges.astype(dtype))


@given(pair=chunked_pairs(), chunk=st.sampled_from([1, 2, 3]))
@settings(max_examples=150, deadline=None)
def test_chunked_pass_equals_oracles_across_chunk_edges(pair, chunk):
    with mock.patch.object(metrics, "_CHUNK", chunk):
        got = split_metrics(pair)
        want = (oracle_auroc(pair), oracle_fpr_at_tpr(pair, 0.95),
                oracle_average_precision(pair))
        assert [bits(v) for v in got] == [bits(v) for v in want]
        for other in with_positive_counts(pair):
            assert bits(fpr_at_tpr(other)) == bits(oracle_fpr_at_tpr(other, 0.95))
        assert bits(average_precision(pair)) == bits(want[2])
        binned = range_binned_ap(pair)
        for key, lo, hi in zip(binned, (0, 10, 20, 30, 40), (10, 20, 30, 40, 50)):
            inside = (pair.ranges >= lo) & (pair.ranges < hi)
            if pair.truth[inside].any():
                sub = EvalPair(pair.scores[inside], pair.truth[inside])
                assert bits(binned[key]) == bits(oracle_average_precision(sub))
            else:
                assert binned[key] is None
        # float32 widens to float64 exactly: the widened pair gives the same bits
        wide = EvalPair(pair.scores.astype(np.float64), pair.truth,
                        pair.ranges.astype(np.float64))
        assert [bits(v) for v in split_metrics(wide)] == [bits(v) for v in got]
        assert range_binned_ap(wide) == binned


def test_float32_inputs_are_kept():
    scores = np.array([0.5, 0.25], dtype=np.float32)
    ranges = np.array([1.0, 2.0], dtype=np.float32)
    pair = EvalPair(scores, np.array([True, False]), ranges)
    assert pair.scores is scores and pair.ranges is ranges
    assert EvalPair(np.array([1, 2]), np.array([True, False])).scores.dtype == np.float64


def test_split_metrics_and_range_bins_stay_within_25_bytes_per_point():
    """Peak memory of the eval metrics, with the inputs counted, over
    nearly distinct float32 scores and a near bin holding most points."""
    n = 600_000
    rng = np.random.default_rng(21)
    scores = rng.random(n, dtype=np.float32)
    truth = rng.random(n) < 0.1
    ranges = rng.exponential(12.0, n).astype(np.float32)
    pair = EvalPair(scores, truth, ranges)
    inputs = scores.nbytes + truth.nbytes + ranges.nbytes
    tracemalloc.start()
    try:
        split_metrics(pair)
        range_binned_ap(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (inputs + peak) / n <= 25.0
