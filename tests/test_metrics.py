import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarforge import (EvalPair, UndefinedMetricError, ValidationError, auroc,
                        auroc_trapezoid, average_precision, fpr_at_tpr,
                        range_binned_ap, roc_curve)


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
            assert abs(auroc(pair) - auroc_trapezoid(pair)) < 1e-12

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
        assert fpr_at_tpr(EvalPair(scores, truth), 0.95) == 1.0


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

    def test_roc_curve_starts_at_origin(self):
        pair = EvalPair(np.array([0.9, 0.1]), np.array([True, False]))
        fpr, tpr, _ = roc_curve(pair)
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0


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
    tp, fp, thresholds = reference_threshold_blocks(scores, truth)
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
        "roc_curve": (np.r_[0.0, fp / n], np.r_[0.0, tp / p], thresholds),
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
    assert fpr_at_tpr(pair, 0.95) == ref["fpr_at_tpr"]
    assert average_precision(pair) == ref["average_precision"]
    assert range_binned_ap(pair) == ref["range_binned_ap"]
    for got, expected in zip(roc_curve(pair), ref["roc_curve"]):
        # array_equal compares by value, so a zero threshold may differ in sign
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
