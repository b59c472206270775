import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarforge import (FeatureSet, FormatError, PrototypeBank, ValidationError,
                        accumulate_prototypes, classify, compute_scores, read_tensor,
                        score_contrastive, score_cosine, score_entropy, score_fused,
                        score_semantic, write_tensor)
from lidarforge.losses import loss_contrastive
from lidarforge.scoring import (_BLOCK_ROWS, _row_blocks, log_softmax, read_scores, softmax,
                                write_scores)


def make_bank(prototypes):
    protos = np.asarray(prototypes, dtype=np.float64)
    return PrototypeBank(prototypes=protos, weights=np.ones(protos.shape[0]))


class TestAccumulate:
    def test_constant_features_give_that_prototype(self):
        f = np.tile([2.0, 1.0, 0.0], (5, 1))
        labels = np.zeros(5, dtype=int)
        preds = np.zeros(5, dtype=int)
        bank = accumulate_prototypes(f, labels, preds)
        np.testing.assert_allclose(bank.prototypes[0], [2.0, 1.0, 0.0])
        assert bank.initialized[0]

    def test_hand_computed_weighted_mean(self):
        f = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 0])
        preds = np.array([0, 0])
        bank = accumulate_prototypes(f, labels, preds, confidences=np.array([3.0, 1.0]))
        np.testing.assert_allclose(bank.prototypes[0], [0.75, 0.25])

    def test_class_without_true_positive_uninitialized(self):
        f = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1])
        preds = np.array([0, 0])  # class 1 never predicted correctly
        bank = accumulate_prototypes(f, labels, preds)
        assert bank.initialized.tolist() == [True, False]
        assert not bank.fully_initialized

    def test_only_true_positives_counted(self):
        f = np.array([[4.0, 0.0], [0.0, 9.0], [2.0, 0.0]])
        labels = np.array([0, 0, 0])
        preds = np.array([0, 1, 0])  # middle point misclassified
        bank = accumulate_prototypes(f, labels, preds)
        np.testing.assert_allclose(bank.prototypes[0], (4 * f[0] + 2 * f[2]) / 6)

    def test_nonpositive_confidence_shifts_and_warns(self):
        f = np.array([[-1.0, -2.0], [-3.0, -4.0]])
        labels = np.array([0, 0])
        preds = np.array([0, 0])
        with pytest.warns(UserWarning, match="non-positive"):
            bank = accumulate_prototypes(f, labels, preds)
        # kappa = (-1, -3) shifts to (2 + eps, eps): first point dominates
        assert bank.initialized[0]
        assert np.isfinite(bank.prototypes[0]).all()
        assert bank.prototypes[0, 0] > -1.5


class TestClassify:
    def test_prototype_feature_maps_to_itself(self):
        bank = make_bank(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.0, 1.0, 5.0]]))
        result = classify(bank.prototypes[2][None, :], bank)
        assert result.predictions[0] == 2
        assert result.similarity[0, 2] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_feature_breaks_tie_to_zero(self):
        bank = make_bank(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        result = classify(np.array([[0.0, 0.0, 1.0]]), bank)
        np.testing.assert_allclose(result.similarity[0], 0.0, atol=1e-12)
        assert result.predictions[0] == 0

    def test_zero_norm_feature_flagged(self):
        bank = make_bank(np.eye(2))
        result = classify(np.zeros((1, 2)), bank)
        assert result.degenerate[0]
        np.testing.assert_array_equal(result.similarity[0], [0.0, 0.0])

    def test_matches_brute_force_cosine(self):
        rng = np.random.default_rng(0)
        bank = make_bank(rng.standard_normal((6, 6)))
        feats = rng.standard_normal((1000, 6))
        result = classify(feats, bank)
        for n in range(0, 1000, 37):
            sims = []
            for c in range(6):
                f, p = feats[n], bank.prototypes[c]
                sims.append(f @ p / (np.linalg.norm(f) * np.linalg.norm(p)))
            assert result.predictions[n] == int(np.argmax(sims))
            np.testing.assert_allclose(result.similarity[n], sims, atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        bank = make_bank(rng.standard_normal((4, 4)))
        feats = rng.standard_normal((50, 4))
        a = classify(feats, bank)
        b = classify(feats * 7.3, bank)
        np.testing.assert_array_equal(a.predictions, b.predictions)
        np.testing.assert_allclose(a.similarity, b.similarity, atol=1e-12)

    def test_uninitialized_bank_rejected(self):
        bank = PrototypeBank(prototypes=np.eye(2), weights=np.array([1.0, 0.0]))
        with pytest.raises(ValidationError, match=r"\[1\]"):
            classify(np.eye(2), bank)

    def test_uninitialized_message_shared_with_contrastive_loss(self):
        bank = PrototypeBank(prototypes=np.eye(3), weights=np.array([1.0, 0.0, 0.0]))
        message = r"^prototype bank has uninitialized classes: \[1, 2\]$"
        with pytest.raises(ValidationError, match=message):
            classify(np.eye(3), bank)
        with pytest.raises(ValidationError, match=message):
            loss_contrastive(np.eye(3), bank, temperature=0.1)

    def test_unit_bank_is_division_by_row_norm(self):
        rng = np.random.default_rng(4)
        protos = rng.standard_normal((4, 6)) * np.array([[1e-3], [1.0], [1e3], [0.0]])
        bank = make_bank(protos)
        norms = np.linalg.norm(protos, axis=1, keepdims=True)
        expected = protos / np.where(norms > 0, norms, 1.0)
        assert bank.unit.tobytes() == expected.tobytes()
        assert bank.unit is bank.unit

    def test_dot_metric_available(self):
        bank = make_bank(np.array([[2.0, 0.0], [0.0, 1.0]]))
        result = classify(np.array([[1.0, 0.9]]), bank, metric="dot")
        assert result.similarity[0, 0] == pytest.approx(2.0)

    def test_accumulate_classify_fixpoint(self):
        rng = np.random.default_rng(2)
        c = 5
        directions = np.linalg.qr(rng.standard_normal((c, c)))[0] * 3.0
        feats, labels = [], []
        for cls in range(c):
            feats.append(directions[cls] + 0.05 * rng.standard_normal((40, c)))
            labels.extend([cls] * 40)
        feats = np.vstack(feats)
        labels = np.array(labels)
        bank = accumulate_prototypes(feats, labels, labels)
        result = classify(bank.prototypes, bank)
        np.testing.assert_array_equal(result.predictions, np.arange(c))


class TestScores:
    def test_log_softmax_is_log_of_softmax(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((20, 5)) * 10.0
        np.testing.assert_allclose(log_softmax(logits), np.log(softmax(logits)), atol=1e-12)
        # finite where softmax underflows to 0
        assert log_softmax(np.array([[0.0, -1000.0]]))[0, 1] == pytest.approx(-1000.0)

    def test_cosine_score_bounds_and_value(self):
        sim = np.array([[0.2, 0.9], [-0.5, -0.9], [1.0, 0.0]])
        out = score_cosine(sim)
        np.testing.assert_allclose(out, [0.1, 1.0, 0.0], atol=1e-12)

    def test_entropy_uniform_is_one(self):
        out = score_entropy(np.zeros((3, 7)))
        np.testing.assert_allclose(out, 1.0, atol=1e-12)

    def test_entropy_dominant_logit_near_zero(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 50.0
        assert score_entropy(logits)[0] == pytest.approx(0.0, abs=1e-6)

    def test_entropy_two_class_value(self):
        logits = np.array([[0.0, np.log(3.0)]])  # softmax = (0.25, 0.75)
        assert score_entropy(logits)[0] == pytest.approx(0.8113, abs=1e-4)

    def test_entropy_underflow_is_silent_and_unchanged(self):
        # logits spread by more than 745: softmax entries underflow to 0
        logits = np.array([[0.0, 800.0, 1.0], [-900.0, 0.0, 0.0], [0.5, 0.0, 0.25]])
        p = softmax(logits)
        assert (p == 0.0).sum() == 3
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = -np.where(p > 0, p * np.log(p), 0.0).sum(axis=1) / np.log(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = score_entropy(logits)
        assert out.tobytes() == expected.tobytes()

    def test_entropy_single_class_rejected(self):
        with pytest.raises(ValidationError, match="C<2"):
            score_entropy(np.zeros((3, 1)))

    def test_semantic_normalizes_by_peak(self):
        out, peak = score_semantic(np.array([0.4, 0.8]), np.array([0.5, 0.5]))
        np.testing.assert_allclose(out, [0.5, 1.0], atol=1e-12)
        assert peak == pytest.approx(0.4, abs=1e-12)

    def test_semantic_all_equal_products(self):
        out, _ = score_semantic(np.array([0.3, 0.3]), np.array([0.7, 0.7]))
        np.testing.assert_allclose(out, 1.0, atol=1e-12)

    def test_semantic_zero_products_stay_zero(self):
        out, peak = score_semantic(np.array([0.0, 0.0]), np.array([0.5, 0.9]))
        np.testing.assert_array_equal(out, [0.0, 0.0])
        assert peak == 0.0

    def test_contrastive_boundaries(self):
        # squared norms: 0, exactly 5 (2^2 + 1^2), 2.5, >5
        f = np.array([[0.0, 0.0], [2.0, 1.0], [np.sqrt(2.5), 0.0], [3.0, 0.0]])
        out = score_contrastive(f, radius=5.0)
        assert out[0] == 1.0
        assert out[1] == 0.0
        assert out[2] == pytest.approx(0.5, abs=1e-12)
        assert out[3] == 0.0

    def test_contrastive_nonincreasing_in_norm(self):
        norms = np.linspace(0, 3, 100)
        f = np.stack([norms, np.zeros(100)], axis=1)
        out = score_contrastive(f, radius=5.0)
        assert (np.diff(out) <= 1e-15).all()

    def test_fused_is_elementwise_mean(self):
        np.testing.assert_array_equal(score_fused(np.array([1.0, 0.0, 0.3]),
                                                  np.array([1.0, 0.0, 0.7])),
                                      [1.0, 0.0, 0.5])

    def test_all_scores_in_unit_interval(self):
        rng = np.random.default_rng(3)
        feats = FeatureSet(semantic=rng.standard_normal((2000, 6)) * 3,
                           contrastive=rng.standard_normal((2000, 6)) * 3)
        bank = make_bank(rng.standard_normal((6, 6)))
        sv = compute_scores(feats, bank)
        for arr in (sv.cosine, sv.entropy, sv.semantic, sv.contrastive, sv.fused):
            assert arr.min() >= 0.0 and arr.max() <= 1.0
        np.testing.assert_allclose(sv.fused, 0.5 * (sv.semantic + sv.contrastive), atol=1e-15)


def one_shot_scores(features, bank, radius, metric):
    """compute_scores composed from the per-stage functions, each run
    on the whole scan at once."""
    result = classify(features.semantic, bank, metric=metric)
    s_cos = score_cosine(result.similarity)
    s_ent = score_entropy(features.semantic)
    s_sem, peak = score_semantic(s_cos, s_ent)
    s_cont = score_contrastive(features.contrastive, radius=radius)
    return {"cosine": s_cos, "entropy": s_ent, "semantic": s_sem, "contrastive": s_cont,
            "fused": score_fused(s_sem, s_cont), "predictions": result.predictions,
            "semantic_peak": peak}


class TestBlockedComputeScores:
    @pytest.mark.parametrize("metric", ["cosine", "dot"])
    @pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   3 * _BLOCK_ROWS + 7])
    def test_bitwise_equal_to_one_shot(self, n, metric):
        rng = np.random.default_rng(n)
        c = 19
        # small dot products keep 1 - max similarity inside the clamp
        bank = make_bank(rng.standard_normal((c, c)) * (1.0 if metric == "cosine" else 0.02))
        sem = rng.standard_normal((n, c)) * 3.0
        con = rng.standard_normal((n, c)) * 0.6
        if n:
            # rows whose best similarity is near 1 (every 7th and the last):
            # 1 - similarity is exact there, so a rounding change shows
            near = (np.arange(n) % 7 == 6) | (np.arange(n) == n - 1)
            p = bank.prototypes[rng.integers(0, c, int(near.sum()))]
            if metric == "cosine":
                sem[near] = 2.0 * p + 0.1 * rng.standard_normal(p.shape)
            else:
                sem[near] = 0.99 * p / (p * p).sum(axis=1, keepdims=True)
            zero = rng.choice(n, size=max(1, n // 500), replace=False)
            sem[zero] = 0.0
            con[zero] = 0.0
            # logits spread by more than 745: a softmax entry underflows to 0
            sem[n // 2] = 0.0
            sem[n // 2, 3] = 800.0
        feats = FeatureSet(semantic=sem, contrastive=con)
        got = compute_scores(feats, bank, radius=5.0, metric=metric)
        expected = one_shot_scores(feats, bank, 5.0, metric)
        if n:
            assert score_entropy(sem[n // 2][None, :])[0] == 0.0
        for name, want in expected.items():
            have = getattr(got, name)
            if name == "semantic_peak":
                assert type(have) is float and np.float64(have).tobytes() == np.float64(want).tobytes()
            else:
                assert have.dtype == want.dtype and have.shape == want.shape
                assert have.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("n", [0, 1, 2, _BLOCK_ROWS, _BLOCK_ROWS + 1, _BLOCK_ROWS + 2,
                                   2 * _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7])
    def test_row_blocks_cover_rows_without_1_row_tail(self, n):
        spans = list(_row_blocks(n))
        assert [i for lo, hi in spans for i in range(lo, hi)] == list(range(n))
        assert all(0 < hi - lo <= _BLOCK_ROWS + 1 for lo, hi in spans) or spans == [(0, 0)]
        assert n == 1 or all(hi - lo != 1 for lo, hi in spans)

    def test_stage_errors_raised_for_empty_scan(self):
        feats = FeatureSet(semantic=np.zeros((0, 1)), contrastive=np.zeros((0, 1)))
        with pytest.raises(ValidationError, match="C<2"):
            compute_scores(feats, make_bank(np.ones((1, 1))))


# -- the whole-array expressions that softmax, log_softmax, score_entropy
# and score_cosine replaced, kept as oracles: the column-wise row maxima
# and the in-place forms must equal them bit for bit -------------------------

def oracle_softmax(logits):
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def oracle_log_softmax(logits):
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def oracle_entropy(features):
    f = np.asarray(features, dtype=np.float64)
    p = oracle_softmax(f)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(p), 0.0)
    return -plogp.sum(axis=1) / np.log(f.shape[1])


def oracle_cosine(similarity):
    return np.clip(1.0 - np.max(np.asarray(similarity, dtype=np.float64), axis=1), 0.0, 1.0)


@st.composite
def logit_blocks(draw):
    """(n, C) logits, float32 or float64, with optional all-zero rows,
    rows of mixed signed zeros and rows whose logits spread by more than
    745 (a softmax entry underflows to 0)."""
    n = draw(st.sampled_from([1, 2, 4097]))
    c = draw(st.sampled_from([2, 4, 8, 19, 33]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    logits = scale * rng.standard_normal((n, c))
    if draw(st.booleans()):
        logits[rng.integers(0, n, max(1, n // 50))] = 0.0
    if draw(st.booleans()):
        rows = rng.integers(0, n, max(1, n // 50))
        logits[rows] = rng.choice(np.array([0.0, -0.0]), (rows.size, c))
    if draw(st.booleans()):
        rows = rng.integers(0, n, max(1, n // 50))
        logits[rows, rng.integers(0, c, rows.size)] += rng.choice(np.array([800.0, -800.0]),
                                                                  rows.size)
    return logits.astype(draw(st.sampled_from([np.float32, np.float64])))


class TestOracles:
    @given(logits=logit_blocks())
    @settings(max_examples=60, deadline=None)
    def test_softmax_and_entropy_equal_oracles(self, logits):
        for got, want in ((softmax(logits), oracle_softmax(logits)),
                          (log_softmax(logits), oracle_log_softmax(logits))):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        with np.errstate(divide="raise", invalid="raise"):
            got = score_entropy(logits)
        assert got.tobytes() == oracle_entropy(logits).tobytes()

    @given(logits=logit_blocks())
    @settings(max_examples=60, deadline=None)
    def test_cosine_score_equals_oracle(self, logits):
        # as similarities: values around [-1, 1], including exact zeros and 1
        sim = np.tanh(logits)
        sim[::3, 0] = 1.0
        assert score_cosine(sim).tobytes() == oracle_cosine(sim).tobytes()
        assert score_cosine(logits).tobytes() == oracle_cosine(logits).tobytes()


class TestTensorIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        arr = rng.standard_normal((13, 5)).astype(np.float32)
        path = tmp_path / "t.ftr"
        write_tensor(path, arr)
        np.testing.assert_array_equal(read_tensor(path), arr)

    def test_read_is_a_read_only_view_of_the_file_bytes(self, tmp_path):
        path = tmp_path / "t.ftr"
        write_tensor(path, np.arange(12, dtype=np.float32).reshape(3, 4))
        back = read_tensor(path)
        assert back.dtype == np.dtype("<f4") and back.shape == (3, 4)
        assert not back.flags.writeable
        # the buffer under the array is the whole file, header included: no slice copy
        base = back
        while isinstance(base, np.ndarray):
            base = base.base
        assert len(base) == path.stat().st_size

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ftr"
        path.write_bytes(b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            read_tensor(path)

    def test_size_mismatch(self, tmp_path):
        path = tmp_path / "short.ftr"
        arr = np.zeros((4, 4), dtype=np.float32)
        write_tensor(path, arr)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="expected"):
            read_tensor(path)

    def test_score_files_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        feats = FeatureSet(semantic=rng.standard_normal((50, 4)),
                           contrastive=rng.standard_normal((50, 4)))
        bank = make_bank(rng.standard_normal((4, 4)))
        sv = compute_scores(feats, bank)
        write_scores(tmp_path / "scan0", sv, which="fused")
        back = read_scores(tmp_path / "scan0.scores")
        np.testing.assert_allclose(back, sv.fused, atol=1e-7)
        meta = (tmp_path / "scan0.scores.meta").read_text()
        assert "score = fused" in meta and "semantic_peak" in meta

    def test_truncated_score_file(self, tmp_path):
        path = tmp_path / "scan0.scores"
        path.write_bytes(np.arange(3, dtype="<f4").tobytes()[:-1])
        with pytest.raises(FormatError) as info:
            read_scores(path)
        assert str(info.value) == (f"{path}: truncated score file, 11 bytes is not a multiple "
                                   "of 4; incomplete record starts at byte offset 8")
