import numpy as np
import pytest

from lidarforge import (FeatureSet, FormatError, PrototypeBank, ValidationError,
                        accumulate_prototypes, classify, compute_scores, read_tensor,
                        score_contrastive, score_cosine, score_entropy, score_fused,
                        score_semantic, write_tensor)
from lidarforge.scoring import read_scores, write_scores


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


class TestTensorIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        arr = rng.standard_normal((13, 5)).astype(np.float32)
        path = tmp_path / "t.ftr"
        write_tensor(path, arr)
        np.testing.assert_array_equal(read_tensor(path), arr)

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
