import numpy as np
import pytest

from lidarforge import (PrototypeBank, ValidationError, loss_ce, loss_contrastive,
                        loss_heads, loss_lovasz, loss_objectosphere, loss_prototype,
                        losses, mean_class_features)


def fd_grad(func, x, h=1e-6):
    """Central finite differences of a scalar function of an array."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat, gf = x.ravel(), g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = func(x)
        flat[i] = orig - h
        fm = func(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def assert_grad_close(analytic, numeric, tol=1e-4):
    scale = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-8)
    assert np.abs(analytic - numeric).max() / scale < tol


class TestCrossEntropy:
    def test_confident_correct_logits_vanish(self):
        f = np.zeros((4, 3))
        y = np.array([0, 1, 2, 0])
        f[np.arange(4), y] = 60.0
        value, _ = loss_ce(f, y)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits_equal_log_c(self):
        f = np.full((7, 5), 1.3)
        y = np.array([0, 1, 2, 3, 4, 0, 1])
        value, _ = loss_ce(f, y)
        assert value == pytest.approx(np.log(5), abs=1e-12)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((5, 3))
        y = rng.integers(0, 3, 5)
        w = rng.uniform(0.5, 2.0, 3)
        value, _ = loss_ce(f, y, w)
        total = 0.0
        for n in range(5):
            den = sum(np.exp(f[n, c]) for c in range(3))
            total -= w[y[n]] * np.log(np.exp(f[n, y[n]]) / den)
        assert value == pytest.approx(total / 5, abs=1e-10)

    def test_gradient(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((6, 4))
        y = rng.integers(0, 4, 6)
        w = rng.uniform(0.5, 2.0, 4)
        _, grad = loss_ce(f, y, w)
        assert_grad_close(grad, fd_grad(lambda x: loss_ce(x, y, w)[0], f))

    def test_class_weights_scale_each_point(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((9, 3))
        y = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2])
        w = np.array([0.0, 1.0, 3.0])
        value, grad = loss_ce(f, y, w)
        log_p = f - np.log(np.exp(f).sum(axis=1, keepdims=True))
        assert value == pytest.approx(-(w[y] * log_p[np.arange(9), y]).sum() / 9, abs=1e-12)
        # a zero-weight class contributes neither value nor gradient
        assert not grad[y == 0].any()
        assert_grad_close(grad, fd_grad(lambda x: loss_ce(x, y, w)[0], f))
        with pytest.raises(ValidationError):
            loss_ce(f, y, w[:2])


class TestPrototypeLoss:
    def test_parallel_features_vanish(self):
        bank = PrototypeBank(np.array([[2.0, 0.0], [0.0, 3.0]]))
        f = np.array([[8.0, 0.0], [0.0, 0.5]])
        y = np.array([0, 1])
        value, _ = loss_prototype(f, y, bank)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_antiparallel_contributes_two_over_n(self):
        bank = PrototypeBank(np.array([[1.0, 0.0], [0.0, 1.0]]))
        f = np.array([[-3.0, 0.0], [1.0, 1.0], [0.0, 2.0], [5.0, 0.0]])
        y = np.array([0, 0, 1, 0])
        value, _ = loss_prototype(f, y, bank)
        by_hand = ((1 - -1.0) + (1 - np.cos(np.pi / 4)) + (1 - 1.0) + (1 - 1.0)) / 4
        assert value == pytest.approx(by_hand, abs=1e-12)

    def test_uninitialized_bank_inactive(self):
        # an all-zero bank pulls nowhere: zero value and zero gradient
        value, grad = loss_prototype(np.ones((3, 2)), np.zeros(3, dtype=int),
                                     PrototypeBank(np.zeros((2, 2))))
        assert value == 0.0 and not grad.any()

    def test_class_without_prototype_skipped(self):
        # class 1's zero row adds nothing; class 0's points count over all N
        bank = PrototypeBank(np.array([[1.0, 0.0], [0.0, 0.0]]))
        f = np.array([[0.0, 4.0], [0.0, 5.0], [3.0, 3.0]])
        y = np.array([0, 1, 1])
        value, grad = loss_prototype(f, y, bank)
        assert value == pytest.approx(1.0 / 3, abs=1e-12)
        np.testing.assert_allclose(grad, [[-1.0 / 12, 0.0], [0.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        bank = PrototypeBank(rng.standard_normal((3, 3)))
        f = rng.standard_normal((8, 3))
        y = rng.integers(0, 3, 8)
        value, _ = loss_prototype(f, y, bank)
        total = 0.0
        for n in range(8):
            p = bank.prototypes[y[n]]
            total += 1 - f[n] @ p / (np.linalg.norm(f[n]) * np.linalg.norm(p))
        assert value == pytest.approx(total / 8, abs=1e-10)

    def test_invariant_to_prototype_rescaling(self):
        rng = np.random.default_rng(3)
        protos = rng.standard_normal((3, 3))
        f = rng.standard_normal((10, 3))
        y = rng.integers(0, 3, 10)
        v1, _ = loss_prototype(f, y, PrototypeBank(protos))
        v2, _ = loss_prototype(f, y, PrototypeBank(protos * 100.0))
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        bank = PrototypeBank(rng.standard_normal((4, 4)))
        f = rng.standard_normal((6, 4))
        y = rng.integers(0, 4, 6)
        _, grad = loss_prototype(f, y, bank)
        assert_grad_close(grad, fd_grad(lambda x: loss_prototype(x, y, bank)[0], f))


def jaccard_delta(mispredicted: set, foreground: set, universe_size: int) -> float:
    """Set-function form of the Jaccard loss for class membership."""
    if not foreground and not mispredicted:
        return 0.0
    kept = foreground - mispredicted
    union = foreground | mispredicted
    return 1.0 - len(kept) / len(union)


def lovasz_extension_oracle(features, labels):
    """Direct evaluation of the Lovasz extension by prefix enumeration."""
    f = np.asarray(features, dtype=np.float64)
    z = f - f.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    present = np.unique(labels)
    total = 0.0
    for c in present:
        fg_set = {i for i in range(len(labels)) if labels[i] == c}
        errors = np.abs((labels == c).astype(float) - p[:, c])
        order = np.argsort(-errors, kind="stable")
        prev = 0.0
        for i in range(len(order)):
            prefix = set(order[: i + 1].tolist())
            delta = jaccard_delta(prefix, fg_set, len(labels))
            total += errors[order[i]] * (delta - prev)
            prev = delta
    return total / len(present)


class TestLovasz:
    def test_perfect_prediction_vanishes(self):
        f = np.zeros((5, 3))
        y = np.array([0, 1, 2, 1, 0])
        f[np.arange(5), y] = 80.0
        value, _ = loss_lovasz(f, y)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_single_point_closed_form(self):
        # one point, true class 0, wrong by margin m: loss = 1 - softmax(f)[0]
        for margin in (0.5, 1.0, 3.0):
            f = np.array([[0.0, margin]])
            y = np.array([0])
            value, _ = loss_lovasz(f, y)
            p0 = 1.0 / (1.0 + np.exp(margin))
            assert value == pytest.approx(1.0 - p0, abs=1e-12)

    def test_four_point_extension_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = rng.standard_normal((4, 3))
            y = rng.integers(0, 3, 4)
            value, _ = loss_lovasz(f, y)
            assert value == pytest.approx(lovasz_extension_oracle(f, y), abs=1e-9)

    def test_gradient_away_from_ties(self):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 5:
            f = rng.standard_normal((7, 4)) * 2
            y = rng.integers(0, 4, 7)
            z = f - f.max(axis=1, keepdims=True)
            p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
            gaps = []
            for c in np.unique(y):
                errors = np.sort(np.abs((y == c).astype(float) - p[:, c]))
                gaps.append(np.diff(errors).min() if errors.size > 1 else 1.0)
            if min(gaps) < 1e-3:
                continue
            _, grad = loss_lovasz(f, y)
            assert_grad_close(grad, fd_grad(lambda x: loss_lovasz(x, y)[0], f))
            checked += 1


class TestContrastive:
    def test_equal_inner_products_give_c_log_c(self):
        c = 4
        bank = PrototypeBank(np.eye(c))
        fbar = np.zeros((c, c))  # every inner product is 0
        value, _ = loss_contrastive(fbar, bank)
        assert value == pytest.approx(c * np.log(c), abs=1e-12)

    def test_dominant_alignment_drives_term_to_zero(self):
        c = 3
        bank = PrototypeBank(np.eye(c))
        fbar = np.eye(c) * 50.0
        value, _ = loss_contrastive(fbar, bank)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        c = 3
        protos = rng.standard_normal((c, c))
        bank = PrototypeBank(protos)
        fbar = rng.standard_normal((c, c))
        tau = losses.TEMPERATURE
        value, _ = loss_contrastive(fbar, bank)
        unit = protos / np.linalg.norm(protos, axis=1, keepdims=True)
        total = 0.0
        for cls in range(c):
            num = np.exp(fbar[cls] @ unit[cls] / tau)
            den = sum(np.exp(fbar[cls] @ unit[i] / tau) for i in range(c))
            total -= np.log(num / den)
        assert value == pytest.approx(total, abs=1e-9)

    def test_invariant_to_prototype_rescaling(self):
        rng = np.random.default_rng(9)
        protos = rng.standard_normal((3, 3))
        fbar = rng.standard_normal((3, 3))
        v1, _ = loss_contrastive(fbar, PrototypeBank(protos))
        v2, _ = loss_contrastive(fbar, PrototypeBank(protos * 50.0))
        assert v1 == pytest.approx(v2, abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            bank = PrototypeBank(rng.standard_normal((4, 4)))
            value, _ = loss_contrastive(rng.standard_normal((4, 4)), bank)
            assert value >= 0.0

    def test_gradient(self):
        rng = np.random.default_rng(11)
        bank = PrototypeBank(rng.standard_normal((4, 4)))
        fbar = rng.standard_normal((4, 4))
        _, grad = loss_contrastive(fbar, bank)
        assert_grad_close(grad, fd_grad(lambda x: loss_contrastive(x, bank)[0], fbar))

    def test_mean_class_features(self):
        f = np.array([[1.0, 2.0], [3.0, 4.0], [10.0, 20.0]])
        y = np.array([0, 0, 1])
        means, counts = mean_class_features(f, y, 3)
        np.testing.assert_allclose(means[0], [2.0, 3.0])
        np.testing.assert_allclose(means[1], [10.0, 20.0])
        assert counts.tolist() == [2, 1, 0]
        assert not means[2].any()


class TestObjectosphere:
    def test_large_inlier_norms_vanish(self):
        f = np.array([[3.0, 0.0], [0.0, 2.5]])  # squared norms 9, 6.25
        value, grad = loss_objectosphere(f, np.array([True, True]), radius=5.0)
        assert value == 0.0 and not grad.any()

    def test_zero_inlier_contributes_radius(self):
        f = np.zeros((1, 4))
        value, _ = loss_objectosphere(f, np.array([True]), radius=5.0)
        assert value == pytest.approx(5.0, abs=1e-15)

    @pytest.mark.parametrize("radius", [0.0, -1.0, float("inf"), float("nan")])
    def test_radius_must_be_positive_and_finite(self, radius):
        with pytest.raises(ValidationError, match="radius must be positive and finite"):
            loss_objectosphere(np.ones((1, 2)), np.array([True]), radius=radius)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        f = rng.standard_normal((9, 3)) * 2
        mask = rng.random(9) < 0.6
        value, _ = loss_objectosphere(f, mask, radius=5.0)
        total = 0.0
        for n in range(9):
            sq = float(f[n] @ f[n])
            total += max(5.0 - sq, 0.0) if mask[n] else sq
        assert value == pytest.approx(total / 9, abs=1e-10)

    def test_gradient_away_from_boundary(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 5:
            f = rng.standard_normal((8, 3)) * 1.5
            mask = rng.random(8) < 0.5
            sq = np.einsum("ij,ij->i", f, f)
            if np.abs(sq - 5.0).min() < 1e-3:
                continue
            _, grad = loss_objectosphere(f, mask, radius=5.0)
            assert_grad_close(grad, fd_grad(
                lambda x: loss_objectosphere(x, mask, radius=5.0)[0], f))
            checked += 1


class TestHeadCombination:
    def test_zero_components(self):
        assert loss_heads(0, 0, 0, 0, 0) == (0.0, 0.0)

    def test_unit_components_with_default_weights(self):
        semantic, contrastive = loss_heads(1.0, 1.0, 1.0, 1.0, 1.0)
        assert semantic == pytest.approx(2.6, abs=1e-12)
        assert contrastive == pytest.approx(1.0, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(14)
        ce, lv, pr, co, ob = rng.uniform(0, 2, 5)
        semantic, contrastive = loss_heads(ce, lv, pr, co, ob)
        assert semantic == pytest.approx(
            losses.WEIGHT_CE * ce + losses.WEIGHT_LOVASZ * lv + losses.WEIGHT_PROTOTYPE * pr,
            abs=1e-12)
        assert contrastive == pytest.approx(
            losses.WEIGHT_CONTRASTIVE * co + losses.WEIGHT_OBJECTOSPHERE * ob, abs=1e-12)

    def test_default_constants(self):
        assert (losses.WEIGHT_CE, losses.WEIGHT_LOVASZ, losses.WEIGHT_PROTOTYPE,
                losses.WEIGHT_CONTRASTIVE, losses.WEIGHT_OBJECTOSPHERE) == (1.0, 1.5, 0.1, 0.5, 0.5)
        assert losses.TEMPERATURE == 0.1
