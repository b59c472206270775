import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarforge import (FeatureSet, FormatError, PrototypeBank, ValidationError,
                        accumulate_prototypes, classify, compute_scores, read_tensor,
                        score_contrastive, score_cosine, score_entropy, score_fused,
                        score_semantic, write_tensor)
from lidarforge import scoring
from lidarforge.losses import loss_contrastive
from lidarforge.scoring import (_BLOCK_ROWS, _MATMUL_ROWS, _row_blocks, _unit_rows, log_softmax,
                                read_scores, softmax, write_scores)


# row counts across classify's chunk edges
CHUNK_EDGES = [0, 1, 2, 7, _MATMUL_ROWS, _MATMUL_ROWS + 1, _MATMUL_ROWS + 2, _MATMUL_ROWS + 7,
               2 * _MATMUL_ROWS + 7, _BLOCK_ROWS + 5]


def _openblas_0_3_31_avx512() -> bool:
    """Whether numpy runs on the BLAS that the C=32 chunk cases were
    confirmed on: OpenBLAS 0.3.31 on a CPU with AVX-512."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return ("openblas" in blas.get("name", "") and blas.get("version", "").split(".")[:3] == ["0", "3", "31"]
            and any(s.startswith("AVX512") for s in config["SIMD Extensions"]["found"]))


class TestAccumulate:
    def test_constant_features_give_that_prototype(self):
        f = np.tile([2.0, 1.0, 0.0], (5, 1))
        labels = np.zeros(5, dtype=int)
        preds = np.zeros(5, dtype=int)
        bank = accumulate_prototypes(f, labels, preds)
        np.testing.assert_allclose(bank.prototypes[0], [2.0, 1.0, 0.0])
        assert bank.initialized[0]

    def test_hand_computed_weighted_mean(self):
        # confidences are each point's largest component: 3 and 1
        f = np.array([[3.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 0])
        preds = np.array([0, 0])
        bank = accumulate_prototypes(f, labels, preds)
        np.testing.assert_allclose(bank.prototypes[0], [2.25, 0.25])

    def test_class_without_true_positive_uninitialized(self):
        f = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1])
        preds = np.array([0, 0])  # class 1 never predicted correctly
        bank = accumulate_prototypes(f, labels, preds)
        assert bank.initialized.tolist() == [True, False]
        assert not bank.prototypes[1].any()

    def test_only_true_positives_counted(self):
        f = np.array([[4.0, 0.0], [0.0, 9.0], [2.0, 0.0]])
        labels = np.array([0, 0, 0])
        preds = np.array([0, 1, 0])  # middle point misclassified
        bank = accumulate_prototypes(f, labels, preds)
        np.testing.assert_allclose(bank.prototypes[0], (4 * f[0] + 2 * f[2]) / 6)

    def test_nan_feature_rejected_with_default_confidences(self):
        f = np.array([[np.nan, 1.0], [0.5, 1.0]])
        with pytest.raises(ValidationError, match="features must be finite"):
            accumulate_prototypes(f, np.array([1, 1]), np.array([1, 1]))

    def test_inf_feature_rejected(self):
        f = np.array([[np.inf, 1.0], [0.5, 1.0]])
        with pytest.raises(ValidationError, match="features must be finite"):
            accumulate_prototypes(f, np.array([1, 1]), np.array([1, 1]))

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
        bank = PrototypeBank(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.0, 1.0, 5.0]]))
        sim = classify(bank.prototypes[2][None, :], bank)
        assert sim.shape == (1, 3) and np.argmax(sim[0]) == 2
        assert sim[0, 2] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_feature_breaks_tie_to_zero(self):
        bank = PrototypeBank(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        sim = classify(np.array([[0.0, 0.0, 1.0]]), bank)
        np.testing.assert_allclose(sim[0], 0.0, atol=1e-12)
        assert np.argmax(sim[0]) == 0

    def test_zero_norm_feature_gets_zero_similarity(self):
        bank = PrototypeBank(np.eye(2))
        sim = classify(np.zeros((1, 2)), bank)
        np.testing.assert_array_equal(sim[0], [0.0, 0.0])

    def test_matches_brute_force_cosine(self):
        rng = np.random.default_rng(0)
        bank = PrototypeBank(rng.standard_normal((6, 6)))
        feats = rng.standard_normal((1000, 6))
        sim = classify(feats, bank)
        assert sim.shape == (1000, 6)
        for n in range(0, 1000, 37):
            sims = []
            for c in range(6):
                f, p = feats[n], bank.prototypes[c]
                sims.append(f @ p / (np.linalg.norm(f) * np.linalg.norm(p)))
            assert np.argmax(sim[n]) == np.argmax(sims)
            np.testing.assert_allclose(sim[n], sims, atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        bank = PrototypeBank(rng.standard_normal((4, 4)))
        feats = rng.standard_normal((50, 4))
        a = classify(feats, bank)
        b = classify(feats * 7.3, bank)
        np.testing.assert_array_equal(np.argmax(a, axis=1), np.argmax(b, axis=1))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_uninitialized_bank_rejected(self):
        bank = PrototypeBank(np.diag([1.0, 0.0]))
        with pytest.raises(ValidationError, match=r"\[1\]"):
            classify(np.eye(2), bank)

    def test_uninitialized_message_shared_with_contrastive_loss(self):
        bank = PrototypeBank(np.diag([1.0, 0.0, 0.0]))
        message = r"^prototype bank has uninitialized classes: \[1, 2\]$"
        with pytest.raises(ValidationError, match=message):
            classify(np.eye(3), bank)
        with pytest.raises(ValidationError, match=message):
            loss_contrastive(np.eye(3), bank)

    def test_unit_bank_is_division_by_row_norm(self):
        rng = np.random.default_rng(4)
        protos = rng.standard_normal((4, 6)) * np.array([[1e-3], [1.0], [1e3], [0.0]])
        bank = PrototypeBank(protos)
        norms = np.linalg.norm(protos, axis=1, keepdims=True)
        expected = protos / np.where(norms > 0, norms, 1.0)
        assert bank.unit.tobytes() == expected.tobytes()

    def test_bank_keeps_a_read_only_copy(self):
        protos = np.diag([2.0, 0.0])
        bank = PrototypeBank(protos)
        protos[1, 1] = 5.0   # the caller's array stays writable and apart
        assert bank.initialized.tolist() == [True, False] and not bank.prototypes[1].any()
        for array in (bank.prototypes, bank.unit, bank.initialized):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

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
        sim = classify(bank.prototypes, bank)
        np.testing.assert_array_equal(np.argmax(sim, axis=1), np.arange(c))


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

    @pytest.mark.parametrize("radius", [0.0, -1.0, float("inf"), float("nan")])
    def test_contrastive_radius_must_be_positive_and_finite(self, radius):
        with pytest.raises(ValidationError, match="radius must be positive and finite"):
            score_contrastive(np.ones((2, 3)), radius=radius)

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
        bank = PrototypeBank(rng.standard_normal((6, 6)))
        sv = compute_scores(feats, bank)
        for arr in (sv.cosine, sv.entropy, sv.semantic, sv.contrastive, sv.fused):
            assert arr.min() >= 0.0 and arr.max() <= 1.0
        np.testing.assert_allclose(sv.fused, 0.5 * (sv.semantic + sv.contrastive), atol=1e-15)


def one_shot_scores(features, bank, radius):
    """compute_scores composed from the per-stage functions, each run
    on the whole scan at once."""
    s_cos = score_cosine(classify(features.semantic, bank))
    s_ent = score_entropy(features.semantic)
    s_sem, peak = score_semantic(s_cos, s_ent)
    s_cont = score_contrastive(features.contrastive, radius=radius)
    return {"cosine": s_cos, "entropy": s_ent, "semantic": s_sem, "contrastive": s_cont,
            "fused": score_fused(s_sem, s_cont), "semantic_peak": peak}


class TestBlockedComputeScores:
    @pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   3 * _BLOCK_ROWS + 7])
    def test_bitwise_equal_to_one_shot(self, n):
        rng = np.random.default_rng(n)
        c = 19
        bank = PrototypeBank(rng.standard_normal((c, c)))
        sem = rng.standard_normal((n, c)) * 3.0
        con = rng.standard_normal((n, c)) * 0.6
        if n:
            # rows whose best similarity is near 1 (every 7th and the last):
            # 1 - similarity is exact there, so a rounding change shows
            near = (np.arange(n) % 7 == 6) | (np.arange(n) == n - 1)
            p = bank.prototypes[rng.integers(0, c, int(near.sum()))]
            sem[near] = 2.0 * p + 0.1 * rng.standard_normal(p.shape)
            zero = rng.choice(n, size=max(1, n // 500), replace=False)
            sem[zero] = 0.0
            con[zero] = 0.0
            # logits spread by more than 745: a softmax entry underflows to 0
            sem[n // 2] = 0.0
            sem[n // 2, 3] = 800.0
        feats = FeatureSet(semantic=sem, contrastive=con)
        got = compute_scores(feats, bank, radius=5.0)
        expected = one_shot_scores(feats, bank, 5.0)
        if n:
            assert score_entropy(sem[n // 2][None, :])[0] == 0.0
        for name, want in expected.items():
            have = getattr(got, name)
            if name == "semantic_peak":
                assert type(have) is float and np.float64(have).tobytes() == np.float64(want).tobytes()
            else:
                assert have.dtype == want.dtype and have.shape == want.shape
                assert have.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("n", [0, 1, 2, _MATMUL_ROWS - 1, _MATMUL_ROWS + 1,
                                   2 * _MATMUL_ROWS + 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   _BLOCK_ROWS + 2, 2 * _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7])
    def test_row_blocks_cover_rows_without_1_row_tail(self, n):
        for rows in (_BLOCK_ROWS, _MATMUL_ROWS):
            spans = _row_blocks(n, rows)
            assert [i for lo, hi in spans for i in range(lo, hi)] == list(range(n))
            assert len(spans) == max(1, -(-n // rows))
            sizes = [hi - lo for lo, hi in spans]
            # blocks of at most `rows` rows, none much shorter than another
            assert max(sizes) <= rows and max(sizes) - min(sizes) <= 1
            assert n == 1 or 1 not in sizes

    @staticmethod
    def _check_chunked_classify(n, c):
        rng = np.random.default_rng(n + c)
        bank = PrototypeBank(rng.standard_normal((c, c)))
        f = rng.standard_normal((n, c)) * 3.0
        f[::97] = 0.0
        fu, zero = _unit_rows(f)
        want = fu @ bank.unit.T
        want[zero] = 0.0
        sim = classify(f, bank)
        assert sim.shape == want.shape and sim.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", CHUNK_EDGES)
    def test_chunked_classify_equals_one_matmul(self, n):
        # C=19, the shape the golden score digests pin
        self._check_chunked_classify(n, 19)

    @pytest.mark.skipif(not _openblas_0_3_31_avx512(),
                        reason="confirmed only on OpenBLAS 0.3.31 with AVX-512 kernels")
    @pytest.mark.parametrize("n", CHUNK_EDGES)
    def test_chunked_classify_equals_one_matmul_at_c32(self, n):
        """A property of the BLAS kernels, not of the code: the BLAS this
        was confirmed on computes a product of 2-7 rows at C>=32 with a
        kernel that rounds differently, and near-equal chunks never leave
        such a short one (with fixed 512-row chunks, n = 514, 519, 1031
        and 4101 failed on that BLAS).  Another BLAS or CPU may round chunks of any size
        differently from one whole-scan product."""
        self._check_chunked_classify(n, 32)

    def test_stage_errors_raised_for_empty_scan(self):
        feats = FeatureSet(semantic=np.zeros((0, 1)), contrastive=np.zeros((0, 1)))
        with pytest.raises(ValidationError, match="C<2"):
            compute_scores(feats, PrototypeBank(np.ones((1, 1))))


class TestThreadedComputeScores:
    """The pool's size follows the usable CPUs up to ``_MAX_THREADS``;
    tests reach it by patching."""

    @staticmethod
    def _patch_pool(monkeypatch, cpus, cap=scoring._MAX_THREADS):
        sizes = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        if cpus is not None:   # None: the real _usable_cpus
            monkeypatch.setattr(scoring, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(scoring, "_MAX_THREADS", cap)
        monkeypatch.setattr(scoring, "ThreadPoolExecutor", RecordingPool)
        return sizes

    @pytest.mark.parametrize("cpus", [1, 2, 3, 64])
    def test_pool_size_is_capped(self, monkeypatch, cpus):
        sizes = self._patch_pool(monkeypatch, cpus)
        n = 3 * _BLOCK_ROWS + 7
        compute_scores(FeatureSet(semantic=np.ones((n, 4)), contrastive=np.ones((n, 4))),
                       PrototypeBank(np.eye(4)))
        assert sizes == [min(cpus, scoring._MAX_THREADS, len(_row_blocks(n)))]

    @pytest.mark.parametrize("cpus", [None, 1, 3])
    def test_pool_size_without_sched_getaffinity(self, monkeypatch, cpus):
        # where the platform has no affinity mask the CPU count is used, 1 if unknown
        sizes = self._patch_pool(monkeypatch, cpus=None)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        n = 3 * _BLOCK_ROWS + 7
        compute_scores(FeatureSet(semantic=np.ones((n, 4)), contrastive=np.ones((n, 4))),
                       PrototypeBank(np.eye(4)))
        assert sizes == [min(cpus or 1, scoring._MAX_THREADS, len(_row_blocks(n)))]

    @pytest.mark.parametrize("n", [0, 1, 2, 511, 512, 513, _BLOCK_ROWS + 1,
                                   3 * _BLOCK_ROWS + 7])
    def test_bytes_do_not_depend_on_thread_count(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        c = 19
        bank = PrototypeBank(rng.standard_normal((c, c)))
        feats = FeatureSet(semantic=rng.standard_normal((n, c)) * 3.0,
                           contrastive=rng.standard_normal((n, c)) * 0.6)
        outputs = []
        for threads in (1, 2, 3):
            sizes = self._patch_pool(monkeypatch, threads, cap=threads)
            got = compute_scores(feats, bank)
            assert sizes == [min(threads, len(_row_blocks(n)))]
            outputs.append({k: np.asarray(v).tobytes() for k, v in vars(got).items()})
        assert outputs[0] == outputs[1] == outputs[2]

    def test_concurrent_calls_on_a_new_bank(self):
        # the bank's unit rows are set when it is built: calls that start
        # together on a new bank read them as one call does
        rng = np.random.default_rng(21)
        n, c, callers = 3 * _BLOCK_ROWS + 7, 19, 4
        protos = rng.standard_normal((c, c))
        feats = FeatureSet(semantic=rng.standard_normal((n, c)) * 3.0,
                           contrastive=rng.standard_normal((n, c)) * 0.6)

        def scores(bank):
            return {k: np.asarray(v).tobytes() for k, v in vars(compute_scores(feats, bank)).items()}

        want = scores(PrototypeBank(protos))
        bank = PrototypeBank(protos)
        start = threading.Barrier(callers, timeout=60)

        def run(_):
            start.wait()
            return scores(bank)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=callers) as pool:
                got = list(pool.map(run, range(callers), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * callers

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("c, radius, message", [(1, 5.0, "C<2"),
                                                    (4, float("nan"), "radius must be"),
                                                    (4, 0.0, "radius must be")])
    def test_block_error_reaches_caller(self, monkeypatch, threads, c, radius, message):
        self._patch_pool(monkeypatch, threads, cap=threads)
        n = 3 * _BLOCK_ROWS + 7
        feats = FeatureSet(semantic=np.ones((n, c)), contrastive=np.ones((n, c)))
        with pytest.raises(ValidationError, match=message):
            compute_scores(feats, PrototypeBank(np.eye(c)), radius=radius)


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

    def test_read_into_a_reused_buffer(self, tmp_path):
        rng = np.random.default_rng(6)
        small, large = (rng.standard_normal(shape).astype(np.float32)
                        for shape in ((3, 4), (40, 5)))
        write_tensor(tmp_path / "small.ftr", small)
        write_tensor(tmp_path / "large.ftr", large)
        buffer = bytearray()
        for arr, name in ((small, "small"), (large, "large"), (small, "small")):
            back = read_tensor(tmp_path / f"{name}.ftr", buffer)
            assert back.tobytes() == arr.tobytes() and back.shape == arr.shape
            assert not back.flags.writeable
            del back
        # grown once, to the larger file, and not shrunk by the smaller one
        assert len(buffer) == (tmp_path / "large.ftr").stat().st_size

    def test_reused_buffer_keeps_format_errors(self, tmp_path):
        # the buffer still holds a valid tensor's bytes: each error must come
        # from the file read now, not from what an earlier file left behind
        good = tmp_path / "good.ftr"
        write_tensor(good, np.zeros((8, 4), dtype=np.float32))
        (tmp_path / "tiny.ftr").write_bytes(good.read_bytes()[:20])
        (tmp_path / "magic.ftr").write_bytes(b"\x00" * 32)
        (tmp_path / "short.ftr").write_bytes(good.read_bytes()[:-8])
        buffer = bytearray()
        read_tensor(good, buffer)
        for name, match in (("tiny", r"too short for a tensor header \(20 bytes\)"),
                            ("magic", "bad magic"),
                            ("short", r"expected 152 bytes for a 8x4 tensor, got 144")):
            with pytest.raises(FormatError, match=match):
                read_tensor(tmp_path / f"{name}.ftr", buffer)
            with pytest.raises(FormatError, match=match):
                read_tensor(tmp_path / f"{name}.ftr")

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
        bank = PrototypeBank(rng.standard_normal((4, 4)))
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
