"""Anomaly scoring on per-point feature vectors.

Two heads feed the scorer: the semantic head's pre-softmax features
drive a cosine-distance score against per-class confidence-weighted
prototypes plus a normalized-entropy score, and the contrastive head's
feature norms drive a hypersphere score that reads small norms as
anomalous.  The fused score is the mean of the two head scores.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .configfile import write_keyvalue
from .errors import FormatError, ValidationError
from .scan_io import read_records

DEFAULT_NORM_THRESHOLD = 5.0
# the score channels, by the names score files and ``score --score`` use
SCORE_NAMES = ("fused", "sem", "cont", "cos", "ent")
# rows per block in compute_scores: each (rows, C) temporary stays in cache
_BLOCK_ROWS = 4096
TENSOR_MAGIC = int.from_bytes(b"FEATBIN1", "little")
_HEADER_BYTES = 24


@dataclass(frozen=True)
class FeatureSet:
    """Per-point features of both heads: (N, C) each, C inlier classes."""

    semantic: np.ndarray
    contrastive: np.ndarray

    def __post_init__(self):
        # no float64 copy of the heads: the scores and losses convert what they read
        sem = np.asarray(self.semantic)
        con = np.asarray(self.contrastive)
        if sem.ndim != 2 or con.ndim != 2:
            raise ValidationError("feature matrices must be 2-D (N, C)")
        if sem.shape != con.shape:
            raise ValidationError(
                f"head shapes disagree: semantic {sem.shape} vs contrastive {con.shape}")
        if not (np.isfinite(sem).all() and np.isfinite(con).all()):
            raise ValidationError("features must be finite")
        object.__setattr__(self, "semantic", sem)
        object.__setattr__(self, "contrastive", con)

    @property
    def count(self) -> int:
        return self.semantic.shape[0]

    @property
    def num_classes(self) -> int:
        return self.semantic.shape[1]


@dataclass(frozen=True)
class PrototypeBank:
    """Per-class prototypes (C, C) with their accumulated confidence mass.

    A class whose accumulated weight is zero never saw a true positive
    and counts as uninitialized.
    """

    prototypes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        protos = np.asarray(self.prototypes, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        if protos.ndim != 2 or w.shape != (protos.shape[0],):
            raise ValidationError("prototype bank needs (C, D) prototypes and (C,) weights")
        if not np.isfinite(protos).all():
            raise ValidationError("prototypes must be finite")
        object.__setattr__(self, "prototypes", protos)
        object.__setattr__(self, "weights", w)

    @property
    def initialized(self) -> np.ndarray:
        return self.weights > 0

    @property
    def fully_initialized(self) -> bool:
        return bool(self.initialized.all())

    @property
    def num_classes(self) -> int:
        return self.prototypes.shape[0]

    @cached_property
    def unit(self) -> np.ndarray:
        """The prototypes scaled to unit norm; a zero row stays zero."""
        return _unit_rows(self.prototypes)[0]

    def require_complete(self) -> None:
        """Raise ValidationError unless every class has a prototype."""
        if not self.fully_initialized:
            missing = np.flatnonzero(~self.initialized).tolist()
            raise ValidationError(f"prototype bank has uninitialized classes: {missing}")


def accumulate_prototypes(features: np.ndarray, labels: np.ndarray,
                          predictions: np.ndarray,
                          confidences: np.ndarray | None = None) -> PrototypeBank:
    """Confidence-weighted mean of true-positive features per class.

    Features must be finite.  The confidence of a point defaults to the
    maximum component of its feature vector; given confidences must be
    finite, one per point.
    If any true positive of a class has non-positive confidence, the
    class's confidences are shifted by their minimum plus a small
    epsilon so the weighting stays well defined (a warning is emitted).
    Classes without true positives are left uninitialized.
    """
    f = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if f.ndim != 2:
        raise ValidationError("features must be (N, C)")
    if not np.isfinite(f).all():
        raise ValidationError("features must be finite")
    if labels.shape != (f.shape[0],) or predictions.shape != (f.shape[0],):
        raise ValidationError("labels and predictions must be (N,)")
    n_classes = f.shape[1]
    if confidences is None:
        kappa = f.max(axis=1)
    else:
        kappa = np.asarray(confidences, dtype=np.float64)
        if kappa.shape != (f.shape[0],):
            raise ValidationError(f"confidences must be ({f.shape[0]},), got shape {kappa.shape}")
        if not np.isfinite(kappa).all():
            raise ValidationError("confidences must be finite")

    prototypes = np.zeros((n_classes, n_classes))
    weights = np.zeros(n_classes)
    for c in range(n_classes):
        tp = (labels == c) & (predictions == c)
        if not tp.any():
            continue
        k = kappa[tp]
        if (k <= 0).any():
            warnings.warn(
                f"class {c}: non-positive confidence encountered; "
                "shifting weights by the class minimum")
            k = k - k.min() + 1e-6
        weights[c] = k.sum()
        prototypes[c] = (k[:, None] * f[tp]).sum(axis=0) / weights[c]
    return PrototypeBank(prototypes=prototypes, weights=weights)


def _unit_rows(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(mat, axis=1)
    zero = norms == 0
    safe = np.where(zero, 1.0, norms)
    return mat / safe[:, None], zero


@dataclass(frozen=True)
class ClassificationResult:
    predictions: np.ndarray   # (N,) argmax class, ties to the smaller id
    similarity: np.ndarray    # (N, C)
    degenerate: np.ndarray    # (N,) zero-norm feature vectors


def classify(features: np.ndarray, bank: PrototypeBank) -> ClassificationResult:
    """Predict the inlier class by cosine similarity to each prototype.

    Features and prototypes are compared as unit-normalized vectors,
    which bounds similarities by 1.  Zero-norm feature vectors get
    all-zero similarity and are flagged.
    """
    f = np.asarray(features, dtype=np.float64)
    bank.require_complete()
    fu, zero = _unit_rows(f)
    sim = fu @ bank.unit.T
    sim[zero] = 0.0
    return ClassificationResult(predictions=np.argmax(sim, axis=1),
                                similarity=sim, degenerate=zero)


def score_cosine(similarity: np.ndarray) -> np.ndarray:
    """Distance to the best-matching prototype: 1 - max similarity.

    Clamped to [0, 1]: a point whose best cosine is negative is already
    maximally anomalous, and rounding can put a cosine just above 1.
    """
    return np.clip(1.0 - _row_max(np.asarray(similarity, dtype=np.float64)), 0.0, 1.0)


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=1)`` of a 2-D array, taken one column at a time.

    A maximum is exact in any order and NaN propagates either way, so
    the result equals the reduction bit for bit, except perhaps for the
    sign of a zero maximum, which changes no output of the callers
    (tests cover rows of mixed signed zeros).  The reduction walks each
    short row on its own; on (4096, 19) float64 blocks this loop takes
    about a third of its time (numpy 2.4, x86-64).
    """
    m = a[:, :1].max(axis=1)
    for j in range(1, a.shape[1]):
        np.maximum(m, a[:, j], out=m)
    return m


def _shifted(logits: np.ndarray) -> np.ndarray:
    """The logits as a new float64 array minus each row's maximum."""
    z = np.asarray(logits, dtype=np.float64)
    return z - _row_max(z)[:, None]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (N, C) logits, written into the shifted copy."""
    e = _shifted(logits)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """log(softmax(logits)), computed stably from the shifted logits."""
    z = _shifted(logits)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def score_entropy(features: np.ndarray) -> np.ndarray:
    """Normalized Shannon entropy of the per-point softmax, in [0, 1]."""
    f = np.asarray(features, dtype=np.float64)
    n_classes = f.shape[1]
    if n_classes < 2:
        raise ValidationError(f"entropy undefined for C<2 (got C={n_classes})")
    p = softmax(f)
    # an entry that underflowed to 0 gives 0 * log(0) = nan, which is then zeroed
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.log(p)
        plogp *= p
    np.copyto(plogp, 0.0, where=~(p > 0))
    return -plogp.sum(axis=1) / np.log(n_classes)


def score_semantic(cosine_score: np.ndarray,
                   entropy_score: np.ndarray) -> tuple[np.ndarray, float]:
    """Product of the two semantic-head scores, normalized by the
    per-scan maximum (identity when the maximum is zero).

    Returns ``(scores, peak)``; the peak is the maximum product, 0 for
    an empty scan.
    """
    product = np.asarray(cosine_score, dtype=np.float64) * np.asarray(entropy_score, dtype=np.float64)
    peak = float(product.max()) if product.size else 0.0
    return (product / peak if peak > 0 else product), peak


def score_contrastive(features: np.ndarray,
                      radius: float = DEFAULT_NORM_THRESHOLD) -> np.ndarray:
    """Hypersphere score: 1 at zero feature norm, 0 once the squared
    norm reaches the radius."""
    if not 0 < radius < math.inf:
        raise ValidationError(f"radius must be positive and finite, got {radius}")
    f = np.asarray(features, dtype=np.float64)
    sq = np.einsum("ij,ij->i", f, f)
    return np.maximum(0.0, 1.0 - sq / radius)


def score_fused(semantic_score: np.ndarray, contrastive_score: np.ndarray) -> np.ndarray:
    return 0.5 * (np.asarray(semantic_score, dtype=np.float64)
                  + np.asarray(contrastive_score, dtype=np.float64))


@dataclass(frozen=True)
class ScoreVector:
    """All per-point anomaly scores of one scan, each in [0, 1]."""

    cosine: np.ndarray
    entropy: np.ndarray
    semantic: np.ndarray
    contrastive: np.ndarray
    fused: np.ndarray
    predictions: np.ndarray
    semantic_peak: float    # per-scan max used to normalize the semantic score

    def by_name(self, name: str) -> np.ndarray:
        try:
            return dict(zip(SCORE_NAMES, (self.fused, self.semantic, self.contrastive,
                                          self.cosine, self.entropy)))[name]
        except KeyError:
            raise ValidationError(f"unknown score name {name!r}") from None


def _row_blocks(n: int):
    """Spans ``(lo, hi)`` covering ``range(n)`` in blocks of
    ``_BLOCK_ROWS`` rows (one empty span when ``n == 0``).

    A 1-row tail joins the block before it: numpy computes a 1-row
    matmul as a matrix-vector product, which rounds differently.
    """
    starts = list(range(0, n, _BLOCK_ROWS)) or [0]
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [n])


def compute_scores(features: FeatureSet, bank: PrototypeBank,
                   radius: float = DEFAULT_NORM_THRESHOLD) -> ScoreVector:
    """Run the full scoring path on one scan's features.

    The per-point stages run on row blocks; only the semantic score,
    which needs the per-scan peak, runs on the whole scan.  The result
    is bitwise equal to running each stage on the whole scan.  Raises
    ValidationError unless the prototypes are (C, C) for C-class
    features.
    """
    n, c = features.count, features.num_classes
    if bank.prototypes.shape != (c, c):
        raise ValidationError(f"prototypes must be ({c}, {c}) for {c}-class features, "
                              f"got {bank.prototypes.shape}")
    predictions = np.empty(n, dtype=np.intp)
    s_cos, s_ent, s_cont = np.empty(n), np.empty(n), np.empty(n)
    for lo, hi in _row_blocks(n):
        # one float64 conversion per block, shared by both semantic scores
        sem = np.asarray(features.semantic[lo:hi], dtype=np.float64)
        result = classify(sem, bank)
        predictions[lo:hi] = result.predictions
        s_cos[lo:hi] = score_cosine(result.similarity)
        s_ent[lo:hi] = score_entropy(sem)
        s_cont[lo:hi] = score_contrastive(features.contrastive[lo:hi], radius=radius)
    s_sem, peak = score_semantic(s_cos, s_ent)
    return ScoreVector(
        cosine=s_cos, entropy=s_ent, semantic=s_sem, contrastive=s_cont,
        fused=score_fused(s_sem, s_cont), predictions=predictions,
        semantic_peak=peak,
    )


def write_tensor(path: str | os.PathLike, array: np.ndarray) -> None:
    """Write a 2-D float32 tensor: header (magic, N, C as little-endian
    uint64) followed by row-major float32 values."""
    arr = np.ascontiguousarray(array, dtype="<f4")
    if arr.ndim != 2:
        raise ValidationError(f"tensor must be 2-D, got shape {arr.shape}")
    header = np.array([TENSOR_MAGIC, arr.shape[0], arr.shape[1]], dtype="<u8")
    Path(path).write_bytes(header.tobytes() + arr.tobytes())


def read_tensor(path: str | os.PathLike) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER_BYTES:
        raise FormatError(f"{path}: too short for a tensor header ({len(raw)} bytes)")
    magic, rows, cols = np.frombuffer(raw[:_HEADER_BYTES], dtype="<u8")
    if magic != TENSOR_MAGIC:
        raise FormatError(f"{path}: bad magic 0x{int(magic):016x}")
    expected = _HEADER_BYTES + int(rows) * int(cols) * 4
    if len(raw) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes for a {rows}x{cols} tensor, got {len(raw)}")
    # a read-only view of the file's bytes, not a copy
    return np.frombuffer(raw, dtype="<f4", offset=_HEADER_BYTES).reshape(int(rows), int(cols))


def write_scores(path_base: str | os.PathLike, scores: ScoreVector,
                 which: str = "fused") -> None:
    """Write one score channel as raw float32 plus a text sidecar with
    the per-scan normalization peak."""
    base = Path(path_base)
    values = scores.by_name(which).astype("<f4")
    base.with_suffix(".scores").write_bytes(values.tobytes())
    write_keyvalue(base.with_suffix(".scores.meta"), {
        "score": which,
        "count": values.shape[0],
        "semantic_peak": f"{scores.semantic_peak:.12g}",
    })


def read_scores(path: str | os.PathLike) -> np.ndarray:
    """Read a raw float32 ``.scores`` file as float32: a read-only view
    of the file's bytes.  The metrics take float32 as it is, since
    widening to float64 is exact and changes no metric."""
    return read_records(path, "<f4", 1, "score file").ravel()
