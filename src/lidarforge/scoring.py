"""Anomaly scoring on per-point feature vectors.

Two heads feed the scorer: the semantic head's pre-softmax features
drive a cosine-distance score against per-class confidence-weighted
prototypes plus a normalized-entropy score, and the contrastive head's
feature norms drive a hypersphere score that reads small norms as
anomalous.  The fused score is the mean of the two head scores.  The
cosine distance reads only each point's best similarity (``classify``
returns the similarity matrix), so no point is assigned a class.

``compute_scores`` splits a scan into row blocks and scores them on a
thread pool that lives for one call: one thread per CPU the process
may use, at most ``_MAX_THREADS`` and at most one per block.  Each
block writes its own slices of preallocated outputs, so the bytes do
not depend on the thread count.  The threads share one scan: ``score``
still keeps one scan alive at a time, and each thread keeps one
block's float64 temporaries.  They also share one ``PrototypeBank``,
which computes its unit prototypes when it is built, so the threads
only read it.  ``classify`` runs its matmul in chunks
of at most ``_MATMUL_ROWS`` rows: a block-sized matmul is above
OpenBLAS's threading size, and the BLAS thread it would wake competes
with the pool.  ``read_tensor`` can read into a caller's buffer, which
``score`` reuses for each head across scans, so a scan's two file
buffers are not freed and faulted in again for the next scan.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
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
# threads per compute_scores call.  Each keeps three (_BLOCK_ROWS, C) float64
# temporaries alive (1.9 MB at C=19), so a cap keeps the working set from
# growing with the CPU count.  Smaller blocks per thread do not help: their
# Python steps hold the GIL, and 2 threads on 512-row blocks scored slower
# than 1 thread on 4096-row blocks (2 vCPUs, x86-64).
_MAX_THREADS = 2
# rows per matmul chunk in classify: 512 * 19 * 19 stays below OpenBLAS's
# threading size (M * N * K > 4 * 65536), so each gemm runs on its caller's thread
_MATMUL_ROWS = 512
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
    """Per-class prototypes (C, C): the scoring model.

    A class has a prototype iff its row has a nonzero norm, which for
    the float32 tensors ``score`` reads is iff the row is nonzero; a
    zero row is a class that never saw a true positive.  ``unit`` (the
    rows scaled to unit norm, a zero row kept zero) and ``initialized``
    (the rows with a prototype) are computed once, at construction, so
    threads may read them at the same time.  The bank keeps a read-only
    copy of the tensor it is given, so neither can go stale.
    """

    prototypes: np.ndarray
    unit: np.ndarray = field(init=False, repr=False, compare=False)
    initialized: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        protos = np.array(self.prototypes, dtype=np.float64)
        if protos.ndim != 2:
            raise ValidationError("prototype bank needs (C, D) prototypes")
        if not np.isfinite(protos).all():
            raise ValidationError("prototypes must be finite")
        unit, zero = _unit_rows(protos)
        for name, value in (("prototypes", protos), ("unit", unit), ("initialized", ~zero)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def num_classes(self) -> int:
        return self.prototypes.shape[0]

    def require_complete(self) -> None:
        """Raise ValidationError unless every class has a prototype."""
        if not self.initialized.all():
            missing = np.flatnonzero(~self.initialized).tolist()
            raise ValidationError(f"prototype bank has uninitialized classes: {missing}")


def accumulate_prototypes(features: np.ndarray, labels: np.ndarray,
                          predictions: np.ndarray) -> PrototypeBank:
    """Confidence-weighted mean of true-positive features per class.

    Features must be finite.  The confidence of a point is the maximum
    component of its feature vector.
    If any true positive of a class has non-positive confidence, the
    class's confidences are shifted by their minimum plus a small
    epsilon so the weighting stays well defined (a warning is emitted).
    Classes without true positives keep a zero row: no prototype.
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
    kappa = f.max(axis=1)

    prototypes = np.zeros((n_classes, n_classes))
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
        prototypes[c] = (k[:, None] * f[tp]).sum(axis=0) / k.sum()
    return PrototypeBank(prototypes)


def _unit_rows(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(mat, axis=1)
    zero = norms == 0
    safe = np.where(zero, 1.0, norms)
    return mat / safe[:, None], zero


def classify(features: np.ndarray, bank: PrototypeBank) -> np.ndarray:
    """The (N, C) cosine similarity of each feature row to each class's
    prototype.

    Features and prototypes are compared as unit-normalized vectors,
    which bounds similarities by 1.  Zero-norm feature vectors get
    all-zero similarity.
    """
    f = np.asarray(features, dtype=np.float64)
    bank.require_complete()
    fu, zero = _unit_rows(f)
    unit_t = bank.unit.T
    sim = np.empty((f.shape[0], unit_t.shape[1]))
    for lo, hi in _row_blocks(f.shape[0], _MATMUL_ROWS):
        np.matmul(fu[lo:hi], unit_t, out=sim[lo:hi])
    sim[zero] = 0.0
    return sim


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


def check_radius(radius: float) -> None:
    """Raise ValidationError unless the hypersphere ``radius`` is positive and finite."""
    if not 0 < radius < math.inf:
        raise ValidationError(f"radius must be positive and finite, got {radius}")


def squared_norms(features: np.ndarray, radius: float) -> np.ndarray:
    """Each feature row's squared norm in float64, for a comparison with
    the hypersphere ``radius``, which must be positive and finite."""
    check_radius(radius)
    f = np.asarray(features, dtype=np.float64)
    return np.einsum("ij,ij->i", f, f)


def score_contrastive(features: np.ndarray,
                      radius: float = DEFAULT_NORM_THRESHOLD) -> np.ndarray:
    """Hypersphere score: 1 at zero feature norm, 0 once the squared
    norm reaches the radius."""
    return np.maximum(0.0, 1.0 - squared_norms(features, radius) / radius)


def score_fused(semantic_score: np.ndarray, contrastive_score: np.ndarray) -> np.ndarray:
    return 0.5 * (np.asarray(semantic_score, dtype=np.float64)
                  + np.asarray(contrastive_score, dtype=np.float64))


@dataclass(frozen=True)
class ScoreVector:
    """All per-point anomaly scores of one scan, each in [0, 1]: no
    predicted class."""

    cosine: np.ndarray
    entropy: np.ndarray
    semantic: np.ndarray
    contrastive: np.ndarray
    fused: np.ndarray
    semantic_peak: float    # per-scan max used to normalize the semantic score

    def by_name(self, name: str) -> np.ndarray:
        try:
            return dict(zip(SCORE_NAMES, (self.fused, self.semantic, self.contrastive,
                                          self.cosine, self.entropy)))[name]
        except KeyError:
            raise ValidationError(f"unknown score name {name!r}") from None


def _row_blocks(n: int, rows: int = _BLOCK_ROWS) -> list[tuple[int, int]]:
    """Spans ``(lo, hi)`` covering ``range(n)`` in the fewest blocks of
    at most ``rows`` rows, their sizes differing by at most one (one
    empty span when ``n == 0``).

    So no block is much shorter than the others: numpy computes a 1-row
    matmul as a matrix-vector product, and OpenBLAS computes a matmul of
    a few rows with another kernel, both of which round differently.
    """
    count = max(1, -(-n // rows))
    bounds = [i * n // count for i in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def compute_scores(features: FeatureSet, bank: PrototypeBank,
                   radius: float = DEFAULT_NORM_THRESHOLD) -> ScoreVector:
    """Run the full scoring path on one scan's features: its ``ScoreVector``.

    The per-point stages run on row blocks, on one thread per usable
    CPU up to ``_MAX_THREADS``; only the semantic score, which needs
    the per-scan peak, runs on the whole scan.  The result is bitwise
    equal to running each stage on the whole scan, whatever the thread
    count.  The blocks read the bank's unit prototypes, set when the
    bank was built, so one bank may serve concurrent calls.  Raises
    ValidationError unless the prototypes are (C, C) for C-class
    features; a block's ValidationError reaches the caller as raised.
    """
    n, c = features.count, features.num_classes
    if bank.prototypes.shape != (c, c):
        raise ValidationError(f"prototypes must be ({c}, {c}) for {c}-class features, "
                              f"got {bank.prototypes.shape}")
    s_cos, s_ent, s_cont = np.empty(n), np.empty(n), np.empty(n)

    def score_block(span: tuple[int, int]) -> None:
        lo, hi = span
        # one float64 conversion per block, shared by both semantic scores
        sem = np.asarray(features.semantic[lo:hi], dtype=np.float64)
        # entropy first: its temporaries are freed before classify makes its
        # own, so three (rows, C) arrays are alive at a time, not four
        s_ent[lo:hi] = score_entropy(sem)
        s_cos[lo:hi] = score_cosine(classify(sem, bank))
        s_cont[lo:hi] = score_contrastive(features.contrastive[lo:hi], radius=radius)

    spans = _row_blocks(n)
    with ThreadPoolExecutor(max_workers=min(_usable_cpus(), _MAX_THREADS, len(spans))) as pool:
        # list() reads the results in order: the first failing block's error is raised here
        list(pool.map(score_block, spans))
    s_sem, peak = score_semantic(s_cos, s_ent)
    return ScoreVector(
        cosine=s_cos, entropy=s_ent, semantic=s_sem, contrastive=s_cont,
        fused=score_fused(s_sem, s_cont), semantic_peak=peak,
    )


def write_tensor(path: str | os.PathLike, array: np.ndarray) -> None:
    """Write a 2-D float32 tensor: header (magic, N, C as little-endian
    uint64) followed by row-major float32 values."""
    arr = np.ascontiguousarray(array, dtype="<f4")
    if arr.ndim != 2:
        raise ValidationError(f"tensor must be 2-D, got shape {arr.shape}")
    header = np.array([TENSOR_MAGIC, arr.shape[0], arr.shape[1]], dtype="<u8")
    Path(path).write_bytes(header.tobytes() + arr.tobytes())


def read_tensor(path: str | os.PathLike, buffer: bytearray | None = None) -> np.ndarray:
    """Read a tensor written by ``write_tensor`` as a read-only float32
    (N, C) view of the file's bytes, not a copy.

    The bytes are read into ``buffer``, grown when the file needs more,
    or into a new buffer of the file's size.  So a caller reading file
    after file into one buffer reuses one allocation instead of freeing
    and faulting in a new one each time.  The array views the buffer:
    it must die before the buffer is read into again.
    """
    with open(path, "rb") as f:
        need = os.fstat(f.fileno()).st_size
        if buffer is None:
            buffer = bytearray(need)
        elif len(buffer) < need:
            buffer.extend(bytes(need - len(buffer)))
        size = f.readinto(memoryview(buffer)[:need])
    if size < _HEADER_BYTES:
        raise FormatError(f"{path}: too short for a tensor header ({size} bytes)")
    magic, rows, cols = np.frombuffer(buffer, dtype="<u8", count=3)
    if magic != TENSOR_MAGIC:
        raise FormatError(f"{path}: bad magic 0x{int(magic):016x}")
    expected = _HEADER_BYTES + int(rows) * int(cols) * 4
    if size != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes for a {rows}x{cols} tensor, got {size}")
    values = np.frombuffer(buffer, dtype="<f4", count=int(rows) * int(cols),
                           offset=_HEADER_BYTES)
    values.flags.writeable = False
    return values.reshape(int(rows), int(cols))


def write_scores(path_base: str | os.PathLike, scores: ScoreVector,
                 which: str = "fused") -> None:
    """Write one score channel as raw float32 to ``<path_base>.scores``,
    plus a text sidecar ``<path_base>.scores.meta`` with the per-scan
    normalization peak.  The suffixes are appended to the whole name, so
    a stem with dots (``a.1``, nuScenes' ``*.pcd``) keeps them."""
    base = os.fspath(path_base)
    values = scores.by_name(which).astype("<f4")
    Path(base + ".scores").write_bytes(values.tobytes())
    write_keyvalue(base + ".scores.meta", {
        "score": which,
        "count": values.shape[0],
        "semantic_peak": f"{scores.semantic_peak:.12g}",
    })


def read_scores(path: str | os.PathLike) -> np.ndarray:
    """Read a raw float32 ``.scores`` file as float32: a read-only view
    of the file's bytes.  The metrics take float32 as it is, since
    widening to float64 is exact and changes no metric."""
    return read_records(path, "<f4", 1, "score file").ravel()
