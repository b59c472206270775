"""Forward values and analytic gradients of the training losses.

Every loss returns ``(value, gradient)`` where the gradient is taken
with respect to the feature argument, so it can be checked against
central finite differences.  No autodiff framework is involved.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .scoring import PrototypeBank, log_softmax, softmax, squared_norms

# head combination weights, see loss_heads
WEIGHT_CE = 1.0
WEIGHT_LOVASZ = 1.5
WEIGHT_PROTOTYPE = 0.1
WEIGHT_CONTRASTIVE = 0.5
WEIGHT_OBJECTOSPHERE = 0.5
TEMPERATURE = 0.1            # of loss_contrastive


def _check_features_labels(features, labels):
    f = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if f.ndim != 2:
        raise ValidationError("features must be (N, C)")
    if y.shape != (f.shape[0],):
        raise ValidationError("labels must be (N,)")
    if y.size and (y.min() < 0 or y.max() >= f.shape[1]):
        raise ValidationError("labels must lie in [0, C)")
    return f, y


def loss_ce(features, labels, class_weights=None):
    """Weighted cross-entropy over softmax probabilities.

    value = -(1/N) sum_n w[y_n] * log softmax(f_n)[y_n]
    """
    f, y = _check_features_labels(features, labels)
    n, c = f.shape
    w = np.ones(c) if class_weights is None else np.asarray(class_weights, dtype=np.float64)
    if w.shape != (c,):
        raise ValidationError(f"class weights must be ({c},)")
    p = softmax(f)
    point_w = w[y]
    log_p = log_softmax(f)
    value = -(point_w * log_p[np.arange(n), y]).sum() / n

    grad = p * point_w[:, None]
    grad[np.arange(n), y] -= point_w
    grad /= n
    return float(value), grad


def loss_prototype(features, labels, bank: PrototypeBank):
    """Cosine-embedding pull of each feature toward its class prototype.

    value = (1/N) sum_c sum_{p in class c} (1 - cos(prototype_c, f_p))

    Classes without a prototype (a zero row) are skipped: there is no
    direction to pull toward, so their points add zero value and zero
    gradient.
    """
    f, y = _check_features_labels(features, labels)
    n = f.shape[0]
    grad = np.zeros_like(f)
    value = 0.0
    for c in np.unique(y):
        if not bank.initialized[c]:
            continue
        u = bank.unit[c]
        rows = np.flatnonzero(y == c)
        fc = f[rows]
        norms = np.linalg.norm(fc, axis=1)
        ok = norms > 0
        cos = np.zeros(len(rows))
        cos[ok] = (fc[ok] @ u) / norms[ok]
        value += (1.0 - cos).sum()
        # d(1 - cos)/df = -(u - cos * f/|f|) / |f|
        grad[rows[ok]] = -(u[None, :] - cos[ok, None] * fc[ok] / norms[ok, None]) / norms[ok, None]
    return float(value / n), grad / n


def _jaccard_extension_grad(fg_sorted: np.ndarray) -> np.ndarray:
    """Gradient vector of the Lovasz extension of the Jaccard loss for a
    descending-error ordering with ground-truth indicator fg_sorted."""
    gts = fg_sorted.sum()
    intersection = gts - np.cumsum(fg_sorted)
    union = gts + np.cumsum(1.0 - fg_sorted)
    jaccard = 1.0 - intersection / union
    if fg_sorted.size > 1:
        jaccard[1:] = jaccard[1:] - jaccard[:-1]
    return jaccard


def loss_lovasz(features, labels):
    """Lovasz-softmax: per present class, descending-sorted absolute
    errors dotted with the Jaccard-extension gradient, averaged over
    present classes."""
    f, y = _check_features_labels(features, labels)
    n, _ = f.shape
    p = softmax(f)
    present = np.unique(y)

    value = 0.0
    dloss_dp = np.zeros_like(p)
    for c in present:
        fg = (y == c).astype(np.float64)
        errors = np.abs(fg - p[:, c])
        order = np.argsort(-errors, kind="stable")
        g = _jaccard_extension_grad(fg[order])
        value += errors[order] @ g
        # errors = fg - p on foreground (|1-p| = 1-p), = p elsewhere
        sign = np.where(fg > 0, -1.0, 1.0)
        dloss_dp[order, c] += sign[order] * g
    value /= len(present)
    dloss_dp /= len(present)

    # chain rule through the softmax
    inner = (dloss_dp * p).sum(axis=1, keepdims=True)
    grad = p * (dloss_dp - inner)
    return float(value), grad


def mean_class_features(features, labels, num_classes: int):
    """Per-class mean feature vector; zero rows for absent classes.

    Returns (means (num_classes, D), counts (num_classes,)).
    """
    f = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    means = np.zeros((num_classes, f.shape[1]))
    counts = np.zeros(num_classes, dtype=np.int64)
    for c in range(num_classes):
        rows = y == c
        counts[c] = rows.sum()
        if counts[c]:
            means[c] = f[rows].mean(axis=0)
    return means, counts


def loss_contrastive(mean_features, bank: PrototypeBank):
    """Softmax alignment of each class's mean feature with its own
    unit-normalized prototype against all prototypes, at temperature
    ``TEMPERATURE``.

    The denominator sums exp(<mean_c, proto_i>/t) over classes i.  The
    paper's literal form repeats the numerator term there instead, which
    makes the loss the constant C log C whatever the features, so it is
    not used.
    """
    fbar = np.asarray(mean_features, dtype=np.float64)
    if fbar.ndim != 2 or fbar.shape[0] != bank.num_classes:
        raise ValidationError(
            f"mean features must be ({bank.num_classes}, D), got {fbar.shape}")
    bank.require_complete()

    unit = bank.unit
    logits = (fbar @ unit.T) / TEMPERATURE           # (C, C): row c vs every prototype
    probs = softmax(logits)
    own = np.arange(bank.num_classes)
    value = float(-log_softmax(logits)[own, own].sum())

    grad = -(unit - probs @ unit) / TEMPERATURE      # d(-log p_cc)/d fbar_c
    return value, grad


def loss_objectosphere(features, inlier_mask, radius: float):
    """Push inlier feature norms beyond the hypersphere radius; pull any
    non-inlier norms toward zero.  Mean over all points."""
    f = np.asarray(features, dtype=np.float64)
    mask = np.asarray(inlier_mask, dtype=bool)
    if f.ndim != 2 or mask.shape != (f.shape[0],):
        raise ValidationError("features must be (N, D) with an (N,) inlier mask")
    n = f.shape[0]
    sq = squared_norms(f, radius)

    penalty = np.where(mask, np.maximum(radius - sq, 0.0), sq)
    value = float(penalty.mean())

    grad = np.zeros_like(f)
    inside = mask & (sq < radius)
    grad[inside] = -2.0 * f[inside] / n
    grad[~mask] = 2.0 * f[~mask] / n
    return value, grad


def loss_heads(ce: float, lovasz: float, prototype: float, contrastive: float,
               objectosphere: float):
    """Weighted sums per head: (semantic-head loss, contrastive-head loss)."""
    semantic = WEIGHT_CE * ce + WEIGHT_LOVASZ * lovasz + WEIGHT_PROTOTYPE * prototype
    head = WEIGHT_CONTRASTIVE * contrastive + WEIGHT_OBJECTOSPHERE * objectosphere
    return float(semantic), float(head)
