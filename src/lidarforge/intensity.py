"""Physically-motivated remission values for inserted object points.

Raw intensity follows a Lambertian diffuse model: the return strength
is the material reflectivity times the cosine of the beam incidence
angle, attenuated by squared distance, and zero for surfaces facing
away from the sensor.  Raw values are then rescaled so the object
blends with the average remission of the host scan, and perturbed with
small Gaussian noise.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import ValidationError

DEFAULT_NEIGHBORS = 10
_DEGENERATE_EIGRATIO = 1e-8


class SurfaceNormalField:
    """Per-point unit normals oriented toward the sensor at the origin."""

    __slots__ = ("normals", "neighbor_count", "degenerate")

    def __init__(self, normals: np.ndarray, neighbor_count: int, degenerate: np.ndarray):
        self.normals = normals
        self.neighbor_count = neighbor_count
        self.degenerate = degenerate


def estimate_normals(points: np.ndarray, k: int = DEFAULT_NEIGHBORS) -> SurfaceNormalField:
    """Estimate normals from the k nearest neighbors of each point.

    The normal is the eigenvector of the neighborhood covariance with
    the smallest eigenvalue.  Sign is fixed deterministically (first
    component with magnitude above 1e-12 made positive), then flipped
    toward the sensor at the origin.  Neighborhoods of rank < 2 get the
    sensor-facing direction and are flagged degenerate.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < k + 1:
        raise ValidationError(f"need at least k+1={k + 1} points, got {n}")

    tree = cKDTree(pts)
    _, idx = tree.query(pts, k=k + 1)
    neighbors = pts[idx[:, 1:]]  # drop the query point itself

    centered = neighbors - neighbors.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered)
    eigvals, eigvecs = np.linalg.eigh(cov)

    normals = eigvecs[:, :, 0].copy()
    degenerate = eigvals[:, 1] <= _DEGENERATE_EIGRATIO * np.maximum(eigvals[:, 2], 1e-300)

    # deterministic sign: first component with |v| > 1e-12 positive
    significant = np.abs(normals) > 1e-12
    first = np.argmax(significant, axis=1)
    lead = normals[np.arange(n), first]
    normals[lead < 0] *= -1.0

    # orient toward the sensor
    d = np.linalg.norm(pts, axis=1)
    safe_d = np.where(d > 0, d, 1.0)
    toward_sensor = -pts / safe_d[:, None]
    flip = np.einsum("ij,ij->i", normals, toward_sensor) < 0
    normals[flip] *= -1.0

    normals[degenerate] = toward_sensor[degenerate]
    normals[degenerate & (d == 0)] = (0.0, 0.0, 1.0)

    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    normals = normals / np.where(norms > 0, norms, 1.0)
    return SurfaceNormalField(normals=normals, neighbor_count=k, degenerate=degenerate)


def lambert_intensity(points: np.ndarray, normals: np.ndarray, reflectivity: float) -> np.ndarray:
    """Raw Lambertian intensity for points seen from a sensor at the origin.

    For a point p at distance d with unit surface normal n and beam
    direction r = p/d, the raw intensity is

        reflectivity * max(0, -<n, r>) / d**2

    Accepts a single (3,) point or an (N, 3) array; returns a float or
    an (N,) array accordingly.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    nrm = np.atleast_2d(np.asarray(normals, dtype=np.float64))
    if pts.shape != nrm.shape:
        raise ValidationError(f"points {pts.shape} and normals {nrm.shape} must match")

    d = np.linalg.norm(pts, axis=1)
    if (d == 0).any():
        idx = int(np.flatnonzero(d == 0)[0])
        raise ValidationError(f"zero distance to sensor at index {idx}")
    n_norm = np.linalg.norm(nrm, axis=1)
    if (np.abs(n_norm - 1.0) > 1e-6).any():
        idx = int(np.flatnonzero(np.abs(n_norm - 1.0) > 1e-6)[0])
        raise ValidationError(f"normal at index {idx} is not unit length (|n|={n_norm[idx]:.6g})")

    beam = pts / d[:, None]
    cos_incidence = np.maximum(0.0, -np.einsum("ij,ij->i", nrm, beam))
    out = reflectivity * cos_incidence / d**2
    if np.asarray(points).ndim == 1:
        return float(out[0])
    return out


def normalize_and_noise(raw: np.ndarray, scene_mean: float, sigma: float,
                        seed: int | np.random.Generator,
                        policy: str = "mean") -> np.ndarray:
    """Blend raw object intensities into the host scan.

    policy "mean": rescale so the object's mean raw intensity maps to
    the scan mean (identity when the raw mean is zero).  policy "max":
    rescale so the raw maximum maps to the scan mean.  Gaussian noise
    with standard deviation sigma * scene_mean is added per point, and
    the result is clamped to [0, 1].
    """
    raw = np.asarray(raw, dtype=np.float64)
    if scene_mean <= 0:
        raise ValidationError(f"scene mean intensity must be positive, got {scene_mean}")
    if (raw < 0).any():
        raise ValidationError("raw intensities must be non-negative")
    if policy not in ("mean", "max"):
        raise ValidationError(f"unknown normalization policy {policy!r}")

    anchor = raw.mean() if policy == "mean" else (raw.max() if raw.size else 0.0)
    scaled = raw * (scene_mean / anchor) if anchor > 0 else raw.copy()

    rng = np.random.default_rng(seed)
    if sigma > 0:
        scaled = scaled + rng.normal(0.0, sigma * scene_mean, size=raw.shape)
    return np.clip(scaled, 0.0, 1.0)
