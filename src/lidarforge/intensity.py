"""Physically-motivated remission values for inserted object points.

Raw intensity follows a Lambertian diffuse model: the return strength
is the material reflectivity times the cosine of the beam incidence
angle, attenuated by squared distance, and zero for surfaces facing
away from the sensor.  Raw values are then rescaled so the object
blends with the average remission of the host scan, and perturbed with
small Gaussian noise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .range_projection import point_ranges

DEFAULT_NEIGHBORS = 10
NOISE_SCALE = 0.05           # intensity noise std as a share of the scan's mean remission
_DEGENERATE_EIGRATIO = 1e-8
_VOXEL_SCALE = 3.0           # crop voxel edge over the sample spacing on the bounding box's surface
_VOXELS_PER_POINT = 8        # a finer grid means a cloud too thin to crop by voxels


def _query_neighbourhood(points: np.ndarray, at: np.ndarray):
    """(crop, radius): the indices of the points that lie in the 3x3x3
    voxel block around the voxel of each query ``points[at]``, and the
    distance within which every point of ``points`` near a query is sure
    to be in ``crop``.  (None, 0.0) when the cloud is degenerate (a
    bounding box without area, a non-finite size, far more voxels than
    points) or the crop holds at most DEFAULT_NEIGHBORS points.

    The voxel edge h is _VOXEL_SCALE times sqrt(A / n), the spacing of n
    samples spread over the surface A = 2(ab + bc + ca) of the bounding
    box with edges a, b, c.  Surface samples are spaced by area, not by
    volume, so this holds for plates as for cubes: at 50 000 points, the
    11th neighbor of every point that survives projection lay within 2.9
    spacings on cubes, 1:10 and 1:25 plates, bars, chairs, tables,
    shelves and doors.  A point closer than h to a query differs from it
    by less than h on each axis, so it lies in the query's block; the
    radius stays 0.1% under h so that rounding in the voxel keys cannot
    move such a point out.
    """
    n = points.shape[0]
    cols = points.T  # per-axis: numpy is slow at broadcasting over (N, 3) rows
    lo = [float(col.min()) for col in cols]
    extent = [float(col.max()) - low for col, low in zip(cols, lo)]
    a, b, c = extent
    h = _VOXEL_SCALE * math.sqrt(2 * (a * b + b * c + c * a) / n)
    if not (0 < h < math.inf and math.prod(e / h + 3 for e in extent) <= _VOXELS_PER_POINT * n):
        return None, 0.0
    dims = [int(e / h) + 3 for e in extent]  # one voxel of padding on each side
    keys = np.zeros(n, dtype=np.int64)
    for axis, size in enumerate(dims):
        cell = cols[axis] - lo[axis]
        cell /= h
        keys *= size
        keys += cell.astype(np.int64)
    keys += (dims[1] + 1) * dims[2] + 1  # the padding: one more voxel on each axis
    step = np.arange(-1, 2)
    block = ((step[:, None, None] * dims[1] + step[:, None]) * dims[2] + step).ravel()
    near = np.zeros(math.prod(dims), dtype=bool)
    near[keys[at][:, None] + block] = True
    crop = np.flatnonzero(near[keys])
    if len(crop) <= DEFAULT_NEIGHBORS:
        return None, 0.0
    return crop, h * (1 - 1e-3)


def estimate_normals(points: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Unit normals at ``points[at]``, one row per entry of the integer
    index array ``at``, from the DEFAULT_NEIGHBORS nearest neighbors of
    each query point among all of ``points``.

    The normal is the eigenvector of the neighborhood covariance with
    the smallest eigenvalue.  Sign is fixed deterministically (first
    component with magnitude above 1e-12 made positive), then flipped
    toward the sensor at the origin.  A neighborhood of rank < 2 gets
    the sensor-facing direction, or (0, 0, 1) at the origin.  Every step
    is per point, so the cost is that of ``len(at)`` points, not
    ``len(points)``, and an entry's normal does not depend on the other
    entries of ``at`` unless its neighbors tie (see below).

    Neighbors come from a sliding-midpoint KD-tree (``cKDTree`` with
    ``balanced_tree=False, compact_nodes=False``), which builds in about
    half the time of a balanced one.  The tree is built over the
    queries' neighbourhood only: the points in the 3x3x3 voxel block
    around each query's voxel (``_query_neighbourhood``).  When a
    query's farthest neighbor is not provably inside that block, or the
    cloud is too degenerate to bin (collinear, say), the tree is built
    over all of ``points`` instead.  Either way the result is the exact
    k+1 nearest neighbors in distance order.  Only points at exactly
    equal distances could come back in a different order, or, when
    they tie for the last place, another of them be taken.

    scipy is imported here, on the first call, and nowhere else in the
    package: ``score``, ``eval`` and ``project`` run on numpy alone, and
    only a forge that inserts an object loads ``scipy.spatial``.
    """
    from scipy.spatial import cKDTree

    k = DEFAULT_NEIGHBORS
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < k + 1:
        raise ValidationError(f"need at least k+1={k + 1} points, got {n}")

    query = pts[at]
    m = query.shape[0]
    idx = None
    crop, radius = _query_neighbourhood(pts, at)
    if crop is not None:
        dist, local = cKDTree(np.take(pts, crop, axis=0), balanced_tree=False,
                              compact_nodes=False).query(query, k=k + 1)
        if (dist[:, k] < radius).all():
            idx = crop[local]
    if idx is None:
        tree = cKDTree(pts, balanced_tree=False, compact_nodes=False)
        _, idx = tree.query(query, k=k + 1)
    neighbors = pts[idx[:, 1:]]  # drop the query point itself

    centered = neighbors - neighbors.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered)
    eigvals, eigvecs = np.linalg.eigh(cov)

    normals = eigvecs[:, :, 0].copy()
    degenerate = eigvals[:, 1] <= _DEGENERATE_EIGRATIO * np.maximum(eigvals[:, 2], 1e-300)

    # deterministic sign: first component with |v| > 1e-12 positive
    significant = np.abs(normals) > 1e-12
    first = np.argmax(significant, axis=1)
    lead = normals[np.arange(m), first]
    normals[lead < 0] *= -1.0

    # orient toward the sensor
    d = point_ranges(query)
    safe_d = np.where(d > 0, d, 1.0)
    toward_sensor = -query / safe_d[:, None]
    flip = np.einsum("ij,ij->i", normals, toward_sensor) < 0
    normals[flip] *= -1.0

    normals[degenerate] = toward_sensor[degenerate]
    normals[degenerate & (d == 0)] = (0.0, 0.0, 1.0)

    norms = point_ranges(normals)[:, None]
    return normals / np.where(norms > 0, norms, 1.0)


def lambert_intensity(points: np.ndarray, normals: np.ndarray, reflectivity: float) -> np.ndarray:
    """Raw Lambertian intensity, shape (N,), of (N, 3) points seen from
    a sensor at the origin.

    For a point p at distance d with unit surface normal n and beam
    direction r = p/d, the raw intensity is

        reflectivity * max(0, -<n, r>) / d**2
    """
    pts = np.asarray(points, dtype=np.float64)
    nrm = np.asarray(normals, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValidationError(f"points must be (N, 3), got shape {pts.shape}")
    if pts.shape != nrm.shape:
        raise ValidationError(f"points {pts.shape} and normals {nrm.shape} must match")

    d = point_ranges(pts)
    if (d == 0).any():
        idx = int(np.flatnonzero(d == 0)[0])
        raise ValidationError(f"zero distance to sensor at index {idx}")
    n_norm = point_ranges(nrm)
    if (np.abs(n_norm - 1.0) > 1e-6).any():
        idx = int(np.flatnonzero(np.abs(n_norm - 1.0) > 1e-6)[0])
        raise ValidationError(f"normal at index {idx} is not unit length (|n|={n_norm[idx]:.6g})")

    beam = pts / d[:, None]
    cos_incidence = np.maximum(0.0, -np.einsum("ij,ij->i", nrm, beam))
    return reflectivity * cos_incidence / d**2


def normalize_and_noise(raw: np.ndarray, scene_mean: float, scene_max: float,
                        seed: int | np.random.Generator) -> np.ndarray:
    """Blend raw object intensities into the host scan.

    The object's raw intensities are rescaled so their mean maps to the
    scan mean (identity when the raw mean is zero).  Gaussian noise with
    standard deviation NOISE_SCALE * scene_mean is added per point, and
    the result is clamped to the host's scale: [0, 1] when the scan's
    largest intensity ``scene_max`` is at most 1 (kitti-style
    remissions), [0, 255] otherwise (8-bit sensors such as nuScenes).
    A scene mean of 0 is a scan without an intensity channel: the
    rescaled values and the noise are then 0, so every point gets 0.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if scene_mean < 0:
        raise ValidationError(f"scene mean intensity must be non-negative, got {scene_mean}")
    if not np.isfinite(scene_mean):
        # e.g. a float32 mean that overflowed; it would turn every object intensity into nan
        raise ValidationError(f"scene mean intensity must be finite, got {scene_mean}")
    if (raw < 0).any():
        raise ValidationError("raw intensities must be non-negative")

    mean = raw.mean()
    scaled = raw * (scene_mean / mean) if mean > 0 else raw
    noise = np.random.default_rng(seed).normal(0.0, NOISE_SCALE * scene_mean, size=raw.shape)
    return np.clip(scaled + noise, 0.0, 1.0 if scene_max <= 1.0 else 255.0)
