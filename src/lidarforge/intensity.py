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
_VOXEL_SCALE = 3.0           # search voxel edge over the sample spacing on the bounding box's surface
_VOXELS_PER_POINT = 8        # a finer grid means a cloud too thin to bin
_PAIR_BUDGET = 1 << 15       # (query, point) pairs whose distances a search holds at once


def _chunks(pairs: np.ndarray):
    """(start, stop) ranges of consecutive queries, the ``pairs[i]``
    candidates of query i, that each hold at most _PAIR_BUDGET pairs
    plus those of their last query."""
    first = np.cumsum(pairs) - pairs
    cuts = np.flatnonzero(np.diff(first // _PAIR_BUDGET)) + 1
    bounds = [0, *cuts.tolist(), len(pairs)] if len(pairs) else []
    return zip(bounds[:-1], bounds[1:])


def _squared_distances(diff: np.ndarray) -> np.ndarray:
    """Squared lengths of the per-axis differences ``diff[0]``,
    ``diff[1]``, ``diff[2]``, summed x, then y, then z, as cKDTree sums
    them; ``diff`` is overwritten."""
    diff *= diff
    d2 = diff[0]
    d2 += diff[1]
    d2 += diff[2]
    return d2


def _nearest_in_rows(d2: np.ndarray):
    """(columns, values) of the DEFAULT_NEIGHBORS + 1 smallest entries
    of each row of ``d2``, nearest first."""
    k = DEFAULT_NEIGHBORS
    part = np.argpartition(d2, k, axis=1)[:, :k + 1]
    vals = np.take_along_axis(d2, part, axis=1)
    order = np.argsort(vals, axis=1, kind="stable")
    return np.take_along_axis(part, order, axis=1), np.take_along_axis(vals, order, axis=1)


def _query_blocks(cols: np.ndarray, at: np.ndarray):
    """(crop, run_start, run_len, radius) for the queries ``cols[:, at]``
    among the (3, N) per-axis coordinates ``cols``, or None when the
    cloud is degenerate (a bounding box without area, a non-finite size,
    far more voxels than points).

    ``crop`` holds the indices of the points in the 3x3x3 voxel block
    around the voxel of each query, sorted by voxel key.  z varies
    fastest in a key, so a block is nine runs of three consecutive
    keys: run j of query i is the ``run_len[9i + j]`` entries of
    ``crop`` from ``run_start[9i + j]`` on.  Every point of ``cols``
    closer than ``radius`` to a query is in its block.

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
    n = cols.shape[1]
    lo = cols.min(axis=1)
    extent = (cols.max(axis=1) - lo).tolist()
    a, b, c = extent
    h = _VOXEL_SCALE * math.sqrt(2 * (a * b + b * c + c * a) / n)
    if not (0 < h < math.inf and math.prod(e / h + 3 for e in extent) <= _VOXELS_PER_POINT * n):
        return None
    dims = [int(e / h) + 3 for e in extent]  # one voxel of padding on each side
    cells = cols - lo[:, None]
    cells *= 1 / h
    cells = cells.astype(np.int32)  # each below its dim, which _VOXELS_PER_POINT * n bounds
    keys = cells[0].astype(np.intp)
    keys *= dims[1]
    keys += cells[1]
    keys *= dims[2]
    keys += cells[2]
    keys += (dims[1] + 1) * dims[2] + 1  # the padding: one more voxel on each axis
    step = np.arange(-1, 2)
    columns = ((step[:, None] * dims[1] + step) * dims[2]).ravel()
    runs = (keys[at][:, None] + (columns - 1)).ravel()  # each run's first key
    near = np.zeros(math.prod(dims), dtype=bool)
    for dz in range(3):
        near[runs + dz] = True
    crop = np.flatnonzero(near[keys])
    crop_keys = keys[crop]
    crop = crop[np.argsort(crop_keys)]
    first = np.zeros(len(near) + 1, dtype=np.intp)  # each key's first position in crop
    np.cumsum(np.bincount(crop_keys, minlength=len(near)), out=first[1:])
    run_start = first[runs]
    return crop, run_start, first[runs + 3] - run_start, h * (1 - 1e-3)


def _query_neighbourhood(cols: np.ndarray, at: np.ndarray):
    """(idx, found): the DEFAULT_NEIGHBORS + 1 nearest points, nearest
    first, of each query ``cols[:, at]`` among the (3, N) per-axis
    coordinates ``cols``, searched in the query's voxel block
    (``_query_blocks``).  ``found`` is False, and that row of ``idx``
    undefined, where the block cannot prove the row exact: the query's
    (k+1)-th nearest point in its block is not closer than the radius,
    or the cloud is degenerate.  Otherwise no point outside the block
    is that close, so the row is the exact answer.
    """
    k = DEFAULT_NEIGHBORS
    m = len(at)
    idx = np.empty((m, k + 1), dtype=np.intp)
    found = np.zeros(m, dtype=bool)
    blocks = _query_blocks(cols, at)
    if blocks is None:
        return idx, found
    crop, run_start, run_len, radius = blocks
    pairs = run_len.reshape(m, 9).sum(axis=1)
    crop_cols = np.take(cols, crop, axis=1)
    query_cols = np.take(cols, at, axis=1)
    r2 = radius * radius
    for q0, q1 in _chunks(pairs):
        # each candidate's position in crop, query by query
        lens = run_len[9 * q0:9 * q1]
        pos = np.repeat(run_start[9 * q0:9 * q1] - (np.cumsum(lens) - lens), lens)
        pos += np.arange(len(pos))
        diff = np.take(crop_cols, pos, axis=1)
        diff -= np.repeat(query_cols[:, q0:q1], pairs[q0:q1], axis=1)
        d2 = _squared_distances(diff)
        # only candidates within the radius can be proven nearest: pad them into rows
        close = np.flatnonzero(d2 < r2)
        owner = np.repeat(np.arange(q1 - q0), pairs[q0:q1])[close]
        count = np.bincount(owner, minlength=q1 - q0)
        offset = np.cumsum(count) - count
        padded = np.full((q1 - q0, max(int(count.max()), k + 1)), np.inf)
        padded[owner, np.arange(len(owner)) - offset[owner]] = d2[close]
        col, vals = _nearest_in_rows(padded)
        ok = vals[:, k] < r2
        idx[q0:q1][ok] = crop[pos[close[offset[ok, None] + col[ok]]]]
        found[q0:q1] = ok
    return idx, found


def _brute_force_neighbourhood(cols: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The DEFAULT_NEIGHBORS + 1 nearest points, nearest first, of each
    query ``cols[:, at]`` among all of the (3, N) coordinates ``cols``."""
    idx = np.empty((len(at), DEFAULT_NEIGHBORS + 1), dtype=np.intp)
    for q0, q1 in _chunks(np.full(len(at), cols.shape[1])):
        d2 = _squared_distances(cols[:, None, :] - np.take(cols, at[q0:q1, None], axis=1))
        idx[q0:q1] = _nearest_in_rows(d2)[0]
    return idx


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

    Neighbors come from an exact search in numpy on a voxel grid
    (``_query_neighbourhood``): the points in the 3x3x3 voxel block
    around each query's voxel.  A query whose farthest neighbor is not
    provably inside that block, and every query of a cloud too
    degenerate to bin (collinear, say), is searched among all of
    ``points`` instead.  Both searches hold the distances of at most
    about _PAIR_BUDGET (query, point) pairs at once.  Either way the
    result is the exact k+1 nearest neighbors in distance order, with
    squared distances summed as cKDTree sums them, so the normals are
    those of a KD-tree search.  Only points at exactly equal distances
    could come back in a different order, or, when they tie for the
    last place, another of them be taken.
    """
    k = DEFAULT_NEIGHBORS
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < k + 1:
        raise ValidationError(f"need at least k+1={k + 1} points, got {n}")

    at = np.asarray(at, dtype=np.intp)
    query = pts[at]
    m = query.shape[0]
    cols = np.ascontiguousarray(pts.T)  # per-axis: numpy is slow at broadcasting over (N, 3) rows
    idx, found = _query_neighbourhood(cols, at)
    idx[~found] = _brute_force_neighbourhood(cols, at[~found])
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
