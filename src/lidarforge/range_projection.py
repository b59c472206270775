"""Spherical projection of point clouds onto a range image.

Each point maps to a grid cell via

    u = 0.5 * (1 - atan2(y, x) / pi) * W
    v = (1 - (asin(z / r) + fov_down) / fov) * H

with fov = fov_up + fov_down (radians, positive magnitudes).  Indices
are floored and then clamped, so a point exactly on the lower FOV
boundary stays in the bottom row; points strictly outside the vertical
field of view, and points at the sensor origin (zero range, so no
direction), are discarded.  When several points fall into one cell
the one with the minimum range wins, emulating line of sight.

Cells store the index of the winning point, so re-projection,
``cloud.take(img.surviving_indices())``, recovers the original
coordinates and intensities without quantization loss.

Each projected point costs 12 bytes: its cell as one int32 index,
``row * W + col``, and its float64 range.  Points outside the FOV take
row H, an extra row that ``SensorConfig`` counts in its bound of
2**31 - 1 cells, so every index fits int32.  The formulas run
``_CHUNK`` points at a time through one reused scratch, so the
transient memory of a projection does not grow with the cloud.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._kernels import scatter_min
from .errors import ValidationError
from .scan_io import PointCloud, SensorConfig, check_finite

# points per pass of the projection formulas: a (4, _CHUNK) float64
# scratch of 512 kB, whatever the cloud's size
_CHUNK = 1 << 14


@dataclass(frozen=True)
class RangeImage:
    """H x W projection grid.

    ``point_index`` holds the winning point index per cell (-1 empty),
    ``ranges`` the winning range (+inf empty).  ``source_count`` points
    were projected: the ``scene_count`` points of the cloud, then the
    object points that ``project`` was given, so an index >=
    ``scene_count`` is an object point.
    """

    point_index: np.ndarray
    ranges: np.ndarray
    source_count: int
    scene_count: int

    def __post_init__(self):
        self.point_index.setflags(write=False)
        self.ranges.setflags(write=False)

    @property
    def height(self) -> int:
        return self.point_index.shape[0]

    @property
    def width(self) -> int:
        return self.point_index.shape[1]

    @property
    def filled(self) -> np.ndarray:
        return self.point_index >= 0

    def surviving_indices(self) -> np.ndarray:
        """Winning point indices of all nonempty cells, sorted ascending.

        Ascending original index keeps scene points in their original
        relative order and keeps each appended object contiguous.  Each
        point wins at most one cell, so marking winners in a mask and
        reading it back gives that order without a sort.
        """
        won = np.zeros(self.source_count, dtype=bool)
        won[self.point_index[self.filled]] = True
        return np.flatnonzero(won)


def point_ranges(xyz: np.ndarray) -> np.ndarray:
    """Length of each (x, y, z) or (x, y) row, in float64: the distance
    from the sensor, or from its vertical axis.

    The squares are summed left to right, which equals
    ``np.linalg.norm(xyz, axis=1)`` bit for bit; ``x*x + (y*y + z*z)``
    would round differently.
    """
    pts = np.asarray(xyz)
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise ValidationError(f"points must be (N, 2) or (N, 3), got shape {pts.shape}")
    # one float64 column at a time: no (N, 3) float64 copy of the points
    total = np.square(pts[:, 0], dtype=np.float64)
    for j in range(1, pts.shape[1]):
        total += np.square(pts[:, j], dtype=np.float64)
    return np.sqrt(total, out=total)


def _cell_coords(xyz: np.ndarray, cfg: SensorConfig, cells: np.ndarray,
                 ranges: np.ndarray, scratch: np.ndarray) -> None:
    """Write each point's cell index ``row * cfg.width + col`` and range
    into ``cells`` and ``ranges``; a point outside the vertical FOV gets
    row ``cfg.beams``.

    The points go ``scratch.shape[1]`` at a time through ``scratch``, a
    (4, chunk) float64 buffer: one contiguous column per axis and one
    for the terms.  The ranges are ``point_ranges`` of the axis columns,
    the angles the formulas of the module docstring term by term, so
    every value is bit-identical to those formulas as whole-array
    expressions.  Rows and columns are whole floats below 2**31
    (``SensorConfig`` bounds the grid), so the cell index is exact.
    """
    chunk = scratch.shape[1]
    for lo in range(0, xyz.shape[0], chunk):
        hi = min(lo + chunk, xyz.shape[0])
        x, y, z, t = scratch[:, :hi - lo]
        r = ranges[lo:hi]
        for col, axis in zip((x, y, z), xyz[lo:hi].T):
            np.copyto(col, axis)
        r[...] = point_ranges(scratch[:3, :hi - lo].T)
        # a point at the sensor origin has no direction: it lies outside the FOV
        seen = r > 0.0

        # u = 0.5 * (1 - yaw / pi) * W; the column goes to x, no longer needed
        np.arctan2(y, x, out=t)
        t /= np.pi
        np.subtract(1.0, t, out=t)
        t *= 0.5
        t *= cfg.width
        np.floor(t, out=x)
        np.clip(x, 0, cfg.width - 1, out=x)

        # v = (1 - (asin(z / r) + fov_down) / fov) * H, with z / 1 at the origin
        np.copyto(t, z)
        np.divide(z, r, out=t, where=seen)
        np.clip(t, -1.0, 1.0, out=t)
        np.arcsin(t, out=t)
        t += cfg.fov_down_rad
        t /= cfg.fov_rad
        np.subtract(1.0, t, out=t)
        t *= cfg.beams

        # keep points on the FOV edge despite float32 quantization of inputs
        tol = 1e-4
        seen &= t >= -tol
        seen &= t <= cfg.beams + tol
        np.floor(t, out=t)
        np.clip(t, 0, cfg.beams - 1, out=t)
        np.copyto(t, cfg.beams, where=~seen)
        t *= cfg.width
        t += x
        cells[lo:hi] = t


def project(cloud: PointCloud, cfg: SensorConfig, objects=()) -> RangeImage:
    """Project a cloud, followed by the (M, 3) point blocks of
    ``objects``, onto the range image, resolving cell collisions by
    minimum range.

    Point indices count the cloud's points first, then each block's in
    order, as if the blocks were appended to the cloud with zero
    intensity.  Object coordinates are rounded to float32 first, as such
    a cloud would store them; a block with a non-finite coordinate
    raises ValidationError naming that point's index.  The int32 cell
    index and the float64 range of every point go into one pair of
    buffers, 12 bytes a point, so no combined cloud is built; the
    formulas run ``_CHUNK`` points at a time through one fixed scratch.
    """
    blocks = [np.asarray(pts) for pts in objects]
    for pts in blocks:
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValidationError(f"object points must be (M, 3), got shape {pts.shape}")
    total = cloud.count + sum(len(pts) for pts in blocks)
    if total == 0:
        raise ValidationError("cannot project an empty point cloud")

    cells = np.empty(total, dtype=np.int32)
    ranges = np.empty(total, dtype=np.float64)
    scratch = np.empty((4, min(_CHUNK, total)))
    _cell_coords(cloud.xyz, cfg, cells[:cloud.count], ranges[:cloud.count], scratch)
    start = cloud.count
    for pts in blocks:
        with np.errstate(over="ignore"):   # an overflow to inf is reported below
            pts = pts.astype(np.float32, copy=False)
        check_finite(pts, first_index=start)
        end = start + len(pts)
        _cell_coords(pts, cfg, cells[start:end], ranges[start:end], scratch)
        start = end
    del scratch

    # points outside the FOV compete in one extra row, dropped below, so
    # scatter_min's indices are point indices and its ties stay in index order
    index_grid, range_grid = scatter_min(cells, ranges, cfg.beams + 1, cfg.width)
    return RangeImage(
        point_index=index_grid[:cfg.beams],
        ranges=range_grid[:cfg.beams],
        source_count=total,
        scene_count=cloud.count,
    )


def write_pgm(img: RangeImage, path: str | Path) -> None:
    """Debug export: binary PGM with ranges scaled to 1..255, empty cells 0."""
    grid = np.zeros((img.height, img.width), dtype=np.uint8)
    filled = img.filled
    if filled.any():
        r = img.ranges[filled]
        lo, hi = float(r.min()), float(r.max())
        span = hi - lo if hi > lo else 1.0
        grid[filled] = (1.0 + 254.0 * (r - lo) / span).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + grid.tobytes())
