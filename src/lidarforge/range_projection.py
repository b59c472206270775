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
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._kernels import scatter_min
from .errors import ValidationError
from .scan_io import PointCloud, SensorConfig


@dataclass(frozen=True)
class RangeImage:
    """H x W projection grid.

    ``point_index`` holds the winning point index per cell (-1 empty),
    ``ranges`` the winning range (+inf empty).  Points with original
    index >= ``scene_count`` carry object provenance; the rest are
    scene points.
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
    pts = np.asarray(xyz, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise ValidationError(f"points must be (N, 2) or (N, 3), got shape {pts.shape}")
    total = pts[:, 0] * pts[:, 0]
    for j in range(1, pts.shape[1]):
        total += pts[:, j] * pts[:, j]
    return np.sqrt(total, out=total)


def _cell_coords(xyz: np.ndarray, cfg: SensorConfig):
    """Return (rows, cols, ranges, in_fov mask) for every point."""
    pts = np.asarray(xyz, dtype=np.float64)
    ranges = point_ranges(pts)
    # a point at the sensor origin has no direction: it lies outside the FOV
    seen = ranges > 0.0

    yaw = np.arctan2(pts[:, 1], pts[:, 0])
    elevation = np.arcsin(np.clip(pts[:, 2] / np.where(seen, ranges, 1.0), -1.0, 1.0))

    u = 0.5 * (1.0 - yaw / np.pi) * cfg.width
    v = (1.0 - (elevation + cfg.fov_down_rad) / cfg.fov_rad) * cfg.beams

    # keep points on the FOV edge despite float32 quantization of inputs
    tol = 1e-4
    in_fov = seen & (v >= -tol) & (v <= cfg.beams + tol)
    cols = np.clip(np.floor(u).astype(np.int64), 0, cfg.width - 1)
    rows = np.clip(np.floor(v).astype(np.int64), 0, cfg.beams - 1)
    return rows, cols, ranges, in_fov


def project(cloud: PointCloud, cfg: SensorConfig, scene_count: int | None = None) -> RangeImage:
    """Project a cloud onto the range image, resolving cell collisions
    by minimum range.

    ``scene_count`` marks the boundary between scene points (indices
    below it) and appended object points; it defaults to the whole
    cloud being scene.
    """
    if cloud.count == 0:
        raise ValidationError("cannot project an empty point cloud")
    if scene_count is None:
        scene_count = cloud.count
    if not 0 <= scene_count <= cloud.count:
        raise ValidationError(f"scene_count {scene_count} out of range for N={cloud.count}")

    rows, cols, ranges, in_fov = _cell_coords(cloud.xyz, cfg)

    keep = np.flatnonzero(in_fov)
    index_grid, range_grid = scatter_min(rows[keep], cols[keep], ranges[keep],
                                         cfg.beams, cfg.width)
    # scatter_min indexes into the filtered arrays; map back to cloud indices
    filled = index_grid >= 0
    index_grid[filled] = keep[index_grid[filled]]
    return RangeImage(
        point_index=index_grid,
        ranges=range_grid,
        source_count=cloud.count,
        scene_count=scene_count,
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
