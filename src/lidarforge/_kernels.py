"""Hot numeric kernels of the projection pipeline, in pure numpy.

``scatter_min`` resolves range-image cell collisions: the point with
the minimum range wins each cell, and ties on range go to the smaller
point index, as in a sequential scan with a strict ``<``.  It runs in
O(N) with two unbuffered ``np.minimum.at`` scatters, one over ranges
and one over the indices of the points that tie their cell's minimum.
Each point is one int32 cell index, ``row * width + col``, which
``SensorConfig``'s bound on the grid keeps below 2**31; the tie pass
reads the cell minima ``_TIE_CHUNK`` points at a time, so beside the
two grids it holds no per-point array.
"""

from __future__ import annotations

import numpy as np

# no compiled backend; kept because perfbench/worker.py stamps both names on each result
HAVE_NUMBA = USE_NUMBA = False

# points per gather of the tie pass
_TIE_CHUNK = 1 << 14


def scatter_min(cells: np.ndarray, ranges: np.ndarray, height: int, width: int):
    """Winner-per-cell by minimum range, ties to the smaller index.

    ``cells[i]`` is point i's flat cell index ``row * width + col``.
    Returns ``(index_grid, range_grid)`` of shape (height, width): the
    winning index into the inputs (-1 empty) and its range (+inf empty).

    Preconditions: every cell lies inside the grid, and every range is
    finite and not NaN.  ``np.minimum`` carries a NaN forward into its
    cell, and an infinite range would tie an empty cell's +inf.
    ``project`` meets both: its ranges are norms of finite float32
    coordinates, those of a validated cloud and of object blocks that
    it checks after rounding them to float32.
    """
    n = ranges.shape[0]
    range_grid = np.full(height * width, np.inf, dtype=np.float64)
    np.minimum.at(range_grid, cells, ranges)
    # only points at their cell's minimum compete on index; n marks no winner
    index_grid = np.full(height * width, n, dtype=np.int64)
    for lo in range(0, n, _TIE_CHUNK):
        part = cells[lo:lo + _TIE_CHUNK]
        ties = np.flatnonzero(ranges[lo:lo + _TIE_CHUNK] == range_grid[part])
        np.minimum.at(index_grid, part[ties], ties + lo)
    index_grid[index_grid == n] = -1
    return index_grid.reshape(height, width), range_grid.reshape(height, width)
