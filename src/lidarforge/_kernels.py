"""Hot numeric kernels of the projection pipeline, in pure numpy.

``scatter_min`` resolves range-image cell collisions: the point with
the minimum range wins each cell, and ties on range go to the smaller
point index, as in a sequential scan with a strict ``<``.  It runs in
O(N) with two unbuffered ``np.minimum.at`` scatters, one over ranges
and one over the indices of the points that tie their cell's minimum.
"""

from __future__ import annotations

import numpy as np

# no compiled backend; kept because perfbench/worker.py stamps both names on each result
HAVE_NUMBA = USE_NUMBA = False


def scatter_min(rows: np.ndarray, cols: np.ndarray, ranges: np.ndarray,
                height: int, width: int):
    """Winner-per-cell by minimum range, ties to the smaller index.

    Returns ``(index_grid, range_grid)`` of shape (height, width): the
    winning index into the inputs (-1 empty) and its range (+inf empty).

    Preconditions: ``rows``/``cols`` lie inside the grid, and every
    range is finite and not NaN.  ``np.minimum`` carries a NaN forward
    into its cell, and an infinite range would tie an empty cell's
    +inf.  ``project`` meets both: its ranges are norms of the finite
    float32 coordinates of a validated cloud.
    """
    cells = np.asarray(rows, dtype=np.int64) * width + np.asarray(cols, dtype=np.int64)
    ranges = np.asarray(ranges, dtype=np.float64)
    n = ranges.shape[0]

    range_grid = np.full(height * width, np.inf, dtype=np.float64)
    np.minimum.at(range_grid, cells, ranges)
    # only points at their cell's minimum compete on index; n marks no winner
    ties = np.flatnonzero(ranges == range_grid[cells])
    index_grid = np.full(height * width, n, dtype=np.int64)
    np.minimum.at(index_grid, cells[ties], ties)
    index_grid[index_grid == n] = -1
    return index_grid.reshape(height, width), range_grid.reshape(height, width)
