"""Hot numeric kernels of the projection pipeline, in pure numpy.

``scatter_min`` resolves range-image cell collisions: the point with
the minimum range wins each cell, and ties on range go to the smaller
point index, as in a sequential scan with a strict ``<``.
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
    lexsort is stable, so sorting by (cell, range) and taking the first
    entry per cell yields the same winner as a sequential scan.
    """
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    cols = np.ascontiguousarray(cols, dtype=np.int64)
    ranges = np.ascontiguousarray(ranges, dtype=np.float64)
    n = rows.shape[0]
    cells = rows.astype(np.int64) * width + cols.astype(np.int64)
    order = np.lexsort((ranges, cells))
    first = np.ones(n, dtype=bool)
    first[1:] = cells[order][1:] != cells[order][:-1]
    win_cells = cells[order][first]
    win_index = order[first]

    index_grid = np.full((height, width), -1, dtype=np.int64)
    range_grid = np.full((height, width), np.inf, dtype=np.float64)
    index_grid.ravel()[win_cells] = win_index
    range_grid.ravel()[win_cells] = ranges[order][first]
    return index_grid, range_grid
