"""FastDTW — linear-time approximate DTW (Salvador & Chan 2007).

The exact DTW of :mod:`repro.core.dtw` fills an ``N × M`` cost matrix,
which is quadratic; the paper adopts FastDTW to keep per-pair comparison
affordable at 10 Hz × 20 s series (Section IV-B), citing ~1 % accuracy
loss at ``O(N)`` cost.

FastDTW works recursively:

1. **Coarsen** both series to half resolution (average adjacent pairs).
2. **Recurse** to find a warp path at the lower resolution (base case:
   exact DTW once a series is shorter than ``radius + 2``).
3. **Project** that path back to full resolution and **expand** it by
   ``radius`` cells in every direction, producing a search window.
4. Run exact DTW restricted to the window.

A larger ``radius`` trades speed for accuracy; at ``radius >= max(N, M)``
the result is exact.

Implementation note: the refinement window of a monotone path is, per
row, one contiguous column interval, so the window is carried as two
``lo/hi`` integer lists and the DP runs on plain Python lists — an order
of magnitude faster in CPython than a sparse cell-set DP, which is what
keeps the full highway sweeps (tens of thousands of pairwise
comparisons) tractable.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .dtw import Cell, DTWResult, dtw

__all__ = [
    "fastdtw",
    "fastdtw_distance",
    "dtw_banded_fast",
    "sakoe_chiba_band",
    "coarsen",
    "expand_window",
]

ArrayLike = Union[Sequence[float], np.ndarray]

#: Default band radius, as in Salvador & Chan's reference
#: implementation.  Radius 1 already tracks the optimal path on smooth,
#: similarly-paced series such as z-scored RSSI streams; the ablation
#: bench (E12) quantifies the residual error per radius.
DEFAULT_RADIUS = 1

_INF = math.inf


def coarsen(values: np.ndarray) -> np.ndarray:
    """Halve a series' resolution by averaging adjacent pairs.

    An odd trailing element is kept as-is, so ``len(out) == ceil(n / 2)``.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D series, got shape {arr.shape}")
    if arr.size <= 1:
        return arr.copy()
    n_pairs = arr.size // 2
    paired = (arr[: 2 * n_pairs : 2] + arr[1 : 2 * n_pairs : 2]) / 2.0
    if arr.size % 2:
        return np.concatenate([paired, arr[-1:]])
    return paired


def expand_window(
    path: Sequence[Cell],
    n: int,
    m: int,
    radius: int,
) -> List[Cell]:
    """Project a half-resolution warp path up and widen it by ``radius``.

    Kept for introspection and tests; the solver itself uses the
    interval form (:func:`_project_intervals`), which enumerates the
    same cell set row by row.

    Args:
        path: 1-indexed warp path found on the coarsened series.
        n: Full-resolution length of the first series.
        m: Full-resolution length of the second series.
        radius: Expansion radius in cells (applied at the coarse level,
            as in the original algorithm).

    Returns:
        Sorted, 1-indexed admissible cells, always containing ``(1, 1)``
        and ``(n, m)`` and connected enough for a monotone path.
    """
    lo, hi = _project_intervals(path, n, m, radius)
    cells: List[Cell] = []
    for i in range(1, n + 1):
        for j in range(lo[i], hi[i] + 1):
            cells.append((i, j))
    return cells


def _project_intervals(
    path: Sequence[Cell],
    n: int,
    m: int,
    radius: int,
) -> Tuple[List[int], List[int]]:
    """Per-row column intervals of the radius-expanded projected path.

    Returns 1-indexed ``(lo, hi)`` lists of length ``n + 1`` (index 0
    unused).  Every row is guaranteed non-empty, the first row contains
    column 1 and the last row contains column ``m``.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    n_coarse = (n + 1) // 2
    # Min/max coarse column per coarse row, after radius expansion.
    cmin = [m + 1] * (n_coarse + 2)
    cmax = [0] * (n_coarse + 2)
    for (ci, cj) in path:
        lo_row = max(1, ci - radius)
        hi_row = min(n_coarse, ci + radius)
        lo_col = cj - radius
        hi_col = cj + radius
        for cr in range(lo_row, hi_row + 1):
            if lo_col < cmin[cr]:
                cmin[cr] = lo_col
            if hi_col > cmax[cr]:
                cmax[cr] = hi_col

    lo = [0] * (n + 1)
    hi = [0] * (n + 1)
    for i in range(1, n + 1):
        cr = (i + 1) // 2
        lo[i] = max(1, 2 * cmin[cr] - 1)
        hi[i] = min(m, 2 * cmax[cr])
        if hi[i] < lo[i]:
            # Degenerate rows can only appear through clipping; fall
            # back to the nearest admissible column.
            lo[i] = hi[i] = min(m, max(1, lo[i]))
    lo[1] = 1
    hi[n] = m
    # Monotonicity repair: a warp path can never step left, so each
    # row's interval must reach at least as far as the previous row's
    # start; clipping at the corners preserves this by construction,
    # but radius-0 paths around odd-length coarsening can violate it.
    for i in range(2, n + 1):
        if lo[i] > hi[i - 1] + 1:
            lo[i] = hi[i - 1] + 1
        if hi[i] < hi[i - 1]:
            hi[i] = hi[i - 1]
    return lo, hi


def _dp_intervals(
    x_list: List[float],
    y_list: List[float],
    lo: List[int],
    hi: List[int],
) -> Tuple[float, List[Cell], int]:
    """Windowed DTW over per-row column intervals (paper Eqs. 3–4).

    Runs on plain Python lists for speed; returns the accumulated
    distance, the optimal 1-indexed warp path, and the number of window
    cells evaluated (the DP's work, reported via ``DTWResult.cells``).
    """
    n = len(x_list)
    m = len(y_list)
    rows: List[List[float]] = [[]] * (n + 1)
    for i in range(1, n + 1):
        li, hi_i = lo[i], hi[i]
        xi = x_list[i - 1]
        width = hi_i - li + 1
        row = [_INF] * width
        if i == 1:
            prev_row: List[float] = []
            p_lo, p_hi = 1, 0
        else:
            prev_row = rows[i - 1]
            p_lo, p_hi = lo[i - 1], hi[i - 1]
        running = _INF
        for idx in range(width):
            j = li + idx
            best = _INF
            if i == 1 and j == 1:
                best = 0.0
            if p_lo <= j <= p_hi:
                candidate = prev_row[j - p_lo]
                if candidate < best:
                    best = candidate
            if p_lo <= j - 1 <= p_hi:
                candidate = prev_row[j - 1 - p_lo]
                if candidate < best:
                    best = candidate
            if running < best:
                best = running
            if best < _INF:
                diff = xi - y_list[j - 1]
                running = diff * diff + best
                row[idx] = running
            else:
                running = _INF
        rows[i] = row

    end_value = rows[n][m - lo[n]] if lo[n] <= m <= hi[n] else _INF
    if math.isinf(end_value):
        raise ValueError("window admits no monotone warp path")

    path: List[Cell] = [(n, m)]
    i, j = n, m
    while (i, j) != (1, 1):
        best = _INF
        best_cell: Optional[Cell] = None
        for (pi, pj) in ((i - 1, j - 1), (i - 1, j), (i, j - 1)):
            if pi < 1 or pj < 1:
                continue
            if lo[pi] <= pj <= hi[pi]:
                value = rows[pi][pj - lo[pi]]
                if value < best:
                    best = value
                    best_cell = (pi, pj)
        if best_cell is None:
            raise ValueError("traceback escaped the window")
        i, j = best_cell
        path.append(best_cell)
    path.reverse()
    n_cells = sum(hi[i] - lo[i] + 1 for i in range(1, n + 1))
    return end_value, path, n_cells


def _fastdtw_recursive(
    a: np.ndarray,
    b: np.ndarray,
    radius: int,
) -> Tuple[float, List[Cell], int]:
    min_size = radius + 2
    if a.size <= min_size or b.size <= min_size:
        result = dtw(a, b)
        return result.distance, list(result.path), result.cells
    coarse_distance, coarse_path, coarse_cells = _fastdtw_recursive(
        coarsen(a), coarsen(b), radius
    )
    del coarse_distance
    lo, hi = _project_intervals(coarse_path, a.size, b.size, radius)
    distance, path, n_cells = _dp_intervals(a.tolist(), b.tolist(), lo, hi)
    return distance, path, n_cells + coarse_cells


def fastdtw(
    x: ArrayLike,
    y: ArrayLike,
    radius: int = DEFAULT_RADIUS,
) -> DTWResult:
    """Approximate DTW via multi-resolution refinement.

    Args:
        x: First series.
        y: Second series.
        radius: Window half-width; larger is more accurate and slower.

    Returns:
        :class:`repro.core.dtw.DTWResult` whose distance is an upper
        bound on — and typically close to — the exact DTW distance.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError(f"expected 1-D series, got shapes {a.shape}, {b.shape}")
    if a.size == 0 or b.size == 0:
        raise ValueError("FastDTW is undefined for empty series")
    distance, path, cells = _fastdtw_recursive(a, b, radius)
    return DTWResult(distance=float(distance), path=tuple(path), cells=cells)


def fastdtw_distance(
    x: ArrayLike,
    y: ArrayLike,
    radius: int = DEFAULT_RADIUS,
) -> float:
    """FastDTW distance only — the detector's per-pair similarity measure."""
    return fastdtw(x, y, radius=radius).distance


def sakoe_chiba_band(n: int, m: int, radius: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row column intervals of the Sakoe–Chiba band.

    This is the canonical band geometry shared by every banded-DTW
    implementation in the package (:func:`dtw_banded_fast`, the batched
    kernels in :mod:`repro.core.pairwise` and their C twin in
    :mod:`repro.core.native`, and the envelope-based bounds built on top
    of them) — they must agree cell for cell, so the geometry is defined
    here once (the C kernel repeats these IEEE expressions verbatim).

    Args:
        n: Length of the first series (rows).
        m: Length of the second series (columns).
        radius: Band half-width in samples (``>= 0``).

    Returns:
        1-indexed ``(lo, hi)`` int64 arrays of length ``n + 1`` (index
        0 unused).  Every row interval is non-empty, row 1 contains
        column 1, row ``n`` contains column ``m``, the upper interval
        ends are non-decreasing in the row index (the lower ends are
        too in every practical geometry — consumers that require it
        verify), and consecutive intervals overlap enough for a
        monotone warp path to exist.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if n < 1 or m < 1:
        raise ValueError(f"series lengths must be positive, got {n}, {m}")
    scale = m / n
    centre = np.arange(n + 1, dtype=np.float64) * scale
    lo = np.maximum(np.floor(centre - radius - scale + 1), 1.0)
    hi = np.minimum(np.ceil(centre + radius), float(m))
    empty = hi < lo
    if empty.any():
        lo[empty] = hi[empty] = np.clip(np.rint(centre[empty]), 1.0, float(m))
    lo = lo.astype(np.int64)
    hi = hi.astype(np.int64)
    lo[0] = hi[0] = 0
    lo[1] = 1
    hi[n] = m
    # A warp path never steps left: each row must reach at least as far
    # as the previous one (running max of hi) and start no later than
    # one past the previous row's end.
    hi = np.maximum.accumulate(hi)
    lo[2:] = np.minimum(lo[2:], hi[1:-1] + 1)
    return lo, hi


def dtw_banded_fast(
    x: ArrayLike,
    y: ArrayLike,
    radius: int,
) -> DTWResult:
    """Sakoe–Chiba banded DTW on the fast interval DP.

    Equivalent in result to :func:`repro.core.dtw.dtw_banded` but an
    order of magnitude faster.  A band limits how far the warp path may
    stray from the (length-scaled) diagonal — i.e. how much *temporal*
    misalignment DTW may forgive.  For RSSI voiceprints this matters:
    unconstrained warping aligns any two smooth drive-by sweeps almost
    perfectly regardless of when they happened, destroying the contrast
    between Sybil streams (truly synchronous) and coincidentally
    similar-shaped neighbours.

    Args:
        x: First series (length ``N``).
        y: Second series (length ``M``).
        radius: Band half-width in samples (``>= 0``).

    Returns:
        :class:`repro.core.dtw.DTWResult` for the best in-band path.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError(f"expected 1-D series, got shapes {a.shape}, {b.shape}")
    if a.size == 0 or b.size == 0:
        raise ValueError("DTW is undefined for empty series")
    lo, hi = sakoe_chiba_band(a.size, b.size, radius)
    distance, path, cells = _dp_intervals(
        a.tolist(), b.tolist(), lo.tolist(), hi.tolist()
    )
    return DTWResult(distance=float(distance), path=tuple(path), cells=cells)
