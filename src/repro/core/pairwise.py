"""Fast pairwise comparison engine for the Voiceprint comparison phase.

The paper's comparison phase (Section IV-C, Algorithm 1) measures a DTW
distance for every pair of heard identities — O(n²) FastDTW runs per
detection period, which is the entire computational cost of Voiceprint.
This module makes that stage cheap without changing a single decision:

* :func:`dtw_banded_batch_abandon` — the Sakoe–Chiba banded DTW
  kernel over a *ragged* batch of pairs (each pair with its own lengths,
  as packet loss gives almost every window its own), with an optional
  per-pair early-abandon threshold.  One call runs the whole batch in
  the compiled C backend (:mod:`repro.core.native`), which builds every
  pair's band itself; without a compiler the same batch runs one numpy
  anti-diagonal sweep per ``(n, m)`` shape.  Both relax every cell with
  the identical IEEE-754 operations as the scalar DP
  (:func:`repro.core.fastdtw.dtw_banded_fast` over the same
  :func:`repro.core.fastdtw.sakoe_chiba_band` geometry), so distances,
  warp-path lengths and the ``cells`` work metric are *bit-identical*,
  not merely close.  Warp-path lengths are tracked forward instead of
  storing the cost matrix for traceback.

* **Bound cascade** — cheap lower bounds (an LB_Kim-style first/last
  bound and LB_Keogh-style band-envelope bounds in both directions) and
  a cheap upper bound (the cost of an explicit monotone path inside the
  band) sandwich the banded-DTW distance.  When the sandwich lands
  clearly on one side of the decision threshold the pair is *decided
  without running DTW at all*.  For the paper-default min–max-normalised
  threshold (Eq. 8) the decision region depends on the per-report
  min/max distance, so the engine first pins those down exactly by an
  adaptive best-bound-first refinement, then decides the remaining
  pairs from their bounds (see ``DESIGN.md`` for the proof sketch).

* **Pair cache** — an LRU cache keyed by per-identity
  window fingerprints (the exact bytes of the normalised series, plus
  the common scale factor), so a detection period only recomputes pairs
  whose series actually changed since the previous period.  A hit
  returns the stored distance/path-length verbatim — bit-identical to
  recomputation.

* **Optional parallel executor** — a bounded thread pool (off by
  default) for the exact kernel evaluations that survive the cascade.

Audit bundles recorded by the retired incremental engine still carry
its provenance tags (``incremental-carry``, ``early-abandon``);
:mod:`repro.obs.audit` keeps reading and replaying them.

Everything is instrumented through :mod:`repro.obs` (pairs pruned,
cache hits/misses, cells relaxed and saved) and configured through
:class:`repro.core.detector.DetectorConfig` knobs or the process-wide
defaults (:func:`set_engine_defaults`, wired to CLI flags).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..obs.metrics import MetricsRegistry, default_registry
from .dtw import DTWResult, dtw
from .fastdtw import dtw_banded_fast, fastdtw, sakoe_chiba_band
from .native import abandon_batch_native, warmup as native_warmup
from .normalization import _SIGMA_FLOOR

__all__ = [
    "EngineDefaults",
    "PROV_ABANDON",
    "PROV_CACHE",
    "PROV_EXACT",
    "PROV_INCREMENTAL",
    "PROV_PRUNED_DEGENERATE",
    "PROV_PRUNED_LOWER",
    "PROV_PRUNED_UPPER",
    "PairwiseEngine",
    "PairwiseStats",
    "band_cells",
    "dtw_banded_batch",
    "dtw_banded_batch_abandon",
    "dtw_band_lower_bound",
    "dtw_band_upper_bound",
    "lb_kim",
    "get_engine_defaults",
    "set_engine_defaults",
]

Pair = Tuple[str, str]

#: Provenance tags recorded per pair when
#: :attr:`PairwiseEngine.record_provenance` is on — how the reported
#: distance was obtained (see ``repro.obs.audit``).
PROV_EXACT = "exact"
PROV_CACHE = "cache-hit"
PROV_PRUNED_LOWER = "pruned-lower"
PROV_PRUNED_UPPER = "pruned-upper"
PROV_PRUNED_DEGENERATE = "pruned-degenerate"
#: Tags written only by the retired incremental engine; audit bundles
#: recorded with it still carry them.  A carry re-reported the previous
#: period's exact distance for an unchanged window (bit-replayable like
#: ``exact``); an abandon's distance is a surrogate.
PROV_INCREMENTAL = "incremental-carry"
PROV_ABANDON = "early-abandon"

_INF = math.inf

#: Anti-diagonal stride between early-abandon checkpoints.  The abandon
#: test (two consecutive diagonal minima above the threshold) is sound
#: at *any* diagonal, so checking every ``k``-th one keeps correctness
#: while cutting the per-diagonal reduction overhead ~k-fold; dead
#: pairs merely survive a few extra diagonals before being dropped.
_ABANDON_STRIDE = 8


# ----------------------------------------------------------------------
# Process-wide engine defaults (CLI-configurable)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineDefaults:
    """Process-wide defaults for detectors that leave engine knobs unset.

    Attributes:
        engine: Use the pairwise engine (ragged batch kernel + cache)
            behind ``VoiceprintDetector.compare``.  Disabling falls back
            to the legacy per-pair Python loop.
        pruning: Decide pairs from the bound cascade inside ``detect``
            when the bounds land clearly outside the decision region.
            Off by default because pruned pairs carry *bound surrogates*
            instead of exact distances in ``DetectionReport`` (decisions
            are unaffected; analysis/training consumers that read raw
            distances should leave this off — see DESIGN.md).
        cache_size: Maximum cached pair results (LRU).  0 disables.
        workers: Thread-pool width for exact kernel evaluations.
            0 runs inline.
    """

    engine: bool = True
    pruning: bool = False
    cache_size: int = 256
    workers: int = 0

    def __post_init__(self) -> None:
        if self.cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {self.cache_size}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")


_defaults = EngineDefaults()


def get_engine_defaults() -> EngineDefaults:
    """The current process-wide pairwise-engine defaults."""
    return _defaults


def set_engine_defaults(
    engine: Optional[bool] = None,
    pruning: Optional[bool] = None,
    cache_size: Optional[int] = None,
    workers: Optional[int] = None,
) -> EngineDefaults:
    """Override process-wide engine defaults; ``None`` keeps a field.

    Returns the *previous* defaults so callers (e.g. the CLI, tests)
    can restore them.
    """
    global _defaults
    previous = _defaults
    updates = {
        key: value
        for key, value in (
            ("engine", engine),
            ("pruning", pruning),
            ("cache_size", cache_size),
            ("workers", workers),
        )
        if value is not None
    }
    _defaults = replace(previous, **updates)
    return previous


# ----------------------------------------------------------------------
# Banded DTW kernels
# ----------------------------------------------------------------------
@lru_cache(maxsize=256)
def _band_arrays(
    n: int, m: int, radius: int
) -> Tuple[np.ndarray, np.ndarray, bool, int]:
    """Band geometry as read-only arrays, plus monotonicity and area.

    Returns ``(lo, hi, monotone, n_cells)`` where ``lo``/``hi`` are the
    0-indexed-by-row (value still 1-indexed column) interval arrays of
    :func:`sakoe_chiba_band`, ``monotone`` says both ends are
    non-decreasing (required by the diagonal sweep and the
    column-direction bound), and ``n_cells`` is the band area — the DP
    work a full kernel run would perform.
    """
    lo_full, hi_full = sakoe_chiba_band(n, m, radius)
    lo = lo_full[1:]
    hi = hi_full[1:]
    lo.setflags(write=False)
    hi.setflags(write=False)
    monotone = bool(np.all(lo[1:] >= lo[:-1]) and np.all(hi[1:] >= hi[:-1]))
    n_cells = int(np.sum(hi - lo + 1))
    return lo, hi, monotone, n_cells


def band_cells(n: int, m: int, radius: int) -> int:
    """Number of DP cells a banded kernel run relaxes for ``(n, m)``."""
    return _band_arrays(n, m, radius)[3]


def _result_triple(result: DTWResult) -> Tuple[float, int, int]:
    return result.distance, len(result.path), result.cells


def dtw_banded_batch(
    xs: List[np.ndarray], ys: List[np.ndarray], radius: int
) -> List[Tuple[float, int, int]]:
    """Exact banded DTW for a batch of pairs sharing one ``(n, m)`` shape.

    :func:`dtw_banded_batch_abandon` with no abandoning, kept for
    callers that batch by shape.

    Returns:
        One ``(distance, path_length, cells)`` triple per pair —
        bit-identical to running
        :func:`repro.core.fastdtw.dtw_banded_fast` on each pair.
    """
    count = len(xs)
    if len(ys) != count:
        raise ValueError(f"batch mismatch: {count} x-series, {len(ys)} y-series")
    if count and (
        any(x.size != xs[0].size for x in xs) or any(y.size != ys[0].size for y in ys)
    ):
        raise ValueError("dtw_banded_batch requires one common (n, m) shape")
    results, _ = dtw_banded_batch_abandon(xs, ys, radius, np.full(count, _INF))
    return results  # type: ignore[return-value]


@lru_cache(maxsize=128)
def _abandon_geometry(
    n: int, m: int, radius: int
) -> Optional[
    Tuple[
        np.ndarray,
        np.ndarray,
        np.ndarray,
        np.ndarray,
        int,
        np.ndarray,
        np.ndarray,
        int,
    ]
]:
    """Anti-diagonal band geometry for the numpy sweep, shape-keyed.

    Returns ``(i0s, i1s, widths, cum_cells, wpad, sus, sds, n_cells)``
    (all arrays write-locked), or None when the band is unusable for
    the diagonal sweep (non-monotone, or an empty anti-diagonal — the
    kernel then falls back to per-pair scalar runs).
    """
    lo, hi, monotone, n_cells = _band_arrays(n, m, radius)
    if not monotone:  # pragma: no cover - no known geometry triggers this
        return None
    rows = np.arange(1, n + 1, dtype=np.int64)
    ks = np.arange(2, n + m + 1, dtype=np.int64)
    i1s = np.minimum(
        np.minimum(np.searchsorted(rows + lo, ks, side="right"), n), ks - 1
    )
    i0s = np.maximum(
        np.maximum(np.searchsorted(rows + hi, ks, side="left") + 1, 1), ks - m
    )
    if np.any(i0s > i1s):
        return None
    widths = i1s - i0s + 1
    cum_cells = np.cumsum(widths)
    wpad = int(widths.max()) + 2
    # Per-diagonal storage offset: row i of diagonal k lives at column
    # i - off[k] + 1, keeping column 0 (and any tail) as INF padding so
    # predecessor reads outside a diagonal's band resolve to INF.
    off = np.empty(n + m + 1, dtype=np.int64)
    off[0] = 0
    off[1] = 1  # diagonal 1 has no interior cells; buffer stays all-INF
    off[2:] = i0s
    sus = i0s - off[1:-1]  # up:   row i-1 on diagonal k-1
    sds = i0s - off[:-2]  # diag: row i-1 on diagonal k-2
    ok = (
        np.all(sus >= 0)
        and np.all(sus + 1 + widths <= wpad)  # left slice = up slice + 1
        and np.all(sds >= 0)
        and np.all(sds + widths <= wpad)
    )
    if not ok:  # pragma: no cover - guards the offset algebra
        return None
    for array in (i0s, i1s, widths, cum_cells, sus, sds):
        array.setflags(write=False)
    return i0s, i1s, widths, cum_cells, wpad, sus, sds, n_cells


def dtw_banded_batch_abandon(
    xs: List[np.ndarray],
    ys: List[np.ndarray],
    radius: int,
    thresholds: np.ndarray,
) -> Tuple[List[Optional[Tuple[float, int, int]]], Dict[int, Tuple[float, int]]]:
    """Banded DTW over a ragged batch with per-pair early abandoning.

    Pair ``i`` compares ``xs[i]`` with ``ys[i]``; lengths may differ
    from pair to pair.  Each pair carries an *accumulated-cost* abandon
    threshold.  After relaxing anti-diagonal ``k`` the kernel knows the
    minimum accumulated cost over every in-band cell of diagonals
    ``k-1`` and ``k``; because a monotone warp path's diagonal indices
    step by 1 or 2, every path touches at least one cell of any two
    consecutive diagonals, and accumulated costs only grow along a path
    (step costs are squared differences), so that minimum lower-bounds
    the pair's final DTW distance.  Once it exceeds the pair's threshold
    the pair can never come back below it and is dropped.  An infinite
    threshold never abandons, so an all-``inf`` batch is the engine's
    exact kernel.  The test runs only at every
    :data:`_ABANDON_STRIDE`-th diagonal (it is sound at any diagonal, so
    skipping some merely delays a doomed pair's death).  Pairs shorter
    than two samples, or whose band has an empty anti-diagonal, always
    run to completion.

    With the C backend the whole batch is one call; without it each
    ``(n, m)`` shape runs one numpy anti-diagonal sweep
    (:func:`_abandon_sweep`), which is the fallback and the bit-identity
    oracle.  Completed pairs produce triples bit-identical to
    :func:`repro.core.fastdtw.dtw_banded_fast` on the same pair.

    Returns:
        ``(results, abandoned)``: ``results[i]`` is the usual
        ``(distance, path_length, cells)`` triple, or ``None`` if pair
        ``i`` abandoned; ``abandoned[i]`` is then ``(evidence, cells)``
        — a proven lower bound on the pair's accumulated cost (strictly
        above its threshold) and the DP cells relaxed before it died.
    """
    count = len(xs)
    if count == 0:
        return [], {}
    if len(ys) != count:
        raise ValueError(f"batch mismatch: {count} x-series, {len(ys)} y-series")
    thr = np.ascontiguousarray(thresholds, dtype=float)
    if thr.shape != (count,):
        raise ValueError(f"expected {count} thresholds, got shape {thr.shape}")
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    # Engine batches repeat each identity's window across many pairs, so
    # every distinct series object is stored once in one flat buffer and
    # pairs address it by offset.
    first = {id(series): series for series in (*xs, *ys)}
    slot = {key: index for index, key in enumerate(first)}
    uniq = [np.asarray(series, dtype=float) for series in first.values()]
    for array in uniq:
        if array.ndim != 1:
            raise ValueError(f"expected 1-D series, got shape {array.shape}")
        if array.size == 0:
            raise ValueError("DTW is undefined for empty series")
    sizes = np.fromiter((array.size for array in uniq), np.int64, len(uniq))
    offsets = np.cumsum(sizes) - sizes
    a_slot = np.fromiter(map(slot.__getitem__, map(id, xs)), np.int64, count)
    b_slot = np.fromiter(map(slot.__getitem__, map(id, ys)), np.int64, count)
    pairs = np.stack(
        (offsets[a_slot], sizes[a_slot], offsets[b_slot], sizes[b_slot]), axis=1
    )
    native = abandon_batch_native(
        pairs, np.concatenate(uniq), radius, thr, _ABANDON_STRIDE
    )
    results: List[Optional[Tuple[float, int, int]]] = [None] * count
    abandoned: Dict[int, Tuple[float, int]] = {}
    if native is not None:
        status, values, lengths, cells = (array.tolist() for array in native)
        for index, code in enumerate(status):
            if code == 1:
                results[index] = (values[index], lengths[index], cells[index])
            elif code == 0:
                abandoned[index] = (values[index], cells[index])
            elif code == -1:
                raise ValueError("window admits no monotone warp path")
            else:  # pragma: no cover - declined: unsupported band / no memory
                results[index] = _result_triple(
                    dtw_banded_fast(uniq[a_slot[index]], uniq[b_slot[index]], radius)
                )
        return results, abandoned

    groups: Dict[Tuple[int, int], List[int]] = {}
    shapes = zip(sizes[a_slot].tolist(), sizes[b_slot].tolist())
    for index, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(index)
    for (n, m), indices in groups.items():
        a_rows = [uniq[a_slot[index]] for index in indices]
        b_rows = [uniq[b_slot[index]] for index in indices]
        group_thr = thr[indices]
        geometry = _abandon_geometry(n, m, radius) if n >= 2 and m >= 2 else None
        few_exact = len(indices) <= 3 and not np.isfinite(group_thr).any()
        if geometry is None or few_exact:
            # Degenerate shapes run the scalar DP exactly (there is
            # nothing to abandon in a couple of samples), and so do a
            # handful of exact pairs: a numpy sweep costs about one full
            # diagonal loop regardless of rows, more than the scalar DP.
            for index, x, y in zip(indices, a_rows, b_rows):
                results[index] = _result_triple(dtw_banded_fast(x, y, radius))
            continue
        done, dead = _abandon_sweep(a_rows, b_rows, group_thr, geometry)
        for local, index in enumerate(indices):
            results[index] = done[local]
            if local in dead:
                abandoned[index] = dead[local]
    return results, abandoned


def _abandon_sweep(
    xs: List[np.ndarray],
    ys: List[np.ndarray],
    thr: np.ndarray,
    geometry: tuple,
) -> Tuple[List[Optional[Tuple[float, int, int]]], Dict[int, Tuple[float, int]]]:
    """Numpy anti-diagonal sweep over pairs sharing one ``(n, m)`` shape.

    Relaxes every pair's band simultaneously: each anti-diagonal is one
    set of numpy ops on ``(pairs × width)`` blocks.  Only three
    diagonals are live at a time (compact, INF-padded rolling buffers),
    and the optimal warp-path *length* is tracked forward with the
    scalar traceback's exact tie-breaking rule (diagonal, then up, then
    left, strict ``<``).  When enough pairs abandon the live rows are
    compacted so later diagonals shrink; every row's arithmetic is
    independent, so dropping dead rows does not perturb survivors.
    Same return contract as :func:`dtw_banded_batch_abandon`.
    """
    i0s, _i1s, widths, cum_cells, wpad, sus, sds, n_cells = geometry
    count = len(xs)
    n, m = xs[0].size, ys[0].size
    a_stack = np.ascontiguousarray(np.stack(xs))
    b_rev = np.ascontiguousarray(np.stack(ys)[:, ::-1])
    # Row p of the buffers currently computes original pair orig[p];
    # alive[p] False means the pair already abandoned but has not been
    # compacted out yet (its arithmetic keeps running harmlessly).
    orig = np.arange(count, dtype=np.int64)
    alive = np.ones(count, dtype=bool)
    check = np.isfinite(thr)

    results: List[Optional[Tuple[float, int, int]]] = [None] * count
    abandoned: Dict[int, Tuple[float, int]] = {}

    v_km2 = np.full((count, wpad), _INF)
    v_km2[:, 1] = 0.0
    v_km1 = np.full((count, wpad), _INF)
    v_new = np.empty((count, wpad))
    l_km2 = np.zeros((count, wpad), dtype=np.int64)
    l_km1 = np.zeros((count, wpad), dtype=np.int64)
    l_new = np.zeros((count, wpad), dtype=np.int64)
    seg_buf = np.empty((count, wpad))
    check_any = bool(check.any())
    n_diag = n + m - 1
    for kidx in range(n_diag):
        i0 = int(i0s[kidx])
        w = int(widths[kidx])
        su = int(sus[kidx])
        sd = int(sds[kidx])
        up = v_km1[:, su : su + w]
        left = v_km1[:, su + 1 : su + 1 + w]
        diag = v_km2[:, sd : sd + w]
        min_du = np.minimum(diag, up)
        best = np.minimum(min_du, left)
        k = kidx + 2
        # Fused relaxation: every op writes a preallocated output, so
        # the hot loop costs launches, not allocations.  The arithmetic
        # (and hence the bits) is identical to the naive expression
        # ``seg * seg + best`` written into the band slice.
        seg = np.subtract(
            a_stack[:, i0 - 1 : i0 - 1 + w],
            b_rev[:, m - k + i0 : m - k + i0 + w],
            out=seg_buf[:, :w],
        )
        v_new[:] = _INF
        np.multiply(seg, seg, out=seg)
        np.add(seg, best, out=v_new[:, 1 : w + 1])
        np.add(
            np.where(
                left < min_du,
                l_km1[:, su + 1 : su + 1 + w],
                np.where(up < diag, l_km1[:, su : su + w], l_km2[:, sd : sd + w]),
            ),
            1,
            out=l_new[:, 1 : w + 1],
        )
        v_km2, v_km1, v_new = v_km1, v_new, v_km2
        l_km2, l_km1, l_new = l_km1, l_new, l_km2
        if (
            check_any
            and kidx
            and kidx < n_diag - 1
            and kidx % _ABANDON_STRIDE == 0
        ):
            w_prev = int(widths[kidx - 1])
            cur_min = np.min(v_km1[:, 1 : w + 1], axis=1)
            prev_min = np.min(v_km2[:, 1 : w_prev + 1], axis=1)
            dead = alive & check & (cur_min > thr) & (prev_min > thr)
            if np.any(dead):
                evidence = np.minimum(cur_min, prev_min)
                cells_done = int(cum_cells[kidx])
                for p in np.nonzero(dead)[0]:
                    abandoned[int(orig[p])] = (float(evidence[p]), cells_done)
                alive[dead] = False
                live = int(alive.sum())
                if live == 0:
                    return results, abandoned
                check_any = bool(check[alive].any())
                if count - live >= max(8, live):
                    keep = alive
                    a_stack = np.ascontiguousarray(a_stack[keep])
                    b_rev = np.ascontiguousarray(b_rev[keep])
                    v_km2 = np.ascontiguousarray(v_km2[keep])
                    v_km1 = np.ascontiguousarray(v_km1[keep])
                    v_new = np.empty_like(v_km1)
                    l_km2 = np.ascontiguousarray(l_km2[keep])
                    l_km1 = np.ascontiguousarray(l_km1[keep])
                    l_new = np.empty_like(l_km1)
                    seg_buf = np.empty_like(v_km1)
                    thr = thr[keep]
                    check = check[keep]
                    orig = orig[keep]
                    alive = np.ones(live, dtype=bool)
                    count = live

    pos = n - int(i0s[-1]) + 1
    for p in np.nonzero(alive)[0]:
        distance = float(v_km1[p, pos])
        if math.isinf(distance):
            raise ValueError("window admits no monotone warp path")
        results[int(orig[p])] = (distance, int(l_km1[p, pos]), n_cells)
    return results, abandoned


# ----------------------------------------------------------------------
# Bound cascade: LB_Kim / LB_Keogh-style lower bounds, path upper bound
# ----------------------------------------------------------------------
def lb_kim(x: np.ndarray, y: np.ndarray) -> float:
    """Constant-time lower bound on any DTW distance (LB_Kim variant).

    Every monotone warp path matches the first samples together and the
    last samples together, and all step costs are non-negative, so the
    sum of those two squared differences never exceeds the DTW distance.
    """
    d0 = float(x[0]) - float(y[0])
    d1 = float(x[-1]) - float(y[-1])
    return d0 * d0 + d1 * d1


def _envelope_exceedance(
    query: np.ndarray, ref: np.ndarray, lo0: np.ndarray, hi0: np.ndarray
) -> float:
    """Sum of squared exceedances of ``query`` over per-sample envelopes.

    ``lo0``/``hi0`` give, per query sample, the 0-indexed inclusive
    window of ``ref`` samples any in-band warp path may match it with.
    The envelope is evaluated over a fixed-width window that is a
    *superset* of each true interval (sliding min/max), which can only
    loosen — never invalidate — the bound.
    """
    size = ref.size
    width = int(np.max(hi0 - lo0)) + 1
    if width >= size:
        env_lo = float(np.min(ref))
        env_hi = float(np.max(ref))
        d = np.maximum(query - env_hi, 0.0) + np.maximum(env_lo - query, 0.0)
        return float(d @ d)
    windows = sliding_window_view(ref, width)
    starts = np.minimum(lo0, size - width)
    env_lo = windows.min(axis=1)[starts]
    env_hi = windows.max(axis=1)[starts]
    d = np.maximum(query - env_hi, 0.0) + np.maximum(env_lo - query, 0.0)
    return float(d @ d)


def dtw_band_lower_bound(x: np.ndarray, y: np.ndarray, radius: int) -> float:
    """Lower bound on the banded DTW distance of ``(x, y)``.

    The max of three individually valid bounds:

    * :func:`lb_kim` (first/last cells are on every path);
    * the row-direction LB_Keogh generalisation: every warp path
      matches ``x_i`` with some ``y_j`` inside row ``i``'s band
      interval, so the squared exceedance of ``x_i`` over the interval
      envelope is a per-row cost floor;
    * the column-direction mirror (every path also visits every
      column).

    Unlike classic LB_Keogh this works for unequal lengths, because the
    envelopes come from the actual :func:`sakoe_chiba_band` intervals.
    """
    n, m = x.size, y.size
    lo, hi, monotone, _ = _band_arrays(n, m, radius)
    bound = lb_kim(x, y)
    bound = max(bound, _envelope_exceedance(x, y, lo - 1, hi - 1))
    if monotone:
        cols = np.arange(1, m + 1, dtype=np.int64)
        row_hi = np.searchsorted(lo, cols, side="right")  # last row covering j
        row_lo = np.searchsorted(hi, cols, side="left") + 1  # first row
        if np.all(row_lo <= row_hi):
            bound = max(
                bound, _envelope_exceedance(y, x, row_lo - 1, row_hi - 1)
            )
    return bound


def _ranges_to_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s + c) for s, c in zip(starts, counts)]``."""
    total = int(counts.sum())
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, counts)


@lru_cache(maxsize=512)
def _upper_path_indices(
    n: int, m: int, radius: int
) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
    """Gather indices of the staircase upper-bound path for one shape.

    The path geometry depends only on ``(n, m, radius)``, so the
    ``(x_idx, y_idx, path_length)`` index arrays are cached and shared
    by every pair of that shape (scalar and batched bound alike).
    ``None`` if the band geometry is not monotone (never observed).
    """
    lo, hi, monotone, _ = _band_arrays(n, m, radius)
    if not monotone:  # pragma: no cover - no known geometry triggers this
        return None
    rows = np.arange(1, n + 1, dtype=np.int64)
    target = np.clip(np.round(rows * (m / n)).astype(np.int64), 1, m)
    target[-1] = m
    # t: rightmost column matched in row i; e: leftmost; u extends t so
    # the step into row i+1 is diagonal or vertical.  All stay in-band
    # by the band's overlap guarantees (lo[i+1] <= hi[i] + 1).
    t = np.minimum(hi, np.maximum(target, lo))
    prev = np.concatenate((np.asarray([0], dtype=np.int64), t[:-1]))
    e = np.maximum(lo, np.minimum(prev + 1, t))
    u = np.maximum(t, np.concatenate((e[1:] - 1, t[-1:])))
    counts = u - e + 1
    y_idx = _ranges_to_indices(e - 1, counts)
    x_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
    x_idx.setflags(write=False)
    y_idx.setflags(write=False)
    return x_idx, y_idx, int(counts.sum())


def dtw_band_upper_bound(
    x: np.ndarray, y: np.ndarray, radius: int
) -> Tuple[float, int]:
    """Cost and length of an explicit monotone warp path inside the band.

    The path follows the length-scaled pseudo-diagonal, clipped into the
    band and stitched with the horizontal/diagonal fills needed for
    step-validity; its cost therefore upper-bounds the banded DTW
    distance (which minimises over all in-band paths).  For equal-length
    series with any non-negative radius this degenerates to the plain
    Euclidean path ``Σ (x_i - y_i)²`` of length ``n``.

    Returns:
        ``(cost, path_length)``; ``(inf, max(n, m))`` if the band
        geometry is not monotone (never observed; keeps the bound safe).
    """
    n, m = x.size, y.size
    path = _upper_path_indices(n, m, radius)
    if path is None:  # pragma: no cover - no known geometry triggers this
        return _INF, max(n, m)
    x_idx, y_idx, path_len = path
    d = x[x_idx] - y[y_idx]
    return float(d @ d), path_len


# ----------------------------------------------------------------------
# LRU pair cache
# ----------------------------------------------------------------------
class _LRUCache:
    """Tiny ordered-dict LRU mapping pair keys to kernel results."""

    __slots__ = ("capacity", "_data")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._data: "OrderedDict[tuple, Tuple[float, int, int]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: tuple) -> Optional[Tuple[float, int, int]]:
        entry = self._data.get(key)
        if entry is not None:
            self._data.move_to_end(key)
        return entry

    def put(self, key: tuple, value: Tuple[float, int, int]) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass
class PairwiseStats:
    """Work accounting for one comparison phase (or cumulatively).

    Attributes:
        pairs: Identity pairs considered.
        exact: Pairs whose distance came from a kernel run.
        pruned: Pairs decided from bounds without running DTW.
        cache_hits: Pairs answered from the pair cache.
        cache_misses: Kernel runs that went through an enabled cache.
        cells: DP cells actually relaxed by kernel runs.
        cells_saved: DP cells avoided via cache hits and pruning.
        incremental: Always 0.  The retired incremental engine counted
            carried pairs here; the field stays for readers of its
            records.
        abandoned: Always 0 (the retired engine's early-abandoned runs).
        envelope_updates: Always 0 (the retired engine's envelope
            slides).
    """

    pairs: int = 0
    exact: int = 0
    pruned: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cells: int = 0
    cells_saved: int = 0
    incremental: int = 0
    abandoned: int = 0
    envelope_updates: int = 0

    def add(self, other: "PairwiseStats") -> None:
        """Accumulate ``other`` into this instance."""
        self.pairs += other.pairs
        self.exact += other.exact
        self.pruned += other.pruned
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cells += other.cells
        self.cells_saved += other.cells_saved
        self.incremental += other.incremental
        self.abandoned += other.abandoned
        self.envelope_updates += other.envelope_updates

    @property
    def hit_rate(self) -> float:
        """Cache hits per considered pair (0.0 when nothing compared)."""
        return self.cache_hits / self.pairs if self.pairs else 0.0


@dataclass(frozen=True)
class _PairBounds:
    """Decision-space bounds for one undecided pair."""

    lower: float
    upper: float
    cells: int  # kernel work a prune avoids


class PairwiseEngine:
    """Pairwise DTW evaluation with kernel, cache, bounds, and pool.

    One engine instance serves one detector; the kernel configuration
    mirrors the detector's comparison knobs so cached entries are only
    ever reused under identical semantics.

    Args:
        band_radius: Sakoe–Chiba half-width in samples, or ``None`` for
            FastDTW mode.
        use_exact_dtw: Use exact unconstrained DTW (ablations).
        fastdtw_radius: FastDTW refinement radius (band disabled only).
        normalize_by_path_length: Divide distances by warp-path length.
        pruning: Allow bound-cascade decisions in
            :meth:`compare_decided` (band mode only).
        cache_size: LRU capacity in pairs; 0 disables caching.
        workers: Thread-pool width for exact evaluations; 0 = inline.
        registry: Metrics registry (defaults to the process-global one).
        metric_prefix: Instrument-name prefix (``"detector"`` so the
            engine's counters extend the detector's existing family).
    """

    def __init__(
        self,
        band_radius: Optional[int] = 10,
        use_exact_dtw: bool = False,
        fastdtw_radius: int = 1,
        normalize_by_path_length: bool = True,
        pruning: bool = False,
        cache_size: int = 256,
        workers: int = 0,
        registry: Optional[MetricsRegistry] = None,
        metric_prefix: str = "detector",
    ) -> None:
        self.band_radius = band_radius
        self.use_exact_dtw = use_exact_dtw
        self.fastdtw_radius = fastdtw_radius
        self.normalize_by_path_length = normalize_by_path_length
        self.pruning = pruning
        if band_radius is not None and not use_exact_dtw:
            # Pay the one-time native-backend compile (if any) here, at
            # construction, so the first detection period isn't billed
            # for it.  A failed build just means numpy kernels.
            native_warmup()
        self.workers = workers
        self._cache = _LRUCache(cache_size) if cache_size > 0 else None
        self.stats = PairwiseStats()
        #: When True, each compare call leaves a per-pair provenance map
        #: in :attr:`last_provenance` (tag + cache key + deciding bound)
        #: for the audit trail.  Off by default: the hot path then pays
        #: one boolean check per call and builds nothing.
        self.record_provenance = False
        self.last_provenance: Optional[Dict[Pair, Dict[str, Any]]] = None
        metrics = registry if registry is not None else default_registry()
        prefix = metric_prefix
        self._c_pairs = metrics.counter(f"{prefix}.pairs_compared")
        self._c_exact = metrics.counter(f"{prefix}.pairs_exact")
        self._c_pruned = metrics.counter(f"{prefix}.pairs_pruned")
        self._c_hits = metrics.counter(f"{prefix}.cache_hits")
        self._c_misses = metrics.counter(f"{prefix}.cache_misses")
        self._c_cells = metrics.counter(f"{prefix}.dtw_cells")
        self._c_cells_saved = metrics.counter(f"{prefix}.cells_saved")

    # -- properties -----------------------------------------------------
    @property
    def cache_enabled(self) -> bool:
        """Whether the pair cache is active."""
        return self._cache is not None

    @property
    def cache_len(self) -> int:
        """Number of cached pair results."""
        return len(self._cache) if self._cache is not None else 0

    @property
    def can_prune(self) -> bool:
        """Bound-cascade decisions are sound only for the banded kernel
        (the bounds are built from the same band geometry; FastDTW's
        refinement window need not contain the upper-bound path)."""
        return (
            self.pruning
            and self.band_radius is not None
            and not self.use_exact_dtw
        )

    def clear_cache(self) -> None:
        """Drop every cached pair result."""
        if self._cache is not None:
            self._cache.clear()

    # -- kernel ---------------------------------------------------------
    def _kernel(self, a: np.ndarray, b: np.ndarray) -> DTWResult:
        """One pair with its warp path (``repro explain``, non-banded modes)."""
        if self.use_exact_dtw:
            return dtw(a, b)
        if self.band_radius is not None:
            return dtw_banded_fast(a, b, self.band_radius)
        return fastdtw(a, b, radius=self.fastdtw_radius)

    def kernel_triples(
        self, xs: List[np.ndarray], ys: List[np.ndarray]
    ) -> List[Tuple[float, int, int]]:
        """Exact kernel runs for pairs ``(xs[i], ys[i])``.

        Returns one raw ``(distance, path_len, cells)`` triple per pair,
        in order.  In banded mode the whole ragged batch is one
        :func:`dtw_banded_batch_abandon` call at infinite thresholds (one
        C call with the native backend), split into ``workers`` chunks
        on the thread pool when one is configured (the C call releases
        the GIL); the other modes run :meth:`_kernel` per pair.
        """
        if not xs:
            return []
        if self.band_radius is None or self.use_exact_dtw:
            return [_result_triple(self._kernel(a, b)) for a, b in zip(xs, ys)]
        radius = self.band_radius

        def run(lo: int, hi: int) -> List[Tuple[float, int, int]]:
            results, _ = dtw_banded_batch_abandon(
                xs[lo:hi], ys[lo:hi], radius, np.full(hi - lo, _INF)
            )
            return results  # type: ignore[return-value]

        count = len(xs)
        if self.workers > 1 and count > 2 * self.workers:
            step = -(-count // self.workers)  # ceil division
            starts = range(0, count, step)
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                chunks = pool.map(lambda lo: run(lo, min(lo + step, count)), starts)
                return [triple for chunk in chunks for triple in chunk]
        return run(0, count)

    def _finish(self, distance: float, path_len: int) -> float:
        if self.normalize_by_path_length:
            return distance / path_len
        return distance

    def _pair_key(
        self,
        a: str,
        b: str,
        keys: Optional[Mapping[str, bytes]],
        scale_tag: str,
    ) -> Optional[tuple]:
        if self._cache is None or keys is None:
            return None
        return (keys[a], keys[b], scale_tag)

    def _lookup(
        self, key: Optional[tuple], stats: PairwiseStats
    ) -> Optional[float]:
        """Cache probe; returns the finished distance on a hit."""
        if key is None or self._cache is None:
            return None
        entry = self._cache.get(key)
        if entry is None:
            return None
        distance, path_len, cells = entry
        stats.cache_hits += 1
        stats.cells_saved += cells
        return self._finish(distance, path_len)

    def _compute(
        self,
        key: Optional[tuple],
        stats: PairwiseStats,
        triple: Tuple[float, int, int],
    ) -> float:
        """Book one exact kernel triple; returns the finished distance."""
        distance, path_len, cells = triple
        if key is not None and self._cache is not None:
            self._cache.put(key, triple)
            stats.cache_misses += 1
        stats.exact += 1
        stats.cells += cells
        return self._finish(distance, path_len)

    def _begin_provenance(self) -> Optional[Dict[Pair, Dict[str, Any]]]:
        """Fresh provenance map for one compare call (None when off)."""
        prov: Optional[Dict[Pair, Dict[str, Any]]] = (
            {} if self.record_provenance else None
        )
        self.last_provenance = prov
        return prov

    def _flush(self, stats: PairwiseStats) -> None:
        """Publish one comparison phase's stats to metrics + cumulative."""
        self.stats.add(stats)
        self._c_pairs.inc(stats.pairs)
        self._c_exact.inc(stats.exact)
        self._c_pruned.inc(stats.pruned)
        self._c_hits.inc(stats.cache_hits)
        self._c_misses.inc(stats.cache_misses)
        self._c_cells.inc(stats.cells)
        self._c_cells_saved.inc(stats.cells_saved)

    # -- exact all-pairs comparison --------------------------------------
    def compare(
        self,
        arrays: Mapping[str, np.ndarray],
        keys: Optional[Mapping[str, bytes]] = None,
        scale_tag: str = "",
    ) -> Tuple[Dict[Pair, float], PairwiseStats]:
        """Exact pairwise distances for every identity pair.

        Args:
            arrays: Identity → normalised series (as the scalar
                comparison loop would see them).
            keys: Identity → cache fingerprint (normally the exact bytes
                of the pre-scale series window); ``None`` disables the
                cache for this call.
            scale_tag: Fingerprint of the common scale divisor shared by
                every series this call (empty when the scale is baked
                into the arrays).

        Returns:
            ``(distances, stats)`` with pairs in sorted-identity order —
            values bit-identical to the legacy per-pair loop.
        """
        stats = PairwiseStats()
        prov = self._begin_provenance()
        ids = sorted(arrays)
        distances: Dict[Pair, float] = {}
        pending: List[Tuple[Pair, Optional[tuple]]] = []
        for index, a in enumerate(ids):
            for b in ids[index + 1 :]:
                stats.pairs += 1
                key = self._pair_key(a, b, keys, scale_tag)
                hit = self._lookup(key, stats)
                if hit is not None:
                    distances[(a, b)] = hit
                    if prov is not None:
                        prov[(a, b)] = {
                            "tag": PROV_CACHE,
                            "key": key,
                        }
                else:
                    distances[(a, b)] = _INF  # placeholder, keeps order
                    pending.append(((a, b), key))
        for (pair, key), triple in zip(
            pending, self._run_kernels([p for p, _ in pending], arrays)
        ):
            distances[pair] = self._compute(key, stats, triple)
            if prov is not None:
                prov[pair] = {
                    "tag": PROV_EXACT,
                    "key": key,
                }
        self._flush(stats)
        return distances, stats

    def _run_kernels(
        self, pairs: List[Pair], arrays: Mapping[str, np.ndarray]
    ) -> List[Tuple[float, int, int]]:
        """:meth:`kernel_triples` for identity pairs over ``arrays``."""
        return self.kernel_triples(
            [arrays[a] for a, _ in pairs], [arrays[b] for _, b in pairs]
        )

    # -- threshold-aware comparison (bound cascade) ----------------------
    def compare_decided(
        self,
        arrays: Mapping[str, np.ndarray],
        keys: Optional[Mapping[str, bytes]],
        scale_tag: str,
        cutoff: float,
        threshold_on: str,
    ) -> Tuple[Dict[Pair, float], Dict[Pair, bool], PairwiseStats]:
        """Flag every pair against the threshold, running DTW lazily.

        Produces exactly the flag set the exact pairwise loop followed
        by the threshold rule would (``distance <= cutoff``, on min–max
        normalised distances when ``threshold_on == "normalized"``),
        while replacing DTW runs with bound decisions wherever the
        bounds cannot change the outcome.  Pairs decided from bounds
        carry a *surrogate* distance (their deciding bound, clipped into
        the observed ``[dmin, dmax]``) that sits on the correct side of
        the threshold after min–max normalisation.

        Requires :attr:`can_prune`; callers fall back to
        :meth:`compare` + explicit thresholding otherwise.

        Returns:
            ``(distances, flags, stats)`` in sorted-identity order.
        """
        if not self.can_prune:
            raise RuntimeError("compare_decided requires banded-kernel pruning")
        assert self.band_radius is not None
        radius = self.band_radius
        stats = PairwiseStats()
        prov = self._begin_provenance()
        ids = sorted(arrays)
        pairs: List[Pair] = [
            (a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]
        ]
        stats.pairs = len(pairs)
        if not pairs:
            self._flush(stats)
            return {}, {}, stats

        exact: Dict[Pair, float] = {}
        pair_keys: Dict[Pair, Optional[tuple]] = {}
        bounds: Dict[Pair, _PairBounds] = {}
        # Pruned pairs never produce a kernel triple to cache, so repeat
        # windows used to recompute their bounds from scratch every
        # period (hit_rate 0.136 on the pruning benchmark).  Bounds are
        # threshold-independent, so they are cached under a mode-tagged
        # key ("bound" + the usual fingerprints) and the verdict +
        # surrogate are re-derived from the cached sandwich — decisions
        # stay identical under any cutoff or report min/max.
        bound_cached: set = set()

        def bound_cache_key(pair: Pair) -> Optional[tuple]:
            key = pair_keys[pair]
            if key is None or self._cache is None:
                return None
            return ("bound",) + key

        def note_pruned(pair: Pair) -> None:
            """Cache bookkeeping for a pair decided from its bounds."""
            bkey = bound_cache_key(pair)
            if bkey is None:
                return
            bound = bounds[pair]
            if pair in bound_cached:
                stats.cache_hits += 1
            else:
                assert self._cache is not None
                self._cache.put(bkey, (bound.lower, bound.upper, bound.cells))
                stats.cache_misses += 1

        for pair in pairs:
            a, b = pair
            key = self._pair_key(a, b, keys, scale_tag)
            pair_keys[pair] = key
            hit = self._lookup(key, stats)
            if hit is not None:
                exact[pair] = hit
                if prov is not None:
                    prov[pair] = {
                        "tag": PROV_CACHE,
                        "key": key,
                    }
                continue
            bkey = bound_cache_key(pair)
            if bkey is not None:
                assert self._cache is not None
                cached = self._cache.get(bkey)
                if cached is not None:
                    bounds[pair] = _PairBounds(
                        cached[0], cached[1], int(cached[2])
                    )
                    bound_cached.add(pair)
                    continue
            xa, xb = arrays[a], arrays[b]
            n, m = xa.size, xb.size
            lower = dtw_band_lower_bound(xa, xb, radius)
            upper_cost, _upper_len = dtw_band_upper_bound(xa, xb, radius)
            if self.normalize_by_path_length:
                lower /= n + m - 1  # longest possible warp path
                upper = upper_cost / max(n, m)  # shortest possible path
            else:
                upper = upper_cost
            bounds[pair] = _PairBounds(lower, upper, band_cells(n, m, radius))

        def run_exact(
            pair: Pair, triple: Optional[Tuple[float, int, int]] = None
        ) -> float:
            if triple is None:
                (triple,) = self._run_kernels([pair], arrays)
            value = self._compute(pair_keys[pair], stats, triple)
            exact[pair] = value
            del bounds[pair]
            if prov is not None:
                prov[pair] = {
                    "tag": PROV_EXACT,
                    "key": pair_keys[pair],
                }
            return value

        def run_exact_batch(batch: List[Pair]) -> None:
            for pair, triple in zip(batch, self._run_kernels(batch, arrays)):
                run_exact(pair, triple)

        flags: Dict[Pair, bool] = {}
        surrogates: Dict[Pair, float] = {}

        if threshold_on == "raw":
            ambiguous: List[Pair] = []
            for pair in pairs:
                if pair in exact:
                    continue
                bound = bounds[pair]
                if bound.upper <= cutoff:
                    flags[pair] = True
                    surrogates[pair] = bound.upper
                    stats.pruned += 1
                    stats.cells_saved += bound.cells
                    note_pruned(pair)
                    if prov is not None:
                        prov[pair] = {
                            "tag": PROV_PRUNED_UPPER,
                            "bound": bound.upper,
                        }
                elif bound.lower > cutoff:
                    flags[pair] = False
                    surrogates[pair] = bound.lower
                    stats.pruned += 1
                    stats.cells_saved += bound.cells
                    note_pruned(pair)
                    if prov is not None:
                        prov[pair] = {
                            "tag": PROV_PRUNED_LOWER,
                            "bound": bound.lower,
                        }
                else:
                    ambiguous.append(pair)
            run_exact_batch(ambiguous)
            for pair, value in exact.items():
                flags[pair] = value <= cutoff
        else:  # "normalized": Eq. 8 min–max, then threshold
            # Pin down the report's exact min and max distance by
            # best-bound-first refinement: the true min cannot hide in a
            # pair whose lower bound exceeds an already-computed value.
            by_lower = sorted(bounds, key=lambda p: bounds[p].lower)
            while by_lower:
                by_lower = [p for p in by_lower if p in bounds]
                if not by_lower:
                    break
                if exact and min(exact.values()) <= bounds[by_lower[0]].lower:
                    break
                run_exact(by_lower.pop(0))
            by_upper = sorted(
                bounds, key=lambda p: bounds[p].upper, reverse=True
            )
            while by_upper:
                by_upper = [p for p in by_upper if p in bounds]
                if not by_upper:
                    break
                if exact and max(exact.values()) >= bounds[by_upper[0]].upper:
                    break
                run_exact(by_upper.pop(0))
            dmin = min(exact.values())
            dmax = max(exact.values())
            denom = dmax - dmin
            if denom < _SIGMA_FLOOR:
                # Degenerate min–max: every distance normalises to 0
                # (maximal similarity), exactly as minmax() defines it.
                flag_all = 0.0 <= cutoff
                for pair in pairs:
                    flags[pair] = flag_all
                    if pair not in exact:
                        bound = bounds[pair]
                        surrogates[pair] = min(max(bound.lower, dmin), dmax)
                        stats.pruned += 1
                        stats.cells_saved += bound.cells
                        note_pruned(pair)
                        if prov is not None:
                            prov[pair] = {
                                "tag": PROV_PRUNED_DEGENERATE,
                                "bound": bound.lower,
                            }
            else:
                ambiguous = []
                for pair in pairs:
                    if pair in exact:
                        continue
                    bound = bounds[pair]
                    if (bound.upper - dmin) / denom <= cutoff:
                        flags[pair] = True
                        surrogates[pair] = min(bound.upper, dmax)
                        stats.pruned += 1
                        stats.cells_saved += bound.cells
                        note_pruned(pair)
                        if prov is not None:
                            prov[pair] = {
                                "tag": PROV_PRUNED_UPPER,
                                "bound": bound.upper,
                            }
                    elif (bound.lower - dmin) / denom > cutoff:
                        flags[pair] = False
                        surrogates[pair] = max(bound.lower, dmin)
                        stats.pruned += 1
                        stats.cells_saved += bound.cells
                        note_pruned(pair)
                        if prov is not None:
                            prov[pair] = {
                                "tag": PROV_PRUNED_LOWER,
                                "bound": bound.lower,
                            }
                    else:
                        ambiguous.append(pair)
                run_exact_batch(ambiguous)
                for pair, value in exact.items():
                    flags[pair] = (value - dmin) / denom <= cutoff

        distances = {
            pair: exact[pair] if pair in exact else surrogates[pair]
            for pair in pairs
        }
        self._flush(stats)
        return distances, flags, stats

    def compare_incremental(self, *args: Any, **kwargs: Any) -> Any:
        """Retired: the incremental engine lost to the exact engine on
        every benchmark once the kernel went native, and was removed.

        The name stays so external tracers that resolve it keep working.
        """
        raise RuntimeError(
            "the incremental pairwise engine was retired; detect() runs "
            "the exact engine"
        )
