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

* **Incremental pair cache** — an LRU cache keyed by per-identity
  window fingerprints (the exact bytes of the normalised series, plus
  the common scale factor), so a detection period only recomputes pairs
  whose series actually changed since the previous period.  A hit
  returns the stored distance/path-length verbatim — bit-identical to
  recomputation.

* **Optional parallel executor** — a bounded thread pool (off by
  default) for the exact kernel evaluations that survive the cascade.

* **Incremental mode** (off by default) — per-identity envelope state
  and per-pair :class:`IncrementalPairState` persisted *across*
  detection periods, so a 1 s recheck whose windows slid by a handful
  of beacons pays for the new beacons only: envelopes update by
  shifting the overlapping prefix instead of rebuilding, unchanged
  windows carry the previous period's exact distance forward
  (``incremental-carry``), and pairs whose verdict the bounds cannot
  flip run :func:`dtw_banded_batch_abandon` — a banded kernel that
  stops after a few anti-diagonals once the accumulated cost proves
  the pair sits above the decision boundary (``early-abandon``).
  Flag sets stay byte-identical to the exact path; see DESIGN.md §5f
  for the invariants and the correctness argument.

Everything is instrumented through :mod:`repro.obs` (pairs pruned,
cache hits/misses, cells relaxed and saved) and configured through
:class:`repro.core.detector.DetectorConfig` knobs or the process-wide
defaults (:func:`set_engine_defaults`, wired to CLI flags).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
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
    "IncrementalPairState",
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
#: Exact distance carried from the previous period's kernel run because
#: neither window changed — bit-replayable like ``exact``.
PROV_INCREMENTAL = "incremental-carry"
#: Kernel run stopped early once the accumulated cost proved the pair
#: lies above the decision boundary — the distance is a surrogate.
PROV_ABANDON = "early-abandon"

_INF = math.inf

#: Relative float-drift guard on the early-abandon decision boundary:
#: the abandon threshold is pushed this far above the exact boundary so
#: that the handful of IEEE-754 roundings between the kernel's
#: accumulated cost and the detector's flag expression can never flip
#: an abandoned pair's verdict (the guard dominates the ~(n+m)·2⁻⁵³
#: accumulation error by six orders of magnitude; pairs within the
#: guard of the boundary simply run to completion).
_ABANDON_GUARD = 1e-9

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
        incremental: Persist per-identity envelopes and per-pair state
            across detection periods and decide sliding-window rechecks
            from carries, bounds, and early-abandon DTW.  Off by default
            for the same reason as ``pruning``: decided-from-bounds and
            abandoned pairs carry surrogate distances (flag sets are
            unaffected — see DESIGN.md §5f).
        cache_size: Maximum cached pair results (LRU).  0 disables.
        workers: Thread-pool width for exact kernel evaluations.
            0 runs inline.
    """

    engine: bool = True
    pruning: bool = False
    incremental: bool = False
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
    incremental: Optional[bool] = None,
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
            ("incremental", incremental),
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


def _row_dots(mat: np.ndarray) -> np.ndarray:
    """Per-row ``row @ row``, bit-identical to the scalar ``d @ d``.

    A per-row loop (rather than one ``einsum``) so each row reduces
    with exactly the summation order of the scalar bound helpers — the
    batched bounds then reproduce the per-pair bounds bit-for-bit.
    """
    out = np.empty(mat.shape[0])
    for p in range(mat.shape[0]):
        row = np.ascontiguousarray(mat[p])
        out[p] = row @ row
    return out


def dtw_band_upper_bound_batch(
    xs_mat: np.ndarray, ys_mat: np.ndarray, radius: int
) -> Tuple[np.ndarray, int]:
    """:func:`dtw_band_upper_bound` over a stack of same-shape pairs.

    ``xs_mat``/``ys_mat`` are ``(count, n)`` / ``(count, m)`` stacks;
    returns ``(costs, path_length)`` with ``costs[p]`` bit-identical to
    the scalar bound of row ``p`` (one shared gather of the cached path
    indices replaces per-pair path construction).
    """
    count, n = xs_mat.shape
    m = ys_mat.shape[1]
    path = _upper_path_indices(n, m, radius)
    if path is None:  # pragma: no cover - no known geometry triggers this
        return np.full(count, _INF), max(n, m)
    x_idx, y_idx, path_len = path
    return _row_dots(xs_mat[:, x_idx] - ys_mat[:, y_idx]), path_len


@lru_cache(maxsize=512)
def _envelope_starts(
    n: int, m: int, radius: int, width: int
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Fixed-width envelope window starts for both bound directions.

    For a persistent envelope of ``width`` sliding windows, returns the
    0-indexed start per query sample such that each window is a superset
    of the sample's true band interval — the covering condition of
    :func:`_envelope_exceedance` — for the row direction (query ``x``
    against an envelope of ``y``) and the column direction (query ``y``
    against an envelope of ``x``).  A direction is ``None`` when
    ``width`` cannot cover its widest interval (e.g. unequal series
    lengths stretch the band beyond ``2·radius + 1``): callers must
    fall back to computing that envelope directly.
    """
    lo, hi, monotone, _ = _band_arrays(n, m, radius)
    row: Optional[np.ndarray] = None
    if width <= m and int(np.max(hi - lo)) + 1 <= width:
        row = np.minimum(lo - 1, m - width)
        row.setflags(write=False)
    col: Optional[np.ndarray] = None
    if monotone:
        cols = np.arange(1, m + 1, dtype=np.int64)
        row_hi = np.searchsorted(lo, cols, side="right")
        row_lo = np.searchsorted(hi, cols, side="left") + 1
        if (
            bool(np.all(row_lo <= row_hi))
            and width <= n
            and int(np.max(row_hi - row_lo)) + 1 <= width
        ):
            col = np.minimum(row_lo - 1, n - width)
            col.setflags(write=False)
    return row, col


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
        cache_hits: Pairs answered from the incremental cache.
        cache_misses: Kernel runs that went through an enabled cache.
        cells: DP cells actually relaxed by kernel runs.
        cells_saved: DP cells avoided via cache hits and pruning.
        incremental: Pairs whose exact distance was carried from the
            previous period's per-pair state (windows unchanged).
        abandoned: Kernel runs stopped early by the abandon threshold.
        envelope_updates: Per-identity envelopes updated by sliding the
            overlap instead of rebuilding from scratch.
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


@dataclass
class IncrementalPairState:
    """Last exact evaluation of one identity pair, kept across periods.

    Keyed like the LRU cache — the stored window fingerprints and scale
    tag must match the current period's exactly for the carried triple
    to be reused — but stored per *identity pair*, so it survives cache
    churn from unrelated pairs and can be dropped when an identity
    leaves (:meth:`PairwiseEngine.drop_identity`).

    Attributes:
        key_a: Window fingerprint of the smaller identity at the last
            exact kernel run.
        key_b: Same for the larger identity.
        scale_tag: Normalisation-scale fingerprint of that run.
        triple: The run's raw ``(distance, path_length, cells)``.
        flag: The verdict recorded for the pair that period (``None``
            until a threshold-aware compare decided it).
    """

    key_a: bytes
    key_b: bytes
    scale_tag: str
    triple: Tuple[float, int, int]
    flag: Optional[bool] = None


@dataclass
class _IdentityState:
    """Per-identity raw window + persistent envelope (incremental mode).

    The envelope arrays are sliding min/max of the *raw* window at a
    fixed width ``2·radius + 1`` (the exact Sakoe–Chiba interval width
    for equal-length pairs; wider intervals fall back to direct bound
    computation).  They live in the raw domain because the Z-score
    parameters change every period, and the per-period normalisation
    ``(x - mean) / divisor`` is monotone, so the normalised envelope is
    just the normalised raw envelope — an O(n) transform instead of an
    O(n·width) rebuild.
    """

    key: bytes
    values: np.ndarray
    timestamps: np.ndarray
    env_lo: Optional[np.ndarray]  # None when the window is <= the width
    env_hi: Optional[np.ndarray]
    width: int


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
        incremental: Allow :meth:`compare_incremental` (band mode only):
            persistent per-identity envelopes + per-pair carry state +
            early-abandon kernel runs.
        cache_size: LRU capacity in pairs; 0 disables caching.
        workers: Thread-pool width for exact evaluations; 0 = inline.
        registry: Metrics registry (defaults to the process-global one).
        metric_prefix: Instrument-name prefix (``"detector"`` so the
            engine's counters extend the detector's existing family).
    """

    #: Eviction bounds for the incremental state stores (LRU by touch):
    #: per-pair carry states and per-identity envelope states.  Sized
    #: for hundreds of concurrently heard identities per observer —
    #: far beyond the paper's scenarios — while keeping worst-case
    #: memory bounded (~window bytes per identity, ~40 B per pair).
    MAX_PAIR_STATES = 8192
    MAX_IDENTITY_STATES = 512

    def __init__(
        self,
        band_radius: Optional[int] = 10,
        use_exact_dtw: bool = False,
        fastdtw_radius: int = 1,
        normalize_by_path_length: bool = True,
        pruning: bool = False,
        incremental: bool = False,
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
        self.incremental = incremental
        if band_radius is not None and not use_exact_dtw:
            # Pay the one-time native-backend compile (if any) here, at
            # construction, so the first detection period isn't billed
            # for it.  A failed build just means numpy kernels.
            native_warmup()
        self.workers = workers
        self._cache = _LRUCache(cache_size) if cache_size > 0 else None
        self._pair_states: "OrderedDict[Pair, IncrementalPairState]" = (
            OrderedDict()
        )
        self._identity_states: "OrderedDict[str, _IdentityState]" = OrderedDict()
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
        self._c_incremental = metrics.counter(f"{prefix}.pairs_incremental")
        self._c_abandoned = metrics.counter(f"{prefix}.pairs_abandoned")
        self._c_env_updates = metrics.counter(f"{prefix}.envelope_updates")

    # -- properties -----------------------------------------------------
    @property
    def cache_enabled(self) -> bool:
        """Whether the incremental pair cache is active."""
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

    @property
    def can_incremental(self) -> bool:
        """Incremental decisions need the banded kernel for the same
        reason pruning does: envelopes, abandon thresholds, and bounds
        are all derived from the Sakoe–Chiba band geometry."""
        return (
            self.incremental
            and self.band_radius is not None
            and not self.use_exact_dtw
        )

    @property
    def incremental_state_len(self) -> int:
        """Number of per-pair carry states currently held."""
        return len(self._pair_states)

    def clear_cache(self) -> None:
        """Drop every cached pair result."""
        if self._cache is not None:
            self._cache.clear()

    def clear_incremental(self) -> None:
        """Drop all per-pair and per-identity incremental state."""
        self._pair_states.clear()
        self._identity_states.clear()

    def drop_identity(self, identity: str) -> None:
        """Forget one identity's incremental state (eviction hook).

        Removes the identity's envelope state and every per-pair carry
        state touching it, so a departed (or re-joining) identity can
        never be served a stale carry.  Mirrors the PR 1 fix for the
        density estimator's illegitimate set on ``reset()``.
        """
        self._identity_states.pop(identity, None)
        stale = [pair for pair in self._pair_states if identity in pair]
        for pair in stale:
            del self._pair_states[pair]

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
        self._c_incremental.inc(stats.incremental)
        self._c_abandoned.inc(stats.abandoned)
        self._c_env_updates.inc(stats.envelope_updates)

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

    # -- incremental comparison (persistent state + early abandon) -------
    def _store_pair_state(
        self,
        pair: Pair,
        key_a: bytes,
        key_b: bytes,
        scale_tag: str,
        triple: Tuple[float, int, int],
    ) -> None:
        """Record a pair's exact kernel triple for next-period carries."""
        state = self._pair_states.get(pair)
        if state is not None:
            state.key_a = key_a
            state.key_b = key_b
            state.scale_tag = scale_tag
            state.triple = triple
            state.flag = None
            self._pair_states.move_to_end(pair)
            return
        self._pair_states[pair] = IncrementalPairState(
            key_a, key_b, scale_tag, triple
        )
        while len(self._pair_states) > self.MAX_PAIR_STATES:
            self._pair_states.popitem(last=False)

    def _refresh_identity(
        self,
        identity: str,
        values: np.ndarray,
        timestamps: np.ndarray,
        key: bytes,
        stats: PairwiseStats,
    ) -> Tuple[_IdentityState, bool]:
        """Bring one identity's raw-domain envelope state up to date.

        Three cases, cheapest first: the window is byte-identical to
        the stored one (no-op); the stored window is a prefix-aligned
        predecessor of the new one (slide: copy the still-valid
        envelope entries, compute fresh entries only for the tail the
        new beacons touched — O(new·width)); anything else (rebuild —
        O(window·width)).

        Returns ``(state, overlapped)``.  ``overlapped`` is True when
        the new window shares an aligned sample run with the previous
        period's — the precondition :meth:`compare_incremental` uses to
        allow surrogate-producing fast paths for the identity's pairs.
        Disjoint consecutive windows (observation time == detection
        period, the fig11a grid) therefore take the fully exact path
        and reproduce exact-mode reports byte for byte.
        """
        assert self.band_radius is not None
        width = 2 * self.band_radius + 1
        state = self._identity_states.get(identity)
        if state is not None and state.key == key and state.width == width:
            self._identity_states.move_to_end(identity)
            return state, True
        n = values.size
        overlapped = False
        slid = False
        env_lo: Optional[np.ndarray] = None
        env_hi: Optional[np.ndarray] = None
        if state is not None and state.timestamps.size and n:
            old_ts = state.timestamps
            f = int(np.searchsorted(old_ts, timestamps[0], side="left"))
            o = old_ts.size - f  # overlap length if the tails align
            if (
                0 < o <= n
                and np.array_equal(old_ts[f:], timestamps[:o])
                and np.array_equal(state.values[f:], values[:o])
            ):
                overlapped = True
                if (
                    n > width
                    and o > width
                    and state.env_lo is not None
                    and state.env_hi is not None
                    and state.width == width
                ):
                    keep = o - width + 1  # envelope entries inside the overlap
                    count = n - width + 1
                    env_lo = np.empty(count)
                    env_hi = np.empty(count)
                    env_lo[:keep] = state.env_lo[f : f + keep]
                    env_hi[:keep] = state.env_hi[f : f + keep]
                    if keep < count:
                        tail = sliding_window_view(values[keep:], width)
                        env_lo[keep:] = tail.min(axis=1)
                        env_hi[keep:] = tail.max(axis=1)
                    stats.envelope_updates += 1
                    slid = True
        if n > width and not slid:
            windows = sliding_window_view(values, width)
            env_lo = np.ascontiguousarray(windows.min(axis=1))
            env_hi = np.ascontiguousarray(windows.max(axis=1))
        state = _IdentityState(key, values, timestamps, env_lo, env_hi, width)
        self._identity_states[identity] = state
        self._identity_states.move_to_end(identity)
        while len(self._identity_states) > self.MAX_IDENTITY_STATES:
            self._identity_states.popitem(last=False)
        return state, overlapped

    def _incremental_lower_bound(
        self,
        xa: np.ndarray,
        xb: np.ndarray,
        env_a: Optional[Tuple[np.ndarray, np.ndarray]],
        env_b: Optional[Tuple[np.ndarray, np.ndarray]],
        radius: int,
    ) -> float:
        """:func:`dtw_band_lower_bound` served from persistent envelopes.

        ``env_a``/``env_b`` are the identities' normalised ``(lo, hi)``
        envelope arrays (``None`` when the window is no longer than the
        envelope width — the whole-series min/max then covers every
        interval).  Directions whose band intervals outgrow the fixed
        envelope width (unequal series lengths) fall back to computing
        the envelope directly, exactly as the non-incremental bound.
        """
        n, m = xa.size, xb.size
        bound = lb_kim(xa, xb)
        width = 2 * radius + 1
        row_starts, col_starts = _envelope_starts(n, m, radius, width)
        if env_b is None:
            env_lo = float(np.min(xb))
            env_hi = float(np.max(xb))
            d = np.maximum(xa - env_hi, 0.0) + np.maximum(env_lo - xa, 0.0)
            bound = max(bound, float(d @ d))
        elif row_starts is not None:
            el = env_b[0][row_starts]
            eh = env_b[1][row_starts]
            d = np.maximum(xa - eh, 0.0) + np.maximum(el - xa, 0.0)
            bound = max(bound, float(d @ d))
        else:
            lo, hi, _, _ = _band_arrays(n, m, radius)
            bound = max(bound, _envelope_exceedance(xa, xb, lo - 1, hi - 1))
        if env_a is None:
            env_lo = float(np.min(xa))
            env_hi = float(np.max(xa))
            d = np.maximum(xb - env_hi, 0.0) + np.maximum(env_lo - xb, 0.0)
            bound = max(bound, float(d @ d))
        elif col_starts is not None:
            el = env_a[0][col_starts]
            eh = env_a[1][col_starts]
            d = np.maximum(xb - eh, 0.0) + np.maximum(el - xb, 0.0)
            bound = max(bound, float(d @ d))
        return bound

    def _compute_bounds(
        self,
        need: List[Pair],
        arrays: Mapping[str, np.ndarray],
        norm_env: Mapping[str, Optional[Tuple[np.ndarray, np.ndarray]]],
        radius: int,
        bounds: Dict[Pair, "_PairBounds"],
    ) -> None:
        """Fill ``bounds`` for ``need`` with the lower/upper sandwich.

        Pairs sharing one ``(n, m)`` shape whose persistent envelopes
        and fixed-width window starts all exist are bounded in one
        vectorised pass (a shared gather of the cached envelope starts
        and upper-path indices); each batched bound is bit-identical to
        the per-pair :meth:`_incremental_lower_bound` /
        :func:`dtw_band_upper_bound` result, so batching never changes
        a pruning decision.  Remaining pairs fall back to the scalar
        helpers.
        """
        width = 2 * radius + 1
        groups: Dict[Tuple[int, int], List[Pair]] = {}
        for pair in need:
            shape = (arrays[pair[0]].size, arrays[pair[1]].size)
            groups.setdefault(shape, []).append(pair)

        def store(pair: Pair, lower: float, upper_cost: float, n: int, m: int):
            if self.normalize_by_path_length:
                lower /= n + m - 1
                upper = upper_cost / max(n, m)
            else:
                upper = upper_cost
            bounds[pair] = _PairBounds(lower, upper, band_cells(n, m, radius))

        for (n, m), group in groups.items():
            row_starts, col_starts = _envelope_starts(n, m, radius, width)
            batch: List[Pair] = []
            for pair in group:
                a, b = pair
                if (
                    row_starts is None
                    or col_starts is None
                    or norm_env[a] is None
                    or norm_env[b] is None
                ):
                    lower = self._incremental_lower_bound(
                        arrays[a], arrays[b], norm_env[a], norm_env[b], radius
                    )
                    upper_cost, _len = dtw_band_upper_bound(
                        arrays[a], arrays[b], radius
                    )
                    store(pair, lower, upper_cost, n, m)
                else:
                    batch.append(pair)
            if not batch:
                continue
            # Stack per *identity*, then gather per pair: identities
            # repeat across the O(k^2) pairs, so this turns ~P row
            # stacks into ~k stacks plus one fancy-index per side.
            a_ids = sorted({pair[0] for pair in batch})
            b_ids = sorted({pair[1] for pair in batch})
            a_pos = {ident: k for k, ident in enumerate(a_ids)}
            b_pos = {ident: k for k, ident in enumerate(b_ids)}
            ai = np.asarray([a_pos[pair[0]] for pair in batch])
            bi = np.asarray([b_pos[pair[1]] for pair in batch])
            xs_all = np.stack([arrays[i] for i in a_ids])
            ys_all = np.stack([arrays[i] for i in b_ids])
            xs = xs_all[ai]
            ys = ys_all[bi]
            d0 = xs[:, 0] - ys[:, 0]
            d1 = xs[:, -1] - ys[:, -1]
            lowers = d0 * d0 + d1 * d1
            env_b_lo = np.stack([norm_env[i][0] for i in b_ids])
            env_b_hi = np.stack([norm_env[i][1] for i in b_ids])
            el = env_b_lo[np.ix_(bi, row_starts)]
            eh = env_b_hi[np.ix_(bi, row_starts)]
            lowers = np.maximum(
                lowers,
                _row_dots(np.maximum(xs - eh, 0.0) + np.maximum(el - xs, 0.0)),
            )
            env_a_lo = np.stack([norm_env[i][0] for i in a_ids])
            env_a_hi = np.stack([norm_env[i][1] for i in a_ids])
            el = env_a_lo[np.ix_(ai, col_starts)]
            eh = env_a_hi[np.ix_(ai, col_starts)]
            lowers = np.maximum(
                lowers,
                _row_dots(np.maximum(ys - eh, 0.0) + np.maximum(el - ys, 0.0)),
            )
            uppers, _plen = dtw_band_upper_bound_batch(xs, ys, radius)
            for index, pair in enumerate(batch):
                store(pair, float(lowers[index]), float(uppers[index]), n, m)

    def compare_incremental(
        self,
        arrays: Mapping[str, np.ndarray],
        raw: Mapping[str, np.ndarray],
        times: Mapping[str, np.ndarray],
        keys: Mapping[str, bytes],
        scale_tag: str,
        norm_params: Mapping[str, Tuple[float, float]],
        cutoff: float,
        threshold_on: str,
    ) -> Tuple[Dict[Pair, float], Dict[Pair, bool], PairwiseStats]:
        """Threshold-aware comparison priced by what changed since last
        period.

        The same flag contract as :meth:`compare_decided` — the flag
        set is byte-identical to the exact pairwise loop followed by
        the threshold rule — but the work is proportional to the *new*
        beacons:

        1. per-identity envelope states slide instead of rebuilding;
        2. pairs whose windows did not change carry the previous
           period's exact distance (``incremental-carry``);
        3. undecided pairs get the bound sandwich from the persistent
           envelopes (O(window) per pair instead of O(window·width));
        4. pairs the bounds cannot decide run the early-abandon kernel
           seeded with the decision boundary — most verdict-unchanged
           pairs die within a few anti-diagonals (``early-abandon``,
           flag False with a surrogate distance); only genuinely
           near-threshold pairs pay for a full kernel run.

        Args:
            arrays: Identity → normalised window.
            raw: Identity → raw (pre-normalisation) window values.
            times: Identity → window timestamps (aligns the overlap
                between consecutive sliding windows).
            keys: Identity → window fingerprint (exact raw bytes).
            scale_tag: Fingerprint of the normalisation scale.
            norm_params: Identity → ``(mean, divisor)`` actually used
                to produce ``arrays`` (divisor 0.0 = constant series).
            cutoff: Decision threshold.
            threshold_on: ``"normalized"`` (Eq. 8 min–max first) or
                ``"raw"``.

        Returns:
            ``(distances, flags, stats)`` in sorted-identity order.
        """
        if not self.can_incremental:
            raise RuntimeError(
                "compare_incremental requires banded-kernel incremental mode"
            )
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

        norm_env: Dict[str, Optional[Tuple[np.ndarray, np.ndarray]]] = {}
        overlapped: Dict[str, bool] = {}
        for ident in ids:
            state, did_overlap = self._refresh_identity(
                ident, raw[ident], times[ident], keys[ident], stats
            )
            overlapped[ident] = did_overlap
            if state.env_lo is None or state.env_hi is None:
                norm_env[ident] = None
                continue
            mean, divisor = norm_params[ident]
            if divisor == 0.0:
                # Constant-series sentinel: the normalised window is all
                # zeros, and so is its envelope.
                zeros = np.zeros_like(state.env_lo)
                norm_env[ident] = (zeros, zeros)
            else:
                # (x - mean) / divisor is monotone, so the normalised
                # envelope is the normalised raw envelope — bit-equal to
                # sliding min/max over the normalised window.
                norm_env[ident] = (
                    (state.env_lo - mean) / divisor,
                    (state.env_hi - mean) / divisor,
                )

        exact: Dict[Pair, float] = {}
        pair_keys: Dict[Pair, Optional[tuple]] = {}
        bounds: Dict[Pair, _PairBounds] = {}
        must_exact: List[Pair] = []
        need_bounds: List[Pair] = []
        for pair in pairs:
            a, b = pair
            key = self._pair_key(a, b, keys, scale_tag)
            pair_keys[pair] = key
            state = self._pair_states.get(pair)
            if (
                state is not None
                and state.key_a == keys[a]
                and state.key_b == keys[b]
                and state.scale_tag == scale_tag
            ):
                self._pair_states.move_to_end(pair)
                exact[pair] = self._finish(state.triple[0], state.triple[1])
                stats.incremental += 1
                stats.cells_saved += state.triple[2]
                if prov is not None:
                    prov[pair] = {
                        "tag": PROV_INCREMENTAL,
                        "key": key,
                    }
                continue
            if key is not None and self._cache is not None:
                entry = self._cache.get(key)
                if entry is not None:
                    stats.cache_hits += 1
                    stats.cells_saved += entry[2]
                    exact[pair] = self._finish(entry[0], entry[1])
                    self._store_pair_state(pair, keys[a], keys[b], scale_tag, entry)
                    if prov is not None:
                        prov[pair] = {
                            "tag": PROV_CACHE,
                            "key": key,
                        }
                    continue
            if not (overlapped[a] and overlapped[b]):
                # At least one window is fresh (no aligned overlap with
                # the previous period).  Surrogate-producing shortcuts
                # would make the report diverge from exact mode on
                # disjoint-window workloads (the fig11a grid), so these
                # pairs always run the exact kernel.
                must_exact.append(pair)
                continue
            need_bounds.append(pair)
        self._compute_bounds(need_bounds, arrays, norm_env, radius, bounds)

        flags: Dict[Pair, bool] = {}
        surrogates: Dict[Pair, float] = {}

        def run_exact(
            pair: Pair, triple: Optional[Tuple[float, int, int]] = None
        ) -> float:
            a, b = pair
            if triple is None:
                (triple,) = self._run_kernels([pair], arrays)
            value = self._compute(pair_keys[pair], stats, triple)
            self._store_pair_state(pair, keys[a], keys[b], scale_tag, triple)
            exact[pair] = value
            bounds.pop(pair, None)
            if prov is not None:
                prov[pair] = {
                    "tag": PROV_EXACT,
                    "key": pair_keys[pair],
                }
            return value

        def run_batch(jobs: Dict[Pair, float]) -> Dict[Pair, Tuple[float, int]]:
            """ONE early-abandon kernel call over all undecided pairs.

            ``jobs`` maps each pair to its abandon boundary in distance
            units (``inf`` forces an exact run — carries the must-exact
            and extreme-candidate pairs through the same call, so a
            detection pays for a single ragged kernel launch instead of
            one per decision phase).  Completed pairs are bit-identical
            kernel results and go through ``run_exact``; returns
            ``pair → (evidence, cells_saved)`` (distance units) for the
            pairs that abandoned, whose flag/surrogate the caller
            assigns — or revokes, refunding ``cells_saved`` — once the
            decision boundary is final.
            """
            abandoned: Dict[Pair, Tuple[float, int]] = {}
            batch = list(jobs)
            xs = [arrays[a] for a, _ in batch]
            ys = [arrays[b] for _, b in batch]
            # distance = cost / path_length with path_length <= n + m - 1,
            # so cost > c·(n+m-1) implies distance > c.
            factors = np.asarray(
                [
                    float(x.size + y.size - 1) if self.normalize_by_path_length
                    else 1.0
                    for x, y in zip(xs, ys)
                ]
            )
            results, dead = dtw_banded_batch_abandon(
                xs, ys, radius, np.asarray([jobs[p] for p in batch]) * factors
            )
            for index, pair in enumerate(batch):
                triple = results[index]
                if triple is not None:
                    run_exact(pair, triple)
                    continue
                evidence, cells_done = dead[index]
                n, m = xs[index].size, ys[index].size
                saved = max(band_cells(n, m, radius) - cells_done, 0)
                stats.abandoned += 1
                stats.cells += cells_done
                stats.cells_saved += saved
                if self.normalize_by_path_length:
                    evidence /= n + m - 1
                abandoned[pair] = (evidence, saved)
                bounds.pop(pair, None)
                if prov is not None:
                    prov[pair] = {
                        "tag": PROV_ABANDON,
                        "bound": evidence,
                    }
            return abandoned

        jobs: Dict[Pair, float] = {pair: _INF for pair in must_exact}

        if threshold_on == "raw":
            c_safe = cutoff + _ABANDON_GUARD * (abs(cutoff) + 1.0)
            for pair in pairs:
                if pair in exact or pair in jobs:
                    continue
                bound = bounds.pop(pair)
                if bound.upper <= cutoff:
                    flags[pair] = True
                    surrogates[pair] = bound.upper
                    stats.pruned += 1
                    stats.cells_saved += bound.cells
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
                    if prov is not None:
                        prov[pair] = {
                            "tag": PROV_PRUNED_LOWER,
                            "bound": bound.lower,
                        }
                else:
                    jobs[pair] = c_safe
            for pair, (evidence, _saved) in run_batch(jobs).items():
                flags[pair] = False
                surrogates[pair] = evidence
            for pair, value in exact.items():
                flags[pair] = value <= cutoff
        else:  # "normalized": min–max first, so pin dmin/dmax exactly
            deferred: Dict[Pair, _PairBounds] = {}
            if bounds:
                # Conservative interval for the true extremes from the
                # carried exacts and the bound sandwich: dmin lies in
                # [dmin_low, dmin_up] and dmax in [dmax_low, dmax_up].
                ex = list(exact.values())
                lows = [b.lower for b in bounds.values()]
                ups = [b.upper for b in bounds.values()]
                dmin_low, dmin_up = min(ex + lows), min(ex + ups)
                dmax_low, dmax_up = max(ex + lows), max(ex + ups)
                if len(bounds) > 8:
                    # Seed the interval with the exact distance of the
                    # best dmax candidate: max-of-lowers is a loose
                    # dmax floor, so one cheap scalar run collapses
                    # "could be the max" from half the pairs to the
                    # genuine tail.  (dmin needs no seed — min-of-
                    # uppers is already tight for near-identical
                    # windows, so its candidate set is small.)
                    seed = max(bounds, key=lambda p: bounds[p].lower)
                    value = run_exact(seed)
                    ex.append(value)
                    dmax_low = max(dmax_low, value)
                    dmin_up = min(dmin_up, value)
                denom_up = max(dmax_up - dmin_low, 0.0)
                denom_low = max(dmax_low - dmin_up, 0.0)
                if cutoff >= 0.0:
                    c_up = dmin_up + cutoff * denom_up
                    c_low = dmin_low + cutoff * denom_low
                else:
                    c_up = dmin_up + cutoff * denom_low
                    c_low = dmin_low + cutoff * denom_up
                # Predicted boundary: the seeded dmax_low is an
                # *achieved* distance (usually the true dmax), so
                # dmin_up + cutoff·(dmax_low − dmin_low) is a much
                # tighter abandon boundary than the worst-case c_up
                # built from the staircase uppers.  Abandoning at a
                # guessed boundary is sound regardless of whether the
                # guess was right — the evidence is a true lower bound
                # on the pair's distance either way — because every
                # abandon verdict is re-validated against the *pinned*
                # boundary below, and unproven pairs rerun exactly.
                denom_guess = max(dmax_low - dmin_low, 0.0)
                c_guess = dmin_up + cutoff * denom_guess
                c_guess = min(max(c_guess, c_low), c_up)
                c_guess_safe = c_guess + _ABANDON_GUARD * (
                    abs(c_guess) + denom_up
                )
                for pair in list(bounds):
                    bound = bounds[pair]
                    if bound.lower <= dmin_up or bound.upper >= dmax_low:
                        # Could be an extreme: its exact value may set
                        # dmin/dmax, so it runs to completion.  (The
                        # non-strict test keeps every achiever of
                        # dmin_up/dmax_low exact, which is what makes
                        # the extremes of the exact set the true ones.)
                        jobs[pair] = _INF
                    elif bound.upper <= c_low or bound.lower > c_up:
                        # Decidable from bounds alone against any
                        # possible boundary; the flag itself is
                        # assigned after pinning, with the exact
                        # path's own float expressions.
                        deferred[pair] = bounds.pop(pair)
                    else:
                        # Near some possible boundary: abandon at the
                        # predicted boundary; the verdict is validated
                        # (or revoked) once the true one is pinned.
                        jobs[pair] = c_guess_safe
            abandoned = run_batch(jobs)
            # Safety net (no-op when the candidate selection above is
            # exhaustive): any surviving bound that could still beat an
            # exact extreme runs exactly, one batched round at a time.
            while bounds:
                dmin_est = min(exact.values())
                todo = [p for p in bounds if bounds[p].lower < dmin_est]
                if not todo:
                    break
                for pair, triple in zip(todo, self._run_kernels(todo, arrays)):
                    run_exact(pair, triple)
            while bounds:
                dmax_est = max(exact.values())
                todo = [p for p in bounds if bounds[p].upper > dmax_est]
                if not todo:
                    break
                for pair, triple in zip(todo, self._run_kernels(todo, arrays)):
                    run_exact(pair, triple)
            dmin = min(exact.values())
            dmax = max(exact.values())
            denom = dmax - dmin
            if denom < _SIGMA_FLOOR:
                # Degenerate spread: exact mode maps every margin to
                # 0.0, overriding every per-pair decision (including
                # any abandon verdict — unreachable in practice, but
                # the override keeps the contract airtight).
                flag_all = 0.0 <= cutoff
                for pair in pairs:
                    flags[pair] = flag_all
                for pair, bound in deferred.items():
                    surrogates[pair] = min(max(bound.lower, dmin), dmax)
                    stats.pruned += 1
                    stats.cells_saved += bound.cells
                    if prov is not None:
                        prov[pair] = {
                            "tag": PROV_PRUNED_DEGENERATE,
                            "bound": bound.lower,
                        }
                for pair, (evidence, _saved) in abandoned.items():
                    surrogates[pair] = min(max(evidence, dmin), dmax)
            else:
                for pair, bound in deferred.items():
                    if (bound.upper - dmin) / denom <= cutoff:
                        flags[pair] = True
                        surrogates[pair] = min(bound.upper, dmax)
                        stats.pruned += 1
                        stats.cells_saved += bound.cells
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
                        if prov is not None:
                            prov[pair] = {
                                "tag": PROV_PRUNED_LOWER,
                                "bound": bound.lower,
                            }
                    else:
                        # The float-evaluated bounds straddle the final
                        # boundary (conservative selection can't rule
                        # this out to the last ulp): run it exactly.
                        run_exact(pair)
                # Validate each abandon verdict against the *pinned*
                # boundary with the exact path's own float expression:
                # the evidence is a proven lower bound on the pair's
                # distance, and IEEE rounding is monotone in the
                # numerator, so evidence failing the cutoff test proves
                # the true distance fails it too.  Pairs whose evidence
                # does not clear the pinned boundary (the prediction
                # was too tight) rerun exactly, with their abandon
                # bookkeeping refunded.
                stragglers: List[Pair] = []
                for pair, (evidence, saved) in abandoned.items():
                    if (evidence - dmin) / denom > cutoff:
                        flags[pair] = False
                        surrogates[pair] = min(max(evidence, dmin), dmax)
                    else:
                        stats.abandoned -= 1
                        stats.cells_saved -= saved
                        stragglers.append(pair)
                run_batch({pair: _INF for pair in stragglers})
                for pair, value in exact.items():
                    flags[pair] = (value - dmin) / denom <= cutoff

        for pair in pairs:
            state = self._pair_states.get(pair)
            if (
                state is not None
                and state.key_a == keys[pair[0]]
                and state.key_b == keys[pair[1]]
                and state.scale_tag == scale_tag
            ):
                state.flag = flags[pair]
        distances = {
            pair: exact[pair] if pair in exact else surrogates[pair]
            for pair in pairs
        }
        self._flush(stats)
        return distances, flags, stats
