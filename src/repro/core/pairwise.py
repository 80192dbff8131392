"""Exact pairwise comparison engine for the Voiceprint comparison phase.

The paper's comparison phase (Section IV-C, Algorithm 1) measures a DTW
distance for every pair of heard identities — O(n²) DTW runs per
detection period, which is the entire computational cost of Voiceprint.
This module runs that stage as one kernel call without changing a
single bit of the result:

* :func:`dtw_banded_batch_abandon` — the Sakoe–Chiba banded DTW kernel
  over a *ragged* batch of pairs (each pair with its own lengths, as
  packet loss gives almost every window its own).  One call runs the
  whole batch in the compiled C backend (:mod:`repro.core.native`),
  which builds every pair's band itself; without a compiler the same
  batch runs one numpy anti-diagonal sweep per ``(n, m)`` shape.  Both
  relax every cell with the identical IEEE-754 operations as the scalar
  DP (:func:`repro.core.fastdtw.dtw_banded_fast` over the same
  :func:`repro.core.fastdtw.sakoe_chiba_band` geometry), so distances,
  warp-path lengths and the ``cells`` work metric are *bit-identical*,
  not merely close.  Warp-path lengths are tracked forward instead of
  storing the cost matrix for traceback.

* :class:`PairwiseEngine` — every identity pair of one detection
  through that kernel (or, for the FastDTW and unconstrained-DTW
  ablations, through the per-pair kernels), with work accounting
  published to :mod:`repro.obs`.

The kernel entry points keep the names they had when the engine could
also abandon pairs early and batch by shape; external tracers resolve
them by those names.  Audit bundles recorded by the retired engine
modes (``cache-hit``, ``pruned-*``, ``incremental-carry``,
``early-abandon``) stay readable by :mod:`repro.obs.audit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..obs.metrics import MetricsRegistry, default_registry
from .dtw import DTWResult, dtw
from .fastdtw import dtw_banded_fast, fastdtw, sakoe_chiba_band
from .native import abandon_batch_native, warmup as native_warmup

__all__ = [
    "PairwiseEngine",
    "PairwiseStats",
    "band_cells",
    "dtw_banded_batch",
    "dtw_banded_batch_abandon",
]

Pair = Tuple[str, str]
Triple = Tuple[float, int, int]


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
    non-decreasing (required by the diagonal sweep), and ``n_cells`` is
    the band area — the DP work a kernel run performs.
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


def _result_triple(result: DTWResult) -> Triple:
    return result.distance, len(result.path), result.cells


def dtw_banded_batch(
    xs: List[np.ndarray], ys: List[np.ndarray], radius: int
) -> List[Triple]:
    """Exact banded DTW for a batch of pairs sharing one ``(n, m)`` shape.

    :func:`dtw_banded_batch_abandon` restricted to one shape, kept for
    callers that batch by shape.

    Returns:
        One ``(distance, path_length, cells)`` triple per pair —
        bit-identical to running
        :func:`repro.core.fastdtw.dtw_banded_fast` on each pair.
    """
    if len(ys) != len(xs):
        raise ValueError(f"batch mismatch: {len(xs)} x-series, {len(ys)} y-series")
    if xs and (
        any(x.size != xs[0].size for x in xs) or any(y.size != ys[0].size for y in ys)
    ):
        raise ValueError("dtw_banded_batch requires one common (n, m) shape")
    return dtw_banded_batch_abandon(xs, ys, radius)


@lru_cache(maxsize=128)
def _sweep_geometry(
    n: int, m: int, radius: int
) -> Optional[Tuple[np.ndarray, np.ndarray, int, np.ndarray, np.ndarray, int]]:
    """Anti-diagonal band geometry for the numpy sweep, shape-keyed.

    Returns ``(i0s, widths, wpad, sus, sds, n_cells)`` (all arrays
    write-locked), or None when the band is unusable for the diagonal
    sweep (non-monotone, or an empty anti-diagonal — the kernel then
    falls back to per-pair scalar runs).
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
    for array in (i0s, widths, sus, sds):
        array.setflags(write=False)
    return i0s, widths, wpad, sus, sds, n_cells


def dtw_banded_batch_abandon(
    xs: List[np.ndarray], ys: List[np.ndarray], radius: int
) -> List[Triple]:
    """Exact banded DTW over a ragged batch of pairs.

    Pair ``i`` compares ``xs[i]`` with ``ys[i]``; lengths may differ
    from pair to pair.  With the C backend the whole batch is one call;
    without it each ``(n, m)`` shape runs one numpy anti-diagonal sweep
    (:func:`_sweep`), which is the fallback and the bit-identity oracle.
    Shapes the sweep cannot take (fewer than two samples, or a band
    with an empty anti-diagonal) and groups of at most three pairs run
    the scalar DP.

    Returns:
        One ``(distance, path_length, cells)`` triple per pair,
        bit-identical to :func:`repro.core.fastdtw.dtw_banded_fast` on
        the same pair.
    """
    count = len(xs)
    if count == 0:
        return []
    if len(ys) != count:
        raise ValueError(f"batch mismatch: {count} x-series, {len(ys)} y-series")
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
    native = abandon_batch_native(pairs, np.concatenate(uniq), radius)
    if native is not None:
        status, values, lengths, cells = (array.tolist() for array in native)
        results: List[Triple] = []
        for index, code in enumerate(status):
            if code == 1:
                results.append((values[index], lengths[index], cells[index]))
            elif code == -1:
                raise ValueError("window admits no monotone warp path")
            else:  # pragma: no cover - declined: unsupported band / no memory
                results.append(
                    _result_triple(
                        dtw_banded_fast(uniq[a_slot[index]], uniq[b_slot[index]], radius)
                    )
                )
        return results

    out: List[Optional[Triple]] = [None] * count
    groups: Dict[Tuple[int, int], List[int]] = {}
    shapes = zip(sizes[a_slot].tolist(), sizes[b_slot].tolist())
    for index, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(index)
    for (n, m), indices in groups.items():
        a_rows = [uniq[a_slot[index]] for index in indices]
        b_rows = [uniq[b_slot[index]] for index in indices]
        geometry = _sweep_geometry(n, m, radius) if n >= 2 and m >= 2 else None
        if geometry is None or len(indices) <= 3:
            # A numpy sweep costs about one full diagonal loop regardless
            # of rows, more than the scalar DP for a handful of pairs.
            for index, x, y in zip(indices, a_rows, b_rows):
                out[index] = _result_triple(dtw_banded_fast(x, y, radius))
            continue
        for index, triple in zip(indices, _sweep(a_rows, b_rows, geometry)):
            out[index] = triple
    return out  # type: ignore[return-value]


def _sweep(
    xs: List[np.ndarray], ys: List[np.ndarray], geometry: tuple
) -> List[Triple]:
    """Numpy anti-diagonal sweep over pairs sharing one ``(n, m)`` shape.

    Relaxes every pair's band simultaneously: each anti-diagonal is one
    set of numpy ops on ``(pairs × width)`` blocks.  Only three
    diagonals are live at a time (compact, INF-padded rolling buffers),
    and the optimal warp-path *length* is tracked forward with the
    scalar traceback's exact tie-breaking rule (diagonal, then up, then
    left, strict ``<``).
    """
    i0s, widths, wpad, sus, sds, n_cells = geometry
    count = len(xs)
    n, m = xs[0].size, ys[0].size
    a_stack = np.ascontiguousarray(np.stack(xs))
    b_rev = np.ascontiguousarray(np.stack(ys)[:, ::-1])
    v_km2 = np.full((count, wpad), math.inf)
    v_km2[:, 1] = 0.0
    v_km1 = np.full((count, wpad), math.inf)
    v_new = np.empty((count, wpad))
    l_km2 = np.zeros((count, wpad), dtype=np.int64)
    l_km1 = np.zeros((count, wpad), dtype=np.int64)
    l_new = np.zeros((count, wpad), dtype=np.int64)
    seg_buf = np.empty((count, wpad))
    for kidx in range(n + m - 1):
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
        v_new[:] = math.inf
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

    pos = n - int(i0s[-1]) + 1
    results: List[Triple] = []
    for p in range(count):
        distance = float(v_km1[p, pos])
        if math.isinf(distance):
            raise ValueError("window admits no monotone warp path")
        results.append((distance, int(l_km1[p, pos]), n_cells))
    return results


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass
class PairwiseStats:
    """Work accounting for one comparison phase (or cumulatively).

    Attributes:
        pairs: Identity pairs compared.
        exact: Pairs whose distance came from a kernel run (every pair).
        cells: DP cells relaxed by kernel runs.
        pruned, cache_hits, incremental, abandoned, envelope_updates:
            Always 0.  Retired engine modes (bound pruning, the pair
            cache, the incremental engine) counted their work here; the
            fields stay for readers of their records.
    """

    pairs: int = 0
    exact: int = 0
    cells: int = 0
    pruned: int = 0
    cache_hits: int = 0
    incremental: int = 0
    abandoned: int = 0
    envelope_updates: int = 0

    def add(self, other: "PairwiseStats") -> None:
        """Accumulate ``other`` into this instance."""
        self.pairs += other.pairs
        self.exact += other.exact
        self.cells += other.cells


class PairwiseEngine:
    """Exact DTW distances for every identity pair of a detection.

    Args:
        band_radius: Sakoe–Chiba half-width in samples, or ``None`` for
            FastDTW mode.
        use_exact_dtw: Use exact unconstrained DTW (ablations).
        fastdtw_radius: FastDTW refinement radius (band disabled only).
        normalize_by_path_length: Divide distances by warp-path length.
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
        registry: Optional[MetricsRegistry] = None,
        metric_prefix: str = "detector",
    ) -> None:
        self.band_radius = band_radius
        self.use_exact_dtw = use_exact_dtw
        self.fastdtw_radius = fastdtw_radius
        self.normalize_by_path_length = normalize_by_path_length
        if band_radius is not None and not use_exact_dtw:
            # Pay the one-time native-backend compile (if any) here, at
            # construction, so the first detection period isn't billed
            # for it.  A failed build just means numpy kernels.
            native_warmup()
        self.stats = PairwiseStats()
        metrics = registry if registry is not None else default_registry()
        self._c_pairs = metrics.counter(f"{metric_prefix}.pairs_compared")
        self._c_exact = metrics.counter(f"{metric_prefix}.pairs_exact")
        self._c_cells = metrics.counter(f"{metric_prefix}.dtw_cells")

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> DTWResult:
        """One pair with its warp path (``repro explain``, non-banded modes)."""
        if self.use_exact_dtw:
            return dtw(a, b)
        if self.band_radius is not None:
            return dtw_banded_fast(a, b, self.band_radius)
        return fastdtw(a, b, radius=self.fastdtw_radius)

    def kernel_triples(
        self, xs: List[np.ndarray], ys: List[np.ndarray]
    ) -> List[Triple]:
        """Raw ``(distance, path_len, cells)`` triples for pairs
        ``(xs[i], ys[i])``, in order.

        In banded mode the whole ragged batch is one
        :func:`dtw_banded_batch_abandon` call (one C call with the
        native backend); the other modes run :meth:`_kernel` per pair.
        """
        if self.band_radius is None or self.use_exact_dtw:
            return [_result_triple(self._kernel(a, b)) for a, b in zip(xs, ys)]
        return dtw_banded_batch_abandon(xs, ys, self.band_radius)

    def compare(
        self, arrays: Mapping[str, np.ndarray]
    ) -> Tuple[Dict[Pair, float], PairwiseStats]:
        """Exact pairwise distances for every identity pair.

        Args:
            arrays: Identity → normalised series.

        Returns:
            ``(distances, stats)`` with pairs in sorted-identity order,
            each distance divided by its warp-path length when the
            engine normalises by path length.
        """
        ids = sorted(arrays)
        pairs = [(a, b) for index, a in enumerate(ids) for b in ids[index + 1 :]]
        triples = self.kernel_triples(
            [arrays[a] for a, _ in pairs], [arrays[b] for _, b in pairs]
        )
        stats = PairwiseStats(pairs=len(pairs), exact=len(pairs))
        distances: Dict[Pair, float] = {}
        for pair, (distance, path_len, cells) in zip(pairs, triples):
            stats.cells += cells
            distances[pair] = (
                distance / path_len if self.normalize_by_path_length else distance
            )
        self.stats.add(stats)
        self._c_pairs.inc(stats.pairs)
        self._c_exact.inc(stats.exact)
        self._c_cells.inc(stats.cells)
        return distances, stats

    def compare_decided(self, *args: Any, **kwargs: Any) -> Any:
        """Retired: bound pruning never won a benchmark against the
        native exact kernel, and was removed.

        The name stays so external tracers that resolve it keep working.
        """
        raise RuntimeError(
            "bound pruning was retired; detect() runs the exact engine"
        )

    def compare_incremental(self, *args: Any, **kwargs: Any) -> Any:
        """Retired: the incremental engine lost to the exact engine on
        every benchmark once the kernel went native, and was removed.

        The name stays so external tracers that resolve it keep working.
        """
        raise RuntimeError(
            "the incremental pairwise engine was retired; detect() runs "
            "the exact engine"
        )
