"""Runtime-compiled C backend for the banded DTW kernel.

Every exact banded-DTW run of the pairwise engine (and every
early-abandon run of its incremental mode) goes through one C call per
batch: :func:`abandon_batch_native` takes a *ragged* batch — each pair
with its own lengths ``n`` and ``m``, addressed by offsets into one flat
buffer of series — builds each pair's Sakoe–Chiba band in C and relaxes
it along anti-diagonals.  The library is compiled at runtime — plain
``cc -O2 -fPIC -shared`` into a content-addressed shared library under
the system temp directory, loaded through :mod:`ctypes`.

Bit-identity contract
---------------------
The band is built with the same IEEE-754 expressions as
:func:`repro.core.fastdtw.sakoe_chiba_band` (``floor(i*scale - radius -
scale + 1)``, ``ceil(i*scale + radius)``, the round-half-even fallback
and the monotone fix-up).  The C kernel relaxes exactly the cells the
numpy kernel relaxes, in the same per-cell expression order
(``seg*seg + min(min(diag, up), left)``), compiled with
``-ffp-contract=off`` so no fused multiply-add changes a rounding, and
it applies the identical checkpointed two-diagonal abandon test at the
same stride.  Completed distances, path lengths, abandon evidence and
relaxed-cell counts are therefore bit-identical to
:func:`repro.core.pairwise.dtw_banded_batch_abandon`'s numpy path — the
dispatch is invisible to every caller (tested in
``tests/test_core_native.py``).

Gating
------
No compiler, a failed compile, a failed load, or ``REPRO_NATIVE=0`` in
the environment all degrade silently to the numpy path; nothing in the
engine requires this module to succeed.  The library is compiled at
most once per interpreter (and cached on disk across processes by
source hash), and :func:`warmup` lets engines pay the one-time compile
at construction instead of inside the first detection.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Optional

import numpy as np

__all__ = ["abandon_batch_native", "native_available", "warmup"]

_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>
#include <stdlib.h>

/* Sakoe-Chiba band of one (n, m, radius) into lo[1..n], hi[1..n],
 * expression for expression as repro.core.fastdtw.sakoe_chiba_band.
 * Returns 0 when lo is not non-decreasing (the diagonal sweep below
 * needs monotone ends; no Sakoe-Chiba geometry is known to break it),
 * 2 when some anti-diagonal is empty (a row starting right after the
 * previous row ends), 1 otherwise. */
static int band(int64_t n, int64_t m, int64_t radius,
                int64_t *lo, int64_t *hi)
{
    double scale = (double)m / (double)n;
    double r = (double)radius;
    for (int64_t i = 1; i <= n; i++) {
        double centre = (double)i * scale;
        double l = floor(centre - r - scale + 1.0);
        double h = ceil(centre + r);
        lo[i] = l < 1.0 ? 1 : (int64_t)l;
        hi[i] = h > (double)m ? m : (int64_t)h;
        if (hi[i] < lo[i]) {
            double c = rint(centre);  /* round half to even, as round() */
            lo[i] = hi[i] = c < 1.0 ? 1 : (c > (double)m ? m : (int64_t)c);
        }
    }
    lo[1] = 1;
    hi[n] = m;
    int gap = 0;
    for (int64_t i = 2; i <= n; i++) {
        if (lo[i] > hi[i - 1] + 1) lo[i] = hi[i - 1] + 1;
        if (hi[i] < hi[i - 1]) hi[i] = hi[i - 1];
        if (lo[i] < lo[i - 1]) return 0;
        if (lo[i] == hi[i - 1] + 1) gap = 1;
    }
    return gap ? 2 : 1;
}

/* Banded DTW over anti-diagonals with checkpointed early abandoning,
 * one ragged batch per call.
 *
 * Pair p reads a = values[pairs[4p] ...] (n = pairs[4p+1] samples) and
 * b = values[pairs[4p+2] ...] (m = pairs[4p+3]).  Diagonal k holds the
 * in-band cells (i, j) with i + j == k; each costs (a[i-1] - b[j-1])^2
 * plus the cheapest of its left/up/diagonal predecessors, and path
 * lengths follow the scalar traceback's strict-comparison tie-breaks.
 * Every abandon checkpoint scans the two just-relaxed diagonals; both
 * minima above the pair's threshold proves the final distance can
 * never come back below it.  Pairs shorter than two samples, or whose
 * band has an empty diagonal, always run to completion (as the numpy
 * kernel, which hands those shapes to the scalar DP).
 *
 * Status per pair: 1 completed, 0 abandoned, -1 no in-band path,
 * -2 declined (unsupported band or out of memory; the caller runs it
 * elsewhere).
 */
void dtw_band_ragged(
    const double *values,   /* all series, concatenated */
    const int64_t *pairs,   /* count x 4: a offset, n, b offset, m */
    int64_t count,
    int64_t radius,
    const double *thr,      /* count abandon thresholds (may be inf) */
    int64_t stride,         /* checkpoint every stride-th diagonal */
    double *out_val,        /* count: distance / abandon evidence */
    int64_t *out_len,       /* count: path length when completed */
    int64_t *out_cells,     /* count: cells relaxed */
    int8_t *out_status)
{
    int64_t max_n = 1, max_m = 1;
    for (int64_t p = 0; p < count; p++) {
        if (pairs[4 * p + 1] > max_n) max_n = pairs[4 * p + 1];
        if (pairs[4 * p + 3] > max_m) max_m = pairs[4 * p + 3];
    }
    size_t rows = (size_t)max_n + 2;
    double *v_km2 = malloc(rows * sizeof(double));
    double *v_km1 = malloc(rows * sizeof(double));
    double *v_new = malloc(rows * sizeof(double));
    int64_t *l_km2 = malloc(rows * sizeof(int64_t));
    int64_t *l_km1 = malloc(rows * sizeof(int64_t));
    int64_t *l_new = malloc(rows * sizeof(int64_t));
    int64_t *lo = malloc(rows * sizeof(int64_t));
    int64_t *hi = malloc(rows * sizeof(int64_t));
    double *b_rev = malloc((size_t)max_m * sizeof(double));
    if (!v_km2 || !v_km1 || !v_new || !l_km2 || !l_km1 || !l_new
            || !lo || !hi || !b_rev) {
        for (int64_t p = 0; p < count; p++) out_status[p] = -2;
        goto done;
    }

    for (int64_t p = 0; p < count; p++) {
        const double *ap = values + pairs[4 * p];
        int64_t n = pairs[4 * p + 1];
        const double *bp = values + pairs[4 * p + 2];
        int64_t m = pairs[4 * p + 3];
        int shape = band(n, m, radius, lo, hi);
        if (shape == 0) {
            out_status[p] = -2;
            continue;
        }
        double threshold = thr[p];
        int check = isfinite(threshold) && shape == 1 && n >= 2 && m >= 2;
        for (int64_t j = 0; j < m; j++) b_rev[m - 1 - j] = bp[j];

        for (int64_t i = 0; i < n + 2; i++) {
            v_km2[i] = INFINITY;
            v_km1[i] = INFINITY;
            l_km2[i] = 0;
            l_km1[i] = 0;
        }
        v_km2[0] = 0.0;  /* virtual start cell (0, 0) */

        int64_t n_diag = n + m - 1;
        int64_t cells = 0;
        int abandoned = 0;
        int64_t i0 = 1, i1 = 1;  /* rows alive on the current diagonal */
        int64_t p0 = 1, p1 = 0;  /* ... and on the previous one */
        for (int64_t kidx = 0; kidx < n_diag; kidx++) {
            int64_t k = kidx + 2;
            /* Row i lies on diagonals i+lo[i] .. i+hi[i]; both ends
             * strictly increase with i, so the alive rows form one
             * range whose ends only move forward. */
            while (i1 < n && i1 + 1 + lo[i1 + 1] <= k) i1++;
            while (i0 + hi[i0] < k) i0++;
            /* Later diagonals only read rows in [i0-1, i1+1] (i0 never
             * decreases and i1 steps by at most one), so the
             * out-of-band INFINITY boundary only needs restoring at the
             * two margins -- which also covers an empty diagonal
             * (i0 == i1 + 1). */
            v_new[i0 - 1] = INFINITY;
            v_new[i1 + 1] = INFINITY;
            {
                /* Ternary minima (not fmin) so the compiler can emit
                 * minsd/minpd: identical doubles for NaN-free input,
                 * and the operands are never NaN here. */
                const double * restrict vk1 = v_km1;
                const double * restrict vk2 = v_km2;
                double * restrict vn = v_new;
                const int64_t * restrict lk1 = l_km1;
                const int64_t * restrict lk2 = l_km2;
                int64_t * restrict ln = l_new;
                /* b_rev[m-1-j] == bp[j], so bp[k-i-1] reads forward. */
                const double * restrict brow = b_rev + m - k;
                for (int64_t i = i0; i <= i1; i++) {
                    double up = vk1[i - 1];
                    double left = vk1[i];
                    double diag = vk2[i - 1];
                    double min_du = (diag < up) ? diag : up;
                    double best = (min_du < left) ? min_du : left;
                    double seg = ap[i - 1] - brow[i];
                    vn[i] = seg * seg + best;
                    int64_t l_lu = (up < diag) ? lk1[i - 1] : lk2[i - 1];
                    ln[i] = ((left < min_du) ? lk1[i] : l_lu) + 1;
                }
            }
            if (i1 >= i0) cells += i1 - i0 + 1;
            double *vt = v_km2; v_km2 = v_km1; v_km1 = v_new; v_new = vt;
            int64_t *lt = l_km2; l_km2 = l_km1; l_km1 = l_new; l_new = lt;
            if (check && kidx > 0 && kidx < n_diag - 1
                    && kidx % stride == 0) {
                double cur_min = INFINITY;
                for (int64_t i = i0; i <= i1; i++)
                    cur_min = fmin(cur_min, v_km1[i]);
                double prev_min = INFINITY;
                for (int64_t i = p0; i <= p1; i++)
                    prev_min = fmin(prev_min, v_km2[i]);
                if (cur_min > threshold && prev_min > threshold) {
                    out_val[p] = fmin(cur_min, prev_min);
                    out_len[p] = 0;
                    out_cells[p] = cells;
                    out_status[p] = 0;
                    abandoned = 1;
                    break;
                }
            }
            p0 = i0;
            p1 = i1;
        }
        if (abandoned) continue;
        double distance = v_km1[n];
        if (isinf(distance)) {
            out_status[p] = -1;
            continue;
        }
        out_val[p] = distance;
        out_len[p] = l_km1[n];
        out_cells[p] = cells;
        out_status[p] = 1;
    }

done:
    free(v_km2); free(v_km1); free(v_new);
    free(l_km2); free(l_km1); free(l_new);
    free(lo); free(hi); free(b_rev);
}
"""

#: Compiler invocation; -ffp-contract=off forbids fused multiply-add so
#: every rounding matches the numpy expressions (``i*scale - radius``
#: in the band, ``seg*seg + best`` in the recurrence).
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno"]

_UNSET = object()
_lib: object = _UNSET


def _source_tag() -> str:
    payload = "\x00".join([_C_SOURCE, " ".join(_CFLAGS)])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _compile() -> Optional[ctypes.CDLL]:
    """Build (or reuse) the shared library; None when impossible."""
    if os.environ.get("REPRO_NATIVE", "").strip() == "0":
        return None
    lib_path = os.path.join(
        tempfile.gettempdir(), f"repro-native-{_source_tag()}.so"
    )
    if not os.path.exists(lib_path):
        tmp_dir = tempfile.mkdtemp(prefix="repro-native-build-")
        src_path = os.path.join(tmp_dir, "dtw.c")
        obj_path = os.path.join(tmp_dir, "dtw.so")
        try:
            with open(src_path, "w", encoding="utf-8") as handle:
                handle.write(_C_SOURCE)
            subprocess.run(
                ["cc", *_CFLAGS, src_path, "-o", obj_path, "-lm"],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(obj_path, lib_path)  # atomic vs concurrent builds
        except (OSError, subprocess.SubprocessError):
            return None
    try:
        lib = ctypes.CDLL(lib_path)
        fn = lib.dtw_band_ragged
    except (OSError, AttributeError):
        return None
    fn.restype = None
    fn.argtypes = [
        ctypes.POINTER(ctypes.c_double),
        ctypes.POINTER(ctypes.c_int64),
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.POINTER(ctypes.c_double),
        ctypes.c_int64,
        ctypes.POINTER(ctypes.c_double),
        ctypes.POINTER(ctypes.c_int64),
        ctypes.POINTER(ctypes.c_int64),
        ctypes.POINTER(ctypes.c_int8),
    ]
    return lib


def _get() -> Optional[ctypes.CDLL]:
    global _lib
    if _lib is _UNSET:
        _lib = _compile()
    return _lib  # type: ignore[return-value]


def native_available() -> bool:
    """True when the compiled backend is loadable on this machine."""
    return _get() is not None


def warmup() -> bool:
    """Force the one-time compile now (e.g. at engine construction)."""
    return native_available()


def _as_c(array: np.ndarray, ctype):
    return array.ctypes.data_as(ctypes.POINTER(ctype))


def abandon_batch_native(
    pairs: np.ndarray,
    values: np.ndarray,
    radius: int,
    thresholds: np.ndarray,
    stride: int,
) -> Optional[tuple]:
    """One C sweep over a ragged batch; None if unavailable.

    Args:
        pairs: ``(count, 4)`` int64 rows ``(a_offset, n, b_offset, m)``
            locating each pair's two series in ``values``.
        values: Every series of the batch, concatenated (float64).
        radius: Sakoe–Chiba half-width, shared by the batch.
        thresholds: Per-pair abandon threshold; ``inf`` runs exactly.
        stride: Anti-diagonals between abandon checkpoints.

    Returns ``(status, values, lengths, cells)`` arrays over the batch:
    status 1 means ``values``/``lengths``/``cells`` hold the completed
    distance, path length and band area, status 0 means
    ``values``/``cells`` hold abandon evidence and relaxed cells,
    status -1 means no in-band path, and status -2 means the kernel
    declined the pair (the caller must run it another way).
    """
    lib = _get()
    if lib is None:
        return None
    pairs_c = np.ascontiguousarray(pairs, dtype=np.int64)
    values_c = np.ascontiguousarray(values, dtype=np.float64)
    thr_c = np.ascontiguousarray(thresholds, dtype=np.float64)
    if pairs_c.ndim != 2 or pairs_c.shape[1] != 4 or values_c.ndim != 1:
        raise ValueError("expected (count, 4) pair rows over a 1-D value buffer")
    count = pairs_c.shape[0]
    if thr_c.shape != (count,):
        raise ValueError(f"expected {count} thresholds, got shape {thr_c.shape}")
    if radius < 0 or stride < 1:
        raise ValueError(f"need radius >= 0 and stride >= 1, got {radius}, {stride}")
    # The C loop trusts every offset: reject rows that would read outside
    # the buffer (or an empty series) before handing over pointers.
    starts = pairs_c[:, 0::2]
    sizes = pairs_c[:, 1::2]
    if count and (
        starts.min() < 0 or sizes.min() < 1 or (starts + sizes).max() > values_c.size
    ):
        raise ValueError("pair rows address samples outside the value buffer")
    out = np.empty(count, dtype=np.float64)
    lengths = np.zeros(count, dtype=np.int64)
    cells = np.zeros(count, dtype=np.int64)
    status = np.empty(count, dtype=np.int8)
    lib.dtw_band_ragged(
        _as_c(values_c, ctypes.c_double),
        _as_c(pairs_c, ctypes.c_int64),
        count,
        int(radius),
        _as_c(thr_c, ctypes.c_double),
        int(stride),
        _as_c(out, ctypes.c_double),
        _as_c(lengths, ctypes.c_int64),
        _as_c(cells, ctypes.c_int64),
        _as_c(status, ctypes.c_int8),
    )
    return status, out, lengths, cells
