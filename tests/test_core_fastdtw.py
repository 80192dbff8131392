"""Unit tests for repro.core.fastdtw."""

import math

import numpy as np
import pytest

from repro.core.dtw import dtw, dtw_banded, warp_path_cells
from repro.core.fastdtw import (
    coarsen,
    dtw_banded_fast,
    expand_window,
    fastdtw,
    fastdtw_distance,
    sakoe_chiba_band,
)


def _band_loop(n, m, radius):
    """The original per-row Sakoe–Chiba loop, kept as the oracle for the
    vectorised :func:`sakoe_chiba_band` (and, through it, the C band)."""
    scale = m / n
    lo = [0] * (n + 1)
    hi = [0] * (n + 1)
    for i in range(1, n + 1):
        centre = i * scale
        lo[i] = max(1, int(math.floor(centre - radius - scale + 1)))
        hi[i] = min(m, int(math.ceil(centre + radius)))
        if hi[i] < lo[i]:
            lo[i] = hi[i] = min(m, max(1, int(round(centre))))
    lo[1] = 1
    hi[n] = m
    for i in range(2, n + 1):
        if lo[i] > hi[i - 1] + 1:
            lo[i] = hi[i - 1] + 1
        if hi[i] < hi[i - 1]:
            hi[i] = hi[i - 1]
    return lo, hi


class TestSakoeChibaBand:
    @pytest.mark.parametrize("radius", [0, 1, 2, 5, 10, 15])
    def test_matches_loop_oracle(self, radius):
        for n in range(1, 230):
            for m in range(1, 230, 3):
                lo, hi = sakoe_chiba_band(n, m, radius)
                want_lo, want_hi = _band_loop(n, m, radius)
                assert lo.tolist() == want_lo and hi.tolist() == want_hi, (n, m)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sakoe_chiba_band(5, 5, -1)
        with pytest.raises(ValueError):
            sakoe_chiba_band(0, 5, 1)


class TestCoarsen:
    def test_even_length(self):
        out = coarsen(np.array([1.0, 3.0, 5.0, 7.0]))
        assert np.allclose(out, [2.0, 6.0])

    def test_odd_length_keeps_tail(self):
        out = coarsen(np.array([1.0, 3.0, 9.0]))
        assert np.allclose(out, [2.0, 9.0])

    def test_single_element(self):
        assert np.allclose(coarsen(np.array([4.0])), [4.0])

    def test_empty(self):
        assert coarsen(np.array([])).size == 0

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            coarsen(np.zeros((2, 2)))


class TestExpandWindow:
    def test_contains_corners(self):
        window = expand_window([(1, 1), (2, 2)], 4, 4, radius=0)
        assert (1, 1) in window
        assert (4, 4) in window

    def test_radius_grows_window(self):
        small = set(expand_window([(1, 1), (2, 2)], 4, 4, radius=0))
        large = set(expand_window([(1, 1), (2, 2)], 4, 4, radius=2))
        assert small <= large
        assert len(large) > len(small)

    def test_cells_in_bounds(self):
        window = expand_window([(1, 1), (2, 2), (3, 3)], 5, 6, radius=1)
        assert all(1 <= i <= 5 and 1 <= j <= 6 for i, j in window)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            expand_window([(1, 1)], 2, 2, radius=-1)


class TestFastDtw:
    def test_exact_on_small_series(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=4), rng.normal(size=5)
        assert fastdtw(x, y, radius=1).distance == pytest.approx(
            dtw(x, y).distance
        )

    def test_upper_bounds_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            n = int(rng.integers(10, 80))
            x, y = rng.normal(size=n), rng.normal(size=n + int(rng.integers(0, 5)))
            exact = dtw(x, y).distance
            fast = fastdtw(x, y, radius=1).distance
            assert fast >= exact - 1e-9

    def test_large_radius_recovers_exact(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=40), rng.normal(size=40)
        assert fastdtw(x, y, radius=40).distance == pytest.approx(
            dtw(x, y).distance
        )

    def test_identical_series_zero(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=128)
        assert fastdtw(x, x, radius=1).distance == 0.0

    def test_close_on_smooth_similar_series(self):
        # The detector's operating regime: aligned, similar series.
        t = np.linspace(0, 4 * np.pi, 200)
        x = np.sin(t)
        y = np.sin(t) + 0.01 * np.cos(5 * t)
        exact = dtw(x, y).distance
        fast = fastdtw(x, y, radius=1).distance
        assert fast <= exact * 1.1 + 1e-6

    def test_path_is_valid_warp_path(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=50), rng.normal(size=47)
        result = fastdtw(x, y, radius=2)
        assert warp_path_cells(result.path)
        assert result.path[0] == (1, 1)
        assert result.path[-1] == (50, 47)

    def test_distance_helper(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=30), rng.normal(size=30)
        assert fastdtw_distance(x, y, 2) == fastdtw(x, y, 2).distance

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            fastdtw([1.0], [1.0], radius=-1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fastdtw([], [1.0])


class TestBandedFast:
    def test_matches_generic_banded(self):
        rng = np.random.default_rng(6)
        for _ in range(8):
            n = int(rng.integers(5, 40))
            m = int(rng.integers(5, 40))
            x, y = rng.normal(size=n), rng.normal(size=m)
            radius = int(rng.integers(1, 8))
            fast = dtw_banded_fast(x, y, radius)
            generic = dtw_banded(x, y, radius)
            # Band constructions differ slightly at the edges; both are
            # valid constrained DTWs whose distance upper-bounds exact.
            exact = dtw(x, y).distance
            assert fast.distance >= exact - 1e-9
            assert warp_path_cells(fast.path)

    def test_equal_length_band_zero_is_pointwise(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([2.0, 2.0, 5.0])
        result = dtw_banded_fast(x, y, 0)
        assert result.distance == pytest.approx(1.0 + 0.0 + 4.0)

    def test_wide_band_equals_exact(self):
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=25), rng.normal(size=30)
        assert dtw_banded_fast(x, y, 60).distance == pytest.approx(
            dtw(x, y).distance
        )

    def test_identical_series_zero(self):
        x = np.linspace(0, 1, 100)
        assert dtw_banded_fast(x, x, 10).distance == 0.0

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            dtw_banded_fast([1.0], [1.0], -1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dtw_banded_fast([], [1.0], 1)

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=60), rng.normal(size=55)
        distances = [dtw_banded_fast(x, y, r).distance for r in (1, 3, 8, 20)]
        assert all(a >= b - 1e-9 for a, b in zip(distances, distances[1:]))
