"""Tests for repro.core.pairwise — kernels, bounds, cache, pruning.

The engine's contract is *bit-equality*: everything it answers (kernel
distances, cached values, flag sets under pruning) must be exactly what
the legacy per-pair scalar loop would have produced, not merely close.
The property tests below therefore compare with ``==`` on floats.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import DetectorConfig, VoiceprintDetector
from repro.core.dtw import dtw
from repro.core.fastdtw import dtw_banded_fast, fastdtw
from repro.core.normalization import minmax_distances
from repro.core.pairwise import (
    PairwiseEngine,
    band_cells,
    dtw_band_lower_bound,
    dtw_band_upper_bound,
    dtw_banded_batch,
    dtw_banded_batch_abandon,
    get_engine_defaults,
    lb_kim,
    set_engine_defaults,
)
from repro.core.thresholds import ConstantThreshold
from repro.obs.metrics import MetricsRegistry

_series = st.lists(
    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=40,
)


def _registry():
    return MetricsRegistry(enabled=True)


def _naive_distances(arrays, radius=10, path_norm=True):
    ids = sorted(arrays)
    out = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            result = dtw_banded_fast(arrays[a], arrays[b], radius)
            out[(a, b)] = (
                result.distance / len(result.path) if path_norm else result.distance
            )
    return out


def _scenario_arrays(rng, n_ids=6, n_min=80, n_max=220, similar=2):
    """Random identity series, some near-duplicates (sybil-like)."""
    base = rng.normal(size=n_max)
    arrays = {}
    for i in range(n_ids):
        n = int(rng.integers(n_min, n_max + 1))
        if i < similar:
            arrays[f"id{i}"] = base[:n] + rng.normal(scale=0.05, size=n)
        else:
            arrays[f"id{i}"] = rng.normal(size=n)
    return arrays


def _ragged_one(x, y, radius):
    """One pair through the engine's exact ragged kernel."""
    (triple,), abandoned = dtw_banded_batch_abandon(
        [np.asarray(x, dtype=float)],
        [np.asarray(y, dtype=float)],
        radius,
        np.asarray([np.inf]),
    )
    assert abandoned == {}
    return triple


class TestVectorKernel:
    """The ragged kernel (one call, C or numpy) against the scalar DP."""

    @given(x=_series, y=_series, radius=st.integers(0, 12))
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_banded_exactly(self, x, y, radius):
        ref = dtw_banded_fast(np.array(x), np.array(y), radius)
        got = _ragged_one(x, y, radius)
        assert got == (ref.distance, len(ref.path), ref.cells)

    @given(x=_series, y=_series)
    @settings(max_examples=40, deadline=None)
    def test_full_band_matches_exact_dtw_distance(self, x, y):
        # A radius covering the whole matrix relaxes every cell, so the
        # banded optimum equals unconstrained DTW.
        radius = len(x) + len(y)
        distance, _, _ = _ragged_one(x, y, radius)
        assert distance == dtw(np.array(x), np.array(y)).distance

    def test_typical_detector_window(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=200), rng.normal(size=200)
        ref = dtw_banded_fast(x, y, 10)
        assert _ragged_one(x, y, 10) == (ref.distance, len(ref.path), ref.cells)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            _ragged_one(np.ones(5), np.ones(5), -1)
        with pytest.raises(ValueError):
            _ragged_one(np.ones(0), np.ones(5), 2)
        with pytest.raises(ValueError):
            _ragged_one(np.ones((2, 2)), np.ones(5), 2)


class TestBatchKernel:
    @given(
        shapes=st.tuples(st.integers(2, 50), st.integers(2, 50)),
        count=st.integers(1, 6),
        radius=st.integers(0, 12),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_banded_exactly(self, shapes, count, radius, seed):
        n, m = shapes
        rng = np.random.default_rng(seed)
        xs = [rng.normal(size=n) for _ in range(count)]
        ys = [rng.normal(size=m) for _ in range(count)]
        got = dtw_banded_batch(xs, ys, radius)
        assert len(got) == count
        for (distance, path_len, cells), x, y in zip(got, xs, ys):
            ref = dtw_banded_fast(x, y, radius)
            assert distance == ref.distance
            assert path_len == len(ref.path)
            assert cells == ref.cells

    def test_empty_batch(self):
        assert dtw_banded_batch([], [], 5) == []

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError):
            dtw_banded_batch([np.ones(5), np.ones(6)], [np.ones(5)] * 2, 2)
        with pytest.raises(ValueError):
            dtw_banded_batch([np.ones(5)], [np.ones(5), np.ones(5)], 2)


class TestBounds:
    @given(x=_series, y=_series, radius=st.integers(0, 12))
    @settings(max_examples=80, deadline=None)
    def test_sandwich_banded_dtw(self, x, y, radius):
        xa, ya = np.array(x), np.array(y)
        distance = dtw_banded_fast(xa, ya, radius).distance
        lower = dtw_band_lower_bound(xa, ya, radius)
        upper, upper_len = dtw_band_upper_bound(xa, ya, radius)
        assert lb_kim(xa, ya) <= distance + 1e-9
        assert lower <= distance + 1e-9
        assert distance <= upper + 1e-9
        assert max(len(x), len(y)) <= upper_len <= len(x) + len(y) - 1

    @given(x=_series, radius=st.integers(0, 12), seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_equal_length_upper_bound_is_euclidean(self, x, radius, seed):
        xa = np.array(x)
        ya = xa + np.random.default_rng(seed).normal(size=xa.size)
        upper, upper_len = dtw_band_upper_bound(xa, ya, radius)
        euclid = float(((xa - ya) ** 2).sum())
        assert upper == pytest.approx(euclid, abs=1e-12)
        assert upper_len == xa.size

    def test_band_cells_matches_kernel_work(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=120), rng.normal(size=100)
        assert band_cells(120, 100, 10) == dtw_banded_fast(x, y, 10).cells


class TestEngineCompare:
    def test_bit_equal_to_naive_loop(self):
        rng = np.random.default_rng(9)
        arrays = _scenario_arrays(rng)
        engine = PairwiseEngine(band_radius=10, cache_size=64, registry=_registry())
        keys = {k: v.tobytes() for k, v in arrays.items()}
        distances, stats = engine.compare(arrays, keys, "tag")
        assert distances == _naive_distances(arrays)
        assert stats.pairs == stats.exact == len(distances)
        assert stats.cache_hits == 0

    @pytest.mark.parametrize(
        "engine_kwargs,ref",
        [
            (
                {"band_radius": None, "fastdtw_radius": 1},
                lambda x, y: fastdtw(x, y, radius=1),
            ),
            ({"use_exact_dtw": True}, lambda x, y: dtw(x, y)),
            (
                {"band_radius": 10, "normalize_by_path_length": False},
                lambda x, y: dtw_banded_fast(x, y, 10),
            ),
        ],
    )
    def test_other_kernel_modes(self, engine_kwargs, ref):
        rng = np.random.default_rng(10)
        arrays = {k: rng.normal(size=120) for k in "abcd"}
        engine = PairwiseEngine(registry=_registry(), **engine_kwargs)
        distances, _ = engine.compare(arrays)
        path_norm = engine_kwargs.get("normalize_by_path_length", True)
        for (a, b), value in distances.items():
            result = ref(arrays[a], arrays[b])
            expected = (
                result.distance / len(result.path) if path_norm else result.distance
            )
            assert value == expected

    def test_cache_hits_and_counters(self):
        rng = np.random.default_rng(11)
        arrays = {k: rng.normal(size=150) for k in "abcd"}
        keys = {k: v.tobytes() for k, v in arrays.items()}
        registry = _registry()
        engine = PairwiseEngine(band_radius=10, cache_size=32, registry=registry)
        first, stats1 = engine.compare(arrays, keys, "s")
        second, stats2 = engine.compare(arrays, keys, "s")
        assert second == first
        assert stats2.cache_hits == 6 and stats2.exact == 0 and stats2.cells == 0
        assert stats2.cells_saved == stats1.cells
        assert registry.counter("detector.cache_hits").value == 6
        assert registry.counter("detector.pairs_compared").value == 12
        assert registry.counter("detector.dtw_cells").value == stats1.cells

    def test_scale_tag_invalidates_cache(self):
        rng = np.random.default_rng(12)
        arrays = {k: rng.normal(size=100) for k in "ab"}
        keys = {k: v.tobytes() for k, v in arrays.items()}
        engine = PairwiseEngine(band_radius=10, cache_size=32, registry=_registry())
        engine.compare(arrays, keys, "scale-A")
        _, stats = engine.compare(arrays, keys, "scale-B")
        assert stats.cache_hits == 0 and stats.exact == 1

    def test_lru_eviction(self):
        rng = np.random.default_rng(13)
        arrays = {k: rng.normal(size=100) for k in "abc"}  # 3 pairs
        keys = {k: v.tobytes() for k, v in arrays.items()}
        engine = PairwiseEngine(band_radius=10, cache_size=2, registry=_registry())
        engine.compare(arrays, keys, "s")
        assert engine.cache_len == 2  # oldest pair evicted
        _, stats = engine.compare(arrays, keys, "s")
        assert 0 < stats.cache_hits < 3

    def test_cache_disabled(self):
        rng = np.random.default_rng(14)
        arrays = {k: rng.normal(size=100) for k in "ab"}
        engine = PairwiseEngine(band_radius=10, cache_size=0, registry=_registry())
        assert not engine.cache_enabled
        _, stats1 = engine.compare(arrays, {k: v.tobytes() for k, v in arrays.items()}, "s")
        _, stats2 = engine.compare(arrays, {k: v.tobytes() for k, v in arrays.items()}, "s")
        assert stats1.cache_misses == 0 and stats2.cache_hits == 0
        assert stats2.exact == 1

    def test_workers_match_inline(self):
        rng = np.random.default_rng(15)
        arrays = _scenario_arrays(rng, n_ids=7)
        inline = PairwiseEngine(band_radius=10, workers=0, registry=_registry())
        pooled = PairwiseEngine(band_radius=10, workers=2, registry=_registry())
        got_inline, _ = inline.compare(arrays)
        got_pooled, _ = pooled.compare(arrays)
        assert got_pooled == got_inline


class TestCompareDecided:
    @pytest.mark.parametrize("threshold_on", ["normalized", "raw"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_flags_identical_to_naive(self, threshold_on, seed):
        rng = np.random.default_rng(seed)
        arrays = _scenario_arrays(rng, n_ids=int(rng.integers(3, 8)))
        naive_raw = _naive_distances(arrays)
        judged = (
            minmax_distances(naive_raw) if threshold_on == "normalized" else naive_raw
        )
        values = sorted(naive_raw.values())
        cutoffs = (
            [-0.5, 0.0, 0.05, 0.3, 0.7, 1.0, 2.0]
            if threshold_on == "normalized"
            else [0.0, values[0], values[len(values) // 2], values[-1] * 2]
        )
        for cutoff in cutoffs:
            engine = PairwiseEngine(
                band_radius=10, pruning=True, cache_size=0, registry=_registry()
            )
            distances, flags, stats = engine.compare_decided(
                arrays, None, "", cutoff, threshold_on
            )
            assert flags == {p: d <= cutoff for p, d in judged.items()}
            assert stats.exact + stats.pruned == stats.pairs
            if threshold_on == "normalized":
                # Normalized mode resolves the min-max anchors exactly,
                # so the report's extremes match the naive loop even
                # when other pairs carry bound surrogates.
                assert min(distances.values()) == min(naive_raw.values())
                assert max(distances.values()) == max(naive_raw.values())

    def test_surrogates_stay_on_correct_side(self):
        # Two tight clusters far apart: within-cluster pairs are decided
        # by the upper bound, cross-cluster pairs by the lower bound.
        rng = np.random.default_rng(21)
        wave = np.sin(np.linspace(0.0, 12.0, 200))
        arrays = {}
        for i in range(3):
            arrays[f"near{i}"] = wave + rng.normal(scale=0.01, size=200)
        for i in range(3):
            arrays[f"far{i}"] = wave[::-1] + 100.0 * (i + 1) + rng.normal(
                scale=0.01, size=200
            )
        cutoff = 0.3
        engine = PairwiseEngine(
            band_radius=10, pruning=True, cache_size=0, registry=_registry()
        )
        distances, flags, stats = engine.compare_decided(
            arrays, None, "", cutoff, "normalized"
        )
        assert stats.pruned > 0  # the scenario must actually exercise pruning
        naive_judged = minmax_distances(_naive_distances(arrays))
        assert flags == {p: d <= cutoff for p, d in naive_judged.items()}
        # Surrogates must land on their flag's side of the threshold
        # even after re-normalising the mixed exact/surrogate report.
        normalised = minmax_distances(distances)
        for pair, flag in flags.items():
            assert (normalised[pair] <= cutoff) == flag

    def test_degenerate_identical_series(self):
        base = np.sin(np.linspace(0, 6, 120))
        arrays = {k: base.copy() for k in "abc"}
        engine = PairwiseEngine(
            band_radius=10, pruning=True, cache_size=0, registry=_registry()
        )
        _, flags, _ = engine.compare_decided(arrays, None, "", 0.0, "normalized")
        assert all(flags.values())  # min-max degenerates to all-zero

    def test_cached_pairs_count_as_exact(self):
        rng = np.random.default_rng(22)
        arrays = _scenario_arrays(rng, n_ids=5)
        keys = {k: v.tobytes() for k, v in arrays.items()}
        engine = PairwiseEngine(
            band_radius=10, pruning=True, cache_size=32, registry=_registry()
        )
        engine.compare(arrays, keys, "s")  # warm the cache
        distances, flags, stats = engine.compare_decided(
            arrays, keys, "s", 0.3, "normalized"
        )
        assert stats.cache_hits == stats.pairs and stats.exact == 0
        assert distances == _naive_distances(arrays)

    def test_requires_banded_pruning(self):
        engine = PairwiseEngine(band_radius=None, pruning=True, registry=_registry())
        assert not engine.can_prune
        with pytest.raises(RuntimeError):
            engine.compare_decided({}, None, "", 0.0, "normalized")


def _feed(detector, identity, values, start=0.0, interval=0.1):
    for index, value in enumerate(values):
        detector.observe(identity, start + index * interval, value)


def _synthetic_observations(rng, n_samples=200):
    """One attacker (3 streams sharing a waveform) + two normal nodes."""
    t = np.arange(n_samples) * 0.1
    shared = (
        -70
        + 5 * np.sin(2 * np.pi * t / 15)
        + np.cumsum(rng.normal(0, 0.4, n_samples))
    )
    streams = {}
    for name, offset in (("mal", 0.0), ("syb1", 4.0), ("syb2", -3.0)):
        streams[name] = shared + offset + rng.normal(0, 0.3, n_samples)
    for name in ("norm1", "norm2"):
        streams[name] = (
            -75
            + 6 * np.sin(2 * np.pi * t / 11 + rng.uniform(0, 6))
            + np.cumsum(rng.normal(0, 0.5, n_samples))
        )
    return streams


def _detector(registry=None, **config_kwargs):
    return VoiceprintDetector(
        threshold=ConstantThreshold(0.1),
        config=DetectorConfig(**config_kwargs),
        registry=registry or _registry(),
    )


class TestDetectorIntegration:
    @pytest.mark.parametrize("scale_mode", ["median", "per-series"])
    @pytest.mark.parametrize("threshold_on", ["normalized", "raw"])
    def test_engine_report_bit_identical_to_legacy(self, scale_mode, threshold_on):
        rng = np.random.default_rng(31)
        streams = _synthetic_observations(rng)
        kwargs = {"scale_mode": scale_mode, "threshold_on": threshold_on}
        legacy = _detector(pairwise_engine=False, **kwargs)
        engine = _detector(pairwise_engine=True, **kwargs)
        for name, values in streams.items():
            _feed(legacy, name, values)
            _feed(engine, name, values)
        want = legacy.detect(density=40.0)
        got = engine.detect(density=40.0)
        assert got.raw_distances == want.raw_distances
        assert got.distances == want.distances
        assert got.sybil_pairs == want.sybil_pairs
        assert got.sybil_ids == want.sybil_ids

    @pytest.mark.parametrize("threshold_on", ["normalized", "raw"])
    def test_pruned_detect_flags_identical_to_legacy(self, threshold_on):
        rng = np.random.default_rng(32)
        streams = _synthetic_observations(rng)
        legacy = _detector(pairwise_engine=False, threshold_on=threshold_on)
        registry = _registry()
        pruned = _detector(
            registry,
            pairwise_engine=True,
            pairwise_pruning=True,
            threshold_on=threshold_on,
        )
        for name, values in streams.items():
            _feed(legacy, name, values)
            _feed(pruned, name, values)
        want = legacy.detect(density=40.0)
        got = pruned.detect(density=40.0)
        assert got.sybil_pairs == want.sybil_pairs
        assert got.sybil_ids == want.sybil_ids
        stats = pruned.pairwise_stats
        assert stats is not None
        assert stats.exact + stats.pruned + stats.cache_hits == stats.pairs
        assert (
            registry.counter("detector.pairs_compared").value == stats.pairs
        )

    def test_repeat_detect_hits_cache(self):
        rng = np.random.default_rng(33)
        streams = _synthetic_observations(rng)
        registry = _registry()
        detector = _detector(registry, pairwise_engine=True)
        for name, values in streams.items():
            _feed(detector, name, values)
        first = detector.detect(density=40.0)
        cells_after_first = registry.counter("detector.dtw_cells").value
        second = detector.detect(density=40.0)
        assert second.raw_distances == first.raw_distances
        assert second.sybil_pairs == first.sybil_pairs
        assert registry.counter("detector.dtw_cells").value == cells_after_first
        assert registry.counter("detector.cache_hits").value == len(
            first.raw_distances
        )

    def test_pairwise_stats_none_on_legacy_path(self):
        assert _detector(pairwise_engine=False).pairwise_stats is None

    @pytest.mark.parametrize(
        "kwargs",
        [{"pairwise_cache_size": -1}, {"pairwise_workers": -2}],
    )
    def test_config_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            DetectorConfig(**kwargs)

    def test_process_defaults_plumbing(self):
        previous = set_engine_defaults(engine=False, pruning=True)
        try:
            assert get_engine_defaults().engine is False
            assert _detector().pairwise_stats is None  # inherited engine=False
            explicit = _detector(pairwise_engine=True)
            assert explicit.pairwise_stats is not None
            assert explicit._engine is not None and explicit._engine.pruning
        finally:
            set_engine_defaults(
                engine=previous.engine,
                pruning=previous.pruning,
                cache_size=previous.cache_size,
                workers=previous.workers,
            )
        assert get_engine_defaults() == previous
