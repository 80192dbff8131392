"""Tests for repro.core.pairwise — the ragged kernel and the exact engine.

The engine's contract is *bit-equality*: every distance it reports, and
hence every flag set and margin ``detect()`` derives from them, must be
exactly what a per-pair scalar loop over
:func:`~repro.core.fastdtw.dtw_banded_fast`, :func:`~repro.core.fastdtw.fastdtw`
or :func:`~repro.core.dtw.dtw` would have produced, not merely close.
The tests below therefore compare with ``==`` on floats, against a
reference loop that lives here, in the tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import DetectorConfig, VoiceprintDetector
from repro.core.dtw import dtw
from repro.core.fastdtw import dtw_banded_fast, fastdtw
from repro.core.normalization import minmax_distances, zscore
from repro.core.pairwise import (
    PairwiseEngine,
    band_cells,
    dtw_banded_batch,
    dtw_banded_batch_abandon,
)
from repro.core.thresholds import ConstantThreshold
from repro.core.timeseries import RSSITimeSeries
from repro.obs.audit import signed_margin
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
    (triple,) = dtw_banded_batch_abandon(
        [np.asarray(x, dtype=float)], [np.asarray(y, dtype=float)], radius
    )
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
    """The band's extent bounds the kernel's work."""

    def test_band_cells_matches_kernel_work(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=120), rng.normal(size=100)
        assert band_cells(120, 100, 10) == dtw_banded_fast(x, y, 10).cells


class TestEngineCompare:
    def test_bit_equal_to_naive_loop(self):
        rng = np.random.default_rng(9)
        arrays = _scenario_arrays(rng)
        engine = PairwiseEngine(band_radius=10, registry=_registry())
        distances, stats = engine.compare(arrays)
        assert distances == _naive_distances(arrays)
        assert stats.pairs == stats.exact == len(distances)

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
        registry = _registry()
        engine = PairwiseEngine(band_radius=10, registry=registry)
        first, stats1 = engine.compare(arrays)
        second, stats2 = engine.compare(arrays)
        # Nothing is reused between calls: a repeat recomputes every
        # pair, and the retired modes' fields (kept for readers of the
        # stats) read 0.
        assert second == first and stats2 == stats1
        assert stats2.cache_hits == stats2.pruned == stats2.abandoned == 0
        assert stats1.cells == 6 * band_cells(150, 150, 10)
        assert registry.counter("detector.pairs_compared").value == 12
        assert registry.counter("detector.pairs_exact").value == 12
        assert registry.counter("detector.dtw_cells").value == 2 * stats1.cells
        assert engine.stats.pairs == 12 and engine.stats.cells == 2 * stats1.cells

    def test_fewer_than_two_identities(self):
        engine = PairwiseEngine(registry=_registry())
        for arrays in ({}, {"a": np.ones(5)}):
            distances, stats = engine.compare(arrays)
            assert distances == {} and stats.pairs == 0


class TestCompareDecided:
    """The flag sets the retired ``compare_decided`` had to reproduce,
    now from ``compare()`` plus the threshold rule, over a cutoff sweep;
    the entry point itself is a stub."""

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
        engine = PairwiseEngine(band_radius=10, registry=_registry())
        raw, _ = engine.compare(arrays)
        mine = minmax_distances(raw) if threshold_on == "normalized" else raw
        for cutoff in cutoffs:
            flags = {p: d <= cutoff for p, d in mine.items()}
            assert flags == {p: d <= cutoff for p, d in judged.items()}

    def test_degenerate_identical_series(self):
        base = np.sin(np.linspace(0, 6, 120))
        arrays = {k: base.copy() for k in "abc"}
        engine = PairwiseEngine(band_radius=10, registry=_registry())
        raw, _ = engine.compare(arrays)
        # min-max degenerates to all-zero, so a zero cutoff flags all.
        assert all(d <= 0.0 for d in minmax_distances(raw).values())

    def test_requires_banded_pruning(self):
        # Pruning is gone, so the retired entry point raises on every
        # engine; the name stays resolvable through the class dict.
        for radius in (10, None):
            engine = PairwiseEngine(band_radius=radius, registry=_registry())
            with pytest.raises(RuntimeError, match="retired"):
                engine.compare_decided({}, None, "", 0.0, "normalized")
        assert "compare_decided" in PairwiseEngine.__dict__


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


def _detector(registry=None, threshold=0.1, **config_kwargs):
    return VoiceprintDetector(
        threshold=ConstantThreshold(threshold),
        config=DetectorConfig(**config_kwargs),
        registry=registry or _registry(),
    )


def _reference_report(windows, config, cutoff):
    """``(raw, flagged pairs, margins)`` of one detection, computed
    pair by pair with the scalar kernels.

    ``windows`` maps identity to its raw window; ``config`` picks the
    normalisation, the kernel and the thresholded distance exactly as
    :class:`DetectorConfig` documents them.
    """
    k = config.sigma_multiplier
    if config.scale_mode == "median":
        scale = k * max(float(np.median([float(np.std(v)) for v in windows.values()])), 1e-9)
        normalised = {i: (v - float(np.mean(v))) / scale for i, v in windows.items()}
    else:
        normalised = {i: zscore(v, sigma_multiplier=k) for i, v in windows.items()}
    if config.use_exact_dtw:
        kernel = dtw
    elif config.band_radius_samples is None:
        kernel = lambda x, y: fastdtw(x, y, radius=config.fastdtw_radius)  # noqa: E731
    else:
        kernel = lambda x, y: dtw_banded_fast(x, y, config.band_radius_samples)  # noqa: E731
    ids = sorted(normalised)
    raw = {}
    for index, a in enumerate(ids):
        for b in ids[index + 1 :]:
            result = kernel(normalised[a], normalised[b])
            raw[(a, b)] = (
                result.distance / len(result.path)
                if config.normalize_by_path_length
                else result.distance
            )
    judged = minmax_distances(raw) if config.threshold_on == "normalized" else raw
    flagged = tuple(pair for pair, d in sorted(judged.items()) if d <= cutoff)
    margins = {pair: signed_margin(d, cutoff) for pair, d in judged.items()}
    return raw, flagged, margins


def _assert_matches_reference(detector, windows, cutoff, now=None):
    report = detector.detect(density=40.0, now=now)
    raw, flagged, margins = _reference_report(windows, detector.config, cutoff)
    assert report.raw_distances == raw
    assert report.sybil_pairs == flagged
    assert report.sybil_ids == frozenset(i for pair in flagged for i in pair)
    assert report.margins == margins
    return report


_KERNEL_MODES = {
    "banded": {},
    "banded-raw-sum": {"normalize_by_path_length": False},
    "fastdtw": {"band_radius_samples": None},
    "exact-dtw": {"use_exact_dtw": True},
}


class TestDetectDifferential:
    """``detect()`` against the scalar reference loop: raw distances,
    flag sets and margins equal bit for bit, for every kernel mode,
    both thresholded distances and both scale modes — with the native
    kernel and under ``REPRO_NATIVE=0`` alike."""

    @given(
        # A few shared lengths: ragged batches that also give the numpy
        # fallback whole (n, m) shape groups to sweep.
        lengths=st.lists(st.sampled_from([2, 17, 30]), min_size=2, max_size=8),
        copies=st.integers(0, 2),
        seed=st.integers(0, 2**16),
        mode=st.sampled_from(sorted(_KERNEL_MODES)),
        threshold_on=st.sampled_from(["normalized", "raw"]),
        scale_mode=st.sampled_from(["median", "per-series"]),
        radius=st.integers(0, 12),
        cutoff=st.floats(0.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_detect_matches_reference_loop(
        self, lengths, copies, seed, mode, threshold_on, scale_mode, radius, cutoff
    ):
        rng = np.random.default_rng(seed)
        walk = -70.0 + np.cumsum(rng.normal(0.0, 1.0, max(lengths)))
        windows = {}
        for index, size in enumerate(lengths):
            if index < copies:
                # Sybil-like: one radio's waveform under fresh noise.
                values = walk[:size] + rng.normal(0.0, 0.2, size) + 3.0 * index
            else:
                values = -70.0 + np.cumsum(rng.normal(0.0, 1.0, size))
            windows[f"id{index}"] = np.round(values)  # RSSI is integral dBm
        config_kwargs = dict(
            observation_time=100.0,
            min_samples=2,
            band_radius_samples=radius,
            threshold_on=threshold_on,
            scale_mode=scale_mode,
        )
        config_kwargs.update(_KERNEL_MODES[mode])
        detector = _detector(threshold=cutoff, **config_kwargs)
        for identity, values in windows.items():
            series = RSSITimeSeries(identity)
            for step, value in enumerate(values):
                series.append(0.1 * step, float(value))
            detector.load_series(series)
        _assert_matches_reference(detector, windows, cutoff, now=4.0)


class TestDetectorIntegration:
    @pytest.mark.parametrize("scale_mode", ["median", "per-series"])
    @pytest.mark.parametrize("threshold_on", ["normalized", "raw"])
    def test_engine_report_bit_identical_to_legacy(self, scale_mode, threshold_on):
        # "Legacy" is the per-pair scalar loop, now the test-side
        # reference rather than a detector mode.
        rng = np.random.default_rng(31)
        streams = _synthetic_observations(rng)
        detector = _detector(scale_mode=scale_mode, threshold_on=threshold_on)
        for name, values in streams.items():
            _feed(detector, name, values)
        report = _assert_matches_reference(detector, streams, 0.1)
        assert report.distances == minmax_distances(report.raw_distances)

    @pytest.mark.parametrize(
        "kwargs",
        [{"pairwise_cache_size": -1}, {"pairwise_workers": -2}],
    )
    def test_config_rejects_bad_values(self, kwargs):
        # The cache and thread-pool knobs are gone: an old caller's
        # setting fails loudly instead of being silently ignored.
        with pytest.raises(TypeError):
            DetectorConfig(**kwargs)

    def test_deprecated_engine_flag_is_a_no_op(self):
        rng = np.random.default_rng(34)
        streams = _synthetic_observations(rng)
        plain = _detector()
        with pytest.warns(DeprecationWarning, match="pairwise_engine"):
            legacy = _detector(pairwise_engine=False)
        for name, values in streams.items():
            _feed(plain, name, values)
            _feed(legacy, name, values)
        assert legacy.detect(density=40.0) == plain.detect(density=40.0)
        assert legacy.pairwise_stats == plain.pairwise_stats
