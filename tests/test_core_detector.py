"""Unit tests for repro.core.detector (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.detector import DetectorConfig, VoiceprintDetector
from repro.core.thresholds import ConstantThreshold, LinearThreshold
from repro.core.timeseries import RSSITimeSeries


def _feed(detector, identity, values, start=0.0, interval=0.1):
    for index, value in enumerate(values):
        detector.observe(identity, start + index * interval, value)


def _synthetic_observations(rng, n_samples=200):
    """One attacker (3 streams sharing a waveform) + two normal nodes."""
    t = np.arange(n_samples) * 0.1
    shared = -70 + 5 * np.sin(2 * np.pi * t / 15) + np.cumsum(rng.normal(0, 0.4, n_samples))
    streams = {}
    for name, offset in (("mal", 0.0), ("syb1", 4.0), ("syb2", -3.0)):
        streams[name] = shared + offset + rng.normal(0, 0.3, n_samples)
    for name in ("norm1", "norm2"):
        independent = -75 + 6 * np.sin(2 * np.pi * t / 11 + rng.uniform(0, 6)) + np.cumsum(
            rng.normal(0, 0.5, n_samples)
        )
        streams[name] = independent
    return streams


class TestConfigValidation:
    def test_defaults_valid(self):
        DetectorConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"observation_time": 0.0},
            {"min_samples": 1},
            {"fastdtw_radius": -1},
            {"band_radius_samples": -2},
            {"sigma_multiplier": 0.0},
            {"scale_mode": "bogus"},
            {"threshold_on": "bogus"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            DetectorConfig(**kwargs)


class TestCollection:
    def test_observe_creates_buffers(self):
        detector = VoiceprintDetector()
        detector.observe("a", 0.0, -70.0)
        detector.observe("b", 0.05, -80.0)
        assert detector.heard_identities == ("a", "b")

    def test_series_for(self):
        detector = VoiceprintDetector()
        detector.observe("a", 0.0, -70.0)
        assert len(detector.series_for("a")) == 1
        assert detector.series_for("missing") is None

    def test_buffers_trimmed(self):
        config = DetectorConfig(observation_time=5.0, min_samples=2)
        detector = VoiceprintDetector(config=config)
        for i in range(300):
            detector.observe("a", i * 0.1, -70.0)
        series = detector.series_for("a")
        assert series.start >= 300 * 0.1 - 2 * 5.0 - 0.2

    def test_load_series_adopts_buffer(self):
        detector = VoiceprintDetector()
        series = RSSITimeSeries.from_values("x", [-70.0] * 5)
        detector.load_series(series)
        assert detector.series_for("x") is series

    def test_forget(self):
        detector = VoiceprintDetector()
        detector.observe("a", 0.0, -70.0)
        detector.forget("a")
        assert detector.heard_identities == ()

    def test_reset(self):
        detector = VoiceprintDetector()
        detector.observe("a", 0.0, -70.0)
        detector.reset()
        assert detector.heard_identities == ()


class TestDetection:
    def _detector(self, rng, threshold=0.1, **config_kwargs):
        config = DetectorConfig(min_samples=50, **config_kwargs)
        detector = VoiceprintDetector(
            threshold=ConstantThreshold(threshold), config=config
        )
        for name, values in _synthetic_observations(rng).items():
            _feed(detector, name, values)
        return detector

    def test_flags_sybil_cluster(self):
        detector = self._detector(np.random.default_rng(0))
        report = detector.detect(density=10.0)
        assert {"mal", "syb1", "syb2"} <= set(report.sybil_ids)

    def test_normal_nodes_survive(self):
        detector = self._detector(np.random.default_rng(1), threshold=0.05)
        report = detector.detect(density=10.0)
        assert "norm1" not in report.sybil_ids
        assert "norm2" not in report.sybil_ids

    def test_clusters_group_attacker(self):
        detector = self._detector(np.random.default_rng(2), threshold=0.05)
        report = detector.detect(density=10.0)
        clusters = report.sybil_clusters()
        assert any({"mal", "syb1", "syb2"} <= cluster for cluster in clusters)

    def test_distances_normalised_range(self):
        detector = self._detector(np.random.default_rng(3))
        report = detector.detect(density=10.0)
        values = list(report.distances.values())
        assert min(values) == 0.0
        assert max(values) == 1.0

    def test_raw_distances_present(self):
        detector = self._detector(np.random.default_rng(4))
        report = detector.detect(density=10.0)
        assert set(report.raw_distances) == set(report.distances)
        assert all(v >= 0 for v in report.raw_distances.values())

    def test_short_series_skipped(self):
        rng = np.random.default_rng(5)
        detector = self._detector(rng)
        _feed(detector, "fringe", [-90.0] * 5, start=18.0)
        report = detector.detect(density=10.0)
        assert "fringe" in report.skipped_ids
        assert "fringe" not in report.compared_ids

    def test_empty_detector_detects_nothing(self):
        detector = VoiceprintDetector(threshold=ConstantThreshold(0.5))
        report = detector.detect(density=10.0, now=0.0)
        assert report.sybil_ids == frozenset()
        assert report.compared_ids == ()

    def test_single_identity_no_pairs(self):
        detector = VoiceprintDetector(
            threshold=ConstantThreshold(0.5), config=DetectorConfig(min_samples=5)
        )
        _feed(detector, "only", [-70.0 + i % 3 for i in range(100)])
        report = detector.detect(density=10.0)
        assert report.distances == {}
        assert report.sybil_ids == frozenset()

    def test_rejects_negative_density(self):
        detector = VoiceprintDetector()
        with pytest.raises(ValueError):
            detector.detect(density=-1.0)

    def test_window_respected(self):
        """Samples outside the observation window must not be compared."""
        rng = np.random.default_rng(6)
        config = DetectorConfig(observation_time=5.0, min_samples=10)
        detector = VoiceprintDetector(
            threshold=ConstantThreshold(0.5), config=config
        )
        _feed(detector, "a", rng.normal(-70, 2, 300))
        report = detector.detect(density=10.0, now=30.0)
        # 5 s at 10 Hz -> at most ~51 samples in the compared window.
        series = detector.series_for("a").window(25.0, 30.0 + 1e-9)
        assert len(series) <= 51

    def test_threshold_on_raw_mode(self):
        rng = np.random.default_rng(7)
        detector = self._detector(rng, threshold=0.002, threshold_on="raw")
        report = detector.detect(density=10.0)
        # Sybil pairs should be under this raw per-step threshold.
        assert {"mal", "syb1", "syb2"} <= set(report.sybil_ids)

    def test_exact_dtw_mode_runs(self):
        rng = np.random.default_rng(8)
        detector = self._detector(rng, use_exact_dtw=True)
        report = detector.detect(density=10.0)
        assert report.compared_ids

    def test_per_series_scale_mode_runs(self):
        rng = np.random.default_rng(9)
        detector = self._detector(rng, scale_mode="per-series")
        report = detector.detect(density=10.0)
        assert report.compared_ids

    def test_default_threshold_is_paper_line(self):
        detector = VoiceprintDetector()
        assert isinstance(detector.threshold, LinearThreshold)


class TestPowerSpoofingInvariance:
    def test_constant_offset_cancelled(self):
        """Sybil streams with big constant power offsets still cluster."""
        rng = np.random.default_rng(10)
        streams = _synthetic_observations(rng)
        streams["syb1"] = streams["syb1"] + 15.0  # extreme spoof
        config = DetectorConfig(min_samples=50)
        detector = VoiceprintDetector(
            threshold=ConstantThreshold(0.1), config=config
        )
        for name, values in streams.items():
            _feed(detector, name, values)
        report = detector.detect(density=10.0)
        assert {"mal", "syb1", "syb2"} <= set(report.sybil_ids)


class TestPairDistance:
    """``repro timing`` times ``_pair_distance``: it must be the kernel
    ``detect()`` actually runs, with the same distances."""

    @pytest.mark.parametrize("engine", [True, False])
    def test_equals_detect_distance(self, engine):
        streams = _synthetic_observations(np.random.default_rng(4))
        detector = VoiceprintDetector(
            threshold=ConstantThreshold(0.1),
            config=DetectorConfig(min_samples=50, pairwise_engine=engine),
        )
        # Ragged windows, as packet loss leaves them.
        _feed(detector, "mal", streams["mal"][:187])
        _feed(detector, "syb1", streams["syb1"])
        report = detector.detect(density=10.0)
        normalised = detector._normalise(detector._latest)[0]
        got = detector._pair_distance(normalised["mal"], normalised["syb1"])
        assert got == report.raw_distances[("mal", "syb1")]

    def test_engine_runs_the_engine_kernel(self, monkeypatch):
        detector = VoiceprintDetector(
            threshold=ConstantThreshold(0.1),
            config=DetectorConfig(pairwise_engine=True),
        )
        calls = []
        real = detector._engine.kernel_triples

        def spy(xs, ys):
            calls.append(len(xs))
            return real(xs, ys)

        monkeypatch.setattr(detector._engine, "kernel_triples", spy)
        detector._pair_distance(np.arange(5.0), np.arange(7.0))
        assert calls == [1]


class TestStaleIdentitySweep:
    """Long-run memory: silent identities must be forgotten (bugfix).

    A roadside observer hears thousands of one-shot identities over a
    long run (every passing vehicle, every pseudonym change).  Before
    the sweep, each left a buffer behind forever; this is the
    regression test that failed against the leaking detector.
    """

    def test_one_shot_identities_are_swept(self):
        config = DetectorConfig(observation_time=20.0, min_samples=2)
        detector = VoiceprintDetector(config=config)
        # 10k identities, each heard exactly once, 0.1s apart: the
        # stream spans 1000s, identities fall silent immediately.
        for i in range(10_000):
            detector.observe(f"car{i}", i * 0.1, -70.0)
        # Only identities newer than 2x observation_time (40s = 400
        # beacons) behind the latest can legally remain.
        assert len(detector.heard_identities) <= 1_000

    def test_sweep_counts_forgets_when_metrics_enabled(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.enable()
        config = DetectorConfig(observation_time=20.0, min_samples=2)
        detector = VoiceprintDetector(config=config, registry=registry)
        for i in range(5_000):
            detector.observe(f"car{i}", i * 0.1, -70.0)
        assert registry.counter("detector.stale_forgets").value > 0

    def test_active_identities_survive_the_sweep(self):
        config = DetectorConfig(observation_time=20.0, min_samples=2)
        detector = VoiceprintDetector(config=config)
        for i in range(3_000):
            t = i * 0.1
            detector.observe("steady", t, -70.0)
            detector.observe(f"oneshot{i}", t, -75.0)
        assert "steady" in detector.heard_identities
        series = detector.series_for("steady")
        assert len(series) > 0

    def test_sweep_drops_incremental_engine_state(self):
        config = DetectorConfig(
            observation_time=20.0,
            min_samples=2,
            pairwise_engine=True,
            pairwise_incremental=True,
        )
        detector = VoiceprintDetector(config=config)
        for i in range(3_000):
            detector.observe(f"car{i}", i * 0.1, -70.0)
        # The engine's per-identity envelope table must not retain the
        # swept tail either (that's the other half of the leak).
        engine = detector._engine
        assert engine is not None
        tracked = getattr(engine, "_inc_series", None)
        if tracked is not None:
            assert len(tracked) <= len(detector.heard_identities) + 1

    def test_reset_rearms_the_sweep_schedule(self):
        config = DetectorConfig(observation_time=20.0, min_samples=2)
        detector = VoiceprintDetector(config=config)
        for i in range(1_000):
            detector.observe(f"car{i}", i * 0.1, -70.0)
        detector.reset()
        for i in range(1_000):
            detector.observe(f"bus{i}", i * 0.1, -70.0)
        assert len(detector.heard_identities) <= 1_000


class TestOwnershipGuard:
    def test_foreign_thread_mutation_raises(self):
        import threading

        detector = VoiceprintDetector()
        detector.enable_ownership_guard()
        detector.observe("a", 0.0, -70.0)
        failures = []

        def intruder():
            try:
                detector.observe("a", 1.0, -70.0)
            except RuntimeError as error:
                failures.append(error)

        thread = threading.Thread(target=intruder)
        thread.start()
        thread.join()
        assert len(failures) == 1
        assert "single-writer" in str(failures[0])

    def test_claim_ownership_hands_over(self):
        import threading

        detector = VoiceprintDetector()
        detector.enable_ownership_guard()
        detector.observe("a", 0.0, -70.0)
        outcome = []

        def new_owner():
            detector.claim_ownership()
            detector.observe("a", 1.0, -70.0)
            outcome.append("ok")

        thread = threading.Thread(target=new_owner)
        thread.start()
        thread.join()
        assert outcome == ["ok"]

    def test_guard_default_off_allows_cross_thread(self):
        import threading

        from repro.core.detector import set_ownership_guard

        previous = set_ownership_guard(False)
        try:
            detector = VoiceprintDetector()
            detector.observe("a", 0.0, -70.0)
            errors = []

            def other():
                try:
                    detector.observe("a", 1.0, -70.0)
                except RuntimeError as error:  # pragma: no cover
                    errors.append(error)

            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
            assert errors == []
        finally:
            set_ownership_guard(previous)
