"""What remains of the retired incremental engine.

The incremental engine (persistent envelopes, carried verdicts,
early-abandon DTW) lost to the exact engine on every benchmark once the
exact kernel ran as one native call per detection, and was removed.
Three things outlive it, and this module covers them:

* ``DetectorConfig.pairwise_incremental`` — a deprecated no-op: setting
  it warns, and detection runs the exact engine, so sliding rechecks,
  disjoint periods and the fig11a grid (serial and under
  ``eval.parallel``) report exactly what a plain exact detector does;
* ``PairwiseEngine.compare_incremental`` — a stub that raises, kept so
  external tracers that resolve the name keep working;
* audit bundles it recorded — ``data/audit_incremental_engine.jsonl``
  holds two detections recorded with ``--pairwise-incremental on``
  (``fig14 --duration 76 --period 0.05``) before the engine was
  removed.  Their ``exact`` and ``incremental-carry`` records must
  still replay bit-identically through ``repro explain --verify``;
  ``early-abandon`` and ``pruned-lower`` surrogates are skipped.
"""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.core import pairwise
from repro.core.detector import DetectorConfig, VoiceprintDetector
from repro.core.pairwise import PairwiseEngine
from repro.core.thresholds import ConstantThreshold
from repro.obs.audit import PROV_ABANDON, PROV_EXACT, PROV_INCREMENTAL
from repro.obs.metrics import MetricsRegistry

_LEGACY_AUDIT = Path(__file__).parent / "data" / "audit_incremental_engine.jsonl"


def _registry():
    return MetricsRegistry(enabled=True)


def _legacy_config(**kwargs):
    with pytest.warns(DeprecationWarning, match="pairwise_incremental"):
        return DetectorConfig(pairwise_incremental=True, **kwargs)


def _sliding_scenario(rng, n_samples=400, rate_hz=10.0):
    """Long beacon streams: one attacker trio + independent vehicles."""
    t = np.arange(n_samples) / rate_hz
    shared = (
        -70.0
        + 5.0 * np.sin(2 * np.pi * t / 15.0)
        + np.cumsum(rng.normal(0.0, 0.4, n_samples))
    )
    streams = {}
    for name, offset in (("mal", 0.0), ("syb1", 4.0), ("syb2", -3.0)):
        streams[name] = shared + offset + rng.normal(0.0, 0.3, n_samples)
    for index in range(3):
        streams[f"veh{index}"] = (
            -75.0
            + 6.0 * np.sin(2 * np.pi * t / (9.0 + index) + rng.uniform(0.0, 6.0))
            + np.cumsum(rng.normal(0.0, 0.5, n_samples))
        )
    return t, streams


def _feed(detector, t, streams):
    for name, values in streams.items():
        for timestamp, value in zip(t, values):
            detector.observe(name, float(timestamp), float(value))


def _detector(config, threshold=0.1):
    return VoiceprintDetector(
        threshold=ConstantThreshold(threshold),
        config=config,
        registry=_registry(),
    )


class TestCompareIncremental:
    def test_requires_incremental_banded_mode(self):
        # No engine offers incremental mode any more, so the retired
        # entry point raises on every engine, banded or FastDTW.
        for radius in (10, None):
            engine = PairwiseEngine(band_radius=radius, registry=_registry())
            with pytest.raises(RuntimeError, match="retired"):
                engine.compare_incremental({}, {}, {}, {}, "", {}, 0.1, "normalized")
        # The name stays resolvable through the class dict.
        assert "compare_incremental" in PairwiseEngine.__dict__


class TestDetectorIncremental:
    @pytest.mark.parametrize("threshold_on", ["normalized", "raw"])
    def test_sliding_detect_flags_match_exact_mode(self, threshold_on):
        rng = np.random.default_rng(41)
        t, streams = _sliding_scenario(rng)
        threshold = 0.1 if threshold_on == "normalized" else 0.01
        exact = _detector(
            DetectorConfig(threshold_on=threshold_on),
            threshold,
        )
        legacy = _detector(
            _legacy_config(threshold_on=threshold_on),
            threshold,
        )
        _feed(exact, t, streams)
        _feed(legacy, t, streams)
        for now in np.arange(20.0, 32.0, 1.0):
            want = exact.detect(density=40.0, now=float(now))
            got = legacy.detect(density=40.0, now=float(now))
            assert got == want
        stats = legacy.pairwise_stats
        assert stats is not None and stats.pairs > 0
        assert stats.incremental == stats.abandoned == stats.envelope_updates == 0

    def test_disjoint_periods_report_bit_identical(self):
        rng = np.random.default_rng(42)
        t, streams = _sliding_scenario(rng, n_samples=450)
        exact = _detector(DetectorConfig(observation_time=10.0))
        legacy = _detector(_legacy_config(observation_time=10.0))
        _feed(exact, t, streams)
        _feed(legacy, t, streams)
        for now in (10.0, 20.5, 31.0, 41.5):
            want = exact.detect(density=40.0, now=now)
            got = legacy.detect(density=40.0, now=now)
            assert got.raw_distances == want.raw_distances
            assert got.distances == want.distances
            assert got.sybil_pairs == want.sybil_pairs

    def test_config_and_defaults_plumbing(self):
        with pytest.warns(DeprecationWarning):
            DetectorConfig(pairwise_incremental=False)
        detector = _detector(_legacy_config())
        assert not hasattr(detector._engine, "can_incremental")
        # No process-wide engine defaults remain to switch it back on.
        assert not hasattr(pairwise, "set_engine_defaults")


class TestFig11aGridIdentity:
    """The deprecated flag over the fig11a grid, serial and parallel."""

    @staticmethod
    def _rows(detector_config, workers=None):
        from repro.core.lda import DecisionLine
        from repro.eval.experiments import run_fig11
        from repro.sim.scenario import ScenarioConfig

        return run_fig11(
            DecisionLine(k=0.0, b=0.002),
            densities_vhls_per_km=(20,),
            runs_per_density=1,
            base_config=ScenarioConfig(sim_time_s=45.0),
            recorded_nodes=4,
            verifiers_per_run=2,
            detector_config=detector_config,
            seed=901,
            workers=workers,
        )

    def test_serial_rows_identical(self):
        want = self._rows(DetectorConfig())
        got = self._rows(_legacy_config())
        # Dataclass equality covers DR/FPR floats.
        assert got == want

    def test_parallel_rows_identical_to_serial(self):
        config = _legacy_config()
        serial = self._rows(config)
        parallel = self._rows(config, workers=2)
        assert parallel == serial


class TestCliIncrementalFlag:
    def test_flag_removed(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--pairwise-incremental", "on", "list"])


class TestAuditIncrementalCarry:
    def test_carry_records_replay_bit_identically(self):
        from repro.obs.audit import load_audit_log, verify_bundle

        bundles = load_audit_log(str(_LEGACY_AUDIT))
        tags = Counter(
            record["provenance"] for bundle in bundles for record in bundle["pairs"]
        )
        assert {PROV_EXACT, PROV_INCREMENTAL, PROV_ABANDON} <= set(tags)
        results = [row for bundle in bundles for row in verify_bundle(bundle)]
        replayed = Counter(
            row["provenance"] for row in results if row["status"] == "ok"
        )
        # Carries kept the exact kernel triple, so they stay under the
        # bit-replay obligation and meet it; surrogates are skipped.
        assert replayed == Counter(
            {PROV_EXACT: tags[PROV_EXACT], PROV_INCREMENTAL: tags[PROV_INCREMENTAL]}
        )
        assert all(
            row["status"] == "skipped"
            for row in results
            if row["provenance"] not in (PROV_EXACT, PROV_INCREMENTAL)
        )

    def test_explain_verify_passes(self, capsys):
        from repro.cli import main

        assert main(["explain", str(_LEGACY_AUDIT), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "all bit-identical" in out
        assert "early-abandon" in out  # reported as skipped

    def test_explain_decomposes_a_carried_pair(self, capsys):
        from repro.cli import main

        spec = "1,102"  # carried in both recorded detections
        assert main(["explain", str(_LEGACY_AUDIT), "--pair", spec]) == 0
        out = capsys.readouterr().out
        assert "prov    : incremental-carry" in out
        assert "dtw     : path_len=" in out
        assert "decided from bounds" not in out
