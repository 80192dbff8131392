"""Audit-trail overhead benchmark — recording must stay under 5 %.

Runs a compare-dominated detection workload (all-pairs DTW over fresh
random RSSI series each round, 30 s windows at 10 Hz — the CLI's
default period regime) and gates the decision-audit layer's hot-path
overhead: evidence capture during normalisation plus bundle
construction in the in-memory ring.

The measurement discipline mirrors ``test_bench_profile.py``: rounds
alternate baseline / audited so both modes sample the same host noise,
each round is timed with ``time.process_time`` (spans all threads, so
any recording work is charged no matter where it runs), the per-mode
minimum recovers the quiet-host cost, and the whole measurement
retries up to ``_ATTEMPTS`` times — noise passes on a retry, a real
overhead regression fails every attempt.

Only the in-memory ring mode gates: it is the always-on shape of the
audit layer, and the one the ``<5 %`` acceptance bound covers.  The
disk-streaming mode (``--audit-out``) additionally pays JSONL
serialisation and a flushed write per detection; its cost is measured
and reported in the payload for trend-watching but does not gate.

The run writes ``BENCH_audit.json`` at the repo root for the
``bench_compare`` regression gate.  Audit *evidence* counts
(detections, pair records) are deterministic replays of the seeded
workload and gate at the deterministic tolerance; timings are
host-dependent and skipped in CI.

Acceptance criteria (asserted on any host):

* in-memory auditing adds < 5 % to the detection workload;
* every audited round yields exactly one bundle with all
  ``C(identities, 2)`` pair records — recording drops nothing;
* the disk stream holds one JSONL line per audited detection.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.core.detector import DetectorConfig, VoiceprintDetector
from repro.core.thresholds import ConstantThreshold
from repro.core.timeseries import RSSITimeSeries
from repro.eval.reporting import render_table
from repro.obs.audit import default_audit_log, start_default, stop_default

_REPO_ROOT = Path(__file__).resolve().parent.parent
_OUT_PATH = _REPO_ROOT / "BENCH_audit.json"

_IDENTITIES = 24
_SAMPLES_PER_SERIES = 300
_OBSERVATION_TIME_S = 30.0
_ROUNDS_PER_MODE = 30
_DISK_ROUNDS = 6
_WARMUP_ROUNDS = 2
_ATTEMPTS = 3
_OVERHEAD_CEILING_PCT = 5.0
_PAIRS_PER_ROUND = _IDENTITIES * (_IDENTITIES - 1) // 2


def _loaded_detector(seed: int) -> VoiceprintDetector:
    """A detector over fresh random series (cache-cold every round)."""
    rng = np.random.default_rng(seed)
    config = DetectorConfig(observation_time=_OBSERVATION_TIME_S)
    detector = VoiceprintDetector(
        threshold=ConstantThreshold(0.05), config=config
    )
    times = np.linspace(0.0, _OBSERVATION_TIME_S, _SAMPLES_PER_SERIES)
    for index in range(_IDENTITIES):
        series = RSSITimeSeries(f"v{index:03d}")
        rssi = -70.0 + np.cumsum(
            rng.normal(0.0, 0.8, _SAMPLES_PER_SERIES)
        )
        for t, value in zip(times, rssi):
            series.append(float(t), float(value))
        detector.load_series(series)
    return detector


def _timed_detect(detector: VoiceprintDetector) -> float:
    """CPU seconds for one detect() call; series loading not charged."""
    start = time.process_time()
    detector.detect(density=40.0, now=_OBSERVATION_TIME_S)
    return time.process_time() - start


def test_bench_audit(once, benchmark, tmp_path):
    assert default_audit_log() is None, "bench expects auditing off"

    def run_alternating():
        baseline_cpu, audited_cpu = [], []
        detections = pairs = 0
        for index in range(_WARMUP_ROUNDS):  # warm numpy/DTW caches
            _timed_detect(_loaded_detector(9000 + index))
        for index in range(2 * _ROUNDS_PER_MODE):
            detector = _loaded_detector(index)
            audited = index % 2 == 1
            if audited:
                start_default(out=None)
            cpu = _timed_detect(detector)
            if audited:
                log = stop_default()
                audited_cpu.append(cpu)
                detections += log.detections
                pairs += log.pairs_recorded
            else:
                baseline_cpu.append(cpu)
        return baseline_cpu, audited_cpu, detections, pairs

    def measure_best_attempt():
        best = None
        for _attempt in range(_ATTEMPTS):
            baseline_cpu, audited_cpu, detections, pairs = run_alternating()
            overhead = (
                100.0
                * (min(audited_cpu) - min(baseline_cpu))
                / min(baseline_cpu)
            )
            result = (
                overhead,
                min(baseline_cpu),
                min(audited_cpu),
                detections,
                pairs,
            )
            if best is None or overhead < best[0]:
                best = result
            if overhead < _OVERHEAD_CEILING_PCT:
                break

        # Disk-streaming mode: one log across the rounds, first round
        # is warmup (pays the lazy file open), timings info-only.
        stream_path = tmp_path / "bench_audit.jsonl"
        start_default(out=str(stream_path))
        disk_cpu = [
            _timed_detect(_loaded_detector(5000 + index))
            for index in range(1 + _DISK_ROUNDS)
        ][1:]
        disk_log = stop_default()
        stream_lines = sum(
            1
            for line in stream_path.read_text(encoding="utf-8").splitlines()
            if line
        )
        return (*best, min(disk_cpu), disk_log.detections, stream_lines)

    (
        overhead_pct,
        base_cpu,
        audit_cpu,
        detections,
        pairs,
        disk_cpu,
        disk_detections,
        stream_lines,
    ) = once(benchmark, measure_best_attempt)

    disk_overhead_pct = 100.0 * (disk_cpu - base_cpu) / base_cpu

    payload = {
        "workload": {
            "identities": _IDENTITIES,
            "samples_per_series": _SAMPLES_PER_SERIES,
            "rounds_per_mode": _ROUNDS_PER_MODE,
        },
        "audit": {
            "detections": detections,
            "pairs": pairs,
            "stream_lines": stream_lines,
        },
        "timing": {
            "baseline_cpu_ms": round(base_cpu * 1000.0, 1),
            "audited_cpu_ms": round(audit_cpu * 1000.0, 1),
            "disk_cpu_ms": round(disk_cpu * 1000.0, 1),
            "overhead_pct": round(overhead_pct, 2),
            "disk_overhead_pct": round(disk_overhead_pct, 2),
        },
    }
    _OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    table = render_table(
        ["quantity", "value"],
        [
            ("baseline cpu ms", payload["timing"]["baseline_cpu_ms"]),
            ("audited cpu ms", payload["timing"]["audited_cpu_ms"]),
            ("overhead %", payload["timing"]["overhead_pct"]),
            ("disk cpu ms", payload["timing"]["disk_cpu_ms"]),
            ("disk overhead %", payload["timing"]["disk_overhead_pct"]),
            ("bundles", detections),
            ("pair records", pairs),
        ],
        title=f"audit overhead (-> {_OUT_PATH.name})",
    )
    print("\n" + table)
    benchmark.extra_info["table"] = table

    assert detections == _ROUNDS_PER_MODE, (
        f"expected one bundle per audited round, got {detections}"
    )
    assert pairs == _ROUNDS_PER_MODE * _PAIRS_PER_ROUND, (
        f"expected {_PAIRS_PER_ROUND} pair records per round, got {pairs}"
    )
    assert stream_lines == disk_detections == 1 + _DISK_ROUNDS, (
        f"disk stream should hold one line per detection, got "
        f"{stream_lines} lines / {disk_detections} detections"
    )
    assert overhead_pct < _OVERHEAD_CEILING_PCT, (
        f"audit overhead {overhead_pct:.2f}% exceeds "
        f"{_OVERHEAD_CEILING_PCT}%"
    )
