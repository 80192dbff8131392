"""Pairwise-engine benchmark.

Replays one online-pipeline workload (an attacker trio plus independent
neighbours, 10 Hz beacons, a detection every 5 s plus one same-window
recheck and four *sliding* rechecks per period — the app-triggered
event-messaging pattern where each recheck's window has slid by ~10 new
beacons) through the exact pairwise engine (``kernel``: one ragged
kernel call per detection).

Every detection must flag exactly the Sybil pairs a scalar reference
loop flags — :func:`repro.core.fastdtw.dtw_banded_fast` over the same
normalised windows, then Eq. 8 min–max and the threshold (the engine's
bit-equality contract).  The reference runs outside the timed region.
The run writes ``BENCH_pairwise.json`` at the repo root with wall time,
pairs/sec and DTW cells relaxed.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.core.fastdtw import dtw_banded_fast
from repro.core.normalization import minmax_distances
from repro.core.pipeline import OnlineVoiceprint, OnlineVoiceprintConfig
from repro.eval.reporting import render_table
from repro.obs.metrics import MetricsRegistry

_REPO_ROOT = Path(__file__).resolve().parent.parent
_OUT_PATH = _REPO_ROOT / "BENCH_pairwise.json"

_DURATION_S = 120.0
_RATE_HZ = 10.0
_DETECTION_PERIOD_S = 5.0
_N_INDEPENDENT = 11  # + the attacker's three identities = 14 heard
#: Sliding recheck offsets after each periodic detection (seconds); the
#: window has slid by ~offset * rate new beacons at each one.
_SLIDING_RECHECKS_S = (1.0, 2.0, 3.0, 4.0)



def _beacon_stream():
    """(timestamp, identity, rssi) tuples for the synthetic scenario."""
    rng = np.random.default_rng(1234)
    n = int(_DURATION_S * _RATE_HZ)
    t = np.arange(n) / _RATE_HZ
    shared = (
        -70.0
        + 5.0 * np.sin(2 * np.pi * t / 15.0)
        + np.cumsum(rng.normal(0.0, 0.4, n))
    )
    streams = {}
    for name, offset in (("mal", 0.0), ("syb1", 4.0), ("syb2", -3.0)):
        streams[name] = shared + offset + rng.normal(0.0, 0.3, n)
    for i in range(_N_INDEPENDENT):
        streams[f"veh{i:02d}"] = (
            -75.0
            + 6.0 * np.sin(2 * np.pi * t / (9.0 + i) + rng.uniform(0.0, 6.0))
            + np.cumsum(rng.normal(0.0, 0.5, n))
        )
    names = sorted(streams)
    for index, timestamp in enumerate(t):
        for name in names:
            yield float(timestamp), name, float(streams[name][index])


def _reference_pairs(detector, report):
    """The flagged pairs of a scalar per-pair loop over the windows the
    detector just compared (default config: banded, path-normalised,
    thresholded after min–max)."""
    normalised, _ = detector._normalise(report.timestamp)
    radius = detector.config.band_radius_samples
    ids = sorted(normalised)
    raw = {}
    for index, a in enumerate(ids):
        for b in ids[index + 1 :]:
            result = dtw_banded_fast(normalised[a], normalised[b], radius)
            raw[(a, b)] = result.distance / len(result.path)
    judged = minmax_distances(raw)
    return tuple(pair for pair, d in sorted(judged.items()) if d <= report.threshold)


def _run_kernel():
    registry = MetricsRegistry(enabled=True)
    pipeline = OnlineVoiceprint(
        max_range_m=650.0,
        config=OnlineVoiceprintConfig(detection_period_s=_DETECTION_PERIOD_S),
        registry=registry,
    )
    mismatches = []
    detections = 0
    pending: list = []
    wall_s = 0.0

    def timed(call, *args):
        nonlocal wall_s
        start = time.perf_counter()
        report = call(*args)
        wall_s += time.perf_counter() - start
        return report

    def check(report):
        # Before the next beacon lands: the reference must see the
        # windows this detection compared.
        nonlocal detections
        detections += 1
        want = _reference_pairs(pipeline.detector, report)
        if report.sybil_pairs != want:
            mismatches.append((report.timestamp, report.sybil_pairs, want))

    for timestamp, identity, rssi in _beacon_stream():
        while pending and timestamp >= pending[0]:
            # A sliding recheck: the window has slid by the beacons
            # that arrived since the last detection.
            pending.pop(0)
            check(timed(pipeline.force_detection, timestamp))
        report = timed(pipeline.on_beacon, identity, timestamp, rssi)
        if report is not None:
            # An application-triggered recheck of the same window (the
            # paper's event-triggered messaging).
            check(report)
            check(timed(pipeline.force_detection, report.timestamp))
            pending = [report.timestamp + dt for dt in _SLIDING_RECHECKS_S]
    pairs = int(registry.counter("detector.pairs_compared").value)
    record = {
        "wall_ms": round(wall_s * 1000.0, 1),
        "detections": detections,
        "pairs": pairs,
        "pairs_per_s": round(pairs / wall_s, 1),
        "pairs_exact": int(registry.counter("detector.pairs_exact").value),
        "dtw_cells": int(registry.counter("detector.dtw_cells").value),
    }
    return record, mismatches


def test_bench_pairwise(once, benchmark):
    record, mismatches = once(benchmark, _run_kernel)

    # Bit-equality acceptance: every detection flags exactly the pairs
    # the scalar reference loop flags.
    assert record["detections"] > 0
    assert mismatches == [], mismatches[:3]

    payload = {
        "workload": {
            "identities": _N_INDEPENDENT + 3,
            "duration_s": _DURATION_S,
            "beacon_rate_hz": _RATE_HZ,
            "detection_period_s": _DETECTION_PERIOD_S,
            "rechecks_per_period": 1 + len(_SLIDING_RECHECKS_S),
            "sliding_rechecks_per_period": len(_SLIDING_RECHECKS_S),
        },
        "configs": {"kernel": record},
    }
    _OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    table = render_table(
        ["config", "wall ms", "pairs/s", "DTW cells"],
        [("kernel", record["wall_ms"], record["pairs_per_s"], record["dtw_cells"])],
        title=f"pairwise engine — sliding-recheck workload (-> {_OUT_PATH.name})",
    )
    print("\n" + table)
    benchmark.extra_info["table"] = table
