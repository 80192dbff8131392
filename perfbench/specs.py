"""Workload sizes and fixed settings (no ``repro`` import, so the
fresh-interpreter set-up probe can read them without skewing
``setup_s``)."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict

from common import ROOT, BenchError

#: Trained-scale line of EXPERIMENTS.md E5, used by the paper cell.
TRAINED_LINE = (4e-6, 0.0011)
SETUP_PROBES = 3
#: A run whose open-loop generator sent its lag tail later than this is
#: invalid: at 24,000 beacons/s it would have deferred 2,400 beacons,
#: about 1% of a pass, so the offered load was no longer the one
#: scheduled.  (Latency runs from the due time, so lag never hides
#: latency; it only thins the load.)
GEN_LAG_LIMIT_MS = 100.0
_RATE_RE = re.compile(r"open loop at (\d+) beacons/s")


@dataclass(frozen=True)
class FleetSpec:
    fleet: Dict[str, float]  # synthetic_fleet keyword arguments
    round_s: float  # nominal round length on the reference host


@dataclass(frozen=True)
class CellSpec:
    density: float
    sim_time_s: float
    recorded: int  # candidate verifiers recorded by the simulator
    verifiers: int  # replayed: those closest to target_pairs
    target_pairs: int  # per detection
    pipeline_end_s: float  # beacon time at which the in-vehicle replay stops
    round_s: float


FULL = {
    "fleet-ingest": FleetSpec(
        dict(observers=100, legit=4, sybil=3, duration_s=30.0, beacon_hz=10.0),
        round_s=10.0,
    ),
    "paper-cell": CellSpec(
        density=20.0, sim_time_s=25.0, recorded=8, verifiers=3,
        target_pairs=300, pipeline_end_s=25.0,
        round_s=10.0,
    ),
}

#: Seconds-scale sizes for the self-check (same code paths).
TINY = {
    "fleet-ingest": FleetSpec(
        dict(observers=4, legit=2, sybil=2, duration_s=22.0, beacon_hz=10.0),
        round_s=1.0,
    ),
    "paper-cell": CellSpec(
        density=15.0, sim_time_s=25.0, recorded=3, verifiers=1,
        target_pairs=50, pipeline_end_s=25.0,
        round_s=1.0,
    ),
}

WORKLOADS = tuple(FULL)


def benchmark_spec(benchmark_json: Path = ROOT / "BENCHMARK.json") -> dict:
    try:
        return json.loads(benchmark_json.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {benchmark_json}: {exc}") from exc


def offered_rates() -> Dict[str, float]:
    """Open-loop offered rates, read from each workload's ``why``."""
    rates = {}
    for workload in benchmark_spec()["workloads"]:
        match = _RATE_RE.search(workload["why"])
        if match:
            rates[workload["name"]] = float(match.group(1))
    return rates


def rounds_for(spec, seconds: float) -> int:
    """Rounds per run: fixed by ``--seconds`` and the nominal round
    length, so every run pools the same number of samples."""
    return max(1, round(seconds / spec.round_s))
