"""The workloads: inputs, timed rounds, oracles and metrics.

A run is set-up probes, then ``rounds`` identical rounds of timed
phases; every end-to-end metric is the median over rounds (latencies
are pooled over rounds).  ``run.py`` fixes the number of rounds from
``--seconds`` (see :func:`specs.rounds_for`).
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

import loadgen
from common import BUILD, ROOT, BenchError, median, tail
from specs import GEN_LAG_LIMIT_MS, SETUP_PROBES, TRAINED_LINE, CellSpec, FleetSpec

from repro.core.detector import DetectorConfig, VoiceprintDetector
from repro.core.pipeline import OnlineVoiceprint, OnlineVoiceprintConfig
from repro.core.thresholds import LinearThreshold
from repro.eval import runner
from repro.eval.metrics import average_rates
from repro.serve import stream
from repro.serve.stream import BeaconEvent
from repro.sim.scenario import ScenarioConfig
from repro.sim.simulator import HighwaySimulator

OBSERVATION_S = 20.0


def setup_times(workload: str, tiny: bool) -> List[float]:
    """Set-up seconds of fresh interpreters (see ``setup_probe.py``)."""
    probe = Path(__file__).with_name("setup_probe.py")
    args = [sys.executable, str(probe), workload] + (["--tiny"] if tiny else [])
    times = []
    for _ in range(SETUP_PROBES if not tiny else 1):
        done = subprocess.run(
            args, capture_output=True, text=True, timeout=120, cwd=ROOT
        )
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def quiesce() -> None:
    """Collect garbage between timed phases, so each phase starts from
    the same heap, then freeze what survived: the bench's own inputs
    and references, which ``repro serve --input`` streams instead of
    holding, stay out of the program's collections.  Automatic
    collection stays on inside the phases and sees every object the
    program allocates, as it does when the program runs in use."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


@contextmanager
def phase(ledger, name: str) -> Iterator[None]:
    if ledger is not None:
        ledger.phase = name
    yield


# ----------------------------------------------------------------------
# serve fleet
# ----------------------------------------------------------------------
@dataclass
class FleetRound:
    beacons: int
    gen_s: float
    replay_s: List[float]  # one per serial replay, spread over the round
    closed_s: float
    closed_cpu_s: float
    open_s: float
    latencies_ms: List[float]
    lags_ms: List[float]
    attempted: int
    failed: int
    dropped: int
    reference: Dict[str, list] = field(repr=False, default_factory=dict)

    @property
    def timed_s(self) -> float:
        return self.gen_s + sum(self.replay_s) + self.closed_s + self.open_s


def _jsonl_source(path: Path, ledger) -> Iterator[BeaconEvent]:
    with open(path, encoding="utf-8") as handle:
        events = stream.read_jsonl(handle)
        if ledger is not None:
            events = ledger.wrap_source("parse", events)
        yield from events


def input_path(name: str, seed: int) -> Path:
    """Where a parsing workload's JSONL input lives during a run."""
    return BUILD / f"{name}-seed{seed}.jsonl"


def write_jsonl(events: Sequence[BeaconEvent], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for e in events:
            handle.write(
                json.dumps(
                    {"observer": e.observer, "identity": e.identity,
                     "t": e.t, "rssi": e.rssi_dbm}
                )
                + "\n"
            )


def fleet_round(
    name: str, spec: FleetSpec, seed: int, rate: float, ledger=None,
    write_input: bool = True, open_pass: bool = True,
) -> FleetRound:
    """One round: generation, closed loop and (with ``open_pass``) open
    loop, with the serial replay before, between and after the service
    passes so its samples span the round like the others.
    ``write_input=False`` reuses the JSONL input an earlier round of
    the same run wrote."""
    with phase(ledger, "gen"):
        quiesce()
        start = time.perf_counter()
        events = stream.synthetic_fleet(seed=seed, **spec.fleet)
        gen_s = time.perf_counter() - start
    path = input_path(name, seed)
    if write_input:
        write_jsonl(events, path)
    replays = []

    def replay() -> Dict[str, list]:
        with phase(ledger, "replay"):
            quiesce()
            replay_s, reference = loadgen.serial_replay(events)
            replays.append(replay_s)
        return reference

    reference = replay()
    with phase(ledger, "closed"):
        quiesce()
        passes = [loadgen.closed_loop(_jsonl_source(path, ledger))]
    replay()
    if open_pass:
        with phase(ledger, "open"):
            quiesce()
            passes.append(loadgen.open_loop(_jsonl_source(path, ledger), rate))
        replay()
    if ledger is not None:
        ledger.phase = "teardown"
    attempted, failed = 0, 0
    for result in passes:
        a, f = loadgen.verdict_failures(result, reference, len(events))
        attempted += a
        failed += f
    opened = passes[1] if open_pass else None
    return FleetRound(
        beacons=len(events),
        gen_s=gen_s,
        replay_s=replays,
        closed_s=passes[0].wall_s,
        closed_cpu_s=passes[0].cpu_s,
        open_s=opened.wall_s if opened else 0.0,
        latencies_ms=(
            loadgen.verdict_latencies_ms(opened, events, rate) if opened else []
        ),
        lags_ms=[lag * 1000.0 for lag in opened.lags_s] if opened else [],
        attempted=attempted,
        failed=failed,
        dropped=sum(result.dropped for result in passes),
        reference=reference,
    )


def fleet_quality(reference: Dict[str, list]) -> Tuple[float, float]:
    """Mean per-verdict detection and false-positive rates (Eqs. 12-13
    over the serial replay's reports; ``ghost`` identities are Sybil)."""
    drs, fprs = [], []
    for reports in reference.values():
        for report in reports:
            compared = set(report.compared_ids)
            ghosts = {i for i in compared if ".ghost" in i}
            legit = compared - ghosts
            if ghosts:
                drs.append(len(report.sybil_ids & ghosts) / len(ghosts))
            if legit:
                fprs.append(len(report.sybil_ids & legit) / len(legit))
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
    return mean(drs), mean(fprs)


def fleet_metrics(rounds: List[FleetRound], setup: List[float]) -> Dict[str, Tuple[float, str]]:
    """Throughputs are total work over total time across the run's
    samples: the host's speed moves between states over seconds, and a
    mean over the run follows the mix of states smoothly where a median
    of a few samples jumps between them."""
    replays = [s for r in rounds for s in r.replay_s]
    beacons = rounds[0].beacons
    return {
        "setup_s": (median(setup), "s"),
        "beacons_per_cpu_s": (
            beacons * len(rounds) / sum(r.closed_cpu_s for r in rounds), "1/s"
        ),
        "replay_beacons_per_s": (beacons * len(replays) / sum(replays), "1/s"),
        "cell_s": (
            sum(r.gen_s for r in rounds) / len(rounds) + sum(replays) / len(replays),
            "s",
        ),
    }


def check_lag(rounds: List[FleetRound]) -> Tuple[float, float, float]:
    """``(p50, tail, tail percentile)`` of generator lag; raises when the
    tail exceeds :data:`GEN_LAG_LIMIT_MS` (the run is invalid)."""
    lags = [v for r in rounds for v in r.lags_ms]
    lag_tail, q, _ = tail(lags)
    if lag_tail > GEN_LAG_LIMIT_MS:
        raise BenchError(
            f"open-loop generator lag p{q:g} = {lag_tail:.1f} ms exceeds "
            f"{GEN_LAG_LIMIT_MS} ms: offered load not delivered, run invalid"
        )
    return median(lags), lag_tail, q


# ----------------------------------------------------------------------
# paper cell
# ----------------------------------------------------------------------
#: The in-vehicle replay detects every second, so consecutive windows
#: overlap by 19 s and the incremental engine's sliding envelopes,
#: bounds and early-abandon kernel do the work.
IN_VEHICLE_PERIOD_S = 1.0


def scenario_seed(seed: int, round_index: int) -> int:
    """Round ``r`` of a run with ``--seed s`` simulates scenario
    ``1000 * s + r``: every round is a different cell, so a run's
    figures average over scenarios instead of hanging on one."""
    return 1000 * seed + round_index


@dataclass
class CellRound:
    verifiers: List[str]
    beacons: int  # replayed by the exact path (whole recordings)
    sim_s: float
    replay_s: float
    replay_cpu_s: float
    pipeline_beacons: int
    pipeline_s: float
    verdict_ms: List[float]  # on_beacon calls that returned a report
    flags: List[Tuple[str, int, frozenset]]
    pipeline_flags: List[Tuple[str, float, float, frozenset]]  # density too
    outcomes: list
    sim_transmitted: int
    sim_loss: float

    @property
    def timed_s(self) -> float:
        return self.sim_s + self.replay_s + self.pipeline_s


@contextmanager
def captured_detections() -> Iterator[List[object]]:
    """Record the report of every ``VoiceprintDetector.detect``."""
    original = VoiceprintDetector.__dict__["detect"]
    captured: List[object] = []

    def detect(self, *args, **kwargs):
        report = original(self, *args, **kwargs)
        captured.append(report)
        return report

    VoiceprintDetector.detect = detect
    try:
        yield captured
    finally:
        VoiceprintDetector.detect = original


def _flag_sets(outcomes, captured) -> List[Tuple[str, int, frozenset]]:
    if len(outcomes) != len(captured):
        raise BenchError("detections and outcomes disagree in number")
    return [
        (o.node, o.period_index, frozenset(report.sybil_ids))
        for o, report in zip(outcomes, captured)
    ]


def _verifier_events(result, verifiers, end_s: float) -> Dict[str, List[Tuple[float, str, float]]]:
    """Each verifier's beacons up to ``end_s``, in arrival order."""
    per_verifier = {}
    for verifier in verifiers:
        rows = [
            (t, identity, rssi)
            for identity, series in result.observations[verifier].items()
            for t, rssi in zip(series.timestamps.tolist(), series.values.tolist())
            if t <= end_s
        ]
        rows.sort()
        per_verifier[verifier] = rows
    return per_verifier


def _in_vehicle(
    rows: Dict[str, List[Tuple[float, str, float]]], max_range_m: float,
) -> Tuple[float, List[float], List[Tuple[str, float, float, frozenset]]]:
    """One :class:`OnlineVoiceprint` per verifier (the service's default
    engine, the trained line), fed its beacons in order.  Returns
    ``(wall_s, verdict call ms, per-report (verifier, timestamp,
    density, flag set))``."""
    threshold = LinearThreshold(*TRAINED_LINE)
    detector_config = loadgen.service_config().detector_config
    config = OnlineVoiceprintConfig(detection_period_s=IN_VEHICLE_PERIOD_S)
    clock = time.perf_counter
    verdict_ms: List[float] = []
    flags: List[Tuple[str, float, float, frozenset]] = []
    start = clock()
    for verifier, beacons in rows.items():
        pipeline = OnlineVoiceprint(
            max_range_m=max_range_m, threshold=threshold,
            detector_config=detector_config, config=config,
        )
        on_beacon = pipeline.on_beacon
        for t, identity, rssi in beacons:
            called = clock()
            report = on_beacon(identity, t, rssi)
            if report is not None:
                verdict_ms.append((clock() - called) * 1000.0)
                flags.append((
                    verifier, report.timestamp, report.density,
                    frozenset(report.sybil_ids),
                ))
    return clock() - start, verdict_ms, flags


def pick_verifiers(result, spec: CellSpec) -> List[str]:
    """The ``spec.verifiers`` recorded nodes whose exact-path detections
    each compare closest to ``spec.target_pairs`` identity pairs (ties
    to recorded order), so every cell does about the same work and its
    detections cost about the same.

    A detection compares every pair of identities with at least
    ``min_samples`` samples in its window; the counts are read from the
    recorded series, outside any timed region.
    """
    min_samples = DetectorConfig(observation_time=OBSERVATION_S).min_samples
    times = runner.detection_times(
        spec.sim_time_s, OBSERVATION_S, result.config.detection_period_s
    )

    def distance(verifier: str) -> int:
        stamps = [s.timestamps.tolist() for s in result.observations[verifier].values()]
        worst = 0
        for t in times:
            n = sum(
                1
                for ts in stamps
                if bisect_right(ts, t) - bisect_left(ts, t - OBSERVATION_S) >= min_samples
            )
            worst = max(worst, abs(n * (n - 1) // 2 - spec.target_pairs))
        return worst

    return sorted(result.recorded_nodes, key=distance)[: spec.verifiers]


def cell_round(spec: CellSpec, seed: int, ledger=None) -> Tuple[CellRound, object]:
    """Simulate one cell, replay it through the exact engine, then
    through the in-vehicle pipeline.  Returns the round and the
    simulation result (for :func:`cell_failures`)."""
    threshold = LinearThreshold(*TRAINED_LINE)
    config = ScenarioConfig(
        density_vhls_per_km=spec.density, sim_time_s=spec.sim_time_s, seed=seed
    )
    with phase(ledger, "cell"):
        quiesce()
        start = time.perf_counter()
        result = HighwaySimulator(config, recorded_nodes=spec.recorded).run()
        sim_s = time.perf_counter() - start
        verifiers = pick_verifiers(result, spec)
        quiesce()
        with captured_detections() as captured:
            cpu = time.process_time()
            start = time.perf_counter()
            outcomes = runner.run_voiceprint(
                result, threshold, DetectorConfig(observation_time=OBSERVATION_S),
                verifiers=verifiers, workers=1,
            )
            replay_s = time.perf_counter() - start
            replay_cpu_s = time.process_time() - cpu
    rows = _verifier_events(result, verifiers, spec.pipeline_end_s)
    with phase(ledger, "pipeline"):
        quiesce()
        pipeline_s, verdict_ms, pipeline_flags = _in_vehicle(rows, result.max_range_m)
    if ledger is not None:
        ledger.phase = "teardown"
    cell = CellRound(
        verifiers=verifiers,
        beacons=sum(len(s) for v in verifiers for s in result.observations[v].values()),
        sim_s=sim_s,
        replay_s=replay_s,
        replay_cpu_s=replay_cpu_s,
        pipeline_beacons=sum(len(b) for b in rows.values()),
        pipeline_s=pipeline_s,
        verdict_ms=verdict_ms,
        flags=_flag_sets(outcomes, captured),
        pipeline_flags=pipeline_flags,
        outcomes=outcomes,
        sim_transmitted=result.transmitted,
        sim_loss=result.loss_rate,
    )
    return cell, result


def cell_failures(cell: CellRound, result, spec: CellSpec) -> Tuple[int, int]:
    """``(attempted, failed)`` of one round against untimed references.

    * Exact path: every per-(verifier, period) flag set must equal the
      incremental engine's on the same disjoint windows.
    * In-vehicle pipeline: each verifier's last report (the one built on
      the most incremental state) must flag what a fresh exact-path
      detector flags on the same beacons, instant and density.

    Both are byte-identical by the engine's contract.
    """
    threshold = LinearThreshold(*TRAINED_LINE)
    with captured_detections() as captured:
        outcomes = runner.run_voiceprint(
            result,
            threshold,
            DetectorConfig(
                observation_time=OBSERVATION_S,
                pairwise_engine=True,
                pairwise_incremental=True,
            ),
            verifiers=cell.verifiers,
            workers=1,
        )
    checks = list(zip(cell.flags, _flag_sets(outcomes, captured)))
    failed = abs(len(cell.flags) - len(outcomes))
    rows = _verifier_events(result, cell.verifiers, spec.pipeline_end_s)
    for verifier in cell.verifiers:
        mine = [f for f in cell.pipeline_flags if f[0] == verifier]
        if not mine:
            failed += 1
            continue
        _, now, density, _ = mine[-1]
        detector = VoiceprintDetector(
            threshold=threshold, config=DetectorConfig(observation_time=OBSERVATION_S)
        )
        for t, identity, rssi in rows[verifier]:
            if t <= now:
                detector.observe(identity, t, rssi)
        want = detector.detect(density=density, now=now)
        checks.append((mine[-1], (verifier, now, density, frozenset(want.sybil_ids))))
    failed += sum(1 for got, want in checks if got != want)
    return len(checks), failed


def cell_quality(rounds: List[CellRound]) -> Tuple[float, float]:
    dr, fpr = average_rates([o for r in rounds for o in r.outcomes])
    return dr or 0.0, fpr or 0.0


def cell_metrics(rounds: List[CellRound], setup: List[float]) -> Dict[str, Tuple[float, str]]:
    """Rounds are different scenarios, so throughputs are total work
    over total time and ``cell_s`` is the mean cell."""
    total = lambda attr: sum(getattr(r, attr) for r in rounds)  # noqa: E731
    return {
        "setup_s": (median(setup), "s"),
        "beacons_per_cpu_s": (total("beacons") / total("replay_cpu_s"), "1/s"),
        "replay_beacons_per_s": (
            total("pipeline_beacons") / total("pipeline_s"), "1/s"
        ),
        "cell_s": ((total("sim_s") + total("replay_s")) / len(rounds), "s"),
    }
