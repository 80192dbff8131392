"""Closed- and open-loop drivers for :class:`repro.serve.DetectionService`.

Both drivers are one producer in the calling thread.  The closed loop
submits as fast as the service's lossless ``block`` backpressure lets
it and is timed from the first ``submit`` until ``flush()`` returns.
The open loop sends on a fixed schedule (beacon ``i`` is due at
``t0 + i / rate``), stamps how late the generator itself was, and a subscriber
thread stamps the receipt of every verdict; a verdict's latency runs
from the due time of the beacon that triggered it.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.pipeline import OnlineVoiceprint
from repro.serve import DetectionService, ServiceConfig
from repro.serve.stream import BeaconEvent

SHARDS = 2
#: Deep enough that the bench subscriber never drops a verdict.
SUBSCRIBER_DEPTH = 1 << 20
FLUSH_TIMEOUT_S = 120.0


@dataclass
class PassResult:
    """One service pass: wall and process CPU time, service stats and
    verdicts."""

    wall_s: float
    stats: Dict[str, object]
    verdicts: List[object]  # ReportEvent
    receipts: List[float] = field(default_factory=list)
    lags_s: List[float] = field(default_factory=list)
    t0: float = 0.0
    dropped: int = 0  # verdicts the bench subscription lost
    cpu_s: float = 0.0  # every thread of the process, closed loop only


def service_config() -> ServiceConfig:
    """The service defaults (paper line, 20 s period, incremental
    engine) with :data:`SHARDS` shards."""
    return ServiceConfig(shards=SHARDS)


def serial_replay(
    events: Sequence[BeaconEvent],
) -> Tuple[float, Dict[str, list]]:
    """One :class:`OnlineVoiceprint` per observer, serially, in this
    thread, configured exactly like a service shard's pipelines.

    Returns ``(wall_s, {observer: [DetectionReport, ...]})``.
    """
    config = service_config()
    pipelines: Dict[str, OnlineVoiceprint] = {}
    reports: Dict[str, list] = defaultdict(list)
    start = time.perf_counter()
    for event in events:
        pipeline = pipelines.get(event.observer)
        if pipeline is None:
            pipeline = pipelines[event.observer] = OnlineVoiceprint(
                max_range_m=config.max_range_m,
                detector_config=config.detector_config,
                config=config.pipeline_config,
            )
        report = pipeline.on_beacon(event.identity, event.t, event.rssi_dbm)
        if report is not None:
            reports[event.observer].append(report)
    return time.perf_counter() - start, reports


def _flush(service: DetectionService) -> None:
    if not service.flush(timeout=FLUSH_TIMEOUT_S):
        raise RuntimeError("service did not drain within the flush timeout")


def closed_loop(source: Iterable[BeaconEvent]) -> PassResult:
    """Flood the service; timed from the first submit to flush()."""
    service = DetectionService(service_config())
    subscription = service.subscribe("bench", depth=SUBSCRIBER_DEPTH)
    service.start()
    try:
        submit = service.submit
        cpu = time.process_time()
        start = time.perf_counter()
        for event in source:
            submit(event)
        _flush(service)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
    finally:
        service.stop()
    return PassResult(
        wall, service.stats(), subscription.drain(), dropped=subscription.dropped,
        cpu_s=cpu,
    )


class _Subscriber(threading.Thread):
    """Stamps the receipt time of every published verdict."""

    def __init__(self, subscription) -> None:
        super().__init__(name="bench-subscriber", daemon=True)
        self.subscription = subscription
        self.received: List[Tuple[float, object]] = []
        self.done = threading.Event()

    def run(self) -> None:
        get = self.subscription.get
        while not self.done.is_set():
            event = get(timeout=0.05)
            if event is not None:
                self.received.append((time.perf_counter(), event))
        # Verdicts published between the last timeout and shutdown.
        now = time.perf_counter()
        self.received.extend((now, event) for event in self.subscription.drain())


def open_loop(
    source: Iterable[BeaconEvent],
    rate_per_s: float,
) -> PassResult:
    """Send beacon ``i`` at ``t0 + i / rate``; never faster, and late
    sends are recorded, not skipped."""
    service = DetectionService(service_config())
    subscriber = _Subscriber(service.subscribe("bench", depth=SUBSCRIBER_DEPTH))
    service.start()
    subscriber.start()
    interval = 1.0 / rate_per_s
    lags: List[float] = []
    sleep = time.sleep
    clock = time.perf_counter
    try:
        submit = service.submit
        t0 = clock() + 0.01
        ready = t0  # when the previous submit returned
        for index, event in enumerate(source):
            due = t0 + index * interval
            now = clock()
            if now < due:
                sleep(due - now)
                now = clock()
            # The generator's own lateness: beyond both the due time and
            # the return of the previous submit, whose backpressure is
            # the service's doing (and is charged to verdict latency,
            # which runs from the due time).
            lags.append(now - max(due, ready))
            submit(event)
            ready = clock()
        _flush(service)
        wall = clock() - t0
    finally:
        service.stop()
        subscriber.done.set()
        subscriber.join(timeout=30.0)
    if subscriber.is_alive():
        raise RuntimeError("subscriber thread did not stop")
    receipts = [stamp for stamp, _ in subscriber.received]
    verdicts = [event for _, event in subscriber.received]
    return PassResult(
        wall, service.stats(), verdicts, receipts=receipts, lags_s=lags, t0=t0,
        dropped=subscriber.subscription.dropped,
    )


def verdict_latencies_ms(
    result: PassResult,
    events: Sequence[BeaconEvent],
    rate_per_s: float,
) -> List[float]:
    """Receipt minus due time of each verdict's triggering beacon.

    The trigger is the observer's first beacon at or after
    ``report.timestamp`` (the scheduled detection instant the pipeline
    fired on), located in the bench's own event list.
    """
    times: Dict[str, List[float]] = defaultdict(list)
    indices: Dict[str, List[int]] = defaultdict(list)
    for index, event in enumerate(events):
        times[event.observer].append(event.t)
        indices[event.observer].append(index)
    interval = 1.0 / rate_per_s
    latencies = []
    for receipt, verdict in zip(result.receipts, result.verdicts):
        observer_times = times[verdict.observer]
        pos = bisect_left(observer_times, verdict.report.timestamp)
        if pos == len(observer_times):
            raise RuntimeError(f"no trigger beacon for {verdict.observer}")
        due = result.t0 + indices[verdict.observer][pos] * interval
        latencies.append((receipt - due) * 1000.0)
    return latencies


def verdict_failures(
    result: PassResult, reference: Dict[str, list], beacons: int
) -> Tuple[int, int]:
    """``(attempted, failed)`` of one pass against the serial replay.

    Attempted counts every beacon and every reference verdict; failed
    counts shed and unprocessed beacons plus missing, extra and
    mismatched verdicts (per observer, in ``seq`` order, compared with
    ``==`` on the frozen report).
    """
    stats = result.stats
    failed = int(stats["shed"]) + (beacons - int(stats["processed"]))
    got: Dict[str, list] = defaultdict(list)
    for verdict in sorted(result.verdicts, key=lambda v: (v.observer, v.seq)):
        got[verdict.observer].append(verdict.report)
    expected_total = 0
    for observer in set(reference) | set(got):
        want = reference.get(observer, [])
        have = got.get(observer, [])
        expected_total += len(want)
        failed += abs(len(want) - len(have))
        failed += sum(1 for a, b in zip(want, have) if a != b)
    return beacons + expected_total, failed
