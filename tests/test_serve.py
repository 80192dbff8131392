"""Tests for repro.serve — QoS primitives, stream sources, the service.

The acceptance property is the one the module exists for: the sharded,
threaded service must publish DetectionReports **byte-identical** to a
serial batch replay of the same per-observer beacon stream (the
paper's detector is per-verifier-independent, so sharding by observer
must be a pure parallelisation, never a behavioural change).
"""

import io
import json
import threading
import time
from collections import defaultdict

import pytest

from repro.core.detector import DetectorConfig
from repro.core.pipeline import OnlineVoiceprint
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    BeaconEvent,
    BoundedQueue,
    DetectionService,
    ReportBus,
    ServiceConfig,
    read_jsonl,
    synthetic_fleet,
)


# ----------------------------------------------------------------------
# QoS primitives
# ----------------------------------------------------------------------
class TestBoundedQueue:
    def test_fifo(self):
        queue = BoundedQueue(depth=4)
        for i in range(3):
            assert queue.put(i)
        assert [queue.get(), queue.get(), queue.get()] == [0, 1, 2]

    def test_shed_drops_incoming_when_full(self):
        queue = BoundedQueue(depth=2, policy="shed")
        assert queue.put("a") and queue.put("b")
        assert not queue.put("c")
        assert queue.get() == "a"  # the oldest survived; "c" was shed

    def test_block_times_out_when_full(self):
        queue = BoundedQueue(depth=1, policy="block")
        assert queue.put("a")
        start = time.monotonic()
        assert not queue.put("b", timeout=0.05)
        assert time.monotonic() - start >= 0.04

    def test_block_unblocks_on_consume(self):
        queue = BoundedQueue(depth=1, policy="block")
        queue.put("a")
        got = []

        def producer():
            got.append(queue.put("b", timeout=5.0))

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.05)
        assert queue.get() == "a"
        thread.join(timeout=5.0)
        assert got == [True]

    def test_close_refuses_puts_but_drains(self):
        queue = BoundedQueue(depth=4)
        queue.put("a")
        queue.close()
        assert not queue.put("b")
        assert queue.get() == "a"
        assert queue.get() is None  # closed and empty: no blocking

    def test_close_wakes_blocked_producer(self):
        queue = BoundedQueue(depth=1, policy="block")
        queue.put("a")
        results = []

        def producer():
            results.append(queue.put("b", timeout=10.0))

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert results == [False]

    def test_clear_discards(self):
        queue = BoundedQueue(depth=4)
        queue.put("a")
        queue.put("b")
        assert queue.clear() == 2
        assert len(queue) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundedQueue(depth=0)
        with pytest.raises(ValueError):
            BoundedQueue(depth=1, policy="teleport")


class TestReportBus:
    def test_fan_out_reaches_every_subscriber(self):
        bus = ReportBus(MetricsRegistry())
        a = bus.subscribe("a")
        b = bus.subscribe("b")
        bus.publish("r1")
        assert a.drain() == ["r1"]
        assert b.drain() == ["r1"]

    def test_drop_oldest_keeps_freshest(self):
        bus = ReportBus(MetricsRegistry())
        sub = bus.subscribe("slow", depth=2, policy="drop-oldest")
        for i in range(5):
            bus.publish(i)
        assert sub.drain() == [3, 4]
        assert sub.dropped == 3

    def test_drop_newest_keeps_history(self):
        bus = ReportBus(MetricsRegistry())
        sub = bus.subscribe("hist", depth=2, policy="drop-newest")
        for i in range(5):
            bus.publish(i)
        assert sub.drain() == [0, 1]
        assert sub.dropped == 3

    def test_slow_subscriber_does_not_starve_others(self):
        bus = ReportBus(MetricsRegistry())
        slow = bus.subscribe("slow", depth=1)
        fast = bus.subscribe("fast", depth=100)
        for i in range(50):
            bus.publish(i)
        assert len(fast.drain()) == 50
        assert slow.drain() == [49]

    def test_drop_counter_in_registry(self):
        registry = MetricsRegistry()
        registry.enable()
        bus = ReportBus(registry)
        bus.subscribe("slow", depth=1, policy="drop-oldest")
        for i in range(4):
            bus.publish(i)
        assert registry.counter("serve.sub.slow.dropped").value == 3
        assert registry.counter("serve.reports_published").value == 4

    def test_duplicate_names_deduplicated(self):
        bus = ReportBus(MetricsRegistry())
        first = bus.subscribe("cli")
        second = bus.subscribe("cli")
        assert first.name == "cli"
        assert second.name == "cli.2"

    def test_unsubscribe_stops_delivery(self):
        bus = ReportBus(MetricsRegistry())
        sub = bus.subscribe("gone")
        bus.unsubscribe(sub)
        bus.publish("r1")
        assert sub.drain() == []

    def test_get_times_out(self):
        bus = ReportBus(MetricsRegistry())
        sub = bus.subscribe("idle")
        assert sub.get(timeout=0.05) is None


class TestReportBusConcurrentQoS:
    """Per-subscriber QoS under concurrent publishers (the serve
    shards): drop policies must keep their ordering guarantees and the
    ``serve.sub.<name>.dropped`` counters must account for every lost
    report exactly."""

    N_THREADS = 4
    PER_THREAD = 250

    def _hammer(self, bus):
        barrier = threading.Barrier(self.N_THREADS)

        def publisher(worker):
            barrier.wait()
            for i in range(self.PER_THREAD):
                bus.publish((worker, i))

        threads = [
            threading.Thread(target=publisher, args=(worker,))
            for worker in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        return self.N_THREADS * self.PER_THREAD

    def test_depths_and_counters_account_for_every_publish(self):
        registry = MetricsRegistry()
        registry.enable()
        bus = ReportBus(registry)
        oldest = bus.subscribe("oldest", depth=8, policy="drop-oldest")
        newest = bus.subscribe("newest", depth=8, policy="drop-newest")
        deep = bus.subscribe("deep", depth=10_000)
        total = self._hammer(bus)

        assert len(deep.drain()) == total
        assert deep.dropped == 0
        for sub in (oldest, newest):
            kept = sub.drain()
            assert len(kept) == 8
            assert sub.dropped == total - 8
            assert (
                registry.counter(f"serve.sub.{sub.name}.dropped").value
                == total - 8
            )
        assert (
            registry.counter("serve.reports_published").value == total
        )

    def test_drop_oldest_keeps_a_suffix_per_publisher(self):
        bus = ReportBus(MetricsRegistry())
        sub = bus.subscribe("tail", depth=8, policy="drop-oldest")
        self._hammer(bus)
        kept = defaultdict(list)
        for worker, i in sub.drain():
            kept[worker].append(i)
        # Drop-oldest keeps the freshest reports; since each publisher
        # publishes in order, its surviving items are a contiguous
        # suffix of its sequence (in publish order).
        for worker, items in kept.items():
            expected = list(
                range(self.PER_THREAD - len(items), self.PER_THREAD)
            )
            assert items == expected, (worker, items)

    def test_drop_newest_keeps_a_prefix_per_publisher(self):
        bus = ReportBus(MetricsRegistry())
        sub = bus.subscribe("head", depth=8, policy="drop-newest")
        self._hammer(bus)
        kept = defaultdict(list)
        for worker, i in sub.drain():
            kept[worker].append(i)
        # Drop-newest preserves history: once the ring filled, later
        # publishes were refused, so each publisher's surviving items
        # are a contiguous prefix of its sequence.
        for worker, items in kept.items():
            assert items == list(range(len(items))), (worker, items)


# ----------------------------------------------------------------------
# Stream sources
# ----------------------------------------------------------------------
class TestSyntheticFleet:
    def test_deterministic(self):
        a = synthetic_fleet(observers=3, duration_s=5.0, seed=42)
        b = synthetic_fleet(observers=3, duration_s=5.0, seed=42)
        assert a == b

    def test_sorted_by_time(self):
        events = synthetic_fleet(observers=3, duration_s=5.0, seed=1)
        times = [e.t for e in events]
        assert times == sorted(times)

    def test_event_count(self):
        events = synthetic_fleet(
            observers=2, legit=3, sybil=2, duration_s=4.0, beacon_hz=10.0
        )
        assert len(events) == 2 * (3 + 2) * 40

    def test_sybil_zero_disables_attack(self):
        events = synthetic_fleet(observers=1, sybil=0, duration_s=2.0)
        assert not any("ghost" in e.identity for e in events)

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_fleet(observers=0)
        with pytest.raises(ValueError):
            synthetic_fleet(beacon_hz=0.0)


class TestReadJsonl:
    def test_roundtrip(self):
        lines = [
            json.dumps(
                {"observer": "v1", "identity": "a", "t": 0.1, "rssi": -70.5}
            ),
            "",
            json.dumps(
                {"observer": "v2", "identity": "b", "t": 0.2, "rssi": -80.0}
            ),
        ]
        events = list(read_jsonl(io.StringIO("\n".join(lines))))
        assert events == [
            BeaconEvent("v1", "a", 0.1, -70.5),
            BeaconEvent("v2", "b", 0.2, -80.0),
        ]

    def test_malformed_line_names_lineno(self):
        source = io.StringIO('{"observer": "v1"}\n')
        with pytest.raises(ValueError, match="line 1"):
            list(read_jsonl(source))

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            list(read_jsonl(io.StringIO("not json\n")))


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
def _replay_batch(events_by_observer, config):
    """Serial reference replay: one OnlineVoiceprint per observer."""
    reports = {}
    for observer, events in events_by_observer.items():
        pipeline = OnlineVoiceprint(
            max_range_m=config.max_range_m,
            detector_config=config.detector_config,
            config=config.pipeline_config,
        )
        out = []
        for event in events:
            report = pipeline.on_beacon(event.identity, event.t, event.rssi_dbm)
            if report is not None:
                out.append(report)
        reports[observer] = out
    return reports


class TestServiceConfig:
    def test_defaults_valid(self):
        config = ServiceConfig()
        # Table V defaults; the pairwise engine has no mode to select.
        assert config.detector_config == DetectorConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"queue_depth": 0},
            {"poll_interval_s": 0.0},
            {"ingest_policy": "teleport"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)


class TestServiceAcceptance:
    def test_verdicts_byte_identical_to_batch(self):
        """Concurrent sharded streams == serial batch replay, exactly."""
        events = synthetic_fleet(
            observers=8, legit=3, sybil=2, duration_s=45.0, seed=11
        )
        config = ServiceConfig(shards=4)
        service = DetectionService(config, registry=MetricsRegistry())
        sub = service.subscribe("test", depth=4096)
        with service:
            for event in events:
                assert service.submit(event)
            assert service.flush(timeout=120.0)
        served = defaultdict(list)
        for report_event in sub.drain():
            served[report_event.observer].append(report_event.report)

        per_observer = defaultdict(list)
        for event in events:
            per_observer[event.observer].append(event)
        batch = _replay_batch(per_observer, config)

        assert set(served) == set(batch)
        for observer in batch:
            assert served[observer] == batch[observer], observer

    def test_sybil_clusters_confirmed_per_observer(self):
        events = synthetic_fleet(
            observers=4, legit=3, sybil=3, duration_s=65.0, seed=3
        )
        service = DetectionService(
            ServiceConfig(shards=2), registry=MetricsRegistry()
        )
        with service:
            for event in events:
                service.submit(event)
            service.flush(timeout=120.0)
        confirmed = service.confirmed()
        for observer, identities in confirmed.items():
            ghosts = {i for i in identities if "ghost" in i}
            assert len(ghosts) >= 2, (observer, identities)
        # every observer's attacker should be caught
        assert len(confirmed) == 4

    def test_report_events_carry_latency_and_seq(self):
        events = synthetic_fleet(observers=2, duration_s=45.0, seed=5)
        service = DetectionService(
            ServiceConfig(shards=2), registry=MetricsRegistry()
        )
        sub = service.subscribe("meta", depth=1024)
        with service:
            for event in events:
                service.submit(event)
            service.flush(timeout=120.0)
        report_events = sub.drain()
        assert report_events
        by_observer = defaultdict(list)
        for report_event in report_events:
            assert report_event.latency_ms >= 0.0
            by_observer[report_event.observer].append(report_event.seq)
        for seqs in by_observer.values():
            assert seqs == list(range(1, len(seqs) + 1))

    def test_observer_routing_is_stable(self):
        assert DetectionService.shard_of("v0001", 4) == DetectionService.shard_of(
            "v0001", 4
        )
        spread = {DetectionService.shard_of(f"v{i:04d}", 4) for i in range(64)}
        assert spread == {0, 1, 2, 3}

    def test_stats_shape(self):
        service = DetectionService(registry=MetricsRegistry())
        with service:
            service.submit(BeaconEvent("v1", "a", 0.0, -70.0))
            service.flush()
        stats = service.stats()
        assert stats["ingested"] == 1
        assert stats["shed"] == 0
        assert stats["observers"] == 1
        assert stats["processed"] == 1


class TestBackpressure:
    def test_shed_policy_counts_overflow_without_deadlock(self):
        # Workers not started: queues fill to depth, the rest sheds.
        config = ServiceConfig(shards=1, queue_depth=8, ingest_policy="shed")
        service = DetectionService(config, registry=MetricsRegistry())
        accepted = sum(
            1
            for i in range(100)
            if service.submit(BeaconEvent("v1", "a", i * 0.1, -70.0))
        )
        assert accepted == 8
        stats = service.stats()
        assert stats["ingested"] == 8
        assert stats["shed"] == 92
        # Late start still drains what was accepted.
        service.start()
        assert service.flush(timeout=30.0)
        service.stop()
        assert service.stats()["processed"] == 8

    def test_shed_counter_lands_in_registry(self):
        registry = MetricsRegistry()
        registry.enable()
        config = ServiceConfig(shards=1, queue_depth=2, ingest_policy="shed")
        service = DetectionService(config, registry=registry)
        for i in range(10):
            service.submit(BeaconEvent("v1", "a", i * 0.1, -70.0))
        assert registry.counter("serve.beacons_shed").value == 8
        assert registry.counter("serve.beacons_ingested").value == 2
        service.start()
        service.stop()

    def test_block_policy_applies_backpressure_then_recovers(self):
        config = ServiceConfig(shards=1, queue_depth=4, ingest_policy="block")
        service = DetectionService(config, registry=MetricsRegistry())
        # Fill the queue before workers exist.
        for i in range(4):
            assert service.submit(BeaconEvent("v1", "a", i * 0.1, -70.0))
        done = threading.Event()

        def producer():
            # This put must block until the service starts consuming.
            service.submit(BeaconEvent("v1", "a", 0.5, -70.0))
            done.set()

        thread = threading.Thread(target=producer)
        thread.start()
        assert not done.wait(timeout=0.1), "submit should have blocked"
        service.start()
        assert done.wait(timeout=10.0), "submit never unblocked"
        thread.join(timeout=5.0)
        assert service.flush(timeout=30.0)
        service.stop()
        assert service.stats()["ingested"] == 5

    def test_stop_rejects_further_submits(self):
        service = DetectionService(
            ServiceConfig(shards=1), registry=MetricsRegistry()
        )
        service.start()
        service.stop()
        assert not service.submit(BeaconEvent("v1", "a", 0.0, -70.0))


class TestOwnershipIntegration:
    def test_shard_detectors_are_guarded(self):
        """Shard pipelines bind to their worker thread; foreign
        mutation (here: from the test thread) must raise, not corrupt."""
        service = DetectionService(
            ServiceConfig(shards=1), registry=MetricsRegistry()
        )
        with service:
            service.submit(BeaconEvent("v1", "a", 0.0, -70.0))
            service.flush()
            [shard] = service._shards
            detector = shard.pipelines["v1"].detector
            with pytest.raises(RuntimeError, match="single-writer"):
                detector.observe("a", 1.0, -70.0)

    def test_audit_identity_stamped_per_observer(self):
        service = DetectionService(
            ServiceConfig(shards=2), registry=MetricsRegistry()
        )
        with service:
            service.submit(BeaconEvent("v1", "a", 0.0, -70.0))
            service.submit(BeaconEvent("v2", "a", 0.0, -70.0))
            service.flush()
            detectors = {
                observer: pipeline.detector.audit_identity
                for shard in service._shards
                for observer, pipeline in shard.pipelines.items()
            }
        assert detectors == {"v1": "v1", "v2": "v2"}
