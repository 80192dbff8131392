"""Tests for repro.obs.telemetry — snapshot deltas, rate gauges, the
span→histogram bridge, the HTTP endpoint, and the end-to-end telemetry
stack around an online pipeline run."""

import http.client
import io
import json

import numpy as np
import pytest

from repro.core.detector import DetectorConfig
from repro.core.pipeline import OnlineVoiceprint, OnlineVoiceprintConfig
from repro.core.thresholds import ConstantThreshold
from repro.obs.flightrec import FlightRecorder, TeeSpanExporter
from repro.obs.health import HealthMonitor, HealthThresholds
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import CONTENT_TYPE
from repro.obs.telemetry import (
    Snapshotter,
    SpanLatencyRecorder,
    TelemetryServer,
)
from repro.obs.trace import Tracer


def http_get(port, path):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


class TestSpanLatencyRecorder:
    def test_finished_spans_land_in_phase_histograms(self):
        registry = MetricsRegistry()
        recorder = SpanLatencyRecorder(registry)
        recorder.export({"name": "pairwise_dtw", "duration_ms": 5.0})
        recorder.export({"name": "pairwise_dtw", "duration_ms": 7.0})
        recorder.export({"name": "normalise", "duration_ms": 1.0})
        pairwise = registry.histogram("phase.pairwise_dtw_ms")
        assert pairwise.count == 2
        assert pairwise.summary()["sum"] == pytest.approx(12.0)
        assert registry.histogram("phase.normalise_ms").count == 1

    def test_partial_records_ignored(self):
        registry = MetricsRegistry()
        recorder = SpanLatencyRecorder(registry)
        recorder.export({"name": "x"})  # no duration (partial flush)
        recorder.export({"duration_ms": 1.0})  # no name
        assert registry.to_dict()["histograms"] == {}

    def test_wired_as_tracer_exporter(self):
        registry = MetricsRegistry()
        tracer = Tracer(exporter=SpanLatencyRecorder(registry))
        with tracer.span("detection"):
            pass
        assert registry.histogram("phase.detection_ms").count == 1

    def test_reservoir_cap_applied(self):
        registry = MetricsRegistry()
        recorder = SpanLatencyRecorder(registry, max_samples=8)
        for i in range(50):
            recorder.export({"name": "p", "duration_ms": float(i)})
        histogram = registry.histogram("phase.p_ms")
        assert histogram.count == 50
        assert histogram.samples_kept == 8


class TestSnapshotterMath:
    def test_first_tick_has_no_dt_or_rates(self):
        registry = MetricsRegistry()
        registry.counter("sim.beacons").inc(10)
        snap = Snapshotter(registry)
        record = snap.tick(now=0.0)
        assert record["dt_s"] is None
        entry = record["counters"]["sim.beacons"]
        assert entry == {"value": 10.0, "delta": 10.0}

    def test_counter_delta_and_rate(self):
        registry = MetricsRegistry()
        counter = registry.counter("sim.beacons")
        counter.inc(10)
        snap = Snapshotter(registry)
        snap.tick(now=0.0)
        counter.inc(20)
        record = snap.tick(now=2.0)
        assert record["dt_s"] == pytest.approx(2.0)
        assert record["counters"]["sim.beacons"] == {
            "value": 30.0,
            "delta": 20.0,
            "rate": 10.0,
        }
        assert registry.gauge(
            "rate.sim.beacons_per_s"
        ).value == pytest.approx(10.0)

    def test_ratio_gauge_skipped_without_denominator_activity(self):
        registry = MetricsRegistry()
        registry.counter("pipeline.margin.near_miss")
        registry.counter("detector.pairs_compared")
        snap = Snapshotter(registry)
        snap.tick(now=0.0)
        snap.tick(now=1.0)
        assert registry.gauge("rate.margin_near_miss_rate").value is None

    def test_histogram_count_delta(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("detector.detect_ms")
        histogram.observe(1.0)
        snap = Snapshotter(registry)
        snap.tick(now=0.0)
        histogram.observe(2.0)
        histogram.observe(3.0)
        record = snap.tick(now=1.0)
        entry = record["histograms"]["detector.detect_ms"]
        assert entry["count"] == 3
        assert entry["count_delta"] == 2

    def test_jsonl_emission_to_stream(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        buffer = io.StringIO()
        snap = Snapshotter(registry, out=buffer)
        snap.tick(now=0.0)
        snap.tick(now=1.0)
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert all(r["type"] == "snapshot" for r in records)
        assert records[1]["counters"]["c"]["delta"] == 0.0

    def test_jsonl_emission_to_path(self, tmp_path):
        out = tmp_path / "snapshots.jsonl"
        registry = MetricsRegistry()
        registry.counter("c").inc()
        snap = Snapshotter(registry, out=str(out))
        snap.tick(now=0.0)
        snap.close()
        records = [
            json.loads(line)
            for line in out.read_text().strip().splitlines()
        ]
        # one manual tick + close()'s final tick
        assert len(records) == 2

    def test_tick_drives_health_watchdog(self):
        # The snapshotter's staleness tick is wall-based (the monitor's
        # clock-source contract): inject a fake wall clock and stall it.
        wall = [100.0]
        registry = MetricsRegistry()
        monitor = HealthMonitor(
            HealthThresholds(max_silence_s=5.0),
            registry=registry,
            wall_clock=lambda: wall[0],
        )
        monitor.beat(0.0)
        snap = Snapshotter(registry, health=monitor)
        wall[0] = 101.0
        snap.tick(now=1.0)
        assert monitor.healthy
        wall[0] = 160.0
        snap.tick(now=60.0)
        assert [a.kind for a in monitor.recent_alerts] == ["silence"]

    def test_background_thread_ticks(self):
        registry = MetricsRegistry()
        snap = Snapshotter(registry, interval_s=0.01)
        snap.start()
        import time

        deadline = time.monotonic() + 2.0
        while snap.ticks == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        snap.stop()
        assert snap.ticks >= 1

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            Snapshotter(MetricsRegistry(), interval_s=0.0)


class TestTelemetryServer:
    def test_metrics_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("detector.pairs_compared").inc(6)
        server = TelemetryServer(registry).start()
        try:
            status, headers, body = http_get(server.port, "/metrics")
        finally:
            server.stop()
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE
        assert b"repro_detector_pairs_compared_total 6.0" in body

    def test_health_endpoint_ok_then_503_after_alert(self):
        registry = MetricsRegistry()
        monitor = HealthMonitor(
            HealthThresholds(max_detect_ms=1.0), registry=registry
        )
        server = TelemetryServer(registry, health=monitor).start()
        try:
            status, _, body = http_get(server.port, "/health")
            assert status == 200
            assert json.loads(body)["status"] == "ok"

            from tests.test_obs_health import make_report

            monitor.on_report(make_report(), latency_ms=50.0)
            status, _, body = http_get(server.port, "/health")
            assert status == 503
            document = json.loads(body)
            assert document["status"] == "alert"
            assert document["alerts"][0]["kind"] == "detect_latency"
        finally:
            server.stop()

    def test_health_without_monitor_is_plain_ok(self):
        server = TelemetryServer(MetricsRegistry()).start()
        try:
            status, _, body = http_get(server.port, "/health")
        finally:
            server.stop()
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_unknown_path_is_404(self):
        server = TelemetryServer(MetricsRegistry()).start()
        try:
            status, _, _ = http_get(server.port, "/nope")
        finally:
            server.stop()
        assert status == 404

    def test_port_is_none_until_started(self):
        server = TelemetryServer(MetricsRegistry())
        assert server.port is None
        assert server.url is None
        server.start()
        try:
            assert server.url == f"http://127.0.0.1:{server.port}"
        finally:
            server.stop()


class TestOnlineTelemetryAcceptance:
    """ISSUE acceptance: a telemetry-enabled online run serves live
    Prometheus text (pairwise counters + per-phase latency series), the
    health monitor alerts on an injected stall, and the flight recorder
    dumps a parseable post-mortem for it."""

    def test_full_stack(self, tmp_path):
        postmortem = tmp_path / "postmortem.jsonl"
        registry = MetricsRegistry()
        tracer = Tracer()
        recorder = FlightRecorder(str(postmortem), tracer=tracer)
        tracer.exporter = TeeSpanExporter(
            SpanLatencyRecorder(registry), recorder
        )
        monitor = HealthMonitor(
            HealthThresholds(max_silence_s=5.0), registry=registry
        )
        monitor.attach_recorder(recorder)
        pipeline = OnlineVoiceprint(
            max_range_m=500.0,
            threshold=ConstantThreshold(0.05),
            detector_config=DetectorConfig(
                observation_time=5.0, min_samples=10
            ),
            config=OnlineVoiceprintConfig(
                detection_period_s=5.0, density_period_s=2.0
            ),
            registry=registry,
            tracer=tracer,
            health=monitor,
        )
        snapshotter = Snapshotter(registry, health=monitor)
        snapshotter.tick(now=0.0)

        rng = np.random.default_rng(7)
        t = 0.0
        while t < 12.0:
            for identity in ("a", "b", "c"):
                pipeline.on_beacon(identity, t, -70.0 + rng.normal(0, 2))
            t += 0.1
        assert len(pipeline.reports) >= 1
        assert monitor.healthy

        # Injected detector stall: the next beacon arrives after a
        # silence far beyond the 5 s threshold.
        pipeline.on_beacon("a", 60.0, -70.0)
        kinds = [a.kind for a in monitor.recent_alerts]
        assert "beacon_gap" in kinds
        assert recorder.dumps_written == 1

        # The post-mortem bundle is parseable JSONL and names the alert.
        lines = postmortem.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        header = records[0]
        assert header["type"] == "postmortem"
        assert header["reason"] == "alert:beacon_gap"
        kinds_in_dump = {r["type"] for r in records[1:]}
        assert "alert" in kinds_in_dump
        assert "report" in kinds_in_dump  # detection reports were buffered
        assert "span" in kinds_in_dump

        # Live Prometheus exposition includes the pairwise counters and
        # per-phase latency series.
        snapshotter.tick(now=12.0)
        server = TelemetryServer(registry, health=monitor).start()
        try:
            status, headers, body = http_get(server.port, "/metrics")
            health_status, _, health_body = http_get(
                server.port, "/health"
            )
        finally:
            server.stop()
        assert status == 200
        text = body.decode("utf-8")
        assert "repro_detector_pairs_compared_total" in text
        assert 'repro_phase_pairwise_dtw_ms{quantile="0.95"}' in text
        assert "repro_rate_detector_beacons_observed_per_s" in text
        assert health_status == 503
        assert json.loads(health_body)["alerts"]


class TestSnapshotterEdgeCases:
    def test_counter_reset_counts_new_value_as_delta(self):
        registry = MetricsRegistry()
        registry.counter("detector.beacons_observed").inc(10)
        snapshotter = Snapshotter(registry, interval_s=1.0)
        snapshotter.tick(now=0.0)
        # Mid-run reset (detector.reset() re-arming observability):
        # the counter restarts below its last-seen value.
        registry.reset()
        registry.counter("detector.beacons_observed").inc(3)
        record = snapshotter.tick(now=1.0)
        entry = record["counters"]["detector.beacons_observed"]
        assert entry["delta"] == 3.0
        assert entry["rate"] == pytest.approx(3.0)

    def test_histogram_reset_counts_new_totals_as_delta(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("detector.detect_ms")
        for value in (5.0, 7.0, 9.0):
            histogram.observe(value)
        snapshotter = Snapshotter(registry, interval_s=1.0)
        snapshotter.tick(now=0.0)
        registry.reset()
        registry.histogram("detector.detect_ms").observe(4.0)
        record = snapshotter.tick(now=1.0)
        summary = record["histograms"]["detector.detect_ms"]
        assert summary["count_delta"] == 1
        assert summary["sum_delta"] == pytest.approx(4.0)

    def test_zero_dt_tick_produces_no_rates(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        snapshotter = Snapshotter(registry, interval_s=1.0)
        snapshotter.tick(now=5.0)
        registry.counter("c").inc(5)
        record = snapshotter.tick(now=5.0)  # same instant: dt == 0
        assert record["dt_s"] == 0.0
        assert "rate" not in record["counters"]["c"]
        assert registry.gauge("rate.c_per_s").value is None

    def test_tsdb_and_drift_fed_every_tick(self):
        from repro.obs.drift import DriftMonitor
        from repro.obs.tsdb import TimeSeriesDB

        registry = MetricsRegistry()
        tsdb = TimeSeriesDB()
        drift = DriftMonitor(registry=registry, health=None)
        snapshotter = Snapshotter(
            registry, interval_s=1.0, tsdb=tsdb, drift=drift
        )
        registry.counter("detector.beacons_observed").inc(4)
        for tick in range(3):
            registry.counter("detector.beacons_observed").inc(4)
            snapshotter.tick(now=float(tick))
        assert drift.ticks == 3
        # Rates exist from the second tick on, and each one lands in
        # the store.
        assert tsdb.latest("rate.detector.beacons_observed") == 4.0
        assert len(tsdb.query("rate.detector.beacons_observed")) == 2

    def test_ratio_gauges_visible_in_same_tick_record(self):
        registry = MetricsRegistry()
        snapshotter = Snapshotter(registry, interval_s=1.0)
        snapshotter.tick(now=0.0)
        registry.counter("pipeline.margin.near_miss").inc(3)
        registry.counter("detector.pairs_compared").inc(4)
        record = snapshotter.tick(now=1.0)
        # The freshly computed ratio is folded into the record the
        # TSDB/drift observers see, not deferred to the next tick.
        assert record["gauges"]["rate.margin_near_miss_rate"] == 0.75


class TestTelemetryServerHardening:
    def test_series_404_without_store(self):
        server = TelemetryServer(MetricsRegistry()).start()
        try:
            status, _, body = http_get(server.port, "/series")
        finally:
            server.stop()
        assert status == 404
        assert b"--watch-record" in body

    def test_series_round_trip_through_payload(self):
        from repro.obs.tsdb import TimeSeriesDB

        tsdb = TimeSeriesDB()
        for tick in range(5):
            tsdb.record("m", float(tick), t=float(tick))
        server = TelemetryServer(MetricsRegistry(), tsdb=tsdb).start()
        try:
            status, headers, body = http_get(server.port, "/series")
        finally:
            server.stop()
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        rebuilt = TimeSeriesDB.from_payload(json.loads(body))
        assert rebuilt.latest("m") == 4.0
        assert rebuilt.samples == 5

    def test_responses_close_the_connection(self):
        server = TelemetryServer(MetricsRegistry()).start()
        try:
            _, headers, _ = http_get(server.port, "/metrics")
        finally:
            server.stop()
        assert headers["Connection"] == "close"

    def test_stalled_reader_is_dropped_and_server_stays_responsive(self):
        import socket as socket_module
        import time as time_module

        registry = MetricsRegistry()
        registry.counter("c").inc(1)
        server = TelemetryServer(registry, request_timeout_s=0.3).start()
        try:
            # A client that connects, sends half a request, and stalls.
            stalled = socket_module.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            )
            stalled.sendall(b"GET /metrics HTTP/1.1\r\n")  # no final CRLF
            deadline = time_module.monotonic() + 5.0
            try:
                # The handler times out reading and drops the
                # connection: the stalled client sees EOF.
                while True:
                    chunk = stalled.recv(1024)
                    if not chunk:
                        break
                    assert time_module.monotonic() < deadline
            finally:
                stalled.close()
            # And the server still answers fresh scrapes.
            status, _, body = http_get(server.port, "/metrics")
            assert status == 200
            assert b"repro_c_total 1.0" in body
        finally:
            server.stop()

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            TelemetryServer(MetricsRegistry(), request_timeout_s=0.0)
