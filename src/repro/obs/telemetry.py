"""Runtime telemetry: periodic snapshots and a live ``/metrics`` endpoint.

PR 1's observability layer dumps metrics *after* a run; an online
detector needs its health visible *during* one.  This module adds the
two runtime consumers, both stdlib-only and fully opt-in:

* :class:`Snapshotter` — periodically diffs the
  :class:`~repro.obs.metrics.MetricsRegistry` against its previous
  snapshot and turns the deltas into **rates** (beacons/s,
  detections/s, events/s, a windowed near-miss verdict rate) plus the
  current histogram quantiles.  Each tick appends one JSONL record and
  publishes the rates back into the registry as ``rate.*`` gauges, so
  the Prometheus exposition (and hence a Grafana panel) sees them with
  zero extra plumbing.
* :class:`TelemetryServer` — a background
  :class:`~http.server.ThreadingHTTPServer` serving ``GET /metrics``
  (Prometheus text format, see :mod:`repro.obs.prometheus`),
  ``GET /health`` (the :class:`~repro.obs.health.HealthMonitor` status
  document as JSON; 503 once an alert has fired — ready to back a
  vehicle-stack liveness probe) and ``GET /series`` (the attached
  :class:`~repro.obs.tsdb.TimeSeriesDB` as JSON — what a live
  ``repro watch`` polls).
* :class:`SpanLatencyRecorder` — a :class:`SpanExporter` that records
  every finished span's duration into a ``phase.<name>_ms`` histogram,
  turning the tracer's per-phase spans (``normalise``,
  ``pairwise_dtw``, ``minmax``, ``threshold``, ``confirmation``) into
  scrapeable p50/p95/p99 latency series.

The serve layer's lineage stage histograms (``serve.stage.*_ms``, see
:mod:`repro.obs.lineage`) need no extra plumbing here: they live in the
same registry, so each Snapshotter tick derives their
``.tick_mean``/``.p50``/``.p99`` series and ``/series`` (hence
``repro watch``) picks them up automatically.

Nothing here runs unless explicitly constructed and started; the
disabled path costs the library nothing.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import IO, Any, Dict, Optional, Union

from .drift import DriftMonitor
from .health import HealthMonitor
from .metrics import MetricsRegistry, default_registry
from .prometheus import CONTENT_TYPE, render_prometheus, sanitize_metric_name
from .trace import SpanExporter
from .tsdb import TimeSeriesDB

__all__ = ["Snapshotter", "SpanLatencyRecorder", "TelemetryServer"]


class SpanLatencyRecorder(SpanExporter):
    """Folds finished spans into per-phase latency histograms.

    Args:
        registry: Histograms are created as ``phase.<span name>_ms``
            in this registry (default: the process-global one).
        max_samples: Reservoir cap for the created histograms — a
            long online run finishes millions of spans, so the cap
            defaults on here (see :class:`~repro.obs.metrics.Histogram`).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        max_samples: Optional[int] = 4096,
    ) -> None:
        self._registry = (
            registry if registry is not None else default_registry()
        )
        self._max_samples = max_samples
        self._histograms: Dict[str, Any] = {}

    def export(self, record: Dict[str, Any]) -> None:
        name = record.get("name")
        duration = record.get("duration_ms")
        if name is None or duration is None:
            return
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._registry.histogram(
                f"phase.{sanitize_metric_name(str(name))}_ms",
                max_samples=self._max_samples,
            )
            self._histograms[name] = histogram
        histogram.observe(duration)


#: Counter-delta pairs the snapshotter derives ratio gauges from:
#: gauge name -> (numerator counter, denominator counter).
_RATIO_GAUGES = {
    # Fraction of this tick's verdicts that landed within the near-miss
    # margin ε of the threshold (see repro.obs.audit) — the windowed
    # fragility signal, scrapeable at /metrics like any rate.* gauge.
    "rate.margin_near_miss_rate": (
        "pipeline.margin.near_miss",
        "detector.pairs_compared",
    ),
}


class Snapshotter:
    """Periodic registry snapshots: deltas, rates, and JSONL emission.

    Args:
        registry: Registry to snapshot (default: process-global).
        interval_s: Tick period for the background thread; manual
            :meth:`tick` calls may use any cadence.
        out: JSONL destination — a path (opened lazily, closed by
            :meth:`close`) or an open text stream (left open).
        health: Optional monitor whose wall-clock staleness watchdog
            is driven once per tick (:meth:`HealthMonitor.watchdog`).
        tsdb: Optional :class:`~repro.obs.tsdb.TimeSeriesDB`; every
            tick record is folded in (counter rates, gauges, histogram
            tick means and quantiles) so the run keeps a bounded
            multi-resolution trajectory.
        drift: Optional :class:`~repro.obs.drift.DriftMonitor`; every
            tick record feeds its CUSUM/Page–Hinkley detectors and SLO
            burn-rate windows.
        clock: Monotonic time source (injectable for tests).
        wall_clock: Wall time stamped into records (injectable).

    Each tick writes one record::

        {"type": "snapshot", "ts": ..., "t": ..., "dt_s": ...,
         "counters": {name: {"value": v, "delta": d, "rate": d/dt}},
         "gauges": {name: value},
         "histograms": {name: {count, sum, ...,
                               "count_delta": d, "sum_delta": s}}}

    and mirrors every counter rate into the registry as a
    ``rate.<name>_per_s`` gauge (plus the ratio gauges above), which is
    what makes rates scrapeable at ``/metrics``.  A counter that moved
    *backwards* between ticks (the registry was reset mid-run, e.g. by
    ``detector.reset()`` test harnesses re-arming observability) is
    treated like a process restart in Prometheus: the new value counts
    as the whole delta instead of producing a negative rate.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        interval_s: float = 10.0,
        out: Optional[Union[str, IO[str]]] = None,
        health: Optional[HealthMonitor] = None,
        tsdb: Optional[TimeSeriesDB] = None,
        drift: Optional[DriftMonitor] = None,
        clock=time.monotonic,
        wall_clock=time.time,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval must be positive, got {interval_s}")
        self._registry = (
            registry if registry is not None else default_registry()
        )
        self.interval_s = float(interval_s)
        self._health = health
        self.tsdb = tsdb
        self.drift = drift
        self._clock = clock
        self._wall_clock = wall_clock
        self._lock = threading.Lock()
        self._last_counters: Dict[str, float] = {}
        self._last_hist_counts: Dict[str, int] = {}
        self._last_hist_sums: Dict[str, float] = {}
        self._last_t: Optional[float] = None
        self.ticks = 0
        self._out_path: Optional[str] = None
        self._handle: Optional[IO[str]] = None
        self._owns_handle = False
        if isinstance(out, str):
            self._out_path = out
        elif out is not None:
            self._handle = out
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- snapshot math -------------------------------------------------
    def tick(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Take one snapshot; returns (and emits) the delta record."""
        t = self._clock() if now is None else now
        snapshot = self._registry.to_dict()
        with self._lock:
            dt = None if self._last_t is None else t - self._last_t
            counters: Dict[str, Dict[str, float]] = {}
            deltas: Dict[str, float] = {}
            for name, value in snapshot["counters"].items():
                delta = value - self._last_counters.get(name, 0.0)
                if delta < 0:
                    # Counter reset (registry.reset() mid-run): treat
                    # the new value as the delta, Prometheus-style,
                    # instead of reporting a negative rate.
                    delta = value
                deltas[name] = delta
                rate = (delta / dt) if dt else None
                counters[name] = {"value": value, "delta": delta}
                if rate is not None:
                    counters[name]["rate"] = rate
                self._last_counters[name] = value
            histograms: Dict[str, Dict[str, Any]] = {}
            for name, summary in snapshot["histograms"].items():
                count_delta = summary["count"] - self._last_hist_counts.get(
                    name, 0
                )
                sum_delta = (summary["sum"] or 0.0) - self._last_hist_sums.get(
                    name, 0.0
                )
                if count_delta < 0:  # histogram reset, as for counters
                    count_delta = summary["count"]
                    sum_delta = summary["sum"] or 0.0
                self._last_hist_counts[name] = summary["count"]
                self._last_hist_sums[name] = summary["sum"] or 0.0
                histograms[name] = dict(
                    summary, count_delta=count_delta, sum_delta=sum_delta
                )
            self._last_t = t
            self.ticks += 1
        record: Dict[str, Any] = {
            "type": "snapshot",
            "ts": self._wall_clock(),
            "t": t,
            "dt_s": dt,
            "counters": counters,
            "gauges": dict(snapshot["gauges"]),
            "histograms": histograms,
        }
        # Publish rates first so this tick's ratio gauges are part of
        # the record the TSDB and drift monitor see (the registry
        # snapshot above predates them).
        self._publish_rates(counters, deltas, dt, record["gauges"])
        if self._health is not None:
            # Wall-based staleness tick: the snapshotter has no event
            # clock, so asking "did the feed stall" with its monotonic
            # t against event-time beats would confuse timebases (the
            # monitor's clock-source contract; see HealthMonitor).
            self._health.watchdog()
        if self.tsdb is not None:
            self.tsdb.observe_snapshot(record, t)
        if self.drift is not None:
            self.drift.observe(record, t)
        self._emit(record)
        return record

    def _publish_rates(
        self,
        counters: Dict[str, Dict[str, float]],
        deltas: Dict[str, float],
        dt: Optional[float],
        gauges_out: Dict[str, Any],
    ) -> None:
        if not dt:
            return
        for name, entry in counters.items():
            rate = entry.get("rate")
            if rate is not None:
                self._registry.gauge(f"rate.{name}_per_s").set(rate)
        for gauge_name, (num, den) in _RATIO_GAUGES.items():
            denominator = deltas.get(den, 0.0)
            if denominator > 0:
                ratio = deltas.get(num, 0.0) / denominator
                self._registry.gauge(gauge_name).set(ratio)
                gauges_out[gauge_name] = ratio

    def _emit(self, record: Dict[str, Any]) -> None:
        handle = self._handle
        if handle is None and self._out_path is not None:
            handle = self._handle = open(
                self._out_path, "w", encoding="utf-8"
            )
            self._owns_handle = True
        if handle is not None:
            handle.write(json.dumps(record) + "\n")
            handle.flush()

    # -- background thread ---------------------------------------------
    def start(self) -> "Snapshotter":
        """Begin ticking every ``interval_s`` on a daemon thread."""
        if self._thread is not None:
            return self
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(self.interval_s):
                self.tick()

        self._thread = threading.Thread(
            target=loop, name="repro-snapshotter", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, final_tick: bool = True) -> None:
        """Stop the thread; by default take one last snapshot."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        if final_tick:
            self.tick()

    def close(self) -> None:
        """Stop and release the output file (if this object opened it).

        Always takes a last snapshot: a run shorter than the interval
        still deserves its end-of-run record.
        """
        self.stop(final_tick=True)
        if self._handle is not None and self._owns_handle:
            self._handle.close()
            self._handle = None


class _TelemetryHandler(BaseHTTPRequestHandler):
    """Serves ``/metrics``, ``/health`` and ``/series``; else 404.

    Hardened for long-lived watch clients: every connection gets an
    explicit socket timeout (a stalled or half-open reader is dropped
    instead of pinning its handler thread forever) and every response
    carries ``Connection: close`` so clients cannot keep handler
    threads alive between polls.
    """

    server: "TelemetryServer.Server"

    def setup(self) -> None:
        super().setup()
        self.connection.settimeout(self.server.request_timeout_s)

    def handle(self) -> None:
        try:
            super().handle()
        except (socket.timeout, TimeoutError, ConnectionError, OSError):
            # A stalled reader timed out or vanished mid-write; drop
            # the connection quietly — the next scrape starts fresh.
            self.close_connection = True

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = render_prometheus(self.server.registry).encode("utf-8")
            self._respond(200, CONTENT_TYPE, body)
        elif path == "/health":
            health = self.server.health
            document = (
                health.status() if health is not None else {"status": "ok"}
            )
            code = 200 if document["status"] == "ok" else 503
            self._respond(
                code,
                "application/json; charset=utf-8",
                json.dumps(document).encode("utf-8"),
            )
        elif path == "/series":
            tsdb = self.server.tsdb
            if tsdb is None:
                self._respond(
                    404,
                    "text/plain; charset=utf-8",
                    b"no time-series store attached "
                    b"(run with --watch-record)\n",
                )
            else:
                self._respond(
                    200,
                    "application/json; charset=utf-8",
                    json.dumps(tsdb.to_payload()).encode("utf-8"),
                )
        else:
            self._respond(
                404, "text/plain; charset=utf-8", b"not found\n"
            )

    def _respond(self, code: int, content_type: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self.close_connection = True

    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request stderr chatter (scrapes are periodic)."""


class TelemetryServer:
    """Background HTTP endpoint exposing live metrics and health.

    Args:
        registry: Registry served at ``/metrics`` (default:
            process-global).
        health: Monitor served at ``/health`` (optional; without one
            the endpoint reports a plain ``{"status": "ok"}``).
        tsdb: Optional :class:`~repro.obs.tsdb.TimeSeriesDB` served as
            JSON at ``/series`` (404 without one) — what a live
            ``repro watch`` polls.
        host: Bind address — loopback by default; an OBU's telemetry
            is for the local vehicle stack, not the open network.
        port: TCP port; 0 picks an ephemeral one (see :attr:`port`).
        request_timeout_s: Per-connection socket timeout; a reader
            that stalls longer is dropped (see
            :class:`_TelemetryHandler`).

    Usage::

        server = TelemetryServer(registry, port=9110).start()
        ... run ...
        server.stop()
    """

    class Server(ThreadingHTTPServer):
        daemon_threads = True
        registry: MetricsRegistry
        health: Optional[HealthMonitor]
        tsdb: Optional[TimeSeriesDB]
        request_timeout_s: float

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        health: Optional[HealthMonitor] = None,
        tsdb: Optional[TimeSeriesDB] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout_s: float = 10.0,
    ) -> None:
        if request_timeout_s <= 0:
            raise ValueError(
                f"request timeout must be positive, got {request_timeout_s}"
            )
        self._registry = (
            registry if registry is not None else default_registry()
        )
        self._health = health
        self._tsdb = tsdb
        self._host = host
        self._requested_port = port
        self._request_timeout_s = float(request_timeout_s)
        self._server: Optional[TelemetryServer.Server] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> Optional[int]:
        """The bound port once started (resolves port=0), else None."""
        return self._server.server_address[1] if self._server else None

    @property
    def url(self) -> Optional[str]:
        """Base URL once started, e.g. ``http://127.0.0.1:9110``."""
        return f"http://{self._host}:{self.port}" if self._server else None

    def start(self) -> "TelemetryServer":
        """Bind and serve on a daemon thread; returns self."""
        if self._server is not None:
            return self
        server = TelemetryServer.Server(
            (self._host, self._requested_port), _TelemetryHandler
        )
        server.registry = self._registry
        server.health = self._health
        server.tsdb = self._tsdb
        server.request_timeout_s = self._request_timeout_s
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            name="repro-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread (idempotent)."""
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
