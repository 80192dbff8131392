"""``repro.obs`` — metrics, tracing, logging, and runtime telemetry.

One zero-dependency observability layer threaded through the detection
pipeline, the simulators, and the evaluation harness:

* :mod:`repro.obs.metrics` — thread-safe counters / gauges / histograms
  in a :class:`MetricsRegistry` with JSON-lines export (histograms take
  an optional reservoir cap for unbounded online runs).
* :mod:`repro.obs.timers` — :class:`Stopwatch`, a context-manager /
  decorator that records durations into histograms.
* :mod:`repro.obs.trace` — nested spans tracing one detection end to
  end (normalise → pairwise FastDTW → min-max → threshold), exported
  as JSONL; open spans are flushed as partial records on shutdown or
  an unhandled exception, so exports are never truncated.
* :mod:`repro.obs.logging` — structured ``key=value`` stdlib logging.
* :mod:`repro.obs.prometheus` — Prometheus text exposition of a
  registry snapshot.
* :mod:`repro.obs.telemetry` — the runtime consumers: a periodic
  :class:`Snapshotter` (counter deltas → rates, JSONL + ``rate.*``
  gauges), a :class:`SpanLatencyRecorder` (spans → per-phase latency
  histograms) and a background :class:`TelemetryServer` serving
  ``/metrics`` and ``/health``.
* :mod:`repro.obs.health` — a streaming :class:`HealthMonitor` for the
  online pipeline (staleness watchdog, latency / flag-rate / density
  sliding windows, threshold alerts).
* :mod:`repro.obs.flightrec` — a bounded :class:`FlightRecorder` ring
  of recent spans / logs / reports / shed events that dumps a
  post-mortem JSONL bundle when an alert or an unhandled exception
  fires.
* :mod:`repro.obs.lineage` — beacon-to-verdict causal tracing for the
  serve layer: a :class:`TraceContext` propagated through the ingest
  queues decomposes each verdict into ``serve.stage.*_ms`` stage
  histograms, a tail-sampled trace ring keeps the flagged / near-miss
  / slow / shed-adjacent paths, and a correlation id joins each trace
  to its audit bundle and flight-recorder rows (``repro trace``).
* :mod:`repro.obs.profiling` — a :class:`SamplingProfiler` attributing
  stack samples (and optionally tracemalloc memory) to the open tracer
  span's pipeline phase; collapsed-stack / hotspot-table export and
  cross-process snapshot merge.
* :mod:`repro.obs.audit` — a decision-provenance :class:`AuditLog`
  recording per-pair evidence (windows, normalisation stats, DTW
  distance, margin, provenance, verdict) for every
  detection, with a bit-exact replay contract consumed by the
  ``repro explain`` forensics command (:mod:`repro.obs.explain`).
* :mod:`repro.obs.tsdb` — :class:`TimeSeriesDB`, a bounded-memory
  multi-resolution (RRD-style) ring store of the run's telemetry
  trajectory, fed per Snapshotter tick and served at ``/series``.
* :mod:`repro.obs.drift` — :class:`CusumDetector` /
  :class:`PageHinkleyDetector` change detection over the watched
  quality signals, plus declarative :class:`SLOSpec` objectives with
  multi-window error-budget burn-rate alerting
  (:class:`DriftMonitor`).
* :mod:`repro.obs.watch` / :mod:`repro.obs.report` — the
  ``repro watch`` terminal dashboard over a live endpoint or recorded
  run, and the static end-of-run HTML/markdown report
  (``--report-out``).

Everything is **off by default**: the process-global registry and
tracer start disabled, and disabled instruments drop calls after a
single boolean check, so library users who never call :func:`configure`
pay (almost) nothing.  Components also accept injected registries and
tracers for isolated observation in tests.

Typical wiring (what the CLI's ``--log-level`` / ``--metrics-out`` /
``--trace-out`` / ``--telemetry-port`` flags do)::

    from repro import obs

    obs.configure(log_level="INFO", metrics=True,
                  trace_exporter=obs.JsonlSpanExporter("trace.jsonl"))
    server = obs.TelemetryServer(port=9110).start()   # live /metrics
    ... run detections ...
    obs.default_registry().write_jsonl("metrics.jsonl")
    server.stop()
    obs.shutdown()
"""

from __future__ import annotations

import atexit
from typing import Optional, Union

from .logging import KeyValueFormatter, configure as configure_logging, get_logger
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
)
from .timers import Stopwatch
from .trace import (
    InMemorySpanExporter,
    JsonlSpanExporter,
    Span,
    SpanExporter,
    Tracer,
    default_tracer,
)
from .prometheus import render_prometheus, sanitize_metric_name
from .telemetry import Snapshotter, SpanLatencyRecorder, TelemetryServer
from .health import (
    Alert,
    HealthMonitor,
    HealthThresholds,
    default_monitor,
    set_default_monitor,
)
from .flightrec import (
    FlightRecorder,
    TeeSpanExporter,
    default_recorder,
    set_default_recorder,
)
from .lineage import (
    Lineage,
    TraceContext,
    current_correlation_id,
    default_lineage,
    export_chrome_trace,
    load_lineage,
    restart_in_child as restart_lineage_in_child,
    start_lineage,
    stop_lineage,
)
from .paths import counted_path, indexed_path
from .profiling import (
    SamplingProfiler,
    default_profiler,
    phase_for_span,
    restart_in_child,
    start_default as start_profiler,
    stop_default as stop_profiler,
)
from .tsdb import DEFAULT_RESOLUTIONS, Bucket, TimeSeriesDB
from .drift import (
    CusumDetector,
    DriftMonitor,
    PageHinkleyDetector,
    SLOSpec,
    default_slos,
)
from .watch import load_frame, render_dashboard, run_watch
from .report import build_report, write_report
from .audit import (
    AuditLog,
    default_audit_log,
    get_near_miss_epsilon,
    load_audit_log,
    set_audit_context,
    set_near_miss_epsilon,
    signed_margin,
    start_default as start_audit,
    stop_default as stop_audit,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Stopwatch",
    "Span",
    "SpanExporter",
    "InMemorySpanExporter",
    "JsonlSpanExporter",
    "TeeSpanExporter",
    "Tracer",
    "KeyValueFormatter",
    "get_logger",
    "configure_logging",
    "render_prometheus",
    "sanitize_metric_name",
    "Snapshotter",
    "SpanLatencyRecorder",
    "TelemetryServer",
    "Bucket",
    "TimeSeriesDB",
    "DEFAULT_RESOLUTIONS",
    "CusumDetector",
    "PageHinkleyDetector",
    "DriftMonitor",
    "SLOSpec",
    "default_slos",
    "load_frame",
    "render_dashboard",
    "run_watch",
    "build_report",
    "write_report",
    "Alert",
    "HealthMonitor",
    "HealthThresholds",
    "FlightRecorder",
    "default_recorder",
    "set_default_recorder",
    "Lineage",
    "TraceContext",
    "current_correlation_id",
    "default_lineage",
    "start_lineage",
    "stop_lineage",
    "restart_lineage_in_child",
    "load_lineage",
    "export_chrome_trace",
    "SamplingProfiler",
    "phase_for_span",
    "counted_path",
    "indexed_path",
    "default_profiler",
    "start_profiler",
    "stop_profiler",
    "restart_in_child",
    "AuditLog",
    "default_audit_log",
    "start_audit",
    "stop_audit",
    "set_audit_context",
    "get_near_miss_epsilon",
    "set_near_miss_epsilon",
    "signed_margin",
    "load_audit_log",
    "default_registry",
    "default_tracer",
    "default_monitor",
    "set_default_monitor",
    "configure",
    "disable",
    "shutdown",
]

_atexit_registered = False


def _atexit_close() -> None:
    """Last-chance flush so crashes never truncate span exports."""
    tracer = default_tracer()
    if tracer.exporter is not None:
        try:
            tracer.close(reason="atexit")
        except Exception:  # interpreter is going down; never raise here
            pass


def configure(
    log_level: Optional[Union[int, str]] = None,
    metrics: bool = True,
    trace_exporter: Optional[SpanExporter] = None,
) -> None:
    """Switch process-global observability on.

    Args:
        log_level: When given, installs the structured handler on the
            ``repro`` logger at this level (see
            :func:`repro.obs.logging.configure`).
        metrics: Enable the process-global metrics registry.
        trace_exporter: When given, enables the process-global tracer
            and routes finished spans to this exporter.  An atexit
            hook is registered (once) that flushes open spans and
            closes the exporter, so an unhandled exception still
            produces a complete JSONL stream.
    """
    global _atexit_registered
    if log_level is not None:
        configure_logging(level=log_level)
    if metrics:
        default_registry().enable()
    if trace_exporter is not None:
        default_tracer().enable(trace_exporter)
        if not _atexit_registered:
            atexit.register(_atexit_close)
            _atexit_registered = True


def disable() -> None:
    """Switch the process-global registry and tracer back off."""
    default_registry().disable()
    default_tracer().disable()


def shutdown() -> None:
    """Disable global observability and close the tracer's exporter.

    Open spans (if any survived — e.g. after an exception unwound past
    their owner) are exported as partial records first.
    """
    disable()
    tracer = default_tracer()
    if tracer.exporter is not None:
        tracer.close(reason="shutdown")
        tracer.exporter = None
