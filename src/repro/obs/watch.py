"""Live operator dashboard — the ``repro watch`` command.

``repro watch`` is the watchtower over a running (or finished)
detector: it renders the :class:`~repro.obs.tsdb.TimeSeriesDB`
trajectory — per-phase latency, throughput, margin health, drift
scores and SLO burn rates — as a plain-text dashboard, either once
(``--once``) or as a follow loop that repaints the terminal every
``--interval`` seconds.  Three sources are understood:

* a **live endpoint** (``http://host:port``) — polls ``GET /series``
  and ``GET /health`` on the :class:`~repro.obs.telemetry.TelemetryServer`
  a run started with ``--serve-telemetry``;
* a **TSDB dump** written by ``--watch-record`` (header record
  ``{"type": "tsdb"}``) — rendered as-is;
* a **Snapshotter JSONL** log written by ``--snapshot-out`` (records
  of ``{"type": "snapshot"}``) — replayed through a fresh
  TSDB + :class:`~repro.obs.drift.DriftMonitor`, so drift/SLO alerts
  are recomputed from the recorded ticks.

Rendering is stdlib + the shared :func:`repro.obs.explain.sparkline`;
ANSI is limited to the clear-screen escape in follow mode (disabled
with ``--once``, so CI logs stay clean).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from .drift import DriftMonitor
from .explain import sparkline
from .metrics import MetricsRegistry
from .tsdb import TimeSeriesDB

__all__ = ["WatchFrame", "load_frame", "render_dashboard", "run_watch"]

#: ANSI clear-screen + home, emitted between follow-mode repaints.
_CLEAR = "\x1b[2J\x1b[H"

#: Sparkline width used throughout the dashboard.
_SPARK = 32

#: Most alert lines rendered per frame.
_MAX_ALERTS = 8


@dataclass
class WatchFrame:
    """One dashboard's worth of data, wherever it came from.

    Attributes:
        source: What the user pointed ``repro watch`` at.
        kind: ``live`` / ``tsdb`` / ``snapshots``.
        tsdb: The (possibly replayed) time-series store.
        status: The health status string (``ok`` / ``alert`` / ``n/a``).
        alerts: Alert records (``kind``/``message``/``t``/...), newest
            last.
    """

    source: str
    kind: str
    tsdb: TimeSeriesDB
    status: str = "n/a"
    alerts: List[Dict[str, Any]] = field(default_factory=list)


def _fetch_json(url: str, timeout_s: float) -> Dict[str, Any]:
    """GET a JSON document; non-2xx bodies (the 503 ``/health``) parse
    too."""
    try:
        with urllib.request.urlopen(url, timeout=timeout_s) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        body = error.read().decode("utf-8", "replace")
        try:
            return json.loads(body)
        except json.JSONDecodeError:
            raise ValueError(
                f"{url} answered {error.code}: {body.strip()!r}"
            ) from error


def _load_live(source: str, timeout_s: float) -> WatchFrame:
    base = source.rstrip("/")
    payload = _fetch_json(f"{base}/series", timeout_s)
    store = TimeSeriesDB.from_payload(payload)
    status, alerts = "n/a", []
    try:
        health = _fetch_json(f"{base}/health", timeout_s)
        status = health.get("status", "n/a")
        alerts = health.get("alerts", [])
    except (ValueError, OSError):
        pass  # /health is optional; the series alone still render
    return WatchFrame(
        source=source, kind="live", tsdb=store, status=status, alerts=alerts
    )


def _replay_snapshots(lines: List[str]) -> WatchFrame:
    """Re-derive the trajectory (and drift/SLO alerts) from a
    Snapshotter JSONL log."""
    store = TimeSeriesDB()
    drift = DriftMonitor(registry=MetricsRegistry(), health=None)
    for line in lines:
        record = json.loads(line)
        if record.get("type") != "snapshot":
            continue
        t = record.get("t")
        if t is None:
            t = record.get("ts", 0.0)
        store.observe_snapshot(record, float(t))
        drift.observe(record, float(t))
    return WatchFrame(
        source="",
        kind="snapshots",
        tsdb=store,
        status="alert" if drift.alerts else "ok",
        alerts=list(drift.alerts),
    )


def load_frame(source: str, timeout_s: float = 5.0) -> WatchFrame:
    """Resolve a watch source (URL, TSDB dump, or snapshot log)."""
    if source.startswith(("http://", "https://")):
        return _load_live(source, timeout_s)
    with open(source, "r", encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    if not lines:
        raise ValueError(f"{source} is empty")
    head = json.loads(lines[0])
    head_type = head.get("type")
    if head_type == "tsdb":
        frame = WatchFrame(
            source=source, kind="tsdb", tsdb=TimeSeriesDB.load_jsonl(lines)
        )
        return frame
    # Snapshot logs may interleave other record kinds (replay skips
    # them), so accept the file if any line is a snapshot record.
    if any(
        json.loads(line).get("type") == "snapshot" for line in lines
    ):
        frame = _replay_snapshots(lines)
        frame.source = source
        return frame
    raise ValueError(
        f"{source}: unrecognised record type {head_type!r} "
        "(want a --watch-record dump or a --snapshot-out log)"
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _series_lasts(store: TimeSeriesDB, name: str) -> np.ndarray:
    return np.asarray(
        [bucket.last for bucket in store.query(name)], dtype=float
    )


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1000 or magnitude < 0.01:
        return f"{value:.3g}"
    return f"{value:.3f}".rstrip("0").rstrip(".")


def _section(title: str) -> str:
    return f"-- {title} " + "-" * max(0, 58 - len(title))


def render_dashboard(frame: WatchFrame, now: Optional[float] = None) -> str:
    """One dashboard frame as multi-line text (no trailing newline)."""
    store = frame.tsdb
    names = store.series_names()
    lines = [
        f"repro watch — {frame.source or frame.kind}  "
        f"[{frame.kind}]  status={frame.status}  "
        f"series={len(names)}  samples={store.samples}",
    ]

    phases = sorted(
        name[: -len(".p99")]
        for name in names
        if name.startswith("phase.") and name.endswith(".p99")
    )
    if phases:
        lines.append(_section("phase latency (ms)"))
        for base in phases:
            label = base[len("phase."):]
            p99 = _series_lasts(store, f"{base}.p99")
            lines.append(
                f"  {label:<22} p50={_fmt(store.latest(f'{base}.p50')):>8}"
                f"  p99={_fmt(store.latest(f'{base}.p99')):>8}"
                f"  {sparkline(p99, _SPARK)}"
            )

    stages = sorted(
        name[: -len(".p99")]
        for name in names
        if name.startswith("serve.stage.") and name.endswith(".p99")
    )
    if stages:
        lines.append(_section("serve stage latency (ms)"))
        for base in stages:
            label = base[len("serve.stage."):]
            if label.endswith("_ms"):
                label = label[: -len("_ms")]
            p99 = _series_lasts(store, f"{base}.p99")
            lines.append(
                f"  {label:<22} p50={_fmt(store.latest(f'{base}.p50')):>8}"
                f"  p99={_fmt(store.latest(f'{base}.p99')):>8}"
                f"  {sparkline(p99, _SPARK)}"
            )

    rates = [
        name
        for name in names
        if name.startswith("rate.") and name.endswith("_per_s")
    ]
    if rates:
        lines.append(_section("throughput (/s)"))
        for name in rates[:6]:
            label = name[len("rate."): -len("_per_s")]
            lines.append(
                f"  {label:<22} {_fmt(store.latest(name)):>10}"
                f"  {sparkline(_series_lasts(store, name), _SPARK)}"
            )

    margin_rows = [
        ("margin mean", "pipeline.margin.signed.tick_mean"),
        ("near-miss rate", "rate.margin_near_miss_rate"),
        ("flagged-pair rate", "health.flagged_pair_rate"),
    ]
    present = [(label, name) for label, name in margin_rows if name in names]
    if present:
        lines.append(_section("verdict health"))
        for label, name in present:
            lines.append(
                f"  {label:<22} {_fmt(store.latest(name)):>10}"
                f"  {sparkline(_series_lasts(store, name), _SPARK)}"
            )

    signals = sorted(
        name[len("drift."): -len(".cusum")]
        for name in names
        if name.startswith("drift.") and name.endswith(".cusum")
    )
    if signals:
        lines.append(_section("drift scores (accumulated sigmas)"))
        for signal in signals:
            cusum = store.latest(f"drift.{signal}.cusum")
            ph = store.latest(f"drift.{signal}.page_hinkley")
            lines.append(
                f"  {signal:<22} cusum={_fmt(cusum):>8}"
                f"  ph={_fmt(ph):>8}"
                f"  {sparkline(_series_lasts(store, f'drift.{signal}.cusum'), _SPARK)}"
            )

    slos = sorted(
        name[len("slo."): -len(".burn_short")]
        for name in names
        if name.startswith("slo.") and name.endswith(".burn_short")
    )
    if slos:
        lines.append(_section("SLO burn (x budget)"))
        for slo in slos:
            short = store.latest(f"slo.{slo}.burn_short")
            long_ = store.latest(f"slo.{slo}.burn_long")
            burning = (
                short is not None
                and long_ is not None
                and short >= 1.0
                and long_ >= 1.0
            )
            lines.append(
                f"  {slo:<22} short={_fmt(short):>7}  long={_fmt(long_):>7}"
                f"  {sparkline(_series_lasts(store, f'slo.{slo}.burn_short'), _SPARK)}"
                f"{'  ** BURN **' if burning else ''}"
            )

    if frame.alerts:
        lines.append(_section(f"alerts ({len(frame.alerts)})"))
        for alert in frame.alerts[-_MAX_ALERTS:]:
            lines.append(
                f"  [{alert.get('kind', '?')}] t={_fmt(alert.get('t'))}  "
                f"{alert.get('message', '')}"
            )
        hidden = len(frame.alerts) - _MAX_ALERTS
        if hidden > 0:
            lines.append(f"  ... {hidden} earlier alert(s) not shown")
    elif frame.kind != "tsdb":
        lines.append(_section("alerts"))
        lines.append("  none")
    return "\n".join(lines)


def run_watch(
    source: str,
    once: bool = False,
    interval_s: float = 2.0,
    out=None,
    max_frames: Optional[int] = None,
    sleep=time.sleep,
) -> str:
    """The ``repro watch`` entry point.

    Args:
        source: Endpoint URL, TSDB dump, or snapshot JSONL path.
        once: Render a single frame without ANSI clearing and return.
        interval_s: Repaint period in follow mode.
        out: Text stream to write to (default: stdout).
        max_frames: Stop after this many frames (tests; None = forever).
        sleep: Injectable pause (tests).

    Returns:
        The last rendered frame.
    """
    import sys

    if interval_s <= 0:
        raise ValueError(f"interval must be positive, got {interval_s}")
    stream = out if out is not None else sys.stdout
    frames = 0
    text = ""
    while True:
        try:
            frame = load_frame(source)
            text = render_dashboard(frame)
        except (OSError, urllib.error.URLError) as error:
            if once or not source.startswith(("http://", "https://")):
                raise
            text = f"repro watch — waiting for {source} ({error})"
        if once:
            stream.write(text + "\n")
            return text
        stream.write(_CLEAR + text + "\n")
        stream.flush()
        frames += 1
        if max_frames is not None and frames >= max_frames:
            return text
        try:
            sleep(interval_s)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return text
