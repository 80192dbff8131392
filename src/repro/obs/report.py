"""Static end-of-run report — HTML or markdown, zero dependencies.

``--report-out run.html`` turns one run's observability state into a
single self-contained artifact an operator can open after the fact (or
CI can archive): the :class:`~repro.obs.tsdb.TimeSeriesDB` trajectory
as inline SVG charts, the drift/SLO alert log, the declared objectives,
the profiler's per-phase CPU table, the audit log's nearest-miss
verdicts, and the committed benchmark-history trajectory from
``bench_compare --history``.

The pipeline is ``build_report`` (collect a JSON-able data document)
→ ``render_html`` / ``render_markdown`` (pure formatting) →
``write_report`` (format by extension, non-clobbering via
:func:`repro.obs.paths.indexed_path`).  Everything degrades section by
section: whatever source is absent simply doesn't render.
"""

from __future__ import annotations

import html
import json
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .explain import sparkline
from .paths import indexed_path
from .tsdb import TimeSeriesDB

__all__ = [
    "build_report",
    "render_html",
    "render_markdown",
    "write_report",
]

#: Series name prefixes charted in the report, in render order.  The
#: trailing-dot spellings keep e.g. ``rate.margin_near_miss_rate`` in
#: the verdict group rather than matching everything under ``rate.``.
_CHART_GROUPS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("Phase latency", ("phase.",)),
    (
        "Verdict health",
        (
            "pipeline.margin.signed.tick_mean",
            "rate.margin_near_miss_rate",
            "health.flagged_pair_rate",
            "health.fragile_verdict_rate",
        ),
    ),
    ("Throughput", ("rate.",)),
    ("Drift", ("drift.",)),
    ("SLO burn", ("slo.",)),
)

#: Most charts per group (a runaway namespace must not explode the file).
_MAX_CHARTS_PER_GROUP = 12


def _series_points(
    store: TimeSeriesDB, name: str
) -> List[Tuple[float, float]]:
    return [(bucket.t, bucket.last) for bucket in store.query(name)]


def _collect_series(store: TimeSeriesDB) -> List[Dict[str, Any]]:
    names = store.series_names()
    taken = set()
    groups: List[Dict[str, Any]] = []
    for title, prefixes in _CHART_GROUPS:
        members = [
            name
            for name in names
            if name not in taken
            and any(name == p or name.startswith(p) for p in prefixes)
        ]
        if not members:
            continue
        taken.update(members)
        charts = []
        for name in members[:_MAX_CHARTS_PER_GROUP]:
            points = _series_points(store, name)
            values = [value for _t, value in points]
            charts.append(
                {
                    "name": name,
                    "points": points,
                    "latest": values[-1] if values else None,
                    "min": min(values) if values else None,
                    "max": max(values) if values else None,
                }
            )
        groups.append(
            {
                "title": title,
                "charts": charts,
                "omitted": max(0, len(members) - _MAX_CHARTS_PER_GROUP),
            }
        )
    return groups


def _collect_near_misses(
    audit_bundles: Sequence[Dict[str, Any]], top: int = 5
) -> List[Dict[str, Any]]:
    from .explain import select_pair_records

    try:
        selected = select_pair_records(
            list(audit_bundles), near_misses=top
        )
    except ValueError:
        return []
    rows = []
    for bundle, record in selected:
        rows.append(
            {
                "pair": f"{record['a']} × {record['b']}",
                "t": bundle.get("timestamp"),
                "margin": record.get("margin"),
                "flagged": record.get("flagged"),
                "provenance": record.get("provenance"),
            }
        )
    return rows


def _collect_history(history_path: str) -> List[Dict[str, Any]]:
    """Per-artifact benchmark trajectories from a ``bench_compare
    --history`` JSONL file (see :mod:`repro.bench_compare`)."""
    try:
        with open(history_path, "r", encoding="utf-8") as handle:
            entries = [
                json.loads(line) for line in handle if line.strip()
            ]
    except OSError:
        return []
    by_artifact: Dict[str, Dict[str, List[float]]] = {}
    for entry in entries:
        artifact = entry.get("artifact")
        metrics = entry.get("metrics")
        if not artifact or not isinstance(metrics, dict):
            continue
        rows = by_artifact.setdefault(artifact, {})
        for leaf, value in metrics.items():
            rows.setdefault(leaf, []).append(float(value))
    return [
        {
            "artifact": artifact,
            "metrics": [
                {
                    "name": leaf,
                    "values": values,
                    "latest": values[-1],
                }
                for leaf, values in sorted(rows.items())
            ],
        }
        for artifact, rows in sorted(by_artifact.items())
    ]


def build_report(
    tsdb: Optional[TimeSeriesDB] = None,
    health: Optional[Any] = None,
    drift: Optional[Any] = None,
    profiler: Optional[Any] = None,
    audit_bundles: Optional[Sequence[Dict[str, Any]]] = None,
    history_path: Optional[str] = None,
    title: str = "repro run report",
) -> Dict[str, Any]:
    """Collect every available source into one JSON-able document."""
    doc: Dict[str, Any] = {
        "title": title,
        "generated": time.strftime("%Y-%m-%d %H:%M:%S"),
    }
    if tsdb is not None:
        doc["samples"] = tsdb.samples
        doc["series_groups"] = _collect_series(tsdb)
    alerts: List[Dict[str, Any]] = []
    if health is not None:
        status = health.status()
        doc["status"] = status["status"]
        alerts = list(status.get("alerts", []))
    elif drift is not None:
        alerts = list(drift.alerts)
        doc["status"] = "alert" if alerts else "ok"
    doc["alerts"] = alerts
    if drift is not None:
        doc["slos"] = [
            {
                "name": spec.name,
                "metric": spec.metric,
                "max": spec.max_value,
                "min": spec.min_value,
                "budget": spec.budget,
                "windows": f"{spec.short_window}/{spec.long_window}",
            }
            for spec in drift.slos
        ]
    if profiler is not None:
        doc["phase_table"] = profiler.phase_table()
        doc["hotspot_table"] = profiler.hotspot_table()
    if audit_bundles:
        doc["near_misses"] = _collect_near_misses(audit_bundles)
    if history_path is not None:
        doc["history"] = _collect_history(history_path)
    return doc


# ----------------------------------------------------------------------
# HTML rendering
# ----------------------------------------------------------------------
_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto;
       max-width: 72em; color: #1a1a1a; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em;
     border-bottom: 1px solid #ddd; padding-bottom: .2em; }
table { border-collapse: collapse; margin: .5em 0; }
td, th { border: 1px solid #ccc; padding: .25em .6em; text-align: left; }
th { background: #f4f4f4; }
.charts { display: flex; flex-wrap: wrap; gap: 1em; }
.chart { border: 1px solid #e0e0e0; padding: .4em .6em; }
.chart .name { font-family: monospace; font-size: .85em; }
.alert { color: #a00; }
pre { background: #f8f8f8; padding: .6em; overflow-x: auto; }
svg polyline { fill: none; stroke: #2060c0; stroke-width: 1.5; }
"""


def _svg_chart(
    points: Sequence[Tuple[float, float]], width: int = 260, height: int = 56
) -> str:
    if not points:
        return "<svg></svg>"
    ts = np.asarray([t for t, _v in points], dtype=float)
    vs = np.asarray([v for _t, v in points], dtype=float)
    t_span = float(ts.max() - ts.min()) or 1.0
    v_span = float(vs.max() - vs.min()) or 1.0
    xs = (ts - ts.min()) / t_span * (width - 4) + 2
    ys = height - 2 - (vs - vs.min()) / v_span * (height - 4)
    coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<polyline points="{coords}"/></svg>'
    )


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_html(doc: Dict[str, Any]) -> str:
    """The report document as one self-contained HTML page."""
    e = html.escape
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{e(doc['title'])}</title><style>{_CSS}</style></head><body>",
        f"<h1>{e(doc['title'])}</h1>",
        f"<p>generated {e(doc['generated'])}"
        + (
            f" — status <strong>{e(doc['status'])}</strong>"
            if "status" in doc
            else ""
        )
        + (
            f" — {doc['samples']} samples"
            if "samples" in doc
            else ""
        )
        + "</p>",
    ]
    for group in doc.get("series_groups", []):
        parts.append(f"<h2>{e(group['title'])}</h2><div class='charts'>")
        for chart in group["charts"]:
            parts.append(
                "<div class='chart'>"
                f"<div class='name'>{e(chart['name'])}</div>"
                f"{_svg_chart(chart['points'])}"
                f"<div>latest {_fmt(chart['latest'])} · "
                f"min {_fmt(chart['min'])} · max {_fmt(chart['max'])}</div>"
                "</div>"
            )
        parts.append("</div>")
        if group["omitted"]:
            parts.append(
                f"<p>({group['omitted']} further series not charted)</p>"
            )
    alerts = doc.get("alerts", [])
    parts.append(f"<h2>Alerts ({len(alerts)})</h2>")
    if alerts:
        parts.append(
            "<table><tr><th>kind</th><th>t</th><th>value</th>"
            "<th>threshold</th><th>message</th></tr>"
        )
        for alert in alerts:
            parts.append(
                "<tr class='alert'>"
                f"<td>{e(str(alert.get('kind')))}</td>"
                f"<td>{_fmt(alert.get('t'))}</td>"
                f"<td>{_fmt(alert.get('value'))}</td>"
                f"<td>{_fmt(alert.get('threshold'))}</td>"
                f"<td>{e(str(alert.get('message', '')))}</td></tr>"
            )
        parts.append("</table>")
    else:
        parts.append("<p>none</p>")
    if doc.get("slos"):
        parts.append(
            "<h2>Objectives</h2><table><tr><th>SLO</th><th>metric</th>"
            "<th>bound</th><th>budget</th><th>windows</th></tr>"
        )
        for slo in doc["slos"]:
            bound = (
                f"&le; {_fmt(slo['max'])}"
                if slo["max"] is not None
                else f"&ge; {_fmt(slo['min'])}"
            )
            parts.append(
                f"<tr><td>{e(slo['name'])}</td><td>{e(slo['metric'])}</td>"
                f"<td>{bound}</td><td>{_fmt(slo['budget'])}</td>"
                f"<td>{e(slo['windows'])}</td></tr>"
            )
        parts.append("</table>")
    if doc.get("near_misses"):
        parts.append(
            "<h2>Nearest-miss verdicts</h2><table><tr><th>pair</th>"
            "<th>t</th><th>margin</th><th>flagged</th><th>provenance</th></tr>"
        )
        for row in doc["near_misses"]:
            parts.append(
                f"<tr><td>{e(row['pair'])}</td><td>{_fmt(row['t'])}</td>"
                f"<td>{_fmt(row['margin'])}</td>"
                f"<td>{_fmt(row['flagged'])}</td>"
                f"<td>{e(str(row['provenance']))}</td></tr>"
            )
        parts.append("</table>")
    if "phase_table" in doc:
        parts.append(
            f"<h2>Profile: phases</h2><pre>{e(doc['phase_table'])}</pre>"
        )
        parts.append(
            f"<h2>Profile: hotspots</h2><pre>{e(doc['hotspot_table'])}</pre>"
        )
    for artifact in doc.get("history", []):
        parts.append(
            f"<h2>Benchmark history: {e(artifact['artifact'])}</h2>"
            "<table><tr><th>metric</th><th>latest</th>"
            "<th>trajectory</th><th>runs</th></tr>"
        )
        for metric in artifact["metrics"]:
            parts.append(
                f"<tr><td>{e(metric['name'])}</td>"
                f"<td>{_fmt(metric['latest'])}</td>"
                f"<td><code>{e(sparkline(np.asarray(metric['values']), 24))}"
                f"</code></td><td>{len(metric['values'])}</td></tr>"
            )
        parts.append("</table>")
    parts.append("</body></html>")
    return "".join(parts)


# ----------------------------------------------------------------------
# Markdown rendering
# ----------------------------------------------------------------------
def render_markdown(doc: Dict[str, Any]) -> str:
    """The report document as GitHub-flavoured markdown."""
    lines = [f"# {doc['title']}", ""]
    meta = f"generated {doc['generated']}"
    if "status" in doc:
        meta += f" — status **{doc['status']}**"
    if "samples" in doc:
        meta += f" — {doc['samples']} samples"
    lines.extend([meta, ""])
    for group in doc.get("series_groups", []):
        lines.extend([f"## {group['title']}", ""])
        lines.append("| series | latest | min | max | trajectory |")
        lines.append("|---|---|---|---|---|")
        for chart in group["charts"]:
            values = np.asarray(
                [v for _t, v in chart["points"]], dtype=float
            )
            lines.append(
                f"| `{chart['name']}` | {_fmt(chart['latest'])} "
                f"| {_fmt(chart['min'])} | {_fmt(chart['max'])} "
                f"| `{sparkline(values, 24)}` |"
            )
        if group["omitted"]:
            lines.append(
                f"\n({group['omitted']} further series not shown)"
            )
        lines.append("")
    alerts = doc.get("alerts", [])
    lines.extend([f"## Alerts ({len(alerts)})", ""])
    if alerts:
        lines.append("| kind | t | value | threshold | message |")
        lines.append("|---|---|---|---|---|")
        for alert in alerts:
            lines.append(
                f"| {alert.get('kind')} | {_fmt(alert.get('t'))} "
                f"| {_fmt(alert.get('value'))} "
                f"| {_fmt(alert.get('threshold'))} "
                f"| {alert.get('message', '')} |"
            )
    else:
        lines.append("none")
    lines.append("")
    if doc.get("slos"):
        lines.extend(["## Objectives", ""])
        lines.append("| SLO | metric | bound | budget | windows |")
        lines.append("|---|---|---|---|---|")
        for slo in doc["slos"]:
            bound = (
                f"<= {_fmt(slo['max'])}"
                if slo["max"] is not None
                else f">= {_fmt(slo['min'])}"
            )
            lines.append(
                f"| {slo['name']} | `{slo['metric']}` | {bound} "
                f"| {_fmt(slo['budget'])} | {slo['windows']} |"
            )
        lines.append("")
    if doc.get("near_misses"):
        lines.extend(["## Nearest-miss verdicts", ""])
        lines.append("| pair | t | margin | flagged | provenance |")
        lines.append("|---|---|---|---|---|")
        for row in doc["near_misses"]:
            lines.append(
                f"| {row['pair']} | {_fmt(row['t'])} "
                f"| {_fmt(row['margin'])} | {_fmt(row['flagged'])} "
                f"| {row['provenance']} |"
            )
        lines.append("")
    if "phase_table" in doc:
        lines.extend(
            [
                "## Profile: phases",
                "",
                "```",
                doc["phase_table"],
                "```",
                "",
                "## Profile: hotspots",
                "",
                "```",
                doc["hotspot_table"],
                "```",
                "",
            ]
        )
    for artifact in doc.get("history", []):
        lines.extend(
            [f"## Benchmark history: {artifact['artifact']}", ""]
        )
        lines.append("| metric | latest | trajectory | runs |")
        lines.append("|---|---|---|---|")
        for metric in artifact["metrics"]:
            lines.append(
                f"| `{metric['name']}` | {_fmt(metric['latest'])} "
                f"| `{sparkline(np.asarray(metric['values']), 24)}` "
                f"| {len(metric['values'])} |"
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def write_report(path: str, **sources: Any) -> str:
    """Build and write a report; returns the path actually written.

    The format follows the extension (``.html``/``.htm`` → HTML,
    anything else → markdown); an existing file is never clobbered
    (see :func:`repro.obs.paths.indexed_path`).  Keyword arguments are
    those of :func:`build_report`.
    """
    doc = build_report(**sources)
    lowered = path.lower()
    text = (
        render_html(doc)
        if lowered.endswith((".html", ".htm"))
        else render_markdown(doc)
    )
    target = indexed_path(path)
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(text)
    return target
