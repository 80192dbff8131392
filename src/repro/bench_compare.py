"""Benchmark regression gate: diff fresh ``BENCH_*.json`` vs baselines.

The pairwise-engine benchmark (``benchmarks/test_bench_pairwise.py``)
writes ``BENCH_pairwise.json`` on every run; committed reference copies
live under ``benchmarks/baselines/``.  This tool compares the two and
exits non-zero when a metric regressed beyond tolerance, so CI refuses
perf regressions instead of archiving them::

    python -m repro.bench_compare                       # all baselines
    python -m repro.bench_compare --only BENCH_pairwise.json \
        --tolerance 0.1 --timing-tolerance 3.0
    python -m repro.bench_compare --update              # refresh baselines
    python -m repro.bench_compare \
        --history benchmarks/history/BENCH_history.jsonl  # append run

``--history`` appends one JSONL entry per artifact (every numeric leaf,
stamped with the run's UTC time) to a committed trajectory file, so the
headline numbers accumulate across PRs instead of each baseline update
erasing the past; the end-of-run report (``--report-out``) renders the
trajectories as sparklines.

Metrics are classified by their leaf key:

* **deterministic** metrics (DP cell counts, pair counts, detection
  counts) gate at ``--tolerance`` (default 10 %%) — these are exact
  replays of a seeded workload, so genuine drift means the engine
  changed behaviour;
* **timing** metrics (``wall_ms``, ``pairs_per_s``) vary with the host
  and are *skipped by default*; opt in with ``--timing-tolerance`` on
  hardware you control;
* unknown numeric leaves are reported but never fail the gate.

Direction matters: ``dtw_cells`` growing is a regression, shrinking is
a win; ``attributed_pct`` the other way around.  Per-metric overrides:
``--tolerances dtw_cells=0.02,attributed_pct=0.05``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["main", "compare_payloads", "append_history", "Comparison"]

#: leaf key -> (good direction, class).  Direction is the direction of
#: *improvement*: "lower" (costs), "higher" (throughput/quality), or
#: "both" (workload invariants that should simply not move).
_RULES: Dict[str, Tuple[str, str]] = {
    "wall_ms": ("lower", "timing"),
    "pairs_per_s": ("higher", "timing"),
    "dtw_cells": ("lower", "deterministic"),
    "pairs": ("both", "deterministic"),
    "pairs_exact": ("lower", "deterministic"),
    "detections": ("both", "deterministic"),
    "sliding_rechecks_per_period": ("both", "deterministic"),
    # parallel evaluation benchmark (BENCH_parallel.json)
    "serial_wall_ms": ("lower", "timing"),
    "parallel_wall_ms": ("lower", "timing"),
    "speedup": ("higher", "timing"),
    "n_outcomes": ("both", "deterministic"),
    "true_flagged_total": ("both", "deterministic"),
    "false_flagged_total": ("both", "deterministic"),
    "cells": ("both", "deterministic"),
    # profiler overhead benchmark (BENCH_profile.json)
    "baseline_cpu_ms": ("lower", "timing"),
    "profiled_cpu_ms": ("lower", "timing"),
    "baseline_wall_ms": ("lower", "timing"),
    "profiled_wall_ms": ("lower", "timing"),
    "overhead_pct": ("lower", "timing"),
    "samples": ("higher", "timing"),
    "attributed_pct": ("higher", "deterministic"),
    "compare_pct": ("higher", "deterministic"),
    # audit overhead benchmark (BENCH_audit.json)
    "audited_cpu_ms": ("lower", "timing"),
    "disk_cpu_ms": ("lower", "timing"),
    "disk_overhead_pct": ("lower", "timing"),
    "stream_lines": ("both", "deterministic"),
    # watchtower overhead benchmark (BENCH_watch.json)
    "watched_cpu_ms": ("lower", "timing"),
    "ticks": ("both", "deterministic"),
    "series": ("both", "deterministic"),
    "tsdb_samples": ("both", "deterministic"),
    "drift_alerts": ("both", "deterministic"),
    # streaming service benchmark (BENCH_serve.json)
    "beacons_per_s": ("higher", "timing"),
    "ingest_wall_ms": ("lower", "timing"),
    "p50_ingest_to_verdict_ms": ("lower", "timing"),
    "p99_ingest_to_verdict_ms": ("lower", "timing"),
    "beacons": ("both", "deterministic"),
    "observers": ("both", "deterministic"),
    "identities_per_observer": ("both", "deterministic"),
    "beacon_hz": ("both", "deterministic"),
    "duration_s": ("both", "deterministic"),
    "shards": ("both", "deterministic"),
    "reports": ("both", "deterministic"),
    "shed": ("lower", "deterministic"),
    "flagged_observers": ("both", "deterministic"),
    "verdicts_match": ("both", "deterministic"),
    # lineage overhead benchmark (BENCH_trace.json); retained-trace
    # totals are interleaving-dependent and stay informational.
    "baseline_beacons_per_s": ("higher", "timing"),
    "traced_beacons_per_s": ("higher", "timing"),
    "traces_flagged": ("both", "deterministic"),
    "stage_sum_ok": ("both", "deterministic"),
}


class Comparison:
    """One numeric leaf compared between baseline and current."""

    __slots__ = (
        "path",
        "key",
        "baseline",
        "current",
        "change",
        "verdict",
        "tolerance",
    )

    def __init__(
        self,
        path: str,
        key: str,
        baseline: float,
        current: float,
        change: Optional[float],
        verdict: str,
        tolerance: Optional[float],
    ) -> None:
        self.path = path
        self.key = key
        self.baseline = baseline
        self.current = current
        self.change = change
        self.verdict = verdict
        self.tolerance = tolerance

    @property
    def failed(self) -> bool:
        return self.verdict == "REGRESSED"


def _numeric_leaves(
    node: object, prefix: str = ""
) -> Iterator[Tuple[str, str, float]]:
    """Yield ``(dotted path, leaf key, value)`` for every numeric leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            child = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, dict):
                yield from _numeric_leaves(value, child)
            elif isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                yield child, str(key), float(value)


def compare_payloads(
    baseline: Dict[str, object],
    current: Dict[str, object],
    tolerance: float = 0.10,
    timing_tolerance: Optional[float] = None,
    overrides: Optional[Dict[str, float]] = None,
) -> List[Comparison]:
    """Compare every shared numeric leaf of two benchmark payloads.

    Args:
        baseline: Parsed committed baseline JSON.
        current: Parsed freshly generated JSON.
        tolerance: Allowed relative drift (bad direction) for
            deterministic metrics.
        timing_tolerance: Same for timing metrics; None skips them.
        overrides: Per-leaf-key tolerance overrides.

    Returns:
        One :class:`Comparison` per leaf present in the baseline
        (missing-in-current leaves are reported as ``MISSING`` and
        count as failures; extra current-only leaves are ignored — new
        metrics are not regressions).
    """
    overrides = overrides or {}
    current_leaves = {
        path: value for path, _key, value in _numeric_leaves(current)
    }
    results: List[Comparison] = []
    for path, key, base in _numeric_leaves(baseline):
        direction, kind = _RULES.get(key, ("both", "info"))
        if path not in current_leaves:
            results.append(
                Comparison(path, key, base, float("nan"), None, "MISSING", None)
            )
            continue
        cur = current_leaves[path]
        change = (cur - base) / base if base else None
        if key in overrides:
            tol: Optional[float] = overrides[key]
        elif kind == "deterministic":
            tol = tolerance
        elif kind == "timing":
            tol = timing_tolerance
        else:
            tol = None
        if tol is None:
            verdict = "info"
        elif base == 0:
            verdict = "ok" if cur == 0 or direction == "higher" else "REGRESSED"
        else:
            assert change is not None
            if direction == "lower":
                bad = change > tol
            elif direction == "higher":
                bad = change < -tol
            else:
                bad = abs(change) > tol
            verdict = "REGRESSED" if bad else "ok"
        results.append(Comparison(path, key, base, cur, change, verdict, tol))
    return results


def append_history(
    history_path: Path,
    current_dir: Path,
    names: Sequence[str],
    timestamp: Optional[str] = None,
) -> int:
    """Append one JSONL trajectory entry per present artifact.

    Each entry is ``{"artifact", "ts", "metrics": {dotted path: value}}``
    with every numeric leaf flattened — the committed history is the
    cross-PR performance record the run report charts.

    Returns:
        The number of entries appended (artifacts missing from
        ``current_dir`` are skipped silently — a partial bench run
        records what it has).
    """
    stamp = timestamp or time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    entries = []
    for name in names:
        current_path = current_dir / name
        if not current_path.is_file():
            continue
        payload = json.loads(current_path.read_text(encoding="utf-8"))
        metrics = {
            path: value for path, _key, value in _numeric_leaves(payload)
        }
        entries.append(
            {"artifact": name, "ts": stamp, "metrics": metrics}
        )
    if entries:
        history_path.parent.mkdir(parents=True, exist_ok=True)
        with open(history_path, "a", encoding="utf-8") as handle:
            for entry in entries:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return len(entries)


def _parse_overrides(text: str) -> Dict[str, float]:
    overrides: Dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise argparse.ArgumentTypeError(
                f"bad tolerance entry {part!r} (want key=value)"
            )
        key, _, value = part.partition("=")
        try:
            overrides[key.strip()] = float(value)
        except ValueError as error:
            raise argparse.ArgumentTypeError(
                f"bad tolerance value in {part!r}"
            ) from error
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench_compare",
        description="Compare fresh BENCH_*.json artifacts against the "
        "committed baselines; exit 1 on regression.",
    )
    parser.add_argument(
        "--baseline-dir",
        default="benchmarks/baselines",
        help="directory of committed baseline BENCH_*.json files",
    )
    parser.add_argument(
        "--current-dir",
        default=".",
        help="directory the fresh artifacts were written to (repo root)",
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help="limit to these artifact file names (repeatable)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="relative drift allowed for deterministic metrics "
        "(default 0.10)",
    )
    parser.add_argument(
        "--timing-tolerance",
        type=float,
        default=None,
        metavar="T",
        help="also gate timing metrics (wall_ms, pairs_per_s) at this "
        "relative drift; omitted: timing is reported but never fails",
    )
    parser.add_argument(
        "--tolerances",
        type=_parse_overrides,
        default={},
        metavar="K=V,...",
        help="per-metric tolerance overrides, e.g. dtw_cells=0.02",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="copy the current artifacts over the baselines instead of "
        "comparing",
    )
    parser.add_argument(
        "--history",
        metavar="PATH",
        default=None,
        help="append one JSONL entry per current artifact (all numeric "
        "leaves, UTC-stamped) to this trajectory file instead of "
        "comparing — e.g. benchmarks/history/BENCH_history.jsonl",
    )
    return parser


def _render(results: List[Comparison]) -> str:
    rows = []
    for r in results:
        change = "-" if r.change is None else f"{r.change:+.1%}"
        tol = "-" if r.tolerance is None else f"{r.tolerance:.0%}"
        rows.append(
            f"{r.verdict:>9}  {r.path:<44} {r.baseline:>14g} "
            f"{r.current:>14g} {change:>8} (tol {tol})"
        )
    header = (
        f"{'verdict':>9}  {'metric':<44} {'baseline':>14} "
        f"{'current':>14} {'change':>8}"
    )
    return "\n".join([header] + rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    baseline_dir = Path(args.baseline_dir)
    current_dir = Path(args.current_dir)
    names = args.only or sorted(
        p.name for p in baseline_dir.glob("BENCH_*.json")
    )
    if args.history:
        history_names = args.only or sorted(
            p.name for p in current_dir.glob("BENCH_*.json")
        )
        appended = append_history(
            Path(args.history), current_dir, history_names
        )
        if not appended:
            print(
                "no BENCH_*.json artifacts found to record",
                file=sys.stderr,
            )
            return 1
        print(f"appended {appended} entr{'y' if appended == 1 else 'ies'} "
              f"to {args.history}")
        return 0
    if args.update:
        baseline_dir.mkdir(parents=True, exist_ok=True)
        updated = 0
        for name in names or sorted(
            p.name for p in current_dir.glob("BENCH_*.json")
        ):
            source = current_dir / name
            if source.is_file():
                shutil.copyfile(source, baseline_dir / name)
                print(f"updated baseline {baseline_dir / name}")
                updated += 1
        if not updated:
            print("no BENCH_*.json artifacts found to promote", file=sys.stderr)
            return 1
        return 0
    if not names:
        print(
            f"no baselines under {baseline_dir} (run with --update to "
            "create them)",
            file=sys.stderr,
        )
        return 1
    failed = False
    for name in names:
        baseline_path = baseline_dir / name
        current_path = current_dir / name
        if not baseline_path.is_file():
            print(f"missing baseline {baseline_path}", file=sys.stderr)
            failed = True
            continue
        if not current_path.is_file():
            print(
                f"missing current artifact {current_path} "
                "(run the benchmark first)",
                file=sys.stderr,
            )
            failed = True
            continue
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        current = json.loads(current_path.read_text(encoding="utf-8"))
        results = compare_payloads(
            baseline,
            current,
            tolerance=args.tolerance,
            timing_tolerance=args.timing_tolerance,
            overrides=args.tolerances,
        )
        regressions = [r for r in results if r.failed or r.verdict == "MISSING"]
        print(f"== {name}: {len(results)} metrics, "
              f"{len(regressions)} regression(s)")
        print(_render(results))
        if regressions:
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
