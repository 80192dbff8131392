"""Summarise or compare saved benchmark results, host-aware.

Every run saves ``.bench_build/perfbench/result-<workload>-seed<n>-trace<t>.json``
with its host block.  Copy that directory aside to keep a set.

    python3 perfbench/compare.py SET            # spread of one set
    python3 perfbench/compare.py PARENT CHANGE  # medians side by side

For one set it prints, per workload and end-to-end metric, the median
and the interquartile range as a share of the median next to the
metric's bound.  For two sets it prints both medians and the change.
Results whose host blocks differ (anything but the calibration score,
which may drift by ``CALIBRATION_TOLERANCE``) are refused with exit
code 2 unless ``--cross-host`` is given, which prints a warning
instead: numbers from different hosts are never compared silently.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Same-host calibration scores swung from 7.7 to 13.8 between runs on
#: the 2-vCPU reference host, so only a gap wider than this (a factor of
#: two) marks a different class of machine.
CALIBRATION_TOLERANCE = 1.0


def _load(directory: Path):
    runs = defaultdict(list)
    for path in sorted(directory.glob("result-*-trace0.json")):
        data = json.loads(path.read_text())
        runs[data["workload"]].append(data)
    return runs


def _host_key(host: dict) -> tuple:
    return tuple(sorted((k, v) for k, v in host.items() if k != "calibration_mips"))


def host_mismatches(results) -> list:
    """Human-readable reasons the host blocks are not comparable."""
    hosts = [r["host"] for r in results]
    reasons = []
    keys = {_host_key(h) for h in hosts}
    if len(keys) > 1:
        reasons.append(f"{len(keys)} different host blocks")
    scores = [h["calibration_mips"] for h in hosts]
    low, high = min(scores), max(scores)
    if high > low * (1.0 + CALIBRATION_TOLERANCE):
        reasons.append(f"calibration scores {low}..{high} differ by more than "
                       f"{CALIBRATION_TOLERANCE:.0%}")
    return reasons


def _spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", type=Path)
    parser.add_argument("--cross-host", action="store_true")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one set, or a parent and a change set")
    bounds = {
        m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    loaded = [_load(d) for d in args.sets]
    everything = [r for runs in loaded for rs in runs.values() for r in rs]
    if not everything:
        print("no results found", file=sys.stderr)
        return 2
    reasons = host_mismatches(everything)
    if reasons:
        message = "host blocks differ: " + "; ".join(reasons)
        if not args.cross_host:
            print(f"refusing to compare: {message} (use --cross-host)", file=sys.stderr)
            return 2
        print(f"WARNING: {message}; these numbers are not comparable")
    for workload in sorted(set().union(*loaded)):
        print(workload)
        for name, spec in bounds.items():
            columns = []
            for runs in loaded:
                values = [r["metrics"][name]["value"] for r in runs.get(workload, [])]
                if values:
                    columns.append(values)
            if not columns:
                continue
            med = [statistics.median(v) for v in columns]
            line = f"  {name:<22} n={len(columns[0]):<3} median {med[0]:<12.6g}"
            if len(columns) == 1:
                line += f" iqr/median {_spread(columns[0]):.3f} (bound {spec['bound']})"
            else:
                line += f" -> {med[1]:<12.6g} change {med[1] / med[0] - 1.0:+.3%}"
                line += f" ({spec['better']} is better, bound {spec['bound']})"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
