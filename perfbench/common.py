"""Shared plumbing: checkout bootstrap, statistics, host block, output.

Every benchmark process (``run.py`` and the fresh-interpreter set-up
probes) calls :func:`bootstrap` before importing ``repro``: it puts the
checkout's own ``src/`` first on ``sys.path`` and points the temp
directory, where :mod:`repro.core.native` caches its compiled kernel,
inside the checkout's ``.bench_build/``.  A checkout without ``src/repro``
is refused, so the benchmark never measures some other installed copy.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

#: A reported tail has at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result (exit code 2)."""


def bootstrap() -> None:
    """Make ``import repro`` load this checkout's sources, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no src/repro package under {ROOT}")
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = str(SRC)
    import tempfile

    tempfile.tempdir = None  # re-read TMPDIR
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples)`` of the reportable tail.

    The tail is the highest percentile with at least
    :data:`TAIL_MIN_BEYOND` samples beyond it: the sample with exactly
    that many above it.  With too few samples for that percentile to lie
    above the median, the maximum (p100) is reported and labelled as
    such.
    """
    n = len(values)
    if n <= 2 * TAIL_MIN_BEYOND:
        return max(values), 100.0, n
    ordered = sorted(values)
    return ordered[n - TAIL_MIN_BEYOND - 1], 100.0 * (n - TAIL_MIN_BEYOND) / n, n


# ----------------------------------------------------------------------
# host block
# ----------------------------------------------------------------------
def _cgroup_quota() -> str:
    """``quota period`` in microseconds (cgroup v2 or v1), or unknown."""
    cgroup = Path("/sys/fs/cgroup")
    try:
        return (cgroup / "cpu.max").read_text().strip()
    except OSError:
        pass
    try:
        quota = (cgroup / "cpu" / "cpu.cfs_quota_us").read_text().strip()
        period = (cgroup / "cpu" / "cpu.cfs_period_us").read_text().strip()
    except OSError:
        return "unknown"
    return f"{'max' if quota == '-1' else quota} {period}"


def calibration_score(rounds: int = 5) -> float:
    """Millions of iterations/s of a fixed pure-Python loop (median)."""
    n = 300_000
    rates = []
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(n):
            acc += (i * i) % 7
        rates.append(n / (time.perf_counter() - start) / 1e6)
    return round(median(rates), 3)


def host_block() -> Dict[str, object]:
    """Where the numbers came from; results from different blocks are
    not comparable (see ``compare.py``)."""
    import numpy
    import scipy
    from repro.core.native import native_available

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = os.cpu_count() or 0
    return {
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_max": _cgroup_quota(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "native_available": native_available(),
        "calibration_mips": calibration_score(),
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def emit(
    workload: str,
    seed: int,
    trace: int,
    metrics: Dict[str, Tuple[float, str]],
    attempted: int,
    failed: int,
    notes: List[str],
    host: Dict[str, object],
    listed: bool = True,
) -> None:
    """Print the human-readable lines (``listed=False`` when the caller
    printed the metrics itself), save the detailed result file and print
    the one-line JSON result last."""
    for line in notes:
        print(line)
    print(f"host: {json.dumps(host, sort_keys=True)}")
    if listed:
        for name, (value, unit) in metrics.items():
            print(f"{workload}: {name} = {value:.6g} {unit}")
    print(
        f"{workload}: failed_ratio = {failed / attempted:.6g} "
        f"({failed} of {attempted} operations)"
    )
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    BUILD.mkdir(parents=True, exist_ok=True)
    detail = dict(result, workload=workload, seed=seed, trace=trace, host=host)
    path = BUILD / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
