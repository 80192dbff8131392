"""Tiny-size self-check of the repository benchmark.

Runs every workload at seconds-scale sizes (``--tiny``), untraced and
traced, and checks that every metric named in ``BENCHMARK.json`` prints
with its unit, that every oracle ran and passed, that the oracles do
catch a wrong verdict, and that the benchmark refuses to run without
the program's sources.  Run from the root of the checkout::

    python3 -m pytest -q perfbench/test_selfcheck.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from specs import WORKLOADS  # noqa: E402

#: Per-layer metrics that must be non-zero in a workload's traced run.
LOADED = {
    "fleet-ingest": (
        "parse.lines", "serve.put_calls", "serve.shard_busy_ratio",
        "serve.queue_wait_ms_p50", "pipeline.on_beacon_s", "verdict.ms_p50",
    ),
    "paper-cell": (
        "sim.run_s", "eval.replay_s", "compare.pairs_pruned",
        "compare.pairs_abandoned", "compare.envelope_slides",
        "compare.scalar_pair_share", "verdict.ms_p50",
    ),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME_RE.match(metric["name"]) and UNIT_RE.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for _, name, unit, better in PER_LAYER
    ]
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_and_every_oracle_passes(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    text = "\n".join(lines[:-1])
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert re.search(
            rf"{re.escape(metric['name'])}\s.*\s{re.escape(metric['unit'])}$",
            text, re.M,
        ), metric["name"]
        if not trace:
            assert reported["value"] > 0, metric["name"]
    # Each workload loads the layers it is there for.
    for name in LOADED[workload] if trace else ():
        assert result["metrics"][name]["value"] > 0, name
    assert "host: {" in text and "failed_ratio = 0 " in text


def test_oracles_catch_a_wrong_verdict():
    from common import bootstrap

    bootstrap()
    import loadgen
    from repro.serve.stream import synthetic_fleet

    events = synthetic_fleet(observers=2, legit=2, sybil=2, duration_s=22.0)
    _, reference = loadgen.serial_replay(events)
    result = loadgen.closed_loop(iter(events))
    assert loadgen.verdict_failures(result, reference, len(events))[1] == 0
    tampered = {k: v[:-1] for k, v in reference.items()}
    assert loadgen.verdict_failures(result, tampered, len(events))[1] == len(tampered)


def test_cell_oracles_catch_wrong_flags():
    from common import bootstrap

    bootstrap()
    import workloads
    from specs import TINY

    spec = TINY["paper-cell"]
    cell, result = workloads.cell_round(spec, workloads.scenario_seed(3, 0))
    attempted, failed = workloads.cell_failures(cell, result, spec)
    assert attempted == len(cell.flags) + spec.verifiers and failed == 0
    node, period, _ = cell.flags[0]
    cell.flags[0] = (node, period, frozenset({"not-an-identity"}))
    verifier, t, density, _ = cell.pipeline_flags[-1]
    cell.pipeline_flags[-1] = (verifier, t, density, frozenset({"not-an-identity"}))
    assert workloads.cell_failures(cell, result, spec) == (attempted, 2)


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
