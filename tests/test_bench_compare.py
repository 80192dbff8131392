"""Tests for repro.bench_compare — the benchmark regression gate."""

import json

import pytest

from repro.bench_compare import compare_payloads, main


def payload(**configs):
    """A miniature BENCH_*.json-shaped payload."""
    return {
        "workload": {"n_series": 24, "length": 200},
        "configs": configs,
    }


BASELINE = payload(
    full={
        "wall_ms": 100.0,
        "pairs_per_s": 5000.0,
        "attributed_pct": 60.0,
        "dtw_cells": 1_000_000,
        "pairs": 276,
        "detections": 3,
    }
)


def by_path(results):
    return {r.path: r for r in results}


class TestComparePayloads:
    def test_identical_payloads_pass(self):
        results = compare_payloads(BASELINE, BASELINE)
        assert not any(r.failed for r in results)

    def test_cost_metric_growth_regresses(self):
        current = payload(
            full=dict(BASELINE["configs"]["full"], dtw_cells=1_300_000)
        )
        results = by_path(compare_payloads(BASELINE, current))
        entry = results["configs.full.dtw_cells"]
        assert entry.failed
        assert entry.change == pytest.approx(0.30)

    def test_cost_metric_shrink_is_a_win(self):
        current = payload(
            full=dict(BASELINE["configs"]["full"], dtw_cells=500_000)
        )
        results = by_path(compare_payloads(BASELINE, current))
        assert results["configs.full.dtw_cells"].verdict == "ok"

    def test_quality_metric_drop_regresses(self):
        current = payload(
            full=dict(BASELINE["configs"]["full"], attributed_pct=30.0)
        )
        results = by_path(compare_payloads(BASELINE, current))
        assert results["configs.full.attributed_pct"].failed

    def test_invariant_metric_fails_both_directions(self):
        for pairs in (100, 400):
            current = payload(
                full=dict(BASELINE["configs"]["full"], pairs=pairs)
            )
            results = by_path(compare_payloads(BASELINE, current))
            assert results["configs.full.pairs"].failed

    def test_within_tolerance_passes(self):
        current = payload(
            full=dict(BASELINE["configs"]["full"], dtw_cells=1_050_000)
        )
        results = by_path(compare_payloads(BASELINE, current))
        assert results["configs.full.dtw_cells"].verdict == "ok"

    def test_timing_skipped_by_default_and_gated_on_request(self):
        current = payload(
            full=dict(BASELINE["configs"]["full"], wall_ms=1e9)
        )
        results = by_path(compare_payloads(BASELINE, current))
        assert results["configs.full.wall_ms"].verdict == "info"
        results = by_path(
            compare_payloads(BASELINE, current, timing_tolerance=0.5)
        )
        assert results["configs.full.wall_ms"].failed

    def test_unknown_leaves_are_informational(self):
        base = payload(full={"novel_metric": 10.0})
        current = payload(full={"novel_metric": 99.0})
        results = by_path(compare_payloads(base, current))
        entry = results["configs.full.novel_metric"]
        assert entry.verdict == "info"
        assert not entry.failed

    def test_missing_leaf_reported(self):
        current = payload(full={"wall_ms": 100.0})
        results = by_path(compare_payloads(BASELINE, current))
        assert results["configs.full.dtw_cells"].verdict == "MISSING"

    def test_extra_current_leaves_ignored(self):
        current = payload(
            full=dict(BASELINE["configs"]["full"], brand_new=1.0)
        )
        results = compare_payloads(BASELINE, current)
        assert "configs.full.brand_new" not in {r.path for r in results}

    def test_per_metric_override(self):
        current = payload(
            full=dict(BASELINE["configs"]["full"], dtw_cells=1_050_000)
        )
        results = by_path(
            compare_payloads(
                BASELINE, current, overrides={"dtw_cells": 0.01}
            )
        )
        assert results["configs.full.dtw_cells"].failed

    def test_zero_baseline_handled(self):
        base = payload(full={"attributed_pct": 0})
        grown = payload(full={"attributed_pct": 50})
        shrunk_cost = compare_payloads(
            payload(full={"dtw_cells": 0}), payload(full={"dtw_cells": 5})
        )
        assert not any(r.failed for r in compare_payloads(base, grown))
        assert any(r.failed for r in shrunk_cost)

    def test_booleans_are_not_numeric_leaves(self):
        base = payload(full={"cached": True, "pairs": 10})
        results = compare_payloads(base, base)
        assert {r.key for r in results} >= {"pairs"}
        assert "cached" not in {r.key for r in results}


class TestMainGate:
    def write(self, directory, name, data):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / name).write_text(json.dumps(data), encoding="utf-8")

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        self.write(tmp_path / "base", "BENCH_pairwise.json", BASELINE)
        self.write(tmp_path / "cur", "BENCH_pairwise.json", BASELINE)
        code = main(
            [
                "--baseline-dir", str(tmp_path / "base"),
                "--current-dir", str(tmp_path / "cur"),
            ]
        )
        assert code == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_perturbed_baseline_exits_nonzero(self, tmp_path, capsys):
        perturbed = payload(
            full=dict(BASELINE["configs"]["full"], dtw_cells=2_000_000)
        )
        self.write(tmp_path / "base", "BENCH_pairwise.json", BASELINE)
        self.write(tmp_path / "cur", "BENCH_pairwise.json", perturbed)
        code = main(
            [
                "--baseline-dir", str(tmp_path / "base"),
                "--current-dir", str(tmp_path / "cur"),
            ]
        )
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_missing_current_artifact_fails(self, tmp_path, capsys):
        self.write(tmp_path / "base", "BENCH_pairwise.json", BASELINE)
        code = main(
            [
                "--baseline-dir", str(tmp_path / "base"),
                "--current-dir", str(tmp_path / "cur"),
            ]
        )
        assert code == 1
        assert "missing current artifact" in capsys.readouterr().err

    def test_no_baselines_fails_with_hint(self, tmp_path, capsys):
        code = main(
            [
                "--baseline-dir", str(tmp_path / "base"),
                "--current-dir", str(tmp_path / "cur"),
            ]
        )
        assert code == 1
        assert "--update" in capsys.readouterr().err

    def test_update_promotes_current_to_baseline(self, tmp_path):
        self.write(tmp_path / "cur", "BENCH_pairwise.json", BASELINE)
        code = main(
            [
                "--baseline-dir", str(tmp_path / "base"),
                "--current-dir", str(tmp_path / "cur"),
                "--update",
            ]
        )
        assert code == 0
        promoted = json.loads(
            (tmp_path / "base" / "BENCH_pairwise.json").read_text()
        )
        assert promoted == BASELINE

    def test_only_filter_limits_artifacts(self, tmp_path):
        self.write(tmp_path / "base", "BENCH_pairwise.json", BASELINE)
        self.write(tmp_path / "base", "BENCH_other.json", BASELINE)
        self.write(tmp_path / "cur", "BENCH_pairwise.json", BASELINE)
        # BENCH_other.json has no current artifact, but --only skips it.
        code = main(
            [
                "--baseline-dir", str(tmp_path / "base"),
                "--current-dir", str(tmp_path / "cur"),
                "--only", "BENCH_pairwise.json",
            ]
        )
        assert code == 0


class TestHistory:
    def write(self, directory, name, data):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / name).write_text(json.dumps(data), encoding="utf-8")

    def test_append_history_flattens_numeric_leaves(self, tmp_path):
        from repro.bench_compare import append_history

        self.write(tmp_path / "cur", "BENCH_pairwise.json", BASELINE)
        history = tmp_path / "history" / "BENCH_history.jsonl"
        appended = append_history(
            history,
            tmp_path / "cur",
            ["BENCH_pairwise.json", "BENCH_missing.json"],
            timestamp="2026-08-07T00:00:00Z",
        )
        assert appended == 1  # the missing artifact is skipped
        (line,) = history.read_text().strip().splitlines()
        entry = json.loads(line)
        assert entry["artifact"] == "BENCH_pairwise.json"
        assert entry["ts"] == "2026-08-07T00:00:00Z"
        assert entry["metrics"]["configs.full.wall_ms"] == 100.0
        assert entry["metrics"]["workload.n_series"] == 24

    def test_append_history_appends_not_truncates(self, tmp_path):
        from repro.bench_compare import append_history

        self.write(tmp_path / "cur", "BENCH_pairwise.json", BASELINE)
        history = tmp_path / "BENCH_history.jsonl"
        for stamp in ("a", "b"):
            append_history(
                history, tmp_path / "cur", ["BENCH_pairwise.json"],
                timestamp=stamp,
            )
        stamps = [
            json.loads(line)["ts"]
            for line in history.read_text().strip().splitlines()
        ]
        assert stamps == ["a", "b"]

    def test_cli_history_mode_records_current_artifacts(
        self, tmp_path, capsys
    ):
        self.write(tmp_path / "cur", "BENCH_pairwise.json", BASELINE)
        self.write(tmp_path / "cur", "BENCH_other.json", BASELINE)
        history = tmp_path / "BENCH_history.jsonl"
        code = main(
            [
                "--current-dir", str(tmp_path / "cur"),
                "--history", str(history),
            ]
        )
        assert code == 0
        assert "appended 2 entries" in capsys.readouterr().out
        artifacts = [
            json.loads(line)["artifact"]
            for line in history.read_text().strip().splitlines()
        ]
        assert artifacts == ["BENCH_other.json", "BENCH_pairwise.json"]

    def test_cli_history_mode_respects_only(self, tmp_path, capsys):
        self.write(tmp_path / "cur", "BENCH_pairwise.json", BASELINE)
        self.write(tmp_path / "cur", "BENCH_other.json", BASELINE)
        history = tmp_path / "BENCH_history.jsonl"
        code = main(
            [
                "--current-dir", str(tmp_path / "cur"),
                "--history", str(history),
                "--only", "BENCH_pairwise.json",
            ]
        )
        assert code == 0
        assert "appended 1 entry" in capsys.readouterr().out

    def test_cli_history_mode_fails_without_artifacts(
        self, tmp_path, capsys
    ):
        code = main(
            [
                "--current-dir", str(tmp_path / "cur"),
                "--history", str(tmp_path / "BENCH_history.jsonl"),
            ]
        )
        assert code == 1
        assert "no BENCH_*.json artifacts" in capsys.readouterr().err


class TestWatchRules:
    def test_watch_counters_are_deterministic_invariants(self):
        base = {
            "watch": {
                "ticks": 30, "series": 51,
                "tsdb_samples": 1467, "drift_alerts": 0,
            },
            "timing": {"watched_cpu_ms": 37.8},
        }
        drifted = {
            "watch": {
                "ticks": 30, "series": 51,
                "tsdb_samples": 1467, "drift_alerts": 2,
            },
            "timing": {"watched_cpu_ms": 37.8},
        }
        results = by_path(compare_payloads(base, drifted))
        alerts = results["watch.drift_alerts"]
        assert alerts.verdict == "REGRESSED"  # invariant broke
        assert alerts.failed
        assert results["watch.ticks"].verdict == "ok"

    def test_watched_cpu_is_a_timing_leaf(self):
        base = {"timing": {"watched_cpu_ms": 10.0}}
        slower = {"timing": {"watched_cpu_ms": 50.0}}
        # Informational by default (host noise)...
        results = by_path(compare_payloads(base, slower))
        assert results["timing.watched_cpu_ms"].verdict == "info"
        assert not results["timing.watched_cpu_ms"].failed
        # ...but gated when a timing tolerance is requested.
        results = by_path(
            compare_payloads(base, slower, timing_tolerance=0.25)
        )
        assert results["timing.watched_cpu_ms"].verdict == "REGRESSED"
