"""The per-layer ledger: metric names, units and how each is derived.

Every workload reports every metric; a layer the workload does not run
reads 0.  Serve-side throughput metrics are taken over the closed-loop
pass, queue-wait and publish metrics over the open-loop pass, and the
core/compare metrics over the whole traced round.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from common import median, tail

#: ``(module group, metric, unit, better)`` in ledger print order.
#: Counts of work done read "lower"; counts of work avoided "higher".
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("serve.stream", "parse.s", "s", "lower"),
    ("serve.stream", "parse.lines", "count", "lower"),
    ("serve.service", "serve.submit_s", "s", "lower"),
    ("serve.service", "serve.submit_us_p50", "us", "lower"),
    ("serve.service", "serve.submit_us_tail", "us", "lower"),
    ("serve.service", "serve.flush_s", "s", "lower"),
    ("serve.service", "serve.shard_busy_ratio", "ratio", "higher"),
    ("serve.qos", "serve.put_calls", "count", "lower"),
    ("serve.qos", "serve.beacons_per_put", "count", "higher"),
    ("serve.qos", "serve.put_blocked_s", "s", "lower"),
    ("serve.qos", "serve.queue_depth_max", "count", "lower"),
    ("serve.qos", "serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.qos", "serve.queue_wait_ms_tail", "ms", "lower"),
    ("serve.qos", "serve.get_idle_s", "s", "lower"),
    ("serve.qos", "serve.publish_s", "s", "lower"),
    ("serve.qos", "serve.bus_dropped", "count", "lower"),
    ("core.pipeline", "pipeline.on_beacon_s", "s", "lower"),
    ("core.pipeline", "confirm.s", "s", "lower"),
    ("core.timeseries", "collect.appends", "count", "lower"),
    ("core.timeseries", "collect.append_s", "s", "lower"),
    ("core.timeseries", "collect.window_calls", "count", "lower"),
    ("core.timeseries", "collect.window_s", "s", "lower"),
    ("core.detector", "detect.calls", "count", "lower"),
    ("core.detector", "detect.ms_p50", "ms", "lower"),
    ("core.detector", "detect.ms_tail", "ms", "lower"),
    ("core.detector", "detect.self_s", "s", "lower"),
    ("core.pairwise", "compare.s", "s", "lower"),
    ("core.pairwise", "compare.pairs", "count", "lower"),
    ("core.pairwise", "compare.pairs_exact", "count", "lower"),
    ("core.pairwise", "compare.pairs_pruned", "count", "higher"),
    ("core.pairwise", "compare.pairs_incremental", "count", "higher"),
    ("core.pairwise", "compare.pairs_abandoned", "count", "higher"),
    ("core.pairwise", "compare.envelope_slides", "count", "higher"),
    ("core.pairwise", "compare.cells", "count", "lower"),
    ("core.pairwise", "compare.cache_hit_ratio", "ratio", "higher"),
    ("core.pairwise", "compare.abandon_ratio", "ratio", "higher"),
    ("core.pairwise", "compare.batch_kernel_s", "s", "lower"),
    ("core.pairwise", "compare.batch_kernel_calls", "count", "lower"),
    ("core.pairwise", "compare.scalar_kernel_s", "s", "lower"),
    ("core.pairwise", "compare.scalar_kernel_calls", "count", "lower"),
    ("core.pairwise", "compare.native_s", "s", "lower"),
    ("core.pairwise", "compare.native_calls", "count", "lower"),
    ("core.pairwise", "compare.scalar_pair_share", "ratio", "lower"),
    ("sim", "sim.run_s", "s", "lower"),
    ("sim", "sim.channel_deliver_s", "s", "lower"),
    ("sim", "sim.mac_schedule_s", "s", "lower"),
    ("sim", "sim.beacons_transmitted", "count", "lower"),
    ("sim", "sim.loss_ratio", "ratio", "lower"),
    ("eval.runner", "eval.replay_s", "s", "lower"),
    ("eval.runner", "eval.heard_in_window_s", "s", "lower"),
    ("eval.runner", "eval.detection_rate", "ratio", "higher"),
    ("eval.runner", "eval.false_positive_rate", "ratio", "lower"),
    ("bench", "verdict.ms_p50", "ms", "lower"),
    ("bench", "verdict.ms_tail", "ms", "lower"),
    ("bench", "gen.lag_ms_p50", "ms", "lower"),
    ("bench", "gen.lag_ms_tail", "ms", "lower"),
    ("bench", "trace.overhead_ratio", "ratio", "lower"),
)

_CLOSED = ("closed",)
_OPEN = ("open",)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p50_tail(values: List[float], scale: float) -> Tuple[float, float]:
    if not values:
        return 0.0, 0.0
    return median(values) * scale, tail(values)[0] * scale


def layer_metrics(ledger, facts: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Derive every :data:`PER_LAYER` metric from a traced round.

    ``facts`` carries what the bench knows outside the ledger: pass
    walls, beacon counts, simulator totals, quality rates, the verdict
    latencies and generator lag of the untraced baseline round, and the
    traced/untraced overhead.
    """
    v: Dict[str, float] = {}
    lines, parse_s = ledger.calls("parse", _CLOSED)
    v["parse.s"], v["parse.lines"] = parse_s, lines
    submits, submit_s = ledger.calls("serve.submit", _CLOSED)
    v["serve.submit_s"] = submit_s
    v["serve.submit_us_p50"], v["serve.submit_us_tail"] = _p50_tail(
        ledger.samples("serve.submit", _CLOSED), 1e6
    )
    flushes, _ = ledger.span_times("serve.flush", _CLOSED)
    v["serve.flush_s"] = sum(flushes)
    shard_s = ledger.calls_by_thread("pipeline.on_beacon", "serve-shard", _CLOSED)
    v["serve.shard_busy_ratio"] = _ratio(
        shard_s, facts["shards"] * facts["closed_s"]
    )
    puts, _ = ledger.calls("qos.put", _CLOSED)
    v["serve.put_calls"] = puts
    v["serve.beacons_per_put"] = _ratio(submits, puts)
    v["serve.put_blocked_s"] = ledger.counter("qos.put_blocked_s", _CLOSED)
    v["serve.queue_depth_max"] = ledger.maximum("qos.put", _CLOSED)
    v["serve.queue_wait_ms_p50"], v["serve.queue_wait_ms_tail"] = _p50_tail(
        ledger.samples("qos.queue_wait", _OPEN), 1e3
    )
    v["serve.get_idle_s"] = ledger.counter("qos.get_idle_s", _OPEN)
    publishes, _ = ledger.span_times("qos.publish", _OPEN)
    v["serve.publish_s"] = sum(publishes)
    v["serve.bus_dropped"] = facts["bus_dropped"]

    _, v["pipeline.on_beacon_s"] = ledger.calls(
        "pipeline.on_beacon", (facts["replay_phase"],)
    )
    v["confirm.s"] = ledger.calls("confirm")[1] + ledger.calls("confirm.density")[1]
    v["collect.appends"], v["collect.append_s"] = ledger.calls("collect.append")
    v["collect.window_calls"], v["collect.window_s"] = ledger.calls("collect.window")

    detects, detect_self = ledger.span_times("detect")
    v["detect.calls"] = len(detects)
    v["detect.ms_p50"], v["detect.ms_tail"] = _p50_tail(detects, 1e3)
    v["detect.self_s"] = detect_self
    compares, _ = ledger.span_times("compare")
    v["compare.s"] = sum(compares)
    pairs = ledger.counter("compare.pairs")
    v["compare.pairs"] = pairs
    for field in ("exact", "pruned", "incremental", "abandoned"):
        v[f"compare.pairs_{field}"] = ledger.counter(f"compare.{field}")
    v["compare.envelope_slides"] = ledger.counter("compare.envelope_updates")
    v["compare.cells"] = ledger.counter("compare.cells")
    v["compare.cache_hit_ratio"] = _ratio(ledger.counter("compare.cache_hits"), pairs)
    attempts = ledger.counter("kernel.abandon.pairs")
    v["compare.abandon_ratio"] = _ratio(v["compare.pairs_abandoned"], attempts)
    batch, _ = ledger.span_times("kernel.batch")
    v["compare.batch_kernel_s"], v["compare.batch_kernel_calls"] = sum(batch), len(batch)
    scalar_calls, scalar_s = ledger.calls("kernel.scalar")
    v["compare.scalar_kernel_s"], v["compare.scalar_kernel_calls"] = scalar_s, scalar_calls
    native, _ = ledger.span_times("kernel.native")
    v["compare.native_s"], v["compare.native_calls"] = sum(native), len(native)
    kernel_pairs = scalar_calls + ledger.counter("kernel.batch.pairs") + attempts
    v["compare.scalar_pair_share"] = _ratio(scalar_calls, kernel_pairs)

    runs, _ = ledger.span_times("sim.run")
    v["sim.run_s"] = sum(runs)
    v["sim.channel_deliver_s"] = ledger.calls("sim.deliver")[1]
    v["sim.mac_schedule_s"] = ledger.calls("sim.mac")[1]
    v["sim.beacons_transmitted"] = facts["sim_transmitted"]
    v["sim.loss_ratio"] = facts["sim_loss"]
    replays, _ = ledger.span_times("eval.replay")
    v["eval.replay_s"] = sum(replays)
    v["eval.heard_in_window_s"] = ledger.calls("eval.heard")[1]
    v["eval.detection_rate"] = facts["detection_rate"]
    v["eval.false_positive_rate"] = facts["false_positive_rate"]
    v["verdict.ms_p50"], v["verdict.ms_tail"] = _p50_tail(facts["verdict_ms"], 1.0)
    v["gen.lag_ms_p50"] = facts["lag_p50_ms"]
    v["gen.lag_ms_tail"] = facts["lag_tail_ms"]
    v["trace.overhead_ratio"] = facts["overhead_ratio"]
    return {name: (float(v[name]), unit) for _, name, unit, _ in PER_LAYER}


def design_checks(workload: str, v: Dict[str, Tuple[float, str]], facts, ledger) -> List[str]:
    """What the ledger says about each workload's intended bottleneck."""
    val = {name: value for name, (value, _) in v.items()}
    lines = []
    if workload == "fleet-ingest":
        # Untraced: the same beacons through the pipelines alone (serial
        # replay) against the closed-loop service wall.
        pipeline_share = facts["replay_s"] / facts["service_s"]
        lines.append(
            f"design: serve layers take {1.0 - pipeline_share:.1%} of the "
            f"closed-loop wall; the pipelines alone need {pipeline_share:.1%}"
        )
    else:
        for phase, what in (("cell", "exact replay"), ("pipeline", "in-vehicle replay")):
            compares = sum(ledger.span_times("compare", (phase,))[0])
            detects = sum(ledger.span_times("detect", (phase,))[0])
            lines.append(
                f"design: compare is {_ratio(compares, detects):.1%} of detect "
                f"time in the {what}"
            )
        lines.append(
            "design: in-vehicle pairs pruned = "
            f"{ledger.counter('compare.pruned', ('pipeline',)):g}, abandoned = "
            f"{ledger.counter('compare.abandoned', ('pipeline',)):g}, envelope "
            f"slides = {ledger.counter('compare.envelope_updates', ('pipeline',)):g}"
        )
    lines.append(
        f"design: scalar kernel share of pair runs = {val['compare.scalar_pair_share']:.4f}"
    )
    return lines


def print_ledger(workload: str, v: Dict[str, Tuple[float, str]]) -> None:
    group = None
    for module, name, _, _ in PER_LAYER:
        if module != group:
            group = module
            print(f"[{workload}] {module}")
        value, unit = v[name]
        print(f"    {name:<28} {value:>14.6g} {unit}")
