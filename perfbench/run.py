"""Repository benchmark entry point.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fleet-ingest --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs one untraced round as the overhead baseline, then
one traced round, prints the per-layer ledger grouped by module, and
writes the span dump to ``.bench_build/perfbench/``.  The last line of
standard output is always the JSON result; any failure to produce a
valid result exits non-zero without printing one.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from common import BUILD, BenchError, bootstrap, emit, host_block, median, tail
from layers import design_checks, layer_metrics, print_ledger
from specs import FULL, TINY, offered_rates, rounds_for
from tracing import Ledger


def _fleet(args, spec, rate, host) -> None:
    import workloads as w

    setup = w.setup_times(args.workload, args.tiny)
    try:
        _fleet_rounds(args, spec, rate, host, setup)
    finally:
        w.input_path(args.workload, args.seed).unlink(missing_ok=True)


def _fleet_rounds(args, spec, rate, host, setup) -> None:
    import loadgen
    import workloads as w

    # Untimed warm-up: lazy imports, the native kernel and first-call
    # numpy paths are paid before any timed round.
    w.fleet_round(args.workload, TINY[args.workload], args.seed, rate)
    notes = [
        f"{args.workload}: offered open-loop rate {rate:g} beacons/s, "
        f"{loadgen.SHARDS} shards"
    ]
    if not args.trace:
        # Latency is not gated (see README), so one open-loop pass, in
        # the middle round, is enough; the closed loop runs every round.
        count = rounds_for(spec, args.seconds)
        rounds = [
            w.fleet_round(args.workload, spec, args.seed, rate,
                          write_input=i == 0, open_pass=i == count // 2)
            for i in range(count)
        ]
        lag_p50, lag_tail, lag_q = w.check_lag(rounds)
        latencies = [v for r in rounds for v in r.latencies_ms]
        tail_ms, q, n = tail(latencies)
        dr, fpr = w.fleet_quality(rounds[0].reference)
        notes += [
            f"{args.workload}: rounds = {len(rounds)}, beacons/round = {rounds[0].beacons}",
            f"{args.workload}: closed-loop wall throughput = "
            f"{rounds[0].beacons * len(rounds) / sum(r.closed_s for r in rounds):.6g} "
            f"beacons/s (not gated)",
            f"{args.workload}: verdict latency p50 = {median(latencies):.4g} ms, "
            f"p{q:g} = {tail_ms:.4g} ms of {n} verdicts (not gated)",
            f"{args.workload}: gen.lag_ms p50 = {lag_p50:.4g}, p{lag_q:g} = {lag_tail:.4g}",
            f"{args.workload}: detection_rate = {dr:.4f}, false_positive_rate = {fpr:.4f}",
        ]
        attempted = sum(r.attempted for r in rounds)
        failed = sum(r.failed for r in rounds)
        emit(args.label, args.seed, 0, w.fleet_metrics(rounds, setup),
             attempted, failed, notes, host)
        return
    baseline = w.fleet_round(args.workload, spec, args.seed, rate)
    lag_p50, lag_tail, _ = w.check_lag([baseline])
    ledger = Ledger().install()
    try:
        traced = w.fleet_round(
            args.workload, spec, args.seed, rate, ledger, write_input=False
        )
    finally:
        ledger.uninstall()
    dr, fpr = w.fleet_quality(traced.reference)
    facts = dict(
        shards=loadgen.SHARDS, closed_s=traced.closed_s, bus_dropped=traced.dropped,
        replay_s=median(baseline.replay_s), service_s=baseline.closed_s,
        replay_phase="replay", sim_transmitted=0, sim_loss=0.0,
        detection_rate=dr, false_positive_rate=fpr,
        lag_p50_ms=lag_p50, lag_tail_ms=lag_tail, verdict_ms=baseline.latencies_ms,
        overhead_ratio=traced.timed_s / baseline.timed_s - 1.0,
    )
    _finish_traced(args, ledger, facts, baseline.attempted + traced.attempted,
                   baseline.failed + traced.failed, notes, host)


def _cell(args, spec, host) -> None:
    import workloads as w

    setup = w.setup_times(args.workload, args.tiny)
    # Untimed warm-up, as for the fleet.
    w.cell_round(TINY[args.workload], w.scenario_seed(args.seed, 0))
    notes = [
        f"{args.workload}: density {spec.density:g} vhls/km, "
        f"{spec.verifiers} verifiers per cell, in-vehicle period "
        f"{w.IN_VEHICLE_PERIOD_S:g} s up to t = {spec.pipeline_end_s:g} s"
    ]
    if not args.trace:
        rounds, attempted, failed = [], 0, 0
        for index in range(rounds_for(spec, args.seconds)):
            cell, result = w.cell_round(spec, w.scenario_seed(args.seed, index))
            a, f = w.cell_failures(cell, result, spec)
            rounds.append(cell)
            attempted += a
            failed += f
            del result
        verdict_ms = [v for r in rounds for v in r.verdict_ms]
        tail_ms, q, n = tail(verdict_ms)
        dr, fpr = w.cell_quality(rounds)
        notes += [
            f"{args.workload}: rounds (scenarios) = {len(rounds)}, "
            f"sim_s median = {median([r.sim_s for r in rounds]):.4g}",
            f"{args.workload}: exact-replay wall throughput = "
            f"{sum(r.beacons for r in rounds) / sum(r.replay_s for r in rounds):.6g} "
            f"beacons/s (not gated)",
            f"{args.workload}: verdict latency p50 = {median(verdict_ms):.4g} ms, "
            f"p{q:g} = {tail_ms:.4g} ms of {n} in-vehicle verdicts (not gated)",
            f"{args.workload}: detection_rate = {dr:.4f}, false_positive_rate = {fpr:.4f}",
        ]
        emit(args.label, args.seed, 0, w.cell_metrics(rounds, setup),
             attempted, failed, notes, host)
        return
    seed = w.scenario_seed(args.seed, 0)
    baseline, result = w.cell_round(spec, seed)
    a0, f0 = w.cell_failures(baseline, result, spec)
    del result
    ledger = Ledger().install()
    try:
        traced, result = w.cell_round(spec, seed, ledger)
    finally:
        ledger.uninstall()
    a1, f1 = w.cell_failures(traced, result, spec)
    dr, fpr = w.cell_quality([traced])
    facts = dict(
        shards=1, closed_s=0.0, bus_dropped=0, replay_phase="pipeline",
        sim_transmitted=traced.sim_transmitted, sim_loss=traced.sim_loss,
        detection_rate=dr, false_positive_rate=fpr,
        lag_p50_ms=0.0, lag_tail_ms=0.0, verdict_ms=baseline.verdict_ms,
        overhead_ratio=traced.timed_s / baseline.timed_s - 1.0,
    )
    _finish_traced(args, ledger, facts, a0 + a1, f0 + f1, notes, host)


def _finish_traced(args, ledger, facts, attempted, failed, notes, host) -> None:
    metrics = layer_metrics(ledger, facts)
    path = BUILD / f"spans-{args.label}-seed{args.seed}.jsonl"
    spans = ledger.dump(path)
    print_ledger(args.workload, metrics)
    notes = notes + design_checks(args.workload, metrics, facts, ledger) + [
        f"{args.workload}: {spans} spans written to {path.relative_to(BUILD.parent.parent)}",
        f"{args.workload}: trace.overhead_ratio = {facts['overhead_ratio']:.4f} "
        f"(traced round vs untraced round)",
    ]
    emit(args.label, args.seed, 1, metrics, attempted, failed, notes, host,
         listed=False)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-scale inputs for the self-check")
    args = parser.parse_args(argv)
    # Names the saved result and span files, so tiny self-check runs
    # never overwrite a full run's results.
    args.label = args.workload + ("-tiny" if args.tiny else "")
    try:
        bootstrap()
        specs = TINY if args.tiny else FULL
        if args.workload not in specs:
            raise BenchError(f"unknown workload {args.workload!r}")
        spec = specs[args.workload]
        host = host_block()
        if args.workload == "paper-cell":
            _cell(args, spec, host)
        else:
            rates = offered_rates()
            if args.workload not in rates:
                raise BenchError(f"no offered rate for {args.workload} in BENCHMARK.json")
            _fleet(args, spec, rates[args.workload], host)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:  # any crash is a failed run, never a result
        traceback.print_exc()
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
