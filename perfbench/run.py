"""The repo's benchmark: one workload per invocation, end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-unique-long --seed 1 --seconds 8 --trace 0

``--trace 0`` sets up the workload ``SETUP_REPEATS`` times (reporting the
median as ``setup_s``); after each set-up it measures an equal share of the
``--seconds`` timed phase untraced and checks the outputs outside the timed
phase.  It reports every gated end-to-end metric over the merged phases,
corrected to a reference host speed (``hostclock.py``); the record also
keeps every figure as measured.
``--trace 1`` additionally repeats the last share with layer spans installed
and reports the per-layer table, including the tracing overhead against the
untraced share it repeats.

A human-readable table and one provenance record go to standard output; the
last line is the result JSON (``correct``, ``attempted``, ``failed``,
``metrics``).  The record and, when traced, the spans are also written under
``.perfbench_out/``.  METRICS.md defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 2

#: Unit of every end-to-end metric, in table order.  BENCHMARK.json gates a
#: subset; the p99 columns are printed and recorded but not gated, because
#: their run-to-run spread on a shared 2-core box exceeds any allowed bound.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ttft_p50_ms": "ms",
    "ttft_p99_ms": "ms",
    "tpot_p50_ms": "ms",
    "tpot_p99_ms": "ms",
    "slo_attain_frac": "ratio",
    "tok_s": "tok/s",
    "ntp_tok_s": "tok/s",
    "problems_s": "problems/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def repeats_hold(measurements, checks) -> None:
    """Every repetition of one key, in any measurement, gives the first one's counts."""
    first = {}
    for m in measurements:
        for key, counts in m.reps:
            if key in first:
                checks.expect(counts == first[key], f"{key} counts changed on a repeat: {counts} != {first[key]}")
            else:
                first[key] = counts


def scoped(m, part: int):
    """Key ``m``'s repetitions by the share that made them (shares draw different inputs)."""
    m.reps = [(f"{part}/{key}", counts) for key, counts in m.reps]
    return m


def overhead(workload, untraced: dict, traced: dict) -> float:
    """Relative slowdown of the headline metric under tracing."""
    name, better = workload.headline
    if better == "lower":
        return traced[name] / untraced[name] - 1.0
    return untraced[name] / traced[name] - 1.0


def main(argv=None) -> int:
    # One BLAS thread: the model's matrices (width 48) gain nothing from a
    # second one, and on a 2-core box a second thread contends with the
    # benchmark's own Python thread, which made run-to-run spread wider.  Set
    # before numpy is first imported (the workload imports below).
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from arith import median, peak_rss_mb
    from hostclock import HostClock
    from layers import PER_LAYER, layer_metrics
    from provenance import provenance
    from spans import Tracer, install_layer_spans
    from workloads import WORKLOADS, Checks, end_to_end, merge, pipeline_config

    gates = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    config = workload.config

    # Each set-up is followed by its share of the timed phase, so one run
    # samples the machine at two moments several seconds apart; each share
    # takes its own part of the run's inputs (see the workloads' ``setup``).
    # One work clock spans the run, so its host factor pools the kernel runs
    # of both timed phases.
    part_seconds = args.seconds / SETUP_REPEATS
    clock = HostClock()
    checks = Checks()
    setup_times, parts = [], []
    state = None
    for part in range(SETUP_REPEATS):
        # The previous set-up's pipeline is freed before the next is built,
        # or peak RSS would depend on when the collector runs.
        state = None
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(args.seed, part, SETUP_REPEATS, part_seconds)
        setup_times.append(time.perf_counter() - start)
        # Set-up garbage is collected before timing, not during it.
        gc.collect()
        clock.begin()
        parts.append(scoped(workload.measure(state, part_seconds, clock), part))
        workload.check(state, parts[-1], checks)
    measured = merge(parts)
    factor = clock.factor
    metrics = end_to_end(measured, config.slo_ttft, config.slo_tpot, factor)
    # Set-up time is reported as measured: training slows far less under
    # load than the kernel does, so the factor would add spread, not remove it.
    metrics["setup_s"] = median(setup_times)
    metrics["peak_rss_mb"] = peak_rss_mb()
    as_measured = end_to_end(measured, config.slo_ttft, config.slo_tpot)

    measurements = [measured]
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_layer_spans(tracer)
        try:
            clock.begin()
            traced = scoped(workload.measure(state, part_seconds, clock, tracer), SETUP_REPEATS - 1)
        finally:
            tracer.uninstall()
        measurements.append(traced)
        slowdown = overhead(
            workload,
            end_to_end(parts[-1], config.slo_ttft, config.slo_tpot, factor),
            end_to_end(traced, config.slo_ttft, config.slo_tpot, factor),
        )
        kv_block = traced.extra.get("kv_pool", {}).get("block_size")
        cfg = pipeline_config()
        block_nbytes = 2 * cfg.num_layers * cfg.model_dim * kv_block * 4 if kv_block else None
        report = layer_metrics(tracer, traced, block_nbytes, slowdown)
        units = PER_LAYER
    else:
        report = metrics
        units = END_TO_END
    gated = [entry["name"] for entry in gates["per_layer" if args.trace else "end_to_end"]]
    repeats_hold(measurements, checks)

    failed = len(checks.failures)
    record = {
        "provenance": provenance(ROOT, args.workload, args.seed, config),
        "seconds": args.seconds,
        "setup_times_s": setup_times,
        "host_factor": factor,
        "kernel_runs": clock.kernel_runs,
        "end_to_end": metrics,
        "end_to_end_as_measured": as_measured,
        "failed_frac": failed / checks.attempted,
        "failures": checks.failures,
        "counts": [[key, counts] for key, counts in measured.reps[:1]],
        "tok_rates_as_measured": measured.tok_rates,
    }
    if tracer is not None:
        record["per_layer"] = report
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.write(str(out_dir / f"{stem}.spans.json.gz"))

    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, unit in units.items():
        print(f"  {name:<40} {report[name]:>14.4f} {unit}")
    print(f"  {'failed_frac':<40} {failed / checks.attempted:>14.4f} ratio ({failed}/{checks.attempted})")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": float(report[name]), "unit": units[name]} for name in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
