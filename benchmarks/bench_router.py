"""Sharded serving — aggregate throughput and TTFT vs. worker count.

Not a paper table: this bench tracks the multi-process serving tentpole.
The shared-preamble workload (N requests over K distinct task preambles,
the rtllm/vgen serving shape reused from ``bench_throughput``) is served
through the :class:`~repro.serving.Router` at 1, 2 and 4 worker replicas
(1 and 2 in smoke mode — CI's job runs the 2-worker configuration under a
hard timeout), with prefix-affinity routing steering same-preamble requests
onto the replica whose prefix cache already holds the preamble K/V.

Reported per worker count:

* aggregate requests/sec and tokens/sec (submit of the first request to the
  last settlement);
* p50/p95 TTFT observed at the router (submission to first delivered
  token — includes routing, the pipe hop, queueing and prefill);
* fleet prefix-reuse counters, to show affinity actually colocates.

Assertions:

* the single-worker router is **token-identical** to the in-process
  :class:`~repro.serving.ServingEngine` on the same workload — sharding is
  a deployment change, not a behaviour change;
* with at least two effective CPU cores, aggregate req/s **strictly
  increases** from 1 worker to the best multi-worker configuration.  On a
  single-core host the processes timeshare one core and scaling is
  physically impossible, so the assertion is skipped (loudly).

Results land in ``benchmarks/results/router.json`` and, when
``REPRO_BENCH_RECORD=1``, the scaling metrics append to the ``trend.json``
ledger.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.models.generation import GenerationConfig
from repro.serving import PrefixCache, Router, RouterConfig

from bench_throughput import SHARED_PREFIX_PREAMBLES, _shared_prefix_workload
from conftest import SMOKE, emit_bench_json
from trend import append_trend_entry

_MODE = "smoke" if SMOKE else "default"

WORKER_COUNTS = (1, 2) if SMOKE else (1, 2, 4)
NUM_REQUESTS = 8 if SMOKE else 16
MAX_NEW_TOKENS = 16 if SMOKE else 32


def _effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _worker_factory(pipeline):
    """Fork-safe factory: each worker builds a fresh engine + its own cache."""

    def factory():
        return pipeline.engine_for("ours", prefix_cache=PrefixCache(max_tokens=4096))

    return factory


def _run_router(pipeline, prompts_ids, config, num_workers):
    """Serve the workload through ``num_workers`` replicas; return measurements."""
    router = Router(
        _worker_factory(pipeline),
        config=RouterConfig(
            num_workers=num_workers,
            start_method="fork",
            preamble_tokens=16,
            imbalance_threshold=8,
        ),
    )
    with router:
        started = time.perf_counter()
        request_ids = [
            router.submit(prompt, config=config, request_id=f"w{num_workers}-r{index}")
            for index, prompt in enumerate(prompts_ids)
        ]
        results = router.drain(timeout=900)
        elapsed = time.perf_counter() - started
        ttfts = []
        for request_id in request_ids:
            record = router.request_record(request_id)
            assert record.first_token_at is not None
            ttfts.append(record.first_token_at - record.submitted_at)
        reuse = router.prefix_cache_stats()["aggregate"]
    total_tokens = sum(len(results[request_id].token_ids) for request_id in request_ids)
    return {
        "num_workers": num_workers,
        "requests_per_second": len(request_ids) / elapsed,
        "tokens_per_second": total_tokens / elapsed,
        "p50_ttft": float(np.percentile(ttfts, 50)),
        "p95_ttft": float(np.percentile(ttfts, 95)),
        "elapsed_seconds": elapsed,
        "prompt_tokens_reused": reuse.get("prompt_tokens_reused", 0),
        "prefix_hit_rate": reuse.get("hit_rate", 0.0),
    }, results


@pytest.mark.benchmark(group="serving-router")
def test_router_scaling(benchmark, trained_pipeline, rtllm_subset, vgen_subset):
    """Aggregate req/s and p95 TTFT at 1/2(/4) workers on shared preambles."""
    prompts = _shared_prefix_workload(trained_pipeline, rtllm_subset, vgen_subset, NUM_REQUESTS)
    prompts_ids = [trained_pipeline.tokenizer.encode(p, add_bos=True) for p in prompts]
    config = GenerationConfig.greedy_config(MAX_NEW_TOKENS)

    # In-process reference for the identity assertion.
    engine = trained_pipeline.engine_for("ours", prefix_cache=PrefixCache(max_tokens=4096))
    for index, prompt in enumerate(prompts_ids):
        engine.submit(prompt, config=config, request_id=f"w1-r{index}")
    reference = engine.run()

    measurements = {}
    for num_workers in WORKER_COUNTS:
        measurement, results = _run_router(trained_pipeline, prompts_ids, config, num_workers)
        measurements[num_workers] = measurement
        assert len(results) == NUM_REQUESTS
        if num_workers == 1:
            for request_id, result in results.items():
                assert result.token_ids == reference[request_id].token_ids, (
                    f"single-worker router diverged from in-process engine on {request_id}"
                )

    cores = _effective_cores()
    print(
        f"\n=== Router scaling ({NUM_REQUESTS} requests, "
        f"{len(SHARED_PREFIX_PREAMBLES)} preambles, greedy, {cores} cores) ==="
    )
    header = (
        f"{'workers':<8} {'req/s':>8} {'tok/s':>9} {'p50 TTFT':>9} {'p95 TTFT':>9} "
        f"{'reused':>7} {'hit rate':>9}"
    )
    print(header)
    print("-" * len(header))
    for num_workers, m in measurements.items():
        print(
            f"{num_workers:<8} {m['requests_per_second']:>8.2f} {m['tokens_per_second']:>9.0f} "
            f"{m['p50_ttft']:>9.3f} {m['p95_ttft']:>9.3f} "
            f"{m['prompt_tokens_reused']:>7} {m['prefix_hit_rate']:>9.2f}"
        )

    emit_bench_json(
        "router",
        {
            "num_requests": NUM_REQUESTS,
            "max_new_tokens": MAX_NEW_TOKENS,
            "effective_cores": cores,
            "worker_counts": list(WORKER_COUNTS),
            "single_worker_identical": True,
            "scaling": {str(n): m for n, m in measurements.items()},
        },
    )
    metrics = {"effective_cores": cores}
    for num_workers, m in measurements.items():
        metrics[f"reqps_w{num_workers}"] = m["requests_per_second"]
        metrics[f"p95_ttft_w{num_workers}"] = m["p95_ttft"]
    append_trend_entry("router_scaling", _MODE, metrics)

    single = measurements[1]["requests_per_second"]
    best_multi = max(
        m["requests_per_second"] for n, m in measurements.items() if n > 1
    )
    if cores >= 2:
        assert best_multi > single, (
            f"aggregate req/s did not increase with workers: 1 worker {single:.2f}, "
            f"best multi-worker {best_multi:.2f} ({cores} cores)"
        )
    else:
        print(
            f"single effective core: {cores}; workers timeshare it, so the "
            f"strict scaling assertion is skipped (1w {single:.2f} vs multi {best_multi:.2f} req/s)"
        )

    # Timed kernel: one full 2-worker run over the workload.
    benchmark.pedantic(
        lambda: _run_router(trained_pipeline, prompts_ids, config, 2), rounds=1, iterations=1
    )
