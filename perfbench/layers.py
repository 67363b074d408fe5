"""Per-layer metrics of a traced run, computed from its spans and counts.

Times are means per call (or per engine step / per ``generate`` call where
the name says so) over every span of the traced timed phase.  Counts are
taken over the first unit of fixed work (``u0``: one closed-loop repetition,
one decode pass, one pass over the traced half's problems, or the first
open-loop replay), so on the deterministic workloads they repeat exactly.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from arith import percentile
from spans import Tracer

#: Every per-layer metric, in table order, with its unit.
PER_LAYER = {
    "driver.late_p99_ms": "ms",
    "tokenizer.encode_ms": "ms",
    "serving.scheduler.queue_wait_p50_ms": "ms",
    "serving.scheduler.queue_wait_p99_ms": "ms",
    "serving.scheduler.admit_ms": "ms",
    "serving.prefix_cache.reused_token_frac": "ratio",
    "serving.prefix_cache.lookup_ms": "ms",
    "serving.prefix_cache.insert_ms": "ms",
    "serving.prefix_cache.evictions": "count",
    "serving.engine.steps": "count",
    "serving.engine.step_ms_p50": "ms",
    "serving.engine.batch_mean": "requests",
    "nn.kv_pool.self_ms_per_step": "ms",
    "nn.kv_pool.cow_events": "count",
    "nn.kv_pool.refcount_calls": "count",
    "nn.kv_pool.peak_kv_mb": "MB",
    "nn.kv_pool.blocks_used_frac": "ratio",
    "nn.kv_cache.self_ms": "ms",
    "models.forward_ms": "ms",
    "models.forward_calls": "count",
    "models.positions_per_forward": "count",
    "core.decoding.propose_ms": "ms",
    "core.decoding.select_ms": "ms",
    "core.decoding.tok_per_step": "count",
    "core.decoding.accept_frac": "ratio",
    "core.token_tree.build_ms": "ms",
    "evalbench.runner.generate_s": "s",
    "evalbench.runner.grade_s": "s",
    "verilog.check_syntax_ms": "ms",
    "verilog.calls": "count",
    "evalbench.syntax_eval.elaborate_ms": "ms",
    "sim.run_ms": "ms",
    "sim.designs": "count",
    "sim.vectorized_frac": "ratio",
    "tracing.overhead_frac": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def layer_metrics(tracer: Tracer, m, kv_block_nbytes: Optional[int], overhead: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from a traced measurement ``m``.

    A layer the workload never calls reports 0.
    """
    spans = tracer.arrays()
    names, units = spans["name"], spans["unit"]
    duration_ms = spans["duration"] / 1e6
    self_ms = spans["self"] / 1e6

    def select(name: str, prefix: bool = False) -> np.ndarray:
        if prefix:
            return np.fromiter((n.startswith(name) for n in names), dtype=bool, count=len(names))
        return names == name

    def mean_ms(name: str, column: np.ndarray = duration_ms) -> float:
        chosen = column[select(name)]
        return float(chosen.mean()) if chosen.size else 0.0

    def first_unit(name: str) -> int:
        return int(np.count_nonzero(select(name) & (units == "u0")))

    steps = select("serving.engine.step")
    step_indices = np.flatnonzero(steps)
    proposals = np.bincount(spans["parent"][select("core.decoding.propose") & (spans["parent"] >= 0)],
                            minlength=len(names))[step_indices]
    generate_calls = int(np.count_nonzero(select("core.decoding.generate")))
    forwards = select("models.forward")
    tokens, decode_steps, verified = m.decode_stats
    kv_pool = m.extra.get("kv_pool") or {}
    prefix = m.extra.get("prefix_cache") or {}
    peak_bytes = kv_pool.get("peak_kv_bytes") or 0
    pool_bytes = (kv_pool.get("num_blocks") or 0) * (kv_block_nbytes or 0)
    designs = tracer.count("sim.designs")
    reused = prefix.get("prompt_tokens_reused", 0)
    sim_self = self_ms[select("sim.", prefix=True)].sum()
    return {
        "driver.late_p99_ms": 1e3 * percentile(m.extra.get("late", []), 99),
        "tokenizer.encode_ms": mean_ms("tokenizer.encode"),
        "serving.scheduler.queue_wait_p50_ms": 1e3 * percentile(m.extra.get("queue_waits", []), 50),
        "serving.scheduler.queue_wait_p99_ms": 1e3 * percentile(m.extra.get("queue_waits", []), 99),
        "serving.scheduler.admit_ms": mean_ms("serving.scheduler.admit"),
        "serving.prefix_cache.reused_token_frac": _ratio(reused, reused + prefix.get("prompt_tokens_prefilled", 0)),
        "serving.prefix_cache.lookup_ms": mean_ms("serving.prefix_cache.lookup"),
        "serving.prefix_cache.insert_ms": mean_ms("serving.prefix_cache.insert"),
        "serving.prefix_cache.evictions": prefix.get("evictions", 0),
        "serving.engine.steps": first_unit("serving.engine.step"),
        "serving.engine.step_ms_p50": percentile(duration_ms[steps], 50),
        "serving.engine.batch_mean": float(proposals[proposals > 0].mean()) if np.any(proposals > 0) else 0.0,
        "nn.kv_pool.self_ms_per_step": _ratio(self_ms[select("nn.kv_pool.", prefix=True)].sum(), step_indices.size),
        "nn.kv_pool.cow_events": kv_pool.get("cow_events", 0),
        "nn.kv_pool.refcount_calls": tracer.count("nn.kv_pool.refcount_calls", "u0"),
        "nn.kv_pool.peak_kv_mb": peak_bytes / 2**20,
        "nn.kv_pool.blocks_used_frac": _ratio(peak_bytes, pool_bytes),
        "nn.kv_cache.self_ms": _ratio(self_ms[select("nn.kv_cache.", prefix=True)].sum(), generate_calls),
        "models.forward_ms": mean_ms("models.forward", self_ms),
        "models.forward_calls": first_unit("models.forward"),
        "models.positions_per_forward": _ratio(tracer.count("models.positions"), np.count_nonzero(forwards)),
        "core.decoding.propose_ms": mean_ms("core.decoding.propose"),
        "core.decoding.select_ms": mean_ms("core.decoding.select"),
        "core.decoding.tok_per_step": _ratio(tokens, decode_steps),
        "core.decoding.accept_frac": _ratio(tokens, verified),
        "core.token_tree.build_ms": mean_ms("core.token_tree.build"),
        "evalbench.runner.generate_s": mean_ms("evalbench.runner.generate") / 1e3,
        "evalbench.runner.grade_s": mean_ms("evalbench.runner.grade") / 1e3,
        "verilog.check_syntax_ms": mean_ms("verilog.check_syntax"),
        "verilog.calls": first_unit("verilog.check_syntax"),
        "evalbench.syntax_eval.elaborate_ms": mean_ms("evalbench.syntax_eval.elaborate"),
        "sim.run_ms": _ratio(sim_self, designs),
        "sim.designs": tracer.count("sim.designs", "u0"),
        "sim.vectorized_frac": _ratio(tracer.count("sim.vectorized"), designs),
        "tracing.overhead_frac": overhead,
    }
