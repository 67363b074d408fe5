"""The four benchmark workloads: set-up, timed phase and correctness checks.

Every workload builds its inputs from the seed, trains the pipeline at the
benches' default size, measures a timed phase, then checks outputs outside
the timed phase.  Each reports every end-to-end metric; where a metric's
serving definition does not apply, METRICS.md gives the analogue it uses.

Why these four (see METRICS.md for the layer map):

* ``serve-shared-preamble`` — open-loop Poisson replay with long shared
  preambles: TTFT-bound, so prompt encode, admission, prefix lookup/splice
  and suffix prefill do the work.
* ``serve-unique-long`` — closed loop of 8 clients with unshared prompts and
  128-token outputs: decode-bound at full batch (verify forward, paged-KV
  copy-on-write and compaction, commit); the prefix cache is consulted but
  reuses little.
* ``decode-table2`` — the paper's Table II path: sequential
  ``SpeculativeDecoder.generate`` over the row KV cache, no serving layer.
* ``eval-table1`` — the Table I generate→grade protocol; the only workload
  where the Verilog parser, elaboration and the simulator do the work.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from arith import median, percentile, slo_attainment, tpot_from_bursts
from hostclock import REFERENCE_SECONDS, HostClock, timed_kernel
from spans import Tracer

from repro.core.decoding import DecodingStrategy, SpeculativeDecoder
from repro.core.pipeline import PipelineConfig, VerilogSpecPipeline
from repro.data.alpaca import INSTRUCTION_PREFIX
from repro.evalbench.functional import check_designs_functional
from repro.evalbench.runner import EvaluationRunner
from repro.evalbench.rtllm import rtllm_suite
from repro.evalbench.vgen import vgen_suite
from repro.models.generation import GenerationConfig
from repro.serving import PrefixCache, SchedulerConfig
from repro.sim.testbench import run_testbench
from repro.traffic.replay import replay_trace
from repro.traffic.trace import TraceConfig, generate_trace


def pipeline_config() -> PipelineConfig:
    """The benches' default size (``benchmarks/conftest.py::default_pipeline_config``)."""
    return PipelineConfig(
        corpus_items=160,
        vocab_size=700,
        architecture="decoder-only",
        model_dim=48,
        num_layers=2,
        num_attention_heads=4,
        num_medusa_heads=8,
        max_seq_len=384,
        epochs=3,
        max_train_seq_len=256,
    )


def build_pipeline(methods: Sequence[str]) -> VerilogSpecPipeline:
    """Corpus, BPE and training of ``methods`` at the default size."""
    pipeline = VerilogSpecPipeline(pipeline_config())
    pipeline.prepare()
    for method in methods:
        pipeline.train_method(method)
    return pipeline


def table_problems():
    """The 46 RTLLM + VGen problems, suite order."""
    return list(rtllm_suite()) + list(vgen_suite())


#: Prompts the NTP probe cycles through: the first suite problems, the same
#: on every workload and seed, and few enough that a run covers each several
#: times (a partial cycle over many prompts made the rate depend on which
#: prompts a run happened to reach).
NTP_PROBE_PROMPTS = 8


def probe_prompts(tokenizer) -> List[List[int]]:
    return [tokenizer.encode(p.prompt, add_bos=True) for p in table_problems()[:NTP_PROBE_PROMPTS]]


@dataclass
class Call:
    """One user-visible request: its TTFT and TPOT in seconds (None if absent).

    ``unit`` numbers the repetition it ran in, on a workload that reports
    its best repetition (see :attr:`Measurement.best_unit`).
    """

    ttft: Optional[float]
    tpot: Optional[float]
    unit: Optional[int] = None


@dataclass
class Measurement:
    """What one timed phase produced."""

    calls: List[Call]
    sent: int
    #: Samples of the ``ours`` output tokens per second, one per repetition
    #: (or one per phase where the phase is one piece of work).
    tok_rates: List[float]
    #: Samples of the workload's units of work (requests, prompts, problems)
    #: per second.
    unit_rates: List[float]
    #: Report each metric of the best repetition (the calls whose ``unit``
    #: is its index, and its ``tok_rates``/``unit_rates`` sample).
    best_unit: bool = False
    #: Calls and rates were timed on :class:`hostclock.ReferenceClock`, so
    #: they are at the reference host speed already.
    in_reference_time: bool = False
    #: Samples of the next-token decode rate; empty for a traced phase,
    #: which skips the probe.
    ntp_rates: List[float] = field(default_factory=list)
    #: Host factor of each NTP sample taken next to its own kernel runs
    #: (:attr:`NtpProbe.factor`); ``None`` where the run's factor applies.
    ntp_factors: List[Optional[float]] = field(default_factory=list)
    #: ``(key, counts)`` per repetition of fixed work; every repetition of
    #: one key must produce the same deterministic counts.
    reps: List[Tuple[str, Dict[str, object]]] = field(default_factory=list)
    #: ``(tokens, steps, verified positions)`` of the ``ours`` requests in
    #: the first unit of work.
    decode_stats: Tuple[int, int, int] = (0, 0, 0)
    extra: Dict[str, object] = field(default_factory=dict)


@dataclass
class Checks:
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def merge(parts: Sequence[Measurement]) -> Measurement:
    """One measurement from timed phases run after successive set-ups."""
    calls, units = [], 0
    for m in parts:
        calls += [call if call.unit is None else Call(call.ttft, call.tpot, call.unit + units) for call in m.calls]
        units += len(m.tok_rates)
    return Measurement(
        calls=calls,
        sent=sum(m.sent for m in parts),
        tok_rates=[rate for m in parts for rate in m.tok_rates],
        unit_rates=[rate for m in parts for rate in m.unit_rates],
        best_unit=parts[0].best_unit,
        in_reference_time=parts[0].in_reference_time,
        ntp_rates=[rate for m in parts for rate in m.ntp_rates],
        ntp_factors=[f for m in parts for f in (m.ntp_factors or [None] * len(m.ntp_rates))],
        reps=[rep for m in parts for rep in m.reps],
        decode_stats=parts[0].decode_stats,
    )


#: End-to-end metrics that read better when higher (the rest: lower).
HIGHER_IS_BETTER = ("slo_attain_frac", "tok_s", "ntp_tok_s", "problems_s")


def end_to_end(
    m: Measurement, slo_ttft: float, slo_tpot: float, factor: Optional[float] = None
) -> Dict[str, float]:
    """The end-to-end metrics every workload reports, from its timed phases.

    ``factor`` converts the measured durations to the reference host speed
    (:attr:`hostclock.HostClock.factor`): times are multiplied by it and
    rates divided by it, except NTP samples that carry their own factor and
    a measurement timed in reference time.  ``None`` gives the figures as
    measured (a measurement timed in reference time has no other).  A
    measurement of identical repetitions (:attr:`Measurement.best_unit`)
    reports each metric of its best repetition.
    """
    own = m.ntp_factors or [None] * len(m.ntp_rates)
    ntp_factors = [f or factor for f in own] if factor else [1.0] * len(m.ntp_rates)
    ntp_tok_s = median([r / f for r, f in zip(m.ntp_rates, ntp_factors)]) if m.ntp_rates else 0.0
    if m.in_reference_time:
        factor = None
    if m.best_unit:
        units = []
        for unit, (tok_rate, unit_rate) in enumerate(zip(m.tok_rates, m.unit_rates)):
            calls = [c for c in m.calls if c.unit == unit]
            units.append(_metrics(calls, len(calls), [tok_rate], [unit_rate], slo_ttft, slo_tpot, factor or 1.0))
        metrics = {
            name: (max if name in HIGHER_IS_BETTER else min)(unit[name] for unit in units) for name in units[0]
        }
    else:
        metrics = _metrics(m.calls, m.sent, m.tok_rates, m.unit_rates, slo_ttft, slo_tpot, factor or 1.0)
    metrics["ntp_tok_s"] = ntp_tok_s
    return metrics


def _metrics(calls, sent, tok_rates, unit_rates, slo_ttft, slo_tpot, factor) -> Dict[str, float]:
    ttfts = [c.ttft * factor for c in calls if c.ttft is not None]
    tpots = [c.tpot * factor for c in calls if c.tpot is not None]
    return {
        "ttft_p50_ms": 1e3 * percentile(ttfts, 50),
        "ttft_p99_ms": 1e3 * percentile(ttfts, 99),
        "tpot_p50_ms": 1e3 * percentile(tpots, 50),
        "tpot_p99_ms": 1e3 * percentile(tpots, 99),
        "slo_attain_frac": slo_attainment(
            [None if c.ttft is None else c.ttft * factor for c in calls],
            [None if c.tpot is None else c.tpot * factor for c in calls],
            sent,
            slo_ttft,
            slo_tpot,
        ),
        "tok_s": median(tok_rates) / factor,
        "problems_s": median(unit_rates) / factor,
    }


class NtpProbe:
    """Next-token decode rate (eq. 3) on fixed suite prompts, interleaved.

    One token per step over the same backbone the workload serves, so
    ``tok_s / ntp_tok_s`` is the workload's own speedup.  :meth:`tick`, called
    between the workload's units of work, runs ``generate`` calls with the
    work clock paused until the probe has had ``duty`` of the wall time since
    it started, so the probe samples the same stretch of machine time as the
    timed phase.  Between units of seconds it samples only a few moments, so
    each call is followed by one run of the calibration kernel and the rate
    is corrected by the probe's own :attr:`factor`, taken at those moments.
    """

    duty = 0.15

    def __init__(self, state: dict, clock: HostClock, max_new_tokens: int) -> None:
        pipeline = state["pipeline"]
        self.decoder = SpeculativeDecoder(pipeline.models["ours"], pipeline.tokenizer, strategy=DecodingStrategy.NTP)
        self.prompts = state["probe"]
        self.config = GenerationConfig.greedy_config(max_new_tokens)
        self.clock = clock
        self.calls = 0
        self.tokens = 0
        self.decode_seconds = 0.0
        self.kernel_seconds = 0.0
        self._wall_seconds = 0.0
        self._started = time.perf_counter()

    def tick(self) -> None:
        while self._wall_seconds < self.duty * (time.perf_counter() - self._started):
            start = time.perf_counter()
            with self.clock.paused():
                result = self.decoder.generate(self.prompts[self.calls % len(self.prompts)], self.config)
                self.kernel_seconds += timed_kernel()
            self._wall_seconds += time.perf_counter() - start
            self.calls += 1
            self.tokens += result.tokens_generated
            self.decode_seconds += result.decode_seconds

    @property
    def factor(self) -> float:
        return REFERENCE_SECONDS * self.calls / self.kernel_seconds

    def record(self, m: Measurement) -> Measurement:
        """Put the probe's rate and factor into ``m`` (nothing if it never ran)."""
        if self.calls:
            m.ntp_rates, m.ntp_factors = [self.tokens / self.decode_seconds], [self.factor]
        return m


def between_units(clock: HostClock, probe: Optional[NtpProbe]) -> None:
    """What runs between two units of timed work, with the work clock stopped.

    Units are whole repetitions, prompts or problems (or idle gaps of an
    open-loop replay), never single engine steps, so the kernel and the probe
    do not split the work whose latency is measured.
    """
    clock.tick()
    if probe is not None:
        probe.tick()


def sequential_call(result) -> Call:
    """A non-streaming ``generate`` call shows its first token when it returns."""
    tpot = result.decode_seconds / result.tokens_generated if result.tokens_generated else None
    return Call(ttft=result.wall_time_seconds, tpot=tpot)


# ---------------------------------------------------------------------- #
# serve-shared-preamble
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class SharedPreambleConfig:
    rate: float = 60.0
    #: Trace seconds replayed per second of the timed phase.  The replay
    #: skips idle gaps, so a trace of this length takes about the timed
    #: phase's length at the engine's utilisation.
    trace_seconds_per_second: float = 2.0
    #: Traces per set-up, each with its own preambles and a fresh engine.  A
    #: trace has only two preambles, and how well ``ours`` speculates on
    #: them moved TPOT p50 by ±10% from one trace seed to the next.
    traces_per_part: int = 2
    tenants: int = 8
    preamble_groups: int = 2
    preamble_sentences: int = 8
    tail_sentences: Tuple[int, ...] = (1, 2)
    max_new_tokens: Tuple[int, ...] = (16, 32)
    interactive_fraction: float = 0.5
    slots: int = 8
    prefill_chunk: int = 64
    prefix_cache_tokens: int = 4096
    warmup_requests: int = 16
    oracle_sample: int = 12
    ntp_probe_tokens: int = 96
    slo_ttft: float = 0.100
    slo_tpot: float = 0.010


class SharedPreamble:
    """Open-loop Poisson replay of a shared-preamble trace at one fixed rate."""

    name = "serve-shared-preamble"
    headline = ("ttft_p50_ms", "lower")
    config = SharedPreambleConfig()
    methods = ("ours",)

    def _trace(self, seed: int, num_requests: int):
        c = self.config
        return generate_trace(
            TraceConfig(
                num_requests=num_requests,
                seed=seed,
                requests_per_second=c.rate,
                num_tenants=c.tenants,
                preamble_groups=c.preamble_groups,
                preamble_sentences=c.preamble_sentences,
                interactive_fraction=c.interactive_fraction,
                prompt_sentence_choices=c.tail_sentences,
                max_new_token_choices=c.max_new_tokens,
            )
        )

    def _engine(self, pipeline, clock: Optional[HostClock] = None):
        c = self.config
        return pipeline.engine_for(
            "ours",
            scheduler_config=SchedulerConfig(max_active_requests=c.slots, max_prefill_tokens_per_step=c.prefill_chunk),
            prefix_cache=PrefixCache(max_tokens=c.prefix_cache_tokens),
            clock=clock,
        )

    def setup(self, seed: int, part: int, parts: int, seconds: float) -> dict:
        c = self.config
        seed = seed * parts + part
        pipeline = build_pipeline(self.methods)
        per_trace = max(1, round(c.rate * c.trace_seconds_per_second * seconds / c.traces_per_part))
        traces = [self._trace(seed * c.traces_per_part + k, per_trace) for k in range(c.traces_per_part)]
        warmup = self._engine(pipeline)
        for request in self._trace(seed + 7919, c.warmup_requests).requests:
            warmup.submit_text(request.prompt, GenerationConfig.greedy_config(request.max_new_tokens))
        warmup.run()
        rng = np.random.default_rng(seed)
        tokenizer = pipeline.tokenizer
        decoder = pipeline.decoder_for("ours")
        oracle = {}
        for k, trace in enumerate(traces):
            for index in rng.permutation(len(trace.requests))[: c.oracle_sample // c.traces_per_part]:
                request = trace.requests[int(index)]
                prompt = tokenizer.encode(request.prompt, add_bos=True)
                config = GenerationConfig.greedy_config(request.max_new_tokens)
                oracle[k, request.request_id] = decoder.generate(prompt, config).token_ids
        return {"pipeline": pipeline, "traces": traces, "oracle": oracle, "probe": probe_prompts(tokenizer)}

    def measure(self, state: dict, seconds: float, clock: HostClock, tracer: Optional[Tracer] = None) -> Measurement:
        c = self.config
        probe = NtpProbe(state, clock, c.ntp_probe_tokens) if tracer is None else None
        calls: List[Call] = []
        late: List[float] = []
        waits: List[float] = []
        outcomes: List[Dict[str, object]] = []
        extra: Dict[str, object] = {"outcomes": outcomes, "late": late, "queue_waits": waits}
        tokens = steps = verified = 0
        busy_seconds = 0.0
        # The replay and the engine share the reference clock: idle gaps
        # between arrivals are skipped, not slept, the calibration kernel and
        # the NTP probe run in those gaps with the clock stopped, and busy
        # time runs at the host's current speed over the reference speed.
        reference = clock.reference
        for k, trace in enumerate(state["traces"]):
            if tracer is not None:
                tracer.unit = f"u{k}"
            engine = self._engine(state["pipeline"], reference)
            clock.on_idle = probe.tick if probe is not None else None
            if tracer is not None:
                submit = engine.submit

                def submit_and_listen(*args, submit=submit, engine=engine, **kwargs):
                    rid = submit(*args, **kwargs)
                    engine.attach_listeners(rid, on_done=lambda s: waits.append(s.started_at - s.submitted_at))
                    return rid

                engine.submit = submit_and_listen
            skipped = reference.skipped_seconds
            try:
                report = replay_trace(engine, trace, clock=reference)
            finally:
                clock.on_idle = None
            busy_seconds += report.duration_seconds - (reference.skipped_seconds - skipped)
            arrivals = {r.request_id: r.arrival_seconds for r in trace.requests}
            for outcome in report.outcomes:
                if outcome.status != "finished" or outcome.ttft_seconds is None:
                    continue
                lateness = outcome.submitted_at - arrivals[outcome.request_id]
                late.append(lateness)
                events = engine.stream_metrics(outcome.request_id)["commit_events"]
                calls.append(Call(ttft=lateness + outcome.ttft_seconds, tpot=tpot_from_bursts(events)))
                result = engine.result(outcome.request_id)
                tokens += result.tokens_generated
                steps += result.steps
                verified += result.tokens_verified
            outcomes.append({o.request_id: o for o in report.outcomes})
            if k == 0:
                extra["kv_pool"] = report.kv_pool
                extra["prefix_cache"] = dict(report.prefix_cache, evictions=engine.prefix_cache.stats.evictions)
        measured = Measurement(
            calls=calls,
            sent=sum(len(trace.requests) for trace in state["traces"]),
            tok_rates=[tokens / busy_seconds],
            unit_rates=[len(calls) / busy_seconds],
            decode_stats=(tokens, steps, verified),
            in_reference_time=True,
            extra=extra,
        )
        return probe.record(measured) if probe is not None else measured

    def check(self, state: dict, m: Measurement, checks: Checks) -> None:
        outcomes = m.extra["outcomes"]
        for k, trace in enumerate(state["traces"]):
            for request in trace.requests:
                rid = request.request_id
                checks.expect(outcomes[k][rid].status == "finished", f"trace {k} {rid} unfinished")
        for (k, rid), expected in state["oracle"].items():
            checks.expect(outcomes[k][rid].token_ids == expected, f"trace {k} {rid} differs from sequential generate")


# ---------------------------------------------------------------------- #
# serve-unique-long
# ---------------------------------------------------------------------- #

_PARTS = ("an 8-bit counter", "a 4-bit shift register", "a parity checker", "a one-hot decoder",
          "a saturating accumulator", "a glitch filter", "a clock enable", "a two-stage pipeline",
          "a priority arbiter", "a gray code register")
_ACTIONS = ("that resets to zero", "that loads data when enable is high", "that wraps on overflow",
            "that holds its value during a stall", "that compares two operands",
            "that drives a valid flag", "that toggles on every edge", "that latches the input bus")
_PORTS = ("input clk", "input rst", "input en", "input [7:0] data_in", "input [3:0] sel",
          "output [7:0] data_out", "output valid", "output reg [3:0] count", "input load", "output ready")


def unique_prompt(rng: np.random.Generator, index: int, sentences: int) -> str:
    """An unshared prompt: the shared instruction header, then seeded unique text."""
    parts = [f"{rng.choice(_PARTS)} {rng.choice(_ACTIONS)}" for _ in range(sentences)]
    ports = ", ".join(str(p) for p in rng.choice(_PORTS, size=4, replace=False))
    return (
        f"{INSTRUCTION_PREFIX}Implement a Verilog module named unit_{index}_{int(rng.integers(1 << 30))}: "
        + "; ".join(parts)
        + f". Ports: {ports}."
    )


@dataclass(frozen=True)
class UniqueLongConfig:
    clients: int = 8
    requests_per_client: int = 4
    #: Seed of the prompt pool, the same for every run (see ``_requests``).
    pool_seed: int = 0
    max_new_tokens: int = 128
    temperature: float = 0.8
    prompt_sentences: Tuple[int, int] = (3, 6)
    prefix_cache_tokens: int = 4096
    oracle_sample: int = 8
    ntp_probe_tokens: int = 96
    slo_ttft: float = 0.100
    slo_tpot: float = 0.010


class UniqueLong:
    """Closed loop of 8 clients over one shared request list.

    A client whose request finishes takes the next one from the list, so the
    batch stays full until the list runs out; submits happen only between
    engine steps.  (With a fixed list per client, the repetition's tail, run
    at a shrinking batch, would be set by the slowest client's luck and
    would dominate its time.)
    """

    name = "serve-unique-long"
    headline = ("tok_s", "higher")
    config = UniqueLongConfig()
    methods = ("ours",)

    def _requests(self, seed: int, tokenizer) -> List[Tuple[List[int], GenerationConfig]]:
        """The prompt pool, with the sampled requests seeded by ``seed``.

        The pool (32 unique prompts, every other one greedy) and its order
        are the same for every run, as the 46 suite problems are for the
        sequential workloads.  A greedy request costs either about 15 steps
        or 35–60 depending on its prompt, and the order sets the batch
        compositions: a fresh pool per seed moved ``tok_s`` by ±20%, and a
        seeded order of one pool by ±12%, between seeds with the code
        unchanged.
        """
        c = self.config
        pool_rng = np.random.default_rng(c.pool_seed)
        pool = []
        for index in range(c.clients * c.requests_per_client):
            sentences = int(pool_rng.integers(c.prompt_sentences[0], c.prompt_sentences[1] + 1))
            pool.append((unique_prompt(pool_rng, index, sentences), index % 2 == 0))
        requests = []
        for index, (text, greedy) in enumerate(pool):
            if greedy:
                config = GenerationConfig.greedy_config(c.max_new_tokens)
            else:
                config = GenerationConfig.sampling_config(c.temperature, c.max_new_tokens, seed=seed * 1000 + index)
            requests.append((tokenizer.encode(text, add_bos=True), config))
        return requests

    def _serve(self, pipeline, requests, clock: Optional[HostClock] = None, waits: Optional[List[float]] = None):
        """One closed-loop repetition over ``requests``; returns (engine, request ids, steps)."""
        c = self.config
        engine = pipeline.engine_for(
            "ours",
            scheduler_config=SchedulerConfig(max_active_requests=c.clients),
            prefix_cache=PrefixCache(max_tokens=c.prefix_cache_tokens),
            clock=clock,
        )
        queue = deque(range(len(requests)))
        done: List[int] = []
        ids: List[str] = []

        def submit() -> None:
            index = queue.popleft()
            prompt, config = requests[index]
            rid = engine.submit(prompt, config=config, request_id=f"u{index}")
            ids.append(rid)

            def on_done(state):
                done.append(index)
                if waits is not None:
                    waits.append(state.started_at - state.submitted_at)

            engine.attach_listeners(rid, on_done=on_done)

        for _ in range(min(c.clients, len(queue))):
            submit()
        steps = 0
        while engine.has_work:
            engine.step()
            steps += 1
            for _ in done:
                if queue:
                    submit()
            done.clear()
        return engine, ids, steps

    def setup(self, seed: int, part: int, parts: int, seconds: float) -> dict:
        c = self.config
        seed = seed * parts + part
        pipeline = build_pipeline(self.methods)
        requests = self._requests(seed, pipeline.tokenizer)
        self._serve(pipeline, requests)
        picks = np.random.default_rng(seed).permutation(len(requests))
        decoder = pipeline.decoder_for("ours")
        oracle = {f"u{int(i)}": decoder.generate(*requests[int(i)]).token_ids for i in picks[: c.oracle_sample]}
        return {"pipeline": pipeline, "requests": requests, "oracle": oracle, "probe": probe_prompts(pipeline.tokenizer)}

    def measure(self, state: dict, seconds: float, clock: HostClock, tracer: Optional[Tracer] = None) -> Measurement:
        c = self.config
        probe = NtpProbe(state, clock, c.ntp_probe_tokens) if tracer is None else None
        calls: List[Call] = []
        reps: List[Tuple[str, Dict[str, object]]] = []
        waits: List[float] = []
        rates: List[Tuple[float, float]] = []
        extra: Dict[str, object] = {"queue_waits": waits}
        start = time.perf_counter()
        while not reps or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.unit = f"u{len(reps)}"
            between_units(clock, probe)
            rep_start = clock()
            engine, ids, steps = self._serve(state["pipeline"], state["requests"], clock, waits if tracer else None)
            rep_seconds = clock() - rep_start
            results = [engine.result(rid) for rid in ids]
            for rid in ids:
                metrics = engine.stream_metrics(rid)
                tpot = tpot_from_bursts(metrics["commit_events"])
                calls.append(Call(ttft=metrics["ttft_seconds"], tpot=tpot, unit=len(reps)))
            counts = {
                "tokens": sum(r.tokens_generated for r in results),
                "steps": steps,
                "request_steps": sum(r.steps for r in results),
                "verified": sum(r.tokens_verified for r in results),
                "cow_events": engine.kv_pool_stats()["cow_events"],
            }
            if not reps:
                extra["outputs"] = {rid: list(r.token_ids) for rid, r in zip(ids, results)}
                extra["kv_pool"] = engine.kv_pool_stats()
                extra["prefix_cache"] = dict(engine.prefix_cache_stats(), evictions=engine.prefix_cache.stats.evictions)
                decode_stats = (counts["tokens"], counts["request_steps"], counts["verified"])
            reps.append(("repetition", counts))
            rates.append((counts["tokens"] / rep_seconds, len(ids) / rep_seconds))
            # Each repetition builds a fresh engine; its listener closures form
            # cycles, so collect them here, outside the timing, or peak RSS
            # depends on when the collector happens to run.
            del engine
            gc.collect()
        measured = Measurement(
            calls=calls,
            sent=len(calls),
            tok_rates=[tok_s for tok_s, _ in rates],
            unit_rates=[requests_s for _, requests_s in rates],
            best_unit=True,
            reps=reps,
            decode_stats=decode_stats,
            extra=extra,
        )
        return probe.record(measured) if probe is not None else measured

    def check(self, state: dict, m: Measurement, checks: Checks) -> None:
        outputs = m.extra["outputs"]
        for index in range(len(state["requests"])):
            checks.expect(f"u{index}" in outputs, f"u{index} unfinished")
        for rid, expected in state["oracle"].items():
            checks.expect(outputs.get(rid) == expected, f"{rid} differs from sequential generate")


# ---------------------------------------------------------------------- #
# decode-table2
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class DecodeConfig:
    methods: Tuple[str, ...] = ("ours", "medusa", "ntp")
    max_new_tokens: int = 96
    temperature: float = 0.8
    warmup_prompts: int = 4
    slo_ttft: float = 0.100
    slo_tpot: float = 0.010


class DecodeTable2:
    """Table II: sequential generate over the 46 prompts for all three methods."""

    name = "decode-table2"
    headline = ("tok_s", "higher")
    config = DecodeConfig()
    methods = DecodeConfig.methods

    def setup(self, seed: int, part: int, parts: int, seconds: float) -> dict:
        c = self.config
        seed = seed * parts + part
        pipeline = build_pipeline(c.methods)
        prompts = [pipeline.tokenizer.encode(p.prompt, add_bos=True) for p in table_problems()]
        configs = [
            GenerationConfig.greedy_config(c.max_new_tokens)
            if (seed + index) % 2 == 0
            else GenerationConfig.sampling_config(c.temperature, c.max_new_tokens, seed=seed * 1000 + index)
            for index in range(len(prompts))
        ]
        decoders = {method: pipeline.decoder_for(method) for method in c.methods}
        for decoder in decoders.values():
            for prompt, config in list(zip(prompts, configs))[: c.warmup_prompts]:
                decoder.generate(prompt, config)
        return {"pipeline": pipeline, "prompts": prompts, "configs": configs, "decoders": decoders, "seed": seed}

    def measure(self, state: dict, seconds: float, clock: HostClock, tracer: Optional[Tracer] = None) -> Measurement:
        calls: List[Call] = []
        reps: List[Tuple[str, Dict[str, object]]] = []
        rates: Dict[str, List[float]] = {method: [] for method in self.methods}
        rates["prompts"] = []
        outputs: Dict[Tuple[str, int], List[int]] = {}
        start = time.perf_counter()
        while not reps or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.unit = f"u{len(reps)}"
            totals = {method: [0, 0, 0, 0.0] for method in self.methods}
            pass_start = clock()
            # Prompt-major, so the three methods sample the same stretch of
            # machine time and their ratio is not skewed by drift.
            for index, (prompt, config) in enumerate(zip(state["prompts"], state["configs"])):
                between_units(clock, None)
                for method in self.methods:
                    result = state["decoders"][method].generate(prompt, config)
                    total = totals[method]
                    total[0] += result.tokens_generated
                    total[1] += result.steps
                    total[2] += result.tokens_verified
                    total[3] += result.decode_seconds
                    if method == "ours":
                        calls.append(sequential_call(result))
                    if not reps:
                        outputs[(method, index)] = result.token_ids
            counts = {method: tuple(total[:3]) for method, total in totals.items()}
            for method, total in totals.items():
                rates[method].append(total[0] / total[3])
            rates["prompts"].append(len(state["prompts"]) / (clock() - pass_start))
            reps.append(("pass", counts))
        return Measurement(
            calls=calls,
            sent=len(calls),
            tok_rates=rates["ours"],
            unit_rates=rates["prompts"],
            reps=reps,
            decode_stats=reps[0][1]["ours"],
            ntp_rates=rates["ntp"],
            extra={"outputs": outputs},
        )

    def check(self, state: dict, m: Measurement, checks: Checks) -> None:
        c = self.config
        outputs = m.extra["outputs"]
        for key, tokens in outputs.items():
            checks.expect(0 < len(tokens) <= c.max_new_tokens, f"{key} produced {len(tokens)} tokens")
        # The KV-cached fast path must commit what full recomputation commits;
        # one seeded prompt per method (greedy and sampled prompts alternate).
        picks = np.random.default_rng(state["seed"]).permutation(len(state["prompts"]))
        for method, index in zip(c.methods, picks):
            uncached = state["pipeline"].decoder_for(method, use_cache=False)
            expected = uncached.generate(state["prompts"][index], state["configs"][index]).token_ids
            checks.expect(outputs[(method, int(index))] == expected, f"{method}[{index}] differs from uncached decoding")


# ---------------------------------------------------------------------- #
# eval-table1
# ---------------------------------------------------------------------- #

#: Operator edits that keep a reference design compiling but usually break it.
_MUTATIONS = (
    (" + ", " - "), (" - ", " + "), (" & ", " | "), (" | ", " & "), (" ^ ", " & "),
    (" == ", " != "), (" != ", " == "), (" < ", " > "), (" > ", " < "),
    (" << ", " >> "), (" >> ", " << "), (" && ", " || "), (" || ", " && "), ("~", ""),
    ("'b0", "'b1"), ("'b1", "'b0"), ("'d1", "'d2"), ("'d0", "'d1"),
    ("posedge", "negedge"), ("negedge", "posedge"), ("if (", "if (!"), (" <= ", " = "),
)


def mutants(reference: str, rng: np.random.Generator, count: int) -> List[str]:
    """Up to ``count`` distinct single-edit mutants of ``reference``, seeded.

    Edits apply only after the port list, so the module interface (and hence
    elaboration against the testbench) survives.
    """
    body_start = reference.find(");")
    sites = []
    for old, new in _MUTATIONS:
        position = reference.find(old, body_start)
        while position != -1:
            sites.append((position, old, new))
            position = reference.find(old, position + 1)
    found: List[str] = []
    for index in rng.permutation(len(sites)):
        position, old, new = sites[int(index)]
        mutant = reference[:position] + new + reference[position + len(old):]
        if mutant not in found:
            found.append(mutant)
        if len(found) == count:
            break
    return found


@dataclass(frozen=True)
class EvalConfig:
    samples_per_problem: int = 3
    max_new_tokens: int = 110
    mutants_per_problem: int = 4
    warmup_problems: int = 1
    interpreter_sample: int = 8
    ntp_probe_tokens: int = 96
    slo_ttft: float = 0.100
    slo_tpot: float = 0.010


class EvalTable1:
    """Table I protocol: n samples per problem, then grade samples + reference + mutants."""

    name = "eval-table1"
    headline = ("problems_s", "higher")
    config = EvalConfig()
    methods = ("ours",)

    def setup(self, seed: int, part: int, parts: int, seconds: float) -> dict:
        """Part ``part`` of a run takes every ``parts``-th problem of the run's
        seeded order, so the parts of one run cover the whole suite between
        them (problems differ several-fold in cost, so a run that reached a
        seeded subset would measure the subset)."""
        c = self.config
        pipeline = build_pipeline(self.methods)
        suite = table_problems()
        problems = [suite[int(i)] for i in np.random.default_rng(seed).permutation(len(suite))][part::parts]
        seed = seed * parts + part
        rng = np.random.default_rng(seed)
        extra = {p.name: [p.reference] + mutants(p.reference, rng, c.mutants_per_problem) for p in problems}
        runner = EvaluationRunner(
            pipeline.decoder_for("ours"), samples_per_prompt=c.samples_per_problem, max_new_tokens=c.max_new_tokens
        )
        for problem in problems[: c.warmup_problems]:
            runner.evaluate_problem(problem, samples=[r.code for r in runner.generate_results(problem)])
        return {
            "pipeline": pipeline,
            "problems": problems,
            "extra": extra,
            "runner": runner,
            "probe": probe_prompts(pipeline.tokenizer),
            "seed": seed,
        }

    def measure(self, state: dict, seconds: float, clock: HostClock, tracer: Optional[Tracer] = None) -> Measurement:
        c = self.config
        problems, runner = state["problems"], state["runner"]
        probe = NtpProbe(state, clock, c.ntp_probe_tokens) if tracer is None else None
        calls: List[Call] = []
        reps: List[Tuple[str, Dict[str, object]]] = []
        pools: Dict[str, List[str]] = {}
        tokens, token_seconds = 0, 0.0
        # Whole passes over the part's problems until the time is up, so
        # every run measures the same problems; per-layer counts are taken
        # over the first pass.
        start, clock_start = time.perf_counter(), clock()
        while len(reps) % len(problems) or not reps or time.perf_counter() - start < seconds:
            problem = problems[len(reps) % len(problems)]
            if tracer is not None:
                tracer.unit = f"u{len(reps) // len(problems)}"
            between_units(clock, probe)
            results = runner.generate_results(problem)
            pool = [r.code for r in results] + state["extra"][problem.name]
            evaluation = runner.evaluate_problem(problem, samples=pool)
            for result in results:
                calls.append(sequential_call(result))
                tokens += result.tokens_generated
                token_seconds += result.decode_seconds
            pools.setdefault(problem.name, pool)
            reps.append((problem.name, {
                "tokens": sum(r.tokens_generated for r in results),
                "steps": sum(r.steps for r in results),
                "verified": sum(r.tokens_verified for r in results),
                "compiles": tuple(evaluation.syntax_flags),
                "verdicts": tuple(evaluation.functional_flags),
            }))
        elapsed = clock() - clock_start
        first = [counts for _, counts in reps[: len(problems)]]
        measured = Measurement(
            calls=calls,
            sent=len(calls),
            tok_rates=[tokens / token_seconds],
            unit_rates=[len(reps) / elapsed],
            reps=reps,
            decode_stats=tuple(sum(c[key] for c in first) for key in ("tokens", "steps", "verified")),
            extra={"pools": pools, "verdicts": {name: counts["verdicts"] for name, counts in reps[: len(problems)]}},
        )
        return probe.record(measured) if probe is not None else measured

    def check(self, state: dict, m: Measurement, checks: Checks) -> None:
        c = self.config
        verdicts = m.extra["verdicts"]
        for problem in state["problems"]:
            # Graded in the timed phase, or now for problems it did not reach.
            if problem.name in verdicts:
                passed = verdicts[problem.name][c.samples_per_problem]
            else:
                passed = check_designs_functional([problem.reference], problem)[0].passed
            checks.expect(passed, f"{problem.name} reference fails")
        pools = m.extra["pools"]
        graded = [(p, slot) for p in state["problems"] if p.name in pools for slot in range(len(pools[p.name]))]
        rng = np.random.default_rng(state["seed"])
        for index in rng.permutation(len(graded))[: c.interpreter_sample]:
            problem, slot = graded[int(index)]
            design = pools[problem.name][slot]
            expected = run_testbench(design, problem.testbench, max_time=100_000, backend="interpreter").passed
            checks.expect(
                verdicts[problem.name][slot] == expected, f"{problem.name}[{slot}] verdict differs from the interpreter"
            )


WORKLOADS = {w.name: w for w in (SharedPreamble(), UniqueLong(), DecodeTable2(), EvalTable1())}
