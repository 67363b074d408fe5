"""Pure step-execution core of the serving engine.

:class:`EngineCore` owns everything that happens *inside* an engine step —
admission, chunked prefill, the shared batched forward, speculative
verification, commit, KV/prefix-cache bookkeeping and retirement — and
nothing that happens at the serving boundary.  It never allocates request
ids, never validates prompts, never retains results beyond handing each
frozen :class:`~repro.core.decoding.DecodeResult` to its ``on_finish``
callback, and never touches threads or pipes.  The split is what lets the
same execution core sit behind three different fronts:

* :class:`~repro.serving.engine.ServingEngine` — the in-process façade
  (id allocation, validation, result retention, metrics);
* :class:`~repro.serving.control.EngineControl` — the message-driven surface
  (:mod:`repro.serving.messages`) the async server drives in-process;
* :class:`~repro.serving.worker.EngineWorker` — the same control surface
  behind a ``multiprocessing`` pipe, one core per process, sharded by the
  :class:`~repro.serving.router.Router`.

The step pipeline and its invariants are unchanged from the fused engine
(see ``docs/serving.md``): every row of the shared batched forward computes
exactly what a batch-1 forward over that row would compute, so committed
tokens are identical to sequential :meth:`SpeculativeDecoder.generate`
regardless of batching, chunking or prefix reuse.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

import numpy as np

from repro.constrained.mask import closure_token_ids, grammar_mask, masked_sample
from repro.core.acceptance import TypicalAcceptance
from repro.core.decoding import (
    DecodeResult,
    DecodingStrategy,
    StepRecord,
    decoder_budget_exceeded,
    dedupe_candidates,
    max_step_extra,
    pad_candidates,
    propose_candidates,
    select_best_candidate,
)
from repro.core.token_tree import (
    TokenTree,
    pad_tree_tokens,
    prefilter_candidates,
    tree_bias_cached,
    tree_position_offsets,
)
from repro.models.medusa import MedusaLM
from repro.nn.kv_pool import KVBlockPool, PagedKVCache
from repro.serving.prefix_cache import PrefixCache
from repro.serving.request import RequestState, RequestStatus, derive_request_rng
from repro.serving.scheduler import Scheduler, SchedulerConfig
from repro.tokenizer.bpe import BPETokenizer


class EngineCore:
    """Steps admitted requests through one shared batched forward per iteration.

    Args:
        model: A trained :class:`~repro.models.medusa.MedusaLM` with a
            decoder-only backbone.
        tokenizer: The tokenizer the model was trained with (grammar masks
            and final text decoding need it).
        strategy: Decoding regime applied to every request.
        acceptance: Typical-acceptance rule for sampling runs.
        num_candidates: Speculative candidates proposed per request per step.
        max_speculative_heads: Cap on the Medusa heads used for speculation.
        scheduler_config: Admission/fairness knobs.
        prefix_cache: Optional cross-request prefix cache.
        kv_block_size: Tokens per physical block of the K/V pool.
        kv_pool_blocks: K/V pool capacity in blocks (``None`` sizes it from
            the scheduler budgets).
        on_finish: Called once per request as it leaves the core —
            ``on_finish(state, result)`` — with the frozen result.  The core
            itself retains nothing, which is what bounds a long-lived
            worker's memory.
        clock: Time source for every timestamp the core stamps — submission,
            admission, commits, completion, deadline expiry and the prefill
            timing accumulator.  Defaults to ``time.perf_counter`` (the wall
            clock).  The traffic harness injects a
            :class:`~repro.traffic.clock.SimulatedClock` here so whole load
            tests replay deterministically in virtual time: timestamps, TTFT
            series and deadline expiries then depend only on the trace and
            the replayer's cost model, never on host speed.
    """

    def __init__(
        self,
        model: MedusaLM,
        tokenizer: BPETokenizer,
        strategy: DecodingStrategy = DecodingStrategy.OURS,
        acceptance: Optional[TypicalAcceptance] = None,
        num_candidates: int = 3,
        max_speculative_heads: Optional[int] = None,
        scheduler_config: Optional[SchedulerConfig] = None,
        prefix_cache: Optional[PrefixCache] = None,
        kv_block_size: int = 16,
        kv_pool_blocks: Optional[int] = None,
        on_finish: Optional[Callable[[RequestState, DecodeResult], None]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if model.is_encoder_decoder:
            raise ValueError(
                "serving supports decoder-only backbones; encoder-decoder "
                "serving needs ragged cross-attention memories (not implemented)"
            )
        self.model = model
        self.tokenizer = tokenizer
        self.strategy = strategy
        self.acceptance = acceptance or TypicalAcceptance()
        self.num_candidates = max(1, num_candidates)
        self.max_speculative_heads = (
            model.num_medusa_heads
            if max_speculative_heads is None
            else min(max_speculative_heads, model.num_medusa_heads)
        )
        self.scheduler = Scheduler(scheduler_config or SchedulerConfig())
        self.prefix_cache = prefix_cache
        self.on_finish = on_finish or (lambda state, result: None)
        #: Every timestamp the core produces flows through this callable.
        self.clock: Callable[[], float] = clock or time.perf_counter
        self._pool: KVBlockPool = model.new_block_pool(
            block_size=kv_block_size,
            num_blocks=kv_pool_blocks or self._default_pool_blocks(kv_block_size),
        )
        # Last-resort reclaim before the pool raises KVPoolExhausted: drop
        # retained prefix-cache entries so their unshared blocks return to
        # the free list mid-allocation.
        self._pool.on_pressure = self._reclaim_pages
        if prefix_cache is not None:
            # Retained K/V is model-specific; binding rejects accidentally
            # sharing one cache across engines that wrap different models.
            prefix_cache.bind(model)
        #: Prompt tokens actually run through prefill forwards / served from
        #: retained K/V instead — the bench's prefill-savings numerator and
        #: denominator.  Counted per core (a shared PrefixCache carries its
        #: own cache-lifetime counters), so reports stay scoped to this
        #: core's traffic.
        self.tokens_prefilled_total = 0
        self.tokens_reused_total = 0
        self.prefix_hits = 0
        self.prefix_misses = 0
        vocab = tokenizer.vocab
        self.frag_id = vocab.frag_id
        self.eos_id = vocab.eos_id
        self.bos_id = vocab.bos_id
        self.max_seq_len = model.backbone.max_seq_len
        #: Shared ragged cache: one row per entry of ``_active`` (same order).
        self._cache: Optional[PagedKVCache] = None
        self._active: List[RequestState] = []
        #: Admitted requests whose prompts are still entering their private
        #: batch-1 caches (chunked prefill); FCFS order.
        self._prefilling: List[RequestState] = []
        #: In-flight requests carrying a deadline; pruned as they finish.
        self._deadlined: List[RequestState] = []

    # ------------------------------------------------------------------ #
    # K/V memory
    # ------------------------------------------------------------------ #

    def _default_pool_blocks(self, block_size: int) -> int:
        """Size the K/V pool from the scheduler budgets.

        Worst-case committed context (the scheduler's token budget, plus one
        partially-filled tail block per request), plus what a speculative
        step's commit can allocate per request (one copy-on-write tail block
        and a window's worth of fresh blocks — candidates are verified in a
        scratch tail and never touch the pool), plus full prefix-cache
        retention, plus a small slack so transient chunked-prefill tails
        never graze the ceiling.
        """

        def blocks(tokens: int) -> int:
            return -(-tokens // block_size)

        cfg = self.scheduler.config
        decode = blocks(cfg.max_batch_tokens) + cfg.max_active_requests
        window = self.max_speculative_heads + 2
        speculative = cfg.max_active_requests * (1 + blocks(window))
        retention = blocks(self.prefix_cache.max_tokens) if self.prefix_cache is not None else 0
        return decode + speculative + retention + 8

    def _reclaim_pages(self) -> bool:
        """Pool-pressure hook: free pages by dropping a retained prefix entry.

        Returns True when an entry was evicted (the pool retries the
        allocation; each eviction strictly shrinks the prefix cache, so the
        retry loop terminates), False when nothing is reclaimable — at which
        point the pool raises :class:`~repro.nn.kv_pool.KVPoolExhausted`.
        """
        if self.prefix_cache is None:
            return False
        return self.prefix_cache.evict_lru()

    def _admission_kwargs(self) -> dict:
        """Scheduler.admit budgets: the pool's free pages, in tokens.

        The per-request overhead charges the tail block its footprint
        rounds into plus what a speculative commit can allocate (one
        copy-on-write tail block and a window's worth of fresh blocks), so
        an admitted batch can always complete a speculative step without
        tripping the pressure path.

        Free pages are reported net of the *outstanding* claims of requests
        admitted earlier: each in-flight request was admitted against its
        whole footprint-plus-overhead, but only holds the blocks its rows
        have grown into so far.  Handing the difference to a new admission
        would double-book the same pages across steps and drive a tight pool
        into :class:`~repro.nn.kv_pool.KVPoolExhausted` once both requests
        reach their peak.
        """
        block_size = self._pool.block_size
        window = self.max_speculative_heads + 2
        overhead_blocks = 2 + -(-window // block_size)
        overhead_tokens = overhead_blocks * block_size
        reserved = 0
        for row, state in enumerate(self._active):
            held = self._cache.blocks_held(row) * block_size if self._cache is not None else 0
            reserved += max(0, state.request.footprint_tokens + overhead_tokens - held)
        for state in self._prefilling:
            held = state.row_cache.blocks_held(0) * block_size if state.row_cache is not None else 0
            reserved += max(0, state.request.footprint_tokens + overhead_tokens - held)
        return {
            "free_page_tokens": max(0, self._pool.num_free * block_size - reserved),
            "page_overhead_tokens": overhead_tokens,
        }

    def free_kv_tokens(self) -> int:
        """Unreserved page capacity in tokens.

        The backpressure number a worker reports to its router: how many
        prompt+output tokens new admissions could claim right now without
        deferral.
        """
        return self._admission_kwargs()["free_page_tokens"]

    def kv_pool_stats(self) -> dict:
        """K/V pool counters: occupancy, sharing, copy-on-write, peak bytes."""
        return self._pool.stats()

    # ------------------------------------------------------------------ #
    # Intake
    # ------------------------------------------------------------------ #

    def enqueue(self, state: RequestState) -> None:
        """Hand a validated request state to the scheduler (front-ends call this).

        The front-end owns id allocation and validation; the core only takes
        custody — scheduler queue entry and, for deadlined requests, the
        expiry watch list.
        """
        state.submitted_at = self.clock()
        self.scheduler.submit(state)
        if state.request.deadline_seconds is not None:
            self._deadlined.append(state)

    def forget_deadline(self, state: RequestState) -> None:
        """Drop a settled request from the deadline watch list (see ``forget``)."""
        self._deadlined = [s for s in self._deadlined if s is not state]

    @property
    def has_work(self) -> bool:
        """True while any request is queued or running."""
        return self.scheduler.has_work

    @property
    def num_active(self) -> int:
        return len(self._active)

    @property
    def num_prefilling(self) -> int:
        """Admitted requests whose prompts are still entering the cache."""
        return len(self._prefilling)

    # ------------------------------------------------------------------ #
    # One engine iteration
    # ------------------------------------------------------------------ #

    def step(self) -> None:
        """Expire deadlines, admit what fits, advance prefills, step every running request."""
        self._expire_deadlines()
        self._admit()
        self._advance_prefill()
        if not self._active:
            return
        if self.strategy is DecodingStrategy.NTP or self.model.num_medusa_heads == 0:
            self._step_ntp()
        else:
            self._step_speculative()

    # -- cancellation and deadlines --------------------------------------- #

    def cancel_state(self, state: RequestState, timed_out: bool = False) -> bool:
        """Cancel a request, releasing every resource it holds *immediately*.

        Works in any pre-finished state and frees, in the same step: a queued
        request's slot in the waiting queue; a prefilling request's
        ``tokens_in_flight`` footprint, concurrency slot and private prefill
        row (including the retained prefix-cache K/V spliced into it); a
        running request's footprint, slot and its row of the shared KV cache
        (compacted out right here, not deferred to retirement).

        A partial :class:`~repro.core.decoding.DecodeResult` (``cancelled``
        set) is frozen through ``on_finish`` and done-listeners fire so
        streaming consumers unblock.  Returns True if the request was
        actually cancelled, False if it had already settled (cancellation
        after completion is a no-op, never an error).
        """
        if state.status in (RequestStatus.FINISHED, RequestStatus.CANCELLED):
            return False
        if state.status is RequestStatus.RUNNING:
            row = self._active.index(state)
            self._active.remove(state)
            if self._cache is not None:
                self._cache.select_rows([r for r in range(len(self._active) + 1) if r != row])
        elif state.status is RequestStatus.PREFILLING:
            self._prefilling.remove(state)
        self.scheduler.remove(state)
        # Dropping the private row releases the prefill K/V computed so far,
        # including any prefix-cache segment spliced in at admission; the
        # explicit release returns its block refs to the pool immediately
        # (pages free now, not at garbage collection).
        if state.row_cache is not None:
            state.row_cache.release()
        state.row_cache = None
        state.status = RequestStatus.CANCELLED
        state.timed_out = timed_out
        self._finish(state, release=False)
        return True

    def _expire_deadlines(self) -> None:
        """Cancel in-flight requests whose submission deadline has passed."""
        if not self._deadlined:
            return
        now = self.clock()
        still_waiting: List[RequestState] = []
        for state in self._deadlined:
            if state.status in (RequestStatus.FINISHED, RequestStatus.CANCELLED):
                continue
            if now - state.submitted_at >= state.request.deadline_seconds:
                self.cancel_state(state, timed_out=True)
            else:
                still_waiting.append(state)
        self._deadlined = still_waiting

    # -- admission and prefill ------------------------------------------- #

    def _admit(self) -> None:
        """Move newly admitted requests into prefill, splicing any reusable prefix.

        Each admitted request gets a fresh batch-1 cache row.  With a prefix
        cache attached, the longest retained prefix of the prompt (capped at
        ``prompt_len - 1`` so the suffix forward always produces the
        last-position logits that seed decoding) is spliced in as a zero-copy
        block-table alias; the request then only prefills its suffix.

        Admission is additionally gated on the pool's free
        pages (:meth:`_admission_kwargs`); before asking the scheduler, the
        head-of-queue request pre-evicts retained prefix entries while it
        would not fit, so retention never starves admission.
        """
        kwargs = self._admission_kwargs()
        if self.prefix_cache is not None and self.scheduler.waiting:
            head = self.scheduler.waiting[0]
            needed = head.request.footprint_tokens + kwargs["page_overhead_tokens"]
            while kwargs["free_page_tokens"] < needed and self.prefix_cache.evict_lru():
                kwargs = self._admission_kwargs()
        for state in self.scheduler.admit(**kwargs):
            state.started_at = self.clock()
            prompt = state.request.prompt_ids
            # Built before the budget check so even a prompt-overflow finish
            # runs the grammar closure, exactly like sequential generate.
            state.grammar_mask = grammar_mask(state.request.config.grammar, self.tokenizer)
            if decoder_budget_exceeded(len(prompt), 0, 1, self.max_seq_len):
                # The prompt already fills the context window: finish with an
                # empty output, exactly like sequential generate.
                self._finish(state)
                continue
            state.row_cache = PagedKVCache(self._pool, batch=1)
            state.rng = derive_request_rng(state.request)
            if self.prefix_cache is not None:
                matched, segment = self.prefix_cache.lookup(prompt, limit=len(prompt) - 1)
                if matched:
                    state.row_cache.splice_prefix(0, segment)
                    state.prefill_pos = matched
                    state.tokens_reused = matched
                    self.tokens_reused_total += matched
                    self.prefix_hits += 1
                else:
                    self.prefix_misses += 1
            self._prefilling.append(state)

    def _advance_prefill(self) -> None:
        """Prefill prompt chunks under the per-step budget; activate finished prompts.

        ``SchedulerConfig.max_prefill_tokens_per_step`` bounds the prompt
        tokens forwarded this step, FCFS across prefilling requests (``None``
        = prefill whole prompts immediately, the unchunked behaviour).
        Chunking is a pure compute-layout change: a chunk's forward attends
        over the cached earlier chunks exactly as those positions attend in a
        monolithic prefill, so the resulting K/V and last-position logits are
        identical.

        A request whose last prompt token was forwarded takes its Medusa-head
        logits from that final chunk, has its prompt retained in the prefix
        cache, and joins the running batch (its private row is merged into
        the shared cache).  ``prefill_seconds`` accumulates only the model
        forwards (plus the final head evaluation), matching sequential
        decoding's ``DecodeResult.prefill_seconds``; splicing, retention and
        scheduling bookkeeping are excluded.
        """
        if not self._prefilling:
            return
        budget = self.scheduler.prefill_budget_per_step
        still_prefilling: List[RequestState] = []
        ready: List[RequestState] = []
        for state in self._prefilling:
            prompt = state.request.prompt_ids
            # At most one forward per prefilling request per step: the chunk
            # either finishes the prompt or exhausts the step budget.
            if state.prefill_pos < len(prompt) and (budget is None or budget > 0):
                chunk_len = len(prompt) - state.prefill_pos
                if budget is not None:
                    chunk_len = min(chunk_len, budget)
                    budget -= chunk_len
                chunk = np.asarray(
                    [prompt[state.prefill_pos : state.prefill_pos + chunk_len]], dtype=np.int64
                )
                forward_start = self.clock()
                base_logits, hidden = self.model.forward_hidden(chunk, cache=state.row_cache)
                if state.prefill_pos + chunk_len == len(prompt):
                    state.last_base = base_logits[0, -1]
                    state.last_heads = [h[0] for h in self.model.head_logits_at(hidden[:, -1])]
                state.prefill_seconds += self.clock() - forward_start
                state.prefill_pos += chunk_len
                self.tokens_prefilled_total += chunk_len
            if state.prefill_pos == len(prompt):
                ready.append(state)
            else:
                still_prefilling.append(state)
        self._prefilling = still_prefilling
        if not ready:
            return
        new_caches: List = []
        for state in ready:
            prompt = state.request.prompt_ids
            if self.prefix_cache is not None and self.prefix_cache.would_retain(prompt):
                # Retention pins the prompt's blocks by refcount (zero-copy).
                self.prefix_cache.insert(prompt, state.row_cache.snapshot_prefix(0, len(prompt)))
            state.status = RequestStatus.RUNNING
            new_caches.append(state.row_cache)
            state.row_cache = None
            self._active.append(state)
        existing = [self._cache] if self._cache is not None and self._cache.batch > 0 else []
        self._cache = PagedKVCache.concat(existing + new_caches)

    # -- NTP: one committed token per request per step ------------------- #

    def _step_ntp(self) -> None:
        """Batched next-token prediction: sample per request, one shared forward."""
        continuing: List[RequestState] = []
        continuing_rows: List[int] = []
        next_tokens: List[int] = []
        finished: List[RequestState] = []
        commit_time = self.clock()
        for row, state in enumerate(self._active):
            config = state.request.config
            token = masked_sample(state.last_base, config, state.rng, state.grammar_mask)
            if state.grammar_mask is not None:
                state.grammar_mask.advance(token)
            state.record_commit([token], commit_time)
            state.step_records.append(StepRecord(proposed=1, accepted=1, committed=1, ends_at_boundary=True))
            if token == self.eos_id:
                state.stopped_by_eos = True
            if self._is_done(state):
                finished.append(state)
            else:
                continuing.append(state)
                continuing_rows.append(row)
                next_tokens.append(token)
        if len(continuing) < len(self._active):
            # Reclaim finished requests' rows even when nothing continues, so
            # stale rows never leak into the next admission's concat.
            self._cache.select_rows(continuing_rows)
        if continuing:
            tokens = np.asarray(next_tokens, dtype=np.int64)[:, None]
            base_logits, _ = self.model.forward_hidden(tokens, cache=self._cache)
            for row, state in enumerate(continuing):
                state.last_base = base_logits[row, -1]
        self._active = continuing
        for state in finished:
            self._finish(state)

    # -- Medusa / Ours: batched speculative verification ------------------ #

    def _step_speculative(self) -> None:
        """Propose per request, verify all candidates in one shared forward, commit."""
        active = self._active
        prefix_lens = self._cache.lengths
        all_candidates: List[List[List[int]]] = []
        request_widths: List[int] = []
        unpruned_counts: List[Optional[int]] = []
        for state in active:
            config = state.request.config
            candidates = propose_candidates(
                state.last_base,
                state.last_heads,
                config,
                state.rng,
                num_candidates=self.num_candidates,
                max_heads=self.max_speculative_heads,
                mask=state.grammar_mask,
            )
            extra = max_step_extra(
                state.prompt_len, len(state.output_ids), state.remaining_tokens, self.max_seq_len
            )
            candidates = dedupe_candidates([c[:extra] for c in candidates])
            if state.grammar_mask is not None:
                # Like-for-like savings baseline: what this request's own
                # verification accounting would charge for the unfiltered set
                # (its tree's node count, or its rows x its padded width).
                if config.tree_verify:
                    unpruned = TokenTree.from_candidates(candidates).size
                else:
                    unpruned = len(candidates) * max(len(c) for c in candidates)
                unpruned_counts.append(unpruned)
                candidates = dedupe_candidates(prefilter_candidates(candidates, state.grammar_mask))
            else:
                unpruned_counts.append(None)
            all_candidates.append(candidates)
            request_widths.append(max(len(c) for c in candidates))

        if any(state.request.config.tree_verify for state in active):
            # Token trees in the shared forward: one row per *request* instead
            # of one per candidate.  Requests that did not opt in ride along
            # as non-deduplicated forests (independent root chains), which
            # compute exactly what their row-batched layout computes.
            self._verify_tree_step(active, prefix_lens, all_candidates, unpruned_counts)
            return

        # One shared verification forward: tile each request's cache row once
        # per candidate and right-pad every candidate window to the widest
        # window in the batch.  Per-row append widths stop each request's
        # padding (and any window positions past its own context budget) from
        # entering the cache; padded query slots produce garbage logits that
        # are never read.
        window = max(request_widths)
        counts = [len(candidates) for candidates in all_candidates]
        batch_rows: List[List[int]] = []
        for candidates in all_candidates:
            batch_rows.extend(pad_candidates(candidates, width=window))
        # The step cache lives only for this one verification forward, so trim
        # its capacity to what the step can touch instead of allocating (and
        # zeroing) full max_seq_len buffers every iteration.
        step_capacity = int(self._cache.length) + window
        step_cache = self._cache.repeat_rows(counts, capacity=step_capacity)
        row_widths = np.repeat(np.asarray(request_widths, dtype=np.int64), counts)
        step_cache.set_append_widths(row_widths)
        try:
            base_v, hidden_v = self.model.forward_hidden(
                np.asarray(batch_rows, dtype=np.int64), cache=step_cache
            )
        finally:
            step_cache.set_append_widths(None)

        # Per request: score candidates, commit the best run, pick the row
        # and committed length the cache compaction keeps.
        # One vectorised argmax over every row and window position serves the
        # greedy verification of all requests at once (skipped when the whole
        # batch is sampling and nothing would read it).
        any_greedy = any(
            state.request.config.greedy or state.request.config.temperature <= 0.0 for state in active
        )
        argmax_v = np.argmax(base_v, axis=-1) if any_greedy else None
        keep_rows: List[int] = []
        committed_lengths: List[int] = []
        committed_positions: List[int] = []
        offset = 0
        for index, state in enumerate(active):
            candidates = all_candidates[index]
            config = state.request.config
            # Logits predicting candidate token i live at window position
            # i-1; token 0's predictor is the held last-position logits.
            if config.greedy or config.temperature <= 0.0:
                greedy_argmax = [
                    argmax_v[offset + row, : len(candidate) - 1] for row, candidate in enumerate(candidates)
                ]
                logits_lists = None
            else:
                greedy_argmax = None
                logits_lists = [
                    [state.last_base] + [base_v[offset + row, i - 1] for i in range(1, len(candidate))]
                    for row, candidate in enumerate(candidates)
                ]
            best_tokens, best_accepted, best_row = select_best_candidate(
                candidates,
                logits_lists,
                config,
                acceptance=self.acceptance,
                strategy=self.strategy,
                frag_id=self.frag_id,
                eos_id=self.eos_id,
                greedy_argmax=greedy_argmax,
            )
            committed = len(best_tokens)
            if state.grammar_mask is not None:
                for token_id in best_tokens:
                    state.grammar_mask.advance(token_id)
            state.record_commit(best_tokens, self.clock())
            state.step_records.append(
                StepRecord(
                    proposed=len(candidates[0]),
                    accepted=best_accepted,
                    committed=committed,
                    ends_at_boundary=best_tokens[-1] in (self.frag_id, self.eos_id),
                    # The request's own candidate rows x its own padded width
                    # (cross-request window padding is a batching artifact and
                    # is not charged to the request).
                    verified=len(candidates) * request_widths[index],
                    verified_unpruned=unpruned_counts[index],
                )
            )
            if self.eos_id in best_tokens:
                state.stopped_by_eos = True
            # The verification forward already produced the logits/hidden at
            # the last committed position — they seed the next step's proposal.
            state.last_base = base_v[offset + best_row, committed - 1]
            keep_rows.append(offset + best_row)
            committed_lengths.append(int(prefix_lens[index]) + committed)
            committed_positions.append(committed - 1)
            offset += len(candidates)

        # One batched Medusa-head evaluation at each request's last committed
        # position (the only place head logits are ever read).
        last_hidden = hidden_v[keep_rows, committed_positions]
        head_logits = self.model.head_logits_at(last_hidden)
        for index, state in enumerate(active):
            state.last_heads = [h[index] for h in head_logits]

        # Compact: accepted candidate row per request, rolled back to its
        # committed prefix (the accepted tokens are written into the
        # request's own blocks and its table moves over, consuming the old
        # shared cache); then release
        # the transient tiling and the old shared cache (no-ops once
        # consumed) and reclaim the rows of finished requests.
        new_cache = step_cache.compact_rows(keep_rows, committed_lengths)
        step_cache.release()
        self._cache.release()
        self._cache = new_cache
        self._retire_finished()

    def _verify_tree_step(
        self,
        active: List[RequestState],
        prefix_lens: np.ndarray,
        all_candidates: List[List[List[int]]],
        unpruned_counts: Optional[List[Optional[int]]] = None,
    ) -> None:
        """Verify one token tree per in-flight request inside one shared forward.

        Each request keeps exactly one cache row; its candidate tree
        (prefix-deduplicated when the request's config asks for
        ``tree_verify``, a row-equivalent forest otherwise) is appended after
        the row's committed prefix, with a per-row tree attention bias and
        per-node position offsets.  After acceptance, the cache is compacted
        to each request's accepted root-to-leaf path
        (:meth:`~repro.nn.kv_pool.PagedKVCache.compact_paths`).  Committed tokens
        are identical to the row-batched step and to sequential generate.
        """
        trees = [
            TokenTree.from_candidates(candidates, dedup=state.request.config.tree_verify)
            for state, candidates in zip(active, all_candidates)
        ]
        sizes = [tree.size for tree in trees]
        window = max(sizes)
        prefixes = [int(length) for length in prefix_lens]
        view = max(prefix + size for prefix, size in zip(prefixes, sizes))
        # One row per request; the step cache lives only for this forward, so
        # trim its capacity to the step's maximum extent.
        step_cache = self._cache.repeat_rows(1, capacity=view)
        tokens = pad_tree_tokens(trees, window)
        bias = tree_bias_cached(trees, prefixes, window, view)
        offsets = tree_position_offsets(trees, window)
        step_cache.set_append_widths(sizes)
        try:
            base_v, hidden_v = self.model.forward_hidden(
                tokens, cache=step_cache, attn_bias=bias, position_offsets=offsets
            )
        finally:
            step_cache.set_append_widths(None)

        any_greedy = any(
            state.request.config.greedy or state.request.config.temperature <= 0.0 for state in active
        )
        argmax_v = np.argmax(base_v, axis=-1) if any_greedy else None
        paths: List[List[int]] = []
        last_nodes: List[int] = []
        for index, state in enumerate(active):
            tree = trees[index]
            candidates = all_candidates[index]
            config = state.request.config
            # The predictor of candidate token i is its candidate's node i-1;
            # token 0's predictor is the held last-position logits.
            if config.greedy or config.temperature <= 0.0:
                greedy_argmax = [
                    argmax_v[index, np.asarray(nodes[:-1], dtype=np.int64)] for nodes in tree.candidate_nodes
                ]
                logits_lists = None
            else:
                greedy_argmax = None
                logits_lists = [
                    [state.last_base] + [base_v[index, node] for node in nodes[:-1]]
                    for nodes in tree.candidate_nodes
                ]
            best_tokens, best_accepted, best_row = select_best_candidate(
                candidates,
                logits_lists,
                config,
                acceptance=self.acceptance,
                strategy=self.strategy,
                frag_id=self.frag_id,
                eos_id=self.eos_id,
                greedy_argmax=greedy_argmax,
            )
            committed = len(best_tokens)
            if state.grammar_mask is not None:
                for token_id in best_tokens:
                    state.grammar_mask.advance(token_id)
            state.record_commit(best_tokens, self.clock())
            # Requests that did not opt into trees ride along as forests, but
            # their *stats* keep the row-batched accounting (their own rows x
            # their own padded width) so a request's reported verified count
            # never depends on who shares its batch — same rule as the row
            # step's cross-request padding.
            if config.tree_verify:
                verified = tree.size
            else:
                verified = len(candidates) * max(len(candidate) for candidate in candidates)
            state.step_records.append(
                StepRecord(
                    proposed=len(candidates[0]),
                    accepted=best_accepted,
                    committed=committed,
                    ends_at_boundary=best_tokens[-1] in (self.frag_id, self.eos_id),
                    verified=verified,
                    verified_unpruned=None if unpruned_counts is None else unpruned_counts[index],
                )
            )
            if self.eos_id in best_tokens:
                state.stopped_by_eos = True
            path = tree.path(best_row, committed)
            paths.append(path)
            last_nodes.append(path[-1])
            state.last_base = base_v[index, path[-1]]

        # One batched Medusa-head evaluation at each request's last committed
        # node (the only place head logits are ever read).
        last_hidden = hidden_v[np.arange(len(active)), last_nodes]
        head_logits = self.model.head_logits_at(last_hidden)
        for index, state in enumerate(active):
            state.last_heads = [h[index] for h in head_logits]

        # Compact every row to its committed prefix + accepted path (the path
        # tokens are written into the request's own blocks and its table
        # moves over); then release the
        # transient step cache and the old shared cache (no-ops once
        # consumed) and reclaim the rows of finished requests.
        new_cache = step_cache.compact_paths(list(range(len(active))), prefixes, paths)
        step_cache.release()
        self._cache.release()
        self._cache = new_cache
        self._retire_finished()

    # -- completion ------------------------------------------------------ #

    def _is_done(self, state: RequestState) -> bool:
        """Mirror of the sequential decoder's loop-exit conditions."""
        return (
            state.stopped_by_eos
            or state.remaining_tokens <= 0
            or decoder_budget_exceeded(state.prompt_len, len(state.output_ids), 1, self.max_seq_len)
        )

    def _retire_finished(self) -> None:
        """Drop finished requests from the active set and reclaim their cache rows."""
        survivors: List[RequestState] = []
        survivor_rows: List[int] = []
        finished: List[RequestState] = []
        for row, state in enumerate(self._active):
            if self._is_done(state):
                finished.append(state)
            else:
                survivors.append(state)
                survivor_rows.append(row)
        if finished:
            self._cache.select_rows(survivor_rows)
            self._active = survivors
            for state in finished:
                self._finish(state)

    def _finish(self, state: RequestState, release: bool = True) -> None:
        """Freeze the request's result, hand it to ``on_finish``, notify listeners.

        ``release=True`` (the normal completion path) also evicts the request
        from the scheduler; cancellation passes ``release=False`` because
        :meth:`cancel_state` already removed it (and must not have its
        ``CANCELLED`` status overwritten by the scheduler's ``FINISHED``
        transition).
        """
        if state.grammar_mask is not None and state.status is not RequestStatus.CANCELLED:
            # Budget ran out mid-module: commit the grammar closure through
            # record_commit so streaming consumers observe exactly the tokens
            # the batch result reports (byte-identity between the two paths).
            # Cancelled requests freeze their partial output untouched.
            closure = closure_token_ids(state.grammar_mask, self.tokenizer)
            if closure:
                state.record_commit(closure, self.clock())
                state.closure_tokens = len(closure)
        state.finished_at = self.clock()
        if release:
            self.scheduler.release(state)
        text = self.tokenizer.decode(state.output_ids, keep_frag=True)
        code = self.tokenizer.decode(state.output_ids, keep_frag=False)
        result = state.to_result(text, code)
        self.on_finish(state, result)
        # Drop the held logits so finished requests don't pin vocab-width
        # arrays for the core's lifetime.
        state.last_base = None
        state.last_heads = []
        state.notify_done()


__all__ = ["EngineCore"]
