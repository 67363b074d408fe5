"""In-memory span recorder and the layer boundaries it wraps.

A traced run patches public functions of ``repro.*`` *where their caller
looks them up* (for example ``propose_candidates`` as imported into
``repro.serving.engine_core``) with a wrapper that records one span per
call: name, start, end, parent span and a key.  The key is
``<unit>/<boundary>``: the unit of fixed work the workload is in (a
repetition, a pass, or the whole run), then the request id of an enclosing
``ServingEngine.submit``, the step index of the enclosing
``ServingEngine.step`` or the call index of the enclosing
``SpeculativeDecoder.generate``.  Spans stay in Python lists during the run
and are written out once, when the run ends.

Nothing here edits a file under ``src/``; :meth:`Tracer.uninstall` restores
every patched attribute.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


class Tracer:
    """Records nested spans around wrapped calls; single-threaded by design."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.keys: List[str] = []
        self.counts: Counter = Counter()
        #: Unit of fixed work the workload is in (a repetition, a pass or
        #: the whole run); counts are kept per unit.
        self.unit = "u0"
        self.key = ""
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------- #

    def wrap(
        self, name: str, fn: Callable, key_prefix: Optional[str] = None, key_from: Optional[str] = None, count=None
    ) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.

        ``key_prefix`` marks a top-level boundary (an engine step or a
        sequential generate call): the wrapper numbers its calls and sets
        the key its descendants carry.  ``key_from`` names a keyword
        argument (a request id) that becomes the key instead.
        ``count(args)`` returns extra ``(counter, amount)`` pairs recorded
        per call.
        """
        tracer = self
        calls = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.names)
            outer_key = tracer.key
            if key_prefix is not None:
                tracer.key = f"{key_prefix}{calls[0]}"
                calls[0] += 1
            elif key_from is not None and kwargs.get(key_from) is not None:
                tracer.key = str(kwargs[key_from])
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.keys.append(f"{tracer.unit}/{tracer.key}")
            tracer.starts.append(0)
            tracer.ends.append(0)
            if count is not None:
                for counter, amount in count(args):
                    tracer.counts[(counter, tracer.unit)] += amount
            tracer._stack.append(index)
            start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.ends[index] = tracer.clock()
                tracer.starts[index] = start
                tracer._stack.pop()
                tracer.key = outer_key

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` to count its calls only (for per-block hot paths)."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[(name, tracer.unit)] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching -------------------------------------------------------- #

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` to ``replacement``, remembering the original."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_span(self, owner: object, attr: str, name: str, **kwargs) -> None:
        """Wrap the function or method ``owner.attr`` in a span."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            self.patch(owner, attr, classmethod(self.wrap(name, original.__func__, **kwargs)))
        else:
            self.patch(owner, attr, self.wrap(name, original, **kwargs))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------- #

    def count(self, name: str, unit: Optional[str] = None) -> int:
        """A counter's total, over every unit or within one."""
        return sum(v for (counter, u), v in self.counts.items() if counter == name and unit in (None, u))

    def arrays(self) -> Dict[str, np.ndarray]:
        """Span columns as arrays: name, unit, duration and self time in ns, parent."""
        durations = np.asarray(self.ends, dtype=np.int64) - np.asarray(self.starts, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        return {
            "name": np.asarray(self.names, dtype=object),
            "unit": np.asarray([key.split("/", 1)[0] for key in self.keys], dtype=object),
            "duration": durations,
            "self": self_times(durations, parents),
            "parent": parents,
        }

    def write(self, path: str) -> None:
        """Write every span as gzip-compressed columnar JSON."""
        names = sorted(set(self.names))
        index = {name: i for i, name in enumerate(names)}
        document = {
            "names": names,
            "name": [index[n] for n in self.names],
            "start_ns": self.starts,
            "end_ns": self.ends,
            "parent": self.parents,
            "key": self.keys,
            "counts": [[name, unit, value] for (name, unit), value in sorted(self.counts.items())],
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def self_times(durations: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one parent never overlap (calls are nested, single-threaded),
    so the summed child durations are exactly the covered part of the parent.
    """
    durations = np.asarray(durations, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=durations[has_parent], minlength=len(durations))
    return durations - covered.astype(np.int64)


def install_layer_spans(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer table reads."""
    import repro.core.decoding as decoding
    import repro.evalbench.functional as functional
    import repro.evalbench.syntax_eval as syntax_eval
    import repro.serving.engine_core as engine_core
    import repro.sim.testbench as testbench
    from repro.core.decoding import SpeculativeDecoder
    from repro.core.token_tree import TokenTree
    from repro.evalbench.runner import EvaluationRunner
    from repro.models.medusa import MedusaLM
    from repro.nn.kv_cache import KVCache, LayerKVCache
    from repro.nn.kv_pool import KVBlockPool, PagedKVCache, PagedLayerKV
    from repro.serving.engine import ServingEngine
    from repro.serving.prefix_cache import PrefixCache
    from repro.serving.scheduler import Scheduler
    from repro.tokenizer.bpe import BPETokenizer

    tracer.patch_span(BPETokenizer, "encode", "tokenizer.encode")
    tracer.patch_span(Scheduler, "admit", "serving.scheduler.admit")
    tracer.patch_span(PrefixCache, "lookup", "serving.prefix_cache.lookup")
    tracer.patch_span(PrefixCache, "insert", "serving.prefix_cache.insert")
    tracer.patch_span(ServingEngine, "submit", "serving.engine.submit", key_from="request_id")
    tracer.patch_span(ServingEngine, "step", "serving.engine.step", key_prefix="step")
    tracer.patch_span(SpeculativeDecoder, "generate", "core.decoding.generate", key_prefix="call")
    for module in (decoding, engine_core):
        tracer.patch_span(module, "propose_candidates", "core.decoding.propose")
        tracer.patch_span(module, "select_best_candidate", "core.decoding.select")
    tracer.patch_span(TokenTree, "from_candidates", "core.token_tree.build")
    tracer.patch_span(
        MedusaLM, "forward_hidden", "models.forward", count=lambda args: (("models.positions", args[1].size),)
    )
    tracer.patch_span(MedusaLM, "head_logits_at", "models.head_logits")
    for cls, layer in ((KVCache, "nn.kv_cache"), (PagedKVCache, "nn.kv_pool")):
        for method in (
            "set_append_widths", "select_rows", "truncate_rows", "repeat_rows", "compact_rows",
            "compact_paths", "concat", "snapshot_prefix", "splice_prefix", "release",
        ):
            tracer.patch_span(cls, method, f"{layer}.{method}")
    for method in ("truncate", "expand_batch", "keep_row", "keep_path"):
        tracer.patch_span(KVCache, method, f"nn.kv_cache.{method}")
    tracer.patch_span(LayerKVCache, "append", "nn.kv_cache.append")
    tracer.patch_span(PagedLayerKV, "append", "nn.kv_pool.append")
    tracer.patch_span(KVBlockPool, "copy_block", "nn.kv_pool.copy_block")
    for method in ("incref", "decref"):
        tracer.patch(KVBlockPool, method, tracer.counter("nn.kv_pool.refcount_calls", KVBlockPool.__dict__[method]))
    tracer.patch_span(EvaluationRunner, "generate_results", "evalbench.runner.generate")
    tracer.patch_span(EvaluationRunner, "evaluate_problem", "evalbench.runner.grade")
    for module in (syntax_eval, testbench):
        tracer.patch_span(module, "check_syntax", "verilog.check_syntax")
    tracer.patch_span(syntax_eval, "Simulator", "evalbench.syntax_eval.elaborate")
    tracer.patch_span(
        functional, "run_testbench_batch", "sim.batch", count=lambda args: (("sim.designs", len(args[0])),)
    )
    tracer.patch(testbench, "simulate_batch", _count_vectorized(tracer, testbench.simulate_batch))
    tracer.patch_span(testbench, "run_testbench", "sim.single")


def _count_vectorized(tracer: Tracer, simulate_batch: Callable) -> Callable:
    """Span ``simulate_batch`` and count the designs its vector sweep graded."""
    traced = tracer.wrap("sim.vector", simulate_batch)

    @functools.wraps(simulate_batch)
    def counted(*args, **kwargs):
        results = traced(*args, **kwargs)
        if results is not None:
            tracer.counts[("sim.vectorized", tracer.unit)] += sum(1 for result in results if result is not None)
        return results

    return counted
