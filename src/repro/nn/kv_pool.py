"""Paged attention K/V memory: a refcounted block pool with scratch-tail verification.

:class:`~repro.nn.kv_cache.KVCache` gives every request one contiguous row
sized for the full context window.  That layout is simple but would pay for it
three ways at serving time:

* **reservation fragmentation** — a row's buffer is allocated for
  ``capacity`` positions however short the request actually runs, so peak
  memory scales with ``rows x context window`` instead of with the tokens
  actually cached;
* **copying prefix reuse** — a prefix-cache hit must *copy* the retained
  K/V into the new row (:meth:`KVCache.splice_prefix`), and retention must
  copy it back *out* (:meth:`KVCache.gather_prefix`);
* **copying reclamation** — cancelling or finishing a request compacts the
  whole shared cache around the vacated row.

This module is the vLLM-style answer, scaled to the numpy substrate.  K/V
storage is cut into fixed-size **blocks** of ``block_size`` token positions,
owned by one shared :class:`KVBlockPool`.  A sequence no longer owns storage;
it owns a **block table** — the ordered list of block ids holding its prefix
— so position ``p`` of a row lives at offset ``p % block_size`` of block
``table[p // block_size]``.  One block id addresses the same token span in
*every* layer (per-layer physical arrays, one logical id), so tables stay
per-sequence, not per-layer.

Blocks are **refcounted**, and pool blocks only ever hold **committed** K/V.
Sharing a prefix is aliasing block ids: :meth:`PagedKVCache.snapshot_prefix`
pins a prompt's blocks for the prefix cache and
:meth:`PagedKVCache.splice_prefix` aliases them into a fresh row — zero K/V
copies either way.

Speculative verification never touches the block store (PagedAttention,
Kwon et al. 2023; Medusa, Cai et al. 2024):

* :meth:`PagedKVCache.repeat_rows` returns a **step cache** that *borrows*
  each request's block table once per candidate — no references taken;
* the step cache's :meth:`PagedLayerKV.append` gathers every request's
  committed prefix once (one take of whole blocks through a padded table
  array, one transpose), tiles it per candidate, writes the candidate window
  into that dense array — the **scratch tail** — and keeps only the window
  projections;
* :meth:`PagedKVCache.compact_rows` / :meth:`PagedKVCache.compact_paths`
  then write just the accepted row's or path's tokens into the request's own
  blocks and *move* the request tables into the next cache, the way
  :meth:`PagedKVCache.concat` does.  Rejected candidates never existed in
  the pool, so there is nothing to free.

Writes preserve sharing through **copy-on-write**, made rare by a per-block
**fill frontier** (:attr:`KVBlockPool.filled`, the highest offset ever
written since allocation): a shared block may be appended to in place at or
past its frontier, because every holder reads only positions below it.  The
request that prefilled a prompt therefore keeps appending into its tail
block after the prefix cache pinned it; the one copy left is a spliced
request's first write into a tail block whose frontier another writer
already advanced (:meth:`PagedKVCache._ensure_writable`).  The pool counts
these (``cow_events``) along with its high-water mark
(``peak_blocks_in_use``, reported as ``peak_kv_bytes``).

The attention read path is a **block-granular gather**: each forward builds
one padded ``(rows, blocks)`` table array, and every layer takes whole
blocks through it and transposes them into the contiguous-per-head
``(batch, heads, view, head_dim)`` arrays
:class:`~repro.nn.layers.CausalSelfAttention` consumes, so it runs
unchanged over paged or row storage.  Positions past a row's own length may
surface stale-but-finite block contents, exactly like the row cache's stale
tail slots; the causal mask (or the caller's ``attn_bias``) pins their scores
to ``-1e9``, whose softmax weight underflows to exactly ``0.0``, so stale
storage can never leak into an output — the paged-vs-row differential
tests (``tests/test_kv_pool.py``) and the engine's token-identity tests
against sequential decoding pin this down.

Exhaustion is explicit: :meth:`KVBlockPool.alloc` first invokes the
``on_pressure`` callback (the serving engine evicts prefix-cache retention,
the one reclaimable tenant) and raises :class:`KVPoolExhausted` only when
nothing more can be freed.  Admission-side deferral — not admitting work the
pool cannot hold — lives in :meth:`repro.serving.scheduler.Scheduler.admit`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np


class KVPoolExhausted(RuntimeError):
    """Raised when a block allocation finds no free block and pressure relief freed nothing.

    Reaching this means the pool was sized below the working set the
    scheduler admitted (see ``ServingEngine``'s ``kv_pool_blocks`` sizing and
    the page-gated admission in ``Scheduler.admit``); it is a configuration
    error, not a recoverable serving state.
    """


def blocks_for(length: int, block_size: int) -> int:
    """Number of blocks needed to hold ``length`` token positions."""
    return -(-length // block_size)


class KVBlockPool:
    """Shared physical K/V storage: fixed-size token blocks with refcounts.

    Per layer, keys and values live in one preallocated array of shape
    ``(2, num_heads, num_blocks, block_size, head_dim)``; block id ``b`` is
    the same logical token span across all layers.  The pool hands out exclusive
    blocks (:meth:`alloc`, refcount 1), lets holders share them
    (:meth:`incref`) and returns them to the free list when the last
    reference drops (:meth:`decref`).  It is a dumb allocator on purpose:
    *which* blocks a sequence holds is the block table's business
    (:class:`PagedKVCache`), and *who* may be evicted under pressure is the
    ``on_pressure`` callback's.

    Args:
        num_layers: Transformer layers sharing the pool.
        num_heads: Attention heads per layer.
        head_dim: Per-head projection width.
        block_size: Token positions per block.  Small blocks track ragged
            lengths tightly (less padding waste, at most ``block_size - 1``
            wasted positions per sequence) but make tables longer and gathers
            more scattered; 16 is a good default at this scale.
        num_blocks: Pool capacity.  The serving engine sizes this from its
            admission budgets; see ``ServingEngine``.
    """

    def __init__(
        self,
        num_layers: int,
        num_heads: int,
        head_dim: int,
        block_size: int = 16,
        num_blocks: int = 256,
    ) -> None:
        if num_layers < 1:
            raise ValueError(f"num_layers must be positive, got {num_layers}")
        if block_size < 1:
            raise ValueError(f"block_size must be positive, got {block_size}")
        if num_blocks < 1:
            raise ValueError(f"num_blocks must be positive, got {num_blocks}")
        self.num_layers = num_layers
        self.num_heads = num_heads
        self.head_dim = head_dim
        self.block_size = block_size
        self.num_blocks = num_blocks
        #: Per layer, keys and values of every block,
        #: ``(2, num_heads, num_blocks, block_size, head_dim)``: one take
        #: along the block axis reads both, already in per-head order.
        #: :attr:`k` / :attr:`v` view the halves as
        #: ``(num_blocks, num_heads, block_size, head_dim)``.
        self.kv: List[np.ndarray] = [
            np.zeros((2, num_heads, num_blocks, block_size, head_dim), dtype=np.float32)
            for _ in range(num_layers)
        ]
        self.k: List[np.ndarray] = [kv[0].transpose(1, 0, 2, 3) for kv in self.kv]
        self.v: List[np.ndarray] = [kv[1].transpose(1, 0, 2, 3) for kv in self.kv]
        #: Holders per block; 0 = free.  A "holder" is one block-table entry
        #: or one retained prefix reference, never a transient view.
        self.refcounts = np.zeros(num_blocks, dtype=np.int64)
        #: Fill frontier per block: one past the highest offset written since
        #: the block was allocated.  Every holder reads only below it, so a
        #: shared block may still be appended to in place at or past it.
        self.filled = np.zeros(num_blocks, dtype=np.int64)
        self._free: List[int] = list(range(num_blocks - 1, -1, -1))
        #: Copy-on-write copies performed (one per diverging block).
        self.cow_events = 0
        #: High-water mark of :attr:`blocks_in_use` over the pool's lifetime.
        self.peak_blocks_in_use = 0
        #: Called (repeatedly) when :meth:`alloc` finds the free list empty.
        #: Must free at least one holder somewhere and return True, or return
        #: False to signal nothing more can be reclaimed.
        self.on_pressure: Optional[Callable[[], bool]] = None
        #: Reusable float32 buffers for the dense arrays appends return (see
        #: :meth:`scratch`), grown on demand and never shrunk.
        self._scratch: Dict[str, np.ndarray] = {}

    # -- inspection ----------------------------------------------------------

    @property
    def num_free(self) -> int:
        """Blocks currently on the free list."""
        return len(self._free)

    @property
    def blocks_in_use(self) -> int:
        """Blocks held by at least one block table or prefix reference."""
        return self.num_blocks - len(self._free)

    @property
    def num_shared(self) -> int:
        """Blocks held by more than one holder (physically shared storage)."""
        return int(np.count_nonzero(self.refcounts > 1))

    @property
    def block_nbytes(self) -> int:
        """Physical storage of one block: K and V across all layers."""
        return 2 * self.num_layers * self.num_heads * self.block_size * self.head_dim * 4

    def stats(self) -> dict:
        """Occupancy/sharing/copy counters as one plain dict."""
        in_use = self.blocks_in_use
        shared = self.num_shared
        return {
            "block_size": self.block_size,
            "num_blocks": self.num_blocks,
            "blocks_in_use": in_use,
            "blocks_free": self.num_free,
            "occupancy": in_use / self.num_blocks,
            "shared_blocks": shared,
            "shared_block_ratio": shared / in_use if in_use else 0.0,
            "cow_events": self.cow_events,
            "kv_bytes_in_use": in_use * self.block_nbytes,
            "peak_kv_bytes": self.peak_blocks_in_use * self.block_nbytes,
        }

    def scratch(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        """A C-contiguous float32 array of ``shape`` with undefined contents.

        Backed by one buffer per ``name`` that lives as long as the pool, so
        the per-layer dense arrays of every forward reuse warm memory instead
        of faulting in fresh pages.  The array is valid until the next call
        with the same ``name``.
        """
        size = math.prod(shape)
        buffer = self._scratch.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._scratch[name] = np.empty(size, dtype=np.float32)
        return buffer[:size].reshape(shape)

    # -- allocation ----------------------------------------------------------

    def alloc(self) -> int:
        """Hand out a free block with refcount 1, relieving pressure if needed.

        An empty free list invokes ``on_pressure`` until a block frees up or
        the callback reports nothing left to reclaim — each call must shed at
        least one holder (the engine evicts one LRU prefix-cache entry), so
        the loop terminates.
        """
        while not self._free:
            if self.on_pressure is None or not self.on_pressure():
                raise KVPoolExhausted(
                    f"KV block pool exhausted: all {self.num_blocks} blocks "
                    f"(block_size={self.block_size}) are held and nothing can be "
                    f"reclaimed; size kv_pool_blocks for the admitted working set"
                )
        block = self._free.pop()
        self.refcounts[block] = 1
        self.filled[block] = 0
        in_use = self.blocks_in_use
        if in_use > self.peak_blocks_in_use:
            self.peak_blocks_in_use = in_use
        return block

    def incref(self, block: int) -> None:
        """Add a holder to an in-use block (sharing, not allocation)."""
        if self.refcounts[block] <= 0:
            raise ValueError(f"cannot incref free block {block}")
        self.refcounts[block] += 1

    def decref(self, block: int) -> None:
        """Drop one holder; the block returns to the free list at zero."""
        if self.refcounts[block] <= 0:
            raise ValueError(f"cannot decref free block {block} (double free)")
        self.refcounts[block] -= 1
        if self.refcounts[block] == 0:
            self._free.append(block)

    def copy_block(self, source: int) -> int:
        """Copy-on-write: clone ``source``'s contents (all layers) into a fresh block.

        The returned block has refcount 1 and ``source``'s fill frontier; the
        caller repoints its table entry and drops its reference to ``source``.
        """
        target = self.alloc()
        for kv in self.kv:
            kv[:, :, target] = kv[:, :, source]
        self.filled[target] = self.filled[source]
        self.cow_events += 1
        return target


class PagedPrefix:
    """Refcounted reference to the blocks holding one prompt prefix's K/V.

    The paged analogue of :class:`~repro.nn.kv_cache.KVSegment` — the unit
    the prefix cache retains — except that it holds *references to shared
    blocks* instead of a detached copy: retaining a prefix is
    ``blocks_for(length)`` increfs, and serving a hit
    (:meth:`PagedKVCache.splice_prefix`) aliases the same blocks into the new
    row.  Zero token copies either way.

    ``owns=True`` references (what :meth:`PagedKVCache.snapshot_prefix`
    returns and the prefix cache stores) pin their blocks until
    :meth:`release`.  :meth:`head` views — how the prefix cache serves
    partial matches — are non-owning: they stay valid exactly as long as the
    owning entry they were cut from, which holds for the admission-time
    lookup-then-splice sequence they exist for.
    """

    def __init__(self, pool: KVBlockPool, block_ids: Sequence[int], length: int, owns: bool = True) -> None:
        block_ids = tuple(int(b) for b in block_ids)
        if length < 0:
            raise ValueError(f"negative prefix length {length}")
        if len(block_ids) != blocks_for(length, pool.block_size):
            raise ValueError(
                f"{len(block_ids)} blocks cannot hold exactly {length} positions "
                f"at block_size={pool.block_size}"
            )
        self.pool = pool
        self.block_ids = block_ids
        self._length = length
        self._owns = owns
        if owns:
            for block in block_ids:
                pool.incref(block)

    @property
    def num_layers(self) -> int:
        return self.pool.num_layers

    @property
    def num_heads(self) -> int:
        return self.pool.num_heads

    @property
    def head_dim(self) -> int:
        return self.pool.head_dim

    @property
    def length(self) -> int:
        """Number of cached prefix positions the reference covers."""
        return self._length

    @property
    def block_nbytes(self) -> int:
        """Physical storage of one referenced block (K and V, all layers)."""
        return self.pool.block_nbytes

    @property
    def nbytes(self) -> int:
        """Physical storage of the referenced blocks — *not* exclusive ownership.

        Blocks may be shared with live rows or sibling prefixes; budget
        accounting that must not double-charge shared blocks uses
        :attr:`block_ids` (see ``PrefixCache``).
        """
        return len(self.block_ids) * self.pool.block_nbytes

    def head(self, length: int) -> "PagedPrefix":
        """A non-owning reference to the first ``length`` positions (no copy, no incref)."""
        if not 0 <= length <= self._length:
            raise ValueError(f"head length {length} out of range [0, {self._length}]")
        return PagedPrefix(
            self.pool,
            self.block_ids[: blocks_for(length, self.pool.block_size)],
            length,
            owns=False,
        )

    def release(self) -> None:
        """Drop an owning reference's block holds (idempotent; no-op for views)."""
        if not self._owns:
            return
        self._owns = False
        for block in self.block_ids:
            self.pool.decref(block)

    def __del__(self) -> None:  # pragma: no cover - backstop, not the contract
        try:
            self.release()
        except Exception:
            pass


def _table_array(tables: Sequence[Sequence[int]], width: int) -> np.ndarray:
    """Block tables as one ``(rows, width)`` index array.

    Rows with shorter tables pad with block 0: garbage reads past the row's
    own length, masked by the caller like any stale position.
    """
    array = np.zeros((len(tables), width), dtype=np.intp)
    for row, table in enumerate(tables):
        count = min(len(table), width)
        if count:
            array[row, :count] = table[:count]
    return array


def _window_entries(starts: np.ndarray, widths: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten per-row windows: ``(row, offset in window, absolute position)`` per token, row-major."""
    rows, offsets = np.nonzero(np.arange(widths.max(initial=0)) < widths[:, None])
    return rows, offsets, starts[rows] + offsets


class _ForwardPlan(NamedTuple):
    """What every layer of one forward shares (built by layer 0's append)."""

    #: Per-row lengths after the append, and the key positions every layer
    #: returns: ``max(lengths)``.
    lengths: np.ndarray
    view: int
    #: Padded block table of the rows whose prefixes are read, covering ``view``.
    table: np.ndarray
    #: Tiles per table row (step caches), or None when each is read once.
    counts: Optional[np.ndarray]
    #: Step caches: one entry per appended token — cache row, offset in the
    #: new window, absolute position — for the scatter into scratch.
    rows: Optional[np.ndarray]
    offsets: Optional[np.ndarray]
    positions: Optional[np.ndarray]
    #: Owning caches: ``(row, block, first slot, stop slot, window offset)``
    #: per written block, for the slice writes into the pool.
    segments: Sequence[Tuple[int, int, int, int, int]]
    #: Buffers of the block take and of the dense K/V pair.
    gathered: np.ndarray
    dense: np.ndarray


class PagedLayerKV:
    """One layer's view of a :class:`PagedKVCache` — the attention-facing surface.

    Quacks like :class:`~repro.nn.kv_cache.LayerKVCache` for everything
    :class:`~repro.nn.layers.CausalSelfAttention` and the transformer's
    position bookkeeping touch: per-row ``lengths``, ``append_widths``, and
    :meth:`append` returning full-prefix K/V arrays.  No cross-attention —
    paged serving is decoder-only, like the engine.
    """

    cross_k = None
    cross_v = None
    has_cross = False

    def __init__(self, cache: "PagedKVCache", index: int) -> None:
        self._cache = cache
        self.index = index

    @property
    def batch(self) -> int:
        return len(self._cache._tables)

    @property
    def lengths(self) -> np.ndarray:
        """Per-row cached prefix lengths of this layer (callers must not mutate)."""
        return self._cache._layer_lengths[self.index]

    @property
    def length(self) -> int:
        """Longest cached prefix across rows."""
        return int(self._cache._layer_lengths[self.index].max(initial=0))

    @property
    def append_widths(self) -> Optional[np.ndarray]:
        return self._cache._append_widths

    def append(self, k_new: np.ndarray, v_new: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Append ``(batch, heads, t, head_dim)`` projections; return the prefix views.

        Semantics match :meth:`LayerKVCache.append`: row ``r``'s new K/V
        lands at its own offset ``lengths[r]``, ``append_widths`` trims
        right-padding, and the return value covers ``0 .. max(lengths)``
        with stale-but-finite storage past each row's own length (masked by
        the caller).  A forward appends to layers ``0 .. L-1`` in order:
        layer 0 allocates and copy-on-writes the written ranges and builds
        the padded table array once; every layer reuses them.

        On a cache that owns its tables the window is written into pool
        blocks and read back with the prefix.  On a step cache
        (:meth:`PagedKVCache.repeat_rows`) the pool is only read: each
        request's committed prefix is gathered once and tiled per candidate,
        the window lands in that scratch copy, and the projections are kept
        for :meth:`PagedKVCache.compact_rows` / ``compact_paths``.

        The returned arrays live in the pool's :meth:`KVBlockPool.scratch`
        buffers: they stay valid until the next append into the same pool,
        which is as long as attention reads them.
        """
        cache = self._cache
        if k_new.shape[0] != len(cache._tables):
            raise ValueError(f"batch mismatch: cache has {len(cache._tables)} rows, got {k_new.shape[0]}")
        if self.index == 0:
            cache._plan = cache._plan_forward(k_new.shape[2])
            cache._next_layer = 0
        plan = cache._plan
        if self.index != cache._next_layer:
            raise ValueError("paged appends run layers 0 .. L-1 in order, once each per forward")
        cache._next_layer += 1
        if cache._source is None:
            k_pool, v_pool = cache.pool.k[self.index], cache.pool.v[self.index]
            for row, block, first, stop, offset in plan.segments:
                end = offset + stop - first
                k_pool[block, :, first:stop] = k_new[row, :, offset:end]
                v_pool[block, :, first:stop] = v_new[row, :, offset:end]
            k, v = cache._dense(self.index, plan)
        else:
            k, v = cache._dense(self.index, plan)
            k[plan.rows, :, plan.positions] = k_new[plan.rows, :, plan.offsets]
            v[plan.rows, :, plan.positions] = v_new[plan.rows, :, plan.offsets]
            cache._window[self.index] = (k_new, v_new)
        cache._layer_lengths[self.index] = plan.lengths.copy()
        return k, v


class PagedKVCache:
    """A batch of sequences over one :class:`KVBlockPool`: block tables + lengths.

    The serving engine's K/V cache.  It exposes the batched/ragged surface
    of :class:`~repro.nn.kv_cache.KVCache`, its differential reference
    (``lengths``, ``append_widths``, ``layers`` for the forward, and the
    multi-row operations), but rows are block tables into shared pool
    storage — see the module docstring for the mapping.

    A cache either **owns** its tables — every entry holds one pool
    reference, and the cache must be :meth:`release`\\ d or consumed
    (:meth:`concat`, :meth:`compact_rows`, :meth:`compact_paths`) when
    discarded, which is what the fuzz suite's leak checks (refcounts return
    to zero) pin down — or it is a **step cache** from :meth:`repeat_rows`,
    which borrows its source's tables for one verification forward and
    holds no references at all.
    """

    def __init__(self, pool: KVBlockPool, batch: int = 0) -> None:
        self.pool = pool
        self._tables: List[List[int]] = [[] for _ in range(batch)]
        self._layer_lengths: List[np.ndarray] = [
            np.zeros(batch, dtype=np.int64) for _ in range(pool.num_layers)
        ]
        self._append_widths: Optional[np.ndarray] = None
        self.layers: List[PagedLayerKV] = [PagedLayerKV(self, i) for i in range(pool.num_layers)]
        self._released = False
        #: The current forward's plan, and the layer expected to append next.
        self._plan: Optional[_ForwardPlan] = None
        self._next_layer = -1
        # Step-cache state (see repeat_rows): the cache whose tables are
        # borrowed, each step row's source row, the tiles per source row
        # (None = one each), the committed lengths at tiling, and each
        # layer's scratch window projections.
        self._source: Optional["PagedKVCache"] = None
        self._source_rows: Optional[np.ndarray] = None
        self._counts: Optional[np.ndarray] = None
        self._committed: Optional[np.ndarray] = None
        self._window: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * pool.num_layers

    # -- inspection ----------------------------------------------------------

    @property
    def num_layers(self) -> int:
        return self.pool.num_layers

    @property
    def num_heads(self) -> int:
        return self.pool.num_heads

    @property
    def head_dim(self) -> int:
        return self.pool.head_dim

    @property
    def batch(self) -> int:
        return len(self._tables)

    @property
    def length(self) -> int:
        """Longest cached prefix across rows."""
        return int(self._layer_lengths[0].max(initial=0))

    @property
    def lengths(self) -> np.ndarray:
        """Per-row cached prefix lengths, shape ``(batch,)`` (copy)."""
        return self._layer_lengths[0].copy()

    @property
    def append_widths(self) -> Optional[np.ndarray]:
        """Per-row real-token widths declared for the next forward (or None)."""
        return self._append_widths

    @property
    def nbytes(self) -> int:
        """Physical storage referenced by this cache's tables (shared blocks counted per table entry)."""
        return sum(len(table) for table in self._tables) * self.pool.block_nbytes

    def blocks_held(self, row: int) -> int:
        """Pool blocks ``row``'s table currently references (shared or exclusive).

        The serving engine's free-page admission gate uses this to compute
        each in-flight request's *outstanding* page claim — the part of its
        admitted footprint its row has not yet grown into.
        """
        return len(self._tables[row])

    def set_append_widths(self, widths: Optional[Sequence[int]]) -> None:
        """Declare per-row real-token widths for the next incremental forward.

        Same contract as :meth:`KVCache.set_append_widths`: the setting
        persists until cleared with ``None``, so callers wrap the forward in
        ``try/finally``.
        """
        self._append_widths = None if widths is None else np.asarray(widths, dtype=np.int64)

    # -- forward plumbing ------------------------------------------------------

    def _require_owner(self, operation: str) -> None:
        if self._source is not None:
            raise ValueError(
                f"{operation} needs a cache that owns its block tables; a step cache from "
                f"repeat_rows only verifies one window and is then compacted"
            )

    def _plan_forward(self, t: int) -> _ForwardPlan:
        """Validate the append widths and build the index arrays of one forward.

        A cache that owns its tables extends them and copy-on-writes here,
        once per forward, so every layer can write its window straight into
        the pool.  A step cache borrows its source's tables and writes
        nothing.
        """
        batch = len(self._tables)
        if self._append_widths is None:
            widths = np.full(batch, t, dtype=np.int64)
        else:
            widths = np.asarray(self._append_widths, dtype=np.int64)
            if widths.shape != (batch,):
                raise ValueError(f"append_widths shape {widths.shape} != (batch,) = ({batch},)")
            if np.any(widths < 0) or np.any(widths > t):
                raise ValueError(f"append widths must lie in [0, {t}], got {widths}")
        starts = self._layer_lengths[0]
        lengths = starts + widths
        if self._source is not None:
            if self._window[0] is not None:
                raise ValueError("a step cache verifies one window; compact it before the next forward")
            return self._read_plan(lengths, entries=_window_entries(starts, widths))
        segments = []
        for row, (start, length) in enumerate(zip(starts.tolist(), lengths.tolist())):
            if length > start:
                offset = 0
                for block, first, stop in self._ensure_writable(row, start, length):
                    segments.append((row, block, first, stop, offset))
                    offset += stop - first
        return self._read_plan(lengths, segments=segments)

    def _read_plan(
        self,
        lengths: np.ndarray,
        entries: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
        segments: Sequence[Tuple[int, int, int, int, int]] = (),
        scratch: bool = True,
    ) -> _ForwardPlan:
        """The block table and buffers that read ``max(lengths)`` positions per row.

        ``entries`` / ``segments`` are the window's scratch / pool
        destinations (see :class:`_ForwardPlan`).  ``scratch`` backs the
        buffers with the pool's reusable :meth:`KVBlockPool.scratch` arrays
        instead of fresh ones.
        """
        rows, offsets, positions = entries if entries is not None else (None, None, None)
        pool = self.pool
        view = int(lengths.max(initial=0))
        tables = self._tables if self._source is None else self._source._tables
        table = _table_array(tables, blocks_for(view, pool.block_size))
        gathered_shape = (2, pool.num_heads) + table.shape + (pool.block_size, pool.head_dim)
        dense_shape = (2, len(self._tables), pool.num_heads, table.shape[1], pool.block_size, pool.head_dim)
        if scratch:
            gathered, dense = pool.scratch("gather", gathered_shape), pool.scratch("dense", dense_shape)
        else:
            gathered, dense = np.empty(gathered_shape, np.float32), np.empty(dense_shape, np.float32)
        return _ForwardPlan(lengths, view, table, self._counts, rows, offsets, positions, segments, gathered, dense)

    def _dense(self, layer: int, plan: _ForwardPlan) -> Tuple[np.ndarray, np.ndarray]:
        """One layer's ``(batch, heads, view, head_dim)`` K and V arrays, read through ``plan``.

        One take of whole blocks (keys and values together), then one
        copy that puts rows before heads — per candidate tile on a step
        cache; a single row needs no copy.  Each result is a ``[:, :, :view]``
        slice of a block-padded buffer whose ``(view, head_dim)`` matrices
        are C-contiguous: exactly the layout of the row cache's
        ``k[:, :, :view]``, so ``np.matmul`` picks the same kernel and
        float32 summation order and paged outputs stay bitwise those of row
        caches.
        """
        out = plan.dense
        np.take(self.pool.kv[layer], plan.table, axis=2, out=plan.gathered, mode="clip")
        blocks = plan.gathered.transpose(0, 2, 1, 3, 4, 5)  # (k/v, rows, heads, blocks, block, dim)
        if plan.counts is None and blocks.flags.c_contiguous:
            out = blocks
        elif plan.counts is None:
            np.copyto(out, blocks)
        else:
            start = 0
            for row, count in enumerate(plan.counts):
                out[:, start : start + count] = blocks[:, row, None]
                start += count
        _, batch, heads, width, block, dim = out.shape
        dense = out.reshape(2, batch, heads, width * block, dim)[:, :, :, : plan.view]
        return dense[0], dense[1]

    def _gather(self, layer: int, view: int) -> Tuple[np.ndarray, np.ndarray]:
        """Dense K/V of one layer over ``view`` positions, as attention would see it.

        Committed positions come from the pool and a step cache's window
        from its scratch projections; positions past a row's length are stale.
        """
        k, v = self._dense(layer, self._read_plan(np.full(1, view), scratch=False))
        if self._window[layer] is not None:
            k_window, v_window = self._window[layer]
            widths = self._layer_lengths[layer] - self._committed
            rows, offsets, positions = _window_entries(self._committed, widths)
            k[rows, :, positions] = k_window[rows, :, offsets]
            v[rows, :, positions] = v_window[rows, :, offsets]
        return k, v

    # -- block-table maintenance ---------------------------------------------

    def _ensure_writable(self, row: int, start: int, end: int) -> List[Tuple[int, int, int]]:
        """Make positions ``start .. end`` of ``row`` writable in place.

        Extends the row's table with fresh blocks to cover ``end`` and
        copy-on-writes an *existing* shared entry in the written range only
        when its fill frontier says another holder reads the slots about to
        be written — in practice just a spliced prefix's trailing partial
        block.  Advances the frontier of every written block and returns
        the written ``(block, first slot, stop slot)`` segments.
        """
        pool = self.pool
        table = self._tables[row]
        block_size = pool.block_size
        first = start // block_size
        needed = blocks_for(end, block_size)
        for i in range(first, min(len(table), needed)):
            block = table[i]
            if pool.refcounts[block] > 1 and pool.filled[block] > max(start - i * block_size, 0):
                replacement = pool.copy_block(block)
                pool.decref(block)
                table[i] = replacement
        while len(table) < needed:
            table.append(pool.alloc())
        segments = []
        for i in range(first, needed):
            block = table[i]
            stop = min(end - i * block_size, block_size)
            if pool.filled[block] < stop:
                pool.filled[block] = stop
            segments.append((block, max(start - i * block_size, 0), stop))
        return segments

    def _move_tables(self, picks: np.ndarray, keep: Sequence[int]) -> List[List[int]]:
        """Hand this cache's tables to new rows: ``picks[i]``'s first ``keep[i]`` blocks.

        A table picked once *moves* (only the blocks past ``keep`` are
        decref'd); one picked several times is aliased with increfs; one not
        picked is released.  The caller drops its own ``_tables`` afterwards.
        """
        pool = self.pool
        uses = np.bincount(picks, minlength=len(self._tables))
        moved: List[List[int]] = []
        for source, count in zip(picks, keep):
            table = self._tables[source]
            if uses[source] == 1:
                for block in table[count:]:
                    pool.decref(block)
                del table[count:]
                moved.append(table)
            else:
                piece = table[:count]
                for block in piece:
                    pool.incref(block)
                moved.append(piece)
        for source, table in enumerate(self._tables):
            if uses[source] != 1:
                for block in table:
                    pool.decref(block)
        return moved

    # -- lifetime ------------------------------------------------------------

    def _drop(self) -> None:
        """Forget every table and length without touching refcounts."""
        self._released = True
        self._tables = []
        self._layer_lengths = [np.zeros(0, dtype=np.int64) for _ in range(self.pool.num_layers)]
        self._plan = None
        self._next_layer = -1
        self._source = None
        self._window = [None] * self.pool.num_layers

    def release(self) -> None:
        """Drop every table's block references (idempotent; a step cache holds none).

        The engine calls this the moment a cache generation is superseded
        (step-cache compaction, cancellation); ``__del__`` only backstops
        forgotten handles.
        """
        if self._released:
            return
        if self._source is None:
            for table in self._tables:
                for block in table:
                    self.pool.decref(block)
        self._drop()

    def __del__(self) -> None:  # pragma: no cover - backstop, not the contract
        try:
            self.release()
        except Exception:
            pass

    # -- multi-request serving operations -------------------------------------

    def select_rows(self, rows: Sequence[int]) -> None:
        """Keep an arbitrary subset/ordering of rows, in place.

        The paged :meth:`KVCache.select_rows`: survivors' tables move, and
        only the rows that leave are decref'd — reclaiming a finished or
        cancelled request frees its pages without touching anyone else's.
        """
        self._require_owner("select_rows")
        rows = list(rows)
        for row in rows:
            if not 0 <= row < self.batch:
                raise IndexError(f"row {row} out of range for batch {self.batch}")
        index = np.asarray(rows, dtype=np.int64)
        self._tables = self._move_tables(index, [len(self._tables[row]) for row in rows])
        self._layer_lengths = [lengths[index].copy() for lengths in self._layer_lengths]

    def truncate_rows(self, lengths: Sequence[int]) -> None:
        """Roll each row back to its own committed prefix, freeing vacated blocks."""
        self._require_owner("truncate_rows")
        target = np.asarray(lengths, dtype=np.int64)
        if target.shape != (self.batch,):
            raise ValueError(f"lengths shape {target.shape} != (batch,) = ({self.batch},)")
        if np.any(target < 0):
            raise ValueError(f"cannot truncate to negative lengths {target}")
        for i, layer_lengths in enumerate(self._layer_lengths):
            self._layer_lengths[i] = np.minimum(layer_lengths, target)
        pool = self.pool
        for row, table in enumerate(self._tables):
            new_length = int(max(lengths[row] for lengths in self._layer_lengths))
            keep = blocks_for(new_length, pool.block_size)
            while len(table) > keep:
                pool.decref(table.pop())

    def repeat_rows(self, repeats: Union[int, Sequence[int]], capacity: Optional[int] = None) -> "PagedKVCache":
        """Tile row ``r`` ``repeats[r]`` times into a step cache — no references, no copies.

        The speculative verification step's row tiling.  The step cache
        borrows this cache's block tables for one forward: its append reads
        the committed prefixes and keeps the candidate window in scratch
        (see :meth:`PagedLayerKV.append`), and its :meth:`compact_rows` /
        :meth:`compact_paths` commit the accepted tokens and consume this
        cache.  ``capacity`` is accepted for row-cache signature
        compatibility and ignored — paged storage has no per-row capacity.
        """
        self._require_owner("repeat_rows")
        if isinstance(repeats, (int, np.integer)):
            counts = np.full(self.batch, int(repeats), dtype=np.int64)
        else:
            counts = np.asarray(repeats, dtype=np.int64)
            if counts.shape != (self.batch,):
                raise ValueError(f"repeats shape {counts.shape} != (batch,) = ({self.batch},)")
        if np.any(counts < 0):
            raise ValueError(f"repeat counts must be non-negative, got {counts}")
        out = PagedKVCache(self.pool, batch=0)
        out._source = self
        out._source_rows = np.repeat(np.arange(self.batch), counts)
        out._counts = None if np.all(counts == 1) else counts
        out._tables = [self._tables[row] for row in out._source_rows]
        out._layer_lengths = [np.repeat(lengths, counts) for lengths in self._layer_lengths]
        out._committed = out._layer_lengths[0].copy()
        return out

    def compact_rows(
        self, rows: Sequence[int], lengths: Sequence[int], capacity: Optional[int] = None
    ) -> "PagedKVCache":
        """Gather ``rows`` truncated to per-row ``lengths`` into a new cache.

        The per-step compaction: new row ``i`` is row ``rows[i]``'s first
        ``lengths[i]`` positions.  On a step cache the accepted window tokens
        are written into the request's own blocks and the request tables
        move into the new cache, consuming the source cache; on an owning
        cache the tables move the same way and this cache is consumed.
        ``capacity`` is ignored (see :meth:`repeat_rows`).
        """
        rows = list(rows)
        for row in rows:
            if not 0 <= row < self.batch:
                raise IndexError(f"row {row} out of range for batch {self.batch}")
        target = np.asarray(lengths, dtype=np.int64)
        if target.shape != (len(rows),):
            raise ValueError(f"lengths shape {target.shape} != ({len(rows)},)")
        if np.any(target < 0):
            raise ValueError(f"cannot compact to negative lengths {target}")
        index = np.asarray(rows, dtype=np.int64)
        kept = np.minimum(self._layer_lengths[0][index], target)
        base = np.minimum(kept, self._committed_lengths()[index])
        return self._commit(index, base, kept - base)

    def compact_paths(
        self,
        rows: Sequence[int],
        prefixes: Sequence[int],
        paths: Sequence[Sequence[int]],
        capacity: Optional[int] = None,
    ) -> "PagedKVCache":
        """Gather per-row accepted tree paths into a new cache.

        Same contract as :meth:`KVCache.compact_paths`: new row ``i`` is
        source row ``rows[i]``'s committed prefix (``prefixes[i]``
        positions, moved or aliased) followed by the K/V of the accepted
        path's tree nodes (window positions ``paths[i]``, in root-to-leaf
        order), written into the row's own blocks — O(path), not O(prefix).
        Consumes the cache owning the tables, like :meth:`compact_rows`.
        ``capacity`` is ignored.
        """
        rows = list(rows)
        for row in rows:
            if not 0 <= row < self.batch:
                raise IndexError(f"row {row} out of range for batch {self.batch}")
        if not (len(prefixes) == len(paths) == len(rows)):
            raise ValueError(
                f"rows/prefixes/paths length mismatch: {len(rows)}/{len(prefixes)}/{len(paths)}"
            )
        source_lengths = self._layer_lengths[0]
        indices: List[np.ndarray] = []
        for row, prefix, path in zip(rows, prefixes, paths):
            index = np.asarray(list(path), dtype=np.int64)
            if prefix < 0:
                raise ValueError(f"negative prefix length {prefix}")
            if self._source is not None and prefix != self._committed[row]:
                raise ValueError(
                    f"row {row}: a step cache's paths start at its committed length "
                    f"{self._committed[row]}, not {prefix}"
                )
            limit = int(source_lengths[row])
            if index.size and (int(index.min()) < 0 or prefix + int(index.max()) >= limit):
                raise IndexError(
                    f"row {row}: path positions {index} out of range for window [0, {limit - prefix})"
                )
            indices.append(index)
        base = np.asarray(prefixes, dtype=np.int64).reshape(len(rows))
        extra = np.asarray([path.size for path in indices], dtype=np.int64)
        return self._commit(np.asarray(rows, dtype=np.int64), base, extra, indices)

    def _committed_lengths(self) -> np.ndarray:
        """Per-row positions held in pool blocks (the rest of a step row is scratch)."""
        return self._committed if self._source is not None else self._layer_lengths[0]

    def _commit(
        self, rows: np.ndarray, base: np.ndarray, extra: np.ndarray, paths: Optional[List[np.ndarray]] = None
    ) -> "PagedKVCache":
        """New cache: row ``i`` keeps ``rows[i]``'s first ``base[i]`` positions and
        appends ``extra[i]`` more — the ones that follow them, or ``paths[i]``
        counted from ``base[i]``.

        The values are read before any table surgery can free or reuse a
        block: a step cache reads its scratch window (every position it
        commits lies past its committed prefix), an owning cache its pool
        blocks.  The cache owning the tables (the source of a step cache, or
        this cache) is consumed.
        """
        pool = self.pool
        block_size = pool.block_size
        sources = []
        for i in np.flatnonzero(extra).tolist():
            row, count = int(rows[i]), int(extra[i])
            if self._source is not None:
                # A step cache's base is its committed length: the window
                # starts right there.
                picked = slice(0, count) if paths is None else paths[i]
                values = [(k[row][:, picked], v[row][:, picked]) for k, v in self._window]
            else:
                positions = int(base[i]) + (np.arange(count) if paths is None else paths[i])
                blocks = np.asarray(self._tables[row])[positions // block_size]
                slots = positions % block_size
                values = [
                    (k[blocks, :, slots].transpose(1, 0, 2), v[blocks, :, slots].transpose(1, 0, 2))
                    for k, v in zip(pool.k, pool.v)
                ]
            sources.append((i, values))
        owner = self if self._source is None else self._source
        picks = rows if self._source is None else self._source_rows[rows]
        tables = owner._move_tables(picks, [blocks_for(int(length), block_size) for length in base])
        owner._drop()
        out = PagedKVCache(pool, batch=0)
        out._tables = tables
        for i, values in sources:
            start, offset = int(base[i]), 0
            for block, first, stop in out._ensure_writable(i, start, start + int(extra[i])):
                end = offset + stop - first
                for (k, v), k_pool, v_pool in zip(values, pool.k, pool.v):
                    k_pool[block, :, first:stop] = k[:, offset:end]
                    v_pool[block, :, first:stop] = v[:, offset:end]
                offset = end
        lengths = base + extra
        out._layer_lengths = [lengths.copy() for _ in range(pool.num_layers)]
        return out

    @classmethod
    def concat(cls, caches: Sequence["PagedKVCache"]) -> "PagedKVCache":
        """Merge several caches' rows into one, *consuming* the sources.

        Tables move (no refcount traffic, no copies); the source caches are
        left released.  All caches must share one pool.
        """
        caches = list(caches)
        if not caches:
            raise ValueError("concat needs at least one cache")
        pool = caches[0].pool
        for cache in caches:
            if cache.pool is not pool:
                raise ValueError("concat requires caches sharing one KVBlockPool")
            if cache._released:
                raise ValueError("concat cannot consume an already-released cache")
            cache._require_owner("concat")
        out = cls(pool, batch=0)
        out._tables = [table for cache in caches for table in cache._tables]
        out._layer_lengths = [
            np.concatenate([cache._layer_lengths[i] for cache in caches])
            for i in range(pool.num_layers)
        ]
        for cache in caches:
            cache._drop()
        return out

    # -- prefix-reuse operations ----------------------------------------------

    def snapshot_prefix(self, row: int, length: int) -> PagedPrefix:
        """An owning :class:`PagedPrefix` over ``row``'s first ``length`` positions.

        The paged :meth:`KVCache.gather_prefix`: instead of copying the K/V
        out, the reference increfs the covering blocks, pinning them however
        the row is later compacted, truncated or released.  The prefix cache
        stores exactly this.  The row keeps appending into its shared tail
        block in place — past the block's fill frontier, which the snapshot
        never reads.
        """
        self._require_owner("snapshot_prefix")
        if not 0 <= row < self.batch:
            raise IndexError(f"row {row} out of range for batch {self.batch}")
        row_length = int(self._layer_lengths[0][row])
        if length < 0 or length > row_length:
            raise ValueError(f"prefix length {length} out of range [0, {row_length}] for row {row}")
        blocks = self._tables[row][: blocks_for(length, self.pool.block_size)]
        return PagedPrefix(self.pool, blocks, length, owns=True)

    def splice_prefix(self, row: int, prefix: PagedPrefix) -> None:
        """Alias a retained prefix's blocks into fresh ``row`` — zero K/V copies.

        After the splice the row behaves exactly as if its first
        ``prefix.length`` tokens had just been prefilled; its first append
        copy-on-writes the trailing shared block if another writer already
        filled past ``prefix.length`` there.  The row must be empty, like
        :meth:`KVCache.splice_prefix`.
        """
        self._require_owner("splice_prefix")
        if not isinstance(prefix, PagedPrefix):
            raise TypeError(
                f"paged caches splice PagedPrefix references, got {type(prefix).__name__}; "
                f"KVSegment copies splice into the row KVCache"
            )
        if prefix.pool is not self.pool:
            raise ValueError("prefix and cache belong to different KVBlockPools")
        if not 0 <= row < self.batch:
            raise IndexError(f"row {row} out of range for batch {self.batch}")
        if int(self._layer_lengths[0][row]) != 0:
            raise ValueError(
                f"splice_prefix requires a fresh row, but row {row} already holds "
                f"{int(self._layer_lengths[0][row])} positions"
            )
        pool = self.pool
        for block in prefix.block_ids:
            pool.incref(block)
        self._tables[row] = list(prefix.block_ids)
        for lengths in self._layer_lengths:
            lengths[row] = prefix.length


__all__ = ["KVBlockPool", "KVPoolExhausted", "PagedKVCache", "PagedLayerKV", "PagedPrefix", "blocks_for"]
