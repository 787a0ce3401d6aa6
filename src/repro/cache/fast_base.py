"""Shared machinery for the array-backed ``*-fast`` policies.

The reference policies allocate a :class:`~repro.cache.base.CacheEntry`
per insertion and store them in dict/linked-list containers — faithful
to the paper's pseudocode, but dominated by Python object overhead when
simulating long traces.  The fast policies keep the *same algorithms*
over preallocated parallel arrays:

* every key ever seen is interned to a dense integer *slot* (slots are
  never recycled; re-insertions reuse the key's slot),
* per-object metadata (size, insertion time, frequency, queue links)
  lives in list / ``array('q')`` / ``bytearray`` slabs indexed by slot
  (lists where the miss path reads a slab: a list read returns an
  existing int, an array read allocates one),
* residency is a per-slot location byte, so the hot hit path of a
  compiled-trace run is pure array indexing — no hashing, no object
  allocation, no method dispatch.

Fast policies fully support the streaming :meth:`EvictionPolicy.request`
contract (they are registered policies like any other); the batch entry
point :meth:`FastPolicyBase.run_compiled` additionally consumes a
:class:`~repro.traces.compiled.CompiledTrace` id buffer directly.  Both
paths share the same insertion/eviction machinery — only the trivial
hit path is duplicated (inlined) in the batch loop — so they cannot
drift apart algorithmically; differential tests cover both.

One slot scheme serves every compiled-trace run
(:meth:`FastPolicyBase._slots_for`).  A twin that has interned nothing
adopts the trace's own key maps: slot ``k`` is trace key id ``k``,
``_ids``/``_key_of`` *are* the trace's
:meth:`~repro.traces.compiled.CompiledTrace.key_index` and
``key_table`` (shared, not copied), and the slabs cover every id.
:meth:`FastPolicyBase._intern` copies the shared maps the first time it
adds a key, so the trace never sees a twin's keys.  A twin that has
already interned keys interns the trace's whole key table instead, so
its id -> slot map is complete.  Either way the batch loops index the
map without a check.

The same machinery is also the kernel of the vectorized hit-run engine
(:mod:`repro.sim.vector`).  The engine builds a fresh twin exactly as
:meth:`FastPolicyBase.run_compiled` sees one, so its slots are the
trace's key ids and ``_loc`` doubles as the residency mask the engine
probes.  It calls ``_insert_slot`` on misses and skips hits entirely.
The hit side effects it skipped are applied lazily: eviction code calls
``self._lazy.settle(slot, self)`` before it reads a slot's hit state,
and ``settle`` replays the skipped hits through :meth:`_fold_hits`.
Every eviction notice also reaches the ledger, which re-checks the
evicted key's next request.  The engine's twin has no listeners, so the
FIFO and SIEVE twins skip the metadata only events report (insert time,
hit count) there: on their short miss paths those writes cost up to a
fifth of a vector run.  ``_lazy`` is ``None`` on every other instance,
so each check is one attribute test on the scalar paths.

Equality contract: a fast policy must make bit-identical decisions to
its reference twin — same hit/miss result per request, same eviction
sequence (key, size, freq, insert/evict times), same final stats
checksum.  The reference implementations here are all hash-independent
(dict insertion order, never hash order, determines eviction), which is
what makes slot-based mirrors exact.
"""

from __future__ import annotations

from array import array
from typing import Hashable, List, Optional

from repro.cache.base import DemotionEvent, EvictionEvent, EvictionPolicy

if False:  # typing-only; the runtime import is lazy (see _compiled_cls)
    from repro.traces.compiled import CompiledTrace

#: Single-element template used to build -1-filled ``array('q')`` runs.
NEG1 = array("q", [-1])

_COMPILED_CLS = None


def _compiled_cls():
    # Imported lazily: repro.traces pulls in the sweep runner, which
    # imports the registry, which imports this module.
    global _COMPILED_CLS
    if _COMPILED_CLS is None:
        from repro.traces.compiled import CompiledTrace

        _COMPILED_CLS = CompiledTrace
    return _COMPILED_CLS


class FastPolicyBase(EvictionPolicy):
    """Base class for slab-allocated policies.

    Owns the key-interning table and the metadata slabs common to every
    fast policy (location byte, size, insertion time), the compiled-
    trace slot map, and slot-based event emission.  Subclasses add
    their queue structures via :meth:`_grow_extra` and implement
    :meth:`_batch`.

    Slab growth is strictly *in place* (``extend``/``frombytes``), so
    local bindings to the slabs taken at the top of a batch loop stay
    valid across growth.
    """

    #: The vector engine's lazy-hit ledger on the engine's own twin;
    #: ``None`` everywhere else (see the module docstring).
    _lazy = None

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._ids: dict = {}
        self._key_of: List[Hashable] = []
        #: Whether ``_ids``/``_key_of`` are a trace's own maps.
        self._maps_shared = False
        self._count = 0
        self._slab_cap = 256
        #: 0 = not resident; nonzero = resident (policies with several
        #: regions use distinct codes, e.g. S3-FIFO's S and M tags).
        self._loc = bytearray(self._slab_cap)
        self._size_of = [0] * self._slab_cap
        self._insert_time = array("q", bytes(8 * self._slab_cap))

    # ------------------------------------------------------------------
    # Key interning
    # ------------------------------------------------------------------
    def _intern(self, key: Hashable) -> int:
        slot = self._ids.get(key)
        if slot is None:
            if self._maps_shared:  # copy on first write
                self._ids = dict(self._ids)
                self._key_of = list(self._key_of)
                self._maps_shared = False
            slot = len(self._key_of)
            self._ids[key] = slot
            self._key_of.append(key)
            if slot >= self._slab_cap:
                self._grow_slabs(self._slab_cap)
        return slot

    def _grow_slabs(self, add: int) -> None:
        self._slab_cap += add
        self._loc.extend(bytes(add))
        self._size_of.extend([0] * add)
        self._insert_time.frombytes(bytes(8 * add))
        self._grow_extra(add)

    def _grow_extra(self, add: int) -> None:
        """Extend subclass slabs by ``add`` slots, in place."""

    # ------------------------------------------------------------------
    # Vector-engine kernel protocol
    # ------------------------------------------------------------------
    def _apply_spec(self, spec: dict) -> None:
        """Adopt the configuration in ``spec`` (a ``vector_spec()`` of
        this twin or of its reference policy, less its ``kind``; nothing
        to adopt by default: the capacity is the whole config)."""

    def _fold_hits(self, slot: int, n: int) -> None:
        """Apply ``n`` skipped hits on resident ``slot`` to the state
        eviction reads (called by the vector engine only)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Compiled-trace batch protocol
    # ------------------------------------------------------------------
    def _slots_for(self, trace: "CompiledTrace") -> list:
        """The trace-id -> slot map of a batch run over ``trace``.

        A twin that has interned nothing adopts the trace's key maps
        (slot = key id, see the module docstring) and gets
        ``trace.id_range()``; so does a twin still sharing this trace's
        maps.  Any other twin interns the trace's whole key table, one
        dict lookup per distinct key, and gets the complete map.
        """
        table = trace.key_table
        if self._key_of is table:
            return trace.id_range()
        if not self._key_of:
            self._ids = trace.key_index()
            self._key_of = table
            self._maps_shared = True
            self._grow_slabs(max(0, len(table) - self._slab_cap))
            return trace.id_range()
        intern = self._intern
        return [intern(key) for key in table]

    def run_compiled(self, trace, start: int = 0, stop: Optional[int] = None):
        """Process requests ``[start, stop)`` of a compiled trace.

        Returns ``(requests, misses, bytes_requested, bytes_missed)``
        for the processed span.  Statistics, clock, and eviction events
        are updated exactly as if each request had gone through
        :meth:`EvictionPolicy.request`.
        """
        if not isinstance(trace, _compiled_cls()):
            raise TypeError(
                f"run_compiled needs a CompiledTrace, got {type(trace).__name__}"
            )
        n = len(trace)
        if stop is None:
            stop = n
        if not 0 <= start <= stop <= n:
            raise IndexError(
                f"invalid span [{start}, {stop}) for trace of {n} requests"
            )
        return self._batch(trace, start, stop, self._slots_for(trace))

    def _batch(self, trace: "CompiledTrace", start: int, stop: int, slots: list):
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Slot-based event emission / bulk accounting
    # ------------------------------------------------------------------
    def _notify_evict_slot(
        self, slot: int, freq: Optional[int] = None
    ) -> None:
        """Count an eviction and report it.  ``freq`` defaults to the
        slot's hit count in the ``_freq`` slab, read only when a
        listener wants it."""
        self.stats.evictions += 1
        if self._lazy is not None:
            self._lazy.evicted(slot)
        if self._evict_listeners:
            event = EvictionEvent(
                key=self._key_of[slot],
                size=self._size_of[slot],
                freq=self._freq[slot] if freq is None else freq,
                insert_time=self._insert_time[slot],
                evict_time=self.clock,
            )
            for listener in self._evict_listeners:
                listener(event)

    def _notify_demote_slot(self, slot: int, promoted: bool) -> None:
        if self._demote_listeners:
            event = DemotionEvent(
                key=self._key_of[slot],
                size=self._size_of[slot],
                insert_time=self._insert_time[slot],
                demote_time=self.clock,
                promoted=promoted,
            )
            for listener in self._demote_listeners:
                listener(event)

    def _bulk_record(
        self,
        requests: int,
        misses: int,
        bytes_requested: int,
        bytes_missed: int,
    ) -> None:
        st = self.stats
        st.requests += requests
        st.hits += requests - misses
        st.misses += misses
        st.bytes_requested += bytes_requested
        st.bytes_missed += bytes_missed

    # ------------------------------------------------------------------
    def __contains__(self, key: Hashable) -> bool:
        slot = self._ids.get(key)
        return slot is not None and self._loc[slot] != 0

    def __len__(self) -> int:
        return self._count


class SlabListMixin:
    """Intrusive doubly-linked list over slot arrays.

    Mirrors :class:`repro.structures.dlist.DList` exactly: the head is
    the most recently inserted end, the tail the eviction end.
    ``_prv[slot]`` points toward the head (newer neighbour),
    ``_nxt[slot]`` toward the tail; ``-1`` plays the sentinel.  The
    head/tail pair lives in a two-element array (``_ends[0]`` = head,
    ``_ends[1]`` = tail) so that batch loops can bind it locally while
    sharing mutations with the eviction methods.
    """

    def _init_list(self) -> None:
        sc = self._slab_cap
        self._prv = NEG1 * sc
        self._nxt = NEG1 * sc
        self._ends = array("q", [-1, -1])

    def _grow_list(self, add: int) -> None:
        self._prv.extend(NEG1 * add)
        self._nxt.extend(NEG1 * add)

    def _push_head(self, slot: int) -> None:
        ends = self._ends
        head = ends[0]
        self._prv[slot] = -1
        self._nxt[slot] = head
        if head != -1:
            self._prv[head] = slot
        else:
            ends[1] = slot
        ends[0] = slot

    def _unlink(self, slot: int) -> None:
        ends = self._ends
        p = self._prv[slot]
        n = self._nxt[slot]
        if p != -1:
            self._nxt[p] = n
        else:
            ends[0] = n
        if n != -1:
            self._prv[n] = p
        else:
            ends[1] = p

    def _move_to_head(self, slot: int) -> None:
        if self._ends[0] != slot:
            self._unlink(slot)
            self._push_head(slot)
