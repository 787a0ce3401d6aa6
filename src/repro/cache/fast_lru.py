"""Array-backed LRU: the slot mirror of :class:`repro.cache.lru.LruCache`."""

from __future__ import annotations

from array import array

from repro.cache.fast_base import FastPolicyBase
from repro.sim.request import Request

#: Single-element template used to build -1-filled ``array('q')`` runs.
NEG1 = array("q", [-1])


class FastLruCache(FastPolicyBase):
    """LRU over a slab-allocated intrusive doubly-linked list.

    Bit-identical to ``lru``: every hit promotes the slot to the list
    head, misses evict from the tail until the object fits.  The list
    is two parallel ``array('q')`` columns instead of two pointers per
    node, which is also the layout the paper attributes to production
    caches (Section 2.2) minus the Python objects.

    The list mirrors :class:`repro.structures.dlist.DList` exactly: the
    head is the most recently inserted end, the tail the eviction end.
    ``_prv[slot]`` points toward the head (newer neighbour),
    ``_nxt[slot]`` toward the tail; ``-1`` plays the sentinel.  The
    head/tail pair lives in a two-element array (``_ends[0]`` = head,
    ``_ends[1]`` = tail), which the batch loop reads into locals and
    writes back at the end of its span.
    """

    name = "lru-fast"
    supports_removal = True

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        sc = self._slab_cap
        self._freq = array("q", bytes(8 * sc))
        self._prv = NEG1 * sc
        self._nxt = NEG1 * sc
        self._ends = array("q", [-1, -1])

    def _grow_extra(self, add: int) -> None:
        self._freq.frombytes(bytes(8 * add))
        self._prv.extend(NEG1 * add)
        self._nxt.extend(NEG1 * add)

    # ------------------------------------------------------------------
    # Streaming path
    # ------------------------------------------------------------------
    def _access(self, req: Request) -> bool:
        slot = self._ids.get(req.key)
        if slot is not None and self._loc[slot]:
            self._freq[slot] += 1
            self._move_to_head(slot)
            return True
        if slot is None:
            slot = self._intern(req.key)
        self._insert_slot(slot, req.size)
        return False

    # ------------------------------------------------------------------
    # Shared insertion / eviction machinery
    # ------------------------------------------------------------------
    def _insert_slot(self, slot: int, size: int) -> None:
        while self.used + size > self.capacity:
            self._evict_one()
        self._size_of[slot] = size
        self._insert_time[slot] = self.clock
        self._freq[slot] = 0
        self._loc[slot] = 1
        self._push_head(slot)
        self.used += size
        self._count += 1

    def remove(self, key) -> bool:
        slot = self._ids.get(key)
        if slot is None or not self._loc[slot]:
            return False
        self._unlink(slot)
        self._loc[slot] = 0
        self.used -= self._size_of[slot]
        self._count -= 1
        return True

    def _evict_one(self) -> None:
        slot = self._ends[1]
        self._unlink(slot)
        self._loc[slot] = 0
        self.used -= self._size_of[slot]
        self._count -= 1
        self._notify_evict_slot(slot, self._freq[slot])

    # ------------------------------------------------------------------
    # Linked list over the slot slabs
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------
    def _batch(self, trace, start, stop, slots):
        # The miss path is _insert_slot/_evict_one written in line, with
        # the list ends, ``used``, the count and the clock in locals
        # (see repro.cache.fast_base).
        assert self._lazy is None, "lru-fast has no vector kernel"
        keys = trace.key_ids()
        sizes = trace.sizes
        loc = self._loc
        freq = self._freq
        size_of = self._size_of
        insert_time = self._insert_time
        prv = self._prv
        nxt = self._nxt
        ends = self._ends
        head, tail = ends
        listening = bool(self._evict_listeners)
        cap = self.capacity
        used = self.used
        count = self._count
        clock0 = self.clock - start
        misses = 0
        bytes_requested = 0
        bytes_missed = 0
        evictions = 0
        unit = sizes is None
        for i in range(start, stop):
            size = 1 if unit else sizes[i]
            bytes_requested += size
            if size > cap:
                # Oversized is a miss even when the key is resident, with
                # no metadata update (matches base.request's early return).
                misses += 1
                bytes_missed += size
                continue
            slot = slots[keys[i]]
            if loc[slot]:
                freq[slot] += 1
                if head != slot:
                    # unlink (slot is not the head, so prv[slot] is real)
                    p = prv[slot]
                    n = nxt[slot]
                    nxt[p] = n
                    if n != -1:
                        prv[n] = p
                    else:
                        tail = p
                    # push at head
                    prv[slot] = -1
                    nxt[slot] = head
                    prv[head] = slot
                    head = slot
                continue
            misses += 1
            bytes_missed += size
            limit = cap - size
            while used > limit:
                # evict the tail
                victim = tail
                tail = prv[victim]
                if tail != -1:
                    nxt[tail] = -1
                else:
                    head = -1
                loc[victim] = 0
                used -= size_of[victim]
                count -= 1
                if listening:
                    ends[0] = head
                    ends[1] = tail
                    self.used = used
                    self._count = count
                    self.clock = clock0 + i + 1
                    self._notify_evict_slot(victim, freq[victim])
                else:
                    evictions += 1
            size_of[slot] = size
            insert_time[slot] = clock0 + i + 1
            freq[slot] = 0
            loc[slot] = 1
            # push at head
            prv[slot] = -1
            nxt[slot] = head
            if head != -1:
                prv[head] = slot
            else:
                tail = slot
            head = slot
            used += size
            count += 1
        requests = stop - start
        ends[0] = head
        ends[1] = tail
        self.used = used
        self._count = count
        self.clock = clock0 + stop
        self.stats.evictions += evictions
        self._bulk_record(requests, misses, bytes_requested, bytes_missed)
        return (requests, misses, bytes_requested, bytes_missed)
