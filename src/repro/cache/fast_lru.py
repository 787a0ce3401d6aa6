"""Array-backed LRU: the slot mirror of :class:`repro.cache.lru.LruCache`."""

from __future__ import annotations

from array import array

from repro.cache.fast_base import FastPolicyBase, SlabListMixin
from repro.sim.request import Request


class FastLruCache(SlabListMixin, FastPolicyBase):
    """LRU over a slab-allocated intrusive doubly-linked list.

    Bit-identical to ``lru``: every hit promotes the slot to the list
    head, misses evict from the tail until the object fits.  The list
    is two parallel ``array('q')`` columns instead of two pointers per
    node, which is also the layout the paper attributes to production
    caches (Section 2.2) minus the Python objects.
    """

    name = "lru-fast"
    supports_removal = True

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._freq = array("q", bytes(8 * self._slab_cap))
        self._init_list()

    def _grow_extra(self, add: int) -> None:
        self._freq.frombytes(bytes(8 * add))
        self._grow_list(add)

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
    # Batch path
    # ------------------------------------------------------------------
    def _batch(self, trace, start, stop, slots):
        keys = trace.key_ids()
        sizes = trace.sizes
        loc = self._loc
        freq = self._freq
        prv = self._prv
        nxt = self._nxt
        ends = self._ends
        cap = self.capacity
        clock0 = self.clock - start
        misses = 0
        bytes_requested = 0
        bytes_missed = 0
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
                head = ends[0]
                if head != slot:
                    # unlink (slot is not the head, so prv[slot] is real)
                    p = prv[slot]
                    n = nxt[slot]
                    nxt[p] = n
                    if n != -1:
                        prv[n] = p
                    else:
                        ends[1] = p
                    # push at head
                    prv[slot] = -1
                    nxt[slot] = head
                    prv[head] = slot
                    ends[0] = slot
                continue
            misses += 1
            bytes_missed += size
            self.clock = clock0 + i + 1
            self._insert_slot(slot, size)
        requests = stop - start
        self.clock = clock0 + stop
        self._bulk_record(requests, misses, bytes_requested, bytes_missed)
        return (requests, misses, bytes_requested, bytes_missed)
