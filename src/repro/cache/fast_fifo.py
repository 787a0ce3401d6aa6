"""Array-backed FIFO: the slot mirror of :class:`repro.cache.fifo.FifoCache`."""

from __future__ import annotations

from array import array
from collections import deque

from repro.cache.fast_base import FastPolicyBase
from repro.sim.request import Request


class FastFifoCache(FastPolicyBase):
    """Plain FIFO over a deque of slots.

    Bit-identical to ``fifo``: hits touch only the frequency slab,
    misses evict from the queue head until the object fits and push the
    new slot at the tail.
    """

    name = "fifo-fast"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._freq = array("q", bytes(8 * self._slab_cap))
        self._queue: deque = deque()

    def _grow_extra(self, add: int) -> None:
        self._freq.frombytes(bytes(8 * add))

    # ------------------------------------------------------------------
    # Streaming path
    # ------------------------------------------------------------------
    def _access(self, req: Request) -> bool:
        slot = self._ids.get(req.key)
        if slot is not None and self._loc[slot]:
            self._freq[slot] += 1
            return True
        if slot is None:
            slot = self._intern(req.key)
        self._insert_slot(slot, req.size)
        return False

    # ------------------------------------------------------------------
    # Shared insertion / eviction machinery
    # ------------------------------------------------------------------
    def _insert_slot(self, slot: int, size: int) -> None:
        queue = self._queue
        loc = self._loc
        size_of = self._size_of
        used = self.used + size
        capacity = self.capacity
        # Evict from the head until the object fits.  No hit state is
        # read, so the vector engine's ledger has nothing to settle here;
        # the eviction notice syncs it.
        while used > capacity:
            victim = queue.popleft()
            loc[victim] = 0
            used -= size_of[victim]
            self.used = used - size
            self._notify_evict_slot(victim)
        size_of[slot] = size
        if self._lazy is None:  # event-only metadata; engine has no listeners
            self._insert_time[slot] = self.clock
            self._freq[slot] = 0
        loc[slot] = 1
        queue.append(slot)
        self.used = used

    def __len__(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # Vector-engine kernel hooks (see repro.cache.fast_base)
    # ------------------------------------------------------------------
    def vector_spec(self):
        """Kernel config for :mod:`repro.sim.vector` (exact type only)."""
        if type(self) is not FastFifoCache:
            return None
        return {"kind": "fifo"}

    def _fold_hits(self, slot: int, n: int) -> None:
        """FIFO evicts by insertion order alone: hits change nothing
        eviction reads."""

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------
    def _batch(self, trace, start, stop, slots):
        keys = trace.key_ids()
        sizes = trace.sizes
        loc = self._loc
        freq = self._freq
        cap = self.capacity
        unit = sizes is None
        # clock at absolute request index i is clock0 + i + 1
        clock0 = self.clock - start
        misses = 0
        bytes_missed = 0
        for i in range(start, stop):
            slot = slots[keys[i]]
            # Oversized is a miss even when the key is resident, with no
            # metadata update (matches base.request's early return).
            if loc[slot] and (unit or sizes[i] <= cap):
                freq[slot] += 1
                continue
            size = 1 if unit else sizes[i]
            misses += 1
            bytes_missed += size
            if size <= cap:
                self.clock = clock0 + i + 1
                self._insert_slot(slot, size)
        requests = stop - start
        bytes_requested = requests if unit else sum(sizes[start:stop])
        self.clock = clock0 + stop
        self._bulk_record(requests, misses, bytes_requested, bytes_missed)
        return (requests, misses, bytes_requested, bytes_missed)
