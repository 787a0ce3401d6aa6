"""Array-backed SIEVE: the slot mirror of :class:`repro.cache.sieve.SieveCache`."""

from __future__ import annotations

from array import array

from repro.cache.fast_base import FastPolicyBase
from repro.sim.request import Request


class FastSieveCache(FastPolicyBase):
    """SIEVE over a slab-allocated queue with a visited bitmap.

    Bit-identical to ``sieve``: hits only set the visited bit (lazy
    promotion), eviction scans the hand from its position toward the
    queue head, clearing visited bits, wrapping to the tail, and
    removes the first unvisited slot in place.
    """

    name = "sieve-fast"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._freq = array("q", bytes(8 * self._slab_cap))
        self._visited = bytearray(self._slab_cap)
        # Queue links: _newer[slot] points toward the head (insertion
        # end), _older[slot] toward the tail; -1 ends the list.  Lists,
        # not arrays: a list read returns an existing int.
        self._newer = [-1] * self._slab_cap
        self._older = [-1] * self._slab_cap
        self._head = -1
        self._tail = -1
        self._hand = -1

    def _grow_extra(self, add: int) -> None:
        self._freq.frombytes(bytes(8 * add))
        self._visited.extend(bytes(add))
        self._newer.extend([-1] * add)
        self._older.extend([-1] * add)

    # ------------------------------------------------------------------
    # Streaming path
    # ------------------------------------------------------------------
    def _access(self, req: Request) -> bool:
        slot = self._ids.get(req.key)
        if slot is not None and self._loc[slot]:
            self._freq[slot] += 1
            self._visited[slot] = 1
            return True
        if slot is None:
            slot = self._intern(req.key)
        self._insert_slot(slot, req.size)
        return False

    # ------------------------------------------------------------------
    # Shared insertion / eviction machinery
    # ------------------------------------------------------------------
    def _insert_slot(self, slot: int, size: int) -> None:
        visited = self._visited
        newer = self._newer
        older = self._older
        used = self.used + size
        capacity = self.capacity
        while used > capacity:
            # Evict: scan from the hand toward the head, clearing
            # visited bits and wrapping to the tail; the first
            # unvisited slot is the victim.
            lazy = self._lazy
            victim = self._hand
            if victim == -1:
                victim = self._tail
            while True:
                if lazy is not None:
                    # Replay skipped hits before the bit is read: they
                    # predate the clear below.
                    lazy.settle(victim, self)
                if not visited[victim]:
                    break
                visited[victim] = 0
                nw = newer[victim]
                victim = nw if nw != -1 else self._tail
            nw = newer[victim]
            ol = older[victim]
            self._hand = nw  # -1 when the victim was the head
            if nw != -1:
                older[nw] = ol
            else:
                self._head = ol
            if ol != -1:
                newer[ol] = nw
            else:
                self._tail = nw
            self._loc[victim] = 0
            used -= self._size_of[victim]
            self.used = used - size
            self._count -= 1
            self._notify_evict_slot(victim)
        self._size_of[slot] = size
        if self._lazy is None:  # event-only metadata; engine has no listeners
            self._insert_time[slot] = self.clock
            self._freq[slot] = 0
        visited[slot] = 0
        self._loc[slot] = 1
        head = self._head  # push at the head
        newer[slot] = -1
        older[slot] = head
        if head != -1:
            newer[head] = slot
        else:
            self._tail = slot
        self._head = slot
        self.used = used
        self._count += 1

    # ------------------------------------------------------------------
    # Vector-engine kernel hooks (see repro.cache.fast_base)
    # ------------------------------------------------------------------
    def vector_spec(self):
        """Kernel config for :mod:`repro.sim.vector` (exact type only)."""
        if type(self) is not FastSieveCache:
            return None
        return {"kind": "sieve"}

    def _fold_hits(self, slot: int, n: int) -> None:
        """Visits are idempotent: any number of hits sets the bit."""
        self._visited[slot] = 1

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------
    def _batch(self, trace, start, stop, slots):
        # The miss path is _insert_slot written in line, with the list
        # ends, the hand, ``used``, the count and the clock in locals
        # (see repro.cache.fast_base).
        assert self._lazy is None, "the vector engine detaches first"
        keys = trace.key_ids()
        sizes = trace.sizes
        loc = self._loc
        freq = self._freq
        visited = self._visited
        size_of = self._size_of
        insert_time = self._insert_time
        newer = self._newer
        older = self._older
        head = self._head
        tail = self._tail
        hand = self._hand
        listening = bool(self._evict_listeners)
        cap = self.capacity
        unit = sizes is None
        used = self.used
        count = self._count
        clock0 = self.clock - start
        misses = 0
        bytes_missed = 0
        evictions = 0
        for i in range(start, stop):
            slot = slots[keys[i]]
            # Oversized is a miss even when the key is resident, with no
            # metadata update (matches base.request's early return).
            if loc[slot] and (unit or sizes[i] <= cap):
                freq[slot] += 1
                visited[slot] = 1
                continue
            size = 1 if unit else sizes[i]
            misses += 1
            bytes_missed += size
            if size > cap:
                continue
            used += size
            while used > cap:
                # Evict: scan from the hand toward the head, clearing
                # visited bits and wrapping to the tail.
                victim = hand if hand != -1 else tail
                while visited[victim]:
                    visited[victim] = 0
                    victim = newer[victim]
                    if victim == -1:
                        victim = tail
                hand = nw = newer[victim]  # -1 when the victim was the head
                ol = older[victim]
                if nw != -1:
                    older[nw] = ol
                else:
                    head = ol
                if ol != -1:
                    newer[ol] = nw
                else:
                    tail = nw
                loc[victim] = 0
                used -= size_of[victim]
                count -= 1
                if listening:
                    self._head = head
                    self._tail = tail
                    self._hand = hand
                    self.used = used - size
                    self._count = count
                    self.clock = clock0 + i + 1
                    self._notify_evict_slot(victim)
                else:
                    evictions += 1
            size_of[slot] = size
            insert_time[slot] = clock0 + i + 1
            freq[slot] = 0
            visited[slot] = 0
            loc[slot] = 1
            # push at the head
            newer[slot] = -1
            older[slot] = head
            if head != -1:
                newer[head] = slot
            else:
                tail = slot
            head = slot
            count += 1
        requests = stop - start
        bytes_requested = requests if unit else sum(sizes[start:stop])
        self._head = head
        self._tail = tail
        self._hand = hand
        self.used = used
        self._count = count
        self.clock = clock0 + stop
        self.stats.evictions += evictions
        self._bulk_record(requests, misses, bytes_requested, bytes_missed)
        return (requests, misses, bytes_requested, bytes_missed)
