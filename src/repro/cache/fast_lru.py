"""Array-backed LRU: the slot mirror of :class:`repro.cache.lru.LruCache`."""

from __future__ import annotations

from itertools import islice

from repro.cache.fast_base import FastPolicyBase
from repro.sim.request import Request

#: Dead log entries tolerated beyond the live ones before a compaction
#: (see :meth:`FastLruCache._compact`).
SLACK = 1024

#: Requests a compiled-trace run appends to the log at a time.
CHUNK = 1 << 16


class FastLruCache(FastPolicyBase):
    """LRU as an access log with per-slot stamps.

    Bit-identical to ``lru``.  Instead of relinking a doubly-linked list
    on every hit, the twin appends the slot to an access log and stamps
    it, the slot-level version of the reference's ``entry.last_access``:

    * ``_log`` lists slots in access order, and ``_last[slot]`` is the
      log index of the slot's latest access (``-1`` when not resident).
      Entry ``p`` is live while ``_last[_log[p]] == p``; the live
      entries, oldest first, are the reference ``DList`` from tail to
      head.
    * Eviction advances the cursor ``_cur`` to the oldest live entry,
      the LRU victim.  ``remove()`` and eviction set the stamp to -1.
    * When the log outgrows ``2 * len(self) + SLACK`` entries,
      :meth:`_compact` keeps the live ones: amortized O(1) per append.

    The streaming and batch paths share this representation; a
    compiled-trace run appends its span ``CHUNK`` requests at a time
    and checks the bound between chunks.
    """

    name = "lru-fast"
    supports_removal = True

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        # lists, not arrays: a hit reads and writes both (fast_base)
        self._freq = [0] * self._slab_cap
        self._last = [-1] * self._slab_cap
        self._log: list = []
        self._cur = 0

    def _grow_extra(self, add: int) -> None:
        self._freq.extend([0] * add)
        self._last.extend([-1] * add)

    # ------------------------------------------------------------------
    # Streaming path
    # ------------------------------------------------------------------
    def _access(self, req: Request) -> bool:
        slot = self._ids.get(req.key)
        if slot is not None and self._loc[slot]:
            self._freq[slot] += 1
            self._stamp(slot)
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
        self.used += size
        self._count += 1
        self._stamp(slot)

    def remove(self, key) -> bool:
        slot = self._ids.get(key)
        if slot is None or not self._loc[slot]:
            return False
        self._last[slot] = -1
        self._loc[slot] = 0
        self.used -= self._size_of[slot]
        self._count -= 1
        return True

    def _evict_one(self) -> None:
        log = self._log
        last = self._last
        cur = self._cur
        while last[log[cur]] != cur:
            cur += 1
        slot = log[cur]
        self._cur = cur + 1
        last[slot] = -1
        self._loc[slot] = 0
        self.used -= self._size_of[slot]
        self._count -= 1
        self._notify_evict_slot(slot)

    # ------------------------------------------------------------------
    # Access log
    # ------------------------------------------------------------------
    def _stamp(self, slot: int) -> None:
        log = self._log
        self._last[slot] = len(log)
        log.append(slot)
        if len(log) > 2 * self._count + SLACK:
            self._compact()

    def _compact(self) -> None:
        """Keep only the live log entries, oldest first, and restamp
        them."""
        last = self._last
        cur = self._cur
        live = [
            slot
            for p, slot in enumerate(islice(self._log, cur, None), cur)
            if last[slot] == p
        ]
        for p, slot in enumerate(live):
            last[slot] = p
        self._log = live
        self._cur = 0

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------
    def _batch(self, trace, start, stop, slots):
        # Each chunk of the span joins the log up front, and the loop
        # walks log indices: a hit is a counter bump and a stamp.  The
        # miss path is _insert_slot/_evict_one written in line, with the
        # cursor, ``used``, the count and the clock in locals (see
        # repro.cache.fast_base).  Oversized requests enter the log but
        # are never stamped, so their entries are dead.
        assert self._lazy is None, "lru-fast has no vector kernel"
        keys = trace.key_ids()
        sizes = trace.sizes
        ids = slots is trace.id_range()
        loc = self._loc
        freq = self._freq
        last = self._last
        size_of = self._size_of
        insert_time = self._insert_time
        listening = bool(self._evict_listeners)
        cap = self.capacity
        unit = sizes is None
        used = self.used
        count = self._count
        # the clock reads t0 + i + 1 at request i
        t0 = self.clock - start
        misses = 0
        bytes_missed = 0
        evictions = 0
        for lo in range(start, stop, CHUNK):
            hi = min(lo + CHUNK, stop)
            log = self._log
            base = len(log)
            if ids:
                log += keys[lo:hi]
            else:
                log += map(slots.__getitem__, keys[lo:hi])
            cur = self._cur
            # request i sits at log index j = i + off
            off = base - lo
            clock0 = t0 - off
            for j in range(base, base + hi - lo):
                slot = log[j]
                # Oversized is a miss even when the key is resident, with
                # no metadata update (matches base.request's early return).
                if loc[slot] and (unit or sizes[j - off] <= cap):
                    freq[slot] += 1
                    last[slot] = j
                    continue
                size = 1 if unit else sizes[j - off]
                misses += 1
                bytes_missed += size
                if size > cap:
                    continue
                used += size
                while used > cap:
                    # evict the oldest live entry
                    while last[log[cur]] != cur:
                        cur += 1
                    victim = log[cur]
                    cur += 1
                    last[victim] = -1
                    loc[victim] = 0
                    used -= size_of[victim]
                    count -= 1
                    if listening:
                        self.used = used - size
                        self._count = count
                        self.clock = clock0 + j + 1
                        self._notify_evict_slot(victim)
                    else:
                        evictions += 1
                size_of[slot] = size
                insert_time[slot] = clock0 + j + 1
                freq[slot] = 0
                loc[slot] = 1
                last[slot] = j
                count += 1
            self._cur = cur
            if len(log) > 2 * count + SLACK:
                self._compact()
        requests = stop - start
        bytes_requested = requests if unit else sum(sizes[start:stop])
        self.used = used
        self._count = count
        self.clock = t0 + stop
        self.stats.evictions += evictions
        self._bulk_record(requests, misses, bytes_requested, bytes_missed)
        return (requests, misses, bytes_requested, bytes_missed)
