"""Array-backed S3-FIFO: the slot mirror of :class:`repro.core.s3fifo.S3FifoCache`.

Same Algorithm 1 — small FIFO **S**, main FIFO **M** with
FIFO-Reinsertion, ghost queue **G** — but over slot-indexed slabs:

* each object's metadata is one *state byte*: the frequency counter of
  Section 4.2 in the low six bits packed with a queue tag in the top
  two (``state = region | freq``), so the hot hit path is a single
  bytearray read and write,
* S and M are deques of slot indices,
* the ghost queue is a deque of packed ``stamp << 32 | slot`` entries
  plus a per-slot table of each slot's live entry; membership is one
  list load, and eviction skips stale entries lazily — no dict.

The decision sequence is bit-identical to the reference: every
hit/miss outcome, every eviction (key, size, freq, timestamps), every
demotion event, and the final stats checksum match ``s3fifo`` request
for request.  Differential tests in ``tests/test_fast_policies.py``
enforce this.  This class is also the vector engine's S3-FIFO kernel,
for ``s3fifo`` and ``s3fifo-fast`` alike (see :mod:`repro.cache.fast_base`).
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Optional

from repro.cache.fast_base import FastPolicyBase

# State byte layout: 0 = absent, else region | freq.
_FREQ = 0x3F  # frequency bits
_S_BASE = 0x40  # in the small queue S
_M_BASE = 0x80  # in the main queue M

#: Largest ``freq_cap`` the state byte holds.  The registered policy
#: keeps the paper's 2-bit counter; the vector engine runs an ``s3fifo``
#: with a wider counter on a twin that uses the spare bits.
FREQ_FIELD_MAX = _FREQ

#: Ghost entries pack their stamp above the slot index.
_SLOT_BITS = 32
_SLOT_MASK = (1 << _SLOT_BITS) - 1


class FastS3FifoCache(FastPolicyBase):
    """S3-FIFO over slot queues and packed frequency counters.

    Accepts the same parameters as :class:`S3FifoCache`; like the
    paper's implementation it keeps a 2-bit counter, so ``freq_cap``
    must be at most 3 (the reference default).  Use ``s3fifo`` for
    experimental larger counters.
    """

    name = "s3fifo-fast"
    supports_removal = True

    def __init__(
        self,
        capacity: int,
        small_ratio: float = 0.1,
        ghost_entries: Optional[int] = None,
        freq_cap: int = 3,
        move_to_main_threshold: int = 2,
    ) -> None:
        super().__init__(capacity)
        if not 0.0 < small_ratio < 1.0:
            raise ValueError(f"small_ratio must be in (0, 1), got {small_ratio}")
        if not 1 <= freq_cap <= 3:
            raise ValueError(
                "s3fifo-fast keeps a 2-bit frequency counter; freq_cap must "
                f"be in [1, 3], got {freq_cap} (use s3fifo for larger caps)"
            )
        if move_to_main_threshold < 0:
            raise ValueError(
                "move_to_main_threshold must be >= 0, "
                f"got {move_to_main_threshold}"
            )
        if ghost_entries is not None and ghost_entries < 0:
            raise ValueError(f"capacity must be >= 0, got {ghost_entries}")
        self._s_cap = max(1, int(capacity * small_ratio))
        self._m_cap = max(1, capacity - self._s_cap)
        self._freq_cap = freq_cap
        self._threshold = move_to_main_threshold
        self._ghost_dynamic = ghost_entries is None
        self._g_cap = self._m_cap if ghost_entries is None else ghost_entries
        self._small: deque = deque()
        self._main: deque = deque()
        self._s_used = 0
        self._m_used = 0
        # Ghost: _g_of[slot] is the slot's live entry, 0 when absent.
        # _g_q holds entries oldest first; one whose slot has moved on
        # (ghost hit, or re-added under a newer stamp) is stale and is
        # skipped when it reaches the front.
        self._g_of = [0] * self._slab_cap
        self._g_q: deque = deque()
        self._g_live = 0
        self._g_stamp = 0

    def _grow_extra(self, add: int) -> None:
        self._g_of.extend([0] * add)

    # ------------------------------------------------------------------
    # Introspection (parity with S3FifoCache)
    # ------------------------------------------------------------------
    @property
    def small_capacity(self) -> int:
        return self._s_cap

    @property
    def main_capacity(self) -> int:
        return self._m_cap

    @property
    def small_used(self) -> int:
        return self._s_used

    @property
    def main_used(self) -> int:
        return self._m_used

    @property
    def ghost_len(self) -> int:
        """Number of live ghost entries."""
        return self._g_live

    @property
    def ghost_capacity(self) -> int:
        return self._g_cap

    def in_small(self, key: Hashable) -> bool:
        slot = self._ids.get(key)
        return slot is not None and self._loc[slot] & ~_FREQ == _S_BASE

    def in_main(self, key: Hashable) -> bool:
        slot = self._ids.get(key)
        return slot is not None and self._loc[slot] & ~_FREQ == _M_BASE

    def in_ghost(self, key: Hashable) -> bool:
        slot = self._ids.get(key)
        return slot is not None and self._g_of[slot] != 0

    def freq_of(self, key: Hashable) -> int:
        """Current counter value of a resident key (tests aid)."""
        slot = self._ids.get(key)
        if slot is None or not self._loc[slot]:
            raise KeyError(key)
        return self._loc[slot] & _FREQ

    def remove(self, key: Hashable) -> bool:
        """Live deletion for the service layer (not part of Algorithm 1).

        The slot is spliced out of its queue eagerly — O(queue length),
        which is fine for the service's delete/expiry rate.  Like the
        reference policy, deletion leaves no ghost entry and fires no
        eviction event.
        """
        slot = self._ids.get(key)
        if slot is None:
            return False
        state = self._loc[slot]
        if not state:
            return False
        size = self._size_of[slot]
        if state & ~_FREQ == _S_BASE:
            self._small.remove(slot)
            self._s_used -= size
        else:
            self._main.remove(slot)
            self._m_used -= size
        self._loc[slot] = 0
        self.used -= size
        self._count -= 1
        return True

    # ------------------------------------------------------------------
    # Vector-engine kernel hooks (see repro.cache.fast_base)
    # ------------------------------------------------------------------
    def vector_spec(self):
        """Kernel config for :mod:`repro.sim.vector` (exact type only)."""
        if type(self) is not FastS3FifoCache:
            return None
        return {
            "kind": "s3fifo",
            "s_cap": self._s_cap,
            "m_cap": self._m_cap,
            "freq_cap": self._freq_cap,
            "threshold": self._threshold,
            "ghost_dynamic": self._ghost_dynamic,
            "ghost_cap": self._g_cap,
        }

    def _apply_spec(self, spec: dict) -> None:
        self._s_cap = spec["s_cap"]
        self._m_cap = spec["m_cap"]
        self._freq_cap = spec["freq_cap"]
        self._threshold = spec["threshold"]
        self._ghost_dynamic = spec["ghost_dynamic"]
        self._g_cap = spec["ghost_cap"]

    def _fold_hits(self, slot: int, n: int) -> None:
        state = self._loc[slot]
        freq = (state & _FREQ) + n
        cap = self._freq_cap
        self._loc[slot] = (state & ~_FREQ) | (freq if freq < cap else cap)

    # ------------------------------------------------------------------
    # Streaming path
    # ------------------------------------------------------------------
    def _access(self, req) -> bool:
        slot = self._ids.get(req.key)
        if slot is not None:
            state = self._loc[slot]
            if state:
                if state & _FREQ < self._freq_cap:
                    self._loc[slot] = state + 1
                return True
        else:
            slot = self._intern(req.key)
        self._insert_slot(slot, req.size)
        return False

    # ------------------------------------------------------------------
    # Shared insertion / eviction machinery (Algorithm 1)
    # ------------------------------------------------------------------
    def _insert_slot(self, slot: int, size: int) -> None:
        """INSERT: evict until ``size`` fits, then admit ``slot`` to S,
        or straight to M when the ghost remembers it."""
        loc = self._loc
        size_of = self._size_of
        g_of = self._g_of
        limit = self.capacity - size
        while self.used > limit:
            if self._s_used < self._s_cap and self._main:
                self._evict_m()
                continue
            # EVICTS: move accessed tails to M, evict the first cold
            # tail to G.
            small = self._small
            lazy = self._lazy
            threshold = self._threshold
            while small:
                victim = small.popleft()
                vsize = size_of[victim]
                self._s_used -= vsize
                if lazy is not None:
                    lazy.settle(victim, self)
                freq = loc[victim] & _FREQ
                if freq >= threshold:
                    loc[victim] = _M_BASE  # access bits cleared on the move
                    self._main.append(victim)
                    self._m_used += vsize
                    if self._demote_listeners:
                        self._notify_demote_slot(victim, promoted=True)
                    if self._m_used > self._m_cap:
                        self._evict_m()
                    continue
                used = self.used - vsize
                count = self._count - 1
                self.used = used
                self._count = count
                loc[victim] = 0
                g_cap = self._g_cap
                if self._ghost_dynamic and (
                    used != count or g_cap != self._m_cap
                ):
                    # Paper sizing: as many ghost entries as M can hold
                    # objects (byte capacity over running mean size).
                    # When used == count the mean is 1.0 and the target
                    # is m_cap, so the recompute is skipped once the
                    # capacity is already pinned there (the unit-size
                    # steady state).
                    mean_size = used / count if count else 1.0
                    g_cap = self._g_cap = max(
                        1, int(self._m_cap / max(1.0, mean_size))
                    )
                if g_cap:
                    # Add the victim to G, then drop the oldest live
                    # entries past the (possibly resized) capacity.  The
                    # new entry is never dropped: g_cap >= 1.  S3-FIFO
                    # never adds a key G already holds (admission
                    # removes its entry).
                    stamp = self._g_stamp + 1
                    self._g_stamp = stamp
                    entry = stamp << _SLOT_BITS | victim
                    g_of[victim] = entry
                    g_q = self._g_q
                    g_q.append(entry)
                    live = self._g_live + 1
                    while live > g_cap:
                        entry = g_q.popleft()
                        old = entry & _SLOT_MASK
                        if g_of[old] == entry:
                            g_of[old] = 0
                            live -= 1
                    self._g_live = live
                if self._demote_listeners:
                    self._notify_demote_slot(victim, promoted=False)
                self._notify_evict_slot(victim, freq)
                break
            else:
                # S drained entirely into M; fall back to evicting from M.
                if self._main:
                    self._evict_m()
        size_of[slot] = size
        self._insert_time[slot] = self.clock
        if g_of[slot]:  # ghost hit: straight to M
            g_of[slot] = 0
            self._g_live -= 1
            self._main.append(slot)
            loc[slot] = _M_BASE  # in M, freq 0
            self._m_used += size
        else:
            self._small.append(slot)
            loc[slot] = _S_BASE  # in S, freq 0
            self._s_used += size
        self.used += size
        self._count += 1

    def _evict_m(self) -> None:
        """EVICTM: FIFO-Reinsertion with the frequency counter."""
        main = self._main
        loc = self._loc
        lazy = self._lazy
        while main:
            slot = main.popleft()
            if lazy is not None:
                lazy.settle(slot, self)
            state = loc[slot]
            if state & _FREQ:
                loc[slot] = state - 1
                main.append(slot)  # FIFO-Reinsertion
            else:
                size = self._size_of[slot]
                self._m_used -= size
                self.used -= size
                self._count -= 1
                loc[slot] = 0
                self._notify_evict_slot(slot, 0)
                return

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------
    def _store(self, clock, used, count, s_used, m_used, g_cap, g_live,
               g_stamp) -> None:
        """Write the batch loop's local state back to the instance."""
        self.clock = clock
        self.used = used
        self._count = count
        self._s_used = s_used
        self._m_used = m_used
        self._g_cap = g_cap
        self._g_live = g_live
        self._g_stamp = g_stamp

    def _batch(self, trace, start, stop, slots):
        # The miss path is _insert_slot written in line, with ``used``,
        # the count, S/M usage, the ghost's capacity, live count and
        # stamp, and the clock in locals (see repro.cache.fast_base).
        # EVICTM stays a call (one per ~10-20 misses): the locals are
        # stored before it and ``used``/count/M usage reloaded after.
        assert self._lazy is None, "the vector engine detaches first"
        keys = trace.key_ids()
        sizes = trace.sizes
        loc = self._loc
        size_of = self._size_of
        insert_time = self._insert_time
        g_of = self._g_of
        g_q = self._g_q
        small = self._small
        main = self._main
        evict_m = self._evict_m
        store = self._store
        fcap = self._freq_cap
        threshold = self._threshold
        s_cap = self._s_cap
        m_cap = self._m_cap
        ghost_dynamic = self._ghost_dynamic
        demoting = bool(self._demote_listeners)
        listening = demoting or bool(self._evict_listeners)
        freq_bits = _FREQ
        cap = self.capacity
        unit = sizes is None
        used = self.used
        count = self._count
        s_used = self._s_used
        m_used = self._m_used
        g_cap = self._g_cap
        g_live = self._g_live
        g_stamp = self._g_stamp
        clock0 = self.clock - start
        misses = 0
        bytes_missed = 0
        evictions = 0
        for i in range(start, stop):
            slot = slots[keys[i]]
            state = loc[slot]
            # Oversized is a miss even when the key is resident, with no
            # metadata update (matches base.request's early return).
            if state and (unit or sizes[i] <= cap):
                if state & freq_bits < fcap:
                    loc[slot] = state + 1
                continue
            size = 1 if unit else sizes[i]
            misses += 1
            bytes_missed += size
            if size > cap:
                continue
            clock = clock0 + i + 1
            limit = cap - size
            while used > limit:
                if s_used < s_cap and main:
                    store(clock, used, count, s_used, m_used, g_cap, g_live,
                          g_stamp)
                    evict_m()
                    used = self.used
                    count = self._count
                    m_used = self._m_used
                    continue
                # EVICTS: move accessed tails to M, evict the first cold
                # tail to G.
                while small:
                    victim = small.popleft()
                    vsize = size_of[victim]
                    s_used -= vsize
                    freq = loc[victim] & freq_bits
                    if freq >= threshold:
                        loc[victim] = _M_BASE  # access bits cleared on the move
                        main.append(victim)
                        m_used += vsize
                        if demoting:
                            store(clock, used, count, s_used, m_used, g_cap,
                                  g_live, g_stamp)
                            self._notify_demote_slot(victim, promoted=True)
                        if m_used > m_cap:
                            store(clock, used, count, s_used, m_used, g_cap,
                                  g_live, g_stamp)
                            evict_m()
                            used = self.used
                            count = self._count
                            m_used = self._m_used
                        continue
                    used -= vsize
                    count -= 1
                    loc[victim] = 0
                    if ghost_dynamic and (used != count or g_cap != m_cap):
                        # Paper sizing, as in _insert_slot.
                        mean_size = used / count if count else 1.0
                        g_cap = max(1, int(m_cap / max(1.0, mean_size)))
                    if g_cap:
                        g_stamp += 1
                        entry = g_stamp << _SLOT_BITS | victim
                        g_of[victim] = entry
                        g_q.append(entry)
                        g_live += 1
                        while g_live > g_cap:
                            entry = g_q.popleft()
                            old = entry & _SLOT_MASK
                            if g_of[old] == entry:
                                g_of[old] = 0
                                g_live -= 1
                    if listening:
                        store(clock, used, count, s_used, m_used, g_cap,
                              g_live, g_stamp)
                        if demoting:
                            self._notify_demote_slot(victim, promoted=False)
                        self._notify_evict_slot(victim, freq)
                    else:
                        evictions += 1
                    break
                else:
                    # S drained entirely into M; fall back to evicting from M.
                    if main:
                        store(clock, used, count, s_used, m_used, g_cap,
                              g_live, g_stamp)
                        evict_m()
                        used = self.used
                        count = self._count
                        m_used = self._m_used
            size_of[slot] = size
            insert_time[slot] = clock
            if g_of[slot]:  # ghost hit: straight to M
                g_of[slot] = 0
                g_live -= 1
                main.append(slot)
                loc[slot] = _M_BASE  # in M, freq 0
                m_used += size
            else:
                small.append(slot)
                loc[slot] = _S_BASE  # in S, freq 0
                s_used += size
            used += size
            count += 1
        requests = stop - start
        bytes_requested = requests if unit else sum(sizes[start:stop])
        store(clock0 + stop, used, count, s_used, m_used, g_cap, g_live,
              g_stamp)
        self.stats.evictions += evictions
        self._bulk_record(requests, misses, bytes_requested, bytes_missed)
        return (requests, misses, bytes_requested, bytes_missed)
