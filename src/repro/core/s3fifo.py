"""S3-FIFO: Simple, Scalable caching with three Static FIFO queues.

This is a faithful implementation of Algorithm 1 in the paper:

* a small probationary FIFO queue **S** (10% of the cache by default),
* a main FIFO queue **M** (the remaining 90%), and
* a ghost FIFO queue **G** holding as many keys (no data) as M holds
  objects.

Cache hits only increment a 2-bit frequency counter (capped at 3).  On
a miss, the object enters S unless its key is found in G, in which
case it enters M directly.  When S is full, its tail object moves to M
if its frequency reached ``move_to_main_threshold`` (2 in Algorithm 1:
``freq > 1``) and to G otherwise; frequency is cleared on the move.  M
evicts with FIFO-Reinsertion: a tail object with non-zero frequency is
reinserted with frequency decremented.

The small queue provides *quick demotion* — a guaranteed, bounded time
for one-hit wonders to leave the cache — which Section 6.1 identifies
as the key to its efficiency.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional

from repro.cache.base import CacheEntry, EvictionPolicy
from repro.sim.request import Request
from repro.structures.ghost import GhostFifo


class S3FifoCache(EvictionPolicy):
    """The S3-FIFO eviction algorithm (Algorithm 1).

    Parameters
    ----------
    capacity:
        Total cache capacity (objects for unit-size workloads, bytes
        when requests carry sizes).
    small_ratio:
        Fraction of the capacity given to the small FIFO queue S
        (paper default 10%; Fig. 11 sweeps 1%–40%).
    ghost_entries:
        Number of keys the ghost queue remembers.  When omitted, the
        ghost tracks the number of objects currently resident in M
        (the paper: "the same number of ghost entries as M"), which
        equals ``capacity * (1 - small_ratio)`` for unit-size
        workloads and adapts automatically for byte-sized ones.
        Passing an explicit value pins the window.
    freq_cap:
        Saturation value of the per-object counter (3 = two bits).
    move_to_main_threshold:
        Minimum frequency for an S-tail object to be promoted to M
        (Algorithm 1 uses ``freq > 1``, i.e. threshold 2).
    """

    name = "s3fifo"
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
        if freq_cap < 1:
            raise ValueError(f"freq_cap must be >= 1, got {freq_cap}")
        if move_to_main_threshold < 0:
            raise ValueError(
                "move_to_main_threshold must be >= 0, "
                f"got {move_to_main_threshold}"
            )
        self._s_cap = max(1, int(capacity * small_ratio))
        self._m_cap = max(1, capacity - self._s_cap)
        self._freq_cap = freq_cap
        self._threshold = move_to_main_threshold
        self._ghost_dynamic = ghost_entries is None
        if ghost_entries is None:
            ghost_entries = self._m_cap
        self._small: "OrderedDict[Hashable, CacheEntry]" = OrderedDict()
        self._main: "OrderedDict[Hashable, CacheEntry]" = OrderedDict()
        self._ghost = GhostFifo(ghost_entries)
        self._s_used = 0
        self._m_used = 0

    # ------------------------------------------------------------------
    # Introspection used by tests, benchmarks, and the demotion analysis
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
    def ghost(self) -> GhostFifo:
        return self._ghost

    def in_small(self, key: Hashable) -> bool:
        return key in self._small

    def in_main(self, key: Hashable) -> bool:
        return key in self._main

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def _access(self, req: Request) -> bool:
        entry = self._small.get(req.key)
        if entry is None:
            entry = self._main.get(req.key)
        if entry is not None:  # READ hit: freq <- min(freq + 1, cap)
            entry.freq = min(entry.freq + 1, self._freq_cap)
            entry.last_access = self.clock
            return True
        self._insert(req)
        return False

    def _insert(self, req: Request) -> None:
        """INSERT: route via the ghost queue, evicting as needed."""
        self._make_room(req.size)
        entry = CacheEntry(req.key, req.size, self.clock)
        if self._ghost.remove(req.key):
            self._main[req.key] = entry
            self._m_used += entry.size
        else:
            self._small[req.key] = entry
            self._s_used += entry.size
        self.used += entry.size

    def _make_room(self, incoming: int) -> None:
        while self.used + incoming > self.capacity:
            if self._s_used >= self._s_cap or not self._main:
                self._evict_s()
            else:
                self._evict_m()

    def _evict_s(self) -> None:
        """EVICTS: move accessed tails to M, evict the first cold tail to G."""
        while self._small:
            key, entry = self._small.popitem(last=False)
            self._s_used -= entry.size
            if entry.freq >= self._threshold:
                entry.freq = 0  # access bits cleared on the move
                self._main[key] = entry
                self._m_used += entry.size
                self._notify_demote(entry, promoted=True)
                if self._m_used > self._m_cap:
                    self._evict_m()
            else:
                self.used -= entry.size
                if self._ghost_dynamic:
                    # Paper sizing: as many ghost entries as M can hold
                    # objects.  M's object capacity is its byte capacity
                    # over the running mean object size, which reduces
                    # to the static m_cap for unit-size workloads.
                    mean_size = self.used / len(self) if len(self) else 1.0
                    self._ghost.set_capacity(
                        max(1, int(self._m_cap / max(1.0, mean_size)))
                    )
                self._ghost.add(key)
                self._on_evict_from_s(entry)
                self._notify_demote(entry, promoted=False)
                self._notify_evict(entry)
                return
        # S drained entirely into M; fall back to evicting from M.
        if self._main:
            self._evict_m()

    def _evict_m(self) -> None:
        """EVICTM: FIFO-Reinsertion with the 2-bit counter."""
        while self._main:
            key, entry = self._main.popitem(last=False)
            if entry.freq > 0:
                entry.freq -= 1
                self._main[key] = entry  # reinsert at head
            else:
                self._m_used -= entry.size
                self.used -= entry.size
                self._on_evict_from_m(entry)
                self._notify_evict(entry)
                return

    def remove(self, key: Hashable) -> bool:
        """Live deletion for the service layer (not part of Algorithm 1).

        The key leaves whichever queue holds it; it is *not* recorded in
        the ghost queue (deletion carries no eviction signal) and no
        eviction event fires.
        """
        entry = self._small.pop(key, None)
        if entry is not None:
            self._s_used -= entry.size
        else:
            entry = self._main.pop(key, None)
            if entry is None:
                return False
            self._m_used -= entry.size
        self.used -= entry.size
        return True

    def vector_spec(self):
        """Kernel config for :mod:`repro.sim.vector` (exact type only —
        the adaptive subclass overrides eviction hooks and opts out —
        and only for counters the ``s3fifo-fast`` kernel can hold)."""
        from repro.core.s3fifo_fast import FREQ_FIELD_MAX

        if type(self) is not S3FifoCache or self._freq_cap > FREQ_FIELD_MAX:
            return None
        return {
            "kind": "s3fifo",
            "s_cap": self._s_cap,
            "m_cap": self._m_cap,
            "freq_cap": self._freq_cap,
            "threshold": self._threshold,
            "ghost_dynamic": self._ghost_dynamic,
            "ghost_cap": self._ghost.capacity,
        }

    # ------------------------------------------------------------------
    # Hooks for the adaptive variant (S3-FIFO-D)
    # ------------------------------------------------------------------
    def _on_evict_from_s(self, entry: CacheEntry) -> None:
        """Called when an object is evicted from S (to the ghost queue)."""

    def _on_evict_from_m(self, entry: CacheEntry) -> None:
        """Called when an object is evicted from M."""

    # ------------------------------------------------------------------
    def __contains__(self, key: Hashable) -> bool:
        return key in self._small or key in self._main

    def __len__(self) -> int:
        return len(self._small) + len(self._main)
