"""S3-FIFO: Simple, Scalable caching with three Static FIFO queues.

By default this is a faithful implementation of Algorithm 1 in the
paper:

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

The same skeleton runs the paper's variants of that structure; each is
a constructor parameter, so there is one insert/evict path for all:

* ``small_type`` — :attr:`QueueType.FIFO` (Algorithm 1) or
  :attr:`QueueType.LRU` (§6.3 "LRU or FIFO?": a hit moves the object to
  S's head).
* ``main_type`` — :attr:`QueueType.FIFO`, FIFO-Reinsertion (Algorithm
  1); :attr:`QueueType.LRU` (§6.3: a hit moves the object to M's head
  and the tail is evicted as is); or :attr:`QueueType.SIEVE` (§7:
  "Sieve can be used to replace the large FIFO queue" — a hand walks M
  from tail to head, keeps an accessed object *in place* with its
  counter cleared, and evicts the first unaccessed one).
* ``promote_on_hit`` (§6.3) — an S object moves to M on the hit that
  brings its counter to the threshold, not when it reaches S's tail.

``s3variant`` (:class:`S3QueueVariantCache`, the §6.3 ablation) and
``s3sieve`` (:class:`S3SieveCache`, the §7 extension) are registrations
of this class.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Hashable, Optional

from repro.cache.base import CacheEntry, EvictionPolicy
from repro.sim.request import Request
from repro.structures.ghost import GhostFifo


class QueueType(enum.Enum):
    """Ordering discipline of S (FIFO or LRU) or M (any of the three)."""

    FIFO = "fifo"
    LRU = "lru"
    SIEVE = "sieve"


# Module aliases: looking a member up on the enum class costs ~0.1 us,
# which the per-request paths below would pay on every hit.
_FIFO, _LRU, _SIEVE = QueueType


class S3FifoCache(EvictionPolicy):
    """The S3-FIFO eviction algorithm (Algorithm 1) and its variants.

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
    small_type / main_type:
        :class:`QueueType` (or its value) of S and M; see the module
        docstring.  S cannot be SIEVE.
    promote_on_hit:
        Promote an S object to M on the hit that reaches the threshold.
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
        *,
        small_type: QueueType = QueueType.FIFO,
        main_type: QueueType = QueueType.FIFO,
        promote_on_hit: bool = False,
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
        self._small_type = QueueType(small_type)
        self._main_type = QueueType(main_type)
        if self._small_type is _SIEVE:
            raise ValueError("small_type must be fifo or lru, got sieve")
        self._promote_on_hit = bool(promote_on_hit)
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
        # A SIEVE M's hand splits M's tail-to-head order into the part it
        # has passed this lap and the part it has yet to visit (hand
        # first), so ``[*_passed, *_lap]`` is ``_main``'s order.  An
        # empty lap means the hand is back at the tail.  Both stay
        # empty for the other disciplines.
        self._passed: "OrderedDict[Hashable, CacheEntry]" = OrderedDict()
        self._lap: "OrderedDict[Hashable, CacheEntry]" = OrderedDict()

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

    @property
    def is_algorithm1(self) -> bool:
        """Whether this instance runs Algorithm 1 as written (FIFO S,
        FIFO-Reinsertion M, promotion only from S's tail) — what the
        ``s3fifo-fast`` kernel and snapshots assume."""
        return (
            self._small_type is _FIFO
            and self._main_type is _FIFO
            and not self._promote_on_hit
        )

    @property
    def variant_name(self) -> str:
        """e.g. "S3(S=lru,M=fifo)" — the §6.3 label of this configuration."""
        tag = ",hit-promote" if self._promote_on_hit else ""
        return f"S3(S={self._small_type.value},M={self._main_type.value}{tag})"

    def in_small(self, key: Hashable) -> bool:
        return key in self._small

    def in_main(self, key: Hashable) -> bool:
        return key in self._main

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def _access(self, req: Request) -> bool:
        key = req.key
        entry = self._small.get(key)
        if entry is not None:  # READ hit: freq <- min(freq + 1, cap)
            entry.freq = min(entry.freq + 1, self._freq_cap)
            entry.last_access = self.clock
            if self._small_type is _LRU:
                self._small.move_to_end(key)
            if self._promote_on_hit and entry.freq >= self._threshold:
                # §6.3 hit-promotion: to M now, not at S's tail.
                del self._small[key]
                self._s_used -= entry.size
                entry.freq = 0
                self._push_main(key, entry)
            return True
        entry = self._main.get(key)
        if entry is not None:
            entry.freq = min(entry.freq + 1, self._freq_cap)
            entry.last_access = self.clock
            if self._main_type is _LRU:
                self._main.move_to_end(key)
            return True
        self._insert(req)
        return False

    def _insert(self, req: Request) -> None:
        """INSERT: route via the ghost queue, evicting as needed."""
        self._make_room(req.size)
        entry = CacheEntry(req.key, req.size, self.clock)
        if self._ghost.remove(req.key):
            self._push_main(req.key, entry)
        else:
            self._small[req.key] = entry
            self._s_used += entry.size
        self.used += entry.size

    def _push_main(self, key: Hashable, entry: CacheEntry) -> None:
        """Insert ``entry`` at the head of M."""
        self._main[key] = entry
        self._m_used += entry.size
        if self._main_type is _SIEVE:
            # The head ends the hand's lap, or, with the hand back at
            # the tail, the whole queue.
            (self._lap or self._passed)[key] = entry

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
                self._push_main(key, entry)
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
        """EVICTM: FIFO-Reinsertion with the 2-bit counter.  (An LRU M
        evicts its tail as is; a SIEVE M evicts where its hand stops.)"""
        if self._main_type is _FIFO:
            key, entry = self._main.popitem(last=False)
            while entry.freq > 0:
                entry.freq -= 1
                self._main[key] = entry  # reinsert at head
                key, entry = self._main.popitem(last=False)
        elif self._main_type is _LRU:  # the tail is the LRU object
            key, entry = self._main.popitem(last=False)
        else:
            entry = self._sieve_victim()
            del self._main[entry.key]
        self._m_used -= entry.size
        self.used -= entry.size
        self._on_evict_from_m(entry)
        self._notify_evict(entry)

    def _sieve_victim(self) -> CacheEntry:
        """SIEVE: the hand walks M tail to head, wrapping at the head; an
        accessed object keeps its place with its counter cleared."""
        while True:
            if not self._lap:
                self._lap, self._passed = self._passed, self._lap
            key, entry = self._lap.popitem(last=False)
            if entry.freq == 0:
                return entry
            entry.freq = 0
            self._passed[key] = entry

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
            self._lap.pop(key, None)  # a SIEVE hand on it moves on
            self._passed.pop(key, None)
        self.used -= entry.size
        return True

    def vector_spec(self):
        """Kernel config for :mod:`repro.sim.vector`: only when this
        instance runs Algorithm 1 (:attr:`is_algorithm1`) with counters
        the ``s3fifo-fast`` kernel can hold."""
        from repro.core.s3fifo_fast import FREQ_FIELD_MAX

        if not self.is_algorithm1 or self._freq_cap > FREQ_FIELD_MAX:
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


class S3QueueVariantCache(S3FifoCache):
    """§6.3 queue-type ablation: S3-FIFO registered with the queue
    disciplines and ``promote_on_hit`` left to the caller."""

    name = "s3variant"


class S3SieveCache(S3FifoCache):
    """§7 extension: S3-FIFO whose main queue evicts with SIEVE."""

    name = "s3sieve"

    def __init__(self, capacity: int, **kwargs) -> None:
        super().__init__(capacity, main_type=QueueType.SIEVE, **kwargs)
