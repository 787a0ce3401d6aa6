"""S3-FIFO-D: S3-FIFO with dynamic queue sizes (Section 6.2.2).

Two *adaptation* ghost queues (distinct from the algorithm's main
ghost queue G) track objects recently evicted from S and from M; each
is sized to hold 5% of the cached objects.  Whenever the two queues
have collected more than ``adapt_hits`` (100) hits in total and one
side has at least ``imbalance`` (2x) more hits than the other, 0.1% of
the cache capacity moves to the queue whose evicted objects are being
re-requested more — balancing the marginal hits of the two queues.

The paper finds S3-FIFO-D beats static S3-FIFO only on the ~2% of
traces where a 10% S is far from optimal; the benchmark
``benchmarks/test_sec62_adaptive.py`` reproduces that comparison.
"""

from __future__ import annotations

from typing import Hashable

from repro.cache.base import CacheEntry
from repro.core.s3fifo import S3FifoCache
from repro.sim.request import Request
from repro.structures.ghost import GhostFifo


class S3FifoDCache(S3FifoCache):
    """Adaptive-queue-size S3-FIFO."""

    name = "s3fifo-d"

    def __init__(
        self,
        capacity: int,
        small_ratio: float = 0.1,
        adapt_ghost_ratio: float = 0.05,
        adapt_hits: int = 100,
        imbalance: float = 2.0,
        adapt_step: float = 0.001,
        min_ratio: float = 0.01,
        **kwargs,
    ) -> None:
        super().__init__(capacity, small_ratio=small_ratio, **kwargs)
        if adapt_hits <= 0:
            raise ValueError(f"adapt_hits must be positive, got {adapt_hits}")
        if imbalance <= 1.0:
            raise ValueError(f"imbalance must be > 1, got {imbalance}")
        ghost_cap = max(1, int(capacity * adapt_ghost_ratio))
        self._adapt_ghost_s = GhostFifo(ghost_cap)
        self._adapt_ghost_m = GhostFifo(ghost_cap)
        self._hits_on_s_victims = 0
        self._hits_on_m_victims = 0
        self._adapt_hits = adapt_hits
        self._imbalance = imbalance
        self._step = max(1, int(capacity * adapt_step))
        self._min_cap = max(1, int(capacity * min_ratio))
        self._resizes = 0

    # ------------------------------------------------------------------
    @property
    def is_algorithm1(self) -> bool:
        return False  # S and M trade capacity at run time

    @property
    def resizes(self) -> int:
        """Number of queue-size adaptations performed so far."""
        return self._resizes

    def _on_evict_from_s(self, entry: CacheEntry) -> None:
        self._adapt_ghost_s.add(entry.key)

    def _on_evict_from_m(self, entry: CacheEntry) -> None:
        self._adapt_ghost_m.add(entry.key)

    def _access(self, req: Request) -> bool:
        hit = super()._access(req)
        if not hit:
            if self._adapt_ghost_s.remove(req.key):
                self._hits_on_s_victims += 1
            elif self._adapt_ghost_m.remove(req.key):
                self._hits_on_m_victims += 1
            self._maybe_resize()
        return hit

    # ------------------------------------------------------------------
    def _maybe_resize(self) -> None:
        total = self._hits_on_s_victims + self._hits_on_m_victims
        if total <= self._adapt_hits:
            return
        grow_s = self._hits_on_s_victims >= self._imbalance * self._hits_on_m_victims
        grow_m = self._hits_on_m_victims >= self._imbalance * self._hits_on_s_victims
        if grow_s:
            self._resize(+self._step)
        elif grow_m:
            self._resize(-self._step)
        if grow_s or grow_m:
            self._hits_on_s_victims = 0
            self._hits_on_m_victims = 0

    def _resize(self, delta: int) -> None:
        """Move ``delta`` capacity units from M to S (or back)."""
        new_s = self._s_cap + delta
        new_s = max(self._min_cap, min(self.capacity - self._min_cap, new_s))
        if new_s == self._s_cap:
            return
        self._s_cap = new_s
        self._m_cap = self.capacity - new_s
        self._resizes += 1

    # ------------------------------------------------------------------
    def __contains__(self, key: Hashable) -> bool:
        return super().__contains__(key)
