"""The always-on policy sanitizer.

:class:`CheckedPolicy` wraps any
:class:`~repro.cache.base.EvictionPolicy` and cross-checks its
observable behaviour against the interface contract on every request:

* **occupancy** — ``used`` never exceeds ``capacity`` or goes negative;
* **stats** — hit/miss/byte counters stay arithmetically consistent;
* **membership** — a reported hit implies the key was resident before
  the request, and a miss implies it was not;
* **unit-size accounting** — for unit-size workloads, ``used`` equals
  the resident object count;

plus structural deep checks for policies whose internals it knows
(S3-FIFO's S/M/ghost queues under every queue discipline, FIFO, LRU):

* queue byte sums match the policy's running ``*_used`` counters;
* no key is resident in both S and M;
* the ghost queue holds no resident key and respects its capacity;
* per-object frequencies stay within ``freq_cap``;
* a SIEVE main queue's hand covers exactly M, in M's order.

Cheap checks run on every access; deep checks run every ``deep_every``
accesses and on :meth:`CheckedPolicy.check`.  Violations raise
:class:`InvariantViolation` naming the violated invariant — the point
is a diagnostic at the corruption site, not a miss-ratio anomaly three
million requests later.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Tuple

from repro.cache.base import EvictionPolicy
from repro.cache.fifo import FifoCache
from repro.cache.lru import LruCache
from repro.sim.request import Request


class InvariantViolation(AssertionError):
    """A policy broke an interface or structural invariant.

    ``invariant`` is the short machine-readable name; the message adds
    the policy and the observed values.
    """

    def __init__(self, invariant: str, policy: object, detail: str) -> None:
        super().__init__(
            f"invariant {invariant!r} violated by {type(policy).__name__}: "
            f"{detail}"
        )
        self.invariant = invariant
        self.detail = detail


class CheckedPolicy:
    """A transparent sanitizing proxy around an eviction policy.

    Delegates the full :class:`~repro.cache.base.EvictionPolicy`
    surface (``stats``, ``capacity``, listeners, policy-specific
    introspection) to the wrapped instance, so it can stand in for the
    raw policy anywhere — including :func:`repro.sim.simulator.simulate`
    and the sweep runner.
    """

    def __init__(self, policy: EvictionPolicy, deep_every: int = 256) -> None:
        if deep_every < 1:
            raise ValueError(f"deep_every must be >= 1, got {deep_every}")
        self._policy = policy
        self._deep_every = deep_every
        self._accesses = 0
        self._unit_sizes_only = True
        self.checks_run = 0

    # ------------------------------------------------------------------
    # Policy surface
    # ------------------------------------------------------------------
    @property
    def policy(self) -> EvictionPolicy:
        return self._policy

    def request(self, req: Request) -> bool:
        resident_before = req.key in self._policy
        hit = self._policy.request(req)
        self._accesses += 1
        if req.size != 1:
            self._unit_sizes_only = False
        self._check_cheap(req, hit, resident_before)
        if self._accesses % self._deep_every == 0:
            self._check_deep()
        return hit

    def access(self, key: Hashable, size: int = 1) -> bool:
        return self.request(Request(key, size=size))

    def __contains__(self, key: Hashable) -> bool:
        return key in self._policy

    def __len__(self) -> int:
        return len(self._policy)

    def __getattr__(self, name: str):
        return getattr(self._policy, name)

    def __repr__(self) -> str:
        return f"CheckedPolicy({self._policy!r}, checks={self.checks_run})"

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Run every applicable invariant immediately."""
        self._check_cheap(None, None, None)
        self._check_deep()

    def _fail(self, invariant: str, detail: str) -> None:
        raise InvariantViolation(invariant, self._policy, detail)

    def _check_cheap(
        self,
        req: Optional[Request],
        hit: Optional[bool],
        resident_before: Optional[bool],
    ) -> None:
        p = self._policy
        self.checks_run += 1
        if p.used < 0:
            self._fail("occupancy", f"used={p.used} is negative")
        if p.used > p.capacity:
            self._fail(
                "occupancy", f"used={p.used} exceeds capacity={p.capacity}"
            )
        s = p.stats
        if s.hits + s.misses != s.requests:
            self._fail(
                "stats",
                f"hits={s.hits} + misses={s.misses} != requests={s.requests}",
            )
        if s.bytes_missed > s.bytes_requested:
            self._fail(
                "stats",
                f"bytes_missed={s.bytes_missed} exceeds "
                f"bytes_requested={s.bytes_requested}",
            )
        if min(s.hits, s.misses, s.evictions, s.bytes_requested) < 0:
            self._fail("stats", "negative counter")
        if hit is not None and req is not None:
            if hit and not resident_before:
                self._fail(
                    "membership",
                    f"hit reported for key {req.key!r} that was not resident",
                )
            if not hit and resident_before and req.size <= p.capacity:
                self._fail(
                    "membership",
                    f"miss reported for resident key {req.key!r}",
                )

    def _check_deep(self) -> None:
        p = self._policy
        self.checks_run += 1
        count = len(p)
        if count < 0:
            self._fail("object-count", f"len() returned {count}")
        from repro.core.s3fifo import S3FifoCache

        # Every S3 discipline keeps all of S and M in ``_small``/``_main``.
        # Structural checks first: a structural break (say, a key
        # duplicated into both queues) also skews the generic counters,
        # and the specific diagnostic is the useful one.
        if isinstance(p, S3FifoCache):
            self._check_s3fifo(p)
        elif isinstance(p, (FifoCache,)):
            self._check_entry_map(p, p._entries)
        elif isinstance(p, LruCache):
            self._check_lru(p)
        if self._unit_sizes_only and p.used != count:
            self._fail(
                "unit-size-accounting",
                f"used={p.used} but {count} unit-size objects resident",
            )

    def _check_entry_map(self, p: EvictionPolicy, entries) -> None:
        total = sum(e.size for e in entries.values())
        if total != p.used:
            self._fail(
                "byte-accounting",
                f"entry sizes sum to {total} but used={p.used}",
            )

    def _check_lru(self, p: LruCache) -> None:
        total = sum(node.data.size for node in p._nodes.values())
        if total != p.used:
            self._fail(
                "byte-accounting",
                f"entry sizes sum to {total} but used={p.used}",
            )
        if len(p._nodes) != len(p._list):
            self._fail(
                "structure",
                f"{len(p._nodes)} index entries but {len(p._list)} list nodes",
            )

    def _check_s3fifo(self, p) -> None:
        from repro.core.s3fifo import QueueType

        duplicates = p._small.keys() & p._main.keys()
        if duplicates:
            self._fail(
                "duplicate-key",
                f"keys resident in both S and M: {sorted(duplicates)[:5]}",
            )
        # A SIEVE M's hand bookkeeping must list M in M's own order.
        hand = [*p._passed, *p._lap]
        if hand != (list(p._main) if p._main_type is QueueType.SIEVE else []):
            self._fail(
                "sieve-hand",
                f"hand order ({len(hand)} keys) differs from M's "
                f"({len(p._main)} keys)",
            )
        ghost = p._ghost
        if len(ghost) > ghost.capacity:
            self._fail(
                "ghost-capacity",
                f"ghost holds {len(ghost)} keys, capacity {ghost.capacity}",
            )
        ghost_resident = [
            key for key in p._small.keys() | p._main.keys() if key in ghost
        ]
        if ghost_resident:
            self._fail(
                "ghost-consistency",
                f"resident keys also in ghost queue: {ghost_resident[:5]}",
            )
        s_sum = sum(e.size for e in p._small.values())
        m_sum = sum(e.size for e in p._main.values())
        if s_sum != p._s_used:
            self._fail(
                "small-queue-accounting",
                f"S entries sum to {s_sum} but small_used={p._s_used}",
            )
        if m_sum != p._m_used:
            self._fail(
                "main-queue-accounting",
                f"M entries sum to {m_sum} but main_used={p._m_used}",
            )
        if s_sum + m_sum != p.used:
            self._fail(
                "byte-accounting",
                f"S+M bytes {s_sum + m_sum} != used={p.used}",
            )
        for queue in (p._small, p._main):
            for entry in queue.values():
                if not 0 <= entry.freq <= p._freq_cap:
                    self._fail(
                        "frequency-range",
                        f"key {entry.key!r} has freq={entry.freq}, "
                        f"cap={p._freq_cap}",
                    )
                    return


def run_checked(
    policy: EvictionPolicy,
    trace,
    deep_every: int = 256,
) -> Tuple[CheckedPolicy, List[bool]]:
    """Replay ``trace`` through a sanitized ``policy``; returns the
    wrapper and the per-request hit list.  Raises
    :class:`InvariantViolation` at the first broken invariant."""
    checked = CheckedPolicy(policy, deep_every=deep_every)
    hits = []
    for item in trace:
        if isinstance(item, Request):
            hits.append(checked.request(item))
        elif isinstance(item, tuple):
            hits.append(checked.access(item[0], item[1]))
        else:
            hits.append(checked.access(item))
    checked.check()
    return checked, hits
