"""Snapshot / warm-restart of cache state, and the crash experiment.

Production FIFO caches (Cachelib, TrafficServer, Extstore) survive
process restarts because the flash log *is* the cache; the DRAM index
is rebuilt by scanning it.  This module gives the simulator the same
capability for its in-memory policies: :func:`snapshot_policy` captures
an S3-FIFO or LRU cache's full eviction state (queue contents and
order, frequencies, ghost keys, stats), :func:`restore_policy` rebuilds
an identical cache, and :func:`crash_recovery_experiment` quantifies
what the capability is worth — the cold-vs-warm miss-ratio gap after an
injected crash.

Snapshots are plain dicts of JSON-serializable values; :func:`save_snapshot`
/ :func:`load_snapshot` persist them.  A stats checksum
(:meth:`repro.cache.base.CacheStats.checksum`) is embedded and verified
on restore, so a corrupted snapshot fails loudly instead of warming the
cache with garbage.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from repro.cache.base import CacheEntry, CacheStats, EvictionPolicy
from repro.cache.lru import LruCache
from repro.resilience.faults import CRASH, FaultPlan
from repro.sim.request import Request
from repro.structures.dlist import DListNode
from repro.structures.ghost import GhostFifo

SNAPSHOT_VERSION = 2  # v2: ghost state carries the stale-slot counts


class SnapshotError(ValueError):
    """Unsupported policy, wrong version, or checksum mismatch."""


def _ghost_state(ghost: GhostFifo) -> dict:
    """The raw deque and live-occurrence counts.

    Both are captured verbatim: eviction order depends on stale slots
    left behind by ``remove`` (a removed-then-re-added key falls out
    when its *old* slot reaches the front), so compacting to the live
    keys would change future behaviour.
    """
    return {
        "queue": list(ghost._queue),
        "present": [[key, count] for key, count in ghost._present.items()],
        "stale": [[key, count] for key, count in ghost._stale.items()],
    }


def snapshot_policy(policy: EvictionPolicy) -> dict:
    """Capture the complete eviction state of an S3-FIFO or LRU cache.

    Any S3 instance that runs Algorithm 1 qualifies (a default
    ``s3variant`` too; it restores as :class:`S3FifoCache`).  Other
    queue disciplines raise :class:`SnapshotError`.
    """
    from repro.core.s3fifo import S3FifoCache

    stats = policy.stats.as_dict()
    base = {
        "version": SNAPSHOT_VERSION,
        "capacity": policy.capacity,
        "clock": policy.clock,
        "stats": stats,
        "stats_checksum": policy.stats.checksum(),
    }
    if isinstance(policy, S3FifoCache) and policy.is_algorithm1:
        base.update(
            policy="s3fifo",
            s_cap=policy._s_cap,
            m_cap=policy._m_cap,
            freq_cap=policy._freq_cap,
            threshold=policy._threshold,
            ghost_dynamic=policy._ghost_dynamic,
            ghost_capacity=policy._ghost.capacity,
            small=[
                [e.key, e.size, e.freq] for e in policy._small.values()
            ],
            main=[[e.key, e.size, e.freq] for e in policy._main.values()],
            ghost=_ghost_state(policy._ghost),
        )
        return base
    if type(policy) is LruCache:
        # LRU order, least-recent first, so pushing to the head in
        # sequence rebuilds the exact recency list.
        base.update(
            policy="lru",
            entries=[
                [n.data.key, n.data.size, n.data.freq]
                for n in policy._list.iter_from_tail()
            ],
        )
        return base
    raise SnapshotError(
        f"snapshot not supported for {type(policy).__name__}; "
        "supported: S3FifoCache running Algorithm 1, LruCache"
    )


def restore_policy(snapshot: dict) -> EvictionPolicy:
    """Rebuild the policy captured by :func:`snapshot_policy`."""
    from repro.core.s3fifo import S3FifoCache

    if snapshot.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {snapshot.get('version')!r}"
        )
    stats = CacheStats.from_dict(snapshot["stats"])
    if stats.checksum() != snapshot["stats_checksum"]:
        raise SnapshotError(
            "stats checksum mismatch: snapshot is corrupt "
            f"({stats.checksum()} != {snapshot['stats_checksum']})"
        )
    name = snapshot.get("policy")
    if name == "s3fifo":
        policy = S3FifoCache(snapshot["capacity"])
        policy._s_cap = snapshot["s_cap"]
        policy._m_cap = snapshot["m_cap"]
        policy._freq_cap = snapshot["freq_cap"]
        policy._threshold = snapshot["threshold"]
        policy._ghost_dynamic = snapshot["ghost_dynamic"]
        policy._ghost = GhostFifo(snapshot["ghost_capacity"])
        policy._ghost._queue.extend(
            _key(key) for key in snapshot["ghost"]["queue"]
        )
        policy._ghost._present.update(
            (_key(key), count) for key, count in snapshot["ghost"]["present"]
        )
        policy._ghost._stale.update(
            (_key(key), count) for key, count in snapshot["ghost"]["stale"]
        )
        for field, used_attr in (("small", "_s_used"), ("main", "_m_used")):
            queue = getattr(policy, f"_{field}")
            for key, size, freq in snapshot[field]:
                entry = CacheEntry(_key(key), size, insert_time=0)
                entry.freq = freq
                queue[entry.key] = entry
                setattr(
                    policy, used_attr, getattr(policy, used_attr) + size
                )
                policy.used += size
    elif name == "lru":
        policy = LruCache(snapshot["capacity"])
        for key, size, freq in snapshot["entries"]:
            entry = CacheEntry(_key(key), size, insert_time=0)
            entry.freq = freq
            policy._nodes[entry.key] = policy._list.push_head(
                DListNode(entry)
            )
            policy.used += size
    else:
        raise SnapshotError(f"unknown snapshot policy {name!r}")
    policy.clock = snapshot["clock"]
    policy.stats = stats
    return policy


def _key(key):
    """JSON turns tuple keys into lists; restore hashability."""
    return tuple(key) if isinstance(key, list) else key


def save_snapshot(path: Union[str, Path], snapshot: dict) -> None:
    Path(path).write_text(json.dumps(snapshot))


def load_snapshot(path: Union[str, Path]) -> dict:
    return json.loads(Path(path).read_text())


# ----------------------------------------------------------------------
# Crash-recovery experiment
# ----------------------------------------------------------------------
class CrashRecoveryResult:
    """Cold vs. warm restart after an injected crash."""

    __slots__ = (
        "policy",
        "capacity",
        "crash_at",
        "pre_crash_miss_ratio",
        "cold_miss_ratio",
        "warm_miss_ratio",
        "post_requests",
    )

    def __init__(
        self,
        policy: str,
        capacity: int,
        crash_at: int,
        pre_crash_miss_ratio: float,
        cold_miss_ratio: float,
        warm_miss_ratio: float,
        post_requests: int,
    ) -> None:
        self.policy = policy
        self.capacity = capacity
        self.crash_at = crash_at
        self.pre_crash_miss_ratio = pre_crash_miss_ratio
        self.cold_miss_ratio = cold_miss_ratio
        self.warm_miss_ratio = warm_miss_ratio
        self.post_requests = post_requests

    @property
    def recovery_benefit(self) -> float:
        """Miss-ratio reduction from restarting warm instead of cold."""
        return self.cold_miss_ratio - self.warm_miss_ratio

    def __repr__(self) -> str:
        return (
            f"CrashRecoveryResult({self.policy}, crash_at={self.crash_at}, "
            f"cold={self.cold_miss_ratio:.4f}, "
            f"warm={self.warm_miss_ratio:.4f})"
        )


def crash_recovery_experiment(
    trace,
    capacity: int,
    policy: str = "s3fifo",
    plan: Optional[FaultPlan] = None,
    crash_at: Optional[int] = None,
) -> CrashRecoveryResult:
    """Run ``trace``, crash at the first ``crash`` fault window (or at
    ``crash_at``), then finish the trace twice: once cold (fresh cache)
    and once warm (restored from a snapshot taken at the crash point).

    Everything is deterministic: the crash point comes from the plan,
    and the two restarts replay the identical post-crash suffix.
    """
    from repro.cache.registry import create_policy

    if policy not in {"s3fifo", "lru"}:
        raise SnapshotError(
            f"crash experiment supports 's3fifo' and 'lru', got {policy!r}"
        )
    trace = list(trace)
    if crash_at is None:
        if plan is None:
            raise ValueError("need either a FaultPlan with a crash or crash_at")
        crash_events = plan.events_of(CRASH)
        if not crash_events:
            raise ValueError("fault plan contains no crash event")
        crash_at = crash_events[0].start
    if not 0 < crash_at < len(trace):
        raise ValueError(
            f"crash_at must fall inside the trace, got {crash_at} "
            f"for {len(trace)} requests"
        )

    live = create_policy(policy, capacity=capacity)
    for item in trace[:crash_at]:
        live.request(_as_request(item))
    pre_miss = live.stats.miss_ratio
    snap = snapshot_policy(live)

    suffix = trace[crash_at:]
    cold = create_policy(policy, capacity=capacity)
    cold_misses = sum(
        0 if cold.request(_as_request(item)) else 1 for item in suffix
    )
    warm = restore_policy(snap)
    warm_misses = sum(
        0 if warm.request(_as_request(item)) else 1 for item in suffix
    )
    n = len(suffix)
    return CrashRecoveryResult(
        policy=policy,
        capacity=capacity,
        crash_at=crash_at,
        pre_crash_miss_ratio=pre_miss,
        cold_miss_ratio=cold_misses / n if n else 0.0,
        warm_miss_ratio=warm_misses / n if n else 0.0,
        post_requests=n,
    )


def _as_request(item) -> Request:
    if isinstance(item, Request):
        return item
    if isinstance(item, tuple):
        return Request(item[0], size=item[1])
    return Request(item)
