"""Hash-partitioned cache service: N independently-locked shards.

The paper's Section 7 discussion (modeled analytically in
:mod:`repro.concurrency.sharding`) is about exactly this architecture:
partition the key space across independent caches, one lock each, and
accept that Zipfian popularity concentrates load on the hottest shard.
:class:`ShardedCacheService` makes that architecture *runnable*: keys
route to shards by a stable hash, each shard is a full
:class:`~repro.service.core.CacheService` (its own policy instance,
value map, TTL bookkeeping, and lock), and the shards together
partition the configured capacity.

The shard hash must be stable across process restarts — a cache whose
key→shard mapping moves on restart silently loses its working set — so
it is built on BLAKE2b over a canonical key encoding, never on
Python's per-process-salted ``hash()``.  The routing tests pin literal
digest values to guard this.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import (
    Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple,
)

from repro.service.core import CacheService

_UNSET = object()

#: Aggregate-able per-shard stats fields (summed by ``aggregate_stats``).
SUMMED_STATS_FIELDS: Tuple[str, ...] = (
    "gets", "hits", "misses", "sets", "deletes", "expired",
    "evictions", "rejected", "objects", "used", "ttl_entries",
    "sweep_backlog", "policy_requests",
)


def aggregate_stats(per_shard: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum per-shard stats snapshots into one aggregate dict.

    Shared by :class:`ShardedCacheService` and the process-per-shard
    :class:`~repro.service.mp.MPCacheService`, so both backends report
    the same aggregate surface.  Each input snapshot must itself be
    internally consistent (taken under its shard's lock); the aggregate
    then preserves invariants like ``hits + misses == gets`` even
    though the shards were sampled at slightly different instants.
    """
    aggregate: Dict[str, Any] = {name: 0 for name in SUMMED_STATS_FIELDS}
    for stats in per_shard:
        for name in SUMMED_STATS_FIELDS:
            aggregate[name] += stats[name]
    gets = aggregate["gets"]
    aggregate["hit_ratio"] = aggregate["hits"] / gets if gets else 0.0
    aggregate["per_shard"] = per_shard
    return aggregate


def stable_key_hash(key: Hashable) -> int:
    """A 64-bit key hash, identical in every process and on every host.

    Keys of distinct types never collide by encoding (each type gets a
    tag byte); unrecognized types fall back to their ``repr``, which is
    stable for the literal types traces actually use.
    """
    if isinstance(key, str):
        data = b"s" + key.encode("utf-8")
    elif isinstance(key, bool):  # before int: bool is an int subclass
        data = b"o" + (b"1" if key else b"0")
    elif isinstance(key, int):
        data = b"i" + str(key).encode("ascii")
    elif isinstance(key, bytes):
        data = b"b" + key
    else:
        data = b"r" + repr(key).encode("utf-8")
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "big")


def partition_capacity(capacity: int, num_shards: int) -> List[int]:
    """Split ``capacity`` into ``num_shards`` near-equal positive parts.

    The remainder goes to the lowest-numbered shards, so the parts sum
    exactly to ``capacity`` and differ by at most one.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if capacity < num_shards:
        raise ValueError(
            f"capacity {capacity} cannot be split into {num_shards} shards "
            "of at least one object each"
        )
    base, extra = divmod(capacity, num_shards)
    return [base + (1 if i < extra else 0) for i in range(num_shards)]


def scatter_gather(
    items: Iterable[Any],
    route: Callable[[Any], int],
    call: Callable[[Dict[int, List[Any]]], Dict[int, List[Any]]],
    fill: Any,
) -> List[Any]:
    """One batched call across shards, results back in input order.

    ``route`` maps an item to its shard; ``call`` receives
    ``{shard: [its items, in input order]}`` — one entry per involved
    shard — and returns ``{shard: [one result per item]}``.  Keeping
    each shard's items in input order is what makes per-shard counters
    match the per-key loop exactly.
    """
    items = list(items)
    if not items:
        return []
    groups: Dict[int, List[int]] = {}
    for pos, item in enumerate(items):
        groups.setdefault(route(item), []).append(pos)
    replies = call({
        shard: [items[p] for p in positions]
        for shard, positions in groups.items()
    })
    results: List[Any] = [fill] * len(items)
    for shard, positions in groups.items():
        for p, result in zip(positions, replies[shard]):
            results[p] = result
    return results


class ShardOpsMixin:
    """``ops_per_shard`` and ``imbalance`` for every sharded backend.

    Subclasses provide ``_shard_stats()``: one snapshot per shard in
    shard order, carrying at least ``gets``/``sets``/``deletes``, or
    ``None`` for a shard that is down.
    """

    def _shard_stats(self) -> List[Optional[Dict[str, Any]]]:
        raise NotImplementedError

    def ops_per_shard(self) -> List[int]:
        """Operations (gets+sets+deletes) each shard has served; 0 for a
        shard that is down (its counters died with it)."""
        return [0 if s is None else _served(s) for s in self._shard_stats()]

    def imbalance(self) -> float:
        """Hottest shard's operation count over the mean across the
        shards that are up (1.0 = balanced)."""
        from repro.concurrency.sharding import imbalance_factor

        ops = [_served(s) for s in self._shard_stats() if s is not None]
        return imbalance_factor(ops) if ops else 1.0


def _served(snapshot: Dict[str, Any]) -> int:
    return snapshot["gets"] + snapshot["sets"] + snapshot["deletes"]


class ShardedCacheService(ShardOpsMixin):
    """N independent :class:`CacheService` shards behind one API.

    Exposes the same ``get``/``set``/``delete``/``sweep``/``stats``
    surface as a single shard; every operation routes to
    ``shard_for(key)`` and runs under that shard's lock only, so
    operations on different shards never contend.  Constructor
    keywords are forwarded to every shard.
    """

    def __init__(
        self,
        capacity: int,
        policy: str = "s3fifo",
        num_shards: int = 4,
        metrics=None,
        tracer=None,
        instrument_policy: bool = False,
        **shard_kwargs: Any,
    ) -> None:
        capacities = partition_capacity(capacity, num_shards)
        self.capacity = capacity
        self.num_shards = num_shards
        self._shards = [
            CacheService(
                cap,
                policy,
                metrics=metrics,
                tracer=tracer,
                instrument_policy=instrument_policy,
                metrics_labels=(
                    {"shard": str(i)} if metrics is not None else None
                ),
                shard_id=i,
                **shard_kwargs,
            )
            for i, cap in enumerate(capacities)
        ]
        self.policy_name = self._shards[0].policy_name
        self.supports_removal = self._shards[0].supports_removal
        if metrics is not None:
            metrics.gauge(
                "repro_shards", "Number of shards in this service."
            ).set(num_shards)
            metrics.gauge(
                "repro_shard_imbalance",
                "Hottest shard's operation count over the per-shard mean "
                "(1.0 = perfectly balanced).",
            ).set_function(self.imbalance)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_for(self, key: Hashable) -> int:
        """The shard index ``key`` routes to (stable across restarts)."""
        return stable_key_hash(key) % self.num_shards

    def shard(self, index: int) -> CacheService:
        """The shard at ``index`` (introspection and tests)."""
        return self._shards[index]

    @property
    def shards(self) -> List[CacheService]:
        return list(self._shards)

    # ------------------------------------------------------------------
    # The service surface
    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        return self._shards[self.shard_for(key)].get(key, default)

    def set(
        self,
        key: Hashable,
        value: Any,
        ttl: Any = _UNSET,
        size: int = 1,
    ) -> bool:
        shard = self._shards[self.shard_for(key)]
        if ttl is _UNSET:
            return shard.set(key, value, size=size)
        return shard.set(key, value, ttl=ttl, size=size)

    def delete(self, key: Hashable) -> bool:
        return self._shards[self.shard_for(key)].delete(key)

    # ------------------------------------------------------------------
    # Batched operations (per-shard request coalescing)
    # ------------------------------------------------------------------
    def get_many(self, keys: Iterable[Hashable],
                 default: Any = None) -> List[Any]:
        """Batched :meth:`get`: one lock acquisition per shard per batch."""
        return scatter_gather(
            keys, self.shard_for,
            lambda batches: {
                i: self._shards[i].get_many(sub, default)
                for i, sub in batches.items()
            },
            default,
        )

    def set_many(
        self,
        items: Iterable[Tuple[Hashable, Any]],
        ttl: Any = _UNSET,
        size: int = 1,
    ) -> List[bool]:
        """Batched :meth:`set`: pairs coalesced into one call per shard."""
        extra = {} if ttl is _UNSET else {"ttl": ttl}
        return scatter_gather(
            items, lambda item: self.shard_for(item[0]),
            lambda batches: {
                i: self._shards[i].set_many(sub, size=size, **extra)
                for i, sub in batches.items()
            },
            False,
        )

    def delete_many(self, keys: Iterable[Hashable]) -> List[bool]:
        """Batched :meth:`delete`: keys coalesced into one call per shard."""
        return scatter_gather(
            keys, self.shard_for,
            lambda batches: {
                i: self._shards[i].delete_many(sub)
                for i, sub in batches.items()
            },
            False,
        )

    def sweep(self, max_checks: Optional[int] = None) -> int:
        return sum(shard.sweep(max_checks) for shard in self._shards)

    def check(self) -> None:
        for shard in self._shards:
            shard.check()

    def __contains__(self, key: Hashable) -> bool:
        return key in self._shards[self.shard_for(key)]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def _shard_stats(self) -> List[Dict[str, Any]]:
        # Lock-free counter reads: the imbalance gauge calls this at
        # metrics-collect time and must not take the shard locks.
        return [shard.counters.as_dict() for shard in self._shards]

    def stats(self) -> Dict[str, Any]:
        """Aggregate counters plus the per-shard breakdown.

        Each shard snapshot is taken under *that shard's* lock
        (:meth:`CacheService.stats` acquires it), so no per-shard
        counter can tear mid-increment: every snapshot satisfies
        ``hits + misses == gets`` individually, and therefore so does
        the aggregate, even while writers are running — the stats
        hammer test pins this.  The shards are sampled sequentially,
        not at one global instant; the aggregate is a sum of
        per-shard-consistent snapshots, never a torn read.
        """
        per_shard = [shard.stats() for shard in self._shards]
        aggregate = aggregate_stats(per_shard)
        aggregate["policy"] = self.policy_name
        aggregate["capacity"] = self.capacity
        aggregate["num_shards"] = self.num_shards
        return aggregate
