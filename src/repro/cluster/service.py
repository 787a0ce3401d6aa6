"""Replicated multi-node cache cluster with fault-driven failover.

The paper's evaluation ran on a distributed fault-tolerant platform;
every backend below this module loses data and surfaces errors the
moment one worker process dies.  :class:`ClusterCacheService` is the
single-host stand-in for that platform: N node *processes* (each the
same worker body as :class:`~repro.service.mp.MPCacheService`, hosting
a stock :class:`~repro.service.core.CacheService`), keys placed on a
consistent-hash :class:`~repro.cluster.ring.HashRing` instead of a
modulo map, and every key written to its first ``replication``
distinct ring owners.

The process plumbing is the mp backend's too: spawning, the pipelined
exchange, down tracking and the bounded teardown live in
:class:`~repro.service.pool.WorkerPool`, and the nodes stay on its pipe
transport.  This module keeps only placement and what a crash means
here — the ring, the replica walk, read-repair and rebalance.

Failure semantics, in order of appearance:

* **Failover.**  A node that dies — detected by pipe EOF, exactly the
  mp backend's watchdog signal, and injectable deterministically with
  the :data:`~repro.resilience.faults.WORKER_CRASH` fault kind — is
  marked down by the pool and *skipped*: reads walk the key's
  surviving replicas, writes land on them.  With ``replication >= 2``
  a single node death is client-invisible (zero errors, no hangs);
  with ``replication=1`` the dead node's keys degrade to misses and
  dropped writes, counted in ``degraded_ops`` — degraded, never wrong
  and never stale.
* **Read-repair.**  When a read misses on a live replica but hits on
  a later one, the value is written back to the replicas that missed,
  healing divergence created while a node was down (or after it
  restarted empty).  Repaired writes re-admit through the normal set
  path with unit size and no TTL — repair restores availability, not
  byte-exact metadata.
* **Rebalance.**  :meth:`ClusterCacheService.rebalance` runs one
  anti-entropy pass: every live node exports its residents
  (:meth:`~repro.service.core.CacheService.export_entries`,
  remaining-TTL form), desired owners are recomputed from the ring,
  and entries are imported where missing and deleted where no longer
  owned.  :meth:`join_node` / :meth:`remove_node` /
  :meth:`restart_node` change membership; the ring bounds the
  movement a rebalance then performs to ~1/N of keys
  (property-tested at the ring layer).

Client-visible results never depend on wall-clock timing: for a fixed
operation sequence and fault plan, hits, misses, set results, and the
failover/repair counters are byte-identical across runs — the
deterministic failover tests pin this.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.service.pool import WorkerPool
from repro.service.sharded import (
    ShardOpsMixin,
    aggregate_stats,
    partition_capacity,
    stable_key_hash,
)

_UNSET = object()


class _Miss:
    """Wire-safe miss sentinel: identity survives pickling as a type.

    ``get_many`` needs to distinguish "replica holds None" from
    "replica misses" across a pipe, where a plain ``object()``
    sentinel loses identity.  Instances of this private class only
    ever originate here, so an ``isinstance`` check on the reply is
    exact.
    """

    __slots__ = ()


class ClusterCacheService(ShardOpsMixin):
    """N replicated node processes behind the one-service API.

    Parameters
    ----------
    capacity:
        Total object capacity, split near-equally across the initial
        nodes.  Each replica copy occupies its node's share, so the
        cluster holds ``~capacity / replication`` *unique* keys at
        full replication — availability is paid for in space.
    policy:
        Registry name of every node's eviction policy.
    num_nodes:
        Initial node-process count.
    replication:
        Copies per key (``1 <= replication <= num_nodes``).  The
        replica set is the key's first ``replication`` distinct ring
        owners, in failover order.
    vnodes:
        Virtual nodes per node on the hash ring.
    start_method:
        Multiprocessing start method (default: ``fork`` if available).
    metrics:
        Optional parent-side
        :class:`~repro.obs.metrics.MetricsRegistry`: per-node health
        gauges (``repro_cluster_node_up{node=i}``) plus cluster-level
        gauges and counters (nodes up, failovers, read repairs,
        rebalanced keys, degraded ops) — all collect-time callbacks,
        zero hot-path cost.
    fault_plans:
        Optional ``{node_id: FaultPlan}`` injecting deterministic
        :data:`~repro.resilience.faults.WORKER_CRASH` faults, exactly
        as on :class:`~repro.service.mp.MPCacheService`.
    **service_kwargs:
        Forwarded to every node's ``CacheService`` (picklable only).

    Thread safety matches the mp backend: each node channel is
    guarded by a lock held for the full exchange, acquired in node-id
    order; the failover/repair counters take a dedicated lock.
    """

    def __init__(
        self,
        capacity: int,
        policy: str = "s3fifo",
        num_nodes: int = 3,
        *,
        replication: int = 2,
        vnodes: int = DEFAULT_VNODES,
        start_method: Optional[str] = None,
        metrics=None,
        fault_plans: Optional[Dict[int, Any]] = None,
        **service_kwargs: Any,
    ) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if not 1 <= replication <= num_nodes:
            raise ValueError(
                f"replication must be in [1, num_nodes={num_nodes}], "
                f"got {replication}"
            )
        capacities = partition_capacity(capacity, num_nodes)
        self.capacity = capacity
        self.replication = replication
        self._node_share = capacities[0]  # a joiner's capacity share
        self.ring = HashRing(vnodes=vnodes)
        self._pool = WorkerPool(
            policy, service_kwargs, label="ClusterCacheService",
            process_name="cluster-cache-node", start_method=start_method,
        )
        self._counter_lock = threading.Lock()
        self.failovers = 0
        self.read_repairs = 0
        self.rebalanced_keys = 0
        self.degraded_ops = 0
        self._registry = metrics
        try:
            for i, cap in enumerate(capacities):
                self._spawn_node(i, cap, (fault_plans or {}).get(i))
                self.ring.add_node(i)
        except BaseException:
            self._pool.close()
            raise
        info = self._pool.handshakes[0]
        self.policy_name = info["policy_name"]
        self.supports_removal = info["supports_removal"]
        if metrics is not None:
            self._wire_metrics(metrics)

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------
    def _spawn_node(self, node_id: int, capacity: int, fault_plan) -> None:
        """Start one node process (handshake included)."""
        self._pool.spawn(node_id, capacity, fault_plan)
        if self._registry is not None:
            self._register_node_gauge(node_id)

    def _live_ids(self) -> List[int]:
        return [nid for nid in self.node_ids if self._pool.alive(nid)]

    @property
    def node_ids(self) -> List[int]:
        """Every ring member's id, sorted (live or not)."""
        return self._pool.worker_ids

    def node_health(self) -> Dict[int, bool]:
        """``{node_id: alive}`` for every ring member, sorted."""
        return {nid: self._pool.alive(nid) for nid in self.node_ids}

    def _require_node(self, node_id: int) -> None:
        if node_id not in self._pool.handshakes:
            raise ValueError(f"unknown node id {node_id}")

    # ------------------------------------------------------------------
    # Exchange (a crash means failover, unlike mp's raise)
    # ------------------------------------------------------------------
    def _exchange(self, msgs: Dict[int, tuple]) -> Dict[int, Any]:
        """One pipelined pool exchange; replies from the nodes that
        answered.

        A node that is down, or dies mid-exchange, is simply absent
        from the replies — the pool marks it down and the caller fails
        over; a crash never raises here.  Remote application errors
        (bad ttl, removal unsupported) still raise after the drain,
        like the mp backend.
        """
        replies, _crashed, remote = self._pool.exchange(msgs)
        if remote is not None:
            raise remote
        return replies

    def _exchange_live(self, msg: tuple) -> Dict[int, Any]:
        """The same message to every live node; crashed nodes dropped."""
        return self._exchange({nid: msg for nid in self._live_ids()})

    def _count(self, **deltas: int) -> None:
        with self._counter_lock:
            for name, delta in deltas.items():
                if delta:
                    setattr(self, name, getattr(self, name) + delta)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def owners_for(self, key: Hashable) -> List[int]:
        """The key's replica set (ring members, live or not), in
        failover order."""
        return self.ring.nodes_for(key, self.replication)

    def _live_owners(self, key: Hashable) -> List[int]:
        return [nid for nid in self.owners_for(key)
                if self._pool.alive(nid)]

    # ------------------------------------------------------------------
    # The service surface
    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        return self.get_many([key], default)[0]

    def set(self, key: Hashable, value: Any, ttl: Any = _UNSET,
            size: int = 1) -> bool:
        if ttl is _UNSET:
            return self.set_many([(key, value)], size=size)[0]
        return self.set_many([(key, value)], ttl=ttl, size=size)[0]

    def delete(self, key: Hashable) -> bool:
        return self.delete_many([key])[0]

    def get_many(self, keys: Iterable[Hashable],
                 default: Any = None) -> List[Any]:
        """Batched replica-walking get with failover and read-repair.

        Round 1 asks each key's first *live* owner, coalesced into one
        message per node; keys that miss (or whose node dies mid-ask)
        walk to the next live replica in later rounds — at most
        ``replication`` rounds total.  A key served by a later replica
        after earlier live replicas missed triggers a read-repair
        write back to the missers.  Keys with no live owner left are
        served as ``default`` and counted in ``degraded_ops``.
        """
        keys = list(keys)
        if not keys:
            return []
        self._pool.ensure_open()
        miss = _Miss()
        n = len(keys)
        results: List[Any] = [default] * n
        hit = [False] * n
        probed_live = [False] * n
        skipped_dead = [False] * n
        owner_lists = [self.owners_for(key) for key in keys]
        cursors = [0] * n
        missed_on: List[List[int]] = [[] for _ in range(n)]
        pending = list(range(n))
        while pending:
            groups: Dict[int, List[int]] = {}
            for pos in pending:
                owners = owner_lists[pos]
                cur = cursors[pos]
                while (cur < len(owners)
                       and not self._pool.alive(owners[cur])):
                    skipped_dead[pos] = True
                    cur += 1
                cursors[pos] = cur
                if cur < len(owners):
                    groups.setdefault(owners[cur], []).append(pos)
            if not groups:
                break
            replies = self._exchange({
                nid: ("get_many", [keys[p] for p in positions], miss)
                for nid, positions in groups.items()
            })
            pending = []
            for nid in sorted(groups):
                positions = groups[nid]
                if nid not in replies:
                    # Died mid-ask: the node is marked down now, so the
                    # skip loop above advances these keys next round.
                    pending.extend(positions)
                    continue
                for pos, value in zip(positions, replies[nid]):
                    probed_live[pos] = True
                    if isinstance(value, _Miss):
                        missed_on[pos].append(nid)
                        cursors[pos] += 1
                        pending.append(pos)
                    else:
                        results[pos] = value
                        hit[pos] = True
        # Read-repair: write each late-replica hit back to the live
        # replicas that missed it, one batched set per node.
        repairs: Dict[int, List[Tuple[Hashable, Any]]] = {}
        repaired = 0
        for pos in range(n):
            if hit[pos] and missed_on[pos]:
                repaired += 1
                for nid in missed_on[pos]:
                    if self._pool.alive(nid):
                        repairs.setdefault(nid, []).append(
                            (keys[pos], results[pos])
                        )
        if repairs:
            self._exchange({
                nid: ("set_many", False, None, 1, items)
                for nid, items in repairs.items()
            })
        self._count(
            failovers=sum(1 for pos in range(n) if skipped_dead[pos]),
            read_repairs=repaired,
            degraded_ops=sum(
                1 for pos in range(n)
                if not hit[pos] and not probed_live[pos]
            ),
        )
        return results

    def set_many(
        self,
        items: Iterable[Tuple[Hashable, Any]],
        ttl: Any = _UNSET,
        size: int = 1,
    ) -> List[bool]:
        """Batched set to **all live owners** of each key, one pipe
        message per node.

        A key's result is the reply from its first owner (failover
        order) that survived the exchange; replicas that die mid-write
        simply drop their copy.  A key with no live owner at all is
        reported ``False`` and counted in ``degraded_ops``.
        """
        items = list(items)
        if not items:
            return []
        self._pool.ensure_open()
        if ttl is not _UNSET and ttl is not None and ttl < 0:
            raise ValueError(f"ttl must be >= 0, got {ttl}")
        has_ttl = ttl is not _UNSET
        answers = self._write_live_owners(
            [key for key, _value in items],
            lambda positions: ("set_many", has_ttl,
                               (ttl if has_ttl else None), size,
                               [items[p] for p in positions]),
        )
        return [replies[0] if replies else False for replies in answers]

    def delete_many(self, keys: Iterable[Hashable]) -> List[bool]:
        """Batched delete from all live owners; True if *any* replica
        held the key."""
        keys = list(keys)
        if not keys:
            return []
        self._pool.ensure_open()
        answers = self._write_live_owners(
            keys,
            lambda positions: ("delete_many", [keys[p] for p in positions]),
        )
        return [any(replies) for replies in answers]

    def _write_live_owners(self, keys: List[Hashable],
                           make_msg) -> List[List[Any]]:
        """Send each key to every live owner, one message per node.

        ``make_msg(positions)`` builds a node's message from the key
        positions routed to it.  Returns, per key, the replies of the
        owners that answered, in failover order.  A key that skipped a
        dead owner counts as a failover; one that no owner answered
        counts as a degraded op.
        """
        live_owners: List[List[int]] = []
        groups: Dict[int, List[int]] = {}
        failovers = 0
        for pos, key in enumerate(keys):
            owners = self.owners_for(key)
            live = [nid for nid in owners if self._pool.alive(nid)]
            failovers += len(live) < len(owners)
            live_owners.append(live)
            for nid in live:
                groups.setdefault(nid, []).append(pos)
        replies = self._exchange({
            nid: make_msg(positions) for nid, positions in groups.items()
        })
        per_node = {
            nid: dict(zip(groups[nid], replies[nid])) for nid in replies
        }
        answers = [
            [per_node[nid][pos] for nid in live if nid in per_node]
            for pos, live in enumerate(live_owners)
        ]
        self._count(failovers=failovers,
                    degraded_ops=sum(1 for a in answers if not a))
        return answers

    def __contains__(self, key: Hashable) -> bool:
        self._pool.ensure_open()
        for nid in self.owners_for(key):
            if not self._pool.alive(nid):
                continue
            replies = self._exchange({nid: ("contains", key)})
            if replies.get(nid):
                return True
        return False

    def __len__(self) -> int:
        """Total resident entries across live nodes.  Replica copies
        count individually: at full health an R-replicated cluster
        reports ~R× its unique-key count."""
        return sum(self._exchange_live(("len",)).values())

    def sweep(self, max_checks: Optional[int] = None) -> int:
        return sum(self._exchange_live(("sweep", max_checks)).values())

    def check(self) -> None:
        self._exchange_live(("check",))

    # ------------------------------------------------------------------
    # Statistics / observability
    # ------------------------------------------------------------------
    def _shard_stats(self) -> List[Optional[Dict[str, Any]]]:
        replies = self._exchange_live(("stats",))
        return [replies.get(nid) for nid in self.node_ids]

    def stats(self) -> Dict[str, Any]:
        """Aggregate stats across live nodes, plus cluster health.

        Shape matches the sharded/mp backends (``per_shard`` holds the
        live nodes' snapshots in node-id order) with cluster extras:
        replication factor, vnodes, per-node health, and the
        failover / read-repair / rebalance / degraded-op counters.
        """
        live = [snap for snap in self._shard_stats() if snap is not None]
        aggregate = aggregate_stats(live)
        aggregate["policy"] = self.policy_name
        aggregate["capacity"] = self.capacity
        aggregate["backend"] = "cluster"
        aggregate["num_shards"] = len(self.node_ids)
        aggregate["num_nodes"] = len(self.node_ids)
        aggregate["nodes_up"] = len(live)
        aggregate["replication"] = self.replication
        aggregate["vnodes"] = self.ring.vnodes
        aggregate["node_health"] = self.node_health()
        with self._counter_lock:
            aggregate["failovers"] = self.failovers
            aggregate["read_repairs"] = self.read_repairs
            aggregate["rebalanced_keys"] = self.rebalanced_keys
            aggregate["degraded_ops"] = self.degraded_ops
        return aggregate

    def _wire_metrics(self, registry) -> None:
        registry.gauge(
            "repro_cluster_nodes", "Ring members (live or not)."
        ).set_function(lambda: float(len(self.node_ids)))
        registry.gauge(
            "repro_cluster_nodes_up", "Nodes currently serving."
        ).set_function(lambda: float(len(self._live_ids())))
        registry.gauge(
            "repro_cluster_replication", "Configured copies per key."
        ).set_function(lambda: float(self.replication))
        for attr, help_text in (
            ("failovers", "Operations that skipped a dead owner."),
            ("read_repairs", "Keys healed by read-repair write-back."),
            ("rebalanced_keys", "Entry copies moved by rebalancing."),
            ("degraded_ops", "Operations with no live owner left."),
        ):
            registry.counter(
                f"repro_cluster_{attr}", help_text
            ).set_function(lambda a=attr: float(getattr(self, a)))

    def _register_node_gauge(self, node_id: int) -> None:
        self._registry.gauge(
            "repro_cluster_node_up",
            "1 while the node process serves traffic.",
            {"node": str(node_id)},
        ).set_function(
            lambda nid=node_id: 1.0 if self._pool.alive(nid) else 0.0
        )

    # ------------------------------------------------------------------
    # Membership & rebalancing
    # ------------------------------------------------------------------
    def rebalance(self) -> int:
        """One anti-entropy pass; returns entry copies moved.

        Every live node exports its residents; each key's desired
        placement is recomputed as its first ``replication`` *live*
        owners in ring-walk order; entries are imported where missing
        (sourced from the first holder in walk order — deterministic)
        and deleted from live nodes that no longer own them.  TTLs
        travel in remaining-seconds form and imports re-admit through
        the normal set path, so a rebalance never resurrects expired
        entries and never bypasses admission.
        """
        self._pool.ensure_open()
        exports = self._exchange_live(("export",))
        holding: Dict[int, Dict[Hashable, tuple]] = {
            nid: {key: (value, ttl, size)
                  for key, value, ttl, size in entries}
            for nid, entries in exports.items()
        }
        all_keys = set()
        for entries in holding.values():
            all_keys.update(entries)
        ring_size = len(self.ring)
        imports: Dict[int, List[tuple]] = {}
        deletes: Dict[int, List[Hashable]] = {}
        moved = 0
        # Hash order is deterministic and type-agnostic (keys may mix
        # ints and strings, which don't sort together).
        for key in sorted(all_keys,
                          key=lambda k: (stable_key_hash(k), repr(k))):
            walk = self.ring.nodes_for(key, ring_size)
            desired = [nid for nid in walk
                       if self._pool.alive(nid)][:self.replication]
            holders = [nid for nid in walk
                       if nid in holding and key in holding[nid]]
            if not holders:
                continue
            source = holders[0]
            value, ttl, size = holding[source][key]
            for nid in desired:
                if nid not in holders:
                    imports.setdefault(nid, []).append(
                        (key, value, ttl, size)
                    )
                    moved += 1
            for nid in holders:
                if nid not in desired:
                    deletes.setdefault(nid, []).append(key)
        if imports:
            self._exchange({
                nid: ("import", entries)
                for nid, entries in imports.items()
            })
        if deletes:
            self._exchange({
                nid: ("delete_many", keys)
                for nid, keys in deletes.items()
            })
        self._count(rebalanced_keys=moved)
        return moved

    def join_node(self) -> int:
        """Spawn a fresh empty node, add it to the ring, and return
        its id.  Call :meth:`rebalance` afterwards to move its ~1/N
        share of keys onto it."""
        self._pool.ensure_open()
        node_id = max(self.node_ids) + 1
        self._spawn_node(node_id, self._node_share, None)
        self.ring.add_node(node_id)
        return node_id

    def restart_node(self, node_id: int) -> None:
        """Respawn a dead node in place (same id, capacity, and ring
        points).  It comes back *empty* — its replicas still serve its
        keys; a subsequent :meth:`rebalance` (or read-repair traffic)
        refills it.  No fault plan carries over."""
        self._pool.ensure_open()
        self._require_node(node_id)
        if self._pool.alive(node_id):
            raise ValueError(f"node {node_id} is still alive")
        capacity = self._pool.handshakes[node_id]["capacity"]
        self._spawn_node(node_id, capacity, None)

    def remove_node(self, node_id: int) -> int:
        """Gracefully decommission a node; returns entries re-homed.

        A live node first exports its residents, which are imported to
        their new owners under the shrunk ring before the process is
        shut down — planned removal loses nothing.  (A *dead* node's
        removal re-homes nothing; its data lives only in its
        replicas.)
        """
        self._pool.ensure_open()
        self._require_node(node_id)
        if len(self.ring) <= 1:
            raise ValueError("cannot remove the last ring node")
        entries: List[tuple] = []
        if self._pool.alive(node_id):
            replies = self._exchange({node_id: ("export",)})
            entries = replies.get(node_id, [])
        self.ring.remove_node(node_id)
        imports: Dict[int, List[tuple]] = {}
        for key, value, ttl, size in entries:
            for nid in self._live_owners(key):
                if nid != node_id:
                    imports.setdefault(nid, []).append(
                        (key, value, ttl, size)
                    )
        moved = sum(len(v) for v in imports.values())
        if imports:
            self._exchange({
                nid: ("import", batch)
                for nid, batch in imports.items()
            })
        self._pool.shutdown(node_id)
        self._count(rebalanced_keys=moved)
        return moved

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self) -> Dict[str, Any]:
        """Graceful pre-shutdown pass: sweep expired entries on every
        live node and return a final stats snapshot.  Leaves the
        service open — :meth:`close` does the teardown."""
        self._pool.ensure_open()
        self.sweep()
        return self.stats()

    def close(self, timeout: float = 5.0) -> None:
        """Stop every node; idempotent, safe after crashes, and bounded
        even while a thread is stuck on a wedged node (see
        :meth:`WorkerPool.close <repro.service.pool.WorkerPool.close>`)."""
        self._pool.close(timeout)

    def __enter__(self) -> "ClusterCacheService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort; never raise from GC
        try:
            self.close(timeout=1.0)
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "closed" if self._pool.closed else "open"
        return (
            f"ClusterCacheService({self.policy_name}, "
            f"capacity={self.capacity}, nodes={len(self.node_ids)}, "
            f"replication={self.replication}, {state})"
        )
