"""Process-per-shard cache backend: native multicore scaling.

The paper's headline *systems* claim (Fig. 8) is about throughput:
S3-FIFO's lock-free queues scale to ~6x optimized LRU at 16 threads.
Threads cannot demonstrate that under CPython's GIL — the in-process
:class:`~repro.service.sharded.ShardedCacheService` serializes on the
interpreter no matter how many shard locks it splits — so this module
escapes the GIL the way production Python caches do: **one worker
process per shard**, each hosting a full single-shard
:class:`~repro.service.core.CacheService` (its own policy instance,
value map, TTL bookkeeping, and lock), with the parent routing
operations over pipes by the same restart-stable
:func:`~repro.service.sharded.stable_key_hash` the in-process sharded
service uses.  Identical routing means identical per-shard request
sequences: the differential tests pin ``MPCacheService`` stats against
``ShardedCacheService`` byte-for-byte.

IPC is the new cost, and batching is the lever: every batched
operation (:meth:`MPCacheService.get_many` / ``set_many`` /
``delete_many``) coalesces its keys into **one message per worker per
batch**, so a batch of B keys over W workers costs ~W round-trips
instead of B.  Single-key ``get``/``set``/``delete`` are one-element
batches.  The load generator's ``--backend mp --batch B`` mode drives
this path and the measured curves live in
``benchmarks/results/fig08_throughput_native.txt``.

Transports
----------

The parent<->worker channel is pluggable
(:class:`~repro.service.transport.Transport`): ``transport="pipe"``
(default) keeps the PR 5 duplex pipes, ``transport="shm"`` switches to
the :mod:`~repro.service.shm` shared-memory ring buffers — same object
protocol, same differential stats parity, an order of magnitude less
per-message cost on multicore hosts.  The worker loop and crash
watchdog (in :mod:`repro.service.pool`) and the metrics merge below
are transport-agnostic.

Lifecycle and crash safety
--------------------------

Spawning, the pipelined exchange, crash detection and teardown live in
:class:`~repro.service.pool.WorkerPool`, shared with the cluster
backend; this module keeps the modulo routing and the reply policy.

* Workers are **daemon** processes: a normally-exiting parent never
  leaves them behind.
* Each transport has a **watchdog** so a worker never outlives a dead
  parent: the pipe transport gets it for free (parent death closes the
  pipe end, the worker's blocking ``recv`` reads EOF), the shm
  transport polls ``multiprocessing.parent_process().is_alive()`` plus
  a shutdown word inside every blocking wait and publishes a heartbeat
  the parent can read.  No leaked processes either way.
* :meth:`MPCacheService.close` (also ``__exit__`` and a best-effort
  ``__del__``) asks each worker out, joins with a deadline, then
  terminates — and finally kills — stragglers before releasing the
  channels; it is idempotent, safe after a worker crash, and never
  blocks on a channel lock held by a thread stuck on a wedged worker
  (it signals the transport instead and lets terminate break the
  deadlock).
* A worker that dies mid-operation surfaces as
  :class:`WorkerCrashedError` on the operation that touched it, never
  as a hang, and every later operation routed to it raises the same
  error at once, without touching its channel.  Deterministic crash
  tests inject the :data:`~repro.resilience.faults.WORKER_CRASH` fault
  kind via a :class:`~repro.resilience.faults.FaultPlan` (the worker
  hard-exits at a planned operation count, simulating SIGKILL).

Observability across processes
------------------------------

A worker cannot share the parent's
:class:`~repro.obs.metrics.MetricsRegistry` (callback-backed gauges
don't pickle), so each worker owns a private registry labelled
``worker=<i>, transport=<pipe|shm>`` and the parent pulls *snapshots*
(:func:`~repro.obs.exporters.export_dict`) at collect time, merging
them with :func:`~repro.obs.exporters.merge_export_dict` — repeated
collects replace each worker's series rather than double-count.  See
:meth:`MPCacheService.merge_metrics`.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.service.pool import (
    ServiceClosedError,
    WorkerCrashedError,
    WorkerPool,
)
from repro.service.sharded import (
    ShardOpsMixin,
    aggregate_stats,
    partition_capacity,
    scatter_gather,
    stable_key_hash,
)
from repro.service.transport import TransportClosedError

__all__ = [
    "MPCacheService",
    "ServiceClosedError",
    "TransportClosedError",
    "WorkerCrashedError",
]

_UNSET = object()


class MPCacheService(ShardOpsMixin):
    """N shard worker *processes* behind the one-service API.

    Exposes the same surface as
    :class:`~repro.service.sharded.ShardedCacheService` —
    ``get``/``set``/``delete``, their ``_many`` batches,
    ``sweep``/``stats``/``check``, ``in``/``len`` — with each shard's
    :class:`~repro.service.core.CacheService` running in its own
    process.  Keys route by ``stable_key_hash(key) % num_workers``,
    exactly the in-process sharded service's mapping, so for the same
    operation sequence both backends produce identical per-shard stats.

    Parameters mirror ``ShardedCacheService`` where they can; the
    differences are inherent to processes:

    * ``transport`` — ``"pipe"`` (default: pickled tuples over a
      duplex pipe) or ``"shm"`` (shared-memory ring buffers, see
      :mod:`repro.service.shm`).  Both speak the identical object
      protocol; the differential tests pin their ``stats()``
      byte-identical.
    * ``transport_options`` — forwarded to the transport constructor
      (shm accepts ``slots``, ``slot_size``, ``arena_size``; the edge
      case tests use tiny rings to force backpressure).
    * ``start_method`` — multiprocessing start method (default:
      ``fork`` when the platform has it, else ``spawn``).
    * ``collect_metrics`` — give each worker a private
      :class:`~repro.obs.metrics.MetricsRegistry` (labelled
      ``worker=<i>``) whose snapshots :meth:`merge_metrics` pulls into
      a parent-side registry.  A parent registry object cannot be
      shared directly: its collect-time callbacks don't pickle.
    * ``fault_plans`` — optional ``{worker_id: FaultPlan}`` injecting
      deterministic :data:`~repro.resilience.faults.WORKER_CRASH`
      faults (the crash-safety tests use this).
    * ``**service_kwargs`` — forwarded to every worker's
      ``CacheService`` constructor; must be picklable (so no
      ``clock=`` callables — workers keep the default monotonic
      clock).

    Thread safety: the parent side is safe to drive from multiple
    threads.  Each worker channel is guarded by a lock held for the
    full request/response exchange; a batch spanning several workers
    acquires the involved locks in index order (no lock-order
    inversion) and pipelines — all sub-batches are sent before any
    reply is awaited, so workers execute concurrently.
    """

    def __init__(
        self,
        capacity: int,
        policy: str = "s3fifo",
        num_workers: int = 2,
        *,
        transport: str = "pipe",
        transport_options: Optional[Dict[str, Any]] = None,
        start_method: Optional[str] = None,
        collect_metrics: bool = False,
        fault_plans: Optional[Dict[int, Any]] = None,
        **service_kwargs: Any,
    ) -> None:
        self._pool = WorkerPool(
            policy, service_kwargs, label="MPCacheService",
            process_name="mp-cache-worker", transport=transport,
            transport_options=transport_options, start_method=start_method,
            collect_metrics=collect_metrics,
        )
        capacities = partition_capacity(capacity, num_workers)
        self.capacity = capacity
        self.num_workers = num_workers
        self.transport = transport
        self.collect_metrics = collect_metrics
        try:
            infos = [
                self._pool.spawn(i, cap, (fault_plans or {}).get(i))
                for i, cap in enumerate(capacities)
            ]
        except BaseException:
            self._pool.close()
            raise
        self.policy_name = infos[0]["policy_name"]
        self.supports_removal = infos[0]["supports_removal"]
        self.worker_pids = [info["pid"] for info in infos]

    # ------------------------------------------------------------------
    # Routing and replies
    # ------------------------------------------------------------------
    def shard_for(self, key: Hashable) -> int:
        """The worker index ``key`` routes to (stable across restarts)."""
        return stable_key_hash(key) % self.num_workers

    def _exchange(self, msgs: Dict[int, tuple]) -> Dict[int, Any]:
        """One pipelined pool exchange; a crash outranks a remote error.

        Either is raised only after the surviving workers' replies are
        drained, so their channels stay in lockstep.
        """
        replies, crashed, remote = self._pool.exchange(msgs)
        if crashed:
            raise self._pool.crash_error(crashed[0])
        if remote is not None:
            raise remote
        return replies

    def _exchange_all(self, msg: tuple) -> List[Any]:
        """The same message to every worker; replies in worker order."""
        results = self._exchange({w: msg for w in range(self.num_workers)})
        return [results[w] for w in range(self.num_workers)]

    # ------------------------------------------------------------------
    # The service surface
    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        return self.get_many([key], default)[0]

    def set(
        self,
        key: Hashable,
        value: Any,
        ttl: Any = _UNSET,
        size: int = 1,
    ) -> bool:
        if ttl is _UNSET:
            return self.set_many([(key, value)], size=size)[0]
        return self.set_many([(key, value)], ttl=ttl, size=size)[0]

    def delete(self, key: Hashable) -> bool:
        return self.delete_many([key])[0]

    def get_many(self, keys: Iterable[Hashable],
                 default: Any = None) -> List[Any]:
        """Batched get: **one round-trip per involved worker**."""
        return scatter_gather(
            keys, self.shard_for,
            lambda batches: self._exchange({
                w: ("get_many", sub, default) for w, sub in batches.items()
            }),
            default,
        )

    def set_many(
        self,
        items: Iterable[Tuple[Hashable, Any]],
        ttl: Any = _UNSET,
        size: int = 1,
    ) -> List[bool]:
        """Batched set, coalesced per worker like :meth:`get_many`.

        ``ttl`` travels as an explicit (present, value) pair — the
        in-process ``_UNSET`` sentinel would not survive pickling.
        """
        items = list(items)
        if items and ttl is not _UNSET and ttl is not None and ttl < 0:
            raise ValueError(f"ttl must be >= 0, got {ttl}")
        has_ttl = ttl is not _UNSET
        wire_ttl = ttl if has_ttl else None
        return scatter_gather(
            items, lambda item: self.shard_for(item[0]),
            lambda batches: self._exchange({
                w: ("set_many", has_ttl, wire_ttl, size, sub)
                for w, sub in batches.items()
            }),
            False,
        )

    def delete_many(self, keys: Iterable[Hashable]) -> List[bool]:
        return scatter_gather(
            keys, self.shard_for,
            lambda batches: self._exchange({
                w: ("delete_many", sub) for w, sub in batches.items()
            }),
            False,
        )

    def sweep(self, max_checks: Optional[int] = None) -> int:
        return sum(self._exchange_all(("sweep", max_checks)))

    def check(self) -> None:
        self._exchange_all(("check",))

    def __contains__(self, key: Hashable) -> bool:
        replies = self._exchange({self.shard_for(key): ("contains", key)})
        return next(iter(replies.values()))

    def __len__(self) -> int:
        return sum(self._exchange_all(("len",)))

    # ------------------------------------------------------------------
    # Statistics / observability
    # ------------------------------------------------------------------
    def _shard_stats(self) -> List[Dict[str, Any]]:
        return self._exchange_all(("stats",))

    def stats(self) -> Dict[str, Any]:
        """Aggregate stats across workers (same shape as sharded).

        Every worker snapshot is taken under that worker's service
        lock inside its own process, so the same no-tear guarantee as
        :meth:`ShardedCacheService.stats` holds across the pipe.
        """
        aggregate = aggregate_stats(self._shard_stats())
        aggregate["policy"] = self.policy_name
        aggregate["capacity"] = self.capacity
        aggregate["num_shards"] = self.num_workers
        aggregate["backend"] = "mp"
        return aggregate

    def merge_metrics(self, registry) -> int:
        """Pull every worker's metrics snapshot into ``registry``.

        Requires ``collect_metrics=True``.  Each worker's series
        already carry the ``worker=<i>`` label, so repeated merges
        replace rather than duplicate (see
        :func:`~repro.obs.exporters.merge_export_dict`).  Returns the
        total number of series merged.
        """
        if not self.collect_metrics:
            raise ValueError(
                "MPCacheService was built without collect_metrics=True"
            )
        from repro.obs.exporters import merge_export_dict

        merged = 0
        for snapshot in self._exchange_all(("metrics",)):
            if snapshot is not None:
                merged += merge_export_dict(registry, snapshot)
        return merged

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker; idempotent, safe after crashes.

        See :meth:`WorkerPool.close <repro.service.pool.WorkerPool.close>`:
        a channel whose lock is held by a thread stuck on a wedged
        worker is *signalled*, not waited on, and terminating the
        worker is what breaks the stuck thread out (its blocking read
        fails over to :class:`WorkerCrashedError`).
        """
        self._pool.close(timeout)

    def __enter__(self) -> "MPCacheService":
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
            f"MPCacheService({self.policy_name}, capacity={self.capacity}, "
            f"workers={self.num_workers}, {state})"
        )
