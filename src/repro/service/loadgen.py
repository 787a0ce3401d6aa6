"""Concurrent load generator for the live cache service.

Replays a synthetic Zipf stream against a :class:`CacheService` or
:class:`ShardedCacheService` from multiple threads and reports what the
offline simulator cannot: ops/sec, per-operation latency percentiles
(p50/p90/p99/p99.9), per-shard load balance, and the hit ratio the
service actually served.  Where :mod:`repro.concurrency.model` predicts
throughput from assumed per-op costs, this module *measures* them — and
:mod:`repro.concurrency.calibrate` closes the loop by fitting the
analytic model's cost profile to a load-generator report.

The workload is read-through: ``get(key)``, and on a miss ``set(key,
value)``.  With one shard and one thread this drives the policy with
exactly the offline simulator's request sequence, which the parity
tests exploit.  All threads draw slices of one shared trace, so the
workload is identical across thread counts.

One driver loop (:func:`_drive`) runs every row.  It walks its slice
in *windows* and varies on two axes only:

* **pacing** — *closed*: each window issues as soon as the previous
  one returns, which measures saturated throughput; *open*: windows
  issue on a fixed schedule (one slot per operation, a window at its
  first operation's slot) and latency is charged from the *scheduled*
  slot, so a slow operation penalises every operation queued behind
  it (this avoids the coordinated-omission trap of timing only from
  actual start).
* **round adapter** — how one window reaches the cache.  Per-key
  (:func:`_key_rounds`, windows of one key): ``get``, then ``set`` on
  a miss.  Batched (:func:`_many_rounds`, ``batch_size > 1``):
  ``get_many`` over the window, then one ``set_many`` for the misses;
  for the mp backend that coalesces the window into one pipe
  round-trip per worker, the lever that amortizes IPC.  Socket
  (:func:`_wire_rounds`, ``frontend="resp"``/``"memcached"``):
  ``pipeline_depth`` pipelined GETs through a blocking client from
  :mod:`repro.netsrv.client`, then pipelined SETs for the misses.

Every window is charged the same way: each of its operations records
the *window's* latency (an operation is done when its window is), and
the window cost is split evenly across its operations for the hit/miss
mean-cost counters — for a one-key window that is exactly that key's
latency.  An adapter names the exception that marks a *lost* window:
``WorkerCrashedError`` in-process (an mp worker crash, e.g. an
injected ``fault_plans`` ``worker-crash``), ``ConnectionError`` /
``OSError`` / ``McError`` on a socket (an injected ``conn-reset``, a
crashed backend; the socket adapter reconnects for the next window).
A lost window counts all its operations in the row's ``errors`` /
``error_rate`` and the loop moves on — on the mp backend later
operations on the dead shard keep failing and keep counting, while
the cluster backend fails over and the error never recurs.  Error
replies inside a socket window count in ``errors`` without charging
latency.  Note a batched or pipelined workload is not
operation-identical to the per-key one: duplicate keys inside one
window all miss together (the per-key loop would hit from the second
occurrence on).

Three backends (``backend=``):

* **thread** — the in-process services
  (:class:`~repro.service.core.CacheService` /
  :class:`~repro.service.sharded.ShardedCacheService`).  Threads share
  the GIL, so throughput tops out near one core no matter the shard
  count — the honest CPython baseline.
* **mp** — the process-per-shard
  :class:`~repro.service.mp.MPCacheService`; ``num_shards`` becomes the
  worker-process count.  This is the native-scaling configuration
  behind ``fig08_throughput_native.txt``.
* **cluster** — the replicated
  :class:`~repro.cluster.service.ClusterCacheService`; ``num_shards``
  becomes the node-process count, with ``replication`` copies per key
  and failover instead of errors when a node dies.

Rows also carry the cluster health counters (``nodes_up``,
``failovers``, ``read_repairs``, ``degraded_ops``) when the backend
reports them.  Since schema 4 the driving side has a **frontend**
axis: ``frontend="inproc"`` (the default) calls the service
in-process, while ``frontend="resp"`` / ``"memcached"`` stand up a
:class:`~repro.netsrv.server.CacheServer` over the backend and drive
it with one socket adapter per ``connections`` (closed pacing only).
"""

from __future__ import annotations

import math
import threading
import time
from array import array
from typing import Any, Dict, List, Optional, Sequence

from repro.concurrency.sharding import imbalance_factor
from repro.service.core import CacheService
from repro.service.mp import WorkerCrashedError
from repro.service.sharded import ShardedCacheService

#: Bumped when the report layout changes incompatibly.
#: 2: scenario rows and config gained ``backend`` / ``workers`` /
#: ``batch_size``; percentile convention fixed to true nearest-rank.
#: 3: scenario rows and config gained ``transport`` (``inproc`` for the
#: thread backend, ``pipe``/``shm`` for mp, ``pipe`` for cluster).
#: 4: scenario rows and config gained ``frontend`` (``inproc``,
#: ``resp``, ``memcached``), ``connections``, and ``pipeline_depth``
#: (socket-mode axes; in-process rows record 0 for both).
#: (Reports additionally carry a top-level ``env`` provenance block —
#: interpreter, numpy, host shape — from :func:`repro.perf.bench.env_block`;
#: additive, so no schema bump.)
SCHEMA_VERSION = 4

#: Report ``kind`` discriminator (BENCH_service.json vs other reports).
REPORT_KIND = "service-loadgen"


class _WorkerStats:
    """Per-thread measurement state (merged after the run)."""

    __slots__ = ("latencies_ns", "hits", "misses", "hit_ns", "miss_ns",
                 "errors")

    def __init__(self) -> None:
        self.latencies_ns = array("q")
        self.hits = 0
        self.misses = 0
        self.hit_ns = 0
        self.miss_ns = 0
        self.errors = 0


def _drive(rounds, num_keys: int, width: int, interval_ns: int,
           stats: _WorkerStats, barrier: threading.Barrier) -> None:
    """The one driver loop: replay ``num_keys`` keys in windows of
    ``width``.

    ``rounds`` is a round adapter ``(round_, lost, close)`` bound to
    the driver's keys: ``round_(lo, hi)`` serves the window
    ``keys[lo:hi]`` and returns ``(missed, failed)`` — its misses, and
    its error replies (charged to ``errors``, not to latency); an
    exception in ``lost`` loses the whole window; ``close`` (or
    ``None``) releases the adapter at the end.  Windows travel as
    index bounds so a one-key window allocates nothing: a container
    per operation adds garbage-collector passes that cost the per-key
    loop several percent.  ``interval_ns == 0`` paces closed;
    otherwise open, one slot of ``interval_ns`` per operation, with
    latency charged from the window's scheduled slot
    (coordinated-omission rules apply to windows exactly as to single
    operations).
    """
    round_, lost, close = rounds
    latencies = stats.latencies_ns
    record = latencies.append
    clock = time.perf_counter_ns
    hits = misses = hit_ns = miss_ns = errors = 0
    barrier.wait()
    start = clock()
    try:
        for lo in range(0, num_keys, width):
            hi = lo + width
            if hi > num_keys:
                hi = num_keys
            if interval_ns:
                t0 = start + lo * interval_ns
                wait = t0 - clock()
                if wait > 0:
                    time.sleep(wait / 1e9)
            else:
                t0 = clock()
            try:
                missed, failed = round_(lo, hi)
            except lost:
                errors += hi - lo
                continue
            elapsed = clock() - t0
            errors += failed
            counted = hi - lo - failed
            if counted == 1:
                # A one-key window is charged exactly its own latency;
                # inlined because it is the per-key hot path.
                if missed:
                    misses += 1
                    miss_ns += elapsed
                else:
                    hits += 1
                    hit_ns += elapsed
                record(elapsed)
            elif counted:
                # Per-op costs are not separable inside a window: every
                # operation records the window latency, and the window
                # cost splits evenly for the hit/miss mean-cost counters.
                missed = min(missed, counted)
                per_op = elapsed // counted
                hits += counted - missed
                misses += missed
                hit_ns += per_op * (counted - missed)
                miss_ns += per_op * missed
                latencies.extend([elapsed] * counted)
    finally:
        if close is not None:
            close()
    stats.hits, stats.misses = hits, misses
    stats.hit_ns, stats.miss_ns = hit_ns, miss_ns
    stats.errors = errors


def _key_rounds(service, value: Any, keys: Sequence):
    """Per-key read-through round adapter (windows of one key)."""
    get = service.get
    set_ = service.set

    def round_(lo, hi):
        key = keys[lo]
        if get(key) is None:
            set_(key, value)
            return 1, 0
        return 0, 0

    return round_, WorkerCrashedError, None


def _many_rounds(service, value: Any, keys: Sequence):
    """Batched read-through: ``get_many``, then one ``set_many``."""
    get_many = service.get_many
    set_many = service.set_many

    def round_(lo, hi):
        window = keys[lo:hi]
        missed = [k for k, v in zip(window, get_many(window)) if v is None]
        if missed:
            set_many([(k, value) for k in missed])
        return len(missed), 0

    return round_, WorkerCrashedError, None


def _wire_rounds(frontend: str, host: str, port: int, value: bytes,
                 keys: Sequence[str], timeout: float = 30.0):
    """Pipelined read-through over one RESP or memcached connection.

    ``keys`` are already strings.  A lost window closes the
    connection; the next window reconnects first (inside its latency),
    so an injected ``conn-reset`` shows up as a blip, not a dead
    driver.
    """
    from repro.netsrv.client import McClient, McError, RespClient, RespError

    client_cls = RespClient if frontend == "resp" else McClient
    lost = (ConnectionError, OSError, McError)
    try:
        client = client_cls(host, port, timeout=timeout)
    except OSError:
        client = None

    def serve(window):
        if frontend == "resp":
            replies = client.pipeline([("GET", k) for k in window])
            missed = [k for k, r in zip(window, replies) if r is None]
            failed = sum(isinstance(r, RespError) for r in replies)
            if missed:
                stored = client.pipeline([("SET", k, value) for k in missed])
                failed += sum(isinstance(r, RespError) for r in stored)
            return len(missed), failed
        found = client.get_many(window)
        missed = [k for k in window if k not in found]
        if missed:
            client.set_many([(k, value) for k in missed])
        return len(missed), 0

    def round_(lo, hi):
        nonlocal client
        if client is None:
            client = client_cls(host, port, timeout=timeout)
        try:
            return serve(keys[lo:hi])
        except lost:
            client.close()
            client = None
            raise

    def close():
        if client is not None:
            client.close()

    return round_, lost, close


def counters_snapshot(service, t_s: float) -> Dict[str, Any]:
    """One point-in-time counters row (lock-free, benignly racy reads).

    Process-backed services keep their counters in the workers, so for
    them the snapshot is one ``stats()`` round-trip instead of a racy
    in-process read.
    """
    shards = getattr(service, "shards", None)
    if shards is None and not hasattr(service, "counters"):
        stats = service.stats()
        gets, hits, sets = stats["gets"], stats["hits"], stats["sets"]
        return {
            "t_s": round(t_s, 3),
            "gets": gets,
            "hits": hits,
            "sets": sets,
            "hit_ratio": round(hits / gets, 6) if gets else 0.0,
        }
    counters = (
        [s.counters for s in shards] if shards is not None
        else [service.counters]
    )
    gets = sum(c.gets for c in counters)
    hits = sum(c.hits for c in counters)
    sets = sum(c.sets for c in counters)
    return {
        "t_s": round(t_s, 3),
        "gets": gets,
        "hits": hits,
        "sets": sets,
        "hit_ratio": round(hits / gets, 6) if gets else 0.0,
    }


def _interval_monitor(service, stop: threading.Event, interval_s: float,
                      out: List[Dict[str, Any]]) -> None:
    """Append a counters snapshot every ``interval_s`` until stopped."""
    start = time.perf_counter()
    while not stop.wait(interval_s):
        try:
            out.append(
                counters_snapshot(service, time.perf_counter() - start)
            )
        except WorkerCrashedError:
            continue  # shard died between snapshots; keep monitoring


def _percentile(sorted_ns: Sequence[int], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample.

    The convention is the classic nearest-rank definition: the q-th
    percentile is the smallest sample value such that at least
    ``q * n`` samples are <= it, i.e. index ``ceil(q * n) - 1``
    (clamped to the sample).  No interpolation — the result is always
    an observed value.  Consequences the tests pin: any percentile of
    a 1-sample set is that sample; p50 of 2 samples is the *lower* one
    (1 of 2 samples is already >= 50%); and p99.9 of 1,000 samples is
    the 999th value (999 samples cover exactly 99.9%).  An earlier
    version rounded
    ``q * (n - 1)`` instead, which for example reported the p50 of 4
    samples as the 3rd value — a *75th* percentile under this
    definition.
    """
    n = len(sorted_ns)
    if not n:
        return 0.0
    rank = min(n - 1, max(0, math.ceil(q * n) - 1))
    return float(sorted_ns[rank])


def latency_summary_us(latencies_ns: Sequence[int]) -> Dict[str, float]:
    """p50/p90/p99/p99.9/mean/max of a latency sample, in microseconds."""
    data = sorted(latencies_ns)
    if not data:
        return {k: 0.0 for k in ("p50", "p90", "p99", "p999", "mean", "max")}
    return {
        "p50": round(_percentile(data, 0.50) / 1e3, 3),
        "p90": round(_percentile(data, 0.90) / 1e3, 3),
        "p99": round(_percentile(data, 0.99) / 1e3, 3),
        "p999": round(_percentile(data, 0.999) / 1e3, 3),
        "mean": round(sum(data) / len(data) / 1e3, 3),
        "max": round(data[-1] / 1e3, 3),
    }


def _row_transport(backend: str, transport: str) -> str:
    """What the row's ``transport`` field records (schema 3).

    Only the mp backend has a transport choice; thread rows say
    ``inproc`` and cluster rows pin ``pipe`` (its nodes speak pipes).
    """
    if backend == "mp":
        return transport
    return "pipe" if backend == "cluster" else "inproc"


def build_service(
    capacity: int,
    policy: str,
    num_shards: int,
    backend: str = "thread",
    *,
    transport: str = "pipe",
    start_method: Optional[str] = None,
    fault_plans=None,
    replication: int = 2,
    vnodes: int = 64,
    **kwargs: Any,
):
    """The one backend constructor behind ``serve`` and ``loadgen``.

    ``backend="thread"`` (``serve`` calls it ``inproc``) builds a plain
    :class:`CacheService` for one shard, else a
    :class:`ShardedCacheService`.  ``"mp"`` builds an
    :class:`~repro.service.mp.MPCacheService` with ``num_shards``
    worker processes over ``transport``; ``"cluster"`` builds a
    :class:`~repro.cluster.service.ClusterCacheService` with
    ``num_shards`` node processes, ``replication`` copies per key and
    ``vnodes`` ring points per node.  ``start_method`` and
    ``fault_plans`` apply to both process backends.  ``kwargs`` reach
    every shard's ``CacheService`` (picklable only for the process
    backends).
    """
    if backend not in ("thread", "inproc", "mp", "cluster"):
        raise ValueError(
            f"backend must be 'thread', 'mp', or 'cluster', got {backend!r}"
        )
    if transport != "pipe" and backend != "mp":
        raise ValueError(
            f"transport={transport!r} requires backend='mp' "
            f"(got backend={backend!r})"
        )
    if backend == "mp":
        from repro.service.mp import MPCacheService

        return MPCacheService(
            capacity, policy, num_workers=num_shards, transport=transport,
            start_method=start_method, fault_plans=fault_plans, **kwargs,
        )
    if backend == "cluster":
        from repro.cluster.service import ClusterCacheService

        return ClusterCacheService(
            capacity, policy, num_nodes=num_shards, replication=replication,
            vnodes=vnodes, start_method=start_method,
            fault_plans=fault_plans, **kwargs,
        )
    if num_shards == 1:
        return CacheService(capacity, policy, **kwargs)
    return ShardedCacheService(capacity, policy, num_shards=num_shards, **kwargs)


def run_scenario(
    trace: Sequence[int],
    capacity: int,
    policy: str = "s3fifo",
    num_shards: int = 1,
    num_threads: int = 1,
    mode: str = "closed",
    open_rate: float = 50_000.0,
    value: Any = "v",
    checked: bool = False,
    ttl: Optional[float] = None,
    metrics=None,
    tracer=None,
    instrument_policy: bool = False,
    snapshot_interval_s: Optional[float] = None,
    backend: str = "thread",
    batch_size: int = 1,
    transport: str = "pipe",
    start_method: Optional[str] = None,
    replication: int = 2,
    vnodes: int = 64,
    fault_plans=None,
    frontend: str = "inproc",
    connections: int = 1,
    pipeline_depth: int = 1,
) -> Dict[str, Any]:
    """Drive one (shards, threads) configuration; returns the report row.

    ``trace`` is split into ``num_threads`` contiguous slices so the
    aggregate workload is the same for every thread count.  ``open_rate``
    is the per-thread target in ops/sec (open mode only).  ``ttl``
    becomes the service's ``default_ttl`` (requires a removal-capable
    policy).  ``metrics`` / ``tracer`` / ``instrument_policy`` are
    forwarded to the service; pass a fresh registry per scenario if
    histograms must not accumulate across rows.
    ``snapshot_interval_s`` attaches a monitor thread appending
    periodic counters snapshots to the row's ``intervals`` list.

    ``backend="mp"`` runs the process-per-shard
    :class:`~repro.service.mp.MPCacheService` with ``num_shards``
    worker processes (torn down before the row returns);
    ``backend="cluster"`` runs the replicated
    :class:`~repro.cluster.service.ClusterCacheService` with
    ``num_shards`` node processes, ``replication`` copies per key, and
    ``vnodes`` ring points per node.  ``fault_plans`` injects
    deterministic worker crashes on either process backend;
    ``batch_size > 1`` switches any backend from the per-key to the
    batched round adapter (see the module docstring for the window
    latency and accounting conventions every adapter shares).

    ``transport`` selects the mp backend's parent<->worker channel
    (``"pipe"`` or ``"shm"``); the other backends have no transport
    choice, so their rows record it as ``"inproc"`` (thread) or
    ``"pipe"`` (cluster) and passing ``transport="shm"`` with them is
    an error.

    ``frontend="resp"`` / ``"memcached"`` (schema 4) drives the same
    backend through a real socket: a
    :class:`~repro.netsrv.server.CacheServer` is stood up on an
    ephemeral port and ``connections`` client threads replay the trace
    in closed-loop windows of ``pipeline_depth`` pipelined commands.
    The socket adapter is closed-loop only; ``num_threads``,
    ``batch_size``, ``mode="open"``, and the in-process hooks
    (``metrics``/``tracer``/``instrument_policy``) don't apply and
    must stay at their defaults.
    """
    # Every argument is checked before anything (processes, a server
    # thread) is acquired, so a rejected call leaks nothing.
    if mode not in ("closed", "open"):
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")
    if mode == "open" and open_rate <= 0:
        raise ValueError(f"open_rate must be positive, got {open_rate}")
    if num_threads < 1:
        raise ValueError(f"num_threads must be >= 1, got {num_threads}")
    if snapshot_interval_s is not None and snapshot_interval_s <= 0:
        raise ValueError(
            f"snapshot_interval_s must be positive, got {snapshot_interval_s}"
        )
    if frontend not in ("inproc", "resp", "memcached"):
        raise ValueError(
            f"frontend must be 'inproc', 'resp', or 'memcached', "
            f"got {frontend!r}"
        )
    if frontend != "inproc":
        if connections < 1:
            raise ValueError(
                f"connections must be >= 1, got {connections}"
            )
        if pipeline_depth < 1:
            raise ValueError(
                f"pipeline_depth must be >= 1, got {pipeline_depth}"
            )
        if mode != "closed":
            raise ValueError(
                "socket frontends are closed-loop only (mode='closed')"
            )
        if num_threads != 1 or batch_size != 1:
            raise ValueError(
                "socket frontends drive with connections/pipeline_depth; "
                "leave num_threads and batch_size at 1"
            )
        if metrics is not None or tracer is not None or instrument_policy:
            raise ValueError(
                "metrics/tracer/instrument_policy are in-process hooks; "
                "the network server wires its own repro_net_* metrics "
                "(see repro.netsrv.server)"
            )
    if backend not in ("thread", "mp", "cluster"):
        raise ValueError(
            f"backend must be 'thread', 'mp', or 'cluster', got {backend!r}"
        )
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if transport not in ("pipe", "shm"):
        raise ValueError(
            f"transport must be 'pipe' or 'shm', got {transport!r}"
        )
    if backend != "thread" and (
            metrics is not None or tracer is not None or instrument_policy):
        raise ValueError(
            "metrics/tracer/instrument_policy are in-process hooks and "
            "cannot cross process boundaries; the mp backend exposes "
            "MPCacheService.merge_metrics() instead"
        )
    wire = frontend != "inproc"
    drivers = connections if wire else num_threads
    per_thread = len(trace) // drivers
    slices = [
        trace[i * per_thread:(i + 1) * per_thread] for i in range(drivers)
    ]
    width = pipeline_depth if wire else batch_size
    interval_ns = max(1, int(1e9 / open_rate)) if mode == "open" else 0
    stats = [_WorkerStats() for _ in range(drivers)]
    barrier = threading.Barrier(drivers + 1)
    intervals: List[Dict[str, Any]] = []
    service = net_server = None
    try:
        hooks = (
            dict(metrics=metrics, tracer=tracer,
                 instrument_policy=instrument_policy)
            if backend == "thread" else {}
        )
        service = build_service(
            capacity, policy, num_shards, backend,
            transport=transport, start_method=start_method,
            fault_plans=fault_plans, replication=replication,
            vnodes=vnodes, checked=checked, default_ttl=ttl, **hooks,
        )
        if wire:
            from repro.netsrv.server import CacheServer

            net_server = CacheServer(
                service, max_connections=connections + 1,
                **{f"{frontend}_port": 0},
            ).start()
            port = getattr(net_server, f"{frontend}_port")
            wire_value = (value if isinstance(value, bytes)
                          else str(value).encode())
            rounds = [
                _wire_rounds(frontend, net_server.host, port,
                             wire_value, [str(k) for k in s])
                for s in slices
            ]
        else:
            adapter = _many_rounds if batch_size > 1 else _key_rounds
            rounds = [adapter(service, value, s) for s in slices]
        workers = [
            threading.Thread(
                target=_drive,
                args=(r, per_thread, width, interval_ns, st, barrier),
                name=f"loadgen-{i}", daemon=True,
            )
            for i, (r, st) in enumerate(zip(rounds, stats))
        ]
        monitor = stop_monitor = None
        if snapshot_interval_s is not None:
            stop_monitor = threading.Event()
            monitor = threading.Thread(
                target=_interval_monitor,
                args=(service, stop_monitor, snapshot_interval_s, intervals),
                name="loadgen-monitor", daemon=True,
            )
        for w in workers:
            w.start()
        if monitor is not None:
            monitor.start()
        barrier.wait()
        t0 = time.perf_counter()
        for w in workers:
            w.join()
        wall = time.perf_counter() - t0
        if monitor is not None:
            stop_monitor.set()
            monitor.join()
            try:
                intervals.append(counters_snapshot(service, wall))
            except WorkerCrashedError:
                pass  # the run itself already counted the errors
        # A crashed mp worker makes the final bookkeeping round-trips
        # raise too; report what survives instead of losing the row.
        try:
            if hasattr(service, "ops_per_shard"):
                shard_ops = service.ops_per_shard()
                imbalance = (
                    round(imbalance_factor(shard_ops), 4)
                    if num_shards > 1 else 1.0
                )
            else:
                shard_ops = [service.counters.gets + service.counters.sets]
                imbalance = 1.0
            service_stats = service.stats()
        except WorkerCrashedError:
            shard_ops = []
            imbalance = 1.0
            service_stats = {"evictions": None, "expired": None,
                             "objects": None}
    finally:
        if net_server is not None:
            net_server.stop()
        if service is not None and backend != "thread":
            service.close()
    merged = array("q")
    hits = misses = hit_ns = miss_ns = errors = 0
    for st in stats:
        merged.extend(st.latencies_ns)
        hits += st.hits
        misses += st.misses
        hit_ns += st.hit_ns
        miss_ns += st.miss_ns
        errors += st.errors
    ops = len(merged)
    row = {
        "shards": num_shards,
        "threads": drivers,
        "backend": backend,
        "workers": num_shards if backend in ("mp", "cluster") else 0,
        "batch_size": batch_size,
        "transport": _row_transport(backend, transport),
        "frontend": frontend,
        "connections": connections if frontend != "inproc" else 0,
        "pipeline_depth": pipeline_depth if frontend != "inproc" else 0,
        "mode": mode,
        "policy": policy,
        "ops": ops,
        "wall_time_s": round(wall, 6),
        "ops_per_sec": round(ops / wall) if wall else 0,
        "hit_ratio": round(hits / ops, 6) if ops else 0.0,
        "hits": hits,
        "misses": misses,
        "errors": errors,
        "error_rate": round(errors / (ops + errors), 6) if errors else 0.0,
        "latency_us": latency_summary_us(merged),
        "hit_ns_mean": round(hit_ns / hits) if hits else 0,
        "miss_ns_mean": round(miss_ns / misses) if misses else 0,
        "shard_ops": shard_ops,
        "imbalance": imbalance,
        "evictions": service_stats["evictions"],
        "expired": service_stats["expired"],
        "objects": service_stats["objects"],
        **({"intervals": intervals} if snapshot_interval_s is not None else {}),
    }
    if backend == "cluster":
        row["replication"] = replication
        row["vnodes"] = vnodes
        for field in ("nodes_up", "failovers", "read_repairs",
                      "degraded_ops"):
            row[field] = service_stats.get(field)
    return row


def run_loadgen(
    shard_counts: Sequence[int] = (1, 4),
    thread_counts: Sequence[int] = (1, 4),
    num_objects: int = 10_000,
    num_requests: int = 100_000,
    alpha: float = 1.0,
    cache_ratio: float = 0.1,
    seed: int = 42,
    policy: str = "s3fifo",
    mode: str = "closed",
    open_rate: float = 50_000.0,
    checked: bool = False,
    ttl: Optional[float] = None,
    metrics=None,
    tracer=None,
    instrument_policy: bool = False,
    snapshot_interval_s: Optional[float] = None,
    backend: str = "thread",
    batch_size: int = 1,
    transport: str = "pipe",
    start_method: Optional[str] = None,
    replication: int = 2,
    vnodes: int = 64,
) -> Dict[str, Any]:
    """The full scenario matrix (shards x threads); returns the report.

    The default workload mirrors the perf benchmark's shape (Zipf(1.0),
    10% cache) at load-generator scale.  Every scenario replays the
    *same* seeded trace, so hit ratios are comparable across rows and
    the single-shard rows are directly comparable to the offline
    simulator on the same trace.

    With ``backend="mp"`` the ``shard_counts`` axis becomes the
    worker-process count; to compare backends in one document, run
    this once per backend and join with :func:`combine_reports`.
    """
    return _sweep_report(
        [dict(num_shards=shards, num_threads=threads)
         for shards in shard_counts for threads in thread_counts],
        dict(mode=mode, open_rate=open_rate if mode == "open" else None,
             batch_size=batch_size, frontend="inproc", connections=0,
             pipeline_depth=0),
        num_objects=num_objects,
        num_requests=num_requests,
        alpha=alpha,
        cache_ratio=cache_ratio,
        seed=seed,
        policy=policy,
        mode=mode,
        open_rate=open_rate,
        checked=checked,
        ttl=ttl,
        metrics=metrics,
        tracer=tracer,
        instrument_policy=instrument_policy,
        snapshot_interval_s=snapshot_interval_s,
        backend=backend,
        batch_size=batch_size,
        transport=transport,
        start_method=start_method,
        replication=replication,
        vnodes=vnodes,
    )


def run_net_loadgen(
    frontends: Sequence[str] = ("resp",),
    connection_counts: Sequence[int] = (1, 4),
    pipeline_depths: Sequence[int] = (1, 16),
    num_shards: int = 1,
    num_objects: int = 10_000,
    num_requests: int = 100_000,
    alpha: float = 1.0,
    cache_ratio: float = 0.1,
    seed: int = 42,
    policy: str = "s3fifo",
    checked: bool = False,
    ttl: Optional[float] = None,
    backend: str = "thread",
    transport: str = "pipe",
    start_method: Optional[str] = None,
    replication: int = 2,
    vnodes: int = 64,
) -> Dict[str, Any]:
    """The socket-mode scenario matrix (frontends x connections x
    pipeline depths) over one backend configuration; returns the report.

    The workload is the same seeded Zipf trace as :func:`run_loadgen`,
    so socket rows are directly comparable to in-process rows on the
    same axes — the gap *is* the protocol + socket cost, which is the
    number the ``net_frontier`` experiment reports.  Join with
    in-process reports via :func:`combine_reports`.
    """
    return _sweep_report(
        [dict(frontend=frontend, connections=conns, pipeline_depth=depth)
         for frontend in frontends for conns in connection_counts
         for depth in pipeline_depths],
        dict(mode="closed", open_rate=None, batch_size=1,
             frontend=list(frontends), connections=list(connection_counts),
             pipeline_depth=list(pipeline_depths)),
        num_objects=num_objects,
        num_requests=num_requests,
        alpha=alpha,
        cache_ratio=cache_ratio,
        seed=seed,
        policy=policy,
        num_shards=num_shards,
        checked=checked,
        ttl=ttl,
        backend=backend,
        transport=transport,
        start_method=start_method,
        replication=replication,
        vnodes=vnodes,
    )


def _sweep_report(
    axes: Sequence[Dict[str, Any]],
    axes_config: Dict[str, Any],
    num_objects: int,
    num_requests: int,
    alpha: float,
    cache_ratio: float,
    seed: int,
    **common: Any,
) -> Dict[str, Any]:
    """Replay one seeded Zipf trace once per ``axes`` entry (each
    merged over the ``common`` :func:`run_scenario` arguments) and wrap
    the rows in a report; ``axes_config`` records the driving axes."""
    from repro.perf.bench import env_block
    from repro.traces.synthetic import zipf_trace

    trace = zipf_trace(
        num_objects=num_objects,
        num_requests=num_requests,
        alpha=alpha,
        seed=seed,
    )
    capacity = max(1, int(num_objects * cache_ratio))
    scenarios = [
        run_scenario(trace, capacity=capacity, **common, **axis)
        for axis in axes
    ]
    backend = common["backend"]
    return {
        "schema": SCHEMA_VERSION,
        "kind": REPORT_KIND,
        "env": env_block(),
        "config": {
            "num_objects": num_objects,
            "num_requests": num_requests,
            "alpha": alpha,
            "cache_ratio": cache_ratio,
            "capacity": capacity,
            "seed": seed,
            "policy": common["policy"],
            "checked": common["checked"],
            "ttl": common["ttl"],
            "backend": backend,
            "transport": _row_transport(backend, common["transport"]),
            **axes_config,
            **({"replication": common["replication"],
                "vnodes": common["vnodes"]}
               if backend == "cluster" else {}),
        },
        "scenarios": scenarios,
    }


def combine_reports(
    reports: Sequence[Dict[str, Any]],
    sources: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Join several :func:`run_loadgen` reports into one document.

    Used by the CLI's comma-separated ``--backend thread,mp`` form:
    each backend runs as its own report (its own service lifecycle)
    and the combined document carries every scenario row — rows are
    self-describing since schema 2 (``backend``/``workers``/
    ``batch_size``), so consumers filter rows, not documents.  The
    combined config is the first report's, with ``backend`` replaced
    by the list of contributing backends.

    ``sources`` optionally names each report (file paths, when the
    caller loaded them from disk) so validation errors say *which*
    document is the odd one out instead of making the caller bisect.
    """
    if not reports:
        raise ValueError("combine_reports needs at least one report")
    if sources is not None and len(sources) != len(reports):
        raise ValueError(
            f"sources must name every report: got {len(sources)} "
            f"names for {len(reports)} reports"
        )
    labels = (list(sources) if sources is not None
              else [f"reports[{i}]" for i in range(len(reports))])
    for label, report in zip(labels, reports):
        if report.get("kind") != REPORT_KIND:
            raise ValueError(
                f"{label} is not a loadgen report "
                f"(kind={report.get('kind')!r})"
            )
    schemas = sorted({report.get("schema") for report in reports},
                     key=repr)
    if len(schemas) > 1:
        # Mixing schemas would silently concatenate rows whose fields
        # mean different things (e.g. pre-frontend rows); refuse and
        # name each (source, schema) pair so the caller knows exactly
        # which document to re-run.
        offenders = ", ".join(
            f"{label} (schema {report.get('schema')!r})"
            for label, report in zip(labels, reports)
        )
        raise ValueError(
            f"cannot combine loadgen reports with mixed schemas: "
            f"{offenders}; regenerate the older report(s) at schema "
            f"{SCHEMA_VERSION}"
        )
    if schemas[0] != SCHEMA_VERSION:
        raise ValueError(
            f"loadgen report schema {schemas[0]!r} != {SCHEMA_VERSION}"
        )
    from repro.perf.bench import env_block

    config = dict(reports[0]["config"])
    config["backend"] = [r["config"]["backend"] for r in reports]
    config["transport"] = [r["config"]["transport"] for r in reports]
    config["frontend"] = [r["config"]["frontend"] for r in reports]
    return {
        "schema": SCHEMA_VERSION,
        "kind": REPORT_KIND,
        # First report's env when present (all contributors ran on the
        # same host in practice); freshly sampled otherwise.
        "env": reports[0].get("env") or env_block(),
        "config": config,
        "scenarios": [row for r in reports for row in r["scenarios"]],
    }


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable table for the CLI."""
    cfg = report["config"]
    lines = [
        f"loadgen {cfg['policy']} zipf-{cfg['alpha']:g} "
        f"({cfg['mode']} loop): {cfg['num_requests']:,} requests, "
        f"{cfg['num_objects']:,} objects, capacity {cfg['capacity']:,}",
        f"{'backend':>7} {'tport':>6} {'front':>9} {'shards':>6} "
        f"{'threads':>7} {'batch':>5} {'pdepth':>6} {'ops/s':>10} "
        f"{'hit':>7} {'err':>7} "
        f"{'p50us':>8} {'p99us':>8} {'p999us':>8} {'imbal':>6}",
    ]
    for row in report["scenarios"]:
        lat = row["latency_us"]
        lines.append(
            f"{row['backend']:>7} "
            f"{row['transport']:>6} "
            f"{row['frontend']:>9} "
            f"{row['shards']:>6} {row['threads']:>7} "
            f"{row['batch_size']:>5} "
            f"{row['pipeline_depth']:>6} "
            f"{row['ops_per_sec']:>10,} {row['hit_ratio']:>7.4f} "
            f"{row['error_rate']:>7.4f} "
            f"{lat['p50']:>8.1f} {lat['p99']:>8.1f} {lat['p999']:>8.1f} "
            f"{row['imbalance']:>6.2f}"
        )
    return "\n".join(lines)


def find_scenario(
    report: Dict[str, Any],
    shards: int,
    threads: int,
    backend: Optional[str] = None,
    batch_size: Optional[int] = None,
    transport: Optional[str] = None,
    frontend: Optional[str] = None,
    connections: Optional[int] = None,
    pipeline_depth: Optional[int] = None,
) -> Optional[Dict[str, Any]]:
    """The first scenario row matching the given axes, if any.

    ``backend`` / ``batch_size`` / ``transport`` / ``frontend`` /
    ``connections`` / ``pipeline_depth`` of ``None`` match any row.
    """
    wanted = {
        field: value for field, value in (
            ("backend", backend),
            ("batch_size", batch_size),
            ("transport", transport),
            ("frontend", frontend),
            ("connections", connections),
            ("pipeline_depth", pipeline_depth),
        ) if value is not None
    }
    for row in report["scenarios"]:
        if (row["shards"] == shards and row["threads"] == threads
                and all(row[f] == v for f, v in wanted.items())):
            return row
    return None
