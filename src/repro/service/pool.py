"""The parent side of every process backend: one pool of cache workers.

:class:`~repro.service.mp.MPCacheService` (one worker process per
shard) and :class:`~repro.cluster.service.ClusterCacheService` (one
node process per ring member) differ only in where a key goes and in
what a dead worker means — mp raises :class:`WorkerCrashedError`, the
cluster fails over to a replica.  Everything between the parent and a
worker process is written once, in :class:`WorkerPool`:

* **Spawn and handshake.**  :meth:`WorkerPool.spawn` builds a
  :class:`~repro.service.transport.Transport`, starts a daemon process
  running :func:`_worker_main` (the only worker body), and waits for
  its startup handshake, which doubles as constructor-error
  propagation.
* **Exchange.**  :meth:`WorkerPool.exchange` takes the involved
  workers' channel locks in id order (no lock-order inversion against
  concurrent callers), sends every message before awaiting any reply
  (so the workers run concurrently), and drains the survivors when a
  worker dies mid-exchange so their channels stay in lockstep.  It
  returns the replies, the crashed ids, and the first remote error;
  the backend decides what each means.
* **Down tracking.**  A worker is recorded as down, with its pid and
  exit code, the first time a send or receive sees it gone.  Later
  exchanges skip it without touching its channel — over shared memory
  a send into a dead ring would otherwise wait out a liveness poll.
* **Teardown.**  :meth:`WorkerPool.shutdown` (one worker) and
  :meth:`WorkerPool.close` (all of them) ask each worker out under a
  *bounded* lock acquire — a thread stuck on a wedged worker holds
  that lock, and teardown must not inherit the wedge — then join to a
  deadline, terminate, kill, and only then release the channels and
  Process handles.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.service.transport import Transport, create_transport

__all__ = ["ServiceClosedError", "WorkerCrashedError", "WorkerPool"]


class WorkerCrashedError(RuntimeError):
    """A shard worker process died while (or before) serving an operation."""

    def __init__(self, worker_id: int, pid: Optional[int],
                 exitcode: Optional[int]) -> None:
        self.worker_id = worker_id
        self.pid = pid
        self.exitcode = exitcode
        super().__init__(
            f"mp cache worker {worker_id} (pid {pid}) died "
            f"(exitcode {exitcode}); the shard's contents are lost — "
            f"close() the service or rebuild it"
        )


class ServiceClosedError(RuntimeError):
    """Operation attempted on a closed process backend."""


def _default_start_method() -> str:
    """``fork`` where available (fast), else ``spawn`` (macOS/Windows)."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _worker_main(
    conn,
    worker_id: int,
    capacity: int,
    policy: str,
    service_kwargs: Dict[str, Any],
    collect_metrics: bool,
    fault_plan,
    transport: str = "pipe",
) -> None:
    """Worker process body: host one CacheService, serve the channel.

    ``conn`` is whatever the parent's transport handed out — a pipe
    ``Connection`` or a :class:`~repro.service.shm.ShmWorkerChannel`;
    both expose ``recv``/``send``/``close`` and both raise
    ``EOFError``/``OSError`` when the parent is gone (pipe EOF, or the
    shm liveness poll), so the loop exits either way and the worker
    never outlives its parent.
    """
    from repro.service.core import CacheService

    registry = None
    try:
        if collect_metrics:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
        service = CacheService(
            capacity,
            policy,
            metrics=registry,
            metrics_labels=(
                {"worker": str(worker_id), "transport": transport}
                if registry is not None else None
            ),
            shard_id=worker_id,
            **service_kwargs,
        )
    except BaseException as exc:  # constructor failed: report, don't hang
        _send_error(conn, exc)
        return
    # Startup handshake: the parent blocks on this before serving ops.
    conn.send(("ok", {
        "policy_name": service.policy_name,
        "supports_removal": service.supports_removal,
        "capacity": capacity,
        "pid": os.getpid(),
    }))
    clock = 0  # logical operation clock for deterministic fault windows
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break  # parent died or closed the channel: exit now
        op = msg[0]
        if op == "close":
            break
        clock += 1
        if fault_plan is not None and fault_plan.active("worker-crash", clock):
            # Simulate a hard crash: no reply, no cleanup, nonzero exit.
            os._exit(13)
        try:
            if op == "get_many":
                result = service.get_many(msg[1], msg[2])
            elif op == "set_many":
                has_ttl, ttl, size, items = msg[1], msg[2], msg[3], msg[4]
                if has_ttl:
                    result = service.set_many(items, ttl=ttl, size=size)
                else:
                    result = service.set_many(items, size=size)
            elif op == "delete_many":
                result = service.delete_many(msg[1])
            elif op == "contains":
                result = msg[1] in service
            elif op == "len":
                result = len(service)
            elif op == "sweep":
                result = service.sweep(msg[1])
            elif op == "stats":
                result = service.stats()
            elif op == "export":
                # Cluster rebalancing: ship (key, value, ttl, size)
                # snapshots; remaining-TTL form survives the clock
                # change between processes.
                result = service.export_entries()
            elif op == "import":
                result = service.import_entries(msg[1])
            elif op == "check":
                service.check()
                result = None
            elif op == "metrics":
                if registry is None:
                    result = None
                else:
                    from repro.obs.exporters import export_dict

                    result = export_dict(registry)
            else:
                raise ValueError(f"unknown mp cache op {op!r}")
        except BaseException as exc:
            _send_error(conn, exc)
        else:
            try:
                conn.send(("ok", result))
            except (OSError, BrokenPipeError):
                break
    try:
        conn.close()
    except OSError:
        pass


def _send_error(conn, exc: BaseException) -> None:
    """Ship an exception to the parent; degrade to repr if unpicklable."""
    try:
        conn.send(("err", exc))
    except Exception:
        try:
            conn.send(("err", RuntimeError(
                f"{type(exc).__name__}: {exc} (original not picklable)"
            )))
        except (OSError, BrokenPipeError):
            pass


class WorkerPool:
    """Cache worker processes keyed by worker id, plus their channels.

    ``label`` names the owning backend in :class:`ServiceClosedError`
    messages and ``process_name`` prefixes each worker's process name.
    ``policy``, ``service_kwargs`` (picklable only), ``transport``,
    ``transport_options`` and ``collect_metrics`` configure every
    worker the pool spawns; ``start_method`` picks the multiprocessing
    context (default ``fork`` where available).

    Thread safety: each worker channel is guarded by a lock held for
    the full request/response exchange.
    """

    def __init__(
        self,
        policy: str,
        service_kwargs: Dict[str, Any],
        *,
        label: str,
        process_name: str,
        transport: str = "pipe",
        transport_options: Optional[Dict[str, Any]] = None,
        start_method: Optional[str] = None,
        collect_metrics: bool = False,
    ) -> None:
        self.transport = transport
        self.closed = False
        self.handshakes: Dict[int, Dict[str, Any]] = {}
        self._policy = policy
        self._service_kwargs = dict(service_kwargs)
        self._label = label
        self._process_name = process_name
        self._transport_options = transport_options
        self._collect_metrics = collect_metrics
        self._ctx = multiprocessing.get_context(
            start_method or _default_start_method()
        )
        self._channels: Dict[int, Transport] = {}
        self._procs: Dict[int, Any] = {}
        self._locks: Dict[int, threading.Lock] = {}
        self._down: Dict[int, Tuple[Optional[int], Optional[int]]] = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def worker_ids(self) -> List[int]:
        """Every spawned worker's id, sorted (live or down)."""
        return sorted(self._procs)

    def alive(self, worker_id: int) -> bool:
        """True while the worker is spawned, not seen down, and the pool
        is open."""
        return (not self.closed and worker_id in self._procs
                and worker_id not in self._down)

    def ensure_open(self) -> None:
        if self.closed:
            raise ServiceClosedError(
                f"{self._label} is closed; build a new one"
            )

    def spawn(self, worker_id: int, capacity: int,
              fault_plan: Any = None) -> Dict[str, Any]:
        """Start worker ``worker_id`` and return its handshake.

        An existing worker of the same id is shut down first (a
        restart).  A worker whose service constructor fails, or that
        dies before its handshake, is torn down and the error raised.
        """
        self.ensure_open()
        if worker_id in self._procs:
            self.shutdown(worker_id)
        chan = create_transport(self.transport, self._ctx,
                                self._transport_options)
        try:
            proc = self._ctx.Process(
                target=_worker_main,
                args=(
                    chan.worker_endpoint(), worker_id, capacity,
                    self._policy, dict(self._service_kwargs),
                    self._collect_metrics, fault_plan, self.transport,
                ),
                name=f"{self._process_name}-{worker_id}",
                daemon=True,
            )
            proc.start()
        except BaseException:
            chan.close()  # never orphan a shm segment
            raise
        chan.after_start(proc)
        self._channels[worker_id] = chan
        self._procs[worker_id] = proc
        self._locks[worker_id] = threading.Lock()
        try:
            try:
                tag, payload = chan.recv()
            except (EOFError, OSError) as exc:
                self._mark_down(worker_id)
                raise self.crash_error(worker_id) from exc
            if tag == "err":
                raise payload
        except BaseException:
            self.shutdown(worker_id, timeout=1.0)
            raise
        self.handshakes[worker_id] = payload
        return payload

    # ------------------------------------------------------------------
    # Crash tracking
    # ------------------------------------------------------------------
    def _mark_down(self, worker_id: int) -> None:
        """Record a worker's death (pid, exit code) the first time it
        is seen."""
        if worker_id in self._down:
            return
        pid = self.handshakes.get(worker_id, {}).get("pid")
        exitcode = None
        try:
            proc = self._procs[worker_id]
            proc.join(timeout=1.0)
            pid, exitcode = proc.pid, proc.exitcode
        except (KeyError, ValueError):
            pass  # handle already released by a concurrent teardown
        self._down[worker_id] = (pid, exitcode)

    def crash_error(self, worker_id: int) -> WorkerCrashedError:
        """A fresh :class:`WorkerCrashedError` for a down worker."""
        pid, exitcode = self._down[worker_id]
        return WorkerCrashedError(worker_id, pid, exitcode)

    # ------------------------------------------------------------------
    # Exchange
    # ------------------------------------------------------------------
    def exchange(
        self, msgs: Dict[int, tuple]
    ) -> Tuple[Dict[int, Any], List[int], Optional[BaseException]]:
        """One message per worker; ``(replies, crashed_ids, remote_error)``.

        Ids the pool does not know are ignored.  A worker already down
        is not sent to and lands in ``crashed_ids`` with the ones that
        die mid-exchange (send-phase deaths first, each phase in id
        order).  ``remote_error`` is the first exception a worker
        shipped back; the replies of the workers that answered are
        returned either way.
        """
        self.ensure_open()
        ids = sorted(w for w in msgs if w in self._procs)
        locks = [self._locks[w] for w in ids]
        for lock in locks:
            lock.acquire()
        try:
            replies: Dict[int, Any] = {}
            crashed: List[int] = []
            remote: Optional[BaseException] = None
            sent: List[int] = []
            for w in ids:
                if w in self._down:
                    crashed.append(w)
                    continue
                try:
                    self._channels[w].send(msgs[w])
                except (OSError, ValueError):
                    self._mark_down(w)
                    crashed.append(w)
                    continue
                sent.append(w)
            for w in sent:
                try:
                    tag, payload = self._channels[w].recv()
                except (EOFError, OSError):
                    self._mark_down(w)
                    crashed.append(w)
                    continue
                if tag == "err":
                    remote = remote or payload
                else:
                    replies[w] = payload
            return replies, crashed, remote
        finally:
            for lock in reversed(locks):
                lock.release()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def shutdown(self, worker_id: int, timeout: float = 2.0) -> None:
        """Stop one worker for good and forget it."""
        self._stop([worker_id], timeout)
        for table in (self._channels, self._procs, self._locks,
                      self._down, self.handshakes):
            table.pop(worker_id, None)

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker; idempotent, safe after crashes.

        The workers stay registered: a thread still inside an exchange
        with a wedged worker must keep finding its (now closed)
        channel, and leaves through the crash path.
        """
        if self.closed:
            return
        self.closed = True
        self._stop(self.worker_ids, timeout)

    def _stop(self, ids: List[int], timeout: float) -> None:
        deadline = time.monotonic() + timeout
        # Phase 1: ask every worker out.  The channel lock may be held
        # by a thread blocked on a worker that will never reply — use
        # a bounded acquire and fall back to the transport's
        # non-blocking close signal rather than deadlocking here.
        for w in ids:
            chan, lock = self._channels[w], self._locks[w]
            if lock.acquire(timeout=0.1):
                try:
                    chan.request_close()
                    chan.signal_close()
                finally:
                    lock.release()
            else:
                chan.signal_close()
        # Phase 2: join politely, then escalate.  terminate() (SIGTERM)
        # also breaks any parent thread blocked on that worker's
        # channel: the pipe delivers EOF, the shm wait notices the
        # death on its next liveness poll.
        procs = [self._procs[w] for w in ids]
        for proc in procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for escalate in ("terminate", "kill"):
            for proc in procs:
                if proc.is_alive():
                    getattr(proc, escalate)()
                    proc.join(timeout=1.0)
        # Phase 3: release channel resources (for shm this unlinks the
        # segment) and the Process handles' pipe/sentinel resources
        # now rather than at GC time.
        for w in ids:
            try:
                self._channels[w].close()
            except OSError:
                pass
        for proc in procs:
            try:
                proc.close()
            except ValueError:
                pass  # still alive after kill: give up quietly
