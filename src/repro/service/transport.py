"""Pluggable parent<->worker transports for the process backends.

:class:`~repro.service.pool.WorkerPool` — the parent side of
:class:`~repro.service.mp.MPCacheService` and
:class:`~repro.cluster.service.ClusterCacheService` — talks to each
worker through exactly one duplex channel in strict request/response
ping-pong (one outstanding message per worker, guarded by a
parent-side lock).  This module abstracts *how* those messages move so
the worker loop, crash watchdog, and teardown in ``pool.py`` stay
transport-agnostic.  The mp backend chooses a transport; cluster nodes
always use the pipe.

* ``pipe`` — :class:`PipeTransport`, the PR 5 default: a duplex
  ``multiprocessing.Pipe`` carrying pickled ``(tag, payload)`` tuples.
  Liveness is free (pipe EOF when either side dies).
* ``shm`` — :class:`~repro.service.shm.ShmTransport`: fixed-slot
  request/response ring buffers plus a byte arena in one
  ``multiprocessing.shared_memory`` segment per worker, with
  struct-packed message encoding and pickle only as the escape hatch.
  There is no EOF in shared memory, so liveness is a heartbeat word +
  ``Process.is_alive()`` polling inside every blocking wait.

Both sides speak the same object protocol as the original pipes:
the parent sends op tuples like ``("get_many", keys, default)`` and
receives ``("ok", payload)`` / ``("err", exc)`` tuples, so every
transport is interchangeable under the differential stats parity
tests.

A transport failure (peer gone, segment torn down) surfaces as
:class:`TransportClosedError`, an :class:`OSError` subclass — the
``except (EOFError, OSError)`` crash paths in ``pool.py`` (parent
exchange and worker loop alike) handle it without knowing which
transport raised.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

TRANSPORTS: Tuple[str, ...] = ("pipe", "shm")


class TransportClosedError(OSError):
    """The peer died or the channel was shut down mid-wait.

    Subclasses :class:`OSError` deliberately: the pool's exchange
    marks a worker down on any ``OSError``, and the worker loop treats
    it like pipe EOF (exit quietly).
    """


class Transport:
    """Parent-side channel to one worker process.

    Lifecycle::

        t = create_transport("shm", ctx)
        proc = ctx.Process(target=_worker_main,
                           args=(t.worker_endpoint(), ...))
        proc.start()
        t.after_start(proc)     # release child-only resources, wire
                                # liveness to the Process handle
        t.send(msg); reply = t.recv()   # strict ping-pong
        t.signal_close()        # non-blocking shutdown nudge
        t.close()               # release parent resources

    ``worker_endpoint()`` returns the object handed to the worker
    process; it must survive both ``fork`` (plain memcopy, no pickling)
    and ``spawn`` (pickled), and must expose ``recv()``, ``send(obj)``
    and ``close()`` — a raw ``Connection`` already does.
    """

    name = "abstract"

    def worker_endpoint(self) -> Any:
        raise NotImplementedError

    def after_start(self, process: Any) -> None:
        """Called once the worker process has started."""

    def send(self, msg: Any) -> None:
        raise NotImplementedError

    def recv(self) -> Any:
        raise NotImplementedError

    def request_close(self) -> None:
        """Best-effort polite shutdown: deliver a ``("close",)`` op.

        Must not block indefinitely — teardown calls this under a
        bounded lock acquire and falls back to ``signal_close`` +
        process termination.
        """
        try:
            self.send(("close",))
        except (OSError, ValueError):
            pass  # worker already dead or channel gone

    def signal_close(self) -> None:
        """Best-effort, non-blocking shutdown signal to the worker.

        Used by teardown when the channel lock cannot be acquired (a
        wedged exchange holds it); must never block.
        """

    def close(self) -> None:
        raise NotImplementedError


class PipeTransport(Transport):
    """The classic duplex-pipe transport (default and fallback)."""

    name = "pipe"

    def __init__(self, ctx) -> None:
        self._parent, self._child = ctx.Pipe(duplex=True)

    def worker_endpoint(self) -> Any:
        return self._child

    def after_start(self, process: Any) -> None:
        # The worker holds the only child end from here on; closing
        # ours re-arms the EOF sentinel (worker exits when we die).
        self._child.close()

    def send(self, msg: Any) -> None:
        self._parent.send(msg)

    def recv(self) -> Any:
        return self._parent.recv()

    def signal_close(self) -> None:
        # Closing the parent end delivers EOF to a worker blocked in
        # recv(); Connection.close never blocks.
        try:
            self._parent.close()
        except OSError:
            pass

    def close(self) -> None:
        try:
            self._parent.close()
        except OSError:
            pass


def create_transport(
    name: str,
    ctx,
    options: Optional[Dict[str, Any]] = None,
) -> Transport:
    """Build a parent-side transport by name (``pipe`` or ``shm``)."""
    if name == "pipe":
        return PipeTransport(ctx)
    if name == "shm":
        from repro.service.shm import ShmTransport

        return ShmTransport(ctx, **(options or {}))
    raise ValueError(
        f"unknown mp transport {name!r}; expected one of {TRANSPORTS}"
    )
