"""Asyncio TCP front-end: RESP2 + memcached text over any backend.

This is the step from "library" to "service": stock clients
(``redis-cli``, ``redis-py``, ``pymemcache``, or a bare socket) talk
to any registered cache backend — :class:`~repro.service.core.
CacheService`, :class:`~repro.service.sharded.ShardedCacheService`,
:class:`~repro.service.mp.MPCacheService` over either transport, or
the :class:`~repro.cluster.service.ClusterCacheService` tier — through
one :class:`CacheServer`.

Architecture
------------

One asyncio event loop owns every socket: it **parses** (the
incremental parsers in :mod:`repro.netsrv.resp` /
:mod:`repro.netsrv.memcached` never block on value bytes) and the
backend **evicts** — for the mp backend that is exactly the
"event loop parses, workers evict" split the ROADMAP calls for: the
loop's only blocking work is the IPC round-trip, and the eviction,
hashing, and TTL bookkeeping burn other cores.

Each connection is one :class:`asyncio.Protocol`: ``data_received``
feeds the delivered chunk to the parser, executes every complete
command in it, and answers them in one ``transport.write`` — a request
costs one loop callback and creates no task.  Consecutive single-key
RESP ``GET`` commands in a pipeline are *fused* into one
``service.get_many`` call (one round-trip per involved mp worker;
reply order is preserved).  While the write buffer is over its
high-water mark (the client is not reading) the connection stops
reading, so a pipelining client cannot grow the server's buffers.

Both protocols interoperate on one store: a value is the pair
``(flags, data)`` so a memcached ``set`` with flags survives a RESP
``GET`` (which returns just the data) and vice versa (RESP ``SET``
stores flags 0).

Lifecycle
---------

``await start()`` binds the listeners (``port=0`` picks an ephemeral
port; the bound port is readable afterwards).  Lifecycle lives on the
server side: the accept limit is checked as a connection is made, and
one server-wide timer closes connections idle past ``idle_timeout``.
``await drain(timeout)`` is the graceful path: stop accepting, close
every connection ``drain_grace`` seconds later — answering everything
it receives until then — and abort those still open at the deadline.
No accepted in-flight command is ever dropped by a drain; the
conformance tests pin this under load.  The backend is **not** owned
by the server: callers close it after the drain.

For synchronous callers (tests, the load generator), :class:`
ServerThread` runs the whole lifecycle on a daemon thread:
``start()`` blocks until the ports are bound — re-raising bind
failures in the caller — and ``stop()`` drains and joins.

Faults and observability
------------------------

A :class:`~repro.resilience.faults.FaultPlan` injects network faults
on the server-wide accepted-command clock:
:data:`~repro.resilience.faults.CONN_RESET` aborts the connection
serving the covered command (RST, no reply);
:data:`~repro.resilience.faults.SLOW_CLIENT` stalls ``magnitude``
seconds before that command's reply is written.  Both are
deterministic given the same connection/command arrival order.

With a :class:`~repro.obs.metrics.MetricsRegistry` the server
publishes the ``repro_net_*`` families (per-protocol connection
gauges and accept/reject/error counters, per-command counters and
latency histograms) documented in ``docs/OBSERVABILITY.md``; with no
registry the hot path records nothing.
"""

from __future__ import annotations

import asyncio
import threading
import time
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.netsrv.memcached import (
    RELATIVE_EXPTIME_CEILING,
    McParser,
    McProtocolError,
)
from repro.netsrv.resp import (
    NIL,
    RespParser,
    RespProtocolError,
    encode_array,
    encode_bulk,
    encode_error,
    encode_integer,
    encode_simple,
)
from repro.resilience.faults import CONN_RESET, SLOW_CLIENT
from repro.service.core import RemovalUnsupportedError
from repro.service.mp import WorkerCrashedError

__all__ = ["CacheServer", "ServerThread", "PROTOCOLS"]

PROTOCOLS = ("resp", "memcached")

SERVER_VERSION = "repro-1.0.0"

#: RESP commands with dedicated metric series; anything else lands in
#: the ``other`` bucket (unknown commands still get counted).
_RESP_COMMANDS = ("get", "set", "del", "mget", "mset", "exists", "ping",
                  "echo", "info", "dbsize", "quit", "other")
_MC_COMMANDS = ("get", "gets", "set", "delete", "stats", "version",
                "quit", "other")


class _Connection(asyncio.Protocol):
    """One client connection (see Architecture above).  Reading pauses
    while the write buffer is over its high-water mark and while a
    ``slow-client`` stall runs, the only task a connection creates."""

    __slots__ = ("server", "protocol", "parser", "execute", "transport",
                 "last_active", "write_paused", "stall", "draining")

    def __init__(self, server: "CacheServer", protocol: str) -> None:
        self.server = server
        self.protocol = protocol
        if protocol == "resp":
            self.parser: Any = RespParser(max_bulk=server.max_value_size)
            self.execute = server._execute_resp
        else:
            self.parser = McParser(max_value_size=server.max_value_size)
            self.execute = server._execute_mc
        self.transport: Any = None
        self.last_active = time.monotonic()
        self.write_paused = False
        self.stall: Optional[asyncio.Task] = None
        self.draining = False

    # -- asyncio callbacks ---------------------------------------------
    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        self.server._admit(self)

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        if self.stall is not None:
            self.stall.cancel()
        self.server._release(self)

    def data_received(self, data: bytes) -> None:
        self.last_active = time.monotonic()
        try:
            commands = self.parser.feed(data)
        except (RespProtocolError, McProtocolError) as exc:
            self.server._proto_errors[self.protocol] += 1
            self.transport.write(
                encode_error(f"ERR Protocol error: {exc}")
                if self.protocol == "resp"
                else f"CLIENT_ERROR {exc}\r\n".encode()
            )
            self.transport.close()
            return
        if commands:
            self._respond(commands)

    def pause_writing(self) -> None:
        self.write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.write_paused = False
        self._resume_reading()

    # -- request path ----------------------------------------------------
    def _respond(self, commands: List[Any]) -> None:
        """Execute a pipeline on the server-wide accepted-command clock.

        A ``conn-reset`` fault executes only the commands before it;
        a ``slow-client`` fault hands the writes to :meth:`_stalled`.
        """
        server, start = self.server, self.server._clock
        server._clock = start + len(commands)
        clocked = [(cmd, start + i) for i, cmd in enumerate(commands, 1)]
        plan = server._fault_plan
        if plan is None:
            replies, close = self.execute(clocked)
            self._finish(replies, False, close)
            return
        reset = next((i for i, (_, clock) in enumerate(clocked)
                      if plan.active(CONN_RESET, clock)), None)
        if reset is not None:
            clocked = clocked[:reset]
        replies, close = self.execute(clocked)
        stalls = [(i, window.magnitude)
                  for i, (_, clock) in enumerate(clocked[:len(replies)])
                  if (window := plan.window(SLOW_CLIENT, clock)) is not None]
        if not stalls:
            self._finish(replies, reset is not None, close)
            return
        self.transport.pause_reading()
        self.stall = asyncio.ensure_future(
            self._stalled(replies, stalls, reset is not None, close)
        )

    async def _stalled(self, replies: List[bytes],
                       stalls: List[Tuple[int, float]],
                       reset: bool, close: bool) -> None:
        """Write the replies, sleeping before each stalled one."""
        done = 0
        for i, seconds in stalls:
            self.transport.write(b"".join(replies[done:i]))
            done = i
            await asyncio.sleep(seconds)
        self.stall = None
        self._finish(replies[done:], reset, close or self.draining)
        self._resume_reading()

    def _finish(self, replies: List[bytes], reset: bool,
                close: bool) -> None:
        """Write the replies; then abort (``conn-reset``) or close (QUIT)."""
        transport = self.transport
        out = b"".join(replies)
        if out:
            transport.write(out)
        if reset:
            self.server._resets[self.protocol] += 1
            transport.abort()  # RST: no FIN, no reply
        elif close:
            transport.close()

    # -- server-side lifecycle -----------------------------------------
    @property
    def busy(self) -> bool:
        """Waiting on a stall or on the client reading its replies."""
        return (self.stall is not None or self.write_paused
                or self.transport.is_closing())

    def _resume_reading(self) -> None:
        if not self.busy:
            self.last_active = time.monotonic()
            self.transport.resume_reading()

    def end_grace(self) -> None:
        """Drain: close once the grace period is over (after a stall)."""
        if self.stall is not None:
            self.draining = True
        else:
            self.transport.close()


def exptime_to_ttl(exptime: int) -> Optional[float]:
    """memcached ``exptime`` -> service TTL seconds.

    ``0`` never expires (``None``); positive values at or below 30
    days are relative seconds; larger values are absolute unix
    timestamps (already-past timestamps expire immediately); negative
    values expire immediately (``0``).
    """
    if exptime == 0:
        return None
    if exptime < 0:
        return 0.0
    if exptime <= RELATIVE_EXPTIME_CEILING:
        return float(exptime)
    return max(0.0, exptime - time.time())


class CacheServer:
    """Serve RESP2 and/or memcached text over one cache backend.

    Parameters
    ----------
    service:
        Any object with the service surface (``get``/``set``/
        ``delete``/``get_many``/``set_many``/``delete_many``/
        ``stats``/``__len__``).  Not closed by the server.
    host / resp_port / memcached_port:
        Listeners to open; a ``None`` port disables that protocol,
        ``0`` binds an ephemeral port (read the bound port back from
        :attr:`resp_port` / :attr:`memcached_port` after ``start()``).
    max_connections:
        Accept limit across both protocols; connections over the limit
        are closed immediately (counted in ``repro_net_rejected``).
    idle_timeout:
        Seconds a connection may sit without delivering bytes before
        the server closes it (``None`` = never).
    max_value_size:
        Largest value accepted on either protocol.  RESP bulk strings
        above it are a protocol error (connection closes, like Redis's
        ``proto-max-bulk-len``); memcached sets above it consume the
        data block and answer ``SERVER_ERROR object too large for
        cache`` (connection survives).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan` consulted
        on the accepted-command clock (``conn-reset``/``slow-client``).
    drain_grace:
        Seconds of opportunistic reading a draining connection gets to
        pick up commands already on the wire.
    """

    def __init__(
        self,
        service: Any,
        *,
        host: str = "127.0.0.1",
        resp_port: Optional[int] = None,
        memcached_port: Optional[int] = None,
        max_connections: int = 1024,
        idle_timeout: Optional[float] = None,
        max_value_size: int = 1 << 20,
        metrics=None,
        fault_plan=None,
        drain_grace: float = 0.05,
    ) -> None:
        if resp_port is None and memcached_port is None:
            raise ValueError(
                "at least one of resp_port/memcached_port is required"
            )
        if max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1, got {max_connections}"
            )
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError(
                f"idle_timeout must be positive, got {idle_timeout}"
            )
        self.service = service
        self.host = host
        self.resp_port = resp_port
        self.memcached_port = memcached_port
        self.max_connections = max_connections
        self.idle_timeout = idle_timeout
        self.max_value_size = max_value_size
        self.drain_grace = drain_grace
        self._fault_plan = fault_plan
        self._clock = 0  # accepted-command sequence number (fault clock)
        self._servers: List[asyncio.base_events.Server] = []
        self._connections: set = set()
        self._accepted = {p: 0 for p in PROTOCOLS}
        self._rejected = {p: 0 for p in PROTOCOLS}
        self._proto_errors = {p: 0 for p in PROTOCOLS}
        self._idle_closes = {p: 0 for p in PROTOCOLS}
        self._resets = {p: 0 for p in PROTOCOLS}
        self._sweep: Optional[asyncio.TimerHandle] = None
        self._all_closed: Optional[asyncio.Future] = None
        self._started = False
        self._closed = False
        self._cmd_counters: Dict[Tuple[str, str], Any] = {}
        self._cmd_latency: Dict[Tuple[str, str], Any] = {}
        if metrics is not None:
            self._wire_metrics(metrics)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "CacheServer":
        """Bind the listeners; ephemeral ports become readable after."""
        if self._started:
            raise RuntimeError("server already started")
        loop = asyncio.get_running_loop()
        if self.resp_port is not None:
            srv = await loop.create_server(
                lambda: _Connection(self, "resp"),
                self.host, self.resp_port,
            )
            self.resp_port = srv.sockets[0].getsockname()[1]
            self._servers.append(srv)
        if self.memcached_port is not None:
            srv = await loop.create_server(
                lambda: _Connection(self, "memcached"),
                self.host, self.memcached_port,
            )
            self.memcached_port = srv.sockets[0].getsockname()[1]
            self._servers.append(srv)
        if self.idle_timeout is not None:
            self._sweep = loop.call_later(self.idle_timeout,
                                          self._sweep_idle)
        self._started = True
        return self

    async def drain(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: stop accepting, finish accepted work.

        Listeners close first (new connects are refused).  Every live
        connection keeps being served for :attr:`drain_grace` seconds,
        answering everything it receives, and then closes (flushing its
        replies).  Connections still open at ``timeout`` are aborted —
        the bounded deadline the resilience story requires.
        Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        loop = asyncio.get_running_loop()
        for srv in self._servers:
            srv.close()
        if self._sweep is not None:
            self._sweep.cancel()
        # Schedule the grace closes before awaiting anything: since
        # Python 3.12.1, Server.wait_closed() waits for the connections.
        for conn in self._connections:
            loop.call_later(self.drain_grace, conn.end_grace)
        if self._connections:
            self._all_closed = loop.create_future()
            await asyncio.wait([self._all_closed], timeout=timeout)
            for conn in list(self._connections):
                conn.transport.abort()
        for srv in self._servers:
            await srv.wait_closed()

    async def aclose(self) -> None:
        """Immediate shutdown (a drain with no deadline to spare)."""
        await self.drain(timeout=0.5)

    @property
    def connections(self) -> int:
        return len(self._connections)

    # ------------------------------------------------------------------
    # Connection bookkeeping
    # ------------------------------------------------------------------
    def _admit(self, conn: _Connection) -> None:
        """Accept limit: connections over it are closed unserved."""
        protocol = conn.protocol
        if self._closed or self.connections >= self.max_connections:
            self._rejected[protocol] += 1
            conn.transport.close()
            return
        self._accepted[protocol] += 1
        self._connections.add(conn)

    def _release(self, conn: _Connection) -> None:
        self._connections.discard(conn)  # absent if rejected at accept
        if (not self._connections and self._all_closed is not None
                and not self._all_closed.done()):
            self._all_closed.set_result(None)

    def _sweep_idle(self) -> None:
        """Close connections idle past ``idle_timeout``; re-arm the
        timer for the next connection due."""
        now = time.monotonic()
        next_due = now + self.idle_timeout
        for conn in list(self._connections):
            if conn.busy:
                continue  # the wait is on a stall or on the client
            due = conn.last_active + self.idle_timeout
            if due <= now:
                self._idle_closes[conn.protocol] += 1
                conn.transport.close()
            else:
                next_due = min(next_due, due)
        self._sweep = asyncio.get_running_loop().call_later(
            next_due - now, self._sweep_idle
        )

    # ------------------------------------------------------------------
    # RESP execution
    # ------------------------------------------------------------------
    def _execute_resp(
        self, commands: List[Tuple[List[bytes], int]]
    ) -> Tuple[List[bytes], bool]:
        """Replies for a RESP pipeline; fuses runs of single-key GETs.

        The fusion turns N pipelined ``GET`` commands into one
        ``get_many`` (one round-trip per mp worker); every other
        command executes in order, so reply order always matches
        command order.
        """
        replies: List[Optional[bytes]] = [None] * len(commands)
        close = False
        i = 0
        while i < len(commands):
            args = commands[i][0]
            name = args[0].decode("utf-8", "surrogateescape").lower()
            if name == "get" and len(args) == 2:
                j = i
                while (j + 1 < len(commands)
                       and not close
                       and len(commands[j + 1][0]) == 2
                       and commands[j + 1][0][0].lower() == b"get"):
                    j += 1
                if j > i:
                    keys = [self._key(commands[k][0][1])
                            for k in range(i, j + 1)]
                    t0 = time.perf_counter_ns()
                    try:
                        values = self.service.get_many(keys)
                    except WorkerCrashedError as exc:
                        err = encode_error(f"ERR backend: {exc}")
                        values = None
                    if values is None:
                        fused = [err] * len(keys)
                    else:
                        fused = [
                            encode_bulk(v[1]) if v is not None else NIL
                            for v in values
                        ]
                    self._observe("resp", "get", t0, count=len(keys))
                    for k, reply in zip(range(i, j + 1), fused):
                        replies[k] = reply
                    i = j + 1
                    continue
            t0 = time.perf_counter_ns()
            reply, want_close = self._one_resp(name, args)
            self._observe("resp", name if name in _RESP_COMMANDS
                          else "other", t0)
            replies[i] = reply
            if want_close:
                close = True
                replies = replies[:i + 1]
                break
            i += 1
        return [r for r in replies if r is not None], close

    def _one_resp(self, name: str, args: List[bytes]
                  ) -> Tuple[bytes, bool]:
        """One RESP command -> (encoded reply, close-after)."""
        service = self.service
        try:
            if name == "ping":
                if len(args) > 2:
                    return _wrong_args("ping"), False
                return (encode_bulk(args[1]) if len(args) == 2
                        else encode_simple("PONG")), False
            if name == "echo":
                if len(args) != 2:
                    return _wrong_args("echo"), False
                return encode_bulk(args[1]), False
            if name == "get":
                if len(args) != 2:
                    return _wrong_args("get"), False
                value = service.get(self._key(args[1]))
                return (encode_bulk(value[1]) if value is not None
                        else NIL), False
            if name == "set":
                return self._resp_set(args), False
            if name == "del":
                if len(args) < 2:
                    return _wrong_args("del"), False
                deleted = service.delete_many(
                    [self._key(a) for a in args[1:]]
                )
                return encode_integer(sum(deleted)), False
            if name == "exists":
                if len(args) < 2:
                    return _wrong_args("exists"), False
                return encode_integer(
                    sum(self._key(a) in service for a in args[1:])
                ), False
            if name == "mget":
                if len(args) < 2:
                    return _wrong_args("mget"), False
                values = service.get_many(
                    [self._key(a) for a in args[1:]]
                )
                return encode_array([
                    encode_bulk(v[1]) if v is not None else NIL
                    for v in values
                ]), False
            if name == "mset":
                if len(args) < 3 or len(args) % 2 != 1:
                    return _wrong_args("mset"), False
                items = [
                    (self._key(args[i]), (0, args[i + 1]))
                    for i in range(1, len(args), 2)
                ]
                service.set_many(items)
                return encode_simple("OK"), False
            if name == "info":
                return encode_bulk(self._info_payload()), False
            if name == "dbsize":
                return encode_integer(len(service)), False
            if name == "command":
                return encode_array([]), False
            if name in ("client", "select", "reset"):
                return encode_simple("OK"), False
            if name == "quit":
                return encode_simple("OK"), True
            return encode_error(
                f"ERR unknown command '{name}'"
            ), False
        except RemovalUnsupportedError as exc:
            return encode_error(f"ERR {exc}"), False
        except WorkerCrashedError as exc:
            return encode_error(f"ERR backend: {exc}"), False

    def _resp_set(self, args: List[bytes]) -> bytes:
        """``SET key value [EX s | PX ms]`` (the paper-relevant subset)."""
        if len(args) < 3:
            return _wrong_args("set")
        key, value = self._key(args[1]), args[2]
        ttl: Optional[float] = None
        i = 3
        while i < len(args):
            opt = args[i].lower()
            if opt in (b"ex", b"px"):
                if i + 1 >= len(args):
                    return encode_error("ERR syntax error")
                try:
                    amount = int(args[i + 1])
                except ValueError:
                    return encode_error(
                        "ERR value is not an integer or out of range"
                    )
                if amount <= 0:
                    return encode_error(
                        "ERR invalid expire time in 'set' command"
                    )
                ttl = float(amount) if opt == b"ex" else amount / 1000.0
                i += 2
            else:
                return encode_error("ERR syntax error")
        if ttl is None:
            self.service.set(key, (0, value))
        else:
            self.service.set(key, (0, value), ttl=ttl)
        return encode_simple("OK")

    # ------------------------------------------------------------------
    # memcached execution
    # ------------------------------------------------------------------
    def _execute_mc(
        self, commands: List[Tuple[Tuple, int]]
    ) -> Tuple[List[bytes], bool]:
        replies: List[bytes] = []
        close = False
        for cmd, _clock in commands:
            t0 = time.perf_counter_ns()
            verb = cmd[0]
            metric = verb if verb in _MC_COMMANDS else "other"
            reply, want_close = self._one_mc(cmd)
            if verb == "get" and cmd[2]:
                metric = "gets"
            self._observe("memcached", metric, t0,
                          count=len(cmd[1]) if verb == "get" else 1)
            replies.append(reply)
            if want_close:
                close = True
                break
        return replies, close

    def _one_mc(self, cmd: Tuple) -> Tuple[bytes, bool]:
        service = self.service
        verb = cmd[0]
        try:
            if verb == "get":
                _, keys, with_cas = cmd
                values = service.get_many(keys)
                out = bytearray()
                for key, value in zip(keys, values):
                    if value is None:
                        continue
                    flags, data = value
                    head = f"VALUE {key} {flags} {len(data)}"
                    if with_cas:
                        # No real CAS versioning: the token is a
                        # content checksum, stable per stored value.
                        head += f" {zlib.crc32(data)}"
                    out += head.encode("utf-8", "surrogateescape")
                    out += b"\r\n" + data + b"\r\n"
                out += b"END\r\n"
                return bytes(out), False
            if verb == "set":
                _, key, flags, exptime, data, noreply = cmd
                ttl = exptime_to_ttl(exptime)
                if ttl is None:
                    stored = service.set(key, (flags, data))
                else:
                    stored = service.set(key, (flags, data), ttl=ttl)
                if noreply:
                    return b"", False
                return (b"STORED\r\n" if stored
                        else b"NOT_STORED\r\n"), False
            if verb == "too_large":
                _, _key, _nbytes, noreply = cmd
                if noreply:
                    return b"", False
                return b"SERVER_ERROR object too large for cache\r\n", False
            if verb == "delete":
                _, key, noreply = cmd
                deleted = service.delete(key)
                if noreply:
                    return b"", False
                return (b"DELETED\r\n" if deleted
                        else b"NOT_FOUND\r\n"), False
            if verb == "stats":
                stats = service.stats()
                out = bytearray()
                out += f"STAT curr_connections {self.connections}\r\n".encode()
                for name in sorted(stats):
                    out += f"STAT {name} {stats[name]}\r\n".encode()
                out += b"END\r\n"
                return bytes(out), False
            if verb == "version":
                return f"VERSION {SERVER_VERSION}\r\n".encode(), False
            if verb == "quit":
                return b"", True
            if verb == "client_error":
                return f"CLIENT_ERROR {cmd[1]}\r\n".encode(), False
            return b"ERROR\r\n", False
        except RemovalUnsupportedError as exc:
            return f"SERVER_ERROR {exc}\r\n".encode(), False
        except WorkerCrashedError as exc:
            return f"SERVER_ERROR backend: {exc}\r\n".encode(), False

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _key(raw: bytes) -> str:
        """Wire key bytes -> store key (lossless for arbitrary bytes)."""
        return raw.decode("utf-8", "surrogateescape")

    def _info_payload(self) -> bytes:
        """The INFO reply: server section + the backend's real stats()."""
        stats = self.service.stats()
        lines = [
            "# Server",
            f"repro_version:{SERVER_VERSION}",
            f"connected_clients:{self.connections}",
            f"accepted_connections:{sum(self._accepted.values())}",
            "# Cache",
        ]
        for name in sorted(stats):
            value = stats[name]
            if isinstance(value, dict):
                continue  # nested cluster health: not an INFO scalar
            lines.append(f"{name}:{value}")
        return ("\r\n".join(lines) + "\r\n").encode()

    def _observe(self, protocol: str, command: str, t0: int,
                 count: int = 1) -> None:
        counter = self._cmd_counters.get((protocol, command))
        if counter is None:
            return
        counter.inc(count)
        self._cmd_latency[(protocol, command)].observe(
            (time.perf_counter_ns() - t0) / 1000.0
        )

    def _wire_metrics(self, registry) -> None:
        """Publish the ``repro_net_*`` families (docs/OBSERVABILITY.md).

        Gauges and per-connection counters read server state at
        collect time; only the per-command counter/histogram pair is
        written on the hot path, and only because a registry exists.
        """
        for protocol in PROTOCOLS:
            labels = {"protocol": protocol}
            registry.gauge(
                "repro_net_connections",
                "Open client connections.", labels,
            ).set_function(
                # list() copies in one step: collection may run on
                # another thread while the loop adds connections.
                lambda p=protocol: sum(
                    c.protocol == p for c in list(self._connections))
            )
            for name, help_text, source in (
                ("repro_net_accepted",
                 "Connections accepted.", self._accepted),
                ("repro_net_rejected",
                 "Connections refused at the connection limit.",
                 self._rejected),
                ("repro_net_protocol_errors",
                 "Connections closed on a malformed frame.",
                 self._proto_errors),
                ("repro_net_idle_closes",
                 "Connections closed by the idle timeout.",
                 self._idle_closes),
                ("repro_net_resets",
                 "Connections aborted by an injected conn-reset fault.",
                 self._resets),
            ):
                registry.counter(name, help_text, labels).set_function(
                    lambda s=source, p=protocol: s[p]
                )
        for protocol, names in (("resp", _RESP_COMMANDS),
                                ("memcached", _MC_COMMANDS)):
            for command in names:
                labels = {"protocol": protocol, "command": command}
                self._cmd_counters[(protocol, command)] = registry.counter(
                    "repro_net_commands",
                    "Commands served, per protocol and command.",
                    labels,
                )
                self._cmd_latency[(protocol, command)] = registry.histogram(
                    "repro_net_command_latency_us",
                    "Command execution latency in microseconds "
                    "(fused pipeline gets share their batch's latency).",
                    labels,
                )


def _wrong_args(name: str) -> bytes:
    return encode_error(
        f"ERR wrong number of arguments for '{name}' command"
    )


# ----------------------------------------------------------------------
# Synchronous harness
# ----------------------------------------------------------------------
class ServerThread:
    """Run a :class:`CacheServer` on a daemon thread (tests, loadgen).

    ``start()`` blocks until the listeners are bound and re-raises any
    bind failure (``EADDRINUSE`` surfaces in the caller, not on a
    thread nobody joins).  ``stop()`` schedules a graceful drain on
    the loop, waits for it, and joins the thread.  The backing service
    is still not owned here — close it after ``stop()``.
    """

    def __init__(self, service: Any, **server_kwargs: Any) -> None:
        self.server = CacheServer(service, **server_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stop_requested: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None
        self._drain_timeout = 5.0

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="netsrv", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop_requested.wait()
        await self.server.drain(timeout=self._drain_timeout)

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Drain gracefully and join; idempotent."""
        if self._thread is None or not self._thread.is_alive():
            return
        self._drain_timeout = drain_timeout
        loop, stop = self._loop, self._stop_requested
        if loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already gone
        self._thread.join(timeout=drain_timeout + 5.0)

    @property
    def resp_port(self) -> Optional[int]:
        return self.server.resp_port

    @property
    def memcached_port(self) -> Optional[int]:
        return self.server.memcached_port

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
