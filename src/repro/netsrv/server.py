"""Threaded TCP front-end: RESP2 + memcached text over any backend.

This is the step from "library" to "service": stock clients
(``redis-cli``, ``redis-py``, ``pymemcache``, or a bare socket) talk
to any registered cache backend — :class:`~repro.service.core.
CacheService`, :class:`~repro.service.sharded.ShardedCacheService`,
:class:`~repro.service.mp.MPCacheService` over either transport, or
the :class:`~repro.cluster.service.ClusterCacheService` tier — through
one :class:`CacheServer`.

Architecture
------------

One accept thread per listener, and one blocking thread per admitted
connection.  A connection's thread loops ``recv`` → ``parser.feed`` →
execute → ``sendall``: the incremental parsers in
:mod:`repro.netsrv.resp` / :mod:`repro.netsrv.memcached` turn each
delivered chunk into complete commands, every complete command in it
executes, and the replies go out in one ``sendall``.  A depth-1
request costs two system calls and no event-loop dispatch.  The
backend **evicts**: for the mp backend the eviction, hashing, and TTL
bookkeeping burn worker cores while the connection thread waits on
the IPC round-trip without the GIL.

Consecutive single-key RESP ``GET`` commands in a pipeline are *fused*
into one ``service.get_many`` call (one round-trip per involved mp
worker; reply order is preserved).  A client that stops reading its
replies blocks its thread in ``sendall`` once the kernel buffers fill,
so the thread stops reading too and a pipelining client cannot grow
the server's buffers.  ``max_connections`` bounds the thread count.

Both protocols interoperate on one store: a value is the pair
``(flags, data)`` so a memcached ``set`` with flags survives a RESP
``GET`` (which returns just the data) and vice versa (RESP ``SET``
stores flags 0).

Lifecycle
---------

``start()`` binds the listeners in the caller (``port=0`` picks an
ephemeral port, readable afterwards; a bind failure raises there) and
starts the accept threads.  The accept limit is checked as a
connection is accepted; ``idle_timeout`` is each connection's receive
timeout, so it never fires while a reply waits on a slow reader.
``stop(drain_timeout)`` is the graceful path: stop accepting, let
every connection read for ``drain_grace`` seconds, then shut its read
side — the thread answers every command already received, closes,
and exits — and shut down both directions of those still open at the
deadline.  No accepted in-flight command is ever dropped by a drain;
the conformance tests pin this under load.  ``stop()`` returns once
every server thread has exited.  The server is also a context manager
(``start()`` on entry, ``stop()`` on exit).  The backend is **not**
owned by the server: callers close it after the drain.

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
registry the hot path records nothing.  The fault clock, the
connection set and every counter are shared by the connection
threads and updated under the server's lock.
"""

from __future__ import annotations

import contextlib
import socket
import struct
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

__all__ = ["CacheServer", "PROTOCOLS"]

PROTOCOLS = ("resp", "memcached")

SERVER_VERSION = "repro-1.0.0"

#: RESP commands with dedicated metric series; anything else lands in
#: the ``other`` bucket (unknown commands still get counted).
_RESP_COMMANDS = ("get", "set", "del", "mget", "mset", "exists", "ping",
                  "echo", "info", "dbsize", "quit", "other")
_MC_COMMANDS = ("get", "gets", "set", "delete", "stats", "version",
                "quit", "other")

#: Largest chunk one ``recv`` takes off a connection.
_READ_CHUNK = 1 << 16

#: ``SO_LINGER`` on with a zero timeout: ``close()`` sends RST, no FIN.
_LINGER_RST = struct.pack("ii", 1, 0)


class _Connection:
    """One client connection, served by its own thread (see
    Architecture above)."""

    __slots__ = ("server", "protocol", "sock", "parser", "execute",
                 "send", "thread")

    def __init__(self, server: "CacheServer", protocol: str,
                 sock: socket.socket) -> None:
        self.server = server
        self.protocol = protocol
        self.sock = sock
        if protocol == "resp":
            self.parser: Any = RespParser(max_bulk=server.max_value_size)
            self.execute = server._execute_resp
        else:
            self.parser = McParser(max_value_size=server.max_value_size)
            self.execute = server._execute_mc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if server.idle_timeout is None:
            self.send = sock.sendall
        else:
            sock.settimeout(server.idle_timeout)
            self.send = self._send_past_timeout
        self.thread = threading.Thread(
            target=self.run, name=f"netsrv-{protocol}-conn", daemon=True
        )

    def run(self) -> None:
        """Thread body: serve the connection until EOF, QUIT, a
        protocol error, a fault, the idle timeout or a drain."""
        sock, server = self.sock, self.server
        try:
            while True:
                try:
                    data = sock.recv(_READ_CHUNK)
                except socket.timeout:
                    server._count(server._idle_closes, self.protocol)
                    return
                if not data or not self.data_received(data):
                    return
        except OSError:
            pass  # the peer reset, or the drain deadline shut the socket
        finally:
            server._release(self)

    def data_received(self, data: bytes) -> bool:
        """Parse, execute and answer one chunk; False closes."""
        try:
            commands = self.parser.feed(data)
        except (RespProtocolError, McProtocolError) as exc:
            self.server._count(self.server._proto_errors, self.protocol)
            self.send(
                encode_error(f"ERR Protocol error: {exc}")
                if self.protocol == "resp"
                else f"CLIENT_ERROR {exc}\r\n".encode()
            )
            return False
        return self._respond(commands) if commands else True

    def _send_past_timeout(self, data: bytes) -> None:
        """``sendall`` that waits out the receive timeout: a reply
        blocked on a slow reader is not idleness."""
        view = memoryview(data)
        while view:
            try:
                view = view[self.sock.send(view):]
            except socket.timeout:
                pass

    # -- request path ----------------------------------------------------
    def _respond(self, commands: List[Any]) -> bool:
        """Execute a pipeline on the server-wide accepted-command clock
        and write the replies; False closes the connection.

        A ``conn-reset`` fault executes only the commands before it,
        then aborts; a ``slow-client`` fault sleeps before the covered
        command's reply.
        """
        server = self.server
        with server._lock:
            start = server._clock
            server._clock = start + len(commands)
        clocked = [(cmd, start + i) for i, cmd in enumerate(commands, 1)]
        plan = server._fault_plan
        if plan is None:
            replies, close = self.execute(clocked)
            out = b"".join(replies)
            if out:
                self.send(out)
            return not close
        reset = next((i for i, (_, clock) in enumerate(clocked)
                      if plan.active(CONN_RESET, clock)), None)
        if reset is not None:
            clocked = clocked[:reset]
        replies, close = self.execute(clocked)
        done = 0
        for i, (_, clock) in enumerate(clocked[:len(replies)]):
            window = plan.window(SLOW_CLIENT, clock)
            if window is not None:
                self.send(b"".join(replies[done:i]))
                done = i
                server._aborted.wait(window.magnitude)
        out = b"".join(replies[done:])
        if out:
            self.send(out)
        if reset is not None:
            server._count(server._resets, self.protocol)
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                 _LINGER_RST)  # close() sends RST
            return False
        return not close


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
        Accept limit across both protocols, and so the bound on
        connection threads; connections over the limit are closed
        immediately (counted in ``repro_net_rejected``).
    idle_timeout:
        Seconds a connection may wait for bytes before the server
        closes it (``None`` = never).  Time spent writing replies to a
        client that reads slowly does not count.
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
        #: Guards the fault clock, the connection set and the counters.
        self._lock = threading.Lock()
        #: Set at the drain deadline: cuts ``slow-client`` stalls short.
        self._aborted = threading.Event()
        self._listeners: List[socket.socket] = []
        self._acceptors: List[threading.Thread] = []
        self._connections: set = set()
        self._accepted = {p: 0 for p in PROTOCOLS}
        self._rejected = {p: 0 for p in PROTOCOLS}
        self._proto_errors = {p: 0 for p in PROTOCOLS}
        self._idle_closes = {p: 0 for p in PROTOCOLS}
        self._resets = {p: 0 for p in PROTOCOLS}
        self._started = False
        self._closed = False
        self._cmd_counters: Dict[Tuple[str, str], Any] = {}
        self._cmd_latency: Dict[Tuple[str, str], Any] = {}
        if metrics is not None:
            self._wire_metrics(metrics)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "CacheServer":
        """Bind the listeners and start accepting.  Bind failures
        (``EADDRINUSE``) raise here; ephemeral ports become readable
        after."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        try:
            for protocol in PROTOCOLS:
                port = getattr(self, f"{protocol}_port")
                if port is None:
                    continue
                family, _, _, _, address = socket.getaddrinfo(
                    self.host, port, type=socket.SOCK_STREAM,
                    flags=socket.AI_PASSIVE,
                )[0]
                listener = socket.create_server(address, family=family,
                                                backlog=128)
                self._listeners.append(listener)
                setattr(self, f"{protocol}_port",
                        listener.getsockname()[1])
                self._acceptors.append(threading.Thread(
                    target=self._accept_loop, args=(listener, protocol),
                    name=f"netsrv-{protocol}-accept", daemon=True,
                ))
        except BaseException:
            for listener in self._listeners:
                listener.close()
            self._listeners.clear()
            self._acceptors.clear()
            raise
        for acceptor in self._acceptors:
            acceptor.start()
        return self

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Graceful shutdown: stop accepting, finish accepted work.

        Listeners close first (new connects are refused).  Every live
        connection keeps being served for :attr:`drain_grace` seconds;
        then its read side is shut, so its thread answers every command
        it has received and closes.  Connections still open
        ``drain_timeout`` seconds after the call are shut down in both
        directions, which unblocks a thread waiting on a client that
        does not read.  Returns once every server thread has exited.
        Idempotent.
        """
        with self._lock:
            if self._closed or not self._started:
                return
            self._closed = True
        deadline = time.monotonic() + drain_timeout
        for listener in self._listeners:
            try:
                listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
            except OSError:
                # Where shutdown() does not wake a blocked accept(), a
                # connect does; the closed server rejects it.
                with contextlib.suppress(OSError):
                    socket.create_connection(listener.getsockname()[:2],
                                             timeout=1.0).close()
        for acceptor in self._acceptors:
            acceptor.join()
        for listener in self._listeners:
            listener.close()
        if self._connections:
            time.sleep(min(self.drain_grace, drain_timeout))
        self._shut_connections(socket.SHUT_RD, deadline)
        if self._connections:
            self._aborted.set()
            self._shut_connections(socket.SHUT_RDWR, None)

    def _shut_connections(self, how: int,
                          deadline: Optional[float]) -> None:
        """Shut every live connection's socket (``how``), then join
        their threads until ``deadline`` (``None`` = until they exit)."""
        with self._lock:
            live = list(self._connections)
            for conn in live:
                _shutdown(conn.sock, how)
        for conn in live:
            conn.thread.join(None if deadline is None
                             else max(0.0, deadline - time.monotonic()))

    def __enter__(self) -> "CacheServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    @property
    def connections(self) -> int:
        return len(self._connections)

    # ------------------------------------------------------------------
    # Connection bookkeeping
    # ------------------------------------------------------------------
    def _accept_loop(self, listener: socket.socket, protocol: str) -> None:
        """Accept thread: admit each connection up to the limit."""
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:
                if self._closed:
                    return  # stop() shut the listener down
                time.sleep(0.01)  # out of descriptors, say: retry
                continue
            with self._lock:
                admitted = (not self._closed
                            and len(self._connections) < self.max_connections)
                if admitted:
                    self._accepted[protocol] += 1
                    conn = _Connection(self, protocol, sock)
                    self._connections.add(conn)
                else:
                    self._rejected[protocol] += 1
            if admitted:
                conn.thread.start()
            else:
                sock.close()

    def _release(self, conn: _Connection) -> None:
        """Connection thread exit: forget the connection, then close
        its socket (under the lock, so ``stop()`` never shuts down a
        closed socket)."""
        with self._lock:
            self._connections.discard(conn)
            conn.sock.close()

    def _count(self, source: Dict[str, int], protocol: str) -> None:
        with self._lock:
            source[protocol] += 1

    def _open(self, protocol: str) -> int:
        with self._lock:
            return sum(c.protocol == protocol for c in self._connections)

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
        latency_us = (time.perf_counter_ns() - t0) / 1000.0
        with self._lock:  # Counter.inc/Histogram.observe take no lock
            counter.inc(count)
            self._cmd_latency[(protocol, command)].observe(latency_us)

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
            ).set_function(lambda p=protocol: self._open(p))
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


def _shutdown(sock: socket.socket, how: int) -> None:
    try:
        sock.shutdown(how)
    except OSError:
        pass  # the peer already closed: nothing left to unblock
