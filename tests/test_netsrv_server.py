"""Network front-end conformance: byte goldens, limits, drain, faults.

Two tiers in one module:

* The unmarked classes are the tier-1 smoke — raw-socket byte-for-byte
  goldens for both protocols against a thread-backend server on
  ephemeral ports, plus the failure modes a server must survive
  (malformed frames, oversized values, mid-command disconnects) and
  the lifecycle claims (drain loses nothing, limits enforced, bind
  failures surface).  Everything here binds ``127.0.0.1:0`` and runs
  in well under a second per test.
* ``TestBackendMatrix`` carries the ``net`` marker (``make net``): the
  same client round-trips against every backend tier — thread,
  sharded, mp over pipe and shm, cluster — because the server's
  contract is "any backend behind the same bytes".

Goldens are exact: if a reply byte changes, a stock client somewhere
breaks, so the test should break first.
"""

import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.netsrv import (
    McClient,
    RespClient,
    RespError,
    SERVER_VERSION,
    CacheServer,
)
from repro.obs import MetricsRegistry
from repro.resilience import CONN_RESET, SLOW_CLIENT, FaultPlan
from repro.service import CacheService, MPCacheService, ShardedCacheService


# ----------------------------------------------------------------------
# Raw-socket helpers: the goldens must not depend on our own client.
# ----------------------------------------------------------------------
def connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    sock.settimeout(5.0)
    return sock


def recv_until(sock: socket.socket, suffix: bytes) -> bytes:
    buf = b""
    while not buf.endswith(suffix):
        chunk = sock.recv(4096)
        if not chunk:
            break
        buf += chunk
    return buf


def recv_eof(sock: socket.socket) -> bytes:
    buf = b""
    while True:
        chunk = sock.recv(4096)
        if not chunk:
            return buf
        buf += chunk


def exchange(sock: socket.socket, request: bytes, suffix: bytes) -> bytes:
    sock.sendall(request)
    return recv_until(sock, suffix)


@pytest.fixture()
def server():
    service = CacheService(256, "s3fifo")
    with CacheServer(service, resp_port=0, memcached_port=0) as st:
        yield st


class TestRespGoldens:
    def test_session(self, server):
        sock = connect(server.resp_port)
        try:
            assert exchange(sock, b"*1\r\n$4\r\nPING\r\n", b"\r\n") == \
                b"+PONG\r\n"
            assert exchange(
                sock, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n",
                b"\r\n") == b"+OK\r\n"
            assert exchange(sock, b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n",
                            b"\r\n") == b"$5\r\nhello\r\n"
            assert exchange(sock, b"*2\r\n$3\r\nGET\r\n$4\r\ngone\r\n",
                            b"\r\n") == b"$-1\r\n"
            assert exchange(
                sock, b"*3\r\n$4\r\nMGET\r\n$1\r\nk\r\n$4\r\ngone\r\n",
                b"\r\n") == b"*2\r\n$5\r\nhello\r\n$-1\r\n"
            assert exchange(sock, b"*2\r\n$6\r\nEXISTS\r\n$1\r\nk\r\n",
                            b"\r\n") == b":1\r\n"
            assert exchange(sock, b"*2\r\n$3\r\nDEL\r\n$1\r\nk\r\n",
                            b"\r\n") == b":1\r\n"
            assert exchange(sock, b"*2\r\n$3\r\nDEL\r\n$1\r\nk\r\n",
                            b"\r\n") == b":0\r\n"
            # Inline commands work alongside arrays (redis-cli uses both).
            assert exchange(sock, b"PING\r\n", b"\r\n") == b"+PONG\r\n"
            assert exchange(sock, b"*1\r\n$10\r\nFROBNICATE\r\n", b"\r\n") \
                == b"-ERR unknown command 'frobnicate'\r\n"
            # QUIT answers then closes.
            sock.sendall(b"*1\r\n$4\r\nQUIT\r\n")
            assert recv_eof(sock) == b"+OK\r\n"
        finally:
            sock.close()

    def test_pipelined_batch_one_write(self, server):
        sock = connect(server.resp_port)
        try:
            batch = (b"*3\r\n$3\r\nSET\r\n$1\r\na\r\n$1\r\n1\r\n"
                     b"*3\r\n$3\r\nSET\r\n$1\r\nb\r\n$1\r\n2\r\n"
                     b"*3\r\n$4\r\nMSET\r\n$1\r\nc\r\n$1\r\n3\r\n"
                     b"*2\r\n$3\r\nGET\r\n$1\r\na\r\n"
                     b"*2\r\n$3\r\nGET\r\n$1\r\nb\r\n"
                     b"*2\r\n$3\r\nGET\r\n$1\r\nc\r\n")
            expected = (b"+OK\r\n+OK\r\n+OK\r\n"
                        b"$1\r\n1\r\n$1\r\n2\r\n$1\r\n3\r\n")
            assert exchange(sock, batch, expected[-8:]) == expected
        finally:
            sock.close()

    def test_malformed_bulk_length_errors_and_closes(self, server):
        sock = connect(server.resp_port)
        try:
            sock.sendall(b"*1\r\n$abc\r\n")
            assert recv_eof(sock) == \
                b"-ERR Protocol error: invalid bulk length\r\n"
        finally:
            sock.close()

    def test_oversized_value_errors_and_closes(self):
        service = CacheService(64, "s3fifo")
        with CacheServer(service, resp_port=0,
                          max_value_size=64) as st:
            sock = connect(st.resp_port)
            try:
                sock.sendall(b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1000\r\n")
                reply = recv_eof(sock)
                assert reply == \
                    b"-ERR Protocol error: invalid bulk length\r\n"
            finally:
                sock.close()

    def test_set_ex_golden_and_expiry(self, server):
        sock = connect(server.resp_port)
        try:
            assert exchange(
                sock,
                b"*5\r\n$3\r\nSET\r\n$1\r\nt\r\n$1\r\nv\r\n"
                b"$2\r\nPX\r\n$2\r\n50\r\n",
                b"\r\n") == b"+OK\r\n"
            assert exchange(sock, b"*2\r\n$3\r\nGET\r\n$1\r\nt\r\n",
                            b"\r\n") == b"$1\r\nv\r\n"
            time.sleep(0.08)
            assert exchange(sock, b"*2\r\n$3\r\nGET\r\n$1\r\nt\r\n",
                            b"\r\n") == b"$-1\r\n"
            assert exchange(
                sock,
                b"*5\r\n$3\r\nSET\r\n$1\r\nt\r\n$1\r\nv\r\n"
                b"$2\r\nEX\r\n$2\r\n-1\r\n",
                b"\r\n") == b"-ERR invalid expire time in 'set' command\r\n"
        finally:
            sock.close()

    def test_info_reflects_backend_stats(self, server):
        sock = connect(server.resp_port)
        try:
            sock.sendall(b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"
                         b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n")
            recv_until(sock, b"$1\r\nv\r\n")
            sock.sendall(b"*1\r\n$4\r\nINFO\r\n")
            # INFO is one bulk string; its payload ends with the only
            # blank line in the stream.
            text = recv_until(sock, b"\r\n\r\n").decode()
            assert "# Server" in text and "# Cache" in text
            assert f"repro_version:{SERVER_VERSION}" in text
            stats = server.service.stats()
            assert "hits" in stats
            assert f"hits:{stats['hits']}" in text
        finally:
            sock.close()


class TestMemcachedGoldens:
    def test_session(self, server):
        sock = connect(server.memcached_port)
        try:
            assert exchange(sock, b"set k 7 0 5\r\nhello\r\n", b"\r\n") == \
                b"STORED\r\n"
            assert exchange(sock, b"get k\r\n", b"END\r\n") == \
                b"VALUE k 7 5\r\nhello\r\nEND\r\n"
            assert exchange(sock, b"get k gone\r\n", b"END\r\n") == \
                b"VALUE k 7 5\r\nhello\r\nEND\r\n"
            assert exchange(sock, b"delete k\r\n", b"\r\n") == b"DELETED\r\n"
            assert exchange(sock, b"delete k\r\n", b"\r\n") == \
                b"NOT_FOUND\r\n"
            assert exchange(sock, b"version\r\n", b"\r\n") == \
                f"VERSION {SERVER_VERSION}\r\n".encode()
            assert exchange(sock, b"frobnicate\r\n", b"\r\n") == b"ERROR\r\n"
            assert exchange(sock, b"set k 0 0\r\n", b"\r\n") == \
                b"CLIENT_ERROR bad command line format\r\n"
            sock.sendall(b"quit\r\n")
            assert recv_eof(sock) == b""
        finally:
            sock.close()

    def test_noreply_and_binary_value(self, server):
        sock = connect(server.memcached_port)
        try:
            payload = b"a\r\nEND\r\nb\x00"
            sock.sendall(b"set bin 0 0 %d noreply\r\n%s\r\n"
                         % (len(payload), payload))
            # noreply: no reply bytes; the next command's reply is first.
            assert exchange(sock, b"get bin\r\n", b"END\r\n") == (
                b"VALUE bin 0 %d\r\n%s\r\nEND\r\n"
                % (len(payload), payload)
            )
        finally:
            sock.close()

    def test_gets_cas_token_is_stable_per_value(self, server):
        sock = connect(server.memcached_port)
        try:
            exchange(sock, b"set k 0 0 1\r\nx\r\n", b"\r\n")
            first = exchange(sock, b"gets k\r\n", b"END\r\n")
            again = exchange(sock, b"gets k\r\n", b"END\r\n")
            assert first == again
            assert first.startswith(b"VALUE k 0 1 ")
            exchange(sock, b"set k 0 0 1\r\ny\r\n", b"\r\n")
            changed = exchange(sock, b"gets k\r\n", b"END\r\n")
            assert changed != first
        finally:
            sock.close()

    def test_oversized_value_swallowed_connection_survives(self):
        service = CacheService(64, "s3fifo")
        with CacheServer(service, memcached_port=0,
                          max_value_size=32) as st:
            sock = connect(st.memcached_port)
            try:
                big = b"Z" * 1000
                assert exchange(sock, b"set k 0 0 1000\r\n" + big + b"\r\n",
                                b"\r\n") == \
                    b"SERVER_ERROR object too large for cache\r\n"
                # The stream resynced: the connection still works.
                assert exchange(sock, b"version\r\n", b"\r\n") == \
                    f"VERSION {SERVER_VERSION}\r\n".encode()
                assert len(service) == 0
            finally:
                sock.close()

    def test_bad_data_chunk_errors_and_closes(self, server):
        sock = connect(server.memcached_port)
        try:
            sock.sendall(b"set k 0 0 5\r\nhelloXXXXX\r\n")
            assert recv_eof(sock) == b"CLIENT_ERROR bad data chunk\r\n"
        finally:
            sock.close()

    def test_stats_reflects_backend_stats(self, server):
        sock = connect(server.memcached_port)
        try:
            exchange(sock, b"set k 0 0 1\r\nx\r\n", b"\r\n")
            exchange(sock, b"get k\r\n", b"END\r\n")
            reply = exchange(sock, b"stats\r\n", b"END\r\n")
            lines = reply.decode().splitlines()
            assert "STAT curr_connections 1" in lines
            stats = server.service.stats()
            for name in ("hits", "misses", "sets"):
                assert f"STAT {name} {stats[name]}" in lines
        finally:
            sock.close()


class TestLifecycle:
    def test_mid_command_disconnect_leaves_server_healthy(self, server):
        for port, partial in (
            (server.resp_port, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$500\r\nhal"),
            (server.memcached_port, b"set k 0 0 100\r\nonly-some-bytes"),
        ):
            sock = connect(port)
            sock.sendall(partial)
            sock.close()
        # Both listeners still answer on fresh connections.
        sock = connect(server.resp_port)
        try:
            assert exchange(sock, b"PING\r\n", b"\r\n") == b"+PONG\r\n"
        finally:
            sock.close()

    def test_drain_under_load_loses_no_accepted_commands(self):
        service = CacheService(1024, "s3fifo")
        st = CacheServer(service, resp_port=0).start()
        sock = connect(st.resp_port)
        try:
            # The drain contract covers *accepted* connections: complete
            # one round-trip so the accept is certain before the burst
            # (a connect still in the kernel backlog when the listener
            # closes is legitimately dropped, like any TCP server).
            assert exchange(sock, b"PING\r\n", b"\r\n") == b"+PONG\r\n"
            n = 200
            batch = b"".join(
                b"*3\r\n$3\r\nSET\r\n$4\r\nk%03d\r\n$1\r\nv\r\n" % i
                for i in range(n)
            )
            sock.sendall(batch)
            # Drain while the burst is still in flight: every accepted
            # command must be answered before the close.
            st.stop()
            replies = recv_eof(sock)
            assert replies.count(b"+OK\r\n") == n
        finally:
            sock.close()

    def test_max_connections_rejects_excess(self):
        service = CacheService(64, "s3fifo")
        with CacheServer(service, resp_port=0, max_connections=2) as st:
            first = connect(st.resp_port)
            second = connect(st.resp_port)
            third = connect(st.resp_port)
            try:
                assert exchange(first, b"PING\r\n", b"\r\n") == b"+PONG\r\n"
                assert exchange(second, b"PING\r\n", b"\r\n") == b"+PONG\r\n"
                assert recv_eof(third) == b""  # closed without service
                assert exchange(first, b"PING\r\n", b"\r\n") == b"+PONG\r\n"
            finally:
                for sock in (first, second, third):
                    sock.close()

    def test_idle_timeout_closes_quiet_connections(self):
        service = CacheService(64, "s3fifo")
        with CacheServer(service, resp_port=0, idle_timeout=0.15) as st:
            sock = connect(st.resp_port)
            try:
                assert exchange(sock, b"PING\r\n", b"\r\n") == b"+PONG\r\n"
                start = time.monotonic()
                assert recv_eof(sock) == b""
                assert time.monotonic() - start < 4.0
            finally:
                sock.close()

    def test_idle_timeout_spares_a_connection_waiting_on_its_reader(self):
        """The idle timeout times receives only: replies blocked on a
        client that reads late are still delivered."""
        size = 1 << 16
        service = CacheService(64, "s3fifo")
        service.set("big", (0, b"x" * size))
        with CacheServer(service, resp_port=0, idle_timeout=0.2) as st:
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, size)
            sock.settimeout(5.0)
            sock.connect(("127.0.0.1", st.resp_port))
            try:
                n = 128  # 8 MiB of replies, far past the kernel buffers
                sock.sendall(resp_get(b"big") * n)
                time.sleep(0.6)  # three idle timeouts without reading
                reply = b"$%d\r\n%s\r\n" % (size, b"x" * size)
                for _ in range(n):
                    assert recv_exact(sock, len(reply)) == reply
                # Once the replies are out, the quiet connection closes.
                assert recv_eof(sock) == b""
            finally:
                sock.close()

    def test_bind_failure_raises_in_caller(self):
        squatter = socket.socket()
        squatter.bind(("127.0.0.1", 0))
        squatter.listen(1)
        port = squatter.getsockname()[1]
        try:
            service = CacheService(64, "s3fifo")
            with pytest.raises(OSError):
                CacheServer(service, resp_port=port).start()
        finally:
            squatter.close()

    def test_stop_leaves_no_server_thread_alive(self):
        """``stop()`` returns with every accept and connection thread
        gone, even while one thread is blocked writing to a client that
        never reads."""
        before = set(threading.enumerate())
        size = 1 << 16
        service = CacheService(64, "s3fifo")
        service.set("big", (0, b"x" * size))
        st = CacheServer(service, resp_port=0, memcached_port=0).start()
        quiet = connect(st.memcached_port)
        stuck = socket.socket()
        stuck.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, size)
        stuck.connect(("127.0.0.1", st.resp_port))
        try:
            assert exchange(quiet, b"version\r\n", b"\r\n") == \
                f"VERSION {SERVER_VERSION}\r\n".encode()
            # 16 MiB of replies the client never reads: the thread
            # serving it blocks in sendall.
            stuck.sendall(resp_get(b"big") * 256)
            assert wait_for(lambda: service.stats()["gets"] == 256)
            assert {t.name for t in set(threading.enumerate()) - before} \
                >= {"netsrv-resp-accept", "netsrv-memcached-accept",
                    "netsrv-resp-conn", "netsrv-memcached-conn"}
            start = time.monotonic()
            st.stop(drain_timeout=0.5)
            elapsed = time.monotonic() - start
            assert set(threading.enumerate()) - before == set()
            # Only the deadline's shutdown freed the blocked thread.
            assert 0.5 <= elapsed < 5.0
            assert recv_eof(quiet) == b""
        finally:
            quiet.close()
            stuck.close()


class CountingService(CacheService):
    """A thread backend that records the key count of each read call."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.reads = []

    def get(self, key, default=None):
        self.reads.append(("get", 1))
        return super().get(key, default)

    def get_many(self, keys, default=None):
        keys = list(keys)
        self.reads.append(("get_many", len(keys)))
        return super().get_many(keys, default)


def resp_get(key: bytes) -> bytes:
    return b"*2\r\n$3\r\nGET\r\n$%d\r\n%s\r\n" % (len(key), key)


def recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(min(1 << 16, n - len(buf)))
        if not chunk:
            break
        buf += chunk
    return bytes(buf)


def wait_for(condition, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


class TestConnectionPath:
    """The per-connection request path: one parse/execute/write per
    delivered chunk, with reading paused while replies back up."""

    def test_crlf_flood_then_command_is_answered(self, server):
        flood = b"\r\n" * 8192  # 16 KiB of empty lines
        for port, command, reply in (
            (server.resp_port, b"PING\r\n", b"+PONG\r\n"),
            (server.memcached_port, b"version\r\n",
             f"VERSION {SERVER_VERSION}\r\n".encode()),
        ):
            sock = connect(port)
            try:
                assert exchange(sock, flood + command, b"\r\n") == reply
            finally:
                sock.close()

    def test_pipelined_gets_reach_the_backend_as_one_get_many(self):
        service = CountingService(256, "s3fifo")
        for i in range(32):
            service.set(f"k{i}", (0, b"v%d" % i))
        with CacheServer(service, resp_port=0) as st:
            sock = connect(st.resp_port)
            try:
                expected = b"".join(b"$%d\r\nv%d\r\n" % (len(b"v%d" % i), i)
                                    for i in range(32))
                sock.sendall(b"".join(resp_get(b"k%d" % i)
                                      for i in range(32)))
                assert recv_exact(sock, len(expected)) == expected
            finally:
                sock.close()
        assert service.reads == [("get_many", 32)]

    def test_client_that_stops_reading_pauses_the_connection(self):
        """Replies a client leaves unread stop the server reading: the
        connection's thread blocks writing, so the commands pipelined
        behind them are neither executed nor answered until the client
        reads."""
        size = 1 << 16
        service = CountingService(64, "s3fifo")
        for k in range(4):
            service.set(f"v{k}", (0, bytes([65 + k]) * size))

        def served() -> int:
            return sum(n for _, n in service.reads)

        with CacheServer(service, resp_port=0) as st:
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, size)
            sock.settimeout(10.0)
            sock.connect(("127.0.0.1", st.resp_port))
            try:
                sent = 0
                # One GET per delivered chunk until the kernel buffers
                # fill up and the server stops executing them.
                while wait_for(lambda: served() == sent, timeout=0.5):
                    assert sent < 1024, "reading never paused"
                    sock.sendall(resp_get(b"v%d" % (sent % 4)))
                    sent += 1
                stalled = served()
                # Pipeline more, for at least 4 MiB of replies in all.
                more = max(64, sent + 16) - sent
                sock.sendall(b"".join(resp_get(b"v%d" % ((sent + i) % 4))
                                      for i in range(more)))
                time.sleep(0.3)
                total = sent + more
                assert served() == stalled <= sent <= total - 16
                reply = b"$%d\r\n" % size
                for i in range(total):
                    assert recv_exact(sock, len(reply) + size + 2) == \
                        reply + bytes([65 + i % 4]) * size + b"\r\n"
                assert exchange(sock, b"PING\r\n", b"\r\n") == b"+PONG\r\n"
            finally:
                sock.close()
        assert served() == total

    def test_half_closed_client_gets_every_reply_before_fin(self):
        service = CacheService(1024, "s3fifo")
        with CacheServer(service, resp_port=0) as st:
            sock = connect(st.resp_port)
            try:
                n = 500
                sock.sendall(b"".join(
                    b"*3\r\n$3\r\nSET\r\n$4\r\nk%03d\r\n$4\r\nv%03d\r\n"
                    % (i, i) for i in range(n)
                ) + b"".join(resp_get(b"k%03d" % i) for i in range(n)))
                sock.shutdown(socket.SHUT_WR)
                assert recv_eof(sock) == b"+OK\r\n" * n + b"".join(
                    b"$4\r\nv%03d\r\n" % i for i in range(n))
            finally:
                sock.close()


class TestFaultsAndMetrics:
    def test_conn_reset_fault_answers_then_resets(self):
        service = CacheService(64, "s3fifo")
        plan = FaultPlan().add(CONN_RESET, 4, 5)
        with CacheServer(service, resp_port=0, fault_plan=plan) as st:
            client = RespClient("127.0.0.1", st.resp_port)
            try:
                # Commands 1-3 of the server-wide clock succeed...
                assert client.ping()
                client.set("a", b"1")
                assert client.get("a") == b"1"
                # ...command 4 lands in the reset window: RST.
                with pytest.raises((ConnectionError, OSError)):
                    client.ping()
                    client.ping()
            finally:
                client.close()
            # Past the window, fresh connections are unaffected.
            client = RespClient("127.0.0.1", st.resp_port)
            try:
                assert client.get("a") == b"1"
            finally:
                client.close()

    def test_slow_client_fault_stalls_the_window(self):
        service = CacheService(64, "s3fifo")
        plan = FaultPlan().add(SLOW_CLIENT, 1, 2, magnitude=0.3)
        with CacheServer(service, resp_port=0, fault_plan=plan) as st:
            client = RespClient("127.0.0.1", st.resp_port)
            try:
                start = time.monotonic()
                assert client.ping()
                stalled = time.monotonic() - start
                start = time.monotonic()
                assert client.ping()
                fast = time.monotonic() - start
                assert stalled >= 0.25
                assert fast < 0.25
            finally:
                client.close()

    def test_per_protocol_metrics(self):
        service = CacheService(64, "s3fifo")
        registry = MetricsRegistry()
        with CacheServer(service, resp_port=0, memcached_port=0,
                          metrics=registry) as st:
            resp = RespClient("127.0.0.1", st.resp_port)
            mc = McClient("127.0.0.1", st.memcached_port)
            try:
                resp.set("k", b"v")
                resp.get("k")
                mc.get_many(["k"])
            finally:
                resp.close()
                mc.close()
            for protocol in ("resp", "memcached"):
                accepted = registry.counter(
                    "repro_net_accepted",
                    labels={"protocol": protocol})
                assert accepted.collect_value() == 1
            resp_gets = registry.counter(
                "repro_net_commands",
                labels={"protocol": "resp", "command": "get"})
            mc_gets = registry.counter(
                "repro_net_commands",
                labels={"protocol": "memcached", "command": "get"})
            assert resp_gets.collect_value() == 1
            assert mc_gets.collect_value() == 1
            latency = registry.histogram(
                "repro_net_command_latency_us",
                labels={"protocol": "resp", "command": "set"})
            assert latency.count == 1


class TestConcurrentConnections:
    """Connection threads share the fault clock, the connection set
    and every counter; none of them may lose an update."""

    CLIENTS = 4  # per protocol: 8 connections in all
    COMMANDS = 500  # per connection, alternating SET and GET

    def _drive(self, st):
        """Run every client at once; returns the clients that failed."""
        failed = []
        barrier = threading.Barrier(2 * self.CLIENTS)

        def resp(w: int) -> None:
            with RespClient("127.0.0.1", st.resp_port) as client:
                barrier.wait()
                for i in range(0, self.COMMANDS, 2):
                    client.set(f"r{w}:{i}", b"v%d" % i)
                    assert client.get(f"r{w}:{i}") == b"v%d" % i

        def memcached(w: int) -> None:
            with McClient("127.0.0.1", st.memcached_port) as client:
                barrier.wait()
                for i in range(0, self.COMMANDS, 2):
                    client.set(f"m{w}:{i}", b"v%d" % i)
                    assert client.get(f"m{w}:{i}") == b"v%d" % i

        def run(target, w: int) -> None:
            try:
                target(w)
            except (ConnectionError, OSError):
                failed.append((target.__name__, w))

        threads = [threading.Thread(target=run, args=(target, w))
                   for target in (resp, memcached)
                   for w in range(self.CLIENTS)]
        # Switch threads often, so an unguarded read-modify-write of
        # shared server state would lose updates.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        return failed

    def test_every_command_is_counted_once(self):
        service = CacheService(8192, "s3fifo")
        registry = MetricsRegistry()
        with CacheServer(service, resp_port=0, memcached_port=0,
                         metrics=registry) as st:
            assert self._drive(st) == []
            total = 2 * self.CLIENTS * self.COMMANDS
            counted = sum(
                registry.counter(
                    "repro_net_commands",
                    labels={"protocol": protocol, "command": command},
                ).collect_value()
                for protocol in ("resp", "memcached")
                for command in ("get", "set")
            )
            assert counted == total
            with RespClient("127.0.0.1", st.resp_port) as resp:
                info = resp.info()
            with McClient("127.0.0.1", st.memcached_port) as mc:
                stats = mc.stats()
            for source in (info, stats):
                assert int(source["gets"]) + int(source["sets"]) == total
            for protocol in ("resp", "memcached"):
                assert registry.counter(
                    "repro_net_accepted", labels={"protocol": protocol},
                ).collect_value() == self.CLIENTS + 1

    def test_one_command_reset_window_resets_one_connection(self):
        service = CacheService(8192, "s3fifo")
        registry = MetricsRegistry()
        plan = FaultPlan().add(CONN_RESET, 1000, 1001)
        with CacheServer(service, resp_port=0, memcached_port=0,
                         metrics=registry, fault_plan=plan) as st:
            failed = self._drive(st)
        assert len(failed) == 1
        resets = sum(
            registry.counter("repro_net_resets",
                             labels={"protocol": protocol}).collect_value()
            for protocol in ("resp", "memcached")
        )
        assert resets == 1


class TestServeCommand:
    """``serve --resp-port`` as a process: banner, answers, SIGTERM
    drain, and the exit code of a bind failure."""

    @staticmethod
    def _serve(*args: str) -> subprocess.Popen:
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--objects",
             "1000", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )

    @staticmethod
    def _line(proc: subprocess.Popen, timeout: float = 60.0) -> str:
        ready = select.select([proc.stdout], [], [], timeout)[0]
        assert ready, "no output from serve"
        return proc.stdout.readline().decode()

    def test_answers_then_drains_on_sigterm(self):
        drain_timeout = 1.0
        proc = self._serve("--resp-port", "0",
                           "--drain-timeout", str(drain_timeout))
        try:
            banner = self._line(proc)
            assert banner.startswith("resp: listening on 127.0.0.1:")
            port = int(banner.rsplit(":", 1)[1])
            with RespClient("127.0.0.1", port) as client:
                assert client.ping() == "PONG"
                assert client.set("k", b"v")
                assert client.get("k") == b"v"
                proc.send_signal(signal.SIGTERM)
                assert self._line(proc).startswith("draining:")
            assert proc.wait(timeout=drain_timeout + 10.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()

    def test_bind_failure_exits_2_with_one_stderr_line(self):
        squatter = socket.socket()
        squatter.bind(("127.0.0.1", 0))
        squatter.listen(1)
        port = squatter.getsockname()[1]
        try:
            proc = self._serve("--resp-port", str(port))
            out, err = proc.communicate(timeout=60)
        finally:
            squatter.close()
        assert proc.returncode == 2
        lines = err.decode().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: cannot bind 127.0.0.1 "
                                   f"(resp port {port}): ")
        assert b"listening" not in out


# ----------------------------------------------------------------------
# Full backend matrix: same bytes over every tier (make net).
# ----------------------------------------------------------------------
def _thread_service():
    return CacheService(512, "s3fifo")


def _sharded_service():
    return ShardedCacheService(512, "s3fifo", num_shards=4)


def _mp_pipe_service():
    return MPCacheService(512, "s3fifo", num_workers=2)


def _mp_shm_service():
    return MPCacheService(512, "s3fifo", num_workers=2, transport="shm")


def _cluster_service():
    from repro.cluster import ClusterCacheService
    return ClusterCacheService(512, "s3fifo", num_nodes=2, replication=2)


@pytest.mark.net
@pytest.mark.parametrize("factory", [
    _thread_service, _sharded_service, _mp_pipe_service,
    _mp_shm_service, _cluster_service,
], ids=["thread", "sharded", "mp-pipe", "mp-shm", "cluster"])
class TestBackendMatrix:
    def test_both_protocols_roundtrip(self, factory):
        service = factory()
        try:
            with CacheServer(service, resp_port=0,
                              memcached_port=0) as st:
                resp = RespClient("127.0.0.1", st.resp_port)
                mc = McClient("127.0.0.1", st.memcached_port)
                try:
                    # RESP write, RESP read.
                    assert resp.set("r1", b"alpha")
                    assert resp.get("r1") == b"alpha"
                    assert resp.execute("MGET", "r1", "nope") == \
                        [b"alpha", None]
                    # memcached write, memcached read (flags survive).
                    assert mc.set("m1", b"beta", flags=9)
                    assert mc.get_many(["m1"]) == {"m1": (9, b"beta")}
                    # Cross-protocol: one keyspace behind both ports.
                    assert mc.get_many(["r1"]) == {"r1": (0, b"alpha")}
                    assert resp.get("m1") == b"beta"
                    assert resp.delete("m1") == 1
                    assert mc.get_many(["m1"]) == {}
                    # Pipelined RESP batch over this backend.
                    replies = resp.pipeline(
                        [["SET", f"p{i}", f"{i}"] for i in range(20)]
                        + [["GET", f"p{i}"] for i in range(20)]
                    )
                    assert replies[:20] == ["OK"] * 20
                    assert replies[20:] == [b"%d" % i for i in range(20)]
                    # stats/INFO reflect the backend's real counters.
                    stats = service.stats()
                    mc_stats = mc.stats()
                    info = resp.info()
                    for name in ("hits", "misses", "sets"):
                        assert mc_stats[name] == str(stats[name])
                        assert info[name] == str(stats[name])
                finally:
                    resp.close()
                    mc.close()
        finally:
            if hasattr(service, "close"):
                service.close()
