"""The benchmark's own RESP2 client: command encoding, reply decoding and
one blocking connection.

It is separate from :mod:`repro.netsrv.client` so that the cost of the
load generator is the benchmark's, measured on its own
(``client.encode_ns``/``client.decode_ns``), and never the server's.
"""

from __future__ import annotations

import socket
from typing import List, Optional, Tuple


class ErrorReply(str):
    """A ``-ERR ...`` reply, decoded to its text."""


def encode_command(*args: bytes) -> bytes:
    """A command as a RESP2 array of bulk strings."""
    out = [b"*%d\r\n" % len(args)]
    for arg in args:
        out.append(b"$%d\r\n%s\r\n" % (len(arg), arg))
    return b"".join(out)


def decode_reply(buf: bytes, pos: int) -> Optional[Tuple[object, int]]:
    """Decode the reply that starts at ``buf[pos]``.

    Returns ``(value, next_pos)``, or ``None`` while the reply is
    incomplete.  Values: bulk -> ``bytes``, null bulk -> ``None``,
    integer -> ``int``, simple string -> ``str``, error ->
    :class:`ErrorReply`.
    """
    end = buf.find(b"\r\n", pos)
    if end < 0:
        return None
    lead = buf[pos]
    if lead == 0x24:  # '$'
        length = int(buf[pos + 1:end])
        if length < 0:
            return None, end + 2
        stop = end + 2 + length
        if len(buf) < stop + 2:
            return None
        return buf[end + 2:stop], stop + 2
    body = buf[pos + 1:end]
    if lead == 0x2B:  # '+'
        return body.decode(), end + 2
    if lead == 0x3A:  # ':'
        return int(body), end + 2
    if lead == 0x2D:  # '-'
        return ErrorReply(body.decode()), end + 2
    raise ValueError(f"unexpected RESP reply type {chr(lead)!r}")


class Connection:
    """One blocking client connection with a receive buffer."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""
        self._pos = 0

    def send(self, payload: bytes) -> None:
        self.sock.sendall(payload)

    def replies(self, count: int) -> List[object]:
        """Block until ``count`` replies have arrived; return them."""
        out: List[object] = []
        while len(out) < count:
            decoded = decode_reply(self._buf, self._pos)
            if decoded is None:
                chunk = self.sock.recv(1 << 16)
                if not chunk:
                    raise ConnectionError("server closed the connection")
                self._buf = self._buf[self._pos:] + chunk
                self._pos = 0
                continue
            value, self._pos = decoded
            out.append(value)
        return out

    def close(self) -> None:
        self.sock.close()
