"""Incremental RESP2 wire-protocol parser and reply encoders.

RESP2 is the Redis serialization protocol: a client command is an
array of bulk strings (``*2\r\n$3\r\nGET\r\n$1\r\nk\r\n``), a reply is
one of five typed frames (simple string, error, integer, bulk string,
array).  This module implements exactly the subset a cache front-end
needs, as a *streaming* parser: bytes are fed in arbitrary chunks
(:meth:`RespParser.feed`), complete commands come out, and partial
frames — including partially received bulk payloads — wait in the
buffer without any read-until-newline scanning of value bytes (bulk
payloads are consumed by their declared byte count, so a value may
contain ``\r\n`` freely).

Inline commands (``PING\r\n`` typed into netcat) are supported for
debuggability, exactly like Redis: any line not starting with ``*`` is
split on whitespace.

Protocol errors raise :class:`RespProtocolError`.  Redis's behaviour
on a malformed frame is to reply ``-ERR Protocol error: ...`` and
close the connection; the server does the same, so the parser never
tries to resynchronize a corrupted stream.

Limits are explicit constructor arguments (``max_bulk``,
``max_elements``, ``max_inline``) because they are the only defense a
length-prefixed protocol has against a hostile or broken client
declaring a 2 GiB value.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

__all__ = [
    "RespParser",
    "RespProtocolError",
    "encode_array",
    "encode_bulk",
    "encode_error",
    "encode_integer",
    "encode_simple",
    "NIL",
]

#: The RESP2 null bulk string (a GET miss).
NIL = b"$-1\r\n"

CRLF = b"\r\n"


class RespProtocolError(ValueError):
    """The byte stream is not valid RESP2; the connection must close."""


# ----------------------------------------------------------------------
# Encoders (replies are tiny; f-string byte building is the clear form)
# ----------------------------------------------------------------------
def encode_simple(text: str) -> bytes:
    """``+OK\r\n`` — status replies; must not contain CR/LF."""
    return b"+" + text.encode("ascii") + CRLF


def encode_error(text: str) -> bytes:
    """``-ERR ...\r\n`` — error replies; CR/LF stripped defensively."""
    clean = text.replace("\r", " ").replace("\n", " ")
    return b"-" + clean.encode("utf-8", "replace") + CRLF


def encode_integer(value: int) -> bytes:
    return b":" + str(value).encode("ascii") + CRLF


def encode_bulk(payload: Optional[bytes]) -> bytes:
    """A bulk string, or the null bulk for ``None`` (cache miss)."""
    if payload is None:
        return NIL
    return b"$" + str(len(payload)).encode("ascii") + CRLF + payload + CRLF


def encode_array(items: List[bytes]) -> bytes:
    """An array whose elements are already-encoded frames."""
    return b"*" + str(len(items)).encode("ascii") + CRLF + b"".join(items)


# ----------------------------------------------------------------------
# Streaming parser
# ----------------------------------------------------------------------
class RespParser:
    """Feed bytes, collect complete commands (lists of ``bytes`` args).

    State machine with three resting states: between commands, inside
    an array header (some bulk elements still outstanding), and inside
    a bulk payload (``_need`` bytes still to arrive).  The buffer holds
    at most one incomplete frame plus unconsumed pipeline bytes.
    """

    def __init__(
        self,
        max_bulk: int = 1 << 20,
        max_elements: int = 1 << 16,
        max_inline: int = 1 << 16,
    ) -> None:
        self.max_bulk = max_bulk
        self.max_elements = max_elements
        self.max_inline = max_inline
        self._buf = bytearray()
        self._pos = 0
        # In-flight array command: remaining element count, collected args.
        self._pending: Optional[List[bytes]] = None
        self._remaining = 0

    def feed(self, data: bytes) -> List[List[bytes]]:
        """Append ``data``; return every command completed by it."""
        self._buf += data
        out: List[List[bytes]] = []
        while True:
            cmd = self._parse_one()
            if cmd is None:
                break
            out.append(cmd)
        # Compact the consumed prefix so pipelined streams don't grow
        # the buffer without bound.
        if self._pos:
            del self._buf[:self._pos]
            self._pos = 0
        return out

    @property
    def buffered(self) -> int:
        """Unconsumed bytes waiting for the rest of a frame."""
        return len(self._buf) - self._pos

    # ------------------------------------------------------------------
    def _readline(self) -> Optional[bytes]:
        """One CRLF-terminated line, or ``None`` if incomplete.

        A line longer than ``max_inline`` is an error whether or not
        its CRLF has arrived, so the verdict never depends on where the
        stream was split (a trailing ``\r`` may still be half a CRLF).
        """
        idx = self._buf.find(b"\r\n", self._pos)
        if idx < 0:
            if len(self._buf) - self._pos > self.max_inline + 1:
                raise RespProtocolError("too big inline request")
            return None
        if idx - self._pos > self.max_inline:
            raise RespProtocolError("too big inline request")
        line = bytes(self._buf[self._pos:idx])
        self._pos = idx + 2
        return line

    def _parse_bulk(self) -> Optional[bytes]:
        """One ``$<len>\r\n<payload>\r\n`` frame, or ``None`` if short."""
        mark = self._pos
        line = self._readline()
        if line is None:
            return None
        if not line.startswith(b"$"):
            raise RespProtocolError(
                f"expected '$', got {chr(line[0]) if line else ''!r}"
            )
        try:
            length = int(line[1:])
        except ValueError:
            raise RespProtocolError("invalid bulk length") from None
        if length < 0 or length > self.max_bulk:
            raise RespProtocolError("invalid bulk length")
        if len(self._buf) - self._pos < length + 2:
            self._pos = mark  # rewind: wait for the payload
            return None
        payload = bytes(self._buf[self._pos:self._pos + length])
        if self._buf[self._pos + length:self._pos + length + 2] != b"\r\n":
            raise RespProtocolError("bulk payload not CRLF-terminated")
        self._pos += length + 2
        return payload

    def _parse_one(self) -> Optional[List[bytes]]:
        """One complete command, or ``None`` while bytes are missing.

        Empty commands (``*0``, ``*-1``, blank inline lines) are
        skipped in a loop, so no run of them can exhaust the stack.
        """
        while True:
            # Resume an array whose elements are still arriving.
            if self._pending is not None:
                while self._remaining:
                    arg = self._parse_bulk()
                    if arg is None:
                        return None
                    self._pending.append(arg)
                    self._remaining -= 1
                cmd, self._pending = self._pending, None
                return cmd
            if self._pos >= len(self._buf):
                return None
            lead = self._buf[self._pos]
            line = self._readline()
            if line is None:
                return None
            if lead == ord("*"):
                try:
                    count = int(line[1:])
                except ValueError:
                    raise RespProtocolError(
                        "invalid multibulk length") from None
                if count > self.max_elements:
                    raise RespProtocolError("invalid multibulk length")
                # Redis treats *0 and *-1 as an empty command: skip it.
                # Otherwise the header line is consumed for good;
                # missing elements keep the pending state across feeds
                # (never rewound).
                if count > 0:
                    self._pending = []
                    self._remaining = count
                continue
            # Inline command: a plain text line split on whitespace.
            parts = line.split()
            if parts:
                return parts
