"""Incremental memcached text-protocol parser and reply encoders.

The memcached text protocol is line-oriented for commands but
*length*-oriented for values: ``set <key> <flags> <exptime> <bytes>``
is followed by exactly ``<bytes>`` payload bytes and a trailing CRLF.
This parser consumes the payload by its declared count — a value may
contain ``\r\n`` or even look like another command without confusing
the stream — and survives arbitrary chunk boundaries, including one
that lands inside the data block (the conformance tests pin this).

Covered commands: ``get``/``gets`` (multi-key), ``set`` (with
``noreply``), ``delete`` (with ``noreply``), ``stats``, ``version``,
``quit``.  Everything else yields an ``("error",)`` command the server
answers with ``ERROR\r\n`` — the protocol's own unknown-command reply
— while malformed *known* commands yield ``("client_error", msg)``
(answered ``CLIENT_ERROR <msg>\r\n``, connection kept).

An oversized ``set`` is special-cased: the declared payload is larger
than the server will store, but the protocol demands the data block be
consumed anyway (the client has already committed to sending it), so
the parser swallows it in :data:`_SWALLOW` state and then emits a
``("too_large", ...)`` command — the server answers ``SERVER_ERROR
object too large for cache`` without ever buffering the oversized
value.

``exptime`` follows memcached semantics: ``0`` never expires, a
positive value up to 30 days is relative seconds, anything larger is
an absolute unix timestamp, and a negative value expires immediately.
The conversion to a service TTL happens in the server (it owns the
clock); the parser passes the raw integer through.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

__all__ = ["McParser", "McProtocolError", "RELATIVE_EXPTIME_CEILING"]

CRLF = b"\r\n"

#: memcached's 30-day threshold: exptime above this is an absolute
#: unix timestamp, at or below it is seconds-from-now.
RELATIVE_EXPTIME_CEILING = 60 * 60 * 24 * 30

# Parser states.
_LINE = 0      # awaiting a command line
_DATA = 1      # awaiting a set payload of _need bytes + CRLF
_SWALLOW = 2   # discarding an oversized payload of _need bytes + CRLF


class McProtocolError(ValueError):
    """The stream is unrecoverably malformed; the connection must close."""


class McParser:
    """Feed bytes, collect complete commands as tagged tuples.

    Emitted command shapes::

        ("get",  [key, ...], with_cas)        # get/gets
        ("set",  key, flags, exptime, data, noreply)
        ("too_large", key, nbytes, noreply)   # oversized set, data eaten
        ("delete", key, noreply)
        ("stats",) / ("version",) / ("quit",)
        ("error",)                            # unknown command line
        ("client_error", message)             # malformed known command

    Keys are ``str`` (decoded utf-8/surrogateescape so arbitrary bytes
    survive); payloads are ``bytes``.
    """

    def __init__(self, max_value_size: int = 1 << 20,
                 max_line: int = 8192, max_keys: int = 1 << 10) -> None:
        self.max_value_size = max_value_size
        self.max_line = max_line
        self.max_keys = max_keys
        self._buf = bytearray()
        self._state = _LINE
        self._need = 0
        self._swallowed = 0
        self._head: Tuple = ()

    def feed(self, data: bytes) -> List[Tuple]:
        self._buf += data
        out: List[Tuple] = []
        while True:
            cmd = self._step()
            if cmd is None:
                break
            out.append(cmd)
        return out

    @property
    def buffered(self) -> int:
        return len(self._buf)

    # ------------------------------------------------------------------
    def _step(self) -> Optional[Tuple]:
        while self._state == _LINE:
            # A line over max_line fails whether or not its CRLF has
            # arrived (a trailing \r may be half of one), so the verdict
            # never depends on where the stream was split.
            idx = self._buf.find(CRLF)
            if idx > self.max_line or (
                    idx < 0 and len(self._buf) > self.max_line + 1):
                raise McProtocolError("command line too long")
            if idx < 0:
                return None
            parts = bytes(self._buf[:idx]).split()
            del self._buf[:idx + 2]
            if parts:  # a bare CRLF is skipped
                return self._parse_line(parts)
        # _DATA / _SWALLOW: the payload plus its CRLF terminator.
        if len(self._buf) < self._need + 2:
            if self._state == _SWALLOW:
                # Discard eagerly: never hold the oversized bytes.
                eat = min(len(self._buf), self._need)
                del self._buf[:eat]
                self._need -= eat
            return None
        payload = bytes(self._buf[:self._need])
        terminator = bytes(self._buf[self._need:self._need + 2])
        del self._buf[:self._need + 2]
        head, self._head = self._head, ()
        swallowing = self._state == _SWALLOW
        self._state = _LINE
        if terminator != CRLF:
            # The client lied about the byte count: stream sync is
            # unrecoverable, so the server answers CLIENT_ERROR bad
            # data chunk and closes.
            raise McProtocolError("bad data chunk")
        if swallowing:
            key, noreply = head
            return ("too_large", key, self._swallowed, noreply)
        key, flags, exptime, noreply = head
        return ("set", key, flags, exptime, payload, noreply)

    def _parse_line(self, parts: List[bytes]) -> Optional[Tuple]:
        verb = parts[0]
        if verb in (b"get", b"gets"):
            keys = [p.decode("utf-8", "surrogateescape") for p in parts[1:]]
            if not keys or len(keys) > self.max_keys:
                return ("client_error", "bad command line format")
            return ("get", keys, verb == b"gets")
        if verb == b"set":
            noreply = parts[-1] == b"noreply"
            fields = parts[1:-1] if noreply else parts[1:]
            if len(fields) != 4:
                return ("client_error", "bad command line format")
            key = fields[0].decode("utf-8", "surrogateescape")
            try:
                flags = int(fields[1])
                exptime = int(fields[2])
                nbytes = int(fields[3])
            except ValueError:
                return ("client_error", "bad command line format")
            if nbytes < 0:
                return ("client_error", "bad command line format")
            if nbytes > self.max_value_size:
                self._state = _SWALLOW
                self._need = nbytes
                self._swallowed = nbytes
                self._head = (key, noreply)
                return self._step()
            self._state = _DATA
            self._need = nbytes
            self._head = (key, flags, exptime, noreply)
            return self._step()
        if verb == b"delete":
            noreply = parts[-1] == b"noreply"
            fields = parts[1:-1] if noreply else parts[1:]
            if len(fields) != 1:
                return ("client_error", "bad command line format")
            return ("delete", fields[0].decode("utf-8", "surrogateescape"),
                    noreply)
        if verb == b"stats":
            return ("stats",)
        if verb == b"version":
            return ("version",)
        if verb == b"quit":
            return ("quit",)
        return ("error",)
