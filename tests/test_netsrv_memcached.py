"""memcached text-protocol streaming parser conformance (tier-1).

The contract: data blocks are consumed by byte count (a payload
containing ``\\r\\n`` or even ``get foo\\r\\n`` must never be read as a
command), chunk boundaries are invisible, oversized values are
swallowed without buffering, and a data block whose terminator is not
CRLF raises :class:`McProtocolError` — stream sync is unrecoverable
once the byte count was wrong, so the server closes.

Malformed-but-parseable lines do NOT raise: real memcached answers
``ERROR`` / ``CLIENT_ERROR`` and keeps the connection; the parser
mirrors that by emitting ``("error",)`` / ``("client_error", msg)``
events for the server to answer.
"""

import pytest

from repro.netsrv import McParser, McProtocolError


def set_frame(key: bytes, data: bytes, flags: int = 0, exptime: int = 0,
              noreply: bool = False) -> bytes:
    tail = b" noreply" if noreply else b""
    return (b"set %s %d %d %d%s\r\n" % (key, flags, exptime, len(data), tail)
            + data + b"\r\n")


class TestCommands:
    def test_set_roundtrip_event(self):
        events = McParser().feed(set_frame(b"k", b"hello", flags=7,
                                           exptime=60))
        assert events == [("set", "k", 7, 60, b"hello", False)]

    def test_set_noreply(self):
        events = McParser().feed(set_frame(b"k", b"v", noreply=True))
        assert events == [("set", "k", 0, 0, b"v", True)]

    def test_data_block_is_binary_safe(self):
        """A payload that LOOKS like commands is still just bytes."""
        payload = b"get other\r\nEND\r\n"
        frame = set_frame(b"k", payload)
        events = McParser().feed(frame + b"version\r\n")
        assert events == [("set", "k", 0, 0, payload, False), ("version",)]

    def test_get_and_gets(self):
        parser = McParser()
        assert parser.feed(b"get a b c\r\n") == [("get", ["a", "b", "c"],
                                                  False)]
        assert parser.feed(b"gets a\r\n") == [("get", ["a"], True)]

    def test_delete(self):
        parser = McParser()
        assert parser.feed(b"delete k\r\n") == [("delete", "k", False)]
        assert parser.feed(b"delete k noreply\r\n") == [("delete", "k",
                                                         True)]

    def test_admin_verbs(self):
        assert McParser().feed(b"stats\r\nversion\r\nquit\r\n") == [
            ("stats",), ("version",), ("quit",),
        ]

    def test_unknown_verb_is_error_event(self):
        assert McParser().feed(b"frobnicate\r\n") == [("error",)]

    def test_bare_crlf_skipped(self):
        assert McParser().feed(b"\r\nversion\r\n") == [("version",)]

    def test_long_run_of_bare_crlfs_does_not_recurse(self):
        assert McParser().feed(b"\r\n" * 5000 + b"version\r\n") == [
            ("version",)
        ]


class TestClientErrors:
    @pytest.mark.parametrize("line", [
        b"get\r\n",                       # no keys
        b"set k 0 0\r\n",                 # missing byte count
        b"set k a b c\r\n",               # non-integer fields
        b"set k 0 0 -1\r\n",              # negative byte count
        b"delete\r\n",                    # no key
        b"delete a b\r\n",                # too many keys
    ])
    def test_malformed_known_commands(self, line):
        events = McParser().feed(line)
        assert events == [("client_error", "bad command line format")]

    def test_too_many_keys(self):
        parser = McParser(max_keys=4)
        events = parser.feed(b"get a b c d e\r\n")
        assert events == [("client_error", "bad command line format")]


class TestStreaming:
    def test_byte_at_a_time(self):
        data = set_frame(b"k", b"a\r\nb") + b"get k\r\n"
        parser = McParser()
        got = []
        for i in range(len(data)):
            got.extend(parser.feed(data[i:i + 1]))
        assert got == [("set", "k", 0, 0, b"a\r\nb", False),
                       ("get", ["k"], False)]
        assert parser.buffered == 0

    def test_split_inside_data_block(self):
        parser = McParser()
        assert parser.feed(b"set k 0 0 5\r\nhel") == []
        assert parser.feed(b"lo\r\n") == [("set", "k", 0, 0, b"hello",
                                           False)]

    def test_bad_data_chunk_terminator_raises(self):
        parser = McParser()
        with pytest.raises(McProtocolError, match="bad data chunk"):
            parser.feed(b"set k 0 0 5\r\nhelloXXget k\r\n")

    def test_command_line_too_long_raises(self):
        parser = McParser(max_line=64)
        with pytest.raises(McProtocolError, match="too long"):
            parser.feed(b"get " + b"k" * 128)

    def test_line_limit_does_not_depend_on_the_split(self):
        """An over-long line fails even when its CRLF is in the chunk;
        one of exactly ``max_line`` bytes passes even when split
        between its CR and LF."""
        with pytest.raises(McProtocolError, match="too long"):
            McParser(max_line=8).feed(b"get " + b"k" * 5 + b"\r\n")
        parser = McParser(max_line=8)
        assert parser.feed(b"get kkkk\r") == []
        assert parser.feed(b"\n") == [("get", ["kkkk"], False)]


class TestOversized:
    def test_oversized_set_swallowed_not_buffered(self):
        parser = McParser(max_value_size=16)
        big = b"X" * 1024
        events = parser.feed(b"set k 0 0 1024\r\n")
        assert events == []
        # Feed the payload in chunks: the parser must discard eagerly,
        # never holding the oversized bytes.
        for i in range(0, 1024, 64):
            events = parser.feed(big[i:i + 64])
            assert parser.buffered <= 64
        assert events == []
        assert parser.feed(b"\r\n") == [("too_large", "k", 1024, False)]

    def test_stream_resyncs_after_oversized_value(self):
        parser = McParser(max_value_size=4)
        data = (b"set k 0 0 10\r\n" + b"Y" * 10 + b"\r\n" + b"version\r\n")
        assert parser.feed(data) == [("too_large", "k", 10, False),
                                     ("version",)]
