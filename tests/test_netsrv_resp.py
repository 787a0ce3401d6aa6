"""RESP2 streaming parser + encoder conformance (no sockets, tier-1).

The parser contract under test: arbitrary chunk boundaries never change
what is parsed, payloads are binary-safe (a value containing ``\\r\\n``
must survive), pipelined streams yield every completed command per
feed, and malformed frames raise :class:`RespProtocolError` — the
server turns that into one ``-ERR Protocol error`` reply and a close,
which is Redis's behaviour.
"""

import pytest

from repro.netsrv import (
    NIL,
    RespParser,
    RespProtocolError,
    encode_array,
    encode_bulk,
    encode_error,
    encode_integer,
    encode_simple,
)


def cmd(*args: bytes) -> bytes:
    """Client-side RESP encoding: an array of bulk strings."""
    out = b"*%d\r\n" % len(args)
    for a in args:
        out += b"$%d\r\n%s\r\n" % (len(a), a)
    return out


class TestEncoders:
    def test_frames(self):
        assert encode_simple("OK") == b"+OK\r\n"
        assert encode_error("ERR boom") == b"-ERR boom\r\n"
        assert encode_integer(42) == b":42\r\n"
        assert encode_integer(-1) == b":-1\r\n"
        assert encode_bulk(b"hello") == b"$5\r\nhello\r\n"
        assert encode_bulk(b"") == b"$0\r\n\r\n"
        assert encode_bulk(None) == NIL == b"$-1\r\n"
        assert encode_array([encode_bulk(b"a"), NIL]) == (
            b"*2\r\n$1\r\na\r\n$-1\r\n"
        )

    def test_bulk_is_binary_safe(self):
        payload = b"a\r\nb\x00c"
        frame = encode_bulk(payload)
        assert RespParser().feed(cmd(b"ECHO", payload)) == [
            [b"ECHO", payload]
        ]
        assert frame == b"$6\r\na\r\nb\x00c\r\n"


class TestParser:
    def test_single_command(self):
        assert RespParser().feed(cmd(b"GET", b"k")) == [[b"GET", b"k"]]

    def test_pipelined_commands_in_one_feed(self):
        data = cmd(b"SET", b"k", b"v") + cmd(b"GET", b"k") + cmd(b"PING")
        assert RespParser().feed(data) == [
            [b"SET", b"k", b"v"], [b"GET", b"k"], [b"PING"],
        ]

    def test_byte_at_a_time(self):
        """Chunk boundaries are invisible: same commands, any split."""
        data = cmd(b"MSET", b"a", b"1", b"b", b"2") + cmd(b"PING")
        parser = RespParser()
        got = []
        for i in range(len(data)):
            got.extend(parser.feed(data[i:i + 1]))
        assert got == [[b"MSET", b"a", b"1", b"b", b"2"], [b"PING"]]
        assert parser.buffered == 0

    def test_split_inside_bulk_payload(self):
        parser = RespParser()
        frame = cmd(b"SET", b"k", b"a\r\nb")
        cut = frame.index(b"a\r\nb") + 2  # mid-payload, after the \r
        assert parser.feed(frame[:cut]) == []
        assert parser.feed(frame[cut:]) == [[b"SET", b"k", b"a\r\nb"]]

    def test_inline_commands(self):
        parser = RespParser()
        assert parser.feed(b"PING\r\n") == [[b"PING"]]
        assert parser.feed(b"GET  k1 \r\n") == [[b"GET", b"k1"]]
        # Blank inline lines are skipped, not commands.
        assert parser.feed(b"\r\n \r\nPING\r\n") == [[b"PING"]]

    def test_inline_mixed_with_arrays(self):
        data = b"PING\r\n" + cmd(b"GET", b"k") + b"QUIT\r\n"
        assert RespParser().feed(data) == [[b"PING"], [b"GET", b"k"],
                                           [b"QUIT"]]

    def test_empty_and_null_arrays_are_skipped(self):
        assert RespParser().feed(b"*0\r\n" + cmd(b"PING")) == [[b"PING"]]
        assert RespParser().feed(b"*-1\r\n" + cmd(b"PING")) == [[b"PING"]]

    def test_invalid_bulk_length(self):
        with pytest.raises(RespProtocolError, match="invalid bulk length"):
            RespParser().feed(b"*1\r\n$abc\r\n")
        with pytest.raises(RespProtocolError, match="invalid bulk length"):
            RespParser().feed(b"*1\r\n$-5\r\n")

    def test_oversized_bulk_rejected_before_payload_arrives(self):
        parser = RespParser(max_bulk=16)
        with pytest.raises(RespProtocolError, match="invalid bulk length"):
            parser.feed(b"*2\r\n$3\r\nSET\r\n$9999999\r\n")

    def test_bulk_payload_must_end_with_crlf(self):
        with pytest.raises(RespProtocolError, match="not CRLF-terminated"):
            RespParser().feed(b"*1\r\n$4\r\nPINGXX\r\n")

    def test_array_element_must_be_bulk(self):
        with pytest.raises(RespProtocolError, match="expected '\\$'"):
            RespParser().feed(b"*1\r\n:42\r\n")

    def test_invalid_multibulk_length(self):
        with pytest.raises(RespProtocolError, match="invalid multibulk"):
            RespParser().feed(b"*xyz\r\n")
        with pytest.raises(RespProtocolError, match="invalid multibulk"):
            RespParser(max_elements=4).feed(b"*5000\r\n")

    def test_unterminated_inline_line_hits_limit(self):
        parser = RespParser(max_inline=32)
        with pytest.raises(RespProtocolError, match="too big inline"):
            parser.feed(b"X" * 64)

    def test_buffered_counts_incomplete_frame(self):
        parser = RespParser()
        parser.feed(b"*2\r\n$3\r\nGET\r\n$5\r\nhel")
        assert parser.buffered > 0
        assert parser.feed(b"lo\r\n") == [[b"GET", b"hello"]]
        assert parser.buffered == 0

    def test_pending_array_state_survives_feeds(self):
        """The array header is consumed once; elements trickle in."""
        parser = RespParser()
        assert parser.feed(b"*3\r\n") == []
        assert parser.feed(b"$3\r\nSET\r\n") == []
        assert parser.feed(b"$1\r\nk\r\n$1\r\nv\r\n") == [
            [b"SET", b"k", b"v"]
        ]

    def test_long_runs_of_empty_commands_do_not_recurse(self):
        """Skipped empty commands are a loop, not one frame each."""
        assert RespParser().feed(b"\r\n" * 5000 + cmd(b"PING")) == [
            [b"PING"]
        ]
        assert RespParser().feed(b"*0\r\n" * 5000 + b"*-1\r\n" * 5000
                                 + b"PING\r\n") == [[b"PING"]]

    def test_line_limit_does_not_depend_on_the_split(self):
        """An over-long line fails even when its CRLF is in the chunk;
        one of exactly ``max_inline`` bytes passes even when split
        between its CR and LF."""
        with pytest.raises(RespProtocolError, match="too big inline"):
            RespParser(max_inline=8).feed(b"X" * 9 + b"\r\n")
        parser = RespParser(max_inline=8)
        assert parser.feed(b"PING 123\r") == []
        assert parser.feed(b"\n") == [[b"PING", b"123"]]
