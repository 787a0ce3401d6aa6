"""Split-boundary fuzz for the RESP and memcached streaming parsers.

The server hands each parser whatever chunks the kernel delivers, so
the parsers must not care where a stream is cut.  For a generated
stream of valid commands mixed with junk, feeding it split at
arbitrary points must yield the same commands as one ``feed`` or fail
with the same protocol error; the commands yielded before an error
must agree with byte-at-a-time feeding; and after every feed the
buffered bytes must stay within the value limit plus the line limit.
Small limits make the generated streams hit every limit path.
"""

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsrv import (
    McParser,
    McProtocolError,
    RespParser,
    RespProtocolError,
)

FUZZ = settings(max_examples=150, deadline=None)

MAX_BULK = 16
MAX_INLINE = 24
RESP_BOUND = MAX_BULK + MAX_INLINE + 4  # bulk header + CRLFs

MAX_VALUE = 16
MAX_LINE = 24
MC_BOUND = MAX_VALUE + MAX_LINE + 2


def resp_cmd(args):
    return b"*%d\r\n" % len(args) + b"".join(
        b"$%d\r\n%s\r\n" % (len(a), a) for a in args
    )


_word = st.text("abcXYZ019-_", min_size=1, max_size=6).map(str.encode)
_junk = st.binary(max_size=12)

_resp_item = st.one_of(
    st.lists(st.binary(max_size=20), min_size=1, max_size=4).map(resp_cmd),
    st.lists(_word, min_size=1, max_size=4).map(
        lambda words: b" ".join(words) + b"\r\n"),
    st.sampled_from([b"*0\r\n", b"*-1\r\n", b"\r\n", b" \t\r\n"]),
    st.sampled_from([
        b"*1\r\n:42\r\n", b"*x\r\n", b"*1\r\n$abc\r\n",
        b"*1\r\n$4\r\nPINGXX\r\n", b"*99\r\n", b"A" * 30 + b"\r\n",
    ]),
    _junk,
)


def _mc_set(key, flags, exptime, data, noreply):
    head = b"set %s %d %d %d" % (key, flags, exptime, len(data))
    return head + (b" noreply" if noreply else b"") + b"\r\n" + data + b"\r\n"


_mc_item = st.one_of(
    st.builds(_mc_set, _word, st.integers(0, 99), st.integers(-5, 999),
              st.binary(max_size=24), st.booleans()),
    st.builds(lambda verb, keys: verb + b" " + b" ".join(keys) + b"\r\n",
              st.sampled_from([b"get", b"gets"]),
              st.lists(_word, min_size=1, max_size=6)),
    st.builds(lambda key, noreply: b"delete " + key
              + (b" noreply" if noreply else b"") + b"\r\n",
              _word, st.booleans()),
    st.sampled_from([b"version\r\n", b"stats\r\n", b"quit\r\n",
                     b"frobnicate\r\n", b"\r\n", b"get\r\n",
                     b"set k 0 0\r\n", b"set k a b c\r\n",
                     b"set k 0 0 3\r\nabcXY", b"get " + b"k" * 30 + b"\r\n"]),
    _junk,
)


def outcome(make, chunks, bound):
    """(commands, error message or None), checking the buffer bound."""
    parser = make()
    got = []
    try:
        for chunk in chunks:
            got.extend(parser.feed(chunk))
            assert parser.buffered <= bound
    except (RespProtocolError, McProtocolError) as exc:
        return got, f"{type(exc).__name__}: {exc}"
    return got, None


def check_split_invariance(make, bound, items, data):
    stream = b"".join(items)
    cuts = sorted(set(data.draw(
        st.lists(st.integers(0, len(stream)), max_size=8))))
    bounds = [0] + cuts + [len(stream)]
    chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
    whole = outcome(make, [stream], bound)
    split = outcome(make, chunks, bound)
    if whole[1] is None:
        assert split == whole
        return
    assert split[1] == whole[1]
    bytewise = outcome(
        make, [stream[i:i + 1] for i in range(len(stream))], bound)
    assert bytewise[1] == whole[1]
    assert split[0] == bytewise[0][:len(split[0])]


@FUZZ
@given(items=st.lists(_resp_item, max_size=10), data=st.data())
def test_resp_parser_ignores_chunk_boundaries(items, data):
    check_split_invariance(
        partial(RespParser, max_bulk=MAX_BULK, max_inline=MAX_INLINE,
                max_elements=8),
        RESP_BOUND, items, data)


@FUZZ
@given(items=st.lists(_mc_item, max_size=10), data=st.data())
def test_memcached_parser_ignores_chunk_boundaries(items, data):
    check_split_invariance(
        partial(McParser, max_value_size=MAX_VALUE, max_line=MAX_LINE,
                max_keys=4),
        MC_BOUND, items, data)
