"""Differential validation: every ``*-fast`` policy vs. its reference.

The fast policies promise *bit-identical decisions*, not approximate
ones: same hit/miss result per request, same eviction sequence with
the same (key, size, freq, insert_time, evict_time) tuples, same final
stats.  These tests drive both implementations over seeded Zipf and
SCAN traces at several cache sizes, through both the streaming and the
batched entry points, so neither path can drift from the reference.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import fast_lru
from repro.cache.registry import create_policy
from repro.sim.request import Request
from repro.sim.simulator import simulate, windowed_miss_ratios
from repro.traces.compiled import compile_trace
from repro.traces.synthetic import scan_trace, zipf_trace

PAIRS = [
    ("fifo", "fifo-fast"),
    ("lru", "lru-fast"),
    ("sieve", "sieve-fast"),
    ("s3fifo", "s3fifo-fast"),
]

ZIPF = zipf_trace(num_objects=800, num_requests=12_000, alpha=1.0, seed=11)
SCAN = scan_trace(num_objects=600, repeats=15)
_rng = random.Random(99)
SIZED = [(key, _rng.randint(1, 40)) for key in ZIPF[:8_000]]


def _stats(policy):
    s = policy.stats
    return (
        s.requests, s.hits, s.misses, s.evictions,
        s.bytes_requested, s.bytes_missed,
    )


def _stream(policy, items):
    hits = []
    for item in items:
        req = (
            Request(item[0], size=item[1])
            if isinstance(item, tuple)
            else Request(item)
        )
        hits.append(policy.request(req))
    return hits


def _events(policy):
    log = []
    policy.add_eviction_listener(
        lambda e: log.append(
            (e.key, e.size, e.freq, e.insert_time, e.evict_time)
        )
    )
    return log


@pytest.mark.parametrize("ref_name,fast_name", PAIRS)
@pytest.mark.parametrize("capacity", [8, 64, 300])
class TestDifferentialZipf:
    def test_streaming_hit_sequences_identical(
        self, ref_name, fast_name, capacity
    ):
        ref = create_policy(ref_name, capacity)
        fast = create_policy(fast_name, capacity)
        assert _stream(ref, ZIPF) == _stream(fast, ZIPF)
        assert _stats(ref) == _stats(fast)

    def test_batched_stats_and_events_identical(
        self, ref_name, fast_name, capacity
    ):
        ref = create_policy(ref_name, capacity)
        ref_events = _events(ref)
        _stream(ref, ZIPF)

        fast = create_policy(fast_name, capacity)
        fast_events = _events(fast)
        fast.run_compiled(compile_trace(ZIPF))
        assert _stats(ref) == _stats(fast)
        assert ref_events == fast_events
        assert ref.clock == fast.clock

    def test_batched_no_listeners_stats_identical(
        self, ref_name, fast_name, capacity
    ):
        # No listeners: the batch loops count evictions locally and
        # never write their state back mid-run — stats and residency
        # must still match exactly.
        ref = create_policy(ref_name, capacity)
        _stream(ref, ZIPF)
        fast = create_policy(fast_name, capacity)
        fast.run_compiled(compile_trace(ZIPF))
        assert _stats(ref) == _stats(fast)
        assert len(ref) == len(fast)
        for key in set(ZIPF):
            assert (key in ref) == (key in fast)


@pytest.mark.parametrize("ref_name,fast_name", PAIRS)
class TestDifferentialOther:
    def test_scan_trace(self, ref_name, fast_name):
        ref = create_policy(ref_name, 100)
        fast = create_policy(fast_name, 100)
        assert _stream(ref, SCAN) == _stream(fast, SCAN)
        assert _stats(ref) == _stats(fast)

    @pytest.mark.parametrize("capacity", [150, 1200])
    def test_sized_trace_events(self, ref_name, fast_name, capacity):
        ref = create_policy(ref_name, capacity)
        ref_events = _events(ref)
        _stream(ref, SIZED)

        fast = create_policy(fast_name, capacity)
        fast_events = _events(fast)
        fast.run_compiled(compile_trace(SIZED))
        assert _stats(ref) == _stats(fast)
        assert ref_events == fast_events

    def test_oversized_requests_counted_never_admitted(
        self, ref_name, fast_name
    ):
        items = [("big", 500), ("a", 1), ("big", 500), ("b", 2)]
        ref = create_policy(ref_name, 10)
        fast = create_policy(fast_name, 10)
        assert _stream(ref, items) == _stream(fast, items)
        assert _stats(ref) == _stats(fast)
        assert "big" not in fast

    def test_oversized_request_on_resident_key(self, ref_name, fast_name):
        # base.request rejects oversized requests before the residency
        # lookup: the key stays cached, untouched, and the request is a
        # miss.  The batch loops must preserve that exact order.
        items = [("a", 3), ("a", 50), ("a", 3)]
        ref = create_policy(ref_name, 10)
        assert _stream(ref, items) == [False, False, True]
        fast = create_policy(fast_name, 10)
        fast.run_compiled(compile_trace(items))
        assert _stats(ref) == _stats(fast)
        assert "a" in fast

    def test_simulate_with_warmup(self, ref_name, fast_name):
        ref_result = simulate(create_policy(ref_name, 60), ZIPF, warmup=0.3)
        fast_result = simulate(
            create_policy(fast_name, 60), compile_trace(ZIPF), warmup=0.3
        )
        for field in (
            "requests", "misses", "bytes_requested", "bytes_missed",
            "evictions", "warmup_requests", "warmup_evictions",
        ):
            assert getattr(ref_result, field) == getattr(fast_result, field)

    def test_windowed_miss_ratios(self, ref_name, fast_name):
        ref_ratios = windowed_miss_ratios(
            create_policy(ref_name, 60), ZIPF, window=700
        )
        fast_ratios = windowed_miss_ratios(
            create_policy(fast_name, 60), compile_trace(ZIPF), window=700
        )
        assert ref_ratios == fast_ratios

    def test_streaming_then_batch_then_streaming(self, ref_name, fast_name):
        """The two entry points interleave without state divergence."""
        ref = create_policy(ref_name, 40)
        fast = create_policy(fast_name, 40)
        head, mid, tail = ZIPF[:3000], ZIPF[3000:6000], ZIPF[6000:9000]
        assert _stream(ref, head) == _stream(fast, head)
        fast.run_compiled(compile_trace(mid))
        _stream(ref, mid)
        assert _stream(ref, tail) == _stream(fast, tail)
        assert _stats(ref) == _stats(fast)


@pytest.mark.parametrize("ref_name,fast_name", PAIRS)
class TestSlotMap:
    """A fresh twin's slots are the trace's key ids and its key maps are
    the trace's own; a used twin interns the trace's key table."""

    def test_shared_key_maps_never_leak_into_the_trace(
        self, ref_name, fast_name
    ):
        trace = compile_trace(ZIPF)
        table = list(trace.key_table)
        index = dict(trace.key_index())
        num_objects = trace.num_objects
        fast = create_policy(fast_name, 64)
        fast.run_compiled(trace)
        assert fast._key_of is trace.key_table
        assert not fast.request(Request("not-in-trace"))
        assert "not-in-trace" in fast
        if fast.supports_removal:
            resident = next(key for key in table if key in fast)
            assert fast.remove(resident)
            assert resident not in fast
        assert trace.key_table == table
        assert trace.key_index() == index
        assert trace.num_objects == num_objects

        ref = create_policy(ref_name, 64)
        ref_events = _events(ref)
        _stream(ref, ZIPF)
        again = create_policy(fast_name, 64)
        again_events = _events(again)
        again.run_compiled(trace)
        assert _stats(ref) == _stats(again)
        assert ref_events == again_events

    def test_used_twin_alternates_traces(self, ref_name, fast_name):
        # B shares some keys with A and adds new ones, so the twin
        # shares A's maps, copies them on B's first new key, and then
        # maps A through its own, complete, interning table.
        a = ZIPF[:5000]
        b = [key + 500 for key in ZIPF[5000:10000]]
        ref = create_policy(ref_name, 64)
        ref_events = _events(ref)
        fast = create_policy(fast_name, 64)
        fast_events = _events(fast)
        for items in (a, b, a):
            _stream(ref, items)
            fast.run_compiled(compile_trace(items))
            assert _stats(ref) == _stats(fast)
            assert ref.clock == fast.clock
        assert ref_events == fast_events
        for key in set(a) | set(b):
            assert (key in ref) == (key in fast)


class TestS3FifoFastSpecifics:
    def test_demotion_events_identical(self):
        ref = create_policy("s3fifo", 64)
        fast = create_policy("s3fifo-fast", 64)
        ref_log, fast_log = [], []
        ref.add_demotion_listener(
            lambda e: ref_log.append(
                (e.key, e.size, e.insert_time, e.demote_time, e.promoted)
            )
        )
        fast.add_demotion_listener(
            lambda e: fast_log.append(
                (e.key, e.size, e.insert_time, e.demote_time, e.promoted)
            )
        )
        _stream(ref, ZIPF)
        fast.run_compiled(compile_trace(ZIPF))
        assert ref_log == fast_log
        assert len(ref_log) > 0

    def test_queue_introspection_parity(self):
        ref = create_policy("s3fifo", 50)
        fast = create_policy("s3fifo-fast", 50)
        _stream(ref, ZIPF[:4000])
        fast.run_compiled(compile_trace(ZIPF[:4000]))
        assert fast.small_capacity == ref.small_capacity
        assert fast.main_capacity == ref.main_capacity
        assert fast.small_used == ref.small_used
        assert fast.main_used == ref.main_used
        assert fast.ghost_len == len(ref.ghost)
        assert fast.ghost_capacity == ref.ghost.capacity
        for key in set(ZIPF[:4000]):
            assert fast.in_small(key) == ref.in_small(key)
            assert fast.in_main(key) == ref.in_main(key)
            assert fast.in_ghost(key) == (key in ref.ghost)

    def test_freq_cap_must_fit_two_bits(self):
        with pytest.raises(ValueError):
            create_policy("s3fifo-fast", 10, freq_cap=4)
        with pytest.raises(ValueError):
            create_policy("s3fifo-fast", 10, freq_cap=0)

    def test_custom_parameters_match_reference(self):
        kwargs = dict(
            small_ratio=0.25, ghost_entries=30, move_to_main_threshold=1
        )
        ref = create_policy("s3fifo", 40, **kwargs)
        fast = create_policy("s3fifo-fast", 40, **kwargs)
        assert _stream(ref, ZIPF) == _stream(fast, ZIPF)
        assert _stats(ref) == _stats(fast)

    def test_zero_ghost_entries(self):
        ref = create_policy("s3fifo", 40, ghost_entries=0)
        fast = create_policy("s3fifo-fast", 40, ghost_entries=0)
        fast.run_compiled(compile_trace(ZIPF))
        _stream(ref, ZIPF)
        assert _stats(ref) == _stats(fast)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    capacity=st.integers(2, 120),
    alpha=st.floats(0.6, 1.4),
    pair=st.sampled_from(PAIRS),
)
def test_property_differential_zipf(seed, capacity, alpha, pair):
    ref_name, fast_name = pair
    items = zipf_trace(
        num_objects=300, num_requests=2_500, alpha=alpha, seed=seed
    )
    ref = create_policy(ref_name, capacity)
    fast = create_policy(fast_name, capacity)
    assert _stream(ref, items) == _stream(fast, items)
    fast_batch = create_policy(fast_name, capacity)
    fast_batch.run_compiled(compile_trace(items))
    assert _stats(ref) == _stats(fast) == _stats(fast_batch)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    capacity=st.integers(20, 400),
    pair=st.sampled_from(PAIRS),
)
def test_property_differential_sized(seed, capacity, pair):
    ref_name, fast_name = pair
    rng = random.Random(seed)
    keys = zipf_trace(num_objects=200, num_requests=1_500, alpha=1.0, seed=seed)
    items = [(k, rng.randint(1, 25)) for k in keys]
    ref = create_policy(ref_name, capacity)
    ref_events = _events(ref)
    _stream(ref, items)
    fast = create_policy(fast_name, capacity)
    fast_events = _events(fast)
    fast.run_compiled(compile_trace(items))
    assert _stats(ref) == _stats(fast)
    assert ref_events == fast_events


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    capacity=st.integers(20, 400),
    pair=st.sampled_from(PAIRS),
)
def test_property_differential_sized_no_listeners(seed, capacity, pair):
    """The quiet batch path, where a miss may evict several objects and
    nothing is written back until the loop ends: a streaming
    continuation after the batch must see the reference's state."""
    ref_name, fast_name = pair
    rng = random.Random(seed)
    keys = zipf_trace(num_objects=200, num_requests=2_000, alpha=0.9, seed=seed)
    items = [(k, rng.randint(1, 25)) for k in keys]
    head, tail = items[:1_500], items[1_500:]
    ref = create_policy(ref_name, capacity)
    _stream(ref, head)
    fast = create_policy(fast_name, capacity)
    fast.run_compiled(compile_trace(head))
    assert _stats(ref) == _stats(fast)
    assert (ref.used, len(ref), ref.clock) == (fast.used, len(fast), fast.clock)
    for key in set(keys):
        assert (key in ref) == (key in fast)
    if fast_name == "s3fifo-fast":
        assert (fast.small_used, fast.main_used) == (
            ref.small_used, ref.main_used)
        assert (fast.ghost_len, fast.ghost_capacity) == (
            len(ref.ghost), ref.ghost.capacity)
        for key in set(keys):
            assert fast.in_ghost(key) == (key in ref.ghost)
    assert _stream(ref, tail) == _stream(fast, tail)
    assert _stats(ref) == _stats(fast)
    assert (ref.used, len(ref)) == (fast.used, len(fast))


@pytest.mark.parametrize("ref_name,fast_name", PAIRS)
@pytest.mark.parametrize("items", [ZIPF, SIZED], ids=["unit", "sized"])
def test_listeners_see_written_back_state(ref_name, fast_name, items):
    """A listener inside an eviction (or demotion) callback reads the
    same ``used``, ``len()`` and clock from the twin's batch loop as
    from the reference's streaming run: the loop writes its local
    state back before it notifies."""

    def watch(policy):
        seen = []
        policy.add_eviction_listener(
            lambda e: seen.append(
                ("evict", e.key, policy.used, len(policy), policy.clock)
            )
        )
        policy.add_demotion_listener(
            lambda e: seen.append(
                ("demote", e.key, policy.used, len(policy), policy.clock)
            )
        )
        return seen

    ref = create_policy(ref_name, 64)
    ref_seen = watch(ref)
    _stream(ref, items)
    fast = create_policy(fast_name, 64)
    fast_seen = watch(fast)
    fast.run_compiled(compile_trace(items))
    assert len(ref_seen) > 100
    assert ref_seen == fast_seen


def _recency(policy):
    """Resident keys, least recently used first, of ``lru`` or
    ``lru-fast``: the reference list from tail to head, the twin's live
    log entries oldest first."""
    if policy.name == "lru":
        return [node.data.key for node in policy._list.iter_from_tail()]
    last = policy._last
    return [
        policy._key_of[slot]
        for p, slot in enumerate(policy._log)
        if last[slot] == p
    ]


def _lru_trace(seed, sized, capacity):
    """A Zipf trace; sized ones carry oversized requests, which land on
    resident keys (popular ones) as well as absent ones."""
    rng = random.Random(seed)
    keys = zipf_trace(num_objects=150, num_requests=1_500, alpha=1.1,
                      seed=seed)
    if not sized:
        return keys
    return [
        (k, capacity + 1 if rng.random() < 0.05 else rng.randint(1, 6))
        for k in keys
    ]


_LRU_STEP = st.one_of(
    st.tuples(st.sampled_from(["stream", "batch"]),
              st.integers(1, 1_500)),
    st.tuples(st.just("windows"), st.integers(1, 1_500),
              st.integers(1, 200)),
    st.tuples(st.just("remove"), st.integers(0, 149)),
    st.tuples(st.just("switch")),
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    capacity=st.integers(2, 80),
    sized=st.tuples(st.booleans(), st.booleans()),
    listening=st.booleans(),
    chunk=st.sampled_from([1, 5, 64, fast_lru.CHUNK]),
    slack=st.sampled_from([0, 7, fast_lru.SLACK]),
    steps=st.lists(_LRU_STEP, min_size=1, max_size=12),
)
def test_property_lru_interleaved_operations(
    seed, capacity, sized, listening, chunk, slack, steps
):
    """``lru-fast`` against ``lru`` under any mix of streaming segments,
    ``run_compiled`` spans, window-sized spans, ``remove()`` and a
    second trace: after every step the stats, eviction events,
    membership, ``used``, ``len()``, clock and the whole recency order
    agree, so neither a stale stamp left by an earlier call nor a
    restamping error in ``_compact`` can hide.  Small ``CHUNK`` and
    ``SLACK`` values put chunk boundaries and compactions inside short
    spans; without a listener the batch loop takes its quiet path."""
    traces = [
        _lru_trace(seed + n, is_sized, capacity)
        for n, is_sized in enumerate(sized)
    ]
    compiled = [compile_trace(items) for items in traces]
    keys = sorted({item[0] if isinstance(item, tuple) else item
                   for items in traces for item in items})
    ref = create_policy("lru", capacity)
    fast = create_policy("lru-fast", capacity)
    ref_events = _events(ref)
    fast_events = _events(fast) if listening else None
    current = 0
    pos = [0, 0]
    with mock.patch.object(fast_lru, "CHUNK", chunk), \
            mock.patch.object(fast_lru, "SLACK", slack):
        for step in steps:
            op = step[0]
            if op == "switch":
                current = 1 - current
                continue
            if op == "remove":
                key = keys[step[1] % len(keys)]
                assert ref.remove(key) == fast.remove(key)
            else:
                items = traces[current]
                start = pos[current]
                stop = min(len(items), start + step[1])
                pos[current] = stop if stop < len(items) else 0
                ref_hits = _stream(ref, items[start:stop])
                if op == "stream":
                    assert _stream(fast, items[start:stop]) == ref_hits
                else:
                    window = step[2] if op == "windows" else stop - start
                    for lo in range(start, stop, max(1, window)):
                        fast.run_compiled(compiled[current], lo,
                                          min(stop, lo + window))
            assert _stats(ref) == _stats(fast)
            if listening:
                assert ref_events == fast_events
            assert (ref.used, len(ref), ref.clock) == (
                fast.used, len(fast), fast.clock)
            assert _recency(ref) == _recency(fast)
            if op in ("batch", "windows") and stop > start:
                # every chunk ends with a compaction check
                assert len(fast._log) <= 2 * len(fast) + slack
            for key in keys:
                assert (key in ref) == (key in fast)


class TestLruLogBound:
    """No workload grows ``lru-fast``'s access log without bound: after
    any call it holds at most ``2 * len(cache) + SLACK`` entries."""

    def test_hit_only_stream(self):
        fast = create_policy("lru-fast", 1_000)
        _stream(fast, list(range(100)) * 500)
        assert fast.stats.misses == 100
        assert len(fast._log) <= 2 * len(fast) + fast_lru.SLACK

    def test_long_batch(self):
        fast = create_policy("lru-fast", 1_000)
        fast.run_compiled(compile_trace(list(range(100)) * 2_000))
        assert fast.stats.misses == 100
        assert len(fast._log) <= 2 * len(fast) + fast_lru.SLACK
        _stream(fast, list(range(100)) * 50)
        assert len(fast._log) <= 2 * len(fast) + fast_lru.SLACK
