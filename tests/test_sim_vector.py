"""Differential + property validation of the vectorized hit-run engine.

The vector engine (:mod:`repro.sim.vector`) promises results
*bit-identical* to the scalar engines for the whole FIFO family — same
misses, bytes, eviction split, warmup accounting — on unit, sized, and
oversized-object traces, invariant to the chunk width.  These tests
pin every clause of that promise:

* a differential sweep of every vector-capable policy (with
  non-default constructor knobs) against the scalar engine across
  trace shapes, capacities, and warmups;
* chunk-width invariance, both on fixed adversarial widths (1, 2, odd,
  larger than the trace) and via hypothesis-generated traces — the
  latter deliberately aims chunk boundaries into miss runs and at
  repeated keys whose first touch in a chunk is a miss, the two places
  where forced-candidate bookkeeping could drift;
* engine wiring: ``simulate_compiled`` routing, eligibility rules,
  and the no-mutation guarantee (the policy object stays pristine);
* the handoff under ``engine="auto"``: with the crossover set so that
  the engine hands off after the first chunk, after the first
  eviction, where the data dictates, or never, every result field
  still equals the scalar engine's, on unit and sized traces, with the
  warmup boundary inside either loop's stretch; and the engine hands
  off at most once, also on a scan trace whose miss fraction swings.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.registry import create_policy, policy_names
from repro.sim import vector
from repro.sim.request import Request
from repro.sim.simulator import simulate, simulate_compiled
from repro.sim.vector import (
    VECTOR_POLICIES,
    vector_eligible,
    vector_simulate,
)
from repro.traces.compiled import compile_trace
from repro.traces.synthetic import zipf_trace, zipf_with_scans

ZIPF = zipf_trace(num_objects=300, num_requests=4000, alpha=1.0, seed=21)
SCAN = [f"s{i}" for i in range(400)]
MIX = ZIPF[:1500] + SCAN + ZIPF[1500:3000] + SCAN + ZIPF[3000:]
_rng = random.Random(7)
SIZED = [(k, _rng.randint(1, 40)) for k in ZIPF]
_rng = random.Random(7)
# Sizes 200/999 exceed the smallest capacities below: every kernel
# must take the oversized path (miss, no policy access) exactly where
# the scalar engine does — including for keys already resident.
OVER = [(k, _rng.choice([1, 5, 200, 999])) for k in ZIPF[:2000]]

TRACES = {
    "zipf": (compile_trace(ZIPF, name="zipf"), (60, 7, 1, 350)),
    "mix": (compile_trace(MIX, name="mix"), (60, 350)),
    "sized": (compile_trace(SIZED, name="sized"), (2000, 150, 3)),
    "over": (compile_trace(OVER, name="over"), (2000, 150, 3)),
}

FIELDS = (
    "requests", "misses", "bytes_requested", "bytes_missed",
    "evictions", "warmup_requests", "warmup_evictions",
)

POLICY_CONFIGS = [
    ("fifo", {}),
    ("fifo-fast", {}),
    ("sfifo", {}),
    ("sfifo", {"primary_ratio": 0.5}),
    ("sieve", {}),
    ("sieve-fast", {}),
    ("s3fifo", {}),
    ("s3fifo", {"small_ratio": 0.25, "ghost_entries": 40,
                "move_to_main_threshold": 1, "freq_cap": 7}),
    ("s3fifo-fast", {}),
    ("s3fifo-fast", {"small_ratio": 0.25, "ghost_entries": 40,
                     "move_to_main_threshold": 1, "freq_cap": 3}),
]


def _assert_identical(ref, vec, ctx):
    for field in FIELDS:
        rv, vv = getattr(ref, field), getattr(vec, field)
        assert rv == vv, (*ctx, field, rv, vv)


def _config_id(config):
    name, kwargs = config
    return name if not kwargs else f"{name}-{'-'.join(map(str, kwargs.values()))}"


@pytest.mark.parametrize(
    "name,kwargs", POLICY_CONFIGS, ids=[_config_id(c) for c in POLICY_CONFIGS]
)
def test_vector_matches_scalar(name, kwargs):
    """Full differential sweep at the default chunk width."""
    for tname, (trace, caps) in TRACES.items():
        for cap in caps:
            for warm in (0.0, 0.3):
                ref = simulate_compiled(
                    create_policy(name, cap, **kwargs), trace,
                    warmup=warm, engine="scalar",
                )
                vec = simulate_compiled(
                    create_policy(name, cap, **kwargs), trace,
                    warmup=warm, engine="vector",
                )
                _assert_identical(ref, vec, (name, kwargs, tname, cap, warm))


@pytest.mark.parametrize("chunk", [1, 2, 7, 10 ** 9])
def test_chunk_invariance_fixed_widths(chunk):
    """Adversarial chunk widths: 1 (every request its own probe), 2,
    odd (boundaries land mid-run everywhere), larger than the trace."""
    for name, kwargs in (("fifo", {}), ("sieve", {}), ("s3fifo", {})):
        for tname in ("mix", "over"):
            trace, caps = TRACES[tname]
            cap = caps[0]
            ref = simulate_compiled(
                create_policy(name, cap, **kwargs), trace, engine="scalar"
            )
            vec = vector_simulate(
                create_policy(name, cap, **kwargs), trace, chunk=chunk
            )
            _assert_identical(ref, vec, (name, tname, cap, chunk))


def test_chunk_splits_miss_run():
    """A run of cold misses crossing a chunk boundary: positions after
    the split must still be consumed as scalar events, not probed
    against the stale chunk-start mask."""
    trace = compile_trace(list(range(10)) + list(range(10)))
    for name in ("fifo", "sieve", "s3fifo", "sfifo"):
        ref = simulate_compiled(
            create_policy(name, 4), trace, engine="scalar"
        )
        for chunk in (3, 4, 5):
            vec = vector_simulate(create_policy(name, 4), trace, chunk=chunk)
            _assert_identical(ref, vec, (name, chunk))


def test_repeated_key_first_chunk_touch_is_miss():
    """A key evicted earlier returns several times inside one chunk:
    its first touch is a (forced or probed) miss, and the repeats must
    come from the post-insert state, not the chunk-start snapshot."""
    trace = compile_trace([0, 1, 2, 3, 0, 0, 0, 1, 1, 2, 0])
    for name in ("fifo", "sieve", "s3fifo", "sfifo"):
        for cap in (2, 3):
            ref = simulate_compiled(
                create_policy(name, cap), trace, engine="scalar"
            )
            for chunk in (4, 6, 11):
                vec = vector_simulate(
                    create_policy(name, cap), trace, chunk=chunk
                )
                _assert_identical(ref, vec, (name, cap, chunk))


@given(
    keys=st.lists(
        st.integers(min_value=0, max_value=25), min_size=1, max_size=120
    ),
    capacity=st.integers(min_value=1, max_value=12),
    chunk=st.integers(min_value=1, max_value=130),
    policy_index=st.integers(min_value=0, max_value=len(POLICY_CONFIGS) - 1),
)
@settings(max_examples=60, deadline=None)
def test_vector_chunk_property_unit(keys, capacity, chunk, policy_index):
    """Hypothesis: any trace, any capacity, any chunk width — the
    vector engine is bit-identical to the scalar one."""
    name, kwargs = POLICY_CONFIGS[policy_index]
    trace = compile_trace(keys)
    ref = simulate_compiled(
        create_policy(name, capacity, **kwargs), trace, engine="scalar"
    )
    vec = vector_simulate(
        create_policy(name, capacity, **kwargs), trace, chunk=chunk
    )
    _assert_identical(ref, vec, (name, kwargs, capacity, chunk, keys))


@given(
    items=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=1, max_value=30),
        ),
        min_size=1,
        max_size=80,
    ),
    capacity=st.integers(min_value=1, max_value=20),
    chunk=st.integers(min_value=1, max_value=90),
)
@settings(max_examples=40, deadline=None)
def test_vector_chunk_property_sized(items, capacity, chunk):
    """Sized variant: sizes routinely exceed capacity, so the
    oversized path is exercised under arbitrary chunking too."""
    trace = compile_trace(items)
    for name in ("fifo", "sfifo", "sieve", "s3fifo"):
        ref = simulate_compiled(
            create_policy(name, capacity), trace, engine="scalar"
        )
        vec = vector_simulate(
            create_policy(name, capacity), trace, chunk=chunk
        )
        _assert_identical(ref, vec, (name, capacity, chunk, items))


# ----------------------------------------------------------------------
# Engine wiring
# ----------------------------------------------------------------------

def test_vector_does_not_mutate_policy():
    trace, _ = TRACES["zipf"]
    policy = create_policy("s3fifo", 60)
    vector_simulate(policy, trace)
    assert policy.stats.requests == 0
    assert policy.clock == 0
    assert len(policy) == 0
    # Still pristine, so the same object can run again.
    again = vector_simulate(policy, trace)
    assert again.requests == len(trace)


def test_auto_routes_eligible_policies_to_vector():
    """With engine="auto" the policy stays untouched — proof the
    vector path (which never mutates) handled it."""
    trace, _ = TRACES["zipf"]
    for name in VECTOR_POLICIES:
        policy = create_policy(name, 60)
        assert vector_eligible(policy, trace), name
        simulate(policy, trace, engine="auto")
        assert policy.stats.requests == 0, name


def test_scalar_engine_still_mutates():
    trace, _ = TRACES["zipf"]
    policy = create_policy("fifo", 60)
    result = simulate(policy, trace, engine="scalar")
    assert policy.stats.requests == len(trace)
    assert result.requests == len(trace)


def test_engine_equivalence_through_simulate():
    trace, _ = TRACES["mix"]
    results = [
        simulate(create_policy("sieve", 60), trace, engine=engine)
        for engine in ("auto", "scalar", "vector")
    ]
    for other in results[1:]:
        _assert_identical(results[0], other, ("sieve",))


def test_vector_rejects_ineligible():
    trace, _ = TRACES["zipf"]
    # LRU promotes on hit: excluded from the engine by design.
    lru = create_policy("lru", 60)
    assert not vector_eligible(lru, trace)
    with pytest.raises(ValueError):
        simulate_compiled(lru, trace, engine="vector")
    # A warmed-up policy is no longer pristine.
    warm = create_policy("fifo", 60)
    warm.request(Request(1))
    assert not vector_eligible(warm, trace)
    with pytest.raises(ValueError):
        vector_simulate(warm, trace)
    # Raw (uncompiled) traces never qualify.
    assert not vector_eligible(create_policy("fifo", 60), ZIPF)


EVERY_POLICY_TRACE = compile_trace(
    zipf_trace(num_objects=600, num_requests=5000, alpha=0.9, seed=3),
    name="every-policy",
)


@pytest.mark.parametrize("name", policy_names())
def test_auto_matches_scalar_for_every_policy(name):
    """The default engine never changes a registration's decisions: a
    policy the vector engine cannot run exactly (say, an S3 queue
    discipline other than Algorithm 1) must be refused, not run on the
    s3fifo kernel."""
    auto = simulate(create_policy(name, 60), EVERY_POLICY_TRACE, engine="auto")
    scalar = simulate(
        create_policy(name, 60), EVERY_POLICY_TRACE, engine="scalar"
    )
    assert (auto.misses, auto.evictions) == (scalar.misses, scalar.evictions)


def test_vector_refuses_s3_disciplines_beyond_algorithm1():
    trace, _ = TRACES["zipf"]
    assert vector_eligible(create_policy("s3variant", 60), trace)
    for name, kwargs in [
        ("s3sieve", {}),
        ("s3variant", {"main_type": "lru"}),
        ("s3variant", {"small_type": "lru"}),
        ("s3variant", {"promote_on_hit": True}),
        ("s3fifo-d", {}),
    ]:
        policy = create_policy(name, 60, **kwargs)
        assert not vector_eligible(policy, trace), (name, kwargs)


def test_unknown_engine_rejected():
    trace, _ = TRACES["zipf"]
    with pytest.raises(ValueError):
        simulate_compiled(create_policy("fifo", 60), trace, engine="turbo")


def test_bad_chunk_rejected():
    trace, _ = TRACES["zipf"]
    with pytest.raises(ValueError):
        vector_simulate(create_policy("fifo", 60), trace, chunk=0)


# ----------------------------------------------------------------------
# Handoffs between the event loop and the twin's batch loop (auto)
# ----------------------------------------------------------------------

#: (crossover, cold crossover) per handoff pattern.  The event loop
#: keeps every chunk until the cache first evicts (no chunk reaches the
#: cold crossover), except in "batch-early", which hands off after the
#: first chunk.  After the first eviction, "alternate": a 0.5
#: crossover, so the trace decides whether and where the one handoff
#: happens.  "vector-only": no handoff, ever.  "batch-once-full": one
#: handoff, at the first chunk after the first eviction.
HANDOFF_MODES = {
    "alternate": (0.5, 2.0),
    "vector-only": (2.0, 2.0),
    "batch-early": (-1.0, -1.0),
    "batch-once-full": (-1.0, 2.0),
}
HANDOFF_POLICIES = (
    "fifo", "fifo-fast", "sieve", "sieve-fast", "s3fifo", "s3fifo-fast",
)


def _auto_run(mode, name, capacity, trace, chunk, warmup_requests=None):
    crossover, cold = HANDOFF_MODES[mode]
    with pytest.MonkeyPatch.context() as mp:
        for kind in vector.CROSSOVER:
            mp.setitem(vector.CROSSOVER, kind, crossover)
            mp.setitem(vector.COLD_CROSSOVER, kind, cold)
        return vector_simulate(
            create_policy(name, capacity), trace, chunk=chunk,
            warmup_requests=warmup_requests, auto=True,
        )


def _assert_auto_matches_scalar(mode, name, capacity, trace, chunk,
                                warmup_requests=None):
    ref = simulate_compiled(
        create_policy(name, capacity), trace,
        warmup_requests=warmup_requests, engine="scalar",
    )
    got = _auto_run(mode, name, capacity, trace, chunk, warmup_requests)
    ctx = (mode, name, capacity, chunk, warmup_requests)
    _assert_identical(ref, got, ctx)
    assert (got.hit_run_requests + got.event_requests
            + got.scalar_requests) == len(trace), ctx
    assert got.handoffs == (got.scalar_requests > 0), ctx
    return got


@given(
    keys=st.lists(
        st.integers(min_value=0, max_value=25), min_size=1, max_size=120
    ),
    capacity=st.integers(min_value=1, max_value=12),
    chunk=st.integers(min_value=1, max_value=130),
    mode=st.sampled_from(sorted(HANDOFF_MODES)),
    name=st.sampled_from(HANDOFF_POLICIES),
    warm=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=80, deadline=None)
def test_handoff_property_unit(keys, capacity, chunk, mode, name, warm):
    """Hypothesis: any unit trace, chunk width, warmup split and handoff
    pattern — auto is bit-identical to the scalar engine."""
    _assert_auto_matches_scalar(
        mode, name, capacity, compile_trace(keys), chunk,
        warmup_requests=int(warm * len(keys)),
    )


@given(
    items=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=1, max_value=30),
        ),
        min_size=1,
        max_size=80,
    ),
    capacity=st.integers(min_value=1, max_value=20),
    chunk=st.integers(min_value=1, max_value=130),
    mode=st.sampled_from(sorted(HANDOFF_MODES)),
    warm=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_handoff_property_sized(items, capacity, chunk, mode, warm):
    """Sized variant: sizes routinely exceed capacity, so oversized
    requests land in both loops and across handoffs."""
    trace = compile_trace(items)
    for name in HANDOFF_POLICIES:
        _assert_auto_matches_scalar(
            mode, name, capacity, trace, chunk,
            warmup_requests=int(warm * len(items)),
        )


@pytest.mark.parametrize("name", HANDOFF_POLICIES)
@pytest.mark.parametrize("mode", sorted(HANDOFF_MODES))
def test_handoff_differential(mode, name):
    """Fixed traces with scans and oversized requests; the warmup
    boundary (1234) falls inside the batch-loop stretch in
    "batch-early"/"batch-once-full" and inside a hit-run stretch in
    "vector-only"."""
    for tname, (trace, caps) in TRACES.items():
        for cap in caps:
            for chunk in (5, 130):
                got = _assert_auto_matches_scalar(
                    mode, name, cap, trace, chunk, warmup_requests=1234
                )
                ctx = (tname, cap, chunk)
                if mode == "vector-only":
                    assert got.engine == "vector", ctx
                    assert not got.handoffs, ctx
                elif mode == "batch-early":
                    assert got.handoffs == 1, ctx
                    assert got.scalar_requests == len(trace) - chunk, ctx
                if cap == 7 and mode != "vector-only":
                    # The zipf trace overflows capacity 7 at once.
                    assert got.engine == "auto", ctx
                    assert got.scalar_requests > 1234, ctx


def test_handoff_folds_pending_hits():
    """A hit-run stretch leaves skipped hits pending; the handoff to
    the batch loop must fold them before that loop evicts.  Keys 0-3
    fill the cache and their hits run as hit runs.  Key 200 brings the
    first eviction, which settles the keys it passes, and its two hits
    are left pending.  The batch loop takes the next chunk, where keys
    100 and 101 evict 200 unless its folded hits protect it."""
    hot = [0, 1, 2, 3]
    keys = (hot * 4 + hot * 4 + hot * 3 + [0, 200, 200, 200] + [100, 101]
            + hot * 4)
    trace = compile_trace(keys)
    for name in HANDOFF_POLICIES:
        got = _assert_auto_matches_scalar("batch-once-full", name, 4, trace,
                                          16)
        assert got.engine == "auto" and got.handoffs == 1, name
        assert got.scalar_requests == len(keys) - 48, name
        assert got.hit_run_requests >= 12, name


def test_auto_hands_off_at_most_once():
    """Default constants on Zipf traffic with a 1000-key scan every 10k
    requests: a scan's misses send the run to the batch loop, which
    keeps it through the hot phases that follow, although their miss
    fraction falls below the crossover again."""
    trace = compile_trace(zipf_with_scans(20_000, 60_000, alpha=1.4,
                                          scan_length=1000,
                                          scan_every=10_000, seed=3))
    for name in ("fifo-fast", "sieve-fast", "s3fifo-fast"):
        ref = simulate_compiled(create_policy(name, 2000), trace,
                                engine="scalar")
        got = simulate_compiled(create_policy(name, 2000), trace,
                                engine="auto")
        _assert_identical(ref, got, (name,))
        assert got.handoffs <= 1, name


def test_sfifo_never_hands_off():
    """S-FIFO's kernel has no batch loop: auto runs it as hit runs."""
    trace, _ = TRACES["zipf"]
    got = _auto_run("batch-once-full", "sfifo", 60, trace, 64)
    assert got.engine == "vector" and got.handoffs == 0
    ref = simulate_compiled(create_policy("sfifo", 60), trace,
                            engine="scalar")
    _assert_identical(ref, got, ("sfifo",))


def test_auto_routes_by_miss_fraction():
    """Default constants: until the cache first evicts the event loop
    runs, then a miss-heavy trace goes to the batch loop for good and a
    hit-heavy one stays in hit runs.  At capacity 200, s3fifo misses
    0.09-0.10 per chunk at Zipf 1.4 (above its crossover) and at most
    0.037 at Zipf 1.6."""
    n = 60_000
    for alpha, name in ((0.6, "fifo-fast"), (0.6, "sieve-fast"),
                        (0.6, "s3fifo-fast"), (1.4, "s3fifo-fast"),
                        (1.6, "s3fifo-fast")):
        trace = compile_trace(zipf_trace(num_objects=20_000, num_requests=n,
                                         alpha=alpha, seed=3))
        result = simulate(create_policy(name, 200), trace)
        assert (result.hit_run_requests + result.event_requests
                + result.scalar_requests) == n
        if alpha < 1.5:
            assert result.engine == "auto" and result.handoffs == 1, name
            assert result.scalar_requests == n - vector.VECTOR_CHUNK, name
        else:
            assert result.engine == "vector", name
            assert result.hit_run_requests > 0.8 * n, name


def _first_chunk_after_eviction(name, capacity, trace):
    """Index of the first chunk that starts after the cache evicted."""
    policy = create_policy(name, capacity)
    for c, c0 in enumerate(range(0, len(trace), vector.VECTOR_CHUNK)):
        if policy.stats.evictions:
            return c
        policy.run_compiled(trace, c0, c0 + vector.VECTOR_CHUNK)
    raise AssertionError("the cache never evicts")


def test_auto_cold_start_routing():
    """Default constants, before the first eviction: a cold cache whose
    requests so far inserted above COLD_CROSSOVER goes to the batch loop
    at the next chunk; one below it stays in the event loop until the
    cache first evicts, then goes to the batch loop for good if its
    chunks miss above CROSSOVER.  Zipf 1.0 over 20k objects at capacity
    4000 misses 0.42 in its first chunk and 0.27 per chunk once fifo's
    cache is full."""
    n = 60_000
    trace = compile_trace(zipf_trace(num_objects=20_000, num_requests=n,
                                     alpha=1.0, seed=3))
    cold = simulate(create_policy("s3fifo-fast", 4000), trace)
    assert cold.engine == "auto" and cold.handoffs == 1
    assert cold.scalar_requests == n - vector.VECTOR_CHUNK
    head = _first_chunk_after_eviction("fifo-fast", 4000, trace)
    assert head > 1
    full = simulate(create_policy("fifo-fast", 4000), trace)
    assert full.engine == "auto" and full.handoffs == 1
    assert full.scalar_requests == n - head * vector.VECTOR_CHUNK
