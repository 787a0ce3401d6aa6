"""The vector engine runs each FIFO-family policy on its array twin.

``tests/test_sim_vector.py`` pins the engine's results against the
scalar engine; these tests pin how it gets them: which class does the
eviction work, that a clone's slots are the trace's key ids, that the
engine frees its clone when it returns, and the ordering contract of
the candidate/forced event merge.
"""

import gc
import heapq
import weakref

import pytest

from repro.cache.fast_fifo import FastFifoCache
from repro.cache.fast_sieve import FastSieveCache
from repro.cache.registry import create_policy
from repro.core.s3fifo_fast import FREQ_FIELD_MAX, FastS3FifoCache
from repro.sim import vector
from repro.sim.simulator import simulate_compiled
from repro.traces.compiled import compile_trace
from repro.traces.synthetic import zipf_trace

TRACE = compile_trace(
    zipf_trace(num_objects=400, num_requests=5000, alpha=0.9, seed=5)
)


@pytest.mark.parametrize(
    "name,twin",
    [
        ("fifo", FastFifoCache),
        ("fifo-fast", FastFifoCache),
        ("sieve", FastSieveCache),
        ("sieve-fast", FastSieveCache),
        ("s3fifo", FastS3FifoCache),
        ("s3fifo-fast", FastS3FifoCache),
        ("sfifo", vector._SFifoKernel),
    ],
)
def test_kernel_is_the_array_twin(name, twin):
    kernel = vector._build_kernel(create_policy(name, 50), TRACE)
    assert type(kernel) is twin
    # Slot k is key id k: the residency bytes cover every id, and the
    # clone never interned a key.
    assert len(kernel._loc) >= TRACE.num_objects
    assert kernel._lazy is not None
    if twin is not vector._SFifoKernel:
        assert kernel._ids == {}


def test_clone_takes_the_reference_configuration():
    ref = create_policy(
        "s3fifo", 80, small_ratio=0.25, ghost_entries=12,
        move_to_main_threshold=1, freq_cap=7,
    )
    kernel = vector._build_kernel(ref, TRACE)
    assert kernel.small_capacity == ref.small_capacity
    assert kernel.main_capacity == ref.main_capacity
    assert kernel.ghost_capacity == ref.ghost.capacity
    assert kernel._freq_cap == 7
    assert kernel._threshold == 1


def test_counter_wider_than_the_state_byte_stays_scalar():
    policy = create_policy("s3fifo", 60, freq_cap=FREQ_FIELD_MAX + 1)
    assert not vector.vector_eligible(policy, TRACE)
    with pytest.raises(ValueError):
        simulate_compiled(policy, TRACE, engine="vector")
    auto = simulate_compiled(
        create_policy("s3fifo", 60, freq_cap=FREQ_FIELD_MAX + 1), TRACE
    )
    scalar = simulate_compiled(
        create_policy("s3fifo", 60, freq_cap=FREQ_FIELD_MAX + 1), TRACE,
        engine="scalar",
    )
    assert (auto.misses, auto.evictions) == (scalar.misses, scalar.evictions)


def test_engine_frees_its_clone(monkeypatch):
    """No reference cycle keeps the clone's slabs alive after a run."""
    built = []
    build = vector._build_kernel

    def spy(policy, trace):
        kernel = build(policy, trace)
        built.append(weakref.ref(kernel))
        return kernel

    monkeypatch.setattr(vector, "_build_kernel", spy)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for name in ("fifo", "sieve", "s3fifo", "sfifo"):
            vector.vector_simulate(create_policy(name, 50), TRACE)
        assert [ref() for ref in built] == [None] * 4
    finally:
        if was_enabled:
            gc.enable()


def test_events_merge_in_order_once_each():
    forced = [2, 3]
    heapq.heapify(forced)
    seen = []
    for evt in vector._events([1, 3, 5], forced):
        seen.append(evt)
        if evt == 2:
            heapq.heappush(forced, 4)  # forced while the chunk runs
    assert seen == [1, 2, 3, 4, 5]


def test_events_drain_forced_after_candidates():
    forced = [9]
    seen = []
    for evt in vector._events([1], forced):
        seen.append(evt)
        if evt == 9:
            heapq.heappush(forced, 12)
    assert seen == [1, 9, 12]
