"""Tests for the Fig. 5 executable walkthrough."""

import pytest

from repro.core.s3fifo import S3FifoCache
from repro.core.walkthrough import (
    DEMO_TRACE,
    demo,
    format_walkthrough,
    walkthrough,
)
from repro.traces.synthetic import zipf_trace


class TestWalkthrough:
    def test_step_per_request(self):
        steps = walkthrough(["a", "b", "a"], capacity=4)
        assert len(steps) == 3
        assert [s.hit for s in steps] == [False, False, True]

    def test_queues_disjoint(self):
        for step in walkthrough(DEMO_TRACE, capacity=6):
            assert not (set(step.small) & set(step.main))
            assert not (set(step.small) & set(step.ghost))
            assert not (set(step.main) & set(step.ghost))

    def test_demo_shows_all_three_flows(self):
        """The demo trace exercises quick demotion (ghost entries),
        promotion to M, and frequency tracking."""
        steps = walkthrough(DEMO_TRACE, capacity=6)
        final = steps[-1]
        assert final.ghost, "one-hit wonders must land in the ghost"
        assert "x" in final.main, "the hot object must graduate to M"
        assert final.freqs["x"] >= 1

    def test_frequency_capped(self):
        steps = walkthrough(["a"] + ["a"] * 10, capacity=4)
        assert steps[-1].freqs["a"] == 3  # two-bit counter

    def test_format_renders_every_step(self):
        steps = walkthrough(DEMO_TRACE, capacity=6)
        text = format_walkthrough(steps)
        assert text.count("\n") == len(steps)  # header + one line each
        assert "hit" in text and "miss" in text

    def test_demo_helper(self):
        assert "ghost" in demo()

    def test_continues_existing_cache(self):
        from repro.core.s3fifo import S3FifoCache

        cache = S3FifoCache(6)
        walkthrough(["a", "b"], capacity=6, cache=cache)
        steps = walkthrough(["a"], capacity=6, cache=cache)
        assert steps[0].hit  # state carried over


@pytest.mark.parametrize("main_type", ["fifo", "lru", "sieve"])
def test_main_listing_starts_at_next_candidate(main_type):
    """M is listed in the order eviction examines it.  For SIEVE that
    starts at the hand, here resting mid-queue, not at the tail."""
    cache = S3FifoCache(20, main_type=main_type)
    steps = walkthrough(zipf_trace(100, 2000, alpha=1.0, seed=0), 20, cache=cache)
    if main_type == "sieve":
        assert cache._passed and cache._lap
    final = steps[-1]
    candidate = next(
        k for k in final.main if main_type == "lru" or final.freqs[k] == 0
    )
    evicted = []
    cache.add_eviction_listener(lambda event: evicted.append(event.key))
    cache._evict_m()
    assert evicted == [candidate]
