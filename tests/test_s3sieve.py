"""Tests for S3-FIFO with a SIEVE main queue (Section 7 extension)."""

import pytest

from repro.core.s3fifo import S3FifoCache, S3SieveCache
from repro.resilience.sanitizer import CheckedPolicy
from repro.sim.simulator import simulate
from repro.traces.datasets import generate_dataset_trace
from repro.traces.synthetic import zipf_trace


class TestConstruction:
    def test_split(self):
        cache = S3SieveCache(100)
        assert cache.small_capacity == 10

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            S3SieveCache(100, small_ratio=1.0)


class TestBehaviour:
    def test_hit_miss(self):
        cache = S3SieveCache(20)
        assert cache.access("a") is False
        assert cache.access("a") is True

    def test_capacity_invariant(self):
        cache = S3SieveCache(20)
        for i in range(3000):
            cache.access(i % 90)
            assert cache.used <= 20

    def test_ghost_routes_to_main(self):
        cache = S3SieveCache(20, small_ratio=0.1)
        for i in range(25):
            cache.access(i)
        ghosted = next(i for i in range(25) if i in cache.ghost)
        cache.access(ghosted)
        assert cache.in_main(ghosted)

    def test_main_visited_objects_survive_scan(self):
        cache = S3SieveCache(30, small_ratio=0.1)
        # Drive "hot" into M via ghost and keep touching it.
        cache.access("hot")
        for i in range(40):
            cache.access(f"w{i}")
        cache.access("hot")  # likely ghost hit -> main
        for i in range(100, 160):
            cache.access(i)
            cache.access("hot")
        assert "hot" in cache

    def test_sized_objects(self):
        cache = S3SieveCache(100)
        for i in range(100):
            cache.access(i, size=7)
            assert cache.used <= 100


class TestRemoval:
    def test_remove_key_under_hand(self):
        """Deleting the object the SIEVE hand rests on moves the hand to
        the next object; later evictions keep every invariant."""
        cache = S3SieveCache(50)
        keys = zipf_trace(400, 20_000, alpha=0.8, seed=5)
        for n, key in enumerate(keys):
            cache.access(key)
            if cache._passed and len(cache._lap) > 1:
                break  # the hand rests mid-queue
        else:
            pytest.fail("the SIEVE hand never left the tail")
        under_hand, after = list(cache._lap)[:2]
        assert cache.remove(under_hand)
        assert under_hand not in cache
        assert next(iter(cache._lap)) == after
        checked = CheckedPolicy(cache, deep_every=1)
        for key in keys[n + 1 : n + 1001]:
            checked.access(key)
        checked.check()
        resident = [*cache._small.values(), *cache._main.values()]
        assert cache.used == sum(entry.size for entry in resident)


class TestPaperSuggestion:
    """Section 7: SIEVE in the main queue should match or improve on
    plain S3-FIFO for web-like (skewed, scan-free) workloads."""

    def test_web_workload(self):
        trace = zipf_trace(3000, 60_000, alpha=1.0, seed=7)
        sieve_mr = simulate(S3SieveCache(300), list(trace)).miss_ratio
        fifo_mr = simulate(S3FifoCache(300), list(trace)).miss_ratio
        assert sieve_mr <= fifo_mr + 0.01

    def test_kv_dataset(self):
        trace = generate_dataset_trace("twitter", 0, scale=0.5, seed=1)
        capacity = max(10, len(set(trace)) // 10)
        sieve_mr = simulate(S3SieveCache(capacity), list(trace)).miss_ratio
        fifo_mr = simulate(S3FifoCache(capacity), list(trace)).miss_ratio
        assert sieve_mr <= fifo_mr + 0.02

    def test_still_scan_resistant(self):
        """The small queue keeps providing quick demotion even with the
        SIEVE main queue."""
        from repro.cache.lru import LruCache
        from repro.traces.synthetic import zipf_with_scans

        trace = zipf_with_scans(1000, 20_000, alpha=1.0,
                                scan_length=500, scan_every=2000, seed=3)
        s3s = simulate(S3SieveCache(100), list(trace)).miss_ratio
        lru = simulate(LruCache(100), list(trace)).miss_ratio
        assert s3s < lru

    def test_registered(self):
        from repro.cache.registry import create_policy

        cache = create_policy("s3sieve", capacity=50)
        assert cache.name == "s3sieve"
