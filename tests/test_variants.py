"""Tests for the queue-type ablation variants (Section 6.3)."""

import pytest

from repro.core.s3fifo import QueueType, S3FifoCache, S3QueueVariantCache
from repro.sim.request import Request
from repro.sim.simulator import simulate
from repro.traces.datasets import generate_dataset_trace
from repro.traces.synthetic import zipf_sizes, zipf_trace

#: The §6.3 disciplines: S and M each FIFO or LRU.
ABLATION_TYPES = (QueueType.FIFO, QueueType.LRU)


def _hits(policy, trace):
    """Per-request hit list; items are keys or (key, size) pairs."""
    return [
        policy.request(Request(*item) if isinstance(item, tuple) else Request(item))
        for item in trace
    ]


class TestConstruction:
    def test_variant_name(self):
        cache = S3QueueVariantCache(
            100, small_type=QueueType.LRU, main_type=QueueType.FIFO
        )
        assert cache.variant_name == "S3(S=lru,M=fifo)"

    def test_hit_promote_tag(self):
        cache = S3QueueVariantCache(100, promote_on_hit=True)
        assert "hit-promote" in cache.variant_name

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            S3QueueVariantCache(100, small_ratio=0.0)


class TestFifoFifoMatchesS3Fifo:
    """The FIFO/FIFO variant without hit-promotion IS S3-FIFO: the same
    decision on every request, not just the same miss total."""

    def test_identical_miss_ratio(self, small_zipf):
        variant = simulate(
            S3QueueVariantCache(50), list(small_zipf)
        ).miss_ratio
        original = simulate(S3FifoCache(50), list(small_zipf)).miss_ratio
        assert variant == pytest.approx(original, abs=1e-12)

    def test_identical_hits_when_promotion_overfills_main(self):
        """Algorithm 1's "if M is full then evictM()" after a promotion:
        on this trace skipping it first changes a decision at request
        7,445 (5,199 misses instead of 5,197)."""
        trace = generate_dataset_trace("cloudphysics", 0, scale=0.25, seed=0)
        assert _hits(S3QueueVariantCache(130), trace) == _hits(
            S3FifoCache(130), trace
        )

    def test_identical_hits_sized(self):
        """The ghost holds as many keys as M holds objects, not M's byte
        capacity in keys (15,224 hits instead of 16,575 here)."""
        keys = zipf_trace(3000, 30_000, alpha=0.9, seed=0)
        trace = zipf_sizes(keys, mean_size=100, seed=0)
        assert _hits(S3QueueVariantCache(20_000), trace) == _hits(
            S3FifoCache(20_000), trace
        )


class TestLruVariants:
    def test_lru_small_reorders_on_hit(self):
        cache = S3QueueVariantCache(100, small_type=QueueType.LRU)
        for i in range(5):
            cache.access(i)
        cache.access(0)
        assert list(cache._small)[-1] == 0  # moved to MRU end

    def test_fifo_small_does_not_reorder(self):
        cache = S3QueueVariantCache(100, small_type=QueueType.FIFO)
        for i in range(5):
            cache.access(i)
        cache.access(0)
        assert list(cache._small)[0] == 0

    def test_all_variants_capacity_safe(self, small_zipf):
        for small in ABLATION_TYPES:
            for main in QueueType:
                cache = S3QueueVariantCache(
                    50, small_type=small, main_type=main
                )
                for key in small_zipf[:3000]:
                    cache.access(key)
                assert cache.used <= 50, (small, main)

    def test_queue_type_does_not_matter_much(self, skewed_zipf):
        """Section 6.3's conclusion: with quick demotion in place, LRU
        queues do not meaningfully improve efficiency."""
        results = {}
        for small in ABLATION_TYPES:
            for main in ABLATION_TYPES:
                cache = S3QueueVariantCache(
                    100, small_type=small, main_type=main
                )
                results[(small, main)] = simulate(
                    cache, list(skewed_zipf)
                ).miss_ratio
        spread = max(results.values()) - min(results.values())
        assert spread < 0.03


class TestPromoteOnHit:
    def test_hit_promotion_moves_to_main(self):
        cache = S3QueueVariantCache(
            100, promote_on_hit=True, move_to_main_threshold=2
        )
        cache.access("a")
        cache.access("a")
        cache.access("a")  # freq reaches 2 -> immediately to M
        assert "a" in cache._main
        assert "a" not in cache._small

    def test_below_threshold_stays_in_small(self):
        cache = S3QueueVariantCache(
            100, promote_on_hit=True, move_to_main_threshold=2
        )
        cache.access("a")
        cache.access("a")
        assert "a" in cache._small
