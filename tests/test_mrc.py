"""Tests for miss-ratio-curve construction (exact and sampled)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.lru import LruCache
from repro.sim.mrc import (
    MissRatioCurve,
    fifo_mrc,
    lru_mrc,
    mrc_error,
    reuse_distances,
    sampled_mrc,
    spatial_sample,
)
from repro.sim.simulator import simulate
from repro.structures.fenwick import FenwickTree
from repro.traces.synthetic import zipf_trace


class TestFenwick:
    def test_prefix_sums(self):
        t = FenwickTree(10)
        t.add(3, 5)
        t.add(7, 2)
        assert t.prefix_sum(2) == 0
        assert t.prefix_sum(3) == 5
        assert t.prefix_sum(10) == 7

    def test_range_sum(self):
        t = FenwickTree(8)
        for i in range(1, 9):
            t.add(i, i)
        assert t.range_sum(3, 5) == 3 + 4 + 5
        assert t.range_sum(5, 3) == 0

    def test_negative_delta(self):
        t = FenwickTree(4)
        t.add(2, 3)
        t.add(2, -1)
        assert t.total() == 2

    def test_bounds(self):
        t = FenwickTree(4)
        with pytest.raises(IndexError):
            t.add(0)
        with pytest.raises(IndexError):
            t.add(5)
        with pytest.raises(ValueError):
            FenwickTree(0)

    @given(st.lists(st.tuples(st.integers(1, 20), st.integers(-3, 3)),
                    max_size=100))
    @settings(max_examples=30)
    def test_matches_naive_model(self, ops):
        t = FenwickTree(20)
        model = [0] * 21
        for idx, delta in ops:
            t.add(idx, delta)
            model[idx] += delta
        for i in range(21):
            assert t.prefix_sum(i) == sum(model[: i + 1])


class TestReuseDistances:
    def test_simple_sequence(self):
        # a b a: a's second access has 1 distinct key (b) between -> 2
        assert reuse_distances(["a", "b", "a"]) == [None, None, 2]

    def test_immediate_reuse(self):
        assert reuse_distances(["a", "a"]) == [None, 1]

    def test_all_distinct(self):
        assert reuse_distances([1, 2, 3]) == [None, None, None]

    def test_empty(self):
        assert reuse_distances([]) == []

    def test_matches_lru_simulation(self):
        """distance <= C  <=>  hit in an LRU cache of size C."""
        trace = zipf_trace(200, 4000, alpha=1.0, seed=3)
        distances = reuse_distances(trace)
        for capacity in (10, 50, 100):
            cache = LruCache(capacity)
            for key, distance in zip(trace, distances):
                hit = cache.access(key)
                expected = distance is not None and distance <= capacity
                assert hit == expected, (key, distance, capacity)


class TestLruMrc:
    def test_monotone_decreasing(self):
        trace = zipf_trace(500, 10_000, alpha=0.9, seed=1)
        curve = lru_mrc(trace)
        assert curve.is_monotone()

    def test_matches_direct_simulation(self):
        trace = zipf_trace(300, 6000, alpha=1.0, seed=2)
        curve = lru_mrc(trace, sizes=[20, 60, 150])
        for size, mr in zip(curve.sizes, curve.miss_ratios):
            direct = simulate(LruCache(size), list(trace)).miss_ratio
            assert mr == pytest.approx(direct, abs=1e-12), size

    def test_at_interpolation(self):
        curve = MissRatioCurve([10, 100], [0.5, 0.2])
        assert curve.at(10) == 0.5
        assert curve.at(50) == 0.5
        assert curve.at(100) == 0.2
        assert curve.at(1000) == 0.2

    def test_at_below_first_point_is_conservative(self):
        """Regression: sizes left of the first measured point used to
        return that point's (optimistic) miss ratio; the docstring
        always promised conservative, i.e. 1.0."""
        curve = MissRatioCurve([10, 100], [0.5, 0.2])
        assert curve.at(5) == 1.0
        assert curve.at(9) == 1.0
        assert curve.at(0) == 1.0

    def test_cumulative_sweep_matches_quadratic_golden(self):
        """Regression: lru_mrc's one cumulative histogram sweep must be
        byte-identical to the old per-size re-summing on a golden
        trace — same integer sums feed the same float divisions."""
        trace = zipf_trace(400, 8000, alpha=1.0, seed=7)
        sizes = [1, 3, 17, 64, 64, 200, 399, 1000]
        curve = lru_mrc(trace, sizes=sizes)
        # The pre-fix implementation, inlined.
        distances = reuse_distances(trace)
        histogram = {}
        for d in distances:
            if d is not None:
                histogram[d] = histogram.get(d, 0) + 1
        total = len(distances)
        # Sizes come back de-duplicated: the repeated 64 is one point.
        expected = [
            (total - sum(c for d, c in histogram.items() if d <= size))
            / total
            for size in sorted(set(sizes))
        ]
        assert curve.sizes == sorted(set(sizes))
        assert curve.miss_ratios == expected  # ==, not approx: bytes

    def test_empty_trace_raises(self):
        with pytest.raises(ValueError):
            lru_mrc([])

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            MissRatioCurve([1], [0.5, 0.2])
        with pytest.raises(ValueError):
            MissRatioCurve([], [])


class TestSpatialSampling:
    def test_rate_one_is_identity(self):
        trace = [1, 2, 3]
        assert spatial_sample(trace, 1.0) == trace

    def test_per_key_consistency(self):
        """All requests of a sampled key survive; none of an unsampled."""
        trace = zipf_trace(500, 10_000, seed=0)
        sample = spatial_sample(trace, 0.3, seed=1)
        sampled_keys = set(sample)
        for key in sampled_keys:
            assert trace.count(key) == sample.count(key)

    def test_rate_controls_unique_fraction(self):
        trace = list(range(10_000))
        sample = spatial_sample(trace, 0.2, seed=0)
        assert 0.15 < len(sample) / len(trace) < 0.25

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            spatial_sample([1], 0.0)
        with pytest.raises(ValueError):
            spatial_sample([1], 1.5)

    def test_seed_changes_sample(self):
        trace = list(range(1000))
        assert spatial_sample(trace, 0.5, seed=0) != spatial_sample(
            trace, 0.5, seed=1
        )


class TestSampledMrc:
    @pytest.fixture(scope="class")
    def big_trace(self):
        return zipf_trace(20_000, 150_000, alpha=0.9, seed=0)

    def test_approximates_exact_lru(self, big_trace):
        sizes = [1000, 4000]
        exact = lru_mrc(big_trace, sizes=sizes)
        estimate = sampled_mrc(
            "lru", big_trace, sizes=sizes, rate=0.15, seed=0, ensembles=3
        )
        assert mrc_error(estimate, exact) < 0.08

    def test_works_for_s3fifo(self, big_trace):
        curve = sampled_mrc(
            "s3fifo", big_trace, sizes=[1000, 4000], rate=0.15, ensembles=2
        )
        assert curve.miss_ratios[0] > curve.miss_ratios[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            sampled_mrc("lru", [1, 2], sizes=[])
        with pytest.raises(ValueError):
            sampled_mrc("lru", [1, 2], sizes=[1], ensembles=0)

    def test_mrc_error_helper(self):
        a = MissRatioCurve([10], [0.5])
        b = MissRatioCurve([10], [0.4])
        assert mrc_error(a, b) == pytest.approx(0.1)


#: Every MRC function, as ``(trace, sizes) -> MissRatioCurve``.
MRC_FUNCTIONS = {
    "lru_mrc": lambda trace, sizes: lru_mrc(trace, sizes=sizes),
    "fifo_mrc": lambda trace, sizes: fifo_mrc(trace, sizes=sizes),
    "sampled_mrc": lambda trace, sizes: sampled_mrc(
        "s3fifo", trace, sizes=sizes, rate=0.5
    ),
    "sampled_mrc-exact": lambda trace, sizes: sampled_mrc(
        "sieve", trace, sizes=sizes, rate=1.0
    ),
}


@pytest.mark.parametrize("name", sorted(MRC_FUNCTIONS))
class TestSizeValidation:
    """One size contract for every MRC function: non-empty, positive,
    and returned sorted and de-duplicated."""

    TRACE = zipf_trace(500, 5000, alpha=1.0, seed=1)

    @pytest.mark.parametrize("sizes", [[], [0, 50], [-3, 50]])
    def test_rejects_empty_and_nonpositive(self, name, sizes):
        with pytest.raises(ValueError):
            MRC_FUNCTIONS[name](self.TRACE, sizes)

    def test_sorts_and_deduplicates(self, name):
        curve = MRC_FUNCTIONS[name](self.TRACE, [200, 50, 200, 50])
        assert curve.sizes == [50, 200]
        assert len(curve.miss_ratios) == 2
