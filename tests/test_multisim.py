"""Differential tests for the single-pass multi-size engine.

The whole value of :mod:`repro.sim.multisim` is the *exactness* claim:
one pass must reproduce per-size :func:`repro.sim.simulate` runs
bit-for-bit for FIFO and S-FIFO, at every size, on unit and sized
traces alike — including oversized requests, which the reference
counts as misses even for resident keys.  Everything here is a
differential against the reference policies, plus the pinned error
bound for sampled S3-FIFO curves.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.registry import create_policy
from repro.sim.mrc import (
    S3FIFO_MRC_ERROR_BOUND,
    MissRatioCurve,
    fifo_mrc,
    mrc_error,
    sampled_mrc,
)
from repro.sim.multisim import (
    MULTISIM_POLICIES,
    MultiSimResult,
    fifo_multisim,
    multisim,
    sfifo_multisim,
)
from repro.sim.simulator import simulate
from repro.traces.compiled import compile_trace
from repro.traces.synthetic import zipf_trace, zipf_sizes

pytestmark = pytest.mark.mrc

#: The classic Belady-anomaly trace: 9 misses at size 3, 10 at size 4.
BELADY = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]


def assert_bit_identical(policy, trace, sizes, **kwargs):
    """One multisim pass == per-size simulate(), field for field."""
    ct = compile_trace(trace)
    result = multisim(policy, ct, sizes, **kwargs)
    for size in sorted(set(sizes)):
        cache = create_policy(policy, capacity=size, **kwargs)
        ref = simulate(cache, ct)
        mine = result.result_for(size)
        assert mine.misses == ref.misses, (policy, size)
        assert mine.bytes_missed == ref.bytes_missed, (policy, size)
        assert mine.evictions == ref.evictions, (policy, size)
        assert mine.requests == ref.requests, (policy, size)
        assert mine.bytes_requested == ref.bytes_requested, (policy, size)
        assert mine.miss_ratio == ref.miss_ratio, (policy, size)
    return result


@pytest.fixture(scope="module")
def unit_trace():
    return compile_trace(zipf_trace(300, 8000, alpha=1.0, seed=5))


@pytest.fixture(scope="module")
def sized_trace():
    rng = random.Random(0)
    # Sizes up to 8 against capacities as small as 4: oversized
    # requests (miss-even-when-resident) are exercised, not skirted.
    return compile_trace(
        [(rng.randrange(50), rng.choice([1, 1, 2, 3, 8]))
         for _ in range(4000)]
    )


class TestFifoMultisim:
    def test_belady_anomaly_pinned(self):
        """FIFO is not a stack algorithm: the docstring's inclusion
        caveat, pinned on the textbook counterexample."""
        result = fifo_multisim(BELADY, [3, 4])
        assert result.misses == [9, 10]  # more misses at the BIGGER size

    def test_unit_trace_differential(self, unit_trace):
        assert_bit_identical(
            "fifo", unit_trace, [1, 2, 5, 10, 33, 64, 150, 400]
        )

    def test_fast_twin_differential(self, unit_trace):
        assert_bit_identical("fifo-fast", unit_trace, [4, 16, 50])

    def test_sized_trace_differential(self, sized_trace):
        assert_bit_identical("fifo", sized_trace, [4, 7, 16, 40, 120])

    def test_sizes_beyond_every_capacity(self):
        """A size larger than even the biggest cache is a pure miss
        stream at every size — for resident keys too."""
        rng = random.Random(7)
        trace = [(rng.randrange(30), rng.choice([1, 2, 4, 50]))
                 for _ in range(2500)]
        assert_bit_identical("fifo", trace, [3, 10, 25])

    def test_lognormal_sized_differential(self):
        keys = zipf_trace(200, 5000, alpha=0.9, seed=11)
        trace = zipf_sizes(keys, mean_size=64, sigma=1.2, seed=11)
        assert_bit_identical("fifo", trace, [200, 1000, 5000])

    def test_duplicate_and_unsorted_sizes(self, unit_trace):
        result = fifo_multisim(unit_trace, [10, 5, 10, 2])
        assert result.sizes == [2, 5, 10]

    def test_result_for_unknown_size(self, unit_trace):
        result = fifo_multisim(unit_trace, [5])
        with pytest.raises(KeyError):
            result.result_for(6)

    def test_validation(self):
        with pytest.raises(ValueError):
            fifo_multisim([1, 2], [])
        with pytest.raises(ValueError):
            fifo_multisim([1, 2], [0, 5])

    @given(
        trace=st.lists(st.integers(0, 30), min_size=1, max_size=300),
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_unit(self, trace, sizes):
        assert_bit_identical("fifo", trace, sizes)

    @given(
        trace=st.lists(
            st.tuples(st.integers(0, 15), st.integers(1, 12)),
            min_size=1,
            max_size=200,
        ),
        sizes=st.lists(st.integers(1, 20), min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_sized(self, trace, sizes):
        assert_bit_identical("fifo", trace, sizes)


class TestSfifoMultisim:
    def test_unit_trace_differential(self, unit_trace):
        assert_bit_identical("sfifo", unit_trace, [1, 2, 5, 10, 33, 150])

    @pytest.mark.parametrize("ratio", [0.1, 0.3, 0.6, 0.9])
    def test_primary_ratio_sweep(self, unit_trace, ratio):
        assert_bit_identical(
            "sfifo", unit_trace, [7, 29, 80], primary_ratio=ratio
        )

    def test_sized_trace_differential(self, sized_trace):
        assert_bit_identical("sfifo", sized_trace, [4, 7, 16, 40, 120])

    def test_sized_nondefault_ratio(self, sized_trace):
        assert_bit_identical(
            "sfifo", sized_trace, [5, 19, 77], primary_ratio=0.15
        )

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            sfifo_multisim([1, 2], [4], primary_ratio=1.5)

    @given(
        trace=st.lists(
            st.tuples(st.integers(0, 15), st.integers(1, 12)),
            min_size=1,
            max_size=150,
        ),
        sizes=st.lists(st.integers(1, 20), min_size=1, max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_sized(self, trace, sizes):
        assert_bit_identical("sfifo", trace, sizes)


class TestDispatch:
    def test_policy_names(self):
        assert set(MULTISIM_POLICIES) == {"fifo", "fifo-fast", "sfifo"}

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            multisim("lru", [1, 2], [4])

    def test_fifo_rejects_kwargs(self):
        with pytest.raises(TypeError):
            multisim("fifo", [1, 2], [4], primary_ratio=0.3)

    def test_repr(self, unit_trace):
        result = fifo_multisim(unit_trace, [5])
        assert repr(result).startswith("MultiSimResult(fifo, 5:")
        assert isinstance(result, MultiSimResult)


class TestMrcApi:
    def test_fifo_mrc_matches_engine(self, unit_trace):
        sizes = [10, 40, 160]
        curve = fifo_mrc(unit_trace, sizes=sizes)
        engine = fifo_multisim(unit_trace, sizes)
        assert curve.sizes == engine.sizes
        assert curve.miss_ratios == engine.miss_ratios

    def test_fifo_mrc_default_sizes(self, unit_trace):
        curve = fifo_mrc(unit_trace)
        assert curve.sizes[-1] == unit_trace.num_objects

    def test_fifo_mrc_empty_trace(self):
        with pytest.raises(ValueError):
            fifo_mrc([])

    def test_fifo_not_monotone_on_belady(self):
        assert not fifo_mrc(BELADY, sizes=[3, 4]).is_monotone()


class TestS3FifoSampled:
    @pytest.fixture(scope="class")
    def big_trace(self):
        return compile_trace(
            zipf_trace(20_000, 150_000, alpha=0.9, seed=0)
        )

    def test_error_bound_vs_exact(self, big_trace):
        """The headline accuracy claim: the sampled S3-FIFO MRC is
        within S3FIFO_MRC_ERROR_BOUND of exact re-simulation."""
        sizes = [500, 1000, 2000, 4000, 8000, 16000]
        approx = sampled_mrc(
            "s3fifo", big_trace, sizes, rate=0.25, seed=0, ensembles=3
        )
        exact_mrs = []
        for size in sizes:
            cache = create_policy("s3fifo", capacity=size)
            result = simulate(cache, big_trace)
            exact_mrs.append(result.miss_ratio)
        exact = MissRatioCurve(sizes, exact_mrs)
        error = mrc_error(approx, exact)
        assert error <= S3FIFO_MRC_ERROR_BOUND, error

    def test_s3fifo_mrc_wrapper(self, big_trace):
        curve = sampled_mrc(
            "s3fifo", big_trace, [1000, 8000], rate=0.25, seed=0, ensembles=2
        )
        assert isinstance(curve, MissRatioCurve)
        assert list(curve.sizes) == [1000, 8000]
        assert curve.miss_ratios[0] > curve.miss_ratios[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            sampled_mrc("s3fifo", [1, 2], [4], rate=0.0)
        with pytest.raises(ValueError):
            sampled_mrc("s3fifo", [1, 2], [4], ensembles=0)
