"""Differential tests for the single-pass multi-size engine.

The whole value of :mod:`repro.sim.multisim` is the *exactness* claim:
one pass must reproduce per-size :func:`repro.sim.simulate` runs
bit-for-bit for FIFO and S-FIFO, at every size, on unit and sized
traces alike — including oversized requests, which the reference
counts as misses even for resident keys.  Everything here is a
differential against the reference policies, plus the pinned error
bound for sampled S3-FIFO curves and the sweep runner's coalescing of
same-trace FIFO jobs into one pass.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.registry import create_policy
from repro.resilience.retry import RetryPolicy
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
from repro.sim.runner import (
    SweepJob,
    SweepResult,
    coalesce_jobs,
    execute_job,
    run_sweep,
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


class TestRunnerCoalescing:
    TRACE_KWARGS = {
        "num_objects": 1000,
        "num_requests": 15_000,
        "alpha": 1.0,
        "seed": 3,
    }

    def _jobs(self):
        jobs = []
        for policy in ("fifo", "sfifo", "lru"):
            for cap in (20, 80, 300):
                jobs.append(
                    SweepJob(
                        trace_name="z",
                        trace_factory=zipf_trace,
                        trace_kwargs=self.TRACE_KWARGS,
                        policy=policy,
                        cache_size=cap,
                        tags={"policy": policy, "cap": cap},
                    )
                )
        return jobs

    @staticmethod
    def _bad_jobs():
        return [
            SweepJob(
                trace_name="bad",
                trace_factory=_failing_factory,
                trace_kwargs={},
                policy="fifo",
                cache_size=cap,
            )
            for cap in (10, 20)
        ]

    def test_coalesce_groups_fifo_family_only(self):
        groups, singles = coalesce_jobs(self._jobs())
        assert [mjob.policy for _, mjob in groups] == ["fifo", "sfifo"]
        assert all(mjob.cache_sizes == [20, 80, 300] for _, mjob in groups)
        assert [job.policy for _, job in singles] == ["lru"] * 3
        # Original indices survive so results reassemble in order.
        assert [idx for idx, _ in singles] == [6, 7, 8]

    def test_lone_sizes_stay_single(self):
        jobs = self._jobs()[:1]
        groups, singles = coalesce_jobs(jobs)
        assert not groups
        assert len(singles) == 1

    def test_unhashable_kwargs_stay_single(self):
        jobs = [
            SweepJob("z", zipf_trace, {"num_objects": [1]}, "fifo", cap)
            for cap in (10, 20)
        ]
        groups, singles = coalesce_jobs(jobs)
        assert not groups
        assert len(singles) == 2

    def test_matches_run_sweep_sequential(self):
        self._assert_matches_execute_job(processes=1)

    def test_matches_execute_job_in_pool(self):
        self._assert_matches_execute_job(processes=2)

    def _assert_matches_execute_job(self, processes):
        """Coalesced rows equal per-job execute_job runs in every field
        but the timings: wall_time is the shared pass's, and
        peak_rss_kb is a process-lifetime high-water mark."""
        jobs = self._jobs()
        baseline = [execute_job(job) for job in jobs]
        coalesced = run_sweep(jobs, processes=processes)
        assert len(coalesced) == len(baseline)
        for mine, ref in zip(coalesced, baseline):
            for field in SweepResult.__slots__:
                if field in ("wall_time", "peak_rss_kb", "tags"):
                    continue
                assert getattr(mine, field) == getattr(ref, field), field
            bookkeeping = ("attempts", "coalesced")
            assert {
                k: v for k, v in mine.tags.items() if k not in bookkeeping
            } == ref.tags

    def test_coalesced_tag_and_attempts(self):
        report = run_sweep(self._jobs(), processes=1)
        for result in report:
            assert result.tags["attempts"] == 1
            if result.policy in ("fifo", "sfifo"):
                assert result.tags["coalesced"] == 3
            else:
                assert "coalesced" not in result.tags

    def test_failed_group_degrades_to_error_results(self):
        report = run_sweep(self._bad_jobs(), processes=1)
        assert len(report) == 2
        assert all(not r.ok for r in report)
        assert all("RuntimeError" in r.error for r in report)
        assert [r.cache_size for r in report] == [10, 20]

    @pytest.mark.parametrize("processes", [1, 2])
    def test_failed_group_is_retried(self, processes):
        # A failing single job beside the group gives the pool two
        # work units, so processes=2 takes the pool's retry rounds.
        jobs = self._bad_jobs() + [
            SweepJob("bad", _failing_factory, {}, "lru", 10)
        ]
        report = run_sweep(
            jobs, processes=processes, retry=RetryPolicy(max_attempts=2)
        )
        assert [r.tags["attempts"] for r in report] == [2, 2, 2]
        assert all("RuntimeError" in r.error for r in report)


def _failing_factory(**_kwargs):
    """A module-level trace factory that always fails (picklable, so
    the pool path runs it in a worker)."""
    raise RuntimeError("no trace for you")
