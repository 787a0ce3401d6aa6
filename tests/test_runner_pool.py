"""Sweep-runner fast path: trace cache, persistent pool, job metrics."""

import pytest

from repro.resilience.retry import RetryPolicy
from repro.sim import runner
from repro.sim.runner import (
    SweepJob,
    SweepResult,
    _materialize_trace,
    _sweep_chunksize,
    execute_job,
    run_sweep,
    shutdown_pool,
)
from repro.traces.compiled import CompiledTrace
from repro.traces.datasets import generate_dataset_trace, sized_dataset_trace
from repro.traces.synthetic import zipf_trace


def _trace_factory(n=2_000, seed=0):
    return zipf_trace(num_objects=150, num_requests=n, alpha=1.0, seed=seed)


def _job(policy="lru", n=2_000, seed=0, **kwargs):
    return SweepJob(
        trace_name="zipf",
        trace_factory=_trace_factory,
        trace_kwargs={"n": n, "seed": seed},
        policy=policy,
        cache_size=25,
        **kwargs,
    )


@pytest.fixture(autouse=True)
def _clean_worker_state():
    runner._trace_cache.clear()
    yield
    runner._trace_cache.clear()
    shutdown_pool()


class TestMaterializeTrace:
    def test_compiles_and_caches(self):
        trace = _materialize_trace(_job())
        assert isinstance(trace, CompiledTrace)
        assert len(runner._trace_cache) == 1
        assert _materialize_trace(_job()) is trace

    def test_distinct_kwargs_distinct_entries(self):
        a = _materialize_trace(_job(seed=0))
        b = _materialize_trace(_job(seed=1))
        assert a is not b
        assert len(runner._trace_cache) == 2

    def test_cache_bounded(self):
        for seed in range(runner._TRACE_CACHE_MAX + 3):
            _materialize_trace(_job(seed=seed))
        assert len(runner._trace_cache) == runner._TRACE_CACHE_MAX

    def test_unhashable_kwargs_fall_back_uncached(self):
        job = SweepJob(
            trace_name="zipf",
            trace_factory=lambda sizes: [("a", s) for s in sizes],
            trace_kwargs={"sizes": [1, 2, 3]},  # list: unhashable key
            policy="lru",
            cache_size=5,
        )
        trace = _materialize_trace(job)
        assert len(trace) == 3
        assert not runner._trace_cache

    def test_factory_is_part_of_the_key(self):
        # A dataset's unit and sized traces share a name and kwargs; the
        # sized job must not run on the unit trace cached before it.
        kwargs = {"dataset": "msr", "trace_index": 0, "scale": 0.05,
                  "seed": 0}
        unit = SweepJob("msr/0", generate_dataset_trace, kwargs, "lru", 100)
        sized = SweepJob("msr/0", sized_dataset_trace, kwargs, "lru", 100_000)
        report = run_sweep([unit, sized], processes=1)
        runner._trace_cache.clear()
        fresh = execute_job(sized)
        assert fresh.byte_miss_ratio != fresh.miss_ratio
        assert report[1].miss_ratio == fresh.miss_ratio
        assert report[1].byte_miss_ratio == fresh.byte_miss_ratio

    def test_uncompilable_trace_regenerated_fresh(self):
        # A factory yielding items compile_trace rejects must fall back
        # to a *fresh* factory call, not a half-consumed iterator.
        job = SweepJob(
            trace_name="weird",
            trace_factory=lambda: iter([{"not": "hashable"}]),
            trace_kwargs={},
            policy="lru",
            cache_size=5,
        )
        trace = _materialize_trace(job)
        assert not isinstance(trace, CompiledTrace)
        assert not runner._trace_cache


class TestJobMetrics:
    def test_wall_time_and_rss_populated(self):
        result = execute_job(_job())
        assert result.ok
        assert result.wall_time > 0.0
        assert result.peak_rss_kb > 0

    def test_metrics_populated_on_failure(self):
        result = execute_job(_job(policy="does-not-exist"))
        assert not result.ok
        assert result.wall_time >= 0.0
        assert result.peak_rss_kb > 0

    def test_matches_uncached_result(self):
        # The compiled-cache fast path must not change the numbers.
        cached = execute_job(_job(policy="s3fifo"))
        runner._trace_cache.clear()
        fresh = execute_job(_job(policy="s3fifo"))
        assert cached.miss_ratio == fresh.miss_ratio
        assert cached.requests == fresh.requests


class TestChunksize:
    def test_small_sweeps_stay_fine_grained(self):
        assert _sweep_chunksize(1, 4) == 1
        assert _sweep_chunksize(8, 4) == 1

    def test_large_sweeps_batch_up(self):
        assert _sweep_chunksize(1_000, 4) == 62
        assert _sweep_chunksize(100_000, 4) == 64  # capped

    def test_never_zero(self):
        for jobs in (1, 2, 7, 63, 1_000):
            for procs in (1, 2, 8, 64):
                assert _sweep_chunksize(jobs, procs) >= 1


class TestPersistentPool:
    def test_pool_reused_across_sweeps(self):
        jobs = [_job(p) for p in ("lru", "fifo")]
        run_sweep(jobs, processes=2)
        pool = runner._pool
        assert pool is not None
        run_sweep(jobs, processes=2)
        assert runner._pool is pool

    def test_pool_recreated_on_resize(self):
        jobs = [_job(p) for p in ("lru", "fifo")]
        run_sweep(jobs, processes=2)
        pool = runner._pool
        run_sweep(jobs + [_job("sieve")], processes=3)
        assert runner._pool is not pool
        assert runner._pool_size == 3

    def test_shutdown_idempotent(self):
        run_sweep([_job(), _job("fifo")], processes=2)
        shutdown_pool()
        assert runner._pool is None
        shutdown_pool()  # second call is a no-op

    def test_fast_dispatch_report_complete_and_ordered(self):
        # timeout=None, max_attempts=1: the imap_unordered fast path.
        policies = ["lru", "fifo", "sieve", "s3fifo", "clock", "lru-fast"]
        jobs = [_job(p) for p in policies]
        report = run_sweep(jobs, processes=2)
        assert [r.policy for r in report] == policies
        assert all(r.ok for r in report)
        assert all(r.wall_time > 0 for r in report)

    def test_retry_path_still_works_with_pool(self):
        report = run_sweep(
            [_job(), _job(policy="does-not-exist")],
            processes=2,
            retry=RetryPolicy(max_attempts=2),
        )
        assert report[0].ok
        assert not report[1].ok

    def test_parallel_matches_sequential(self):
        jobs = [_job(p) for p in ("lru", "s3fifo", "s3fifo-fast")]
        seq = run_sweep(jobs, processes=1)
        par = run_sweep(jobs, processes=2)
        assert [r.miss_ratio for r in seq] == [r.miss_ratio for r in par]


def _failing_factory(**_kwargs):
    """A module-level trace factory that always fails (picklable, so
    the pool path runs it in a worker)."""
    raise RuntimeError("no trace for you")


class TestSweepParity:
    """run_sweep rows equal per-job execute_job runs, sequential and
    pooled, over FIFO-family jobs at several sizes of one trace."""

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

    def test_matches_execute_job_sequential(self):
        self._assert_matches_execute_job(processes=1)

    def test_matches_execute_job_in_pool(self):
        self._assert_matches_execute_job(processes=2)

    def _assert_matches_execute_job(self, processes):
        """Every field but the timings matches: peak_rss_kb is a
        process-lifetime high-water mark."""
        jobs = self._jobs()
        baseline = [execute_job(job) for job in jobs]
        report = run_sweep(jobs, processes=processes)
        assert len(report) == len(baseline)
        for mine, ref in zip(report, baseline):
            for field in SweepResult.__slots__:
                if field in ("wall_time", "peak_rss_kb", "tags"):
                    continue
                assert getattr(mine, field) == getattr(ref, field), field
            assert mine.tags.pop("attempts") == 1
            assert mine.tags == ref.tags

    def test_failed_jobs_degrade_to_error_results(self):
        report = run_sweep(self._bad_jobs(), processes=1)
        assert len(report) == 2
        assert all(not r.ok for r in report)
        assert all("RuntimeError" in r.error for r in report)
        assert [r.cache_size for r in report] == [10, 20]

    @pytest.mark.parametrize("processes", [1, 2])
    def test_failed_jobs_are_retried(self, processes):
        # Three jobs give the pool work for both workers, so
        # processes=2 takes the pool's retry rounds.
        jobs = self._bad_jobs() + [
            SweepJob("bad", _failing_factory, {}, "lru", 10)
        ]
        report = run_sweep(
            jobs, processes=processes, retry=RetryPolicy(max_attempts=2)
        )
        assert [r.tags["attempts"] for r in report] == [2, 2, 2]
        assert all("RuntimeError" in r.error for r in report)
