"""Parallel simulation sweeps.

The paper ran ~100 passes over 6594 traces on a distributed
fault-tolerant platform.  This module is the single-machine stand-in:
a multiprocessing pool that executes (trace, policy, cache size) jobs,
regenerating synthetic traces inside the workers so no bulk data is
pickled, and tolerating individual job failures (a failed job returns
an error result instead of aborting the sweep).

:func:`run_sweep` is the only sweep entry point.  Each job is one
:func:`~repro.sim.simulator.simulate` call, and every job goes through
the same pool, retry, timeout and sequential fallback.  Questions over
many sizes of one trace belong to :mod:`repro.sim.multisim` and
:func:`~repro.sim.mrc.fifo_mrc` instead.
"""

from __future__ import annotations

import atexit
import logging
import multiprocessing
import pickle
import resource
import sys
import time
import traceback
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.cache.registry import create_policy
from repro.resilience.retry import RetryPolicy
from repro.sim.simulator import simulate

TraceFactory = Callable[..., Sequence]

logger = logging.getLogger(__name__)

#: Per-worker compiled traces kept alive between jobs (see
#: :func:`_materialize_trace`).  Sweeps fan the same trace out over
#: many (policy, size) pairs; workers that keep the compiled form
#: regenerate and re-compile it zero times instead of once per job.
_TRACE_CACHE_MAX = 8


def _peak_rss_kb() -> int:
    """Process high-water RSS in KiB.

    ``ru_maxrss`` is KiB on Linux but *bytes* on macOS and the BSDs
    (see getrusage(2) on each), so normalize by platform.
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin" or sys.platform.startswith(
        ("freebsd", "netbsd", "openbsd")
    ):
        return rss // 1024
    return rss


class SweepJob:
    """One simulation: a trace factory, a policy, and a cache size."""

    __slots__ = (
        "trace_name",
        "trace_factory",
        "trace_kwargs",
        "policy",
        "policy_kwargs",
        "cache_size",
        "tags",
    )

    def __init__(
        self,
        trace_name: str,
        trace_factory: TraceFactory,
        trace_kwargs: Dict[str, Any],
        policy: str,
        cache_size: int,
        policy_kwargs: Optional[Dict[str, Any]] = None,
        tags: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.trace_name = trace_name
        self.trace_factory = trace_factory
        self.trace_kwargs = dict(trace_kwargs)
        self.policy = policy
        self.policy_kwargs = dict(policy_kwargs or {})
        self.cache_size = cache_size
        self.tags = dict(tags or {})

    def __repr__(self) -> str:
        return (
            f"SweepJob({self.trace_name}, {self.policy}, "
            f"size={self.cache_size})"
        )


class SweepResult:
    """Outcome of one :class:`SweepJob` (or its failure)."""

    __slots__ = (
        "trace_name",
        "policy",
        "cache_size",
        "miss_ratio",
        "byte_miss_ratio",
        "requests",
        "wall_time",
        "peak_rss_kb",
        "tags",
        "error",
    )

    def __init__(
        self,
        trace_name: str,
        policy: str,
        cache_size: int,
        miss_ratio: float = 0.0,
        byte_miss_ratio: float = 0.0,
        requests: int = 0,
        wall_time: float = 0.0,
        peak_rss_kb: int = 0,
        tags: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> None:
        self.trace_name = trace_name
        self.policy = policy
        self.cache_size = cache_size
        self.miss_ratio = miss_ratio
        self.byte_miss_ratio = byte_miss_ratio
        self.requests = requests
        #: Seconds spent in trace materialization + simulation for this
        #: job (queue waits excluded).
        self.wall_time = wall_time
        #: High-water RSS of the executing process when the job ended,
        #: in KiB.  A process-lifetime maximum, so within one worker it
        #: is monotone across jobs — read it as "the sweep fit in this
        #: much memory", not as a per-job footprint.
        self.peak_rss_kb = peak_rss_kb
        self.tags = dict(tags or {})
        self.error = error

    @property
    def ok(self) -> bool:
        return self.error is None

    def __repr__(self) -> str:
        if self.error:
            return f"SweepResult({self.trace_name}, {self.policy}, ERROR)"
        return (
            f"SweepResult({self.trace_name}, {self.policy}, "
            f"miss_ratio={self.miss_ratio:.4f})"
        )


class FailureSummary:
    """One aggregated failure class inside a :class:`SweepReport`."""

    __slots__ = ("exception", "count", "first_traceback", "first_job")

    def __init__(
        self, exception: str, count: int, first_traceback: str, first_job: str
    ) -> None:
        self.exception = exception
        self.count = count
        self.first_traceback = first_traceback
        self.first_job = first_job

    def __repr__(self) -> str:
        return f"FailureSummary({self.exception}, count={self.count})"


def _exception_name(trace_text: str) -> str:
    """The exception class named on the last line of a traceback."""
    for line in reversed(trace_text.strip().splitlines()):
        line = line.strip()
        if line and not line.startswith(("File ", "Traceback", "^")):
            return line.split(":", 1)[0].strip() or "Exception"
    return "Exception"


class SweepReport(List[SweepResult]):
    """The results of one sweep, plus an aggregated failure summary.

    A plain list of :class:`SweepResult` (all existing callers keep
    working), with the failed jobs surfaced instead of silently lost.
    """

    @property
    def ok_results(self) -> List[SweepResult]:
        return [r for r in self if r.ok]

    @property
    def failed(self) -> List[SweepResult]:
        return [r for r in self if not r.ok]

    @property
    def failures(self) -> List[FailureSummary]:
        """Failed jobs grouped by exception class, first traceback kept."""
        groups: Dict[str, FailureSummary] = {}
        for result in self:
            if result.ok:
                continue
            name = _exception_name(result.error)
            summary = groups.get(name)
            if summary is None:
                groups[name] = FailureSummary(
                    exception=name,
                    count=1,
                    first_traceback=result.error,
                    first_job=(
                        f"{result.trace_name}/{result.policy}"
                        f"/{result.cache_size}"
                    ),
                )
            else:
                summary.count += 1
        return sorted(groups.values(), key=lambda s: -s.count)

    def log_failures(self) -> None:
        """One-line warning per failure class (no-op on a clean sweep)."""
        for summary in self.failures:
            logger.warning(
                "sweep lost %d job(s) to %s (first: %s)",
                summary.count,
                summary.exception,
                summary.first_job,
            )


class SweepTimeout(Exception):
    """A sweep job exceeded its per-attempt timeout."""


_trace_cache: Dict[Any, Any] = {}


def _materialize_trace(job: SweepJob):
    """The job's trace, compiled and cached in this process.

    The cache key is ``(trace_factory, trace_name, sorted
    trace_kwargs)``: one name and kwargs may stand for different traces
    under different factories (a dataset's unit and sized variants, for
    one).  Jobs whose kwargs are unhashable (lists, dicts) fall back to
    regenerating the trace, as does anything :func:`compile_trace`
    cannot consume.  The cache is process-local: each pool worker warms its own, which is
    exactly the sharing the fork-based pool gives us for free.
    """
    try:
        key = (
            job.trace_factory,
            job.trace_name,
            tuple(sorted(job.trace_kwargs.items())),
        )
        cached = _trace_cache.get(key)
    except TypeError:
        key = None
        cached = None
    if cached is not None:
        return cached
    trace = job.trace_factory(**job.trace_kwargs)
    try:
        from repro.traces.compiled import CompiledTrace, compile_trace

        if not isinstance(trace, CompiledTrace):
            trace = compile_trace(trace, name=job.trace_name)
        trace.key_ids()  # materialize the hot list view up front
    except Exception:  # noqa: BLE001 - exotic traces simulate uncompiled
        # compile_trace may have part-consumed an iterator trace;
        # regenerate a fresh one and run it uncompiled, uncached.
        return job.trace_factory(**job.trace_kwargs)
    if key is not None:
        if len(_trace_cache) >= _TRACE_CACHE_MAX:
            _trace_cache.pop(next(iter(_trace_cache)))
        _trace_cache[key] = trace
    return trace


def execute_job(job: SweepJob) -> SweepResult:
    """Run one job; never raises — failures land in ``result.error``."""
    start = time.perf_counter()
    try:
        trace = _materialize_trace(job)
        policy = create_policy(
            job.policy, capacity=job.cache_size, **job.policy_kwargs
        )
        result = simulate(policy, trace)
        return SweepResult(
            trace_name=job.trace_name,
            policy=job.policy,
            cache_size=job.cache_size,
            miss_ratio=result.miss_ratio,
            byte_miss_ratio=result.byte_miss_ratio,
            requests=result.requests,
            wall_time=time.perf_counter() - start,
            peak_rss_kb=_peak_rss_kb(),
            tags=job.tags,
        )
    except Exception:  # noqa: BLE001 - fault tolerance is the point
        return _error_result(
            job,
            traceback.format_exc(),
            time.perf_counter() - start,
            _peak_rss_kb(),
        )


def _error_result(
    job: SweepJob, error: str, wall_time: float = 0.0, peak_rss_kb: int = 0
) -> SweepResult:
    """The failed :class:`SweepResult` of one job."""
    return SweepResult(
        trace_name=job.trace_name,
        policy=job.policy,
        cache_size=job.cache_size,
        wall_time=wall_time,
        peak_rss_kb=peak_rss_kb,
        tags=job.tags,
        error=error,
    )


def _execute_indexed(item):
    """Pool worker shim: ``(index, job) -> (index, result)``."""
    idx, job = item
    return idx, execute_job(job)


_pool: Optional[multiprocessing.pool.Pool] = None
_pool_size = 0


def _get_pool(processes: int) -> multiprocessing.pool.Pool:
    """The shared worker pool, (re)created on first use or resize.

    Keeping the pool alive across :func:`run_sweep` calls preserves the
    workers' trace caches, so iterative workflows (MRC sweeps, repeated
    experiments over the same traces) skip both the fork cost and the
    per-worker trace regeneration after the first sweep.
    """
    global _pool, _pool_size
    if _pool is not None and _pool_size != processes:
        shutdown_pool()
    if _pool is None:
        _pool = multiprocessing.Pool(processes=processes)
        _pool_size = processes
    return _pool


def shutdown_pool() -> None:
    """Terminate the shared pool (and its warm caches), if any.

    Called automatically at interpreter exit; call it explicitly to
    reclaim worker memory between sweeps or after changing trace
    factories in place.
    """
    global _pool, _pool_size
    if _pool is not None:
        _pool.terminate()
        _pool.join()
        _pool = None
        _pool_size = 0


atexit.register(shutdown_pool)


def _sweep_chunksize(num_jobs: int, processes: int) -> int:
    """IPC batching for :meth:`imap_unordered`.

    Aim for ~4 chunks per worker so stragglers still rebalance, floor 1
    so tiny sweeps parallelize, cap 64 so one chunk never serializes a
    large sweep's tail.
    """
    return max(1, min(64, num_jobs // (processes * 4) or 1))


def _place(results, idx, result, attempt) -> bool:
    """File a job's result under its index; True if it failed."""
    result.tags["attempts"] = attempt
    results[idx] = result
    return not result.ok


def _pool_round(pool, pending, results, timeout, attempt):
    """Submit one round of jobs; returns the ``(index, job)`` pairs
    that failed or timed out and are eligible for another attempt."""
    submitted = [
        (idx, job, pool.apply_async(execute_job, (job,)))
        for idx, job in pending
    ]
    failed = []
    for idx, job, handle in submitted:
        try:
            result = handle.get(timeout)
        except multiprocessing.TimeoutError:
            # The worker may still be burning CPU; run_sweep discards
            # the shared pool after a sweep that saw timeouts.
            result = _error_result(
                job,
                f"SweepTimeout: job exceeded {timeout}s "
                f"(attempt {attempt})\n",
            )
        if _place(results, idx, result, attempt):
            failed.append((idx, job))
    return failed


def _record_sweep_metrics(registry, report: SweepReport) -> None:
    """Publish a finished sweep into a metrics registry.

    Recording happens entirely in the parent process from the results
    it already holds — worker processes never see the registry, so no
    IPC or shared memory is involved.
    """
    wall = registry.histogram(
        "repro_sweep_job_wall_seconds",
        "Per-job wall time as measured in the worker.",
        buckets=(0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60, 300),
    )
    retries = registry.counter(
        "repro_sweep_retries", "Job attempts beyond each job's first."
    )
    for result in report:
        registry.counter(
            "repro_sweep_jobs", "Sweep jobs by final status.",
            {"status": "ok" if result.ok else "failed"},
        ).inc()
        attempts = int(result.tags.get("attempts", 1))
        if attempts > 1:
            retries.inc(attempts - 1)
        if result.ok:
            wall.observe(result.wall_time)


def run_sweep(
    jobs: Iterable[SweepJob],
    processes: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
    metrics=None,
) -> SweepReport:
    """Execute jobs, in parallel when ``processes`` allows it.

    Each job is one :func:`execute_job` call.  Results come back in
    input order, one per job.

    ``processes=None`` uses one worker per CPU (capped at the number of
    jobs); ``processes<=1`` runs sequentially in-process, which
    is also the fallback when the platform cannot fork.

    Parallel sweeps run on a persistent worker pool that survives
    across calls (see :func:`shutdown_pool`), so repeated sweeps reuse
    both the forked workers and their per-worker compiled-trace
    caches.  The common case — no timeout, single attempt — dispatches
    via ``imap_unordered`` with a tuned chunksize so small jobs don't
    pay one IPC round-trip each.

    With ``retry`` set, failed (or timed-out) jobs are
    re-executed up to ``retry.max_attempts`` times; backoff delays are
    not slept — sweeps are batch work, the retry policy only bounds the
    attempt count and timeout.  ``timeout`` (seconds per job attempt,
    parallel mode only — a stuck in-process job cannot be preempted)
    defaults to ``retry.attempt_timeout``.  Each result records its
    attempt count in ``tags["attempts"]``, and the returned
    :class:`SweepReport` aggregates whatever still failed.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) records
    job counts by status, retry counts, and a per-job wall-time
    histogram — all from the parent process as results arrive.
    """
    indexed = list(enumerate(jobs))
    report = SweepReport()
    if not indexed:
        return report
    if timeout is None and retry is not None:
        timeout = retry.attempt_timeout
    max_attempts = retry.max_attempts if retry is not None else 1
    if processes is None:
        processes = min(len(indexed), multiprocessing.cpu_count())

    results: Dict[int, SweepResult] = {}
    pending = indexed
    if processes > 1 and len(indexed) > 1:
        try:
            pool = _get_pool(processes)
            if timeout is None and max_attempts == 1:
                chunksize = _sweep_chunksize(len(indexed), processes)
                logger.debug(
                    "sweep dispatch: %d jobs on %d workers, "
                    "chunksize=%d (~%d chunks)",
                    len(indexed),
                    processes,
                    chunksize,
                    -(-len(indexed) // chunksize),
                )
                for idx, result in pool.imap_unordered(
                    _execute_indexed, indexed, chunksize=chunksize
                ):
                    _place(results, idx, result, 1)
                pending = []
            else:
                for attempt in range(1, max_attempts + 1):
                    if not pending:
                        break
                    pending = _pool_round(
                        pool, pending, results, timeout, attempt
                    )
                if any(not r.ok and "SweepTimeout" in (r.error or "")
                       for r in results.values()):
                    # Timed-out workers may still be burning CPU on the
                    # stuck jobs; discard the pool rather than queue the
                    # next sweep behind stragglers.
                    shutdown_pool()
        except (OSError, pickle.PicklingError, AttributeError):
            # No fork available, or a non-module-level trace factory was
            # passed: degrade gracefully to sequential execution.  The
            # pool may hold poisoned queues after a pickling error, so
            # rebuild it next time.
            shutdown_pool()
            results.clear()
            pending = indexed
    for attempt in range(1, max_attempts + 1):
        if not pending:
            break
        failed = []
        for idx, job in pending:
            if _place(results, idx, execute_job(job), attempt):
                failed.append((idx, job))
        pending = failed
    report.extend(results[idx] for idx in sorted(results))
    report.log_failures()
    if metrics is not None:
        _record_sweep_metrics(metrics, report)
    return report
