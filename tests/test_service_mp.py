"""Process-per-shard backend: parity, lifecycle, and crash safety.

Everything here spawns real worker processes, so the module carries
the ``mp`` marker and runs via ``make mp``, outside tier-1.  The load
they exercise is deliberately small — the claims are correctness
claims (identical routing to the in-process sharded service, clean
teardown, crash containment), not throughput claims; those live in
``benchmarks/perf/test_mp_guard.py``.
"""

import multiprocessing
import time

import pytest

from repro.resilience import WORKER_CRASH, FaultPlan
from repro.service import (
    CacheService,
    MPCacheService,
    RemovalUnsupportedError,
    ServiceClosedError,
    ShardedCacheService,
    WorkerCrashedError,
)

pytestmark = pytest.mark.mp


def assert_no_orphans():
    """Every worker this test spawned must be gone."""
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.02)
    assert multiprocessing.active_children() == []


def workload(n=400, span=120, seed=3):
    keys = []
    state = seed
    for _ in range(n):
        state = (state * 1103515245 + 12345) % (2 ** 31)
        keys.append(state % span)
    return keys


def drive(svc, keys, batch=25):
    for i in range(0, len(keys), batch):
        chunk = keys[i:i + batch]
        values = svc.get_many(chunk)
        missed = [(k, k) for k, v in zip(chunk, values) if v is None]
        if missed:
            svc.set_many(missed)
    svc.delete_many(keys[::7])
    svc.get_many(keys[: len(keys) // 2])


class TestRoundtrip:
    def test_basic_ops(self):
        with MPCacheService(64, "s3fifo", num_workers=2) as svc:
            assert svc.set("a", {"rich": [1, 2]}) is True
            assert svc.get("a") == {"rich": [1, 2]}
            assert svc.get("missing", default="d") == "d"
            assert "a" in svc and "missing" not in svc
            assert len(svc) == 1
            assert svc.delete("a") is True
            assert svc.delete("a") is False
        assert_no_orphans()

    def test_handshake_surface(self):
        with MPCacheService(64, "s3fifo", num_workers=2) as svc:
            assert svc.policy_name == "s3fifo"
            assert svc.supports_removal is True
            assert len(svc.worker_pids) == 2
            assert len(set(svc.worker_pids)) == 2

    def test_ttl_across_the_pipe(self):
        """The _UNSET sentinel cannot survive pickling; the wire
        protocol must distinguish default-ttl from explicit ttl."""
        with MPCacheService(64, "s3fifo", num_workers=2,
                            default_ttl=60.0) as svc:
            svc.set("inherit", 1)            # takes the default ttl
            svc.set("explicit", 2, ttl=0.01)
            svc.set("never", 3, ttl=None)    # overrides to no-expiry
            assert svc.stats()["ttl_entries"] == 2
            time.sleep(0.03)
            assert svc.get("explicit") is None
            assert svc.get("never") == 3
            with pytest.raises(ValueError):
                svc.set("bad", 1, ttl=-2)
        assert_no_orphans()

    def test_sweep_check_len(self):
        with MPCacheService(64, "s3fifo", num_workers=2,
                            checked=True) as svc:
            svc.set_many([(k, k) for k in range(30)], ttl=0.01)
            time.sleep(0.03)
            assert svc.sweep() == 30
            svc.check()
            assert len(svc) == 0

    def test_removal_unsupported_crosses_the_pipe(self):
        with MPCacheService(64, "blru", num_workers=2) as svc:
            assert svc.supports_removal is False
            with pytest.raises(RemovalUnsupportedError):
                svc.delete("q")
            with pytest.raises(RemovalUnsupportedError):
                svc.delete_many([1, 2])

    def test_remote_errors_do_not_desync_the_channel(self):
        with MPCacheService(64, "s3fifo", num_workers=2) as svc:
            for _ in range(3):
                with pytest.raises(ValueError):
                    svc.set("k", 1, size=0)
            # The pipe must still be in lockstep after remote errors.
            assert svc.set("k", 1) is True
            assert svc.get("k") == 1


class TestParity:
    """Identical stable-hash routing => identical per-shard streams."""

    def test_single_worker_matches_cache_service(self):
        keys = workload()
        mp_svc = MPCacheService(48, "s3fifo", num_workers=1)
        ref = CacheService(48, "s3fifo")
        try:
            drive(mp_svc, keys)
            drive(ref, keys)
            mp_stats = mp_svc.stats()
            ref_stats = ref.stats()
            for field in ("gets", "hits", "misses", "sets", "deletes",
                          "evictions", "objects", "used", "hit_ratio"):
                assert mp_stats[field] == ref_stats[field], field
        finally:
            mp_svc.close()
        assert_no_orphans()

    @pytest.mark.parametrize("policy", ["s3fifo", "s3fifo-fast", "lru"])
    def test_workers_match_sharded_service(self, policy):
        keys = workload(n=600, span=150)
        mp_svc = MPCacheService(64, policy, num_workers=4)
        ref = ShardedCacheService(64, policy, num_shards=4)
        try:
            drive(mp_svc, keys)
            drive(ref, keys)
            mp_stats = mp_svc.stats()
            ref_stats = ref.stats()
            # Byte-identical per-shard breakdowns: same hash, same
            # shards, same request order within each shard.
            assert mp_stats["per_shard"] == ref_stats["per_shard"]
            assert mp_svc.ops_per_shard() == ref.ops_per_shard()
        finally:
            mp_svc.close()
        assert_no_orphans()

    def test_blru_rejections_cross_the_pipe(self):
        items = [(k, k) for k in range(60)]
        mp_svc = MPCacheService(16, "blru", num_workers=2)
        ref = ShardedCacheService(16, "blru", num_shards=2)
        try:
            assert mp_svc.set_many(items) == ref.set_many(items)
            assert mp_svc.stats()["rejected"] == ref.stats()["rejected"]
            assert mp_svc.stats()["rejected"] > 0
        finally:
            mp_svc.close()


class TestLifecycle:
    def test_close_is_idempotent(self):
        svc = MPCacheService(32, "s3fifo", num_workers=2)
        svc.set("a", 1)
        svc.close()
        svc.close()
        assert_no_orphans()

    def test_ops_after_close_raise(self):
        svc = MPCacheService(32, "s3fifo", num_workers=2)
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.get("a")
        with pytest.raises(ServiceClosedError):
            svc.stats()

    def test_context_manager_closes(self):
        with MPCacheService(32, "s3fifo", num_workers=2) as svc:
            svc.set("a", 1)
        assert_no_orphans()
        with pytest.raises(ServiceClosedError):
            svc.get("a")

    def test_constructor_failure_leaves_no_workers(self):
        with pytest.raises(Exception):
            MPCacheService(64, "definitely-not-a-policy", num_workers=2)
        assert_no_orphans()

    def test_workers_are_daemons(self):
        with MPCacheService(32, "s3fifo", num_workers=2) as svc:
            svc.set("a", 1)
            for proc in multiprocessing.active_children():
                assert proc.daemon


class _Stall:
    """A payload whose *deserialization* blocks for 30 s in the worker,
    wedging the request/response ping-pong mid-exchange."""

    def __reduce__(self):
        return (time.sleep, (30.0,))


class TestWedgedWorker:
    """Regression: close() once waited on a worker that would never
    reply — the join had no deadline and the zombie leaked.  The
    cluster kept that unbounded wait on the channel lock until it
    shared mp's teardown."""

    @pytest.mark.parametrize("backend,transport", [
        pytest.param("mp", "pipe", id="pipe"),
        pytest.param("mp", "shm", id="shm"),
        pytest.param("cluster", "pipe", id="cluster",
                     marks=pytest.mark.cluster),
    ])
    def test_close_terminates_wedged_worker(self, backend, transport):
        import threading

        if backend == "mp":
            svc = MPCacheService(32, "s3fifo", num_workers=2,
                                 transport=transport)
        else:
            from repro.cluster import ClusterCacheService

            svc = ClusterCacheService(32, "s3fifo", num_nodes=2)
        svc.set("a", 1)

        def wedge():
            try:
                svc.set("stall", _Stall())
            except Exception:
                pass  # teardown surfaces as a crash/closed error here

        t = threading.Thread(target=wedge, daemon=True)
        t.start()
        time.sleep(0.3)  # let the worker start sleeping inside loads()
        start = time.monotonic()
        svc.close(timeout=1.0)
        elapsed = time.monotonic() - start
        # Bounded: lock acquire 0.1s + join 1s + terminate grace, never
        # the worker's 30s nap.
        assert elapsed < 10.0
        svc.close()  # still idempotent after the hard path
        t.join(timeout=10.0)
        assert not t.is_alive()
        assert_no_orphans()


class TestCrashSafety:
    def crash_plan(self, at=3):
        return FaultPlan().add(WORKER_CRASH, at, at + 1)

    def test_injected_crash_surfaces_and_cleans_up(self):
        svc = MPCacheService(
            64, "s3fifo", num_workers=2,
            fault_plans={0: self.crash_plan()},
        )
        crashed = None
        try:
            for i in range(500):
                try:
                    svc.set(f"k{i}", i)
                except WorkerCrashedError as exc:
                    crashed = exc
                    break
            assert crashed is not None, "worker-crash fault never fired"
            assert crashed.worker_id == 0
            assert crashed.exitcode == 13
        finally:
            svc.close()
        assert_no_orphans()

    def test_survivors_still_serve_after_peer_crash(self):
        svc = MPCacheService(
            64, "s3fifo", num_workers=2,
            fault_plans={0: self.crash_plan(at=1)},
        )
        try:
            survivors = []
            for i in range(500):
                try:
                    svc.set(f"k{i}", i)
                    survivors.append(f"k{i}")
                except WorkerCrashedError:
                    pass
            # Keys on the surviving worker still roundtrip.
            alive = [k for k in survivors if svc.shard_for(k) == 1]
            assert alive, "expected some keys on the surviving worker"
            assert svc.get(alive[-1]) is not None
        finally:
            svc.close()
        assert_no_orphans()

    @pytest.mark.parametrize(
        "transport", ["pipe", pytest.param("shm", marks=pytest.mark.shm)]
    )
    def test_dead_worker_fails_fast(self, transport):
        """Once a worker is seen dead, every later op routed to it
        raises the same crash without touching its channel — over shm
        a send into the dead ring used to wait out a liveness poll."""
        svc = MPCacheService(
            64, "s3fifo", num_workers=2, transport=transport,
            fault_plans={0: self.crash_plan(at=1)},
        )
        try:
            with pytest.raises(WorkerCrashedError) as first:
                svc.set_many([(k, k) for k in range(20)])
            dead = [k for k in range(1000) if svc.shard_for(k) == 0][:50]
            start = time.monotonic()
            for key in dead:
                with pytest.raises(WorkerCrashedError) as exc:
                    svc.get(key)
                assert (exc.value.worker_id, exc.value.pid,
                        exc.value.exitcode) == (
                    0, first.value.pid, first.value.exitcode)
            assert time.monotonic() - start < 1.0
            assert first.value.exitcode == 13
        finally:
            svc.close()
        assert_no_orphans()

    def test_batch_spanning_crashed_worker_raises_crash(self):
        """A batch touching the dead worker must raise the crash, not
        hang and not return partial results silently."""
        svc = MPCacheService(
            64, "s3fifo", num_workers=2,
            fault_plans={0: self.crash_plan(at=1)},
        )
        try:
            with pytest.raises(WorkerCrashedError):
                for i in range(500):
                    svc.set_many([(f"k{i}", i), (f"j{i}", i)])
        finally:
            svc.close()
        assert_no_orphans()


class TestMetricsMerge:
    def test_worker_metrics_merge_into_one_registry(self):
        from repro.obs import MetricsRegistry, to_prometheus

        with MPCacheService(64, "s3fifo", num_workers=2,
                            collect_metrics=True) as svc:
            drive(svc, workload(n=200))
            registry = MetricsRegistry()
            merged_first = svc.merge_metrics(registry)
            merged_again = svc.merge_metrics(registry)
            assert merged_first == merged_again > 0  # replace, not double
            text = to_prometheus(registry)
            assert 'worker="0"' in text and 'worker="1"' in text
            # Worker series are also labelled by the transport that
            # carried them, so pipe and shm runs never collide.
            assert 'transport="pipe"' in text
            gets = sum(
                registry.get(
                    "repro_service_gets",
                    {"worker": str(i), "transport": "pipe"},
                ).collect_value()
                for i in range(2)
            )
            assert gets == svc.stats()["gets"]

    def test_merge_requires_collect_metrics(self):
        from repro.obs import MetricsRegistry

        with MPCacheService(64, "s3fifo", num_workers=2) as svc:
            with pytest.raises(ValueError):
                svc.merge_metrics(MetricsRegistry())


class TestLoadgenIntegration:
    def test_mp_scenario_row(self):
        from repro.service.loadgen import run_scenario
        from repro.traces.synthetic import zipf_trace

        trace = zipf_trace(
            num_objects=300, num_requests=3000, alpha=1.0, seed=11
        )
        row = run_scenario(
            trace, capacity=30, num_shards=2, num_threads=1,
            backend="mp", batch_size=16,
        )
        assert row["backend"] == "mp"
        assert row["workers"] == 2 and row["batch_size"] == 16
        assert row["ops"] == 3000
        assert row["hits"] + row["misses"] == row["ops"]
        assert len(row["shard_ops"]) == 2
        assert_no_orphans()

    def test_mp_matches_thread_backend_totals(self):
        """Same trace, same routing: the mp row's cache behaviour
        (hits, evictions) must equal the in-process sharded row's."""
        from repro.service.loadgen import run_scenario
        from repro.traces.synthetic import zipf_trace

        trace = zipf_trace(
            num_objects=300, num_requests=3000, alpha=1.0, seed=11
        )
        mp_row = run_scenario(
            trace, capacity=30, num_shards=2, num_threads=1, backend="mp"
        )
        th_row = run_scenario(
            trace, capacity=30, num_shards=2, num_threads=1
        )
        assert mp_row["hits"] == th_row["hits"]
        assert mp_row["evictions"] == th_row["evictions"]
        assert_no_orphans()
