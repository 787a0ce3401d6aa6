"""Snapshots, warm restart, stats round-trips, crash recovery."""

import pytest

from repro.cache.base import CacheStats
from repro.cache.lru import LruCache
from repro.cache.registry import create_policy
from repro.core.s3fifo import S3FifoCache
from repro.resilience.faults import CRASH, FaultPlan
from repro.resilience.snapshot import (
    CrashRecoveryResult,
    SnapshotError,
    crash_recovery_experiment,
    load_snapshot,
    restore_policy,
    save_snapshot,
    snapshot_policy,
)
from repro.sim.simulator import simulate
from repro.traces.synthetic import zipf_trace

pytestmark = pytest.mark.resilience


class TestCacheStatsRoundtrip:
    def test_as_dict_covers_all_slots(self):
        stats = CacheStats()
        stats.requests = 10
        stats.hits = 4
        stats.misses = 6
        assert set(stats.as_dict()) == set(CacheStats.__slots__)
        assert stats.as_dict()["hits"] == 4

    def test_from_dict_roundtrip(self):
        stats = CacheStats()
        stats.requests, stats.hits, stats.misses = 10, 4, 6
        stats.bytes_requested, stats.bytes_missed = 1000, 600
        back = CacheStats.from_dict(stats.as_dict())
        assert back.as_dict() == stats.as_dict()
        assert back.miss_ratio == stats.miss_ratio

    def test_checksum_detects_tamper(self):
        stats = CacheStats()
        stats.requests = stats.hits = 100
        digest = stats.checksum()
        assert stats.checksum() == digest  # stable
        stats.hits -= 1
        assert stats.checksum() != digest


def _warm(policy, n=5_000):
    trace = zipf_trace(500, n, alpha=1.0, seed=21)
    simulate(policy, trace)
    return policy, trace


class TestSnapshotRoundtrip:
    @pytest.mark.parametrize("factory", [
        lambda: S3FifoCache(capacity=100),
        lambda: LruCache(capacity=100),
        # Its defaults are Algorithm 1, so it snapshots as s3fifo.
        lambda: create_policy("s3variant", capacity=100),
    ])
    def test_restored_cache_behaves_identically(self, factory):
        policy, _trace = _warm(factory())
        clone = restore_policy(snapshot_policy(policy))
        probe = zipf_trace(500, 2_000, alpha=1.0, seed=22)
        a = simulate(policy, list(probe))
        b = simulate(clone, list(probe))
        assert a.miss_ratio == b.miss_ratio
        assert a.evictions == b.evictions

    def test_s3fifo_structure_preserved(self):
        policy, _ = _warm(S3FifoCache(capacity=100))
        clone = restore_policy(snapshot_policy(policy))
        assert list(clone._small) == list(policy._small)
        assert list(clone._main) == list(policy._main)
        assert clone.small_used == policy.small_used
        assert clone.main_used == policy.main_used
        assert clone.used == policy.used
        assert clone.clock == policy.clock
        freqs = lambda p: [e.freq for e in p._main.values()]  # noqa: E731
        assert freqs(clone) == freqs(policy)

    def test_stats_survive_with_checksum(self):
        policy, _ = _warm(S3FifoCache(capacity=100))
        snap = snapshot_policy(policy)
        clone = restore_policy(snap)
        assert clone.stats.checksum() == policy.stats.checksum()
        assert clone.stats.as_dict() == policy.stats.as_dict()

    def test_tampered_snapshot_rejected(self):
        policy, _ = _warm(S3FifoCache(capacity=100))
        snap = snapshot_policy(policy)
        snap["stats"]["hits"] += 1
        with pytest.raises(SnapshotError, match="checksum"):
            restore_policy(snap)

    def test_file_roundtrip(self, tmp_path):
        policy, _ = _warm(LruCache(capacity=100))
        path = tmp_path / "cache.snap"
        save_snapshot(path, snapshot_policy(policy))
        clone = restore_policy(load_snapshot(path))
        assert len(clone) == len(policy)
        assert clone.used == policy.used

    def test_unsupported_policy_errors(self):
        """Only Algorithm 1 snapshots as s3fifo; the class's other queue
        disciplines (and the adaptive subclass) must not be captured as
        it."""
        for name, kwargs in [
            ("s3sieve", {}),
            ("s3variant", {"main_type": "lru"}),
            ("s3variant", {"small_type": "lru"}),
            ("s3variant", {"promote_on_hit": True}),
            ("s3fifo-d", {}),
        ]:
            policy = create_policy(name, capacity=50, **kwargs)
            with pytest.raises(SnapshotError, match="not supported"):
                snapshot_policy(policy)

    def test_bad_version_rejected(self):
        policy, _ = _warm(S3FifoCache(capacity=100))
        snap = snapshot_policy(policy)
        snap["version"] = 99
        with pytest.raises(SnapshotError, match="version"):
            restore_policy(snap)


class TestCrashRecovery:
    def test_warm_restart_beats_cold(self):
        trace = zipf_trace(1_000, 20_000, alpha=1.0, seed=3)
        plan = FaultPlan().add(CRASH, 10_000, 10_001)
        result = crash_recovery_experiment(
            trace, capacity=100, policy="s3fifo", plan=plan
        )
        assert isinstance(result, CrashRecoveryResult)
        assert result.crash_at == 10_000
        assert result.post_requests == 10_000
        # A warm cache skips the refill misses a cold restart pays.
        assert result.warm_miss_ratio < result.cold_miss_ratio
        assert result.recovery_benefit > 0

    def test_deterministic_across_runs(self):
        trace = zipf_trace(500, 8_000, alpha=1.0, seed=4)
        kwargs = dict(capacity=64, policy="lru", crash_at=4_000)
        a = crash_recovery_experiment(trace, **kwargs)
        b = crash_recovery_experiment(trace, **kwargs)
        assert (a.cold_miss_ratio, a.warm_miss_ratio) == (
            b.cold_miss_ratio,
            b.warm_miss_ratio,
        )

    def test_requires_crash_point(self):
        trace = zipf_trace(100, 1_000, seed=0)
        with pytest.raises(ValueError, match="crash"):
            crash_recovery_experiment(trace, capacity=10, plan=FaultPlan())
        with pytest.raises(ValueError):
            crash_recovery_experiment(trace, capacity=10, crash_at=5_000)

    def test_unsupported_policy(self):
        trace = zipf_trace(100, 1_000, seed=0)
        with pytest.raises(SnapshotError):
            crash_recovery_experiment(
                trace, capacity=10, policy="clock", crash_at=500
            )
