"""CheckedPolicy: the cross-policy invariant net.

The property test sweeps *every* registered policy through the
sanitizer on a 10k-request Zipf trace at three cache sizes; the
corruption tests prove the sanitizer actually catches broken internals
with a diagnostic naming the violated invariant.
"""

import pytest

from repro.cache.registry import policy_names
from repro.core.s3fifo import S3FifoCache, S3SieveCache
from repro.resilience.sanitizer import (
    CheckedPolicy,
    InvariantViolation,
    run_checked,
)
from repro.sim.request import Request
from repro.sim.simulator import simulate

pytestmark = pytest.mark.resilience

CACHE_SIZES = (10, 50, 250)


@pytest.mark.parametrize("name", policy_names())
def test_every_policy_passes_sanitizer(name, small_zipf, checked_policy):
    """Property: no registered policy violates an invariant on a clean
    Zipf trace at any of three cache sizes."""
    for capacity in CACHE_SIZES:
        checked = checked_policy(name, capacity)
        for key in small_zipf:
            checked.access(key)
        checked.check()
        assert checked.checks_run > len(small_zipf)


def test_checked_policy_is_transparent(small_zipf):
    """Wrapping must not change hits, misses, or eviction counts."""
    raw = simulate(S3FifoCache(capacity=100), small_zipf)
    wrapped = simulate(CheckedPolicy(S3FifoCache(capacity=100)), small_zipf)
    assert wrapped.miss_ratio == raw.miss_ratio
    assert wrapped.evictions == raw.evictions


def test_run_checked_returns_hits(small_zipf):
    checked, hits = run_checked(S3FifoCache(capacity=100), small_zipf[:1000])
    assert len(hits) == 1000
    assert any(hits)
    assert isinstance(checked.policy, S3FifoCache)


class TestCorruptionDetection:
    """Deliberately break internals; the sanitizer must name the crime."""

    def _warmed(self, deep_every=1, cls=S3FifoCache):
        policy = cls(capacity=50)
        checked = CheckedPolicy(policy, deep_every=deep_every)
        for key in range(200):
            checked.access(key % 80)
        return policy, checked

    def test_occupancy_overflow(self):
        policy, checked = self._warmed()
        policy.used = policy.capacity + 1
        with pytest.raises(InvariantViolation, match="occupancy"):
            checked.check()

    def test_byte_accounting_mismatch(self):
        policy, checked = self._warmed()
        policy._s_used += 7  # counter drifts from the actual S contents
        with pytest.raises(InvariantViolation, match="small-queue-accounting"):
            checked.check()

    def test_duplicate_key_across_queues(self):
        policy, checked = self._warmed()
        key, entry = next(iter(policy._small.items()))
        policy._main[key] = entry  # the S/M disjointness the paper relies on
        with pytest.raises(InvariantViolation, match="duplicate-key"):
            checked.check()

    def test_duplicate_key_across_queues_s3sieve(self):
        policy, checked = self._warmed(cls=S3SieveCache)
        key, entry = next(iter(policy._small.items()))
        policy._main[key] = entry
        policy._lap[key] = entry  # the hand agrees, so only S/M overlap
        with pytest.raises(InvariantViolation, match="duplicate-key"):
            checked.check()

    def test_sieve_hand_out_of_step_with_main(self):
        policy, checked = self._warmed(cls=S3SieveCache)
        key = next(iter(policy._main))
        (policy._lap if key in policy._lap else policy._passed).pop(key)
        with pytest.raises(InvariantViolation, match="sieve-hand"):
            checked.check()

    def test_ghost_holds_resident_key(self):
        policy, checked = self._warmed()
        resident = next(iter(policy._small))
        policy._ghost.add(resident)
        with pytest.raises(InvariantViolation, match="ghost-consistency"):
            checked.check()

    def test_frequency_out_of_range(self):
        policy, checked = self._warmed()
        next(iter(policy._small.values())).freq = 99
        with pytest.raises(InvariantViolation, match="frequency-range"):
            checked.check()

    def test_stats_corruption(self):
        policy, checked = self._warmed()
        policy.stats.hits += 1  # hits + misses no longer equals requests
        with pytest.raises(InvariantViolation, match="stats"):
            checked.check()

    def test_violation_names_policy_and_values(self):
        policy, checked = self._warmed()
        policy.used = -5
        with pytest.raises(InvariantViolation) as info:
            checked.check()
        assert info.value.invariant == "occupancy"
        assert "S3FifoCache" in str(info.value)
        assert "-5" in str(info.value)


class TestDelegation:
    def test_introspection_passthrough(self):
        checked = CheckedPolicy(S3FifoCache(capacity=100))
        checked.access(1)
        assert checked.small_capacity == 10  # S3-FIFO property, delegated
        assert 1 in checked
        assert len(checked) == 1
        assert checked.stats.requests == 1

    def test_request_object_interface(self):
        checked = CheckedPolicy(S3FifoCache(capacity=100))
        assert checked.request(Request(5, size=2)) is False
        assert checked.request(Request(5, size=2)) is True

    def test_deep_every_validation(self):
        with pytest.raises(ValueError):
            CheckedPolicy(S3FifoCache(capacity=10), deep_every=0)
