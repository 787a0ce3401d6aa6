"""Reproduction of "FIFO queues are all you need for cache eviction"
(S3-FIFO, SOSP'23).

Quick start::

    from repro import S3FifoCache, simulate, zipf_trace

    trace = zipf_trace(num_objects=10_000, num_requests=200_000, alpha=1.0)
    cache = S3FifoCache(capacity=1_000)
    result = simulate(cache, trace)
    print(result.miss_ratio)

Package layout:

* :mod:`repro.core` — S3-FIFO, S3-FIFO-D, queue-type variants, and
  quick-demotion instrumentation (the paper's contribution).
* :mod:`repro.cache` — 20 baseline eviction policies behind one
  interface, plus the registry.
* :mod:`repro.sim` — the trace-driven simulator and sweep runner.
* :mod:`repro.traces` — synthetic generators, the 14 Table-1 dataset
  stand-ins, analysis utilities, and trace file I/O.
* :mod:`repro.flash` — DRAM+flash layered cache with admission
  policies (Section 5.4).
* :mod:`repro.concurrency` — the throughput/scalability model
  (Section 5.3).
* :mod:`repro.resilience` — fault injection, retry/backoff, the policy
  sanitizer, and warm-restart snapshots.
* :mod:`repro.service` — the live cache service layer: thread-safe
  TTL-aware get/set/delete over any policy, hash-sharding, and a
  concurrent load generator.
* :mod:`repro.cluster` — consistent-hash ring over node processes with
  R-way replication, crash failover, read-repair, and rebalancing.
"""

from repro.cache import EvictionPolicy, create_policy, policy_names
from repro.cluster import ClusterCacheService, HashRing
from repro.core import (
    FastS3FifoCache,
    QueueType,
    S3FifoCache,
    S3FifoDCache,
    S3FifoRingCache,
    S3QueueVariantCache,
    S3SieveCache,
)
from repro.resilience import (
    CheckedPolicy,
    FaultPlan,
    InvariantViolation,
    RetryPolicy,
)
from repro.service import (
    CacheService,
    RemovalUnsupportedError,
    ShardedCacheService,
    stable_key_hash,
)
from repro.sim import Request, simulate, simulate_compiled
from repro.traces import CompiledTrace, compile_trace, zipf_trace

__version__ = "1.0.0"

__all__ = [
    "EvictionPolicy",
    "create_policy",
    "policy_names",
    "S3FifoCache",
    "S3FifoDCache",
    "FastS3FifoCache",
    "S3FifoRingCache",
    "S3SieveCache",
    "S3QueueVariantCache",
    "QueueType",
    "CheckedPolicy",
    "FaultPlan",
    "InvariantViolation",
    "RetryPolicy",
    "CacheService",
    "ShardedCacheService",
    "ClusterCacheService",
    "HashRing",
    "RemovalUnsupportedError",
    "stable_key_hash",
    "Request",
    "simulate",
    "simulate_compiled",
    "CompiledTrace",
    "compile_trace",
    "zipf_trace",
    "__version__",
]
