"""Name-based registry of every eviction policy in the library.

The registry is what the simulator sweeps, the CLI, and the benchmark
harness use to construct policies uniformly:

>>> from repro.cache import create_policy
>>> cache = create_policy("s3fifo", capacity=1000)
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.cache.arc import ArcCache
from repro.cache.base import EvictionPolicy
from repro.cache.belady import BeladyCache
from repro.cache.blru import BloomLruCache
from repro.cache.cacheus import CacheusCache
from repro.cache.car import CarCache
from repro.cache.clock import ClockCache
from repro.cache.clockpro import ClockProCache
from repro.cache.eelru import EelruCache
from repro.cache.fast_fifo import FastFifoCache
from repro.cache.fast_lru import FastLruCache
from repro.cache.fast_sieve import FastSieveCache
from repro.cache.fifo import FifoCache
from repro.cache.fifomerge import FifoMergeCache
from repro.cache.gdsf import GdsfCache
from repro.cache.hyperbolic import HyperbolicCache
from repro.cache.lecar import LeCaRCache
from repro.cache.lfu import LfuCache
from repro.cache.lhd import LhdCache
from repro.cache.lirs import LirsCache
from repro.cache.lrfu import LrfuCache
from repro.cache.lru import LruCache
from repro.cache.lruk import LrukCache
from repro.cache.mq import MqCache
from repro.cache.random_ import RandomCache
from repro.cache.sfifo import SegmentedFifoCache
from repro.cache.sieve import SieveCache
from repro.cache.slru import SlruCache
from repro.cache.tinylfu import TinyLfu10Cache, TinyLfuCache
from repro.cache.twoq import TwoQCache

PolicyFactory = Callable[..., EvictionPolicy]

#: All registered policies, keyed by their canonical name.
POLICIES: Dict[str, PolicyFactory] = {}


def register(cls: PolicyFactory) -> PolicyFactory:
    """Add a policy class to the registry under its ``name``."""
    name = getattr(cls, "name", None)
    if not name or name == "abstract":
        raise ValueError(f"{cls!r} has no registry name")
    if name in POLICIES:
        raise ValueError(f"duplicate policy name {name!r}")
    POLICIES[name] = cls
    return cls


for _cls in (
    FifoCache,
    LruCache,
    ClockCache,
    SieveCache,
    SlruCache,
    ArcCache,
    TwoQCache,
    LirsCache,
    TinyLfuCache,
    TinyLfu10Cache,
    LrukCache,
    LfuCache,
    LeCaRCache,
    CacheusCache,
    LhdCache,
    FifoMergeCache,
    BloomLruCache,
    SegmentedFifoCache,
    RandomCache,
    BeladyCache,
    CarCache,
    ClockProCache,
    EelruCache,
    LrfuCache,
    HyperbolicCache,
    MqCache,
    GdsfCache,
    FastFifoCache,
    FastLruCache,
    FastSieveCache,
):
    register(_cls)


def _register_core() -> None:
    # Imported lazily to avoid a circular import (core depends on cache).
    from repro.core.s3fifo import (
        S3FifoCache,
        S3QueueVariantCache,
        S3SieveCache,
    )
    from repro.core.s3fifo_d import S3FifoDCache
    from repro.core.s3fifo_fast import FastS3FifoCache
    from repro.core.s3fifo_ring import S3FifoRingCache

    for cls in (
        S3FifoCache,
        S3FifoDCache,
        FastS3FifoCache,
        S3FifoRingCache,
        S3SieveCache,
        S3QueueVariantCache,
    ):
        if cls.name not in POLICIES:
            register(cls)


def create_policy(name: str, capacity: int, **kwargs) -> EvictionPolicy:
    """Construct the policy registered under ``name``."""
    _register_core()
    factory = POLICIES.get(name)
    if factory is None:
        known = ", ".join(sorted(POLICIES))
        raise KeyError(f"unknown policy {name!r}; known policies: {known}")
    return factory(capacity, **kwargs)


def removal_capable_policies() -> List[str]:
    """Sorted names of policies whose instances support ``remove()``.

    The service layer requires removal support for TTLs and deletes;
    this is the list its error messages point users at.
    """
    _register_core()
    return sorted(
        name
        for name, factory in POLICIES.items()
        if getattr(factory, "supports_removal", False)
    )


def policy_names(include_offline: bool = False) -> List[str]:
    """Sorted policy names; Belady is excluded unless requested since it
    needs an annotated trace."""
    _register_core()
    names = sorted(POLICIES)
    if not include_offline:
        names = [n for n in names if n != "belady"]
    return names
