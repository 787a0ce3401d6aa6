"""Miss-ratio curves: one implementation per question.

Section 6.2.3 of the paper points operators who need per-workload
parameters to "downsized simulations using spatial sampling"
(SHARDS / miniature simulations).  Each multi-size question has one
function here:

* :func:`lru_mrc` — the exact LRU curve in one pass via Mattson's
  stack algorithm (reuse distances with a Fenwick tree, O(N log N)).
* :func:`fifo_mrc` — the exact FIFO / S-FIFO curve in one pass via the
  single-pass multi-size engine (:mod:`repro.sim.multisim`).
* :func:`sampled_mrc` — every other curve, for any policy.  At
  ``rate < 1`` it is SHARDS: keep the keys whose hash falls under the
  sampling threshold, simulate at a proportionally downsized cache,
  and read the full-size miss ratio off the miniature simulation.  At
  ``rate=1.0`` it is exact: the full trace simulated once per size.

Every function validates its sizes the same way (non-empty, positive)
and returns them sorted and de-duplicated.
"""

from __future__ import annotations

import sys
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.cache.registry import create_policy
from repro.sim.multisim import _validate_sizes, multisim
from repro.sim.simulator import simulate
from repro.structures.fenwick import FenwickTree
from repro.structures.ghost import fingerprint
from repro.traces.compiled import CompiledTrace, compile_trace

#: Mean-absolute-error bound of ``sampled_mrc("s3fifo", ...)`` at
#: ``rate=0.25`` / ``ensembles=3`` against exact per-size
#: re-simulation on the synthetic workloads (pinned by
#: ``tests/test_multisim.py``; see docs/PERFORMANCE.md).
S3FIFO_MRC_ERROR_BOUND = 0.05


class MissRatioCurve:
    """A (cache size -> miss ratio) curve with step interpolation."""

    def __init__(self, sizes: Sequence[int], miss_ratios: Sequence[float]) -> None:
        if len(sizes) != len(miss_ratios):
            raise ValueError("sizes and miss_ratios must align")
        if not sizes:
            raise ValueError("curve must have at least one point")
        order = sorted(range(len(sizes)), key=lambda i: sizes[i])
        self.sizes = [sizes[i] for i in order]
        self.miss_ratios = [miss_ratios[i] for i in order]

    def at(self, size: int) -> float:
        """Miss ratio at ``size`` (largest measured size <= requested;
        the curve left of the first point is 1.0-ish conservative)."""
        if size < self.sizes[0]:
            # Nothing was measured down there; a cache smaller than the
            # smallest measured one can only miss as much or more, so
            # 1.0 is the only safe (conservative) answer.
            return 1.0
        result = self.miss_ratios[0]
        for s, mr in zip(self.sizes, self.miss_ratios):
            if s <= size:
                result = mr
            else:
                break
        return result

    def is_monotone(self, tolerance: float = 1e-9) -> bool:
        """LRU curves never rise with size (no Belady anomaly)."""
        return all(
            self.miss_ratios[i + 1] <= self.miss_ratios[i] + tolerance
            for i in range(len(self.miss_ratios) - 1)
        )

    def __repr__(self) -> str:
        points = ", ".join(
            f"{s}:{mr:.3f}" for s, mr in zip(self.sizes, self.miss_ratios)
        )
        return f"MissRatioCurve({points})"


def reuse_distances(trace: Sequence[Hashable]) -> List[Optional[int]]:
    """LRU stack distance of every request (None for first accesses).

    The distance is the number of *distinct* keys touched since the
    previous access to the same key — exactly the smallest LRU cache
    size (in objects) at which the request hits.
    """
    n = len(trace)
    if n == 0:
        return []
    tree = FenwickTree(n)
    out: List[Optional[int]] = [None] * n
    if isinstance(trace, CompiledTrace):
        # Dense-id fast path: the last-seen table becomes a flat list
        # indexed by trace id — no hashing anywhere in the pass.
        ids = trace.key_ids()
        last_at = [0] * trace.num_objects  # 0 = never (times are 1-based)
        for i in range(n):
            kid = ids[i]
            time = i + 1
            prev = last_at[kid]
            if prev:
                out[i] = tree.range_sum(prev + 1, time - 1) + 1
                tree.add(prev, -1)
            last_at[kid] = time
            tree.add(time, 1)
        return out
    last_seen: Dict[Hashable, int] = {}
    for i, key in enumerate(trace):
        time = i + 1
        prev = last_seen.get(key)
        if prev is not None:
            # Distinct keys touched in (prev, time): marked last-access
            # slots in that window.
            out[i] = tree.range_sum(prev + 1, time - 1) + 1
            tree.add(prev, -1)
        last_seen[key] = time
        tree.add(time, 1)
    return out


def lru_mrc(
    trace: Sequence[Hashable],
    sizes: Optional[Sequence[int]] = None,
) -> MissRatioCurve:
    """Exact LRU miss-ratio curve via Mattson's algorithm."""
    distances = reuse_distances(trace)
    if not distances:
        raise ValueError("cannot build an MRC from an empty trace")
    max_distance = max((d for d in distances if d is not None), default=1)
    sorted_sizes = (
        _default_sizes(max_distance) if sizes is None
        else _validate_sizes(sizes)
    )
    histogram: Dict[int, int] = {}
    for d in distances:
        if d is not None:
            histogram[d] = histogram.get(d, 0) + 1
    total = len(distances)
    # One cumulative sweep over the sorted histogram: both the sizes
    # and the distances are visited in ascending order, so each
    # distance bucket is added exactly once — O(|sizes| + |distances|)
    # instead of re-summing the histogram per requested size.
    sorted_dists = sorted(histogram)
    num_dists = len(sorted_dists)
    miss_ratios = []
    hits = 0
    di = 0
    for size in sorted_sizes:
        while di < num_dists and sorted_dists[di] <= size:
            hits += histogram[sorted_dists[di]]
            di += 1
        miss_ratios.append((total - hits) / total)
    return MissRatioCurve(sorted_sizes, miss_ratios)


def fifo_mrc(
    trace: Sequence[Hashable],
    sizes: Optional[Sequence[int]] = None,
    policy: str = "fifo",
    **policy_kwargs,
) -> MissRatioCurve:
    """Exact FIFO-family miss-ratio curve over the trace.

    The sibling of :func:`lru_mrc` for ``fifo`` (or its bit-identical
    ``fifo-fast`` twin) and ``sfifo``: instead of Mattson's stack
    algorithm — FIFO is not a stack algorithm, Belady's anomaly is its
    counterexample — one :func:`repro.sim.multisim.multisim` pass
    answers every size at once, bit-identical to per-size
    :func:`~repro.sim.simulate` runs.  With ``sizes`` omitted, a
    power-of-two ladder up to the trace footprint is used, mirroring
    :func:`lru_mrc`.

    When the cache holds most of the keys a hit-heavy trace touches,
    one to three per-size :func:`~repro.sim.simulate` runs are cheaper
    (see :mod:`repro.sim.multisim`); call it directly there.
    """
    compiled = compile_trace(trace)
    if len(compiled) == 0:
        raise ValueError("cannot build an MRC from an empty trace")
    if sizes is None:
        sizes = _default_sizes(compiled.num_objects)
    return multisim(policy, compiled, sizes, **policy_kwargs).to_curve()


def _default_sizes(max_distance: int) -> List[int]:
    sizes = []
    size = 1
    while size < max_distance:
        sizes.append(size)
        size *= 2
    sizes.append(max_distance)
    return sizes


#: Constants of CPython's tuple hash (the xxHash64-based combiner used
#: since 3.8; Objects/tupleobject.c).  :func:`_pair_hash_np` replicates
#: it in uint64 NumPy arithmetic so the SHARDS filter can run
#: vectorized over a compiled trace's id buffer.
_XXPRIME_1 = 11400714785074694791
_XXPRIME_2 = 14029467366897019727
_XXPRIME_5 = 2870177450012600261


def _pair_hash_np(a, b):
    """``hash((x, y))`` for lanes ``a``/``b`` (uint64 arrays/scalars).

    A lane is the item's own ``hash()`` reinterpreted as uint64.
    Returns the tuple hash as uint64, with CPython's ``-1 ->
    1546275796`` substitution applied.
    """
    u64 = np.uint64
    p1, p2, p5 = u64(_XXPRIME_1), u64(_XXPRIME_2), u64(_XXPRIME_5)
    with np.errstate(over="ignore"):
        acc = p5 + a * p2
        acc = (acc << u64(31)) | (acc >> u64(33))
        acc = acc * p1
        acc = acc + b * p2
        acc = (acc << u64(31)) | (acc >> u64(33))
        acc = acc * p1
        acc = acc + (u64(2) ^ (p5 ^ u64(3527539)))
    return np.where(
        acc == u64(0xFFFFFFFFFFFFFFFF), u64(1546275796), acc
    )


def _spatial_sample_compiled(
    trace: CompiledTrace, salt: int, threshold: int
) -> Optional[list]:
    """Vectorized SHARDS filter over a compiled trace's id buffer.

    Each *distinct* key is Python-hashed once; the ``(salt, key)``
    tuple combine and the per-request keep decision run as a handful of
    NumPy passes.  Sized traces hash the ``(key, size)`` tuple the
    request yields, exactly like the scalar loop.  Returns ``None`` on
    a platform whose hashes are not 64-bit, so the caller falls back to
    the scalar filter — results are pinned identical.
    """
    if sys.hash_info.width != 64:  # pragma: no cover - 64-bit only
        return None
    n = len(trace)
    if n == 0:
        return []
    table = trace.key_table
    mask64 = 0xFFFFFFFFFFFFFFFF
    salt_lane = np.uint64(hash(salt) & mask64)
    key_lanes = np.fromiter(
        ((hash(key) & mask64) for key in table),
        dtype=np.uint64,
        count=len(table),
    )
    ids_np = np.frombuffer(trace.keys, dtype=np.int64)
    ids = trace.key_ids()
    if trace.sizes is None:
        # Unit trace: one fingerprint per distinct key, then a gather.
        fp = _pair_hash_np(salt_lane, key_lanes)
        keep_kid = (fp & np.uint64(0xFFFFFF)) < np.uint64(threshold)
        pos = np.flatnonzero(keep_kid[ids_np]).tolist()
        return [table[ids[p]] for p in pos]
    # Sized trace: requests yield (key, size) tuples, so the sampled
    # item is the inner tuple — combine per request.
    sizes = trace.sizes
    sizes_np = np.frombuffer(sizes, dtype=np.int64)
    # hash(int) for the non-negative sizes: n % (2**61 - 1).
    size_lanes = (
        sizes_np % np.int64((1 << 61) - 1)
    ).astype(np.uint64)
    inner = _pair_hash_np(key_lanes[ids_np], size_lanes)
    fp = _pair_hash_np(salt_lane, inner)
    keep = (fp & np.uint64(0xFFFFFF)) < np.uint64(threshold)
    pos = np.flatnonzero(keep).tolist()
    return [(table[ids[p]], sizes[p]) for p in pos]


def spatial_sample(
    trace: Sequence[Hashable],
    rate: float,
    seed: int = 0,
) -> List[Hashable]:
    """SHARDS spatial sampling: keep keys with hash(key) mod M < M*rate.

    Sampling is per-*key* (every request to a sampled key survives), so
    reuse behaviour within the sample mirrors the full trace.

    Compiled traces are filtered vectorized — each distinct key is
    hashed once and the per-request decision is a NumPy gather over the
    id buffer — producing exactly the same sample as the scalar filter
    (pass :func:`~repro.traces.compiled.compile_trace` output to reuse
    the interned buffers across ensembles).
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    if rate == 1.0:
        return list(trace)
    modulus = 1 << 24
    threshold = int(modulus * rate)
    salt = seed * 0x9E3779B9
    if isinstance(trace, CompiledTrace):
        sampled = _spatial_sample_compiled(trace, salt, threshold)
        if sampled is not None:
            return sampled
    return [
        key
        for key in trace
        if (fingerprint((salt, key)) % modulus) < threshold
    ]


def sampled_mrc(
    policy: str,
    trace: Sequence[Hashable],
    sizes: Sequence[int],
    rate: float = 0.1,
    seed: int = 0,
    ensembles: int = 1,
    **policy_kwargs,
) -> MissRatioCurve:
    """Downsized-simulation MRC for an arbitrary policy.

    Each requested cache ``size`` is simulated on a spatial sample at
    ``max(1, size * rate)`` capacity; the measured miss ratio estimates
    the full-trace miss ratio at ``size`` (SHARDS' fixed-rate variant).
    For S3-FIFO at ``rate=0.25``, ``ensembles=3`` the mean absolute
    error is bounded by :data:`S3FIFO_MRC_ERROR_BOUND`.

    A single sample is an unbiased but *noisy* estimator on skewed
    workloads: whether the few hottest keys land in the sample moves
    the whole curve (the hot-key lottery).  ``ensembles > 1`` draws
    several independent samples and aggregates misses over requests
    (ratio of sums), which is how SHARDS-style mini-simulations are
    deployed in practice.

    ``rate=1.0`` keeps every key, so the curve is exact: the compiled
    trace is simulated once per size and ``ensembles`` is ignored.
    """
    caps = _validate_sizes(sizes)
    if ensembles < 1:
        raise ValueError(f"ensembles must be >= 1, got {ensembles}")
    # Compile the full trace once so every ensemble's spatial filter
    # runs vectorized over the same interned id buffer.
    full = compile_trace(trace)
    if len(full) == 0:
        raise ValueError("cannot build an MRC from an empty trace")
    if rate == 1.0:
        # Every key survives a full-rate sample: simulate the trace itself.
        samples = [full]
    else:
        samples = []
        for i in range(ensembles):
            sample = spatial_sample(full, rate, seed=seed + i)
            if sample:
                # Compile once per ensemble member: every requested
                # size re-simulates the same sample.
                samples.append(
                    compile_trace(sample, name=f"sample-{seed + i}")
                )
        if not samples:
            raise ValueError(
                f"sampling rate {rate} produced an empty trace; "
                "raise the rate"
            )
    miss_ratios = []
    for size in caps:
        scaled = max(1, int(size * rate))
        misses = 0
        requests = 0
        for sample in samples:
            cache = create_policy(policy, capacity=scaled, **policy_kwargs)
            result = simulate(cache, sample)
            misses += result.misses
            requests += result.requests
        miss_ratios.append(misses / requests)
    return MissRatioCurve(caps, miss_ratios)


def mrc_error(
    estimate: MissRatioCurve, reference: MissRatioCurve
) -> float:
    """Mean absolute error between two curves at the estimate's sizes."""
    errors = [
        abs(estimate.at(size) - reference.at(size))
        for size in estimate.sizes
    ]
    return sum(errors) / len(errors)
