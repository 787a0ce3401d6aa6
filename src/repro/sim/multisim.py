"""Single-pass multi-size simulation for the FIFO family.

Miss-ratio-curve tooling historically re-simulated the trace once per
cache size — O(|sizes| x |trace|).  For the FIFO family one pass is
enough: hits never touch queue state, so all the per-size state the
pass must carry is *which sizes currently hold each key* — a per-key
residency bitmask over the requested sizes — plus one small queue per
size that only misses touch.

A note on exactness.  DEW and CIPARSim motivate this engine via FIFO's
cache *inclusion/intersection* behaviour, but strict stack-algorithm
inclusion ("resident at size C implies resident at every size >= C")
does **not** hold for FIFO — Belady's anomaly is exactly its failure
(``tests/test_multisim.py`` pins the classic 12-request
counterexample, where key 5 is resident at size 3 but not at size 4).
What does hold is the *intersection* property: FIFO contents at nearby
sizes overlap heavily, so on real traces most requests hit at every
requested size at once.  This engine therefore assumes nothing: it
carries the exact per-size queues and is bit-identical to per-size
:func:`repro.sim.simulate` by construction, while the intersection
property makes the common case — residency mask equal to the all-sizes
mask — a single integer compare.  Only the sizes that miss pay
per-size work, and total insert/evict work is bounded by the sum of
per-size miss counts, not |sizes| x |trace|.

Two engines, both exact:

* :func:`fifo_multisim` — for ``fifo`` (and its bit-identical
  ``fifo-fast`` twin).
* :func:`sfifo_multisim` — for the two-segment ``sfifo``.

S3-FIFO has no engine here: its ghost queue and frequency bits couple
a key's fate across sizes, so per-size state does not compress to
residency bitmasks.  Its curves come from
:func:`repro.sim.mrc.sampled_mrc`, the one SHARDS path.

Both engines operate on :class:`~repro.traces.compiled.CompiledTrace`
id buffers (raw traces are compiled on entry) and accept unit-size and
sized traces alike.

When one pass is not the cheapest.  The pass steps every request in
Python, while the default engine skips hit runs in NumPy.  On
1M-request Zipf traces over 100k objects (2-CPU host, CPython 3.11),
with alpha <= 1.0 a pass beat per-size default-engine
:func:`repro.sim.simulate` runs at 1, 3 and 8 sizes, by 1.25-4.0x.  When
the cache holds most of the keys a hit-heavy trace touches (alpha 1.6:
7.4k distinct keys, caches of 10k-50k objects), per-size runs win for
one to three sizes, by up to 9x for ``sfifo``.  A caller in that case
runs :func:`repro.sim.simulate` once per size.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict, deque
from typing import Dict, List, Sequence

from repro.traces.compiled import CompiledTrace, compile_trace

#: Registry names the exact engines cover.  ``fifo-fast`` is included
#: because the fast twin is pinned bit-identical to ``fifo``, so one
#: single-pass result answers for both.
MULTISIM_POLICIES = ("fifo", "fifo-fast", "sfifo")


class MultiSimResult:
    """Per-size outcome of one single-pass multi-size simulation.

    ``sizes`` is sorted and de-duplicated; the per-size sequences
    (``misses``, ``bytes_missed``, ``evictions``) align with it.
    ``requests``/``bytes_requested`` are scalars — every size saw the
    same trace.
    """

    __slots__ = (
        "policy_name",
        "sizes",
        "misses",
        "bytes_missed",
        "evictions",
        "requests",
        "bytes_requested",
    )

    def __init__(
        self,
        policy_name: str,
        sizes: Sequence[int],
        misses: Sequence[int],
        bytes_missed: Sequence[int],
        evictions: Sequence[int],
        requests: int,
        bytes_requested: int,
    ) -> None:
        self.policy_name = policy_name
        self.sizes = list(sizes)
        self.misses = list(misses)
        self.bytes_missed = list(bytes_missed)
        self.evictions = list(evictions)
        self.requests = requests
        self.bytes_requested = bytes_requested

    @property
    def miss_ratios(self) -> List[float]:
        if not self.requests:
            return [0.0] * len(self.sizes)
        return [m / self.requests for m in self.misses]

    @property
    def byte_miss_ratios(self) -> List[float]:
        if not self.bytes_requested:
            return [0.0] * len(self.sizes)
        return [b / self.bytes_requested for b in self.bytes_missed]

    def result_for(self, size: int):
        """The :class:`~repro.sim.simulator.SimulationResult` view of
        one measured size (bit-identical to a per-size ``simulate``
        run)."""
        from repro.sim.simulator import SimulationResult

        try:
            i = self.sizes.index(size)
        except ValueError:
            raise KeyError(
                f"size {size} was not simulated (have {self.sizes})"
            ) from None
        return SimulationResult(
            policy_name=self.policy_name,
            capacity=size,
            requests=self.requests,
            misses=self.misses[i],
            bytes_requested=self.bytes_requested,
            bytes_missed=self.bytes_missed[i],
            evictions=self.evictions[i],
        )

    def to_curve(self):
        """This result as a :class:`~repro.sim.mrc.MissRatioCurve`."""
        from repro.sim.mrc import MissRatioCurve

        return MissRatioCurve(self.sizes, self.miss_ratios)

    def __repr__(self) -> str:
        points = ", ".join(
            f"{s}:{mr:.3f}" for s, mr in zip(self.sizes, self.miss_ratios)
        )
        return f"MultiSimResult({self.policy_name}, {points})"


def _validate_sizes(sizes: Sequence[int]) -> List[int]:
    """Sorted, de-duplicated capacities, for every multi-size function
    (the MRCs in :mod:`repro.sim.mrc` too); mirrors the policy-capacity
    validation so a bad size fails the same way ``create_policy`` would."""
    if not sizes:
        raise ValueError("sizes must be non-empty")
    out = sorted(set(sizes))
    if out[0] <= 0:
        raise ValueError(f"capacity must be positive, got {out[0]}")
    return out


# ----------------------------------------------------------------------
# FIFO
# ----------------------------------------------------------------------
def fifo_multisim(
    trace, sizes: Sequence[int], name: str = "fifo"
) -> MultiSimResult:
    """Exact FIFO miss counts at every requested size, in one pass.

    Bit-identical to running :func:`repro.sim.simulate` with a
    ``fifo`` (or ``fifo-fast``) policy once per size: same per-size
    miss/byte counts, same eviction counts.  ``trace`` is compiled on
    entry if it isn't already.
    """
    ct = compile_trace(trace)
    caps = _validate_sizes(sizes)
    if ct.sizes is None:
        return _fifo_multisim_unit(ct, caps, name)
    return _fifo_multisim_sized(ct, caps, name)


def _fifo_multisim_unit(
    ct: CompiledTrace, caps: List[int], name: str
) -> MultiSimResult:
    k = len(caps)
    full = (1 << k) - 1
    mask = [0] * ct.num_objects
    miss_counts = [0] * k
    # deque(maxlen=cap) *is* a FIFO cache of unit objects: reading [0]
    # before a full append yields exactly the entry FIFO evicts.
    queues = [deque(maxlen=c) for c in caps]
    ids = ct.key_ids()
    for kid in ids:
        m = mask[kid]
        if m == full:
            continue  # resident at every size: FIFO hits do no work
        mm = full & ~m
        while mm:
            b = mm & -mm
            mm ^= b
            j = b.bit_length() - 1
            miss_counts[j] += 1
            q = queues[j]
            if len(q) == caps[j]:
                mask[q[0]] &= ~b
            q.append(kid)
        mask[kid] = full
    n = len(ids)
    evictions = [miss_counts[j] - len(queues[j]) for j in range(k)]
    return MultiSimResult(
        policy_name=name,
        sizes=caps,
        misses=miss_counts,
        bytes_missed=miss_counts,
        evictions=evictions,
        requests=n,
        bytes_requested=n,
    )


def _fifo_multisim_sized(
    ct: CompiledTrace, caps: List[int], name: str
) -> MultiSimResult:
    k = len(caps)
    full = (1 << k) - 1
    mask = [0] * ct.num_objects
    miss_counts = [0] * k
    bytes_missed = [0] * k
    inserts = [0] * k
    used = [0] * k
    # OrderedDict keeps insertion order (the eviction order) and
    # remembers each entry's admitted size, which later requests for
    # the key do not rewrite — exactly the reference's CacheEntry.
    queues: List["OrderedDict[int, int]"] = [OrderedDict() for _ in caps]
    ids = ct.key_ids()
    szs = ct.sizes
    bytes_requested = 0
    # size -> bitmask of capacities the size overflows outright (caps
    # are sorted, so it is always a prefix of the low bits), memoized
    # since real traces draw sizes from a small set.
    over_cache: Dict[int, int] = {}
    for i, kid in enumerate(ids):
        size = szs[i]
        bytes_requested += size
        over = over_cache.get(size)
        if over is None:
            over = over_cache[size] = (1 << bisect_left(caps, size)) - 1
        m = mask[kid]
        if m == full and not over:
            continue
        # Oversized: a miss at these sizes even when the key is
        # resident, with no admission and no metadata update (matches
        # EvictionPolicy.request's early return).
        oo = over
        while oo:
            b = oo & -oo
            oo ^= b
            j = b.bit_length() - 1
            miss_counts[j] += 1
            bytes_missed[j] += size
        mm = (full ^ over) & ~m
        new = m
        while mm:
            b = mm & -mm
            mm ^= b
            j = b.bit_length() - 1
            miss_counts[j] += 1
            bytes_missed[j] += size
            cap = caps[j]
            q = queues[j]
            u = used[j]
            while u + size > cap:
                old, old_size = q.popitem(last=False)
                u -= old_size
                mask[old] &= ~b
            q[kid] = size
            used[j] = u + size
            inserts[j] += 1
            new |= b
        mask[kid] = new
    evictions = [inserts[j] - len(queues[j]) for j in range(k)]
    return MultiSimResult(
        policy_name=name,
        sizes=caps,
        misses=miss_counts,
        bytes_missed=bytes_missed,
        evictions=evictions,
        requests=len(ids),
        bytes_requested=bytes_requested,
    )


# ----------------------------------------------------------------------
# Segmented FIFO
# ----------------------------------------------------------------------
def sfifo_multisim(
    trace, sizes: Sequence[int], primary_ratio: float = 0.3
) -> MultiSimResult:
    """Exact S-FIFO (two-segment FIFO) miss counts at every size.

    Mirrors :class:`repro.cache.sfifo.SegmentedFifoCache` operation
    for operation: misses insert at the primary head, primary overflow
    demotes to the secondary, a secondary hit moves the entry back to
    the primary head, and eviction drains the secondary before the
    primary.  Secondary hits are structural, so the pass keeps *two*
    residency bitmasks per key — primary and secondary — and the
    common case (in the primary everywhere) is still one compare.
    """
    if not 0.0 < primary_ratio < 1.0:
        raise ValueError(
            f"primary_ratio must be in (0, 1), got {primary_ratio}"
        )
    ct = compile_trace(trace)
    caps = _validate_sizes(sizes)
    k = len(caps)
    full = (1 << k) - 1
    pcaps = [max(1, int(c * primary_ratio)) for c in caps]
    pmask = [0] * ct.num_objects
    smask = [0] * ct.num_objects
    miss_counts = [0] * k
    bytes_missed = [0] * k
    inserts = [0] * k
    used = [0] * k
    pused = [0] * k
    primary: List["OrderedDict[int, int]"] = [OrderedDict() for _ in caps]
    secondary: List["OrderedDict[int, int]"] = [OrderedDict() for _ in caps]
    ids = ct.key_ids()
    szs = ct.sizes
    bytes_requested = 0
    n = len(ids)
    # size -> bitmask of capacities the size overflows outright (see
    # _fifo_multisim_sized); unit traces never overflow a positive cap.
    over_cache: Dict[int, int] = {0: 0} if szs is None else {}

    def push_primary(j: int, b: int, kid: int, size: int) -> None:
        pri = primary[j]
        pri[kid] = size
        pused[j] += size
        pmask[kid] |= b
        # Demote oldest primary entries while over the segment cap,
        # never emptying the segment (reference keeps len > 1 guard).
        while pused[j] > pcaps[j] and len(pri) > 1:
            k2, sz2 = pri.popitem(last=False)
            pused[j] -= sz2
            secondary[j][k2] = sz2
            pmask[k2] &= ~b
            smask[k2] |= b

    def evict(j: int, b: int) -> None:
        sec = secondary[j]
        if sec:
            k2, sz2 = sec.popitem(last=False)
            smask[k2] &= ~b
        else:
            k2, sz2 = primary[j].popitem(last=False)
            pused[j] -= sz2
            pmask[k2] &= ~b
        used[j] -= sz2

    for i in range(n):
        kid = ids[i]
        if szs is None:
            size = 1
            over = 0
        else:
            size = szs[i]
            over = over_cache.get(size)
            if over is None:
                over = over_cache[size] = (1 << bisect_left(caps, size)) - 1
        bytes_requested += size
        p = pmask[kid]
        if p == full and not over:
            continue  # primary hit at every size: no structural work
        # Oversized: a miss at these sizes even when the key is
        # resident (in either segment), with no promotion, no
        # admission, and no metadata update (matches
        # EvictionPolicy.request's early return before _access).
        oo = over
        while oo:
            b = oo & -oo
            oo ^= b
            j = b.bit_length() - 1
            miss_counts[j] += 1
            bytes_missed[j] += size
        fit = full ^ over
        s = smask[kid]
        ss = s & fit
        while ss:  # secondary hits: move back to the primary head
            b = ss & -ss
            ss ^= b
            j = b.bit_length() - 1
            entry_size = secondary[j].pop(kid)
            smask[kid] &= ~b
            push_primary(j, b, kid, entry_size)
        mm = fit & ~(p | s)
        while mm:  # misses: evict to fit, insert at the primary head
            b = mm & -mm
            mm ^= b
            j = b.bit_length() - 1
            miss_counts[j] += 1
            bytes_missed[j] += size
            while used[j] + size > caps[j]:
                evict(j, b)
            used[j] += size
            inserts[j] += 1
            push_primary(j, b, kid, size)
    evictions = [
        inserts[j] - len(primary[j]) - len(secondary[j]) for j in range(k)
    ]
    return MultiSimResult(
        policy_name="sfifo",
        sizes=caps,
        misses=miss_counts,
        bytes_missed=bytes_missed,
        evictions=evictions,
        requests=n,
        bytes_requested=bytes_requested,
    )


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def multisim(
    policy: str, trace, sizes: Sequence[int], **policy_kwargs
) -> MultiSimResult:
    """Run the exact single-pass engine for a FIFO-family policy name.

    ``policy`` must be one of :data:`MULTISIM_POLICIES`; kwargs are the
    policy's constructor kwargs (``primary_ratio`` for ``sfifo``).
    """
    if policy in ("fifo", "fifo-fast"):
        if policy_kwargs:
            raise TypeError(
                f"fifo takes no policy kwargs, got {sorted(policy_kwargs)}"
            )
        return fifo_multisim(trace, sizes, name=policy)
    if policy == "sfifo":
        return sfifo_multisim(trace, sizes, **policy_kwargs)
    raise ValueError(
        f"multisim supports the FIFO family {MULTISIM_POLICIES}, "
        f"got {policy!r}; use simulate()/sampled_mrc for other policies"
    )
