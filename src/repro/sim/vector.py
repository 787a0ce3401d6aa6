"""Vectorized hit-run simulation for the FIFO family.

The paper's structural claim — *lazy promotion*: cache hits never
reorder a FIFO queue — is also a simulation speedup.  On a skewed
trace at 0.9 hit ratio, ~90% of requests leave the queue state
untouched, yet the scalar engines still pay a Python dispatch per
request.  This module cashes the invariant in (the CIPARSim / DEW
observation: FIFO simulation can be per-*event* instead of
per-*request*):

* The trace's dense int-id buffer is processed in chunks.  One
  vectorized dense-array lookup (``mask[ids[c0:c1]]``) probes
  residency for the whole chunk; positions whose key is resident are
  *hits by construction* and are consumed as whole runs without
  entering Python per-request.
* Only candidate positions — non-resident keys, plus oversized
  requests — drop to the scalar miss path, which is the policy's own
  array twin (``fifo-fast``, ``sieve-fast``, ``s3fifo-fast``).  The
  engine drives a private, fresh twin that takes its slot map from
  :meth:`~repro.cache.fast_base.FastPolicyBase._slots_for` exactly as
  ``run_compiled`` does: slot = the trace's key id, so its residency
  bytes are the probed mask.  S-FIFO has no twin;
  :class:`_SFifoKernel` is its array implementation here.
* Hit side-effects that eviction later reads (S3-FIFO's capped
  frequency, SIEVE's visited bit) are **lazy**: the twin's eviction
  code asks the :class:`_HitLedger` to settle a slot before reading
  it, and the ledger replays the skipped hits through the twin's
  ``_fold_hits``, counted from the trace's per-key occurrence index
  (:meth:`~repro.traces.compiled.CompiledTrace.occurrence_index`).
  Between two scalar touches of a resident key, every one of its
  occurrences is a hit, so ``freq = min(stored + pending, cap)``
  (increment-then-cap commutes into cap-of-sum) and
  ``visited = stored or pending > 0`` (idempotent).  No per-run NumPy
  call is needed on the hit path at all.
* Exactness across a chunk is preserved by *forced candidates*: when a
  key stops being vector-consumable mid-chunk (eviction, or S-FIFO
  demotion to the secondary segment), its next occurrence inside the
  chunk — found by advancing its occurrence pointer, each position
  visited at most once over the whole run — is pushed onto the
  chunk's forced-event heap, so the stale region of the precomputed
  mask is never trusted.  Keys that *become* resident mid-chunk are
  already candidates at every occurrence (their mask was 0 at chunk
  start) and re-probe live state in the event loop.

Hit runs are cheap, but once the cache is full a miss costs the event
loop more than it costs the twin's own batch loop (the eviction
settles lazy state and forces a re-check).  Under ``engine="auto"``
the engine therefore picks a loop per chunk.  Once the cache has
evicted, a chunk whose probe shows a miss fraction above the kernel's
measured :data:`CROSSOVER` runs through the twin's ``run_compiled``.  The
batch loop hands back when a chunk's miss count falls below it again,
with a :data:`HYSTERESIS` band either way.  Handing off folds every
resident slot's pending hits and detaches the ledger
(:meth:`_HitLedger.detach`); handing back advances every occurrence
pointer past the stretch and attaches it again
(:meth:`_HitLedger.attach`).  ``engine="vector"`` never hands off.

LRU is excluded by design: its hits mutate the recency order, which is
exactly the paper's point.

The engine never mutates the policy object it is given — the policy is
read only for its configuration (see :func:`vector_simulate`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from heapq import heappop, heappush
from typing import Optional

from repro.cache.base import CacheStats
from repro.cache.fast_fifo import FastFifoCache
from repro.cache.fast_sieve import FastSieveCache
from repro.core.s3fifo_fast import FastS3FifoCache
from repro.sim.simulator import SimulationResult, _resolve_warmup

#: Default number of requests probed per vectorized residency lookup.
VECTOR_CHUNK = 4096

#: Miss fraction of a chunk above which a kernel's own batch loop
#: beats the event loop, under ``engine="auto"``.  Measured per kernel
#: kind on Zipf traces (100k objects, capacity 10k; see
#: docs/PERFORMANCE.md).  S-FIFO has no batch loop to hand to.
CROSSOVER = {"fifo": 0.26, "sieve": 0.30, "s3fifo": 0.13}

#: Half-width of the band around the crossover inside which the engine
#: keeps the loop it is in, so a trace near the crossover does not pay
#: for a handoff at every chunk.
HYSTERESIS = 0.02

#: Registry names the vector engine can execute (the FIFO family; a
#: reference policy and its ``*-fast`` twin run on the same kernel).
VECTOR_POLICIES = (
    "fifo", "fifo-fast", "sfifo", "sieve", "sieve-fast",
    "s3fifo", "s3fifo-fast",
)


def _numpy():
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is a hard dep
        return None
    return np


# ----------------------------------------------------------------------
# Lazy hit state shared by every kernel
# ----------------------------------------------------------------------
class _HitLedger:
    """Occurrence pointers and the chunk's forced events.

    ``ptr[kid]`` indexes the key's occurrence chain.  Occurrences left
    of the pointer are folded into the kernel's stored hit state;
    occurrences between the pointer and the current position ``pos``
    are skipped hits.  Every advance consumes a position permanently,
    so the total pointer work over a run is O(requests) regardless of
    how often it happens.

    Insert invariant: when a key *misses* at position ``pos``, its
    pointer already sits exactly at ``pos``.  Every occurrence of a
    non-resident key is a scalar event (static candidate or forced),
    and each such event ends by syncing the pointer past itself —
    eviction forces consume up to the eviction position and the next
    occurrence is the forced event itself.  The engine therefore
    consumes the insert occurrence with a bare ``ptr[kid] += 1``.
    """

    def __init__(self, trace) -> None:
        self.occ_pos, self.occ_start = trace.occurrence_index()
        self.ptr = list(self.occ_start[:-1])
        self.forced: list = []
        self.chunk_end = 0
        #: The event being processed; set by the engine.
        self.pos = 0
        self.ids_np = _numpy().frombuffer(trace.keys, dtype="int64")
        #: Per-key occurrence counts over ``[0, _counted)``, kept for
        #: handoffs only.
        self._seen = None
        self._counted = 0

    def _count_to(self, pos: int):
        """Per-key occurrence counts over ``[_counted, pos)``, which
        are then added to ``_seen``."""
        np = _numpy()
        k = len(self.ptr)
        if self._seen is None:
            self._seen = np.zeros(k, dtype=np.int64)
        span = np.bincount(self.ids_np[self._counted:pos], minlength=k)
        self._seen += span
        self._counted = pos
        return span

    def detach(self, kernel, pos: int) -> None:
        """Hand ``kernel`` to its own batch loop from position ``pos``:
        fold every resident slot's pending hits, leave every pointer
        at its key's first occurrence at or after ``pos``, and unhook
        the ledger.

        Non-resident keys' pointers are already there (the insert
        invariant), so only resident slots are visited."""
        np = _numpy()
        self._count_to(pos)
        res = np.flatnonzero(np.frombuffer(kernel._loc, dtype=np.uint8))
        m = len(res)
        if m:
            kids = res.tolist()
            start = np.fromiter(map(self.occ_start.__getitem__, kids),
                                np.int64, m)
            cur = np.fromiter(map(self.ptr.__getitem__, kids), np.int64, m)
            target = start + self._seen[res]
            pending = target - cur
            sel = np.flatnonzero(pending)
            ptr = self.ptr
            fold = kernel._fold_hits
            for kid, at, hits in zip(res[sel].tolist(), target[sel].tolist(),
                                     pending[sel].tolist()):
                fold(kid, hits)
                ptr[kid] = at
        kernel._lazy = None

    def attach(self, kernel, pos: int) -> None:
        """Take ``kernel`` back after its batch loop ran up to ``pos``:
        advance every pointer past the stretch's occurrences (the loop
        applied those hits itself) and hook the ledger in again."""
        np = _numpy()
        span = self._count_to(pos)
        touched = np.flatnonzero(span)
        ptr = self.ptr
        for kid, count in zip(touched.tolist(), span[touched].tolist()):
            ptr[kid] += count
        kernel._lazy = self

    def begin_chunk(self, end: int) -> list:
        forced = self.forced = []
        self.chunk_end = end
        return forced

    def settle(self, kid: int, kernel) -> None:
        """Consume ``kid``'s occurrences up to ``pos`` and fold those
        strictly before it (skipped hits) into ``kernel``."""
        op = self.occ_pos
        p = self.ptr[kid]
        end = self.occ_start[kid + 1]
        pos = self.pos
        if p < end and op[p] <= pos:
            lt = bisect_left(op, pos, p, end)
            self.ptr[kid] = lt + 1 if lt < end and op[lt] == pos else lt
            if lt > p:
                kernel._fold_hits(kid, lt - p)

    def evicted(self, kid: int) -> None:
        """``kid`` stopped being vector-consumable at ``pos``: force
        its next occurrence into this chunk's event stream."""
        op = self.occ_pos
        p = self.ptr[kid]
        end = self.occ_start[kid + 1]
        pos = self.pos
        if p < end and op[p] <= pos:
            p = bisect_left(op, pos, p, end)
            if p < end and op[p] == pos:
                p += 1
            self.ptr[kid] = p
        if p < end:
            nxt = op[p]
            if nxt < self.chunk_end:
                heappush(self.forced, nxt)


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
class _SFifoKernel:
    """Segmented FIFO over trace key ids, in the array-twin protocol.

    Only primary hits are queue-invariant; a secondary hit restructures
    (promotion + demotion cascade), so ``_loc`` marks primary residents
    only and secondary keys always reach :meth:`_insert_slot`, which
    promotes them and reports the hit.
    """

    _lazy: Optional[_HitLedger] = None

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.primary_cap = capacity
        self._loc = bytearray()
        self.primary: OrderedDict = OrderedDict()   # kid -> size
        self.secondary: OrderedDict = OrderedDict()
        self.primary_used = 0
        self.used = 0
        self.stats = CacheStats()

    def _apply_spec(self, spec: dict) -> None:
        self.primary_cap = spec["primary_cap"]

    def _slots_for(self, trace) -> list:
        self._loc = bytearray(trace.num_objects)
        return trace.id_range()

    def _fold_hits(self, kid: int, n: int) -> None:
        """Primary hits change nothing S-FIFO evicts by."""

    def _insert_slot(self, kid: int, size: int) -> bool:
        secondary = self.secondary
        if kid in secondary:
            self._push_primary(kid, secondary.pop(kid))
            return True
        while self.used + size > self.capacity:
            self._evict_one()
        self.used += size
        self._push_primary(kid, size)
        return False

    def _push_primary(self, kid: int, size: int) -> None:
        primary = self.primary
        primary[kid] = size
        self._loc[kid] = 1
        self.primary_used += size
        while self.primary_used > self.primary_cap and len(primary) > 1:
            victim, vsize = primary.popitem(last=False)
            self.primary_used -= vsize
            self.secondary[victim] = vsize
            self._loc[victim] = 0
            self._lazy.evicted(victim)  # demoted out of the mask

    def _evict_one(self) -> None:
        if self.secondary:
            _, vsize = self.secondary.popitem(last=False)
        else:
            victim, vsize = self.primary.popitem(last=False)
            self.primary_used -= vsize
            self._loc[victim] = 0
            self._lazy.evicted(victim)
        self.used -= vsize
        self.stats.evictions += 1


#: ``vector_spec()["kind"]`` -> the class whose fresh instance runs it.
_KERNELS = {
    "fifo": FastFifoCache,
    "sfifo": _SFifoKernel,
    "sieve": FastSieveCache,
    "s3fifo": FastS3FifoCache,
}


def _build_kernel(policy, trace):
    """A private kernel configured like ``policy``, over ``trace``'s
    key ids, wired to a fresh :class:`_HitLedger`."""
    spec = dict(policy.vector_spec())
    kernel = _KERNELS[spec.pop("kind")](policy.capacity)
    kernel._apply_spec(spec)
    kernel._slots_for(trace)
    kernel._lazy = _HitLedger(trace)
    return kernel


def vector_eligible(policy, trace) -> bool:
    """Whether ``(policy, trace)`` can run on the vector engine.

    Requires a :class:`~repro.traces.compiled.CompiledTrace`, a policy
    that publishes a vector spec (the FIFO family and its ``*-fast``
    twins; subclasses with overridden behaviour opt out), a *pristine*
    policy (no prior requests and nothing resident — the engine
    simulates a fresh cache), and no eviction/demotion listeners (the
    engine does not replay per-event notifications).
    """
    from repro.traces.compiled import CompiledTrace

    if not isinstance(trace, CompiledTrace):
        return False
    if _numpy() is None:
        return False
    spec = getattr(policy, "vector_spec", None)
    if spec is None or spec() is None:
        return False
    if policy.clock != 0 or policy.stats.requests != 0 or len(policy) != 0:
        return False
    if policy._evict_listeners or policy._demote_listeners:
        return False
    return True


def _events(cand, forced):
    """Merge a chunk's static candidates with its forced events, in
    position order, each position once.  ``forced`` is a heap that
    grows while the events are processed."""
    for evt in cand:
        while forced and forced[0] <= evt:
            fevt = heappop(forced)
            if fevt != evt:
                yield fevt
        yield evt
    while forced:
        yield heappop(forced)


def vector_simulate(
    policy,
    trace,
    warmup: float = 0.0,
    warmup_requests: Optional[int] = None,
    chunk: int = VECTOR_CHUNK,
    auto: bool = False,
) -> SimulationResult:
    """Simulate ``policy`` over a compiled trace with the vector engine.

    Returns a :class:`~repro.sim.simulator.SimulationResult`
    bit-identical to the scalar engines' (same misses, bytes, eviction
    split) for every supported policy.  The policy object is read only
    for its configuration and is **not** mutated: its stats, clock, and
    resident set stay exactly as passed in (pristine, per
    :func:`vector_eligible`).  ``chunk`` sets the vectorized probe
    width; results are invariant to it by construction.

    With ``auto`` (``engine="auto"``) the engine picks a loop per
    chunk: once the cache has evicted, a chunk whose miss fraction is
    above the kernel's :data:`CROSSOVER` runs through the twin's own
    batch loop, and the batch loop hands back once a chunk's misses
    fall below it (with a :data:`HYSTERESIS` band either way).
    S-FIFO's kernel has no batch loop and always runs as hit runs.
    """
    if not vector_eligible(policy, trace):
        raise ValueError(
            f"policy {policy.name!r} / trace {trace!r} is not vector-"
            "eligible (see repro.sim.vector.vector_eligible)"
        )
    if chunk <= 0:
        raise ValueError(f"chunk must be positive, got {chunk}")
    np = _numpy()
    kernel = _build_kernel(policy, trace)
    ledger = kernel._lazy
    n = len(trace)
    warmup_requests = min(_resolve_warmup(trace, warmup, warmup_requests), n)

    ids_np = ledger.ids_np
    ids = trace.key_ids()
    sizes = trace.sizes
    unit = sizes is None
    capacity = policy.capacity
    if not unit:
        sizes_np = np.frombuffer(sizes, dtype=np.int64)
        over_np = sizes_np > capacity
    # bytearray, not ndarray: the scalar miss path reads and writes
    # single cells constantly, and bytearray indexing is ~10x cheaper
    # than ndarray scalar access.  The probe goes through a zero-copy
    # view (the kernel never resizes it: its slots are the trace's ids,
    # so it interns no key).
    mask = kernel._loc
    mask_np = np.frombuffer(mask, dtype=np.uint8)
    insert = kernel._insert_slot
    settle = ledger.settle
    evicted = ledger.evicted
    ptr = ledger.ptr

    batch = getattr(kernel, "run_compiled", None) if auto else None
    if batch is not None:
        crossover = CROSSOVER[policy.vector_spec()["kind"]]
        to_scalar = crossover + HYSTERESIS
        to_vector = crossover - HYSTERESIS
    scalar = False
    handoffs = 0
    vector_requests = 0  # requests of the chunks the event loop ran
    candidates = 0
    events = 0
    # counters[bucket] = (misses, bytes_requested, bytes_missed)
    counters = []
    warmup_evictions = 0
    for lo, hi in ((0, warmup_requests), (warmup_requests, n)):
        if lo:  # the measured span, after a non-empty warmup
            warmup_evictions = kernel.stats.evictions
        misses = 0
        bytes_requested = 0
        bytes_missed = 0
        for c0 in range(lo, hi, chunk):
            c1 = min(c0 + chunk, hi)
            if not scalar:
                cand_np = mask_np[ids_np[c0:c1]] == 0
                if not unit:
                    cand_np |= over_np[c0:c1]
                cand = (np.flatnonzero(cand_np) + c0).tolist()
                # Until the cache first evicts, every event is a cheap
                # insert and the event loop wins at any miss fraction.
                if (batch is not None and kernel.stats.evictions
                        and len(cand) > to_scalar * (c1 - c0)):
                    ledger.detach(kernel, c0)
                    scalar = True
                    handoffs += 1
            if scalar:
                _, chunk_misses, chunk_bytes, chunk_missed = batch(
                    trace, c0, c1
                )
                misses += chunk_misses
                bytes_requested += chunk_bytes
                bytes_missed += chunk_missed
                if chunk_misses < to_vector * (c1 - c0):
                    ledger.attach(kernel, c1)
                    scalar = False
                    handoffs += 1
                continue
            vector_requests += c1 - c0
            if not unit:
                bytes_requested += int(sizes_np[c0:c1].sum())
            if not cand:
                continue
            candidates += len(cand)
            chunk_events = _events(cand, ledger.begin_chunk(c1))
            for nev, evt in enumerate(chunk_events, 1):
                kid = ids[evt]
                ledger.pos = evt
                if unit:
                    size = 1
                else:
                    size = sizes[evt]
                    if size > capacity:
                        # Oversized requests miss without touching the
                        # policy (base.request's early return): consume
                        # a resident key's occurrence without counting
                        # it as a hit; force an absent key's next one
                        # (its mask column may be stale).
                        misses += 1
                        bytes_missed += size
                        if mask[kid]:
                            settle(kid, kernel)
                        else:
                            evicted(kid)
                        continue
                if mask[kid]:
                    continue  # became resident earlier in this chunk
                if insert(kid, size):
                    continue  # S-FIFO promoted a secondary resident
                misses += 1
                bytes_missed += size
                ptr[kid] += 1  # consume this occurrence (insert invariant)
            events += nev
        counters.append((misses, bytes_requested, bytes_missed))
    requests = n - warmup_requests
    misses, bytes_requested, bytes_missed = counters[1]
    if unit:
        bytes_requested = requests
    scalar_requests = n - vector_requests
    return SimulationResult(
        policy_name=policy.name,
        capacity=capacity,
        requests=requests,
        misses=misses,
        bytes_requested=bytes_requested,
        bytes_missed=bytes_missed,
        evictions=kernel.stats.evictions - warmup_evictions,
        warmup_requests=warmup_requests,
        warmup_evictions=warmup_evictions,
        engine=("auto" if vector_requests and scalar_requests
                else "scalar" if scalar_requests else "vector"),
        hit_run_requests=vector_requests - events,
        event_requests=events,
        forced_rechecks=events - candidates,
        scalar_requests=scalar_requests,
        handoffs=handoffs,
    )
