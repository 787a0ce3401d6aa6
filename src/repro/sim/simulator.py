"""Streaming and compiled trace simulation of a single policy.

Two execution engines share one result type:

* :func:`simulate` — the streaming engine: accepts any iterable of
  requests (bare keys, ``(key, size)`` tuples, or
  :class:`~repro.sim.request.Request` objects) and drives the policy
  one request at a time.
* :func:`simulate_compiled` — the fast-path engine: runs over a
  :class:`~repro.traces.compiled.CompiledTrace` with zero per-request
  allocation.  Array-backed ``*-fast`` policies execute their own
  batched loop over the id buffers; every other policy is driven
  through a single reused Request object.

:func:`simulate` transparently routes compiled traces to the fast
engine, so callers only ever need one entry point.

Both accept ``engine=`` selecting how a compiled trace is executed:

* ``"auto"`` (default) — for an eligible policy (FIFO family, fresh
  and listener-free) the vector engine (:mod:`repro.sim.vector`) in
  its per-chunk mode: chunks whose miss fraction is above the
  kernel's measured crossover run through the twin's own batch loop,
  the rest as vectorized hit runs.  Every other policy takes the
  scalar fast path.
* ``"scalar"`` — always the per-request loop (batched for ``*-fast``
  policies).
* ``"vector"`` — the pure hit-run engine, raising when ineligible
  (including on a trace that is not compiled).

The engines are pinned bit-identical on results.  The one observable
difference: the vector engine computes the result *standalone*, on a
private twin, and never mutates the policy object — its stats, clock,
and resident set stay untouched.  Driving the caller's own twin instead
would not be free: to leave it in the state ``engine="scalar"`` leaves,
the engine would have to fold every resident's skipped hits into it at
the end of the run.  On Zipf-1.4 runs (100k objects, 2M requests,
capacity 10k; a 2-CPU host, CPython 3.11) that fold costs 9-13 ms
against 85-125 ms for the run itself, +10-12%.  Callers that inspect
or keep driving the policy after the run should pass
``engine="scalar"``.  Each result says which engine ran and how the
trace was split between them (see :class:`SimulationResult`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

from repro.cache.base import EvictionPolicy
from repro.cache.fast_base import FastPolicyBase
from repro.sim.request import Request, as_request

#: Values of ``engine=`` accepted by :func:`simulate`.
ENGINES = ("auto", "scalar", "vector")


class SimulationResult:
    """Outcome of one (policy, trace, cache size) simulation.

    Eviction accounting is split at the warmup boundary:
    ``evictions`` counts only steady-state (post-warmup) evictions of
    *this run*, ``warmup_evictions`` counts evictions during the
    warmup prefix, and :attr:`total_evictions` is their sum.  Evictions
    a pre-used policy performed before the run are never included.

    How the run executed: ``engine`` is ``"scalar"``, ``"vector"``, or
    ``"auto"`` when both the vector event loop and the twin's batch
    loop ran.  Every request of the trace, warmup included, is counted
    once in exactly one of ``hit_run_requests`` (consumed inside a
    vectorized hit run), ``event_requests`` (a vector-engine event:
    a static candidate of its chunk's probe, or one of the
    ``forced_rechecks``) or ``scalar_requests`` (stepped one by one).
    ``handoffs`` is 1 when the event loop handed the run to the batch
    loop, which never hands back, and 0 otherwise; the CLI and the
    benchmark rows print it.  The defaults describe a run that stepped
    every request.
    """

    __slots__ = (
        "policy_name",
        "capacity",
        "requests",
        "misses",
        "bytes_requested",
        "bytes_missed",
        "evictions",
        "warmup_requests",
        "warmup_evictions",
        "engine",
        "hit_run_requests",
        "event_requests",
        "forced_rechecks",
        "scalar_requests",
        "handoffs",
    )

    def __init__(
        self,
        policy_name: str,
        capacity: int,
        requests: int,
        misses: int,
        bytes_requested: int,
        bytes_missed: int,
        evictions: int,
        warmup_requests: int = 0,
        warmup_evictions: int = 0,
        engine: str = "scalar",
        hit_run_requests: int = 0,
        event_requests: int = 0,
        forced_rechecks: int = 0,
        scalar_requests: Optional[int] = None,
        handoffs: int = 0,
    ) -> None:
        self.policy_name = policy_name
        self.capacity = capacity
        self.requests = requests
        self.misses = misses
        self.bytes_requested = bytes_requested
        self.bytes_missed = bytes_missed
        self.evictions = evictions
        self.warmup_requests = warmup_requests
        self.warmup_evictions = warmup_evictions
        self.engine = engine
        self.hit_run_requests = hit_run_requests
        self.event_requests = event_requests
        self.forced_rechecks = forced_rechecks
        if scalar_requests is None:
            scalar_requests = (requests + warmup_requests
                               - hit_run_requests - event_requests)
        self.scalar_requests = scalar_requests
        self.handoffs = handoffs

    @property
    def hits(self) -> int:
        return self.requests - self.misses

    @property
    def total_evictions(self) -> int:
        """All evictions of this run, warmup included."""
        return self.evictions + self.warmup_evictions

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.requests if self.requests else 0.0

    @property
    def byte_miss_ratio(self) -> float:
        if self.bytes_requested == 0:
            return 0.0
        return self.bytes_missed / self.bytes_requested

    def __repr__(self) -> str:
        return (
            f"SimulationResult({self.policy_name}, capacity={self.capacity}, "
            f"miss_ratio={self.miss_ratio:.4f})"
        )


def _resolve_warmup(
    trace,
    warmup: float,
    warmup_requests: Optional[int],
) -> int:
    """Turn a fractional or absolute warmup spec into a request count."""
    if warmup_requests is not None and warmup_requests < 0:
        raise ValueError(
            f"warmup_requests must be >= 0, got {warmup_requests}"
        )
    if warmup and warmup_requests is None:
        if not hasattr(trace, "__len__"):
            raise ValueError("fractional warmup requires a sized trace")
        if not 0.0 <= warmup < 1.0:
            raise ValueError(f"warmup must be in [0, 1), got {warmup}")
        warmup_requests = int(len(trace) * warmup)
    return warmup_requests or 0


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValueError(
            f"engine must be 'auto', 'scalar', or 'vector', got {engine!r}"
        )


def simulate(
    policy: EvictionPolicy,
    trace: Iterable[Union[Request, tuple, str, int]],
    warmup: float = 0.0,
    warmup_requests: Optional[int] = None,
    engine: str = "auto",
) -> SimulationResult:
    """Run ``policy`` over ``trace`` and return the measured miss ratios.

    ``trace`` may yield :class:`Request` objects, bare keys,
    ``(key, size)`` tuples, or be a
    :class:`~repro.traces.compiled.CompiledTrace` (which is routed to
    the allocation-free :func:`simulate_compiled` engine).  With
    ``warmup`` (fraction of the trace) or ``warmup_requests`` set, the
    warmup prefix is excluded from the reported hit/miss/byte counts,
    the standard methodology for steady-state miss ratios; fractional
    warmup requires a sized trace (list/tuple/compiled).

    Eviction semantics: ``result.evictions`` counts steady-state
    (post-warmup) evictions only; warmup evictions are reported
    separately as ``result.warmup_evictions`` (see
    :class:`SimulationResult`).

    ``engine`` only chooses between engines on a compiled trace; any
    other trace streams, and ``engine="vector"`` raises for it.
    """
    from repro.traces.compiled import CompiledTrace

    _check_engine(engine)
    if isinstance(trace, CompiledTrace):
        return simulate_compiled(
            policy, trace, warmup=warmup, warmup_requests=warmup_requests,
            engine=engine,
        )
    if engine == "vector":
        raise ValueError(
            "engine='vector' needs a CompiledTrace, got "
            f"{type(trace).__name__} (see repro.traces.compiled)"
        )

    warmup_requests = _resolve_warmup(trace, warmup, warmup_requests)
    return _step(policy, map(as_request, trace), warmup_requests)


def _step(
    policy: EvictionPolicy, reqs: Iterable[Request], warmup_requests: int
) -> SimulationResult:
    """Drive ``policy`` one request at a time; the first
    ``warmup_requests`` are left out of the counts."""
    requests = 0
    misses = 0
    bytes_requested = 0
    bytes_missed = 0
    seen = 0
    evictions_before = policy.stats.evictions
    evictions_at_warmup = evictions_before
    for req in reqs:
        hit = policy.request(req)
        seen += 1
        if seen <= warmup_requests:
            if seen == warmup_requests:
                evictions_at_warmup = policy.stats.evictions
            continue
        requests += 1
        bytes_requested += req.size
        if not hit:
            misses += 1
            bytes_missed += req.size
    return SimulationResult(
        policy_name=policy.name,
        capacity=policy.capacity,
        requests=requests,
        misses=misses,
        bytes_requested=bytes_requested,
        bytes_missed=bytes_missed,
        evictions=policy.stats.evictions - evictions_at_warmup,
        warmup_requests=warmup_requests,
        warmup_evictions=evictions_at_warmup - evictions_before,
        scalar_requests=seen,
    )


def simulate_compiled(
    policy: EvictionPolicy,
    trace,
    warmup: float = 0.0,
    warmup_requests: Optional[int] = None,
    engine: str = "auto",
) -> SimulationResult:
    """Run ``policy`` over a compiled trace with no per-request allocation.

    ``engine="auto"`` routes FIFO-family policies (fresh, no
    listeners) to :func:`repro.sim.vector.vector_simulate` in its
    per-chunk mode: hit-heavy chunks are consumed as vectorized hit
    runs, miss-heavy ones by the twin's own batch loop; the result is
    bit-identical but the policy object is left untouched.
    ``engine="vector"`` forces the pure hit-run engine (raising when
    ineligible); ``engine="scalar"`` forces the classic path below.

    On the scalar path, the array twins
    (:class:`~repro.cache.fast_base.FastPolicyBase`, the ``*-fast``
    registry entries) execute their ``run_compiled`` loop directly over
    the trace's integer id buffers.  Every other policy is driven through a single reused
    :class:`Request` object, which already removes the per-request
    allocation and dispatch cost of the streaming engine.

    Warmup and eviction-accounting semantics match :func:`simulate`.
    """
    _check_engine(engine)
    if engine != "scalar":
        from repro.sim.vector import vector_eligible, vector_simulate

        if engine == "vector" or vector_eligible(policy, trace):
            return vector_simulate(
                policy, trace, warmup=warmup, warmup_requests=warmup_requests,
                auto=engine == "auto",
            )

    warmup_requests = _resolve_warmup(trace, warmup, warmup_requests)
    n = len(trace)
    warmup_requests = min(warmup_requests, n)
    if not isinstance(policy, FastPolicyBase):
        return _step(policy, trace.iter_requests(reuse=True), warmup_requests)

    evictions_before = policy.stats.evictions
    if warmup_requests:
        policy.run_compiled(trace, 0, warmup_requests)
    evictions_at_warmup = policy.stats.evictions
    requests, misses, bytes_requested, bytes_missed = policy.run_compiled(
        trace, warmup_requests, n
    )
    return SimulationResult(
        policy_name=policy.name,
        capacity=policy.capacity,
        requests=requests,
        misses=misses,
        bytes_requested=bytes_requested,
        bytes_missed=bytes_missed,
        evictions=policy.stats.evictions - evictions_at_warmup,
        warmup_requests=warmup_requests,
        warmup_evictions=evictions_at_warmup - evictions_before,
    )


def windowed_miss_ratios(
    policy: EvictionPolicy,
    trace: Iterable[Union[Request, tuple, str, int]],
    window: int,
) -> List[float]:
    """Miss ratio per consecutive window of ``window`` requests.

    Useful for watching warmup converge and for spotting phase changes
    (scans show up as miss-ratio spikes).  The trailing partial window
    is included when non-empty.  Compiled traces use the fast-path
    engine: each window is one batched ``run_compiled`` call for fast
    policies, or a reused-Request sweep otherwise.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    from repro.traces.compiled import CompiledTrace

    if isinstance(trace, CompiledTrace):
        if isinstance(policy, FastPolicyBase):
            n = len(trace)
            ratios: List[float] = []
            for start in range(0, n, window):
                stop = min(start + window, n)
                requests, misses, _, _ = policy.run_compiled(trace, start, stop)
                ratios.append(misses / requests if requests else 0.0)
            return ratios
        return _step_windows(policy, trace.iter_requests(reuse=True), window)
    return _step_windows(policy, map(as_request, trace), window)


def _step_windows(
    policy: EvictionPolicy, reqs: Iterable[Request], window: int
) -> List[float]:
    """Miss ratio per ``window`` requests, driving ``policy`` one
    request at a time."""
    ratios: List[float] = []
    misses = 0
    count = 0
    for req in reqs:
        if not policy.request(req):
            misses += 1
        count += 1
        if count == window:
            ratios.append(misses / count)
            misses = 0
            count = 0
    if count:
        ratios.append(misses / count)
    return ratios
