"""Full-size single-pass MRC perf guard, 1M requests at 8 sizes.

Marked ``perf``/``mrc`` and excluded from tier-1 (see pyproject
addopts); ``make perf`` (``pytest benchmarks/perf/ -m perf``) runs it
with the other perf guards, and so does the last step of ``make
mrc-fast`` (its ``pytest tests/ -m mrc`` step does not collect
``benchmarks/perf/``).  Enforces the PR's headline claim: the single-pass multi-size
FIFO engine computes all 8 cache sizes of a 1M-request Zipf(1.0) MRC
at least 3x faster than re-simulating per size — with the *fast twin*
as the baseline, not the reference policy, so the bar is the honest
one.  Exactness is asserted on the same run.
"""

import time

import pytest

from repro.cache.registry import create_policy
from repro.sim.multisim import fifo_multisim
from repro.sim.simulator import simulate
from repro.traces.compiled import compile_trace
from repro.traces.synthetic import zipf_trace

SIZE_FRACTIONS = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5)


@pytest.mark.perf
@pytest.mark.mrc
def test_single_pass_mrc_speedup():
    trace = zipf_trace(
        num_objects=100_000, num_requests=1_000_000, alpha=1.0, seed=42
    )
    ct = compile_trace(trace, name="zipf-1M")
    sizes = sorted(
        {max(1, int(ct.num_objects * f)) for f in SIZE_FRACTIONS}
    )
    assert len(sizes) == 8

    start = time.perf_counter()
    result = fifo_multisim(ct, sizes)
    t_single = time.perf_counter() - start

    start = time.perf_counter()
    per_size = []
    for size in sizes:
        cache = create_policy("fifo-fast", capacity=size)
        per_size.append(simulate(cache, ct))
    t_per_size = time.perf_counter() - start

    for r, misses in zip(per_size, result.misses):
        assert r.misses == misses  # exactness rides along with the race
    speedup = t_per_size / t_single
    assert speedup >= 3.0, (
        f"single-pass is only {speedup:.2f}x per-size re-simulation "
        f"({t_single:.2f}s vs {t_per_size:.2f}s at {len(sizes)} sizes)"
    )
