"""Vector-engine perf guard: NumPy batch engine vs. scalar fast twins.

Marked ``perf`` and excluded from tier-1 (see pyproject addopts); run
via ``make perf`` or ``pytest benchmarks/perf -m perf``.  Enforces the
vectorized hit-run claim: on a 1M-request high-skew Zipf trace whose
hit ratio exceeds 0.9, the vector engine (:mod:`repro.sim.vector`)
sustains at least 2.5x ``fifo-fast`` and 2x ``s3fifo-fast`` — the
scalar compiled-trace paths that were themselves the previous perf
tentpole.  Both engines are timed best-of-3 because single-shot walls
on small shared machines carry more noise than the asserted margin.

The auto guard holds ``engine="auto"`` to the better of the two fixed
engines over a Zipf skew sweep (α 0.6-1.4, hit ratio ≈0.3-0.97) for
``fifo-fast``, ``sieve-fast`` and ``s3fifo-fast``: at every point it
must reach :data:`~repro.perf.bench.AUTO_FLOOR` (0.95x) of the faster
of ``scalar`` and ``vector``.  The engines run interleaved, and the
ratio is the median over rounds of the same round's CPU times (see
:func:`~repro.perf.bench.run_auto_sweep`).  Both guards are
single-process and never skip, whatever the CPU count.

Merges its measurements into ``benchmarks/results/BENCH_perf.json``
as the ``"vector"`` and ``"auto_sweep"`` sections (test_perf_bench.py
owns the rest), each only after its guard's asserts pass: a failing run
prints its section and leaves the file as it was.
"""

import json
from pathlib import Path

import pytest

from repro.perf.bench import (
    AUTO_FLOOR,
    VECTOR_BENCH_TARGETS,
    format_auto_sweep,
    merge_section,
    run_auto_sweep,
    run_vector_bench,
)

RESULTS_PATH = Path(__file__).parent.parent / "results" / "BENCH_perf.json"


@pytest.mark.perf
def test_vector_engine_guard():
    section = run_vector_bench(
        num_objects=100_000,
        num_requests=1_000_000,
        alpha=1.4,
        cache_ratio=0.1,
        seed=42,
        repeats=3,
    )
    # Shown by pytest only when an assert fails; the section reaches
    # BENCH_perf.json only after every assert has passed.
    print(json.dumps(section, indent=2))

    # The workload must actually exercise lazy promotion: the guard
    # is a claim about hit-run dominance, not about miss-heavy traces.
    for name, _ in VECTOR_BENCH_TARGETS:
        hit = section["hit_ratios"][name]
        assert hit >= 0.9, (
            f"{name} guard workload hit ratio {hit:.4f} < 0.9 — "
            "the acceptance trace no longer stresses hit runs"
        )

    for name, target in VECTOR_BENCH_TARGETS:
        speedup = section["speedups"][name]
        assert speedup >= target, (
            f"vector engine is only {speedup:.2f}x {name} "
            f"(target {target:.1f}x); walls: "
            f"{[r['all_walls_s'] for r in section['results'] if r['policy'] == name]}"
        )

    merge_section(RESULTS_PATH, "vector", section)


@pytest.mark.perf
def test_auto_engine_sweep():
    section = run_auto_sweep()
    print(format_auto_sweep(section))
    slow = [
        (row["alpha"], row["policy"], row["auto_vs_best"])
        for row in section["rows"]
        if row["auto_vs_best"] < AUTO_FLOOR
    ]
    assert not slow, (
        f"engine='auto' is below {AUTO_FLOOR}x the better engine at "
        f"(alpha, policy, ratio) {slow}"
    )
    # The sweep must span both regimes: the batch loop carries the
    # miss-heavy end and hit runs carry the hit-heavy end.
    by_alpha = {}
    for row in section["rows"]:
        by_alpha.setdefault(row["alpha"], []).append(row)
    low, high = min(by_alpha), max(by_alpha)
    assert all(row["scalar_share"] > 0.5 for row in by_alpha[low])
    assert all(row["hit_run_share"] > 0.5 for row in by_alpha[high])
    merge_section(RESULTS_PATH, "auto_sweep", section)
