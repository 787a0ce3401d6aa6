"""Full-size perf benchmark: reference vs. fast policies, 1M requests.

Marked ``perf`` and excluded from tier-1 (see pyproject addopts); run
via ``make perf`` or ``pytest benchmarks/perf -m perf``.  Writes the
canonical ``benchmarks/results/BENCH_perf.json`` (only once its asserts
pass; a failing run prints the report instead) and enforces the
repo's headline perf claim: fast S3-FIFO sustains at least 3x the
reference's requests/second on a 1M-request Zipf(1.0) trace at 10%
cache size.
"""

import json
from pathlib import Path

import pytest

from repro.perf.bench import format_report, run_perf_bench, write_report

RESULTS_PATH = Path(__file__).parent.parent / "results" / "BENCH_perf.json"


@pytest.mark.perf
def test_perf_bench_full():
    report = run_perf_bench(
        num_objects=100_000,
        num_requests=1_000_000,
        alpha=1.0,
        cache_ratio=0.1,
        seed=42,
    )
    # The vector guards (test_vector_guard.py) own the "vector" and
    # "auto_sweep" sections; keep whichever run wrote them last,
    # regardless of order.
    if RESULTS_PATH.is_file():
        try:
            prior = json.loads(RESULTS_PATH.read_text())
        except ValueError:
            prior = {}
        if isinstance(prior, dict):
            for name in ("vector", "auto_sweep"):
                if name in prior:
                    report[name] = prior[name]
    # Shown by pytest only when an assert fails; the report reaches
    # BENCH_perf.json only after every assert has passed.
    print(format_report(report))
    by_name = {
        (row["policy"], row["impl"]): row for row in report["results"]
    }
    ref = by_name[("s3fifo", "reference")]
    fast = by_name[("s3fifo-fast", "fast")]
    assert fast["miss_ratio"] == ref["miss_ratio"]
    speedup = fast["requests_per_sec"] / ref["requests_per_sec"]
    assert speedup >= 3.0, (
        f"s3fifo-fast is only {speedup:.2f}x the reference "
        f"({fast['requests_per_sec']:,} vs {ref['requests_per_sec']:,} req/s)"
    )
    # Every fast twin must at least beat its reference.
    for name, ratio in report["speedups"].items():
        assert ratio > 1.0, f"{name} slower than reference ({ratio}x)"
    write_report(report, RESULTS_PATH)
