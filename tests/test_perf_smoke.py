"""Tier-1 smoke test for the perf harness: tiny workload, full schema.

The real benchmark (1M requests, ``benchmarks/perf/``) is marked
``perf`` and excluded from tier-1; this test runs the same code path
at toy scale so schema or wiring regressions surface in the fast
suite.
"""

import json

from repro.perf.bench import run_perf_bench, write_report

REQUIRED_RESULT_KEYS = {
    "policy",
    "impl",
    "reference",
    "trace",
    "seed",
    "requests",
    "capacity",
    "wall_time_s",
    "requests_per_sec",
    "peak_rss",
    "miss_ratio",
}


def test_bench_report_schema(tmp_path):
    report = run_perf_bench(
        pairs=(("s3fifo", "s3fifo-fast"),),
        num_objects=500,
        num_requests=5_000,
        alpha=1.0,
        cache_ratio=0.1,
        seed=7,
    )
    path = write_report(report, tmp_path / "BENCH_perf.json")
    loaded = json.loads(path.read_text())
    assert loaded["schema"] == 3
    assert loaded["trace"] == "zipf-1"
    assert loaded["seed"] == 7
    assert loaded["config"]["capacity"] == 50
    # Provenance block: perf numbers must say what produced them.
    env = loaded["env"]
    assert env["python"] and env["numpy"]
    assert env["cpu_count"] >= 1
    assert "python_build" in env
    # reference + fast + vector row for a vector-capable pair.
    assert len(loaded["results"]) == 3
    for row in loaded["results"]:
        assert REQUIRED_RESULT_KEYS <= set(row)
        assert row["requests"] == 5_000
        assert row["requests_per_sec"] > 0
        assert row["peak_rss"] > 0
        assert 0.0 < row["miss_ratio"] < 1.0
    ref, fast, vec = loaded["results"]
    assert (ref["impl"], fast["impl"], vec["impl"]) == (
        "reference", "fast", "vector",
    )
    assert ref["miss_ratio"] == fast["miss_ratio"] == vec["miss_ratio"]
    assert set(loaded["speedups"]) == {"s3fifo-fast", "s3fifo-fast-vector"}


def test_vector_bench_section_schema():
    """Toy-scale run of the vector-guard workload: schema only — the
    speedup targets are asserted at full scale in benchmarks/perf/."""
    from repro.perf.bench import run_vector_bench

    section = run_vector_bench(
        num_objects=500,
        num_requests=5_000,
        alpha=1.4,
        cache_ratio=0.1,
        seed=7,
        repeats=2,
    )
    assert set(section["speedups"]) == {"fifo-fast", "s3fifo-fast"}
    assert set(section["hit_ratios"]) == {"fifo-fast", "s3fifo-fast"}
    assert section["config"]["repeats"] == 2
    assert len(section["results"]) == 4  # scalar + vector per target
    for row in section["results"]:
        assert row["impl"] in ("scalar", "vector")
        assert len(row["all_walls_s"]) == 2
        # best-of-N: the reported wall is the minimum repeat.
        assert row["wall_time_s"] == min(row["all_walls_s"])
    assert section["targets"] == {"fifo-fast": 2.5, "s3fifo-fast": 2.0}


def test_auto_sweep_section_schema(tmp_path):
    """Toy-scale run of the auto-engine sweep: schema, the engine split
    of every row, and merging into an existing report."""
    from repro.perf.bench import (
        SWEEP_ENGINES,
        format_auto_sweep,
        merge_section,
        run_auto_sweep,
    )

    section = run_auto_sweep(
        alphas=(0.6, 1.4),
        policies=("fifo-fast", "s3fifo-fast"),
        num_objects=500,
        num_requests=5_000,
        seed=7,
        repeats=2,
        min_seconds=0.0,
    )
    assert section["env"]["cpu_count"] >= 1
    assert section["floor"] == 0.95
    assert [(r["alpha"], r["policy"]) for r in section["rows"]] == [
        (0.6, "fifo-fast"), (0.6, "s3fifo-fast"),
        (1.4, "fifo-fast"), (1.4, "s3fifo-fast"),
    ]
    for row in section["rows"]:
        assert row["rounds"] == 2
        for engine in SWEEP_ENGINES:
            assert len(row["all_cpu_s"][engine]) == 2
            assert row["best_cpu_s"][engine] == min(row["all_cpu_s"][engine])
        assert row["auto_engine"] in ("scalar", "vector", "auto")
        assert row["auto_vs_best"] > 0 and row["auto_vs_best_of_n"] > 0
        shares = (row["hit_run_share"] + row["event_share"]
                  + row["scalar_share"])
        assert abs(shares - 1.0) < 1e-3
    assert len(format_auto_sweep(section).splitlines()) == 5

    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps({"schema": 2, "results": [], "vector": {}}))
    merged = merge_section(path, "auto_sweep", section)
    assert merged["schema"] == 3
    assert set(merged) == {"schema", "results", "vector", "auto_sweep"}
    assert json.loads(path.read_text()) == json.loads(json.dumps(merged))


def test_bench_rejects_divergent_pair():
    # Pairing two genuinely different policies must trip the built-in
    # miss-ratio cross-check rather than report a bogus speedup.
    import pytest

    with pytest.raises(AssertionError):
        run_perf_bench(
            pairs=(("lru", "s3fifo-fast"),),
            num_objects=500,
            num_requests=5_000,
            cache_ratio=0.02,
            seed=3,
        )


def test_default_pairs_all_registered():
    from repro.cache.registry import create_policy
    from repro.perf.bench import DEFAULT_PAIRS

    for ref_name, fast_name in DEFAULT_PAIRS:
        assert create_policy(ref_name, capacity=10).name == ref_name
        assert create_policy(fast_name, capacity=10).name == fast_name
