"""Load-generator report schema, concurrent hammering under the
invariant sanitizer, and the Amdahl calibration path.

Tier-1 keeps the runs tiny; the full-size sweeps carry the ``service``
marker and run via ``make loadgen``.
"""

import threading

import pytest

from repro.concurrency.calibrate import (
    calibrate_profile,
    parallel_fraction,
    profile_from_loadgen,
)
from repro.service import CacheService, ShardedCacheService
from repro.service.loadgen import (
    REPORT_KIND,
    SCHEMA_VERSION,
    find_scenario,
    format_report,
    latency_summary_us,
    run_loadgen,
    run_scenario,
)

#: Keys every BENCH_service.json consumer relies on; bump
#: loadgen.SCHEMA_VERSION when changing them.
SCENARIO_KEYS = {
    "shards", "threads", "backend", "workers", "batch_size", "transport",
    "frontend", "connections", "pipeline_depth",
    "mode", "policy", "ops", "wall_time_s",
    "ops_per_sec", "hit_ratio", "hits", "misses", "errors", "error_rate",
    "latency_us",
    "hit_ns_mean", "miss_ns_mean", "shard_ops", "imbalance",
    "evictions", "expired", "objects",
}
LATENCY_KEYS = {"p50", "p90", "p99", "p999", "mean", "max"}


def tiny_report(**kwargs):
    defaults = dict(
        shard_counts=(1, 2),
        thread_counts=(1, 2),
        num_objects=300,
        num_requests=2400,
        seed=42,
    )
    defaults.update(kwargs)
    return run_loadgen(**defaults)


class TestReportSchema:
    def test_schema_pinned(self):
        report = tiny_report()
        assert report["schema"] == SCHEMA_VERSION == 4
        assert report["kind"] == REPORT_KIND == "service-loadgen"
        assert set(report["config"]) >= {
            "num_objects", "num_requests", "alpha", "cache_ratio",
            "capacity", "seed", "policy", "mode", "backend", "batch_size",
            "transport", "frontend", "connections", "pipeline_depth",
        }
        assert len(report["scenarios"]) == 4
        for row in report["scenarios"]:
            assert set(row) == SCENARIO_KEYS
            assert set(row["latency_us"]) == LATENCY_KEYS
            assert row["ops"] == row["hits"] + row["misses"]
            assert row["ops_per_sec"] > 0
            assert len(row["shard_ops"]) == row["shards"]

    def test_scenarios_cover_requested_matrix(self):
        report = tiny_report()
        for shards in (1, 2):
            for threads in (1, 2):
                row = find_scenario(report, shards, threads)
                assert row is not None
                assert row["threads"] == threads
        assert find_scenario(report, 16, 1) is None

    def test_same_trace_across_rows(self):
        """Every scenario replays the same seeded workload, so hit
        ratios agree across thread counts (same requests, same total
        capacity) up to slice-boundary effects."""
        report = tiny_report(shard_counts=(1,))
        ratios = [r["hit_ratio"] for r in report["scenarios"]]
        assert max(ratios) - min(ratios) < 0.05

    def test_format_report_is_printable(self):
        report = tiny_report()
        text = format_report(report)
        assert "shards" in text and "p99us" in text
        assert len(text.splitlines()) == 2 + len(report["scenarios"])

    def test_latency_summary(self):
        summary = latency_summary_us([1000] * 99 + [100_000])
        assert summary["p50"] == 1.0
        assert summary["max"] == 100.0
        assert summary["p999"] == 100.0
        assert latency_summary_us([])["p99"] == 0.0

    def test_percentile_nearest_rank_pins(self):
        """The nearest-rank convention on the cases that expose
        off-by-one bugs: rank = ceil(q*n), 1-indexed, no interpolation."""
        from repro.service.loadgen import _percentile

        # n=1: every percentile is the sample.
        assert _percentile([7], 0.5) == 7.0
        assert _percentile([7], 0.999) == 7.0
        # n=2: 1 of 2 samples already covers 50%, so p50 is the LOWER.
        assert _percentile([1, 2], 0.5) == 1.0
        assert _percentile([1, 2], 0.51) == 2.0
        # n=4, q=0.5: ceil(2)=2nd value.  The old round(q*(n-1))
        # formula picked the 3rd — a 75th percentile.
        assert _percentile([10, 20, 30, 40], 0.5) == 20.0
        # q=0.999 tail: 999 of 1000 samples cover exactly 99.9%.
        thousand = list(range(1, 1001))
        assert _percentile(thousand, 0.999) == 999.0
        assert _percentile(thousand, 0.99) == 990.0
        assert _percentile([], 0.5) == 0.0

    def test_open_loop_mode(self):
        report = tiny_report(
            shard_counts=(1,), thread_counts=(1,),
            num_requests=500, mode="open", open_rate=100_000,
        )
        row = report["scenarios"][0]
        assert row["mode"] == "open"
        assert row["ops"] == 500

    def test_run_scenario_rejects_bad_args(self):
        with pytest.raises(ValueError):
            run_scenario([1, 2, 3], capacity=10, mode="nope")
        with pytest.raises(ValueError):
            run_scenario([1, 2, 3], capacity=10, num_threads=0)
        with pytest.raises(ValueError):
            run_scenario([1, 2, 3], capacity=10, mode="open", open_rate=0)
        with pytest.raises(ValueError):
            run_scenario([1, 2, 3], capacity=10, backend="rdma")
        with pytest.raises(ValueError):
            run_scenario([1, 2, 3], capacity=10, batch_size=0)
        with pytest.raises(ValueError):
            run_scenario([1, 2, 3], capacity=10, backend="mp",
                         instrument_policy=True)


class TestOneDriver:
    """Every pacing x round-adapter combination runs the same driver
    loop, so on one driver (one thread or one connection) the charged
    hits and misses depend only on the window width."""

    @pytest.fixture(scope="class")
    def trace(self):
        from repro.traces.synthetic import zipf_trace

        return zipf_trace(num_objects=500, num_requests=4000, alpha=1.0,
                          seed=7)

    @pytest.mark.parametrize("kwargs, hits, misses", [
        ({}, 2410, 1590),
        ({"mode": "open", "open_rate": 1e6}, 2410, 1590),
        ({"batch_size": 1}, 2410, 1590),
        ({"frontend": "resp", "pipeline_depth": 1}, 2410, 1590),
        ({"frontend": "memcached", "pipeline_depth": 1}, 2410, 1590),
        ({"batch_size": 8}, 2405, 1595),
        ({"mode": "open", "open_rate": 1e6, "batch_size": 8}, 2405, 1595),
        ({"frontend": "resp", "pipeline_depth": 8}, 2405, 1595),
        ({"frontend": "memcached", "pipeline_depth": 8}, 2405, 1595),
    ], ids=["closed-key", "open-key", "batch1", "resp1", "memcached1",
            "batch8", "open-batch8", "resp8", "memcached8"])
    def test_single_driver_counts_pinned(self, trace, kwargs, hits, misses):
        row = run_scenario(trace, capacity=50, **kwargs)
        assert (row["hits"], row["misses"], row["errors"]) == (
            hits, misses, 0)
        assert row["ops"] == 4000
        assert row["threads"] == 1

    @pytest.mark.parametrize("kwargs", [
        {"frontend": "resp", "snapshot_interval_s": -1},
        {"frontend": "memcached", "snapshot_interval_s": 0},
        {"backend": "mp", "mode": "open", "open_rate": 0},
        {"backend": "mp", "snapshot_interval_s": 0},
    ], ids=["resp-interval", "memcached-interval", "mp-rate", "mp-interval"])
    def test_rejected_arguments_leak_nothing(self, kwargs):
        """Arguments are checked before the backend or the server
        thread exists: a rejected call leaves no netsrv thread and no
        worker process behind."""
        import multiprocessing

        with pytest.raises(ValueError):
            run_scenario(list(range(100)), capacity=10, **kwargs)
        assert not any(t.name == "netsrv" and t.is_alive()
                       for t in threading.enumerate())
        assert multiprocessing.active_children() == []


class TestBatchedRows:
    def test_batched_thread_rows_report_batch_size(self):
        report = tiny_report(
            shard_counts=(1, 2), thread_counts=(1,), batch_size=16,
        )
        for row in report["scenarios"]:
            assert row["backend"] == "thread"
            assert row["batch_size"] == 16
            assert row["workers"] == 0
            assert row["ops"] == row["hits"] + row["misses"]
            # per-op latency in batched mode is the batch's latency
            assert row["latency_us"]["p50"] > 0

    def test_batched_and_unbatched_same_total_ops(self):
        plain = tiny_report(shard_counts=(2,), thread_counts=(1,))
        batched = tiny_report(
            shard_counts=(2,), thread_counts=(1,), batch_size=8,
        )
        assert plain["scenarios"][0]["ops"] == batched["scenarios"][0]["ops"]

    def test_open_loop_batched(self):
        report = tiny_report(
            shard_counts=(1,), thread_counts=(1,), num_requests=600,
            mode="open", open_rate=200_000, batch_size=32,
        )
        row = report["scenarios"][0]
        assert row["ops"] == 600 and row["batch_size"] == 32


class TestCombineReports:
    def test_combine_merges_scenarios(self):
        from repro.service.loadgen import combine_reports

        a = tiny_report(shard_counts=(1,), thread_counts=(1,))
        b = tiny_report(shard_counts=(2,), thread_counts=(1,), batch_size=4)
        combined = combine_reports([a, b])
        assert combined["schema"] == SCHEMA_VERSION
        assert len(combined["scenarios"]) == 2
        assert combined["config"]["backend"] == ["thread", "thread"]
        assert find_scenario(combined, 2, 1, batch_size=4) is not None
        assert find_scenario(combined, 2, 1, batch_size=9) is None

    def test_combine_rejects_foreign_documents(self):
        from repro.service.loadgen import combine_reports

        with pytest.raises(ValueError):
            combine_reports([])
        with pytest.raises(ValueError):
            combine_reports([{"kind": "metrics-export", "schema": 2}])
        with pytest.raises(ValueError):
            combine_reports([{"kind": REPORT_KIND, "schema": 1,
                              "config": {}, "scenarios": []}])

    def test_combine_rejects_mixed_schemas(self):
        """A schema-2 document (pre-transport rows) must not be
        silently concatenated with a schema-3 one — the older rows
        would masquerade as current under consumers' defaults."""
        from repro.service.loadgen import combine_reports

        current = tiny_report(shard_counts=(1,), thread_counts=(1,))
        stale = {"kind": REPORT_KIND, "schema": 2,
                 "config": {}, "scenarios": []}
        with pytest.raises(ValueError, match="mixed schemas"):
            combine_reports([current, stale])
        with pytest.raises(ValueError, match="mixed schemas"):
            combine_reports([stale, current])

    def test_combine_error_names_offending_sources(self):
        """The mixed-schema refusal must say WHICH file carries which
        schema — a regression test for the error that used to print
        only the schema set and left the caller bisecting documents."""
        from repro.service.loadgen import combine_reports

        current = tiny_report(shard_counts=(1,), thread_counts=(1,))
        stale = {"kind": REPORT_KIND, "schema": 3,
                 "config": {}, "scenarios": []}
        with pytest.raises(ValueError) as excinfo:
            combine_reports([current, stale],
                            sources=["new.json", "old.json"])
        message = str(excinfo.value)
        assert "old.json" in message and "schema 3" in message
        assert "new.json" in message and f"schema {SCHEMA_VERSION}" in message
        # Unnamed reports still get positional labels.
        with pytest.raises(ValueError, match=r"reports\[1\]"):
            combine_reports([current, stale])
        # The kind check names its source too.
        with pytest.raises(ValueError, match="bogus.json"):
            combine_reports([{"kind": "metrics-export"}],
                            sources=["bogus.json"])
        # sources must cover every report.
        with pytest.raises(ValueError, match="sources"):
            combine_reports([current, stale], sources=["only-one.json"])

    def test_find_scenario_transport_filter(self):
        """Transport filtering on schema-4 rows."""
        def row(backend, transport):
            return {"shards": 1, "threads": 1, "backend": backend,
                    "batch_size": 1, "transport": transport,
                    "frontend": "inproc", "connections": 0,
                    "pipeline_depth": 0, "ops_per_sec": 1.0}

        report = {
            "schema": SCHEMA_VERSION, "kind": REPORT_KIND, "config": {},
            "scenarios": [
                row("mp", "shm"),
                row("mp", "pipe"),
                row("mp", "pipe"),
                row("thread", "inproc"),
            ],
        }
        assert find_scenario(report, 1, 1, transport="shm")["transport"] == "shm"
        pipe = find_scenario(report, 1, 1, backend="mp", transport="pipe")
        assert pipe["transport"] == "pipe"
        assert find_scenario(report, 1, 1, transport="rdma") is None


class TestNetRows:
    """Schema-4 socket-mode rows (the full matrix lives behind the
    ``net`` marker in tests/test_netsrv_server.py; these pin the
    report plumbing on one tiny run per concern)."""

    def test_socket_row_axes_and_accounting(self):
        from repro.service.loadgen import run_net_loadgen

        report = run_net_loadgen(
            frontends=("resp",), connection_counts=(2,),
            pipeline_depths=(8,), num_objects=200, num_requests=2000,
        )
        assert report["schema"] == SCHEMA_VERSION
        assert report["config"]["frontend"] == ["resp"]
        row = report["scenarios"][0]
        assert set(row) == SCENARIO_KEYS
        assert row["frontend"] == "resp"
        assert row["connections"] == 2 and row["pipeline_depth"] == 8
        assert row["threads"] == 2  # one driver thread per connection
        assert row["backend"] == "thread" and row["transport"] == "inproc"
        assert row["ops"] == 2000 and row["errors"] == 0
        assert row["ops"] == row["hits"] + row["misses"]
        assert row["latency_us"]["p50"] > 0

    def test_inproc_rows_record_zero_net_axes(self):
        row = tiny_report(shard_counts=(1,),
                          thread_counts=(1,))["scenarios"][0]
        assert row["frontend"] == "inproc"
        assert row["connections"] == 0 and row["pipeline_depth"] == 0

    def test_find_scenario_net_filters(self):
        def row(frontend="inproc", connections=0, depth=0):
            return {"shards": 1, "threads": 1, "backend": "thread",
                    "batch_size": 1, "transport": "inproc",
                    "frontend": frontend, "connections": connections,
                    "pipeline_depth": depth}

        report = {
            "schema": SCHEMA_VERSION, "kind": REPORT_KIND, "config": {},
            "scenarios": [
                row("resp", 4, 16),
                row("memcached", 4, 1),
                row(),
            ],
        }
        hit = find_scenario(report, 1, 1, frontend="resp",
                            connections=4, pipeline_depth=16)
        assert hit is not None and hit["frontend"] == "resp"
        assert find_scenario(report, 1, 1, frontend="resp",
                             pipeline_depth=1) is None

    def test_socket_frontend_validation(self):
        with pytest.raises(ValueError):
            run_scenario([1, 2, 3], capacity=10, frontend="http")
        with pytest.raises(ValueError):
            run_scenario([1, 2, 3], capacity=10, frontend="resp",
                         connections=0)
        with pytest.raises(ValueError):
            run_scenario([1, 2, 3], capacity=10, frontend="resp",
                         pipeline_depth=0)
        with pytest.raises(ValueError):
            run_scenario([1, 2, 3], capacity=10, frontend="resp",
                         mode="open")
        with pytest.raises(ValueError):
            run_scenario([1, 2, 3], capacity=10, frontend="resp",
                         num_threads=2)
        with pytest.raises(ValueError):
            run_scenario([1, 2, 3], capacity=10, frontend="resp",
                         batch_size=8)
        with pytest.raises(ValueError):
            run_scenario([1, 2, 3], capacity=10, frontend="resp",
                         instrument_policy=True)

    def test_calibration_ignores_socket_rows(self):
        """A socket row at the same (shards, threads) axes must not be
        picked as a scaling endpoint — its per-op cost includes the
        protocol stack."""
        def row(threads, frontend="inproc", ops_per_sec=100_000):
            return {
                "shards": 1, "threads": threads, "backend": "thread",
                "workers": 0, "transport": "inproc",
                "frontend": frontend,
                "connections": 0 if frontend == "inproc" else threads,
                "pipeline_depth": 0 if frontend == "inproc" else 1,
                "ops_per_sec": ops_per_sec,
                "hit_ratio": 0.8, "hit_ns_mean": 2000,
                "miss_ns_mean": 5000, "batch_size": 1,
            }

        report = {
            "schema": SCHEMA_VERSION, "kind": REPORT_KIND,
            "config": {"policy": "s3fifo"},
            "scenarios": [row(1), row(4, ops_per_sec=150_000),
                          row(8, frontend="resp", ops_per_sec=10_000)],
        }
        from repro.concurrency.calibrate import _scaling_rows

        single, multi, n = _scaling_rows(report, shards=1, axis="threads")
        assert multi["threads"] == 4 and n == 4  # not the resp row


class TestConcurrentHammer:
    def hammer(self, svc, num_threads=4, ops=1500):
        """Mixed get/set/delete storm from many threads."""
        errors = []
        barrier = threading.Barrier(num_threads)

        def worker(tid):
            try:
                barrier.wait()
                for i in range(ops):
                    key = (tid * 31 + i * 7) % 400
                    op = i % 5
                    if op == 0:
                        svc.set(key, i, ttl=0.05 if i % 2 else None)
                    elif op == 4:
                        svc.delete(key)
                    else:
                        svc.get(key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,), daemon=True)
            for t in range(num_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_hammer_single_shard_checked(self):
        """The acceptance hammer: concurrent mixed ops with the
        CheckedPolicy sanitizer verifying every access."""
        svc = CacheService(64, "s3fifo", checked=True)
        self.hammer(svc)
        svc.check()
        assert svc.policy.checks_run > 0

    def test_hammer_sharded_checked(self):
        svc = ShardedCacheService(64, "s3fifo", num_shards=4, checked=True)
        self.hammer(svc)
        svc.sweep(10_000)
        svc.check()

    @pytest.mark.service
    def test_hammer_fast_policy_long(self):
        svc = CacheService(256, "s3fifo-fast", checked=True)
        self.hammer(svc, num_threads=8, ops=20_000)
        svc.check()


class TestCalibration:
    def test_parallel_fraction_endpoints(self):
        assert parallel_fraction(100, 100, 4) == 0.0  # no speedup
        assert parallel_fraction(100, 50, 4) == 0.0  # slowdown
        assert parallel_fraction(100, 400, 4) == 1.0  # linear
        assert parallel_fraction(100, 1000, 4) == 1.0  # super-linear clamps

    def test_parallel_fraction_amdahl_inversion(self):
        # p=0.5 at n=4 gives speedup 1/(0.5 + 0.125) = 1.6
        p = parallel_fraction(100, 160, 4)
        assert p == pytest.approx(0.5)

    def test_parallel_fraction_validation(self):
        with pytest.raises(ValueError):
            parallel_fraction(100, 200, 1)
        with pytest.raises(ValueError):
            parallel_fraction(0, 200, 4)

    def test_calibrate_profile_splits_costs(self):
        profile = calibrate_profile(
            "x", hit_ns=100, miss_ns=400,
            single_ops_per_sec=100, multi_ops_per_sec=160, threads=4,
        )
        assert profile.hit_parallel + profile.hit_critical == pytest.approx(100)
        assert profile.miss_parallel + profile.miss_critical == pytest.approx(400)
        assert profile.hit_parallel == pytest.approx(50)

    def test_profile_from_loadgen_report(self):
        report = tiny_report(shard_counts=(1,))
        profile = profile_from_loadgen(report)
        assert profile.name == "s3fifo-measured"
        single = find_scenario(report, 1, 1)
        total = profile.hit_parallel + profile.hit_critical
        assert total == pytest.approx(single["hit_ns_mean"])

    def test_profile_from_loadgen_needs_scaling_pair(self):
        report = tiny_report(shard_counts=(1,), thread_counts=(1,))
        with pytest.raises(ValueError):
            profile_from_loadgen(report)

    @staticmethod
    def synthetic_mp_report(mqps_1w=0.1, mqps_4w=0.3):
        """A hand-built report with a workers-axis pair, so the
        calibration unit tests need no real worker processes."""
        def row(shards, threads, backend, ops_per_sec, batch_size=64):
            return {
                "shards": shards, "threads": threads, "backend": backend,
                "workers": shards if backend == "mp" else 0,
                "batch_size": batch_size if backend == "mp" else 1,
                "transport": "pipe" if backend == "mp" else "inproc",
                "frontend": "inproc", "connections": 0,
                "pipeline_depth": 0,
                "ops_per_sec": ops_per_sec, "hit_ratio": 0.8,
                "hit_ns_mean": 2000, "miss_ns_mean": 5000,
            }

        return {
            "schema": SCHEMA_VERSION, "kind": REPORT_KIND,
            "config": {"policy": "s3fifo"},
            "scenarios": [
                row(1, 1, "thread", 300_000),
                row(1, 1, "mp", mqps_1w * 1e6),
                row(4, 1, "mp", mqps_4w * 1e6),
            ],
        }

    def test_workers_axis_calibration(self):
        from repro.concurrency.calibrate import calibration_summary

        report = self.synthetic_mp_report(mqps_1w=0.1, mqps_4w=0.25)
        summary = calibration_summary(report, axis="workers")
        assert summary["axis"] == "workers"
        assert summary["profile"] == "s3fifo-measured-mp"
        assert summary["workers"] == 4 and summary["batch_size"] == 64
        # speedup 2.5 at n=4: p = (1 - 1/2.5) / (1 - 1/4) = 0.8
        assert summary["parallel_fraction"] == pytest.approx(0.8)
        # The thread row must NOT leak into the workers axis.
        profile = profile_from_loadgen(report, axis="workers")
        assert profile.name == "s3fifo-measured-mp"

    def test_workers_axis_requires_mp_pair(self):
        report = tiny_report(shard_counts=(1, 2))  # thread rows only
        with pytest.raises(ValueError):
            profile_from_loadgen(report, axis="workers")
        with pytest.raises(ValueError):
            profile_from_loadgen(report, axis="sideways")

    def test_threads_axis_ignores_mp_rows(self):
        report = self.synthetic_mp_report()
        # Only one thread-backend row at shards=1: no scaling pair.
        with pytest.raises(ValueError):
            profile_from_loadgen(report, axis="threads")


@pytest.mark.service
class TestFullScale:
    """The acceptance-size sweep (make loadgen runs these)."""

    def test_acceptance_matrix(self):
        report = run_loadgen(
            shard_counts=(1, 4),
            thread_counts=(1, 4),
            num_objects=10_000,
            num_requests=100_000,
            seed=42,
        )
        for shards in (1, 4):
            row = find_scenario(report, shards, 1)
            assert row["ops_per_sec"] > 0
            assert row["latency_us"]["p50"] > 0
            assert row["latency_us"]["p99"] >= row["latency_us"]["p50"]
        four = find_scenario(report, 4, 1)
        assert four["imbalance"] < 2.0
