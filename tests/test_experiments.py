"""Smoke + shape tests for every experiment module (tiny scales)."""

import pytest

from repro.experiments import (
    ablations,
    sec523_byte_missratio,
    fig01_toy,
    fig02_onehit_curves,
    fig03_onehit_distribution,
    fig04_eviction_frequency,
    fig06_missratio_percentiles,
    fig07_missratio_by_dataset,
    fig08_throughput,
    fig09_flash_admission,
    fig10_demotion,
    fig11_s_size_sweep,
    sec52_adversarial,
    sec62_adaptive,
    sec63_queue_type,
    table1_datasets,
)


class TestFig01:
    def test_matches_paper_exactly(self):
        rows = fig01_toy.run()
        by_window = {(r["start"], r["end"]): r for r in rows}
        assert by_window[(1, 17)]["ratio"] == pytest.approx(0.20)
        assert by_window[(1, 7)]["ratio"] == pytest.approx(0.50)
        assert by_window[(1, 4)]["ratio"] == pytest.approx(2 / 3, abs=0.01)
        assert by_window[(1, 17)]["one_hit_wonders"] == "E"
        assert by_window[(1, 7)]["one_hit_wonders"] == "C,D"

    def test_format(self):
        assert "Fig. 1" in fig01_toy.format_table()


class TestFig02:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig02_onehit_curves.run(
            alphas=(0.8, 1.2),
            num_objects=1500,
            num_requests=30_000,
            num_samples=4,
        )

    def test_curves_decrease(self, rows):
        for trace in ("zipf-0.8", "zipf-1.2", "msr", "twitter"):
            assert fig02_onehit_curves.monotonically_decreasing(
                rows, trace, tolerance=0.1
            ), trace

    def test_skew_lowers_curve(self, rows):
        def at(trace, frac):
            return next(
                r["ohw_ratio"]
                for r in rows
                if r["trace"] == trace and r["fraction"] == frac
            )

        assert at("zipf-1.2", 0.1) < at("zipf-0.8", 0.1)

    def test_format(self, rows):
        assert "Fig. 2" in fig02_onehit_curves.format_table(rows)


class TestFig03:
    def test_shorter_sequences_higher_median(self):
        rows = fig03_onehit_distribution.run(
            fractions=(1.0, 0.1),
            datasets=["msr", "twitter", "cdn1"],
            traces_per_dataset=2,
            scale=0.4,
            num_samples=3,
        )
        by_frac = {r["fraction"]: r for r in rows}
        assert by_frac[0.1]["median"] > by_frac[1.0]["median"]

    def test_row_counts(self):
        rows = fig03_onehit_distribution.run(
            fractions=(1.0,),
            datasets=["fiu"],
            traces_per_dataset=2,
            scale=0.3,
        )
        assert rows[0]["traces"] == 2


class TestFig04:
    def test_one_hit_wonders_at_eviction(self):
        rows = fig04_eviction_frequency.run(
            datasets=("msr",), policies=("lru", "belady"), scale=0.4
        )
        by_policy = {r["policy"]: r for r in rows}
        # MSR-like: the paper reports 82% (LRU) / 68% (Belady) freq-0.
        assert by_policy["lru"]["freq0"] > 0.5
        assert by_policy["belady"]["freq0"] > 0.3
        assert by_policy["lru"]["evictions"] > 0

    def test_cdf_monotone(self):
        rows = fig04_eviction_frequency.run(
            datasets=("twitter",), policies=("lru",), scale=0.4
        )
        row = rows[0]
        cdf = [row[f"freq<={k}"] for k in range(5)]
        assert all(cdf[i] <= cdf[i + 1] + 1e-12 for i in range(4))


class TestTable1:
    def test_all_datasets_reported(self):
        rows = table1_datasets.run(scale=0.3, traces_per_dataset=1)
        assert len(rows) == 14
        for row in rows:
            assert row["ohw_10pct"] >= row["ohw_full"] - 0.05


class TestFig06:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig06_missratio_percentiles.run(
            policies=["s3fifo", "lru", "clock", "tinylfu"],
            datasets=["msr", "twitter", "cdn1"],
            scale=0.3,
            traces_per_dataset=2,
            processes=1,
            cache_ratios=(0.1,),
        )

    def test_s3fifo_best_mean(self, rows):
        means = {r["policy"]: r["mean"] for r in rows}
        assert means["s3fifo"] == max(means.values())

    def test_all_beat_fifo_on_these_datasets(self, rows):
        for row in rows:
            assert row["mean"] > 0, row["policy"]

    def test_format(self, rows):
        assert "Fig. 6" in fig06_missratio_percentiles.format_table(rows)


class TestFig07:
    def test_winner_column(self):
        rows = fig07_missratio_by_dataset.run(
            policies=["s3fifo", "lru"],
            datasets=["msr"],
            scale=0.3,
            traces_per_dataset=2,
            processes=1,
        )
        assert rows[0]["best"] in {"s3fifo", "lru"}
        assert rows[0]["s3fifo_rank"] in {1, 2}

    def test_wins_helper(self):
        rows = [
            {"dataset": "a", "x": 0.5, "y": 0.2, "best": "x", "s3fifo_rank": 1},
            {"dataset": "b", "x": 0.1, "y": 0.4, "best": "y", "s3fifo_rank": 2},
        ]
        assert fig07_missratio_by_dataset.wins(rows, "x") == 1
        assert fig07_missratio_by_dataset.top_k_count(rows, "x", k=2) == 2


class TestFig08:
    def test_shapes(self):
        rows = fig08_throughput.run()
        assert fig08_throughput.speedup_at(
            rows, "large", "s3fifo", "lru-optimized", 16
        ) > 6
        strict = next(
            r for r in rows if r["cache"] == "large" and r["policy"] == "lru-strict"
        )
        assert strict["t16"] < 2 * strict["t1"]

    def test_simulation_mode(self):
        rows = fig08_throughput.run(
            policies=("s3fifo",), threads=(1, 2), use_simulation=True,
            requests=20_000,
        )
        assert rows[0]["t2"] > rows[0]["t1"]


class TestFig09:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig09_flash_admission.run(
            datasets=("wikimedia",), dram_ratios=(0.01, 0.1), scale=0.25
        )

    def test_admission_reduces_writes(self, rows):
        writes = {r["scheme"]: r["normalized_writes"] for r in rows}
        baseline = writes["fifo (no admission)"]
        s3_keys = [k for k in writes if k.startswith("s3fifo")]
        assert all(writes[k] < baseline for k in s3_keys)

    def test_s3_filter_good_miss_ratio(self, rows):
        by_scheme = {r["scheme"]: r for r in rows}
        prob = by_scheme["probabilistic-0.2"]["miss_ratio"]
        s3_best = min(
            r["miss_ratio"] for r in rows if r["scheme"].startswith("s3fifo")
        )
        assert s3_best <= prob + 0.05


class TestFig10:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig10_demotion.run(
            datasets=("twitter",),
            s_sizes=(0.4, 0.1, 0.02),
            cache_ratios=(0.1,),
            scale=0.3,
        )

    def test_smaller_s_faster(self, rows):
        s3 = {
            r["s_size"]: r["speed"]
            for r in rows
            if r["policy"] == "s3fifo" and r["s_size"]
        }
        assert s3[0.02] > s3[0.4]

    def test_table2_pivot(self, rows):
        table = fig10_demotion.table2_view(rows)
        policies = {r["policy"] for r in table}
        assert {"tinylfu", "s3fifo", "arc", "lru"} <= policies


class TestFig11:
    def test_sweep_rows(self):
        rows = fig11_s_size_sweep.run(
            s_sizes=(0.05, 0.2),
            datasets=["twitter", "msr"],
            cache_ratios=(0.1,),
            scale=0.3,
            traces_per_dataset=2,
            processes=1,
        )
        assert {r["s_size"] for r in rows} == {0.05, 0.2}
        assert all(r["mean"] > 0 for r in rows)


class TestSections:
    def test_sec52_partitioned_policies_lose(self):
        rows = sec52_adversarial.run(
            num_objects=4000, cache_size=500, gaps=(400,), seed=0
        )
        by_policy = {r["policy"]: r["miss_ratio"] for r in rows}
        assert by_policy["fifo"] < by_policy["s3fifo"]
        assert by_policy["fifo"] < by_policy["tinylfu"]

    def test_sec62_summary(self):
        rows = sec62_adaptive.run(
            datasets=["twitter"],
            scale=0.3,
            traces_per_dataset=2,
            processes=1,
        )
        summary = sec62_adaptive.summarize(rows)
        assert summary["traces"] == 2
        assert summary["adversarial_gain"] is not None

    def test_sec63_variants_close(self):
        rows = sec63_queue_type.run(
            datasets=["twitter", "msr"],
            scale=0.3,
            traces_per_dataset=1,
            processes=1,
        )
        means = [r["mean_reduction"] for r in rows]
        assert max(means) - min(means) < 0.1
        assert len(rows) == 5

    def test_sec523_byte_reduction_positive(self):
        rows = sec523_byte_missratio.run(
            policies=("s3fifo", "lru"),
            datasets=["wikimedia"],
            scale=0.25,
            traces_per_dataset=1,
            processes=1,
        )
        means = {r["policy"]: r["mean"] for r in rows}
        assert means["s3fifo"] > means["lru"]

    def test_ablations_default_competitive(self):
        rows = ablations.run(
            ablations={
                "default (ghost=|M|, cap=3, thr=2)": {},
                "move-threshold=1": {"move_to_main_threshold": 1},
            },
            datasets=["twitter"],
            scale=0.3,
            traces_per_dataset=2,
            processes=1,
        )
        by_label = {r["ablation"]: r["mean_reduction"] for r in rows}
        assert len(by_label) == 2
        assert all(v > 0 for v in by_label.values())


class TestFrontier:
    """The one frontier harness: series specs in, one row per (series,
    cache size) out, for in-process and socket series alike."""

    SERIES = (
        ("thread inproc", "T", {}),
        ("resp p8", "R",
         {"frontend": "resp", "connections": 1, "pipeline_depth": 8}),
    )

    @pytest.fixture(scope="class")
    def rows(self):
        from repro.experiments import frontier

        return frontier.run(cache_ratios=(0.02, 0.2), scale=0.05, seed=42,
                            series=self.SERIES)

    def test_hit_ratio_rises_with_capacity(self, rows):
        assert [r["series"] for r in rows] == [
            "thread inproc", "thread inproc", "resp p8", "resp p8"]
        for label in ("thread inproc", "resp p8"):
            small, big = [r for r in rows if r["series"] == label]
            assert small["capacity"] < big["capacity"]
            assert big["hit_ratio"] > small["hit_ratio"]
            assert small["kops"] > 0 and big["kops"] > 0
        assert {r["frontend"] for r in rows} == {"inproc", "resp"}

    def test_table_and_chart(self, rows):
        from repro.experiments import frontier

        assert "resp p8" in frontier.format_table(rows)
        chart = frontier.format_chart(rows)
        assert "T = thread inproc" in chart and "R = resp p8" in chart

    @pytest.mark.parametrize("name", ["frontier", "net-frontier"])
    def test_cli_dispatches_to_the_harness(self, name, monkeypatch,
                                           capsys):
        """Both experiment names reach frontier.run through
        repro.cli.EXPERIMENTS, each with its own series set."""
        import importlib

        from repro.cli import EXPERIMENTS, main
        from repro.experiments import frontier

        module = importlib.import_module(EXPERIMENTS[name])
        expected = module.DEFAULT_SERIES
        seen = []

        def fake_scenario(trace, capacity, **kwargs):
            seen.append(kwargs)
            return {"backend": "thread", "transport": "inproc",
                    "frontend": kwargs.get("frontend", "inproc"),
                    "pipeline_depth": kwargs.get("pipeline_depth", 0),
                    "hit_ratio": capacity / 10_000, "ops_per_sec": 1e5,
                    "latency_us": {"p99": 1.0}}

        monkeypatch.setattr(frontier, "run_scenario", fake_scenario)
        assert main(["experiment", name, "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert seen == [kwargs for _, _, kwargs in expected
                        for _ in frontier.DEFAULT_RATIOS]
        for label, _, _ in expected:
            assert label in out


class TestFig08Native:
    def test_full_report_measures_s3fifo_sweep_once(self, monkeypatch):
        """The workers-axis calibration reuses the s3fifo mp sweep
        behind the curves instead of measuring it again."""
        from repro.experiments import fig08_native

        calls = []

        def fake_loadgen(shard_counts, thread_counts, policy,
                         backend="thread", batch_size=1, **workload):
            calls.append((policy, backend, tuple(shard_counts),
                          tuple(thread_counts), batch_size))
            scenarios = [
                {"shards": s, "threads": t, "backend": backend,
                 "frontend": "inproc", "transport": "pipe",
                 "batch_size": batch_size,
                 "ops_per_sec": 1e5 * s * t, "hit_ratio": 0.8,
                 "hit_ns_mean": 2000, "miss_ns_mean": 5000,
                 "latency_us": {"p99": 10.0}}
                for s in shard_counts for t in thread_counts
            ]
            return {"config": {"policy": policy}, "scenarios": scenarios}

        monkeypatch.setattr(fig08_native, "run_loadgen", fake_loadgen)
        text = fig08_native.full_report()
        sweep = ("s3fifo", "mp", fig08_native.DEFAULT_WORKERS, (1,),
                 fig08_native.DEFAULT_BATCH)
        assert calls.count(sweep) == 1
        assert "workers-axis calibration: parallel_fraction=1.0" in text
        rows = fig08_native.run()
        assert [r["config"] for r in rows] == [
            "s3fifo mp b=64", "lru mp b=64", "lru thread global-lock"]
        assert all(r["n1"] == 0.1 and r["speedup"] == 4.0 for r in rows)


@pytest.mark.cluster
class TestClusterChurn:
    def test_rows_pinned(self):
        """Every client-visible count of one crash/restart cycle is
        deterministic per (scale, seed); only latencies vary."""
        from repro.experiments import cluster_churn

        rows = cluster_churn.run(scale=0.1, seed=0)
        fields = ("phase", "ops", "hit_ratio", "nodes_up", "failovers",
                  "read_repairs", "rebalanced")
        assert [tuple(row[f] for f in fields) for row in rows] == [
            ("healthy", 200, 0.37, 3, 0, 2, 0),
            ("healthy", 200, 0.48, 3, 0, 8, 0),
            ("degraded", 200, 0.565, 2, 6, 16, 0),
            ("degraded", 200, 0.48, 2, 124, 14, 0),
            ("recovered", 200, 0.48, 3, 0, 9, 9),
            ("recovered", 200, 0.53, 3, 0, 7, 0),
        ]
