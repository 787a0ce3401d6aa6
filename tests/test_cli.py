"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_choices(self):
        parser = build_parser()
        args = parser.parse_args(["experiment", "fig01"])
        assert args.name == "fig01"
        with pytest.raises(SystemExit):
            parser.parse_args(["experiment", "nope"])

    def test_all_experiments_registered(self):
        for exp in [
            "fig01", "fig02", "fig03", "fig04", "table1", "fig06",
            "fig07", "fig08", "fig09", "fig10", "fig11", "sec52",
            "sec523", "sec62", "sec63", "ablations",
        ]:
            assert exp in EXPERIMENTS


class TestCommands:
    def test_list_policies(self, capsys):
        assert main(["list-policies"]) == 0
        out = capsys.readouterr().out
        assert "s3fifo" in out
        assert "lru" in out

    def test_list_policies_groups_fast_twins(self, capsys):
        assert main(["list-policies"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # A fast twin is indented directly under its reference policy,
        # not interleaved alphabetically at the top level.
        for ref in ("fifo", "lru", "sieve", "s3fifo"):
            twin = next(l for l in lines if l.lstrip().startswith(f"{ref}-fast"))
            assert twin.startswith("  ")
            assert "fast twin" in twin
            assert lines[lines.index(twin) - 1] == ref
        # Every registered policy still appears exactly once.
        from repro.cache.registry import policy_names

        printed = {line.split()[0] for line in lines}
        assert printed == set(policy_names(include_offline=True))

    def test_simulate_zipf(self, capsys):
        code = main(
            [
                "simulate",
                "--policy", "s3fifo",
                "--objects", "500",
                "--requests", "5000",
                "--cache-ratio", "0.1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "miss ratio" in out

    def test_simulate_dataset(self, capsys):
        code = main(
            [
                "simulate",
                "--policy", "lru",
                "--dataset", "msr",
                "--scale", "0.3",
            ]
        )
        assert code == 0
        assert "msr" in capsys.readouterr().out

    def test_experiment_fig01(self, capsys):
        assert main(["experiment", "fig01"]) == 0
        assert "Fig. 1" in capsys.readouterr().out

    def test_experiment_fig08(self, capsys):
        assert main(["experiment", "fig08"]) == 0
        assert "MQPS" in capsys.readouterr().out

    def test_analyze(self, capsys):
        code = main(["analyze", "--dataset", "twitter", "--scale", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ohw (full)" in out
        assert "zipf alpha" in out

    def test_compare(self, capsys):
        code = main(
            [
                "compare",
                "--policies", "s3fifo,lru,fifo",
                "--objects", "500",
                "--requests", "8000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1." in out and "s3fifo" in out

    def test_mrc_exact(self, capsys):
        code = main(
            [
                "mrc",
                "--policy", "lru",
                "--objects", "500",
                "--requests", "8000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "exact (Mattson)" in out

    def test_mrc_sampled(self, capsys):
        code = main(
            [
                "mrc",
                "--policy", "s3fifo",
                "--objects", "2000",
                "--requests", "20000",
                "--rate", "0.4",
                "--ensembles", "2",
            ]
        )
        assert code == 0
        assert "sampled" in capsys.readouterr().out

    def test_mrc_single_pass_s3fifo_sampled(self, capsys):
        """s3fifo below rate 1 runs the sampled one-pass curve: the
        header names the rate and ensembles, and the miss ratio falls
        from the smallest size to the largest."""
        code = main(
            [
                "mrc",
                "--policy", "s3fifo",
                "--objects", "2000",
                "--requests", "20000",
                "--rate", "0.4",
                "--ensembles", "2",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("method: sampled (rate=0.4, ensembles=2)")
        ratios = [float(line.split()[3]) for line in lines[1:]]
        assert len(ratios) == 6
        assert ratios[0] > ratios[-1]

    def test_mrc_single_pass_fifo(self, capsys):
        """FIFO defaults to the exact single-pass multi-size engine."""
        code = main(
            [
                "mrc",
                "--policy", "fifo",
                "--objects", "500",
                "--requests", "8000",
            ]
        )
        assert code == 0
        assert "single-pass (exact)" in capsys.readouterr().out

    def test_mrc_s3fifo_vector_engine(self, capsys):
        """s3fifo at the default rate prints the exact curve: one
        default-engine (vector) simulation per size, no sampling."""
        from repro.cache.registry import create_policy
        from repro.sim.simulator import simulate
        from repro.traces.compiled import compile_trace
        from repro.traces.synthetic import zipf_trace

        code = main(
            [
                "mrc",
                "--policy", "s3fifo",
                "--objects", "500",
                "--requests", "8000",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "per-size (exact)" in lines[0]
        trace = compile_trace(zipf_trace(500, 8000, alpha=1.0, seed=0))
        for line in lines[1:]:
            _, size, _, ratio = line.split()[:4]
            exact = simulate(create_policy("s3fifo", int(size)), trace)
            assert ratio == f"{exact.miss_ratio:.3f}", size

    @pytest.mark.parametrize(
        "policy, rate, label",
        [
            ("sfifo", "1.0", "single-pass (exact)"),
            ("sieve", "1.0", "per-size (exact)"),
            ("lru", "0.5", "sampled (rate=0.5, ensembles=3)"),
            ("fifo", "0.5", "sampled (rate=0.5, ensembles=3)"),
        ],
    )
    def test_mrc_method_follows_policy_and_rate(
        self, capsys, policy, rate, label
    ):
        code = main(
            [
                "mrc",
                "--policy", policy,
                "--rate", rate,
                "--objects", "300",
                "--requests", "3000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].endswith(f"method: {label}")
        assert len(out.splitlines()) == 7  # header + six sizes

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--rate", "0", "must be in (0, 1]"),
            ("--rate", "1.5", "must be in (0, 1]"),
            ("--rate", "-0.2", "must be in (0, 1]"),
            ("--ensembles", "0", "must be >= 1"),
        ],
    )
    def test_mrc_rejects_bad_arguments(self, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["mrc", "--objects", "100", "--requests", "500",
                  flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {message}" in err

    def test_simulate_engine_flag(self, capsys):
        """--engine is wired through simulate and echoed in the output;
        the result is engine-invariant."""
        ratios = {}
        for engine in ("auto", "scalar", "vector"):
            code = main(
                [
                    "simulate",
                    "--policy", "sieve",
                    "--objects", "500",
                    "--requests", "5000",
                    "--cache-ratio", "0.1",
                    "--engine", engine,
                ]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert f"engine:" in out
            ratios[engine] = next(
                l for l in out.splitlines() if "miss ratio" in l
            )
        assert len(set(ratios.values())) == 1

    def test_walkthrough_demo(self, capsys):
        assert main(["walkthrough"]) == 0
        out = capsys.readouterr().out
        assert "ghost" in out
        assert "hit" in out

    def test_walkthrough_custom_trace(self, capsys):
        code = main(["walkthrough", "--trace", "a,b,a", "--capacity", "4"])
        assert code == 0
        assert "a" in capsys.readouterr().out


class TestServiceCommands:
    def test_serve_reports_offline_parity(self, capsys):
        code = main(
            [
                "serve",
                "--objects", "500",
                "--requests", "5000",
                "--shards", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "live miss ratio" in out
        assert "offline miss" in out
        assert "imbalance" in out

    def test_serve_with_ttl(self, capsys):
        code = main(
            [
                "serve",
                "--objects", "300",
                "--requests", "3000",
                "--ttl", "0.001",
            ]
        )
        assert code == 0
        assert "expired" in capsys.readouterr().out

    def test_loadgen_writes_report(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_service.json"
        code = main(
            [
                "loadgen",
                "--objects", "300",
                "--requests", "2400",
                "--shards", "1,2",
                "--threads", "1,2",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ops/s" in out
        assert "calibrated" in out
        import json

        report = json.loads(out_path.read_text())
        assert report["schema"] == 4
        assert report["kind"] == "service-loadgen"
        assert len(report["scenarios"]) == 4
        assert all(row["backend"] == "thread" for row in report["scenarios"])
        assert all(row["transport"] == "inproc" for row in report["scenarios"])
        assert "calibration" in report

    def test_loadgen_rejects_bad_shards(self, capsys):
        assert main(["loadgen", "--shards", "one"]) == 2

    def test_loadgen_rejects_shm_without_mp(self, capsys):
        # shm is an mp-only transport; asking for it with the thread
        # backend alone must fail fast, not silently run inproc.
        assert main(["loadgen", "--transport", "shm"]) == 2
        assert main(["loadgen", "--transport", "sideways"]) == 2

    def test_serve_rejects_shm_without_mp(self, capsys):
        assert main(["serve", "--transport", "shm"]) == 2


class TestResilienceCommand:
    def test_resilience_demo(self, capsys):
        code = main(
            [
                "resilience",
                "--objects", "500",
                "--requests", "4000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "degraded requests" in out
        assert "warm-restart miss" in out
        assert "records salvaged" in out
        assert "sanitizer" in out

    def test_resilience_is_deterministic(self, capsys):
        args = ["resilience", "--objects", "300", "--requests", "3000"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestObservabilityCommands:
    def test_export_metrics_prometheus_to_stdout(self, capsys):
        code = main(
            [
                "export-metrics",
                "--objects", "300",
                "--requests", "3000",
                "--shards", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("# HELP ")
        assert out.endswith("\n")
        assert "repro_service_gets_total{" in out
        assert "repro_policy_small_used{" in out
        assert "repro_shard_imbalance " in out
        assert 'repro_service_op_latency_us_bucket{' in out

    def test_export_metrics_json_to_file(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "metrics.json"
        code = main(
            [
                "export-metrics",
                "--objects", "300",
                "--requests", "2000",
                "--format", "json",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        assert str(out_path) in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == 1
        assert doc["kind"] == "metrics-export"
        names = {m["name"] for m in doc["metrics"]}
        assert "repro_service_hits" in names
        assert "repro_policy_ghost_entries" in names

    def test_stats_alias(self, capsys):
        code = main(
            ["stats", "--objects", "200", "--requests", "1000"]
        )
        assert code == 0
        assert "# TYPE" in capsys.readouterr().out

    def test_export_metrics_ttl_on_removal_policy(self, capsys):
        code = main(
            [
                "export-metrics",
                "--objects", "200",
                "--requests", "1000",
                "--ttl", "60",
            ]
        )
        assert code == 0
        assert "repro_service_ttl_entries " in capsys.readouterr().out


class TestRemovalUnsupportedHandling:
    """TTL flags on a policy without remove() exit with one clean line."""

    @pytest.mark.parametrize("argv", [
        ["serve", "--objects", "100", "--requests", "200",
         "--policy", "sieve", "--ttl", "1"],
        ["loadgen", "--objects", "100", "--requests", "200",
         "--shards", "1", "--threads", "1",
         "--policy", "sieve", "--ttl", "1"],
        ["export-metrics", "--objects", "100", "--requests", "200",
         "--policy", "sieve", "--ttl", "1"],
    ])
    def test_exits_2_with_one_line_error(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: policy 'sieve'")
        assert err.count("\n") == 1  # one line, no traceback
        # The message tells the user which policies would work.
        assert "s3fifo" in err and "lru" in err


class TestServeWatch:
    def test_watch_rejects_nonpositive(self, capsys):
        code = main(
            ["serve", "--objects", "100", "--requests", "200",
             "--watch", "0"]
        )
        assert code == 2
        assert "--watch" in capsys.readouterr().err

    def test_watch_prints_snapshots(self, capsys):
        code = main(
            [
                "serve",
                "--objects", "2000",
                "--requests", "120000",
                "--watch", "0.05",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[watch +" in out
        assert "live miss ratio" in out
