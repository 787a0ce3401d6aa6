"""Consistency of the checked-in ``benchmarks/results/BENCH_*.json`` files.

A number in a BENCH file means something only together with the host
that produced it and the report layout it was written in.  Each file
must therefore carry one top-level ``env`` block, every section that
records its own ``env`` must have been measured on that same host, and
its ``schema`` must be the current ``SCHEMA_VERSION`` of the module
that writes it.
"""

import json
from pathlib import Path

import pytest

from repro.perf import bench
from repro.service import loadgen

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"

#: BENCH file name -> the schema version of the module that writes it.
WRITERS = {
    "BENCH_perf.json": bench.SCHEMA_VERSION,
    "BENCH_service.json": loadgen.SCHEMA_VERSION,
}

BENCH_FILES = sorted(RESULTS.glob("BENCH_*.json"))


def _nested_envs(node, path=""):
    """``(path, env)`` for every ``env`` block below the top level."""
    if isinstance(node, dict):
        for key, value in node.items():
            where = f"{path}/{key}"
            if key == "env" and path:
                yield where, value
            else:
                yield from _nested_envs(value, where)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _nested_envs(value, f"{path}[{i}]")


def test_bench_files_present():
    assert {p.name for p in BENCH_FILES} >= set(WRITERS)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
class TestBenchFile:
    def test_has_a_writer(self, path):
        assert path.name in WRITERS, (
            f"{path.name} has no known writer; add it to WRITERS"
        )

    def test_top_level_env(self, path):
        env = json.loads(path.read_text()).get("env")
        assert isinstance(env, dict) and env, f"{path.name} lacks an env block"
        assert env.get("cpu_count"), f"{path.name} env lacks cpu_count"

    def test_sections_share_the_top_level_env(self, path):
        report = json.loads(path.read_text())
        top = report.get("env")
        differ = [
            where for where, env in _nested_envs(report) if env != top
        ]
        assert not differ, (
            f"{path.name}: sections measured on another host than the "
            f"top-level env: {differ}"
        )

    def test_schema_is_current(self, path):
        report = json.loads(path.read_text())
        expected = WRITERS.get(path.name)
        assert report.get("schema") == expected, (
            f"{path.name} schema {report.get('schema')!r} != writer's "
            f"SCHEMA_VERSION {expected!r}; regenerate it"
        )
