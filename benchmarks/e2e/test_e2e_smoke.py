"""Smoke tests of the end-to-end benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hostclock import REFERENCE_S, HostClock
from respwire import ErrorReply, decode_reply
from tracing import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--seconds", "0.3", "--scale", "0.02"]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_declared_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--trace", trace, *TINY)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert (f"{workload} {metric['name']} {reported['value']} "
                f"{metric['unit']}") in lines


def test_corrupted_oracle_fails_the_run(tmp_path):
    oracle = tmp_path / "expected.json"
    args = ["--workload", "sim-zipf-1.4", "--seed", "0", *TINY,
            "--expected", str(oracle)]
    assert run(*args, "--update-expected").returncode == 0
    pinned = json.loads(oracle.read_text())
    (entry,) = pinned.values()
    assert run(*args).returncode == 0
    entry["s3fifo"]["misses"] += 1
    oracle.write_text(json.dumps(pinned))
    proc = run(*args)
    assert proc.returncode == 1
    assert "MISMATCH" in proc.stderr and "s3fifo" in proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "sim-zipf-0.8", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_self_time_subtracts_the_union_of_children():
    # root [0, 100] has children [10, 40] and [30, 60] (overlapping:
    # union 50) and [90, 120] (clipped to 10); the first child has a
    # grandchild [15, 25].
    spans = [
        ("root", 0, 100, 1, 0, 1),
        ("child", 10, 40, 2, 1, 1),
        ("child", 30, 60, 3, 1, 1),
        ("late", 90, 120, 4, 1, 1),
        ("leaf", 15, 25, 5, 2, 1),
    ]
    table = self_times(spans)
    assert table["root"] == pytest.approx((40e-9, 1))
    assert table["child"] == pytest.approx(((30 - 10 + 30) * 1e-9, 2))
    assert table["late"] == pytest.approx((30e-9, 1))
    assert table["leaf"] == pytest.approx((10e-9, 1))


def test_slowdown_is_the_mean_of_the_bracketing_reference_times():
    times = iter([REFERENCE_S, 3 * REFERENCE_S, 2 * REFERENCE_S])
    clock = HostClock(lambda: next(times))
    assert clock.slowdown() == pytest.approx(2.0)
    assert clock.slowdown() == pytest.approx(2.5)
    assert clock.median_slowdown() == pytest.approx(2.25)


def test_reply_decoder_reads_the_servers_encoders():
    from repro.netsrv.resp import (NIL, encode_bulk, encode_error,
                                   encode_integer, encode_simple)

    frames = [
        (NIL, None),
        (encode_bulk(b"a\r\nb"), b"a\r\nb"),
        (encode_bulk(b""), b""),
        (encode_error("ERR wrong"), ErrorReply("ERR wrong")),
        (encode_integer(-7), -7),
        (encode_simple("OK"), "OK"),
    ]
    stream = b"".join(frame for frame, _ in frames)
    pos = 0
    for frame, value in frames:
        for cut in range(1, len(frame)):
            assert decode_reply(stream[:pos + cut], pos) is None
        decoded, pos = decode_reply(stream, pos)
        assert decoded == value and type(decoded) is type(value)
    assert pos == len(stream)
