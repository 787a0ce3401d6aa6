#!/usr/bin/env python3
"""End-to-end benchmark of the simulator and the RESP service.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload sim-zipf-0.8 --seed 0 \\
        --seconds 25 --trace 0

Each run builds its workload's inputs from ``--seed``, sets the system up
at least five times (``setup_s`` is the median), runs one unit of work
to warm up, measures for ``--seconds`` seconds, checks the outputs, and prints
one ``workload metric value unit`` line per metric.  Every timing is
divided by the host's slowdown around its unit of work or set-up (see
:mod:`hostclock`).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the ``end_to_end``
metrics of ``BENCHMARK.json``; with ``--trace 1`` they are its
``per_layer`` metrics, from spans recorded around each call into a layer.

Exit codes: 0 when every check passed, 1 when an output was wrong (the
first mismatch goes to standard error), 2 when the program's sources are
missing.  ``--workload all`` runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from hostclock import HostClock
from tracing import NullTracer, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"


def measure(unit, seconds: float, tracer, traced: bool, clock: HostClock):
    """Call ``unit`` once to warm up, then until ``seconds`` have passed;
    return one ``(traced, work, seconds, samples)`` row per timed call.

    A traced run alternates untraced and traced calls, so that their
    rates give the cost of tracing.
    """
    untraced = NullTracer()
    unit(untraced, clock)
    rows = []
    start = time.perf_counter()
    while True:
        on = traced and len(rows) % 2 == 1
        rows.append((on, *unit(tracer if on else untraced, clock)))
        if time.perf_counter() - start >= seconds and (
                len(rows) >= 2 or not traced):
            return rows


def peak_rss_mib() -> float:
    """High-water RSS of this process and of every reaped child."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if sys.platform == "darwin":  # ru_maxrss is in bytes there
        kib /= 1024
    return kib / 1024


def run_one(args) -> int:
    from workloads import WORKLOADS, probe_layers

    spec = json.loads(BENCHMARK.read_text())
    traced = bool(args.trace)
    tracer = Tracer() if traced else NullTracer()
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    expected = (json.loads(Path(args.expected).read_text())
                if Path(args.expected).is_file() else {})
    try:
        clock = HostClock()
        workload.setup(tracer, clock)
        clock = workload.unit_clock(clock)
        rows = measure(workload.unit, args.seconds, tracer, traced, clock)
        workload.check()
        if args.update_expected:
            entry = workload.oracle_entry()
            if entry is not None and not workload.errors:
                expected[workload.oracle_key] = entry
                Path(args.expected).write_text(
                    json.dumps(expected, indent=1, sort_keys=True) + "\n")
        elif workload.oracle_key in expected:
            workload.check_oracle(expected[workload.oracle_key])
        layer = probe_layers(workload, tracer) if traced else {}
    finally:
        workload.close()

    if traced:
        def rate(kind: bool) -> float:
            return (sum(row[1] for row in rows if row[0] == kind)
                    / sum(row[2] for row in rows if row[0] == kind))
        layer["trace_overhead_pct"] = (rate(False) / rate(True) - 1) * 100
        metrics = layer
    else:
        samples = defaultdict(list)
        for _, _, _, unit_samples in rows:
            for name, values in unit_samples.items():
                samples[name].extend(values)
        metrics = workload.end_to_end(
            samples, [(work, spent) for _, work, spent, _ in rows])
        metrics["peak_rss_mib"] = peak_rss_mib()
    workload.extras["host.slowdown"] = (clock.median_slowdown(), "x")

    declared = spec["per_layer" if traced else "end_to_end"]
    result = {}
    for metric in declared:
        value = metrics[metric["name"]]
        result[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{args.workload} {metric['name']} {value} {metric['unit']}")
    for name, (value, unit) in sorted(workload.extras.items()):
        print(f"{args.workload} {name} {value} {unit}")
    if traced:
        for name, (seconds, count) in sorted(self_times(tracer.spans).items()):
            print(f"{args.workload} span.{name}.self_s {seconds} s "
                  f"({count} spans)")
        if args.spans:
            tracer.write(args.spans)
    if workload.errors:
        print(f"MISMATCH ({len(workload.errors)} in all): "
              f"{workload.errors[0]}", file=sys.stderr)
    outcome = {
        "correct": not workload.errors,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": result,
    }
    if args.out:
        from repro.perf.bench import env_block

        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "scale": args.scale, "result": outcome, "env": env_block()}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


def run_all(args, names) -> int:
    """Each workload in its own process, so that RSS starts fresh."""
    failed = False
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", str(args.scale), "--expected", args.expected]
        if args.out:
            cmd += ["--out", args.out]
        if args.spans:
            path = Path(args.spans)
            cmd += ["--spans", str(path.with_name(
                f"{path.stem}-{name}{path.suffix}"))]
        failed |= subprocess.run(cmd).returncode != 0
    return 1 if failed else 0


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing: no package at "
              f"{SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured time per run (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for smoke "
                             "tests")
    parser.add_argument("--spans", metavar="PATH",
                        help="write the recorded spans here (traced runs)")
    parser.add_argument("--out", metavar="PATH",
                        help="append the result to this JSON-lines file")
    parser.add_argument("--expected", default=str(EXPECTED),
                        help="the seed-0 oracle (default: expected.json)")
    parser.add_argument("--update-expected", action="store_true",
                        help="pin this run's outcomes in the oracle "
                             "instead of checking them")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
