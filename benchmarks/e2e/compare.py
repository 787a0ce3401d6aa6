#!/usr/bin/env python3
"""Compare two labelled sets of benchmark results, one row per metric x workload.

    python3 benchmarks/e2e/compare.py parent=a.jsonl change=b.jsonl,c.jsonl

A set is one or more files written by ``run.py --out`` (JSON lines) or a
bundle such as ``results/seed-baseline.json``.  Runs pair up in the order
they were recorded, per workload and trace mode, so record the two sides
alternating.  The verdict of each row follows the rule for claiming a
gain on a small, shared host:

* ``improved``: the change wins at least nine tenths of at least ten
  pairs (ties count for neither side), and the medians differ, in the
  better direction, by more than the first set's interquartile range;
* ``worse``: an end-to-end metric's median is worse than the first
  set's by more than the metric's bound in ``BENCHMARK.json``; a
  per-layer metric (no bound) loses nine tenths of the pairs by more
  than the first set's interquartile range;
* ``unresolved``: an end-to-end metric whose spread (interquartile
  range over median) on either side exceeds its bound, unless every run
  of the change beats every run of the first set;
* ``unchanged``: otherwise; ``too-few-pairs`` below ten pairs.

Exits 1 when any row is ``worse``.  ``--bundle OUT FILE...`` instead
writes the runs of the given files, with the environment block of the
first, into one bundle file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths: List[str]) -> List[dict]:
    """Run records from JSON-lines files and bundles, in file order."""
    records: List[dict] = []
    for path in paths:
        text = Path(path).read_text()
        try:
            whole = json.loads(text)
        except json.JSONDecodeError:
            whole = None
        if isinstance(whole, dict) and "runs" in whole:
            records.extend(whole["runs"])
        else:
            records.extend(json.loads(line) for line in text.splitlines()
                           if line.strip())
    return records


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def judge(base: List[float], change: List[float], higher: bool,
          bound: Optional[float]) -> str:
    pairs = list(zip(base, change))
    if len(pairs) < MIN_PAIRS:
        return "too-few-pairs"
    sign = 1 if higher else -1
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    losses = sum(sign * (c - b) < 0 for b, c in pairs)
    q1, median_base, q3 = quartiles(base)
    gain = sign * (statistics.median(change) - median_base)
    if wins >= WIN_SHARE * len(pairs) and gain > q3 - q1:
        return "improved"
    if bound is None:
        if losses >= WIN_SHARE * len(pairs) and -gain > q3 - q1:
            return "worse"
        return "unchanged"
    if -gain > bound * abs(median_base):
        return "worse"
    beats_all = min(sign * c for c in change) > max(sign * b for b in base)
    if max(spread(base), spread(change)) > bound and not beats_all:
        return "unresolved"
    return "unchanged"


def group(records: List[dict]) -> Dict[Tuple[str, int], List[dict]]:
    runs: Dict[Tuple[str, int], List[dict]] = defaultdict(list)
    for record in records:
        runs[(record["workload"], int(record["trace"]))].append(
            record["result"]["metrics"])
    return runs


def compare(spec: dict, labelled: List[Tuple[str, List[dict]]]) -> int:
    (base_label, base), (change_label, change) = labelled
    base_runs, change_runs = group(base), group(change)
    print(f"{'workload':14} {'metric':28} {base_label + ' median [IQR%]':>26} "
          f"{change_label + ' median [IQR%]':>26} {'delta':>8} "
          f"{'wins':>6}  verdict")
    worse = 0
    for key in sorted(set(base_runs) & set(change_runs)):
        workload, trace = key
        for metric in spec["per_layer" if trace else "end_to_end"]:
            name = metric["name"]
            b = [run[name]["value"] for run in base_runs[key]]
            c = [run[name]["value"] for run in change_runs[key]]
            higher = metric["better"] == "higher"
            verdict = judge(b, c, higher, metric.get("bound"))
            worse += verdict == "worse"
            mb, mc = statistics.median(b), statistics.median(c)
            delta = (mc - mb) / abs(mb) * 100 if mb else float("nan")
            sign = 1 if higher else -1
            wins = sum(sign * (y - x) > 0 for x, y in zip(b, c))
            print(f"{workload:14} {name:28} "
                  f"{mb:>17.6g} [{spread(b) * 100:5.1f}] "
                  f"{mc:>17.6g} [{spread(c) * 100:5.1f}] "
                  f"{delta:>+7.2f}% {wins:>2}/{min(len(b), len(c)):<3}  "
                  f"{verdict}")
    return 1 if worse else 0


def bundle(out: str, paths: List[str]) -> int:
    runs = load(paths)
    env = runs[0].get("env") if runs else None
    stripped = [{k: v for k, v in run.items() if k != "env"} for run in runs]
    Path(out).write_text(json.dumps({"env": env, "runs": stripped},
                                    indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sets", nargs="+",
                        help="two LABEL=FILE[,FILE...] sets, or the files "
                             "to bundle")
    parser.add_argument("--bundle", metavar="OUT",
                        help="write the given files' runs into one bundle")
    args = parser.parse_args(argv)
    if args.bundle:
        return bundle(args.bundle, args.sets)
    if len(args.sets) != 2 or any("=" not in s for s in args.sets):
        parser.error("give exactly two LABEL=FILE[,FILE...] sets")
    labelled = []
    for item in args.sets:
        label, _, files = item.partition("=")
        labelled.append((label, load(files.split(","))))
    return compare(json.loads(BENCHMARK.read_text()), labelled)


if __name__ == "__main__":
    sys.exit(main())
