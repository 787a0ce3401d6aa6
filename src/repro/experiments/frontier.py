"""The throughput-vs-hit-ratio frontier harness, per backend and transport.

"Can Increasing the Hit Ratio Hurt Cache Throughput?" (Qiu, Yang,
Harchol-Balter; PAPERS.md) argues that quoting ops/sec at one cache
size — or hit ratio at one throughput — hides the trade-off that
matters: a bigger cache serves more hits but costs more per
operation, so the honest picture is the *frontier* traced by sweeping
cache size and plotting measured throughput against the hit ratio the
service actually achieved.

This module is the one frontier harness.  A series is ``(label,
marker, run_scenario kwargs)``: every series replays one seeded Zipf
trace through :func:`~repro.service.loadgen.run_scenario` at each
cache size, and the series differ only in *how requests reach the
cache*.  That cannot move a point's hit ratio (same trace, same
policy, same capacity — eviction decisions are identical), so its
entire effect shows as a vertical shift of the frontier.  Two series
sets ship: :data:`DEFAULT_SERIES` here (``experiment frontier``) and
the socket set in :mod:`repro.experiments.net_frontier`
(``experiment net-frontier``).

The in-process set makes "FIFO eviction is cheap enough that
transport dominates" measurable:

* ``thread inproc`` — single in-process service, the no-IPC ceiling.
* ``mp pipe``       — process-per-shard over duplex pipes.
* ``mp shm``        — the same workers over shared-memory rings
  (:mod:`repro.service.shm`).

Same honesty note as :mod:`repro.experiments.fig08_native`: rows
record :func:`~repro.experiments.fig08_native.usable_cpus`, because on
a 1-CPU host the mp series measure IPC overhead with no parallel
payback (the shm spin loops deliberately yield instead of spinning)
and a socket series' event loop shares its core with the client
threads.  ``make frontier`` writes ``benchmarks/results/frontier.txt``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import format_rows
from repro.experiments.fig08_native import usable_cpus
from repro.service.loadgen import run_scenario

#: ``(label, chart marker, run_scenario kwargs)``.
Series = Tuple[str, str, Dict[str, Any]]

DEFAULT_SERIES: Tuple[Series, ...] = (
    ("thread inproc", "T", {}),
    ("mp pipe", "P", {"backend": "mp", "num_shards": 2}),
    ("mp shm", "S", {"backend": "mp", "num_shards": 2, "transport": "shm"}),
)

#: Cache sizes as fractions of the object population; spans "mostly
#: missing" to "mostly hitting" so the frontier actually bends.
DEFAULT_RATIOS: Tuple[float, ...] = (0.02, 0.05, 0.1, 0.2, 0.4)

WORKLOAD = dict(
    num_objects=8_000,
    num_requests=40_000,
    alpha=1.0,
)


def run(
    cache_ratios: Sequence[float] = DEFAULT_RATIOS,
    scale: float = 1.0,
    seed: int = 42,
    series: Sequence[Series] = DEFAULT_SERIES,
    **workload: Any,
) -> List[Dict[str, Any]]:
    """One row per (series, cache size) on one shared trace.

    Every row replays the *identical* request sequence, so within a
    series the hit-ratio axis moves only with capacity, and at fixed
    capacity two series on the same sharding and one driver (``mp
    pipe``/``mp shm``) land on exactly the same hit ratio.  (A series
    with a different shard count may differ by a hair: sharding splits
    capacity.)  ``scale`` shrinks the request count (benchmark use).
    """
    from repro.traces.synthetic import zipf_trace

    workload = {**WORKLOAD, **workload}
    num_requests = max(2_000, int(workload["num_requests"] * scale))
    trace = zipf_trace(
        num_objects=workload["num_objects"],
        num_requests=num_requests,
        alpha=workload["alpha"],
        seed=seed,
    )
    cpus = usable_cpus()
    rows: List[Dict[str, Any]] = []
    for label, marker, kwargs in series:
        for ratio in cache_ratios:
            capacity = max(kwargs.get("num_shards", 1),
                           int(workload["num_objects"] * ratio))
            scenario = run_scenario(trace, capacity=capacity, **kwargs)
            rows.append({
                "series": label,
                "marker": marker,
                "backend": scenario["backend"],
                "transport": scenario["transport"],
                "frontend": scenario["frontend"],
                "pipeline_depth": scenario["pipeline_depth"],
                "cache_ratio": ratio,
                "capacity": capacity,
                "hit_ratio": scenario["hit_ratio"],
                "kops": round(scenario["ops_per_sec"] / 1e3, 1),
                "p99_us": scenario["latency_us"]["p99"],
                "cpus": cpus,
            })
    return rows


def format_table(rows: Optional[List[Dict[str, Any]]] = None) -> str:
    if rows is None:
        rows = run()
    return format_rows(
        rows,
        columns=["series", "cache_ratio", "capacity", "hit_ratio",
                 "kops", "p99_us"],
        title=(
            f"Throughput-vs-hit-ratio frontier (s3fifo, shared Zipf "
            f"trace) on {rows[0]['cpus']} usable CPU(s)"
        ),
        float_fmt="{:.3f}",
    )


def format_chart(
    rows: Optional[List[Dict[str, Any]]] = None,
    width: int = 64,
    height: int = 16,
) -> str:
    """ASCII frontier: x = achieved hit ratio, y = measured kops.

    One marker letter per series; ``*`` marks collisions.  Reading the
    chart: a cheaper path to the cache (transport, protocol,
    pipelining) lifts its series straight up relative to the others —
    at every hit ratio, because the x-positions are pinned by the
    shared trace; a bigger *cache* walks each series rightward along
    its own frontier.
    """
    if rows is None:
        rows = run()
    marks = {r["series"]: r["marker"] for r in rows}
    xs = [r["hit_ratio"] for r in rows]
    ys = [r["kops"] for r in rows]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys) * 1.05 or 1.0
    x_span = (x_hi - x_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for r in rows:
        x = int((r["hit_ratio"] - x_lo) / x_span * (width - 1))
        y = int((r["kops"] - y_lo) / (y_hi - y_lo) * (height - 1))
        row, col = height - 1 - y, x
        cell = grid[row][col]
        grid[row][col] = marks[r["series"]] if cell == " " else "*"
    lines = [f"kops vs hit ratio ({rows[0]['cpus']} usable CPU(s))"]
    for i, cells in enumerate(grid):
        y_val = y_hi - (y_hi - y_lo) * i / (height - 1)
        lines.append(f"{y_val:>8.0f} |{''.join(cells)}|")
    lines.append(" " * 9 + "+" + "-" * width + "+")
    lines.append(f"{'':9}{x_lo:<10.3f}{'hit ratio':^{width - 20}}"
                 f"{x_hi:>10.3f}")
    for label, mark in marks.items():
        lines.append(f"  {mark} = {label}")
    return "\n".join(lines)


def full_report(series: Sequence[Series] = DEFAULT_SERIES) -> str:
    rows = run(series=series)
    lines = [
        format_table(rows),
        "",
        format_chart(rows),
        "",
        "how requests reach the cache cannot move hit ratio (same "
        "trace, same eviction decisions); it only moves the throughput "
        "axis.",
        f"usable_cpus={usable_cpus()}  (on a 1-CPU host the mp series "
        "measure IPC overhead with no parallel payback, and the event "
        "loop shares one core with the client threads, by design)",
    ]
    return "\n".join(lines) + "\n"


def main(series: Sequence[Series] = DEFAULT_SERIES) -> None:
    """``python -m`` entry point: print the full report (``--out`` also
    writes it to a file)."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Throughput-vs-hit-ratio frontier: "
        + ", ".join(label for label, _, _ in series)
    )
    parser.add_argument(
        "--out", help="also write the full report to this file"
    )
    cli_args = parser.parse_args()
    report_text = full_report(series)
    print(report_text, end="")
    if cli_args.out:
        with open(cli_args.out, "w") as fh:
            fh.write(report_text)


if __name__ == "__main__":
    main()
