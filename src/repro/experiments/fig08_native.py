"""Fig. 8, measured natively: throughput scaling with worker processes.

Where :mod:`repro.experiments.fig08_throughput` reproduces the paper's
scaling curves *analytically* (cost model, paper-derived profiles),
this experiment measures them on the machine it runs on, using the
process-per-shard backend (:class:`~repro.service.mp.MPCacheService`)
to escape the GIL the way the paper's C implementation escapes a
global lock.  Three configurations mirror the figure's story:

* ``s3fifo mp`` — S3-FIFO, one worker process per shard.
* ``lru mp`` — sharded LRU, one worker process per shard (the
  "optimized LRU" stand-in: per-shard locks, real parallelism).
* ``lru thread`` — a single global-lock LRU driven by N in-process
  threads (the "strict LRU cannot scale" baseline; under CPython this
  is doubly serial — one lock *and* one GIL).

Honesty note (same spirit as :mod:`repro.concurrency.calibrate`):
the scaling these curves can show is bounded by the CPUs actually
available — ``run()`` records :func:`usable_cpus` and the formatted
table prints it, because a 1-core container will honestly measure
*no* native speedup (pure IPC overhead), and that number is
meaningless without the core count next to it.  The batch sweep shows
the second lever: per-op IPC cost falling as ``get_many`` batches
amortize pipe round-trips.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import format_rows
from repro.service.loadgen import run_loadgen

DEFAULT_WORKERS = (1, 2, 4)
DEFAULT_BATCH = 64
DEFAULT_BATCH_SWEEP = (1, 16, 64, 256)

#: Shared workload shape (mirrors the loadgen defaults at reduced size
#: so the full experiment stays in CLI-interactive territory).
WORKLOAD = dict(
    num_objects=10_000,
    num_requests=50_000,
    alpha=1.0,
    cache_ratio=0.1,
    seed=42,
)


def usable_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _units_row(config: str, report: Dict[str, Any], unit: str,
               workers: Sequence[int], cpus: int) -> Dict[str, Any]:
    """MQPS per unit count (``n{units}``) plus the max-over-1-unit
    ``speedup``; ``unit`` is the scenario field that varies."""
    row: Dict[str, Any] = {"config": config, "cpus": cpus}
    for scenario in report["scenarios"]:
        row[f"n{scenario[unit]}"] = round(scenario["ops_per_sec"] / 1e6, 4)
    row["speedup"] = round(
        max(row[f"n{w}"] for w in workers) / row[f"n{workers[0]}"], 2
    )
    return row


def _measure(
    workers: Sequence[int],
    batch_size: int,
    **workload: Any,
) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """:func:`run`'s rows plus the s3fifo mp report behind the first."""
    workload = {**WORKLOAD, **workload}
    cpus = usable_cpus()
    rows: List[Dict[str, Any]] = []
    reports: Dict[str, Dict[str, Any]] = {}
    for policy in ("s3fifo", "lru"):
        reports[policy] = run_loadgen(
            shard_counts=tuple(workers),
            thread_counts=(1,),
            policy=policy,
            backend="mp",
            batch_size=batch_size,
            **workload,
        )
        rows.append(_units_row(f"{policy} mp b={batch_size}",
                               reports[policy], "shards", workers, cpus))
    baseline = run_loadgen(
        shard_counts=(1,),
        thread_counts=tuple(workers),
        policy="lru",
        **workload,
    )
    rows.append(_units_row("lru thread global-lock", baseline, "threads",
                           workers, cpus))
    return rows, reports["s3fifo"]


def run(
    workers: Sequence[int] = DEFAULT_WORKERS,
    batch_size: int = DEFAULT_BATCH,
    **workload: Any,
) -> List[Dict[str, Any]]:
    """One row per configuration with measured MQPS per unit count.

    The unit is worker processes for the mp rows and driver threads
    for the global-lock baseline row, so every column compares "N
    things trying to run concurrently".  Each row also carries the
    max-over-1-unit speedup and the machine's usable CPU count.
    """
    return _measure(workers, batch_size, **workload)[0]


def batch_sweep(
    batches: Sequence[int] = DEFAULT_BATCH_SWEEP,
    workers: int = DEFAULT_WORKERS[-1],
    policy: str = "s3fifo",
    **workload: Any,
) -> List[Dict[str, Any]]:
    """MQPS vs batch size at a fixed worker count (the IPC lever)."""
    workload = {**WORKLOAD, **workload}
    rows: List[Dict[str, Any]] = []
    for batch in batches:
        report = run_loadgen(
            shard_counts=(workers,),
            thread_counts=(1,),
            policy=policy,
            backend="mp",
            batch_size=batch,
            **workload,
        )
        scenario = report["scenarios"][0]
        rows.append({
            "batch": batch,
            "workers": workers,
            "mqps": round(scenario["ops_per_sec"] / 1e6, 4),
            "p99_us": scenario["latency_us"]["p99"],
        })
    return rows


def format_table(rows: Optional[List[Dict[str, Any]]] = None) -> str:
    if rows is None:
        rows = run()
    unit_cols = [key for key in rows[0] if key.startswith("n")]
    return format_rows(
        rows,
        columns=["config"] + unit_cols + ["speedup", "cpus"],
        title=(
            f"Fig. 8 (native) — measured MQPS vs workers/threads "
            f"on {rows[0]['cpus']} usable CPU(s)"
        ),
        float_fmt="{:.3f}",
    )


def format_batch_sweep(rows: Optional[List[Dict[str, Any]]] = None) -> str:
    if rows is None:
        rows = batch_sweep()
    return format_rows(
        rows,
        columns=["batch", "workers", "mqps", "p99_us"],
        title="Batch-size sweep — IPC amortization at fixed workers",
        float_fmt="{:.3f}",
    )


def full_report() -> str:
    """Everything the results file records: curves, sweep, calibration.

    The workers-axis calibration reuses the s3fifo mp sweep the curves
    already measured.
    """
    from repro.concurrency.calibrate import calibration_summary

    rows, s3fifo_report = _measure(DEFAULT_WORKERS, DEFAULT_BATCH)
    calibration = calibration_summary(s3fifo_report, axis="workers")
    lines = [
        format_table(rows),
        "",
        format_batch_sweep(),
        "",
        f"workers-axis calibration: parallel_fraction="
        f"{calibration['parallel_fraction']} "
        f"serial_fraction={calibration['serial_fraction']} "
        f"(workers={calibration['workers']}, "
        f"batch={calibration['batch_size']})",
        f"usable_cpus={usable_cpus()}  "
        "(curves cannot exceed the cores the host grants; on a 1-CPU "
        "host the mp backend measures pure IPC overhead, by design)",
    ]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Measured native throughput scaling (Fig. 8)."
    )
    parser.add_argument(
        "--out", help="also write the full report to this file"
    )
    cli_args = parser.parse_args()
    report_text = full_report()
    print(report_text, end="")
    if cli_args.out:
        with open(cli_args.out, "w") as fh:
            fh.write(report_text)
