"""Calibrate the analytic throughput model from measured load.

:mod:`repro.concurrency.costs` ships cost profiles transcribed from the
paper's C prototypes.  This module derives a profile from *this*
implementation instead, using a :mod:`repro.service.loadgen` report:
the measured mean hit/miss latencies give the total per-op cost, and
the scaling from one thread to N threads gives the parallel/critical
split via the Amdahl inversion

    speedup = 1 / ((1 - p) + p / n)   =>   p = (1 - 1/speedup) / (1 - 1/n)

where ``p`` is the parallel fraction of per-op work.  The resulting
:class:`~repro.concurrency.costs.CostProfile` plugs straight into
:func:`~repro.concurrency.model.analytic_throughput`.

Honesty note: under CPython's GIL the measured speedup of a pure
in-memory workload hovers near 1, so calibrated profiles report a
serial fraction close to 100% — the calibration faithfully measures
the runtime it runs on, which is exactly the point of having a
measured path next to the paper-derived one (see docs/PERFORMANCE.md).

Two scaling axes can feed the same inversion:

* ``axis="threads"`` — in-process rows; the GIL is part of what is
  measured (the paragraph above).
* ``axis="workers"`` — process-per-shard rows from the ``mp`` backend
  (:class:`~repro.service.mp.MPCacheService`), scaling worker
  *processes* at fixed driver threads and batch size.  Processes
  escape the GIL, so on a multicore host this axis is where the
  parallel fraction finally rises above the in-process ceiling; on a
  single-core host it honestly reports ~0 instead (IPC overhead, no
  parallel gain).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.concurrency.costs import CostProfile


def parallel_fraction(
    single_ops_per_sec: float,
    multi_ops_per_sec: float,
    threads: int,
) -> float:
    """Amdahl parallel fraction implied by a 1-thread vs N-thread pair.

    Clamped to [0, 1]: sub-linear-below-1 speedups (contention overhead
    exceeding any parallel gain) read as fully serial, super-linear
    ones as fully parallel.
    """
    if threads < 2:
        raise ValueError(f"threads must be >= 2 to infer scaling, got {threads}")
    if single_ops_per_sec <= 0 or multi_ops_per_sec <= 0:
        raise ValueError("throughputs must be positive")
    speedup = multi_ops_per_sec / single_ops_per_sec
    if speedup <= 1.0:
        return 0.0
    if speedup >= threads:
        return 1.0
    return (1.0 - 1.0 / speedup) / (1.0 - 1.0 / threads)


def calibrate_profile(
    name: str,
    hit_ns: float,
    miss_ns: float,
    single_ops_per_sec: float,
    multi_ops_per_sec: float,
    threads: int,
    handoff_ns: float = 0.0,
) -> CostProfile:
    """A :class:`CostProfile` from measured costs and measured scaling.

    The one parallel fraction observed for the whole workload is
    applied to both the hit and the miss path — the loadgen cannot
    separate their scaling, only their costs.
    """
    p = parallel_fraction(single_ops_per_sec, multi_ops_per_sec, threads)
    return CostProfile(
        name,
        hit_parallel=hit_ns * p,
        hit_critical=hit_ns * (1.0 - p),
        miss_parallel=miss_ns * p,
        miss_critical=miss_ns * (1.0 - p),
        handoff_ns=handoff_ns,
    )


def _scaling_rows(
    report: Dict[str, Any],
    shards: int,
    axis: str,
) -> tuple:
    """``(single, multi, n_units)`` rows for the requested scaling axis.

    ``axis="threads"`` pairs the 1-thread and highest-thread in-process
    rows at ``shards``; ``axis="workers"`` pairs the 1-worker and
    highest-worker ``mp``-backend rows at the *same* driver thread
    count and batch size (the one axis that must vary is the worker
    count).  Socket-frontend rows (schema 4) are
    excluded on both axes: their per-op cost includes protocol and
    socket time, which is not what the analytic model's in-process
    cost profile describes.
    """
    if axis == "threads":
        rows = [
            r for r in report["scenarios"]
            if r["shards"] == shards
            and r["backend"] == "thread"
            and r["frontend"] == "inproc"
        ]
        single = next((r for r in rows if r["threads"] == 1), None)
        multi = max(
            (r for r in rows if r["threads"] > 1),
            key=lambda r: r["threads"],
            default=None,
        )
        if single is None or multi is None:
            raise ValueError(
                f"report needs a 1-thread and a multi-thread scenario at "
                f"shards={shards} to calibrate axis='threads'"
            )
        return single, multi, multi["threads"]
    if axis == "workers":
        rows: List[Dict[str, Any]] = [
            r for r in report["scenarios"]
            if r["backend"] == "mp" and r["frontend"] == "inproc"
        ]
        single = next((r for r in rows if r["shards"] == 1), None)
        if single is not None:
            rows = [
                r for r in rows
                if r["threads"] == single["threads"]
                and r["batch_size"] == single["batch_size"]
                # Never pair a pipe row with a shm row: the transport
                # changes per-op cost, not parallelism.
                and r["transport"] == single["transport"]
            ]
        multi = max(
            (r for r in rows if r["shards"] > 1),
            key=lambda r: r["shards"],
            default=None,
        )
        if single is None or multi is None:
            raise ValueError(
                "report needs mp-backend rows at workers=1 and workers>1 "
                "(same driver threads and batch size) to calibrate "
                "axis='workers'"
            )
        return single, multi, multi["shards"]
    raise ValueError(f"axis must be 'threads' or 'workers', got {axis!r}")


def profile_from_loadgen(
    report: Dict[str, Any],
    shards: int = 1,
    name: Optional[str] = None,
    axis: str = "threads",
) -> CostProfile:
    """Calibrate from a ``run_loadgen`` report along one scaling axis.

    Uses the single-unit scenario for per-op costs and the highest
    unit count present for the scaling pair, where a *unit* is a
    thread (``axis="threads"``, at shard count ``shards``) or an mp
    worker process (``axis="workers"``; ``shards`` is ignored — the
    worker count IS the shard count).  Raises ``ValueError`` when the
    report lacks the needed rows.
    """
    single, multi, n = _scaling_rows(report, shards, axis)
    if name is None:
        suffix = "-measured-mp" if axis == "workers" else "-measured"
        name = f"{report['config']['policy']}{suffix}"
    return calibrate_profile(
        name,
        hit_ns=float(single["hit_ns_mean"]),
        miss_ns=float(single["miss_ns_mean"]),
        single_ops_per_sec=float(single["ops_per_sec"]),
        multi_ops_per_sec=float(multi["ops_per_sec"]),
        threads=n,
    )


def calibration_summary(
    report: Dict[str, Any],
    shards: int = 1,
    axis: str = "threads",
) -> Dict[str, Any]:
    """Measured-vs-model digest for the CLI and BENCH_service.json.

    The ``_1t`` / ``_nt`` key suffixes read "one unit" / "n units" of
    whichever ``axis`` was calibrated; workers-axis summaries add the
    ``workers`` and ``batch_size`` of the scaling pair.
    """
    from repro.concurrency.model import analytic_throughput

    profile = profile_from_loadgen(report, shards=shards, axis=axis)
    single, multi, n = _scaling_rows(report, shards, axis)
    miss_ratio = 1.0 - single["hit_ratio"]
    p = parallel_fraction(single["ops_per_sec"], multi["ops_per_sec"], n)
    summary = {
        "profile": profile.name,
        "axis": axis,
        "parallel_fraction": round(p, 4),
        "serial_fraction": round(1.0 - p, 4),
        "hit_ns": single["hit_ns_mean"],
        "miss_ns": single["miss_ns_mean"],
        "measured_mqps_1t": round(single["ops_per_sec"] / 1e6, 4),
        "measured_mqps_nt": round(multi["ops_per_sec"] / 1e6, 4),
        "threads": multi["threads"],
        "model_mqps_1t": round(
            analytic_throughput(profile, 1, miss_ratio), 4
        ),
        "model_mqps_nt": round(
            analytic_throughput(profile, n, miss_ratio), 4
        ),
    }
    if axis == "workers":
        summary["workers"] = n
        summary["batch_size"] = multi["batch_size"]
    return summary
