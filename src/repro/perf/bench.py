"""Measure reference vs. fast vs. vector policy throughput.

One benchmark run builds a seeded Zipf trace, then times every
(reference, fast) policy pair on it:

* the **reference** policy streams the raw request list through
  :func:`repro.sim.simulator.simulate` — the cost every experiment in
  this repo paid before the fast path existed;
* the **fast** policy consumes the compiled trace
  (:func:`repro.traces.compiled.compile_trace`), which routes through
  the batched ``run_compiled`` loop;
* for FIFO-family pairs a third **vector** row runs the same compiled
  trace through the NumPy batch engine (:mod:`repro.sim.vector`).

Trace compilation is timed separately and reported once in the config
block: it is paid once per trace, not per policy/size combination, so
folding it into a single policy's wall time would misattribute it.
Compiled traces are cached on disk between runs
(:mod:`repro.traces.store`), so on warm runs ``compile_time_s``
reflects the ``.npz`` load rather than a full re-intern.

:func:`run_vector_bench` adds the vector-engine acceptance workload: a
high-skew Zipf trace whose hit ratio exceeds 0.9, where lazy promotion
lets the vector engine consume hit runs wholesale.  Both engines are
timed best-of-``repeats`` to damp scheduler noise on small machines.

:func:`run_auto_sweep` times ``engine="scalar"``, ``"vector"`` and
``"auto"`` across a Zipf skew sweep for the three FIFO-family twins,
so that the per-chunk routing of ``auto`` can be held to the better of
the two fixed engines at every hit ratio.

``peak_rss`` is the process high-water RSS (KiB, from ``getrusage``)
sampled after each measurement.  It is monotone over the process
lifetime — read later entries as "still fits in this much", not as
per-policy footprints.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: (reference, fast) registry-name pairs benchmarked by default.
DEFAULT_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("fifo", "fifo-fast"),
    ("lru", "lru-fast"),
    ("sieve", "sieve-fast"),
    ("s3fifo", "s3fifo-fast"),
)

#: Fast policies the vector-engine acceptance workload times, with the
#: minimum speedup the guard test enforces against each scalar twin.
VECTOR_BENCH_TARGETS: Tuple[Tuple[str, float], ...] = (
    ("fifo-fast", 2.5),
    ("s3fifo-fast", 2.0),
)

#: Zipf skews, twins and engines of :func:`run_auto_sweep`.
AUTO_SWEEP_ALPHAS: Tuple[float, ...] = (0.6, 0.8, 1.0, 1.2, 1.4)
AUTO_SWEEP_POLICIES: Tuple[str, ...] = (
    "fifo-fast", "sieve-fast", "s3fifo-fast",
)
SWEEP_ENGINES: Tuple[str, ...] = ("scalar", "vector", "auto")

#: ``engine="auto"`` must reach this share of the better of
#: ``"scalar"`` and ``"vector"`` at every point of the sweep.
AUTO_FLOOR = 0.95

#: Bumped when the report layout changes incompatibly.
#: v2: added ``env`` block, per-pair ``vector`` rows, and the
#: ``vector`` acceptance-workload section.
#: v3: added the ``auto_sweep`` section.
SCHEMA_VERSION = 3


def env_block() -> Dict:
    """Provenance for perf numbers: interpreter, numpy, host shape.

    Throughput figures are meaningless without knowing what produced
    them; this block is embedded in every benchmark report (and the
    loadgen reports) so archived JSON stays interpretable.
    """
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is a hard dep
        numpy_version = None
    else:
        numpy_version = numpy.__version__
    return {
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "python_build": " ".join(platform.python_build()),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def _peak_rss_kb() -> int:
    # ru_maxrss is KiB on Linux but bytes on macOS/BSD.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin" or sys.platform.startswith(
        ("freebsd", "netbsd", "openbsd")
    ):
        return rss // 1024
    return rss


def _measure(policy_name: str, impl: str, reference: str, trace,
             capacity: int, trace_label: str, seed: int,
             engine: str = "auto") -> Dict:
    from repro.cache.registry import create_policy
    from repro.sim.simulator import simulate

    policy = create_policy(policy_name, capacity=capacity)
    start = time.perf_counter()
    result = simulate(policy, trace, engine=engine)
    wall = time.perf_counter() - start
    return {
        "policy": policy_name,
        "impl": impl,
        "reference": reference,
        "trace": trace_label,
        "seed": seed,
        "requests": result.requests,
        "capacity": capacity,
        "wall_time_s": round(wall, 6),
        "requests_per_sec": round(result.requests / wall) if wall else 0,
        "peak_rss": _peak_rss_kb(),
        "miss_ratio": round(result.miss_ratio, 6),
    }


def _zipf_compiled(num_objects: int, num_requests: int, alpha: float,
                   seed: int, label: str):
    """Compiled Zipf trace via the content-addressed disk cache."""
    from repro.traces.store import cached_compile
    from repro.traces.synthetic import zipf_trace

    spec = (
        f"zipf-a{alpha:g}-o{num_objects}-n{num_requests}-s{seed}"
    )
    return cached_compile(
        spec,
        lambda: zipf_trace(
            num_objects=num_objects,
            num_requests=num_requests,
            alpha=alpha,
            seed=seed,
        ),
        name=label,
    )


def run_perf_bench(
    pairs: Sequence[Tuple[str, str]] = DEFAULT_PAIRS,
    num_objects: int = 100_000,
    num_requests: int = 1_000_000,
    alpha: float = 1.0,
    cache_ratio: float = 0.1,
    seed: int = 42,
) -> Dict:
    """Run the reference-vs-fast benchmark; returns the report dict.

    The default workload is the acceptance configuration: a 1M-request
    Zipf(1.0) trace over 100k objects at 10% cache size.  Every fast
    (and vector) measurement's miss count is asserted equal to its
    reference's — an engine that got fast by being wrong fails the
    benchmark.
    """
    from repro.sim.vector import VECTOR_POLICIES

    capacity = max(1, int(num_objects * cache_ratio))
    trace_label = f"zipf-{alpha:g}"
    start = time.perf_counter()
    compiled = _zipf_compiled(
        num_objects, num_requests, alpha, seed, trace_label
    )
    compiled.key_ids()
    compile_time = time.perf_counter() - start
    items = list(compiled)  # raw keys for the reference stream path

    results: List[Dict] = []
    speedups: Dict[str, float] = {}
    for ref_name, fast_name in pairs:
        ref_entry = _measure(
            ref_name, "reference", ref_name, items,
            capacity, trace_label, seed,
        )
        # Pin the scalar engine: with "auto", a vector-eligible policy
        # on a compiled trace would silently route to the vector
        # engine and this row would stop measuring run_compiled.
        fast_entry = _measure(
            fast_name, "fast", ref_name, compiled,
            capacity, trace_label, seed, engine="scalar",
        )
        if fast_entry["miss_ratio"] != ref_entry["miss_ratio"]:
            raise AssertionError(
                f"{fast_name} diverged from {ref_name}: miss ratio "
                f"{fast_entry['miss_ratio']} != {ref_entry['miss_ratio']}"
            )
        if fast_entry["wall_time_s"]:
            speedups[fast_name] = round(
                ref_entry["wall_time_s"] / fast_entry["wall_time_s"], 2
            )
        results.extend((ref_entry, fast_entry))
        if fast_name in VECTOR_POLICIES:
            vec_entry = _measure(
                fast_name, "vector", ref_name, compiled,
                capacity, trace_label, seed, engine="vector",
            )
            if vec_entry["miss_ratio"] != ref_entry["miss_ratio"]:
                raise AssertionError(
                    f"{fast_name} vector engine diverged from "
                    f"{ref_name}: miss ratio {vec_entry['miss_ratio']}"
                    f" != {ref_entry['miss_ratio']}"
                )
            if vec_entry["wall_time_s"]:
                speedups[f"{fast_name}-vector"] = round(
                    ref_entry["wall_time_s"] / vec_entry["wall_time_s"],
                    2,
                )
            results.append(vec_entry)
    return {
        "schema": SCHEMA_VERSION,
        "trace": trace_label,
        "seed": seed,
        "env": env_block(),
        "config": {
            "num_objects": num_objects,
            "num_requests": num_requests,
            "alpha": alpha,
            "cache_ratio": cache_ratio,
            "capacity": capacity,
            "compile_time_s": round(compile_time, 6),
        },
        "results": results,
        "speedups": speedups,
    }


def run_vector_bench(
    targets: Sequence[Tuple[str, float]] = VECTOR_BENCH_TARGETS,
    num_objects: int = 100_000,
    num_requests: int = 1_000_000,
    alpha: float = 1.4,
    cache_ratio: float = 0.1,
    seed: int = 42,
    repeats: int = 3,
) -> Dict:
    """Time the vector engine against the scalar fast twins.

    The acceptance workload is deliberately high-skew (Zipf 1.4): the
    resulting hit ratio above 0.9 is where lazy promotion pays — long
    hit runs collapse into single NumPy probes.  Each engine is timed
    ``repeats`` times and the *best* wall is kept: on small shared
    machines scheduler noise easily exceeds the margin the guard
    asserts, and min-of-N is the standard estimator for the
    noise-free cost.
    """
    capacity = max(1, int(num_objects * cache_ratio))
    trace_label = f"zipf-{alpha:g}"
    compiled = _zipf_compiled(
        num_objects, num_requests, alpha, seed, trace_label
    )
    compiled.key_ids()
    compiled.occurrence_index()

    rows: List[Dict] = []
    speedups: Dict[str, float] = {}
    hit_ratios: Dict[str, float] = {}
    for fast_name, target in targets:
        best: Dict[str, Optional[Dict]] = {"scalar": None, "vector": None}
        walls: Dict[str, List[float]] = {"scalar": [], "vector": []}
        for _ in range(max(1, repeats)):
            for engine in ("scalar", "vector"):
                entry = _measure(
                    fast_name, engine, fast_name, compiled,
                    capacity, trace_label, seed, engine=engine,
                )
                walls[engine].append(entry["wall_time_s"])
                prev = best[engine]
                if prev is None or entry["wall_time_s"] < prev["wall_time_s"]:
                    best[engine] = entry
        scalar, vector = best["scalar"], best["vector"]
        assert scalar is not None and vector is not None
        if vector["miss_ratio"] != scalar["miss_ratio"]:
            raise AssertionError(
                f"{fast_name} vector engine diverged from scalar: miss "
                f"ratio {vector['miss_ratio']} != {scalar['miss_ratio']}"
            )
        scalar["all_walls_s"] = walls["scalar"]
        vector["all_walls_s"] = walls["vector"]
        rows.extend((scalar, vector))
        hit_ratios[fast_name] = round(1.0 - scalar["miss_ratio"], 6)
        if vector["wall_time_s"]:
            speedups[fast_name] = round(
                scalar["wall_time_s"] / vector["wall_time_s"], 2
            )
    return {
        "trace": trace_label,
        "seed": seed,
        "config": {
            "num_objects": num_objects,
            "num_requests": num_requests,
            "alpha": alpha,
            "cache_ratio": cache_ratio,
            "capacity": capacity,
            "repeats": repeats,
        },
        "targets": {name: target for name, target in targets},
        "hit_ratios": hit_ratios,
        "results": rows,
        "speedups": speedups,
    }


def run_auto_sweep(
    alphas: Sequence[float] = AUTO_SWEEP_ALPHAS,
    policies: Sequence[str] = AUTO_SWEEP_POLICIES,
    num_objects: int = 100_000,
    num_requests: int = 500_000,
    cache_ratio: float = 0.1,
    seed: int = 42,
    repeats: int = 5,
    min_seconds: float = 3.0,
) -> Dict:
    """Time every engine on every (Zipf skew, twin) point.

    Engines run interleaved, in alternating order, for at least
    ``repeats`` rounds and ``min_seconds`` of CPU time per point, timed
    by ``time.process_time`` (on a shared host, time spent descheduled
    is not the engine's).  Each engine's throughput is its best round.
    ``auto_vs_best`` is the median over rounds of the better fixed
    engine's time over ``auto``'s in the same round: a host that speeds
    up or slows down for seconds at a time moves all three runs of a
    round together, while a ratio of best rounds can set two rounds
    from different phases against each other.  ``auto_vs_best_of_n``
    is that ratio of best rounds.  Every engine's ``(misses,
    evictions)`` must equal the scalar engine's.  Each row also carries
    how ``auto`` split the trace, which explains where it runs hit runs
    and where it runs the twin's batch loop.
    """
    from repro.cache.registry import create_policy
    from repro.sim.simulator import simulate
    from repro.sim.vector import CROSSOVER, HYSTERESIS

    capacity = max(1, int(num_objects * cache_ratio))
    rows: List[Dict] = []
    for alpha in alphas:
        compiled = _zipf_compiled(
            num_objects, num_requests, alpha, seed, f"zipf-{alpha:g}"
        )
        compiled.key_ids()
        compiled.occurrence_index()
        n = len(compiled)
        for name in policies:
            times: Dict[str, List[float]] = {e: [] for e in SWEEP_ENGINES}
            results = {}
            spent = 0.0
            rounds = 0
            while rounds < repeats or spent < min_seconds:
                # Alternate the order so no engine always runs first.
                order = SWEEP_ENGINES[::-1] if rounds % 2 else SWEEP_ENGINES
                for engine in order:
                    policy = create_policy(name, capacity=capacity)
                    gc.collect()
                    start = time.process_time()
                    results[engine] = simulate(policy, compiled, engine=engine)
                    took = time.process_time() - start
                    times[engine].append(took)
                    spent += took
                rounds += 1
            outcomes = {
                (r.misses, r.evictions) for r in results.values()
            }
            if len(outcomes) != 1:
                raise AssertionError(
                    f"{name} engines disagree at zipf {alpha:g}: {results}"
                )
            best = {e: min(t) for e, t in times.items()}
            auto = results["auto"]
            rows.append({
                "alpha": alpha,
                "policy": name,
                "hit_ratio": round(1.0 - auto.miss_ratio, 6),
                "rounds": rounds,
                "best_cpu_s": {e: round(t, 6) for e, t in best.items()},
                "requests_per_sec": {
                    e: round(n / t) if t else 0 for e, t in best.items()
                },
                "all_cpu_s": {
                    e: [round(x, 6) for x in t] for e, t in times.items()
                },
                "auto_vs_best": round(statistics.median(
                    min(s, v) / a for s, v, a in zip(
                        times["scalar"], times["vector"], times["auto"])
                ), 3),
                "auto_vs_best_of_n": round(
                    min(best["scalar"], best["vector"]) / best["auto"], 3
                ),
                "auto_engine": auto.engine,
                "hit_run_share": round(auto.hit_run_requests / n, 4),
                "event_share": round(auto.event_requests / n, 4),
                "scalar_share": round(auto.scalar_requests / n, 4),
                "forced_rechecks": auto.forced_rechecks,
                "handoffs": auto.handoffs,
            })
    return {
        "env": env_block(),
        "config": {
            "num_objects": num_objects,
            "num_requests": num_requests,
            "cache_ratio": cache_ratio,
            "capacity": capacity,
            "seed": seed,
            "repeats": repeats,
            "min_seconds": min_seconds,
            "timer": "process_time",
            "crossover": dict(CROSSOVER),
            "hysteresis": HYSTERESIS,
        },
        "floor": AUTO_FLOOR,
        "rows": rows,
    }


def merge_section(path, name: str, section: Dict) -> Dict:
    """Store ``section`` under ``name`` in the report at ``path``,
    keeping every other section; start a stub report when the file is
    missing or unreadable."""
    path = Path(path)
    report: Dict = {}
    if path.is_file():
        try:
            report = json.loads(path.read_text())
        except ValueError:
            report = {}
    if not isinstance(report, dict) or "results" not in report:
        report = {"env": env_block()}
    report["schema"] = SCHEMA_VERSION
    report[name] = section
    write_report(report, path)
    return report


def format_auto_sweep(section: Dict) -> str:
    """One line per sweep point: requests/s per engine and auto's split."""
    lines = [
        f"{'alpha':>5} {'policy':<12} {'hit':>6} "
        + " ".join(f"{e + ' req/s':>14}" for e in SWEEP_ENGINES)
        + f" {'auto/best':>9} {'ran':>6} {'runs':>5} {'events':>6}"
        f" {'scalar':>6} {'hand':>4}",
    ]
    for row in section["rows"]:
        lines.append(
            f"{row['alpha']:>5.1f} {row['policy']:<12} "
            f"{row['hit_ratio']:>6.3f} "
            + " ".join(
                f"{row['requests_per_sec'][e]:>14,}" for e in SWEEP_ENGINES
            )
            + f" {row['auto_vs_best']:>9.3f} {row['auto_engine']:>6}"
            f" {row['hit_run_share']:>5.2f} {row['event_share']:>6.2f}"
            f" {row['scalar_share']:>6.2f} {row['handoffs']:>4}"
        )
    return "\n".join(lines)


def write_report(report: Dict, out_path) -> Path:
    """Write a benchmark report as JSON, creating parent directories."""
    path = Path(out_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def format_report(report: Dict) -> str:
    """Human-readable table for the CLI."""
    lines = [
        f"trace {report['trace']} seed {report['seed']}: "
        f"{report['config']['num_requests']:,} requests, "
        f"{report['config']['num_objects']:,} objects, "
        f"capacity {report['config']['capacity']:,} "
        f"(compile {report['config']['compile_time_s']:.2f}s)",
        f"{'policy':<14} {'impl':<10} {'req/s':>12} "
        f"{'wall s':>8} {'miss':>7} {'rss MiB':>8}",
    ]
    for row in report["results"]:
        lines.append(
            f"{row['policy']:<14} {row['impl']:<10} "
            f"{row['requests_per_sec']:>12,} {row['wall_time_s']:>8.3f} "
            f"{row['miss_ratio']:>7.4f} {row['peak_rss'] / 1024:>8.0f}"
        )
    for name, ratio in report["speedups"].items():
        lines.append(f"speedup {name}: {ratio:.2f}x")
    vector = report.get("vector")
    if vector:
        cfg = vector["config"]
        lines.append(
            f"vector workload {vector['trace']}: "
            f"{cfg['num_requests']:,} requests, best of "
            f"{cfg['repeats']} repeats"
        )
        for row in vector["results"]:
            lines.append(
                f"{row['policy']:<14} {row['impl']:<10} "
                f"{row['requests_per_sec']:>12,} "
                f"{row['wall_time_s']:>8.3f} "
                f"{row['miss_ratio']:>7.4f} {row['peak_rss'] / 1024:>8.0f}"
            )
        for name, ratio in vector["speedups"].items():
            hit = vector["hit_ratios"].get(name, 0.0)
            lines.append(
                f"vector speedup {name}: {ratio:.2f}x "
                f"(hit ratio {hit:.4f}, target "
                f"{vector['targets'].get(name, 0):.1f}x)"
            )
    if report.get("auto_sweep"):
        lines.append("auto engine sweep (best-of-N CPU time):")
        lines.append(format_auto_sweep(report["auto_sweep"]))
    return "\n".join(lines)
