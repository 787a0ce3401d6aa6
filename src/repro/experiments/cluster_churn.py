"""Cluster churn: hit ratio and tail latency through node failure.

Extends the sharding story (:mod:`repro.experiments.sec7_sharding`,
:mod:`repro.experiments.fig08_native`) to the cluster tier: a
read-through Zipf replay against a
:class:`~repro.cluster.service.ClusterCacheService` is cut into equal
windows, and one node is killed mid-run by a deterministic
:data:`~repro.resilience.faults.WORKER_CRASH` fault plan, then
restarted and rebalanced a few windows later.  Each window reports the
hit ratio and p99 latency the *client* saw plus the cluster's failover
and read-repair activity — the degraded-mode frontier ("Can Increasing
the Hit Ratio Hurt Cache Throughput?", PAPERS.md) measured instead of
assumed.

The second table isolates the rebalance-cost lever: the fraction of
keys whose replica set gains a node when the ring grows N -> N+1, as a
function of ``vnodes``.  Consistent hashing promises ~1/(N+1); more
vnodes buy a tighter bound (and better balance) at ring-memory cost.

Determinism: the trace, the ring, and the fault plan are all seeded,
and the crash fires on the victim node's logical message clock — the
same seed and scale always produce the same hits, misses, failovers,
and moved-key counts (latencies are of course machine-dependent).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from repro.cluster.ring import HashRing, key_movement
from repro.experiments.common import format_rows

NUM_NODES = 3
REPLICATION = 2
NUM_WINDOWS = 6
#: The window before which the dead node is restarted and the ring
#: rebalanced (0-based).  Windows: healthy -> crash lands -> degraded
#: -> degraded -> recovered -> recovered.
RESTART_BEFORE_WINDOW = 4

WORKLOAD = dict(
    num_objects=2_000,
    num_requests=12_000,
    alpha=1.0,
    cache_ratio=0.1,
)

VNODE_SWEEP = (8, 32, 128)


def run(scale: float = 1.0, seed: int = 0) -> List[Dict[str, Any]]:
    """One row per churn window; deterministic per (scale, seed).

    The victim node's fault plan kills it after a fixed number of
    messages (about a third of the run), so the crash lands mid-run
    without any wall-clock dependence.  Before window
    ``RESTART_BEFORE_WINDOW`` the node is restarted (empty) and
    :meth:`~repro.cluster.service.ClusterCacheService.rebalance`
    refills it; the window rows show the repair traffic that follows.
    """
    from repro.cluster.service import ClusterCacheService
    from repro.resilience.faults import WORKER_CRASH, FaultPlan
    from repro.service.loadgen import latency_summary_us
    from repro.traces.synthetic import zipf_trace

    num_objects = max(100, int(WORKLOAD["num_objects"] * scale))
    num_requests = max(NUM_WINDOWS, int(WORKLOAD["num_requests"] * scale))
    trace = zipf_trace(
        num_objects=num_objects,
        num_requests=num_requests,
        alpha=WORKLOAD["alpha"],
        seed=seed,
    )
    capacity = max(NUM_NODES, int(num_objects * WORKLOAD["cache_ratio"]))
    # The victim sees roughly one message per driven op (it owns a
    # replica of ~2/3 of keys at R=2/N=3), so a third of the request
    # count lands the crash near the end of window 2 of 6.
    crash_at = max(2, num_requests // 3)
    victim = 1
    plan = {victim: FaultPlan().add(WORKER_CRASH, crash_at, crash_at + 1)}
    service = ClusterCacheService(
        capacity, "s3fifo", num_nodes=NUM_NODES,
        replication=REPLICATION, fault_plans=plan,
    )
    rows: List[Dict[str, Any]] = []
    try:
        window_len = len(trace) // NUM_WINDOWS
        clock = time.perf_counter_ns
        crashed_seen = False
        moved = 0
        for w in range(NUM_WINDOWS):
            if (w == RESTART_BEFORE_WINDOW
                    and not service.node_health()[victim]):
                service.restart_node(victim)
                moved = service.rebalance()
            before = service.stats()
            window = trace[w * window_len:(w + 1) * window_len]
            latencies = []
            hits = 0
            for key in window:
                t0 = clock()
                if service.get(key) is None:
                    service.set(key, key)
                else:
                    hits += 1
                latencies.append(clock() - t0)
            after = service.stats()
            if after["nodes_up"] < NUM_NODES:
                crashed_seen = True
                phase = "degraded"
            elif crashed_seen:
                phase = "recovered"
            else:
                phase = "healthy"
            rows.append({
                "window": w,
                "phase": phase,
                "ops": len(window),
                "hit_ratio": round(hits / len(window), 4),
                "p99_us": latency_summary_us(latencies)["p99"],
                "nodes_up": after["nodes_up"],
                "failovers": after["failovers"] - before["failovers"],
                "read_repairs": (
                    after["read_repairs"] - before["read_repairs"]
                ),
                "rebalanced": moved if w == RESTART_BEFORE_WINDOW else 0,
            })
    finally:
        service.close()
    return rows


def vnode_sweep(
    vnodes_list: Sequence[int] = VNODE_SWEEP,
    num_nodes: int = NUM_NODES,
    num_keys: int = 3_000,
    replication: int = REPLICATION,
) -> List[Dict[str, Any]]:
    """Rebalance cost (owner-set movement on join) vs vnode count.

    Pure ring analysis — no processes.  ``moved`` is the fraction of
    keys whose replica set gains a node when node N joins an N-node
    ring (the copy cost a rebalance would pay); ``ideal`` is the
    consistent-hashing target ``1/(N+1)`` scaled by the replica count
    (each of R owner slots independently has ~1/(N+1) chance to gain
    the joiner).  ``balance`` is the primary-owner max/mean spread
    before the join — the other thing vnodes buy.
    """
    keys = [f"key-{i}" for i in range(num_keys)]
    ideal = replication / (num_nodes + 1)
    rows: List[Dict[str, Any]] = []
    for vnodes in vnodes_list:
        before = HashRing(range(num_nodes), vnodes=vnodes)
        spread = before.spread(keys)
        mean = num_keys / num_nodes
        balance = max(spread.values()) / mean
        after = HashRing(range(num_nodes + 1), vnodes=vnodes)
        moved = key_movement(before, after, keys, replication=replication)
        rows.append({
            "vnodes": vnodes,
            "nodes": f"{num_nodes}->{num_nodes + 1}",
            "moved": round(moved, 4),
            "ideal": round(ideal, 4),
            "balance": round(balance, 3),
        })
    return rows


def format_table(rows: Optional[List[Dict[str, Any]]] = None) -> str:
    if rows is None:
        rows = run()
    return format_rows(
        rows,
        columns=["window", "phase", "ops", "hit_ratio", "p99_us",
                 "nodes_up", "failovers", "read_repairs", "rebalanced"],
        title=(
            f"Cluster churn — {NUM_NODES} nodes, R={REPLICATION}, "
            f"one WORKER_CRASH mid-run, restart+rebalance before "
            f"window {RESTART_BEFORE_WINDOW}"
        ),
        float_fmt="{:.4f}",
    )


def format_vnode_sweep(rows: Optional[List[Dict[str, Any]]] = None) -> str:
    if rows is None:
        rows = vnode_sweep()
    return format_rows(
        rows,
        columns=["vnodes", "nodes", "moved", "ideal", "balance"],
        title=(
            f"Rebalance cost vs vnodes — owner-set movement on join, "
            f"R={REPLICATION} (ideal = R/(N+1))"
        ),
        float_fmt="{:.4f}",
    )


def full_report(scale: float = 1.0, seed: int = 0) -> str:
    """Both tables, stamped with the seed and config that produced them."""
    lines = [
        format_table(run(scale=scale, seed=seed)),
        "",
        format_vnode_sweep(),
        "",
        f"seed={seed} scale={scale:g} nodes={NUM_NODES} "
        f"replication={REPLICATION} windows={NUM_WINDOWS} "
        f"objects={max(100, int(WORKLOAD['num_objects'] * scale))} "
        f"requests={max(NUM_WINDOWS, int(WORKLOAD['num_requests'] * scale))} "
        f"cache_ratio={WORKLOAD['cache_ratio']:g} "
        f"alpha={WORKLOAD['alpha']:g}",
        "hits/misses/failovers are seed-deterministic; latencies are "
        "machine-dependent",
    ]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Cluster churn: availability and rebalance cost."
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", help="also write the full report to this file"
    )
    cli_args = parser.parse_args()
    report_text = full_report(scale=cli_args.scale, seed=cli_args.seed)
    print(report_text, end="")
    if cli_args.out:
        with open(cli_args.out, "w") as fh:
            fh.write(report_text)
