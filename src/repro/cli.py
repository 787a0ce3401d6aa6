"""Command-line interface.

Examples::

    s3fifo-repro list-policies
    s3fifo-repro simulate --policy s3fifo --dataset twitter --cache-ratio 0.1
    s3fifo-repro experiment fig06 --scale 0.5
    s3fifo-repro analyze --dataset msr
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from typing import List, Optional

EXPERIMENTS = {
    "fig01": "repro.experiments.fig01_toy",
    "fig02": "repro.experiments.fig02_onehit_curves",
    "fig03": "repro.experiments.fig03_onehit_distribution",
    "fig04": "repro.experiments.fig04_eviction_frequency",
    "table1": "repro.experiments.table1_datasets",
    "fig06": "repro.experiments.fig06_missratio_percentiles",
    "fig07": "repro.experiments.fig07_missratio_by_dataset",
    "fig08": "repro.experiments.fig08_throughput",
    "fig08-native": "repro.experiments.fig08_native",
    "fig09": "repro.experiments.fig09_flash_admission",
    "fig10": "repro.experiments.fig10_demotion",
    "fig11": "repro.experiments.fig11_s_size_sweep",
    "sec52": "repro.experiments.sec52_adversarial",
    "sec523": "repro.experiments.sec523_byte_missratio",
    "sec62": "repro.experiments.sec62_adaptive",
    "sec63": "repro.experiments.sec63_queue_type",
    "ablations": "repro.experiments.ablations",
    "cluster-churn": "repro.experiments.cluster_churn",
    "frontier": "repro.experiments.frontier",
    "net-frontier": "repro.experiments.net_frontier",
    "mrc-fast": "repro.experiments.mrc_fast",
}


def _cmd_list_policies(_args: argparse.Namespace) -> int:
    from repro.cache.registry import policy_names

    names = policy_names(include_offline=True)
    # Group each array-backed twin under its reference policy instead of
    # interleaving alphabetically ("fifo-fast" belongs next to "fifo").
    twins = {name: f"{name}-fast" for name in names if f"{name}-fast" in names}
    grouped_fast = set(twins.values())
    for name in names:
        if name in grouped_fast:
            continue
        print(name)
        if name in twins:
            print(f"  {twins[name]}  (fast twin, bit-identical)")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.cache.registry import create_policy
    from repro.sim.simulator import simulate
    from repro.traces.compiled import compile_trace
    from repro.traces.datasets import generate_dataset_trace
    from repro.traces.synthetic import zipf_trace

    if args.dataset:
        trace = generate_dataset_trace(
            args.dataset, args.trace_index, scale=args.scale, seed=args.seed
        )
    else:
        trace = zipf_trace(
            num_objects=args.objects,
            num_requests=args.requests,
            alpha=args.alpha,
            seed=args.seed,
        )
    # Compile so --engine applies (engines only run on compiled traces).
    compiled = compile_trace(trace)
    footprint = compiled.num_objects
    capacity = args.cache_size or max(10, int(footprint * args.cache_ratio))
    policy = create_policy(args.policy, capacity=capacity)
    result = simulate(policy, compiled, engine=args.engine)
    print(f"trace:          {args.dataset or f'zipf-{args.alpha}'}")
    print(f"requests:       {result.requests}")
    print(f"footprint:      {footprint} objects")
    print(f"cache size:     {capacity}")
    print(f"policy:         {args.policy}")
    print(f"engine:         {result.engine} (requested {args.engine})")
    total = result.requests + result.warmup_requests
    if total:
        print(
            f"engine split:   {result.hit_run_requests / total:.1%} hit runs, "
            f"{result.event_requests / total:.1%} events "
            f"({result.forced_rechecks} forced), "
            f"{result.scalar_requests / total:.1%} scalar, "
            f"{result.handoffs} handoffs"
        )
    print(f"miss ratio:     {result.miss_ratio:.4f}")
    print(f"evictions:      {result.evictions}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    module_name = EXPERIMENTS.get(args.name)
    if module_name is None:
        print(
            f"unknown experiment {args.name!r}; known: "
            f"{', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    module = importlib.import_module(module_name)
    # signature(), not run.__code__: a run may be a functools.partial
    # binding a shared harness to one configuration.
    run_params = inspect.signature(module.run).parameters
    kwargs = {
        name: getattr(args, name)
        for name in ("scale", "seed", "processes") if name in run_params
    }
    rows = module.run(**kwargs)
    print(module.format_table(rows))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.traces.analysis import (
        one_hit_wonder_curve,
        one_hit_wonder_ratio,
        unique_objects,
    )
    from repro.traces.datasets import generate_dataset_trace
    from repro.traces.stats import summarize

    trace = generate_dataset_trace(
        args.dataset, args.trace_index, scale=args.scale, seed=args.seed
    )
    print(f"dataset:     {args.dataset} (trace {args.trace_index})")
    print(f"requests:    {len(trace)}")
    print(f"objects:     {unique_objects(trace)}")
    print(f"ohw (full):  {one_hit_wonder_ratio(trace):.3f}")
    for frac, ratio in one_hit_wonder_curve(trace, (0.01, 0.1, 0.5)):
        print(f"ohw ({frac:>4.0%} of objects): {ratio:.3f}")
    summary = summarize(trace)
    print(f"zipf alpha:  {summary['zipf_alpha']:.2f}")
    print(f"req/object:  {summary['requests_per_object']:.1f}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """Simulate several policies on one trace and rank them."""
    from repro.cache.registry import create_policy, policy_names
    from repro.sim.simulator import simulate
    from repro.traces.datasets import generate_dataset_trace
    from repro.traces.synthetic import zipf_trace

    if args.dataset:
        trace = generate_dataset_trace(
            args.dataset, args.trace_index, scale=args.scale, seed=args.seed
        )
    else:
        trace = zipf_trace(
            args.objects, args.requests, alpha=args.alpha, seed=args.seed
        )
    capacity = args.cache_size or max(10, int(len(set(trace)) * args.cache_ratio))
    policies = args.policies.split(",") if args.policies else policy_names()
    results = []
    for name in policies:
        policy = create_policy(name.strip(), capacity=capacity)
        results.append((simulate(policy, list(trace)).miss_ratio, name.strip()))
    results.sort()
    print(f"cache = {capacity} objects, {len(trace)} requests")
    for rank, (mr, name) in enumerate(results, start=1):
        print(f"{rank:3d}. {name:14s} miss ratio = {mr:.4f}")
    return 0


def _cmd_mrc(args: argparse.Namespace) -> int:
    """Miss-ratio curve: SHARDS-sampled when --rate < 1, otherwise
    exact — Mattson for lru, one single pass for the FIFO family, one
    simulation per size for everything else."""
    from repro.sim.mrc import fifo_mrc, lru_mrc, sampled_mrc
    from repro.sim.multisim import MULTISIM_POLICIES
    from repro.traces.datasets import generate_dataset_trace
    from repro.traces.synthetic import zipf_trace

    if args.dataset:
        trace = generate_dataset_trace(
            args.dataset, args.trace_index, scale=args.scale, seed=args.seed
        )
    else:
        trace = zipf_trace(
            args.objects, args.requests, alpha=args.alpha, seed=args.seed
        )
    footprint = len(set(trace))
    sizes = [
        max(1, int(footprint * frac))
        for frac in (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)
    ]
    if args.rate < 1.0:
        curve = sampled_mrc(
            args.policy,
            trace,
            sizes=sizes,
            rate=args.rate,
            seed=args.seed,
            ensembles=args.ensembles,
        )
        method = f"sampled (rate={args.rate}, ensembles={args.ensembles})"
    elif args.policy == "lru":
        curve = lru_mrc(trace, sizes=sizes)
        method = "exact (Mattson)"
    elif args.policy in MULTISIM_POLICIES:
        curve = fifo_mrc(trace, sizes=sizes, policy=args.policy)
        method = "single-pass (exact)"
    else:
        curve = sampled_mrc(args.policy, trace, sizes=sizes, rate=1.0)
        method = "per-size (exact)"
    print(f"policy: {args.policy}   method: {method}")
    for size, mr in zip(curve.sizes, curve.miss_ratios):
        bar = "#" * int(mr * 50)
        print(f"  size {size:>8d}  miss {mr:.3f}  {bar}")
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    """Fault-injection demo: outage degradation, crash recovery,
    trace corruption, and the policy sanitizer — all seed-deterministic."""
    import tempfile
    from pathlib import Path

    from repro.flash.admission import S3FifoAdmission
    from repro.flash.flashcache import HybridFlashCache
    from repro.resilience import (
        CRASH,
        FLASH_WRITE,
        TRACE_CORRUPTION,
        FaultPlan,
        RetryPolicy,
        corrupt_binary_trace,
        crash_recovery_experiment,
        run_checked,
    )
    from repro.traces.readers import (
        SkippedRecords,
        read_binary_trace,
        write_binary_trace,
    )
    from repro.traces.synthetic import zipf_trace

    trace = zipf_trace(
        num_objects=args.objects,
        num_requests=args.requests,
        alpha=args.alpha,
        seed=args.seed,
    )
    n = len(trace)

    print("== flash outage: degradation and recovery ==")
    outage = FaultPlan().add(FLASH_WRITE, n // 4, n // 2)
    hybrid = HybridFlashCache(
        dram_capacity=max(10, args.objects // 100),
        flash_capacity=max(100, args.objects // 10),
        admission=S3FifoAdmission(ghost_entries=args.objects // 10),
        faults=outage,
        retry=RetryPolicy(max_attempts=3, base_delay=2.0, seed=args.seed),
    )
    result = hybrid.run(trace)
    print(f"requests:           {result.requests}")
    print(f"miss ratio:         {result.miss_ratio:.4f}")
    print(f"degraded requests:  {result.degraded_requests}")
    print(f"dropped writes:     {result.dropped_writes}")
    print(f"write retries:      {result.flash_write_retries}")
    print(f"bypass entries:     {result.bypass_entries}")
    print(f"recovered:          {not hybrid.bypassed}")

    print("\n== crash recovery: cold vs. warm restart ==")
    crash_plan = FaultPlan().add(CRASH, n // 2, n // 2 + 1)
    recovery = crash_recovery_experiment(
        trace,
        capacity=max(10, args.objects // 10),
        policy="s3fifo",
        plan=crash_plan,
    )
    print(f"crash at request:   {recovery.crash_at}")
    print(f"cold-restart miss:  {recovery.cold_miss_ratio:.4f}")
    print(f"warm-restart miss:  {recovery.warm_miss_ratio:.4f}")
    print(f"recovery benefit:   {recovery.recovery_benefit:+.4f}")

    print("\n== trace corruption: strict=False salvage ==")
    corruption = FaultPlan().add(TRACE_CORRUPTION, 1, max(2, n // 20))
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean.bin"
        dirty = Path(tmp) / "dirty.bin"
        write_binary_trace(clean, trace)
        corrupted = corrupt_binary_trace(clean, dirty, corruption)
        skipped = SkippedRecords()
        salvaged = sum(
            1 for _ in read_binary_trace(dirty, strict=False, skipped=skipped)
        )
    print(f"records corrupted:  {corrupted}")
    print(f"records skipped:    {skipped.count}")
    print(f"records salvaged:   {salvaged}")

    print("\n== policy sanitizer ==")
    from repro.cache.registry import create_policy

    policy = create_policy("s3fifo", capacity=max(10, args.objects // 10))
    checked, _hits = run_checked(policy, trace)
    print(f"invariant checks:   {checked.checks_run} (all clean)")
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    """Reference-vs-fast throughput benchmark; writes BENCH_perf.json."""
    from repro.perf.bench import (
        DEFAULT_PAIRS,
        format_report,
        run_perf_bench,
        write_report,
    )

    if args.pairs:
        pairs = []
        for spec in args.pairs.split(","):
            ref_name, _, fast_name = spec.partition(":")
            if not ref_name or not fast_name:
                print(
                    f"bad pair {spec!r}; expected reference:fast",
                    file=sys.stderr,
                )
                return 2
            pairs.append((ref_name.strip(), fast_name.strip()))
    else:
        pairs = list(DEFAULT_PAIRS)
    report = run_perf_bench(
        pairs=pairs,
        num_objects=args.objects,
        num_requests=args.requests,
        alpha=args.alpha,
        cache_ratio=args.cache_ratio,
        seed=args.seed,
    )
    print(format_report(report))
    path = write_report(report, args.out)
    print(f"wrote {path}")
    return 0


def _cmd_walkthrough(args: argparse.Namespace) -> int:
    """Print the Fig. 5 style state trace of S3-FIFO on a request list."""
    from repro.core.walkthrough import (
        DEMO_TRACE,
        format_walkthrough,
        walkthrough,
    )

    if args.trace:
        trace = [key.strip() for key in args.trace.split(",") if key.strip()]
    else:
        trace = DEMO_TRACE
    steps = walkthrough(trace, capacity=args.capacity)
    print(format_walkthrough(steps))
    return 0


def _serve_network(args: argparse.Namespace, service) -> int:
    """Network-server mode of ``serve``: listen until SIGINT/SIGTERM,
    then drain gracefully (stop accepting, answer accepted in-flight
    commands, bounded deadline) and tear the backend down.

    Exits 0 on a clean drain; a bind failure prints one line to stderr
    and exits 2 — no traceback, so supervisors and shell scripts get a
    parseable failure.
    """
    import signal
    import threading

    from repro.netsrv.server import CacheServer
    from repro.obs import MetricsRegistry

    server = CacheServer(
        service,
        host=args.host,
        resp_port=args.resp_port,
        memcached_port=args.memcached_port,
        max_connections=args.max_connections,
        idle_timeout=args.idle_timeout,
        metrics=MetricsRegistry(),
    )
    try:
        try:
            server.start()
        except OSError as exc:
            ports = [
                f"{proto} port {port}"
                for proto, port in (("resp", args.resp_port),
                                    ("memcached", args.memcached_port))
                if port is not None
            ]
            print(
                f"error: cannot bind {args.host} "
                f"({', '.join(ports)}): {exc}",
                file=sys.stderr,
            )
            return 2
        stop = threading.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            signal.signal(sig, lambda *_: stop.set())
        if server.resp_port is not None:
            print(f"resp: listening on {args.host}:{server.resp_port}",
                  flush=True)
        if server.memcached_port is not None:
            print(
                f"memcached: listening on "
                f"{args.host}:{server.memcached_port}",
                flush=True,
            )
        stop.wait()
        print("draining: accepting no new connections, finishing "
              "in-flight commands...", flush=True)
        server.stop(drain_timeout=args.drain_timeout)
        return 0
    finally:
        # The server never owns the backend: the phased mp/cluster
        # teardown (and the plain close for thread backends) runs
        # here, after the drain has answered everything accepted.
        if hasattr(service, "close"):
            service.close()


def _cmd_serve(args: argparse.Namespace) -> int:
    """Live service demo: replay a Zipf stream read-through and compare
    the service's miss ratio against the offline simulator's.  With
    ``--resp-port``/``--memcached-port``, serve the backend over real
    sockets instead (see :func:`_serve_network`)."""
    import threading
    import time

    from repro.cache.registry import create_policy
    from repro.service.loadgen import build_service, counters_snapshot
    from repro.sim.simulator import simulate
    from repro.traces.synthetic import zipf_trace

    network = (args.resp_port is not None
               or args.memcached_port is not None)
    if not network:
        trace = zipf_trace(
            num_objects=args.objects,
            num_requests=args.requests,
            alpha=args.alpha,
            seed=args.seed,
        )
    if args.transport != "pipe" and args.backend != "mp":
        print(f"--transport {args.transport} requires --backend mp",
              file=sys.stderr)
        return 2
    num_shards = {"mp": args.workers, "cluster": args.nodes}.get(
        args.backend, args.shards
    )
    capacity = max(num_shards, int(args.objects * args.cache_ratio))
    service = build_service(
        capacity, args.policy, num_shards, args.backend,
        transport=args.transport, replication=args.replication,
        vnodes=args.vnodes, checked=args.checked,
    )
    if network:
        return _serve_network(args, service)
    ttl = args.ttl
    stop_watch = threading.Event()
    watcher = None
    if args.watch is not None:
        if args.watch <= 0:
            print("--watch takes a positive number of seconds",
                  file=sys.stderr)
            return 2

        def _watch() -> None:
            start = time.perf_counter()
            while not stop_watch.wait(args.watch):
                snap = counters_snapshot(
                    service, time.perf_counter() - start
                )
                try:
                    print(
                        f"[watch +{snap['t_s']:8.2f}s] "
                        f"gets={snap['gets']:,} "
                        f"hit={snap['hit_ratio']:.4f} "
                        f"sets={snap['sets']:,}",
                        flush=True,
                    )
                except BrokenPipeError:
                    return  # reader went away; keep replaying quietly

        watcher = threading.Thread(target=_watch, daemon=True)
        watcher.start()
    try:
        if args.batch > 1:
            for i in range(0, len(trace), args.batch):
                batch = trace[i:i + args.batch]
                values = service.get_many(batch)
                missed = [(k, k) for k, v in zip(batch, values) if v is None]
                if missed:
                    if ttl is not None:
                        service.set_many(missed, ttl=ttl)
                    else:
                        service.set_many(missed)
        else:
            for key in trace:
                if service.get(key) is None:
                    if ttl is not None:
                        service.set(key, key, ttl=ttl)
                    else:
                        service.set(key, key)
        if args.backend == "cluster":
            stats = service.drain()  # graceful: sweep + final snapshot
        else:
            stats = service.stats()
        shard_ops = (
            service.ops_per_shard() if hasattr(service, "ops_per_shard")
            else None
        )
    finally:
        if watcher is not None:
            stop_watch.set()
            watcher.join()
        if args.backend in ("mp", "cluster"):
            service.close()
    live_miss = 1.0 - stats["hit_ratio"]
    unit = (
        f"worker process(es) over {args.transport}" if args.backend == "mp"
        else "node process(es)" if args.backend == "cluster"
        else "shard(s)"
    )
    print(f"policy:          {args.policy} x {num_shards} {unit}")
    print(f"capacity:        {capacity}")
    print(f"requests:        {stats['gets']} gets, {stats['sets']} sets")
    print(f"live miss ratio: {live_miss:.4f}")
    print(f"objects held:    {stats['objects']}")
    print(f"evictions:       {stats['evictions']}")
    if ttl is not None:
        print(f"expired:         {stats['expired']} (ttl={ttl:g}s)")
    if num_shards > 1 and shard_ops is not None:
        from repro.concurrency.sharding import imbalance_factor

        print(f"shard ops:       {shard_ops}")
        print(f"imbalance:       {imbalance_factor(shard_ops):.3f} (max/mean)")
    if args.backend == "cluster":
        health = " ".join(
            f"{nid}:{'up' if up else 'DOWN'}"
            for nid, up in stats["node_health"].items()
        )
        print(f"nodes:           {stats['nodes_up']}/{stats['num_nodes']} up "
              f"(R={stats['replication']}, vnodes={stats['vnodes']}) "
              f"[{health}]")
        print(f"failovers:       {stats['failovers']}")
        print(f"read repairs:    {stats['read_repairs']}")
        print(f"degraded ops:    {stats['degraded_ops']}")
    if ttl is None:
        offline = simulate(
            create_policy(args.policy, capacity=capacity), trace
        )
        print(f"offline miss:    {offline.miss_ratio:.4f} "
              f"(delta {live_miss - offline.miss_ratio:+.4f})")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Concurrent load generator; writes BENCH_service.json."""
    from repro.concurrency.calibrate import calibration_summary
    from repro.perf.bench import write_report
    from repro.service.loadgen import (
        combine_reports,
        format_report,
        run_loadgen,
        run_net_loadgen,
    )

    try:
        shard_counts = [int(s) for s in args.shards.split(",")]
        thread_counts = [int(t) for t in args.threads.split(",")]
        worker_counts = [int(w) for w in args.workers.split(",")]
        node_counts = [int(n) for n in args.nodes.split(",")]
        connection_counts = [int(c) for c in args.connections.split(",")]
        pipeline_depths = [int(p) for p in args.pipeline.split(",")]
    except ValueError:
        print("--shards/--threads/--workers/--nodes/--connections/"
              "--pipeline take comma-separated integers", file=sys.stderr)
        return 2
    backends = [b.strip() for b in args.backend.split(",")]
    unknown = set(backends) - {"thread", "mp", "cluster"}
    if unknown or not backends:
        print(f"--backend takes a comma-separated subset of "
              f"thread,mp,cluster; got {args.backend!r}", file=sys.stderr)
        return 2
    transports = [t.strip() for t in args.transport.split(",")]
    unknown = set(transports) - {"pipe", "shm"}
    if unknown or not transports:
        print(f"--transport takes a comma-separated subset of pipe,shm; "
              f"got {args.transport!r}", file=sys.stderr)
        return 2
    if transports != ["pipe"] and "mp" not in backends:
        print("--transport is an mp-backend axis; add 'mp' to --backend",
              file=sys.stderr)
        return 2
    frontends = [f.strip() for f in args.frontend.split(",")]
    unknown = set(frontends) - {"inproc", "resp", "memcached"}
    if unknown or not frontends:
        print(f"--frontend takes a comma-separated subset of "
              f"inproc,resp,memcached; got {args.frontend!r}",
              file=sys.stderr)
        return 2
    socket_frontends = [f for f in frontends if f != "inproc"]
    workload = dict(
        num_objects=args.objects,
        num_requests=args.requests,
        alpha=args.alpha,
        cache_ratio=args.cache_ratio,
        seed=args.seed,
        policy=args.policy,
        mode=args.mode,
        open_rate=args.rate,
        checked=args.checked,
        ttl=args.ttl,
    )
    reports = []
    for backend in backends:
        if "inproc" not in frontends:
            break  # socket-only run: skip the in-process matrices
        if backend == "thread":
            reports.append(run_loadgen(
                shard_counts=shard_counts,
                thread_counts=thread_counts,
                batch_size=args.batch,
                **workload,
            ))
        elif backend == "mp":
            # The mp axis scales worker processes under one driver
            # thread; batches amortize the per-operation IPC cost and
            # the transport axis (pipe vs shm rings) attacks the cost
            # itself — one report per transport.
            for transport in transports:
                reports.append(run_loadgen(
                    shard_counts=worker_counts,
                    thread_counts=(1,),
                    backend="mp",
                    batch_size=args.batch,
                    transport=transport,
                    **workload,
                ))
        else:
            # The cluster axis scales node processes; rows carry the
            # error-rate and node-health columns.
            reports.append(run_loadgen(
                shard_counts=node_counts,
                thread_counts=(1,),
                backend="cluster",
                batch_size=args.batch,
                replication=args.replication,
                vnodes=args.vnodes,
                **workload,
            ))
    if socket_frontends:
        # The socket matrix (frontends x connections x pipeline depths)
        # runs once per backend at that backend's largest worker axis,
        # so socket rows are comparable to the best in-process rows.
        net_workload = dict(
            num_objects=args.objects,
            num_requests=args.requests,
            alpha=args.alpha,
            cache_ratio=args.cache_ratio,
            seed=args.seed,
            policy=args.policy,
            checked=args.checked,
            ttl=args.ttl,
            connection_counts=connection_counts,
            pipeline_depths=pipeline_depths,
            frontends=socket_frontends,
        )
        for backend in backends:
            if backend == "thread":
                reports.append(run_net_loadgen(
                    num_shards=max(shard_counts), **net_workload,
                ))
            elif backend == "mp":
                for transport in transports:
                    reports.append(run_net_loadgen(
                        backend="mp",
                        num_shards=max(worker_counts),
                        transport=transport,
                        **net_workload,
                    ))
            else:
                reports.append(run_net_loadgen(
                    backend="cluster",
                    num_shards=max(node_counts),
                    replication=args.replication,
                    vnodes=args.vnodes,
                    **net_workload,
                ))
    report = reports[0] if len(reports) == 1 else combine_reports(reports)
    try:
        report["calibration"] = calibration_summary(
            report, shards=min(shard_counts)
        )
    except ValueError:
        pass  # needs both a 1-thread and a multi-thread row
    if "mp" in backends:
        try:
            report["calibration_native"] = calibration_summary(
                report, axis="workers"
            )
        except ValueError:
            pass  # needs a 1-worker and a multi-worker row
    print(format_report(report))
    calibration = report.get("calibration")
    if calibration:
        print(
            f"calibrated {calibration['profile']}: "
            f"{calibration['serial_fraction']:.0%} serial, "
            f"hit {calibration['hit_ns']}ns / miss {calibration['miss_ns']}ns"
        )
    native = report.get("calibration_native")
    if native:
        print(
            f"calibrated {native['profile']} (workers axis): "
            f"{native['serial_fraction']:.0%} serial at "
            f"{native['workers']} workers, batch {native['batch_size']}"
        )
    path = write_report(report, args.out)
    print(f"wrote {path}")
    return 0


def _cmd_export_metrics(args: argparse.Namespace) -> int:
    """Replay a Zipf workload against a fully instrumented service and
    export the resulting metrics registry (Prometheus text or JSON)."""
    from repro.obs import (
        EventTracer,
        MetricsRegistry,
        dump_on_error,
        to_json,
        to_prometheus,
    )
    from repro.service.loadgen import build_service
    from repro.traces.synthetic import zipf_trace

    trace = zipf_trace(
        num_objects=args.objects,
        num_requests=args.requests,
        alpha=args.alpha,
        seed=args.seed,
    )
    capacity = max(args.shards, int(args.objects * args.cache_ratio))
    registry = MetricsRegistry()
    tracer = EventTracer(
        capacity=256, sample_every=max(1, args.requests // 4096)
    )
    service = build_service(
        capacity,
        args.policy,
        args.shards,
        metrics=registry,
        tracer=tracer,
        instrument_policy=True,
        default_ttl=args.ttl,
    )

    def _replay() -> None:
        for key in trace:
            if service.get(key) is None:
                service.set(key, key)

    # The tracer tail prints to stderr if the replay dies mid-stream.
    dump_on_error(tracer, _replay)
    service.sweep()
    text = (
        to_prometheus(registry) if args.format == "prom"
        else to_json(registry)
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _sampling_rate(text: str) -> float:
    """argparse type: a SHARDS sampling rate in (0, 1]."""
    rate = float(text)
    if not 0.0 < rate <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return rate


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="s3fifo-repro",
        description="S3-FIFO (SOSP'23) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-policies", help="list registered eviction policies")

    sim = sub.add_parser("simulate", help="simulate one policy on one trace")
    sim.add_argument("--policy", default="s3fifo")
    sim.add_argument("--dataset", default=None, help="dataset stand-in name")
    sim.add_argument("--trace-index", type=int, default=0)
    sim.add_argument("--objects", type=int, default=10_000)
    sim.add_argument("--requests", type=int, default=200_000)
    sim.add_argument("--alpha", type=float, default=1.0)
    sim.add_argument("--cache-ratio", type=float, default=0.1)
    sim.add_argument("--cache-size", type=int, default=None)
    sim.add_argument("--scale", type=float, default=1.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--engine",
        choices=("auto", "scalar", "vector"),
        default="auto",
        help="compiled-trace engine: auto runs the FIFO family as "
        "vectorized hit runs and hands miss-heavy chunks to the "
        "policy's batch loop, scalar forces the per-request paths, "
        "vector forces pure hit runs and requires vector eligibility",
    )

    exp = sub.add_parser("experiment", help="run a paper experiment")
    exp.add_argument("name", choices=sorted(EXPERIMENTS))
    exp.add_argument("--scale", type=float, default=1.0)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--processes", type=int, default=None)

    ana = sub.add_parser("analyze", help="one-hit-wonder analysis of a trace")
    ana.add_argument("--dataset", required=True)
    ana.add_argument("--trace-index", type=int, default=0)
    ana.add_argument("--scale", type=float, default=1.0)
    ana.add_argument("--seed", type=int, default=0)

    cmp_ = sub.add_parser("compare", help="rank policies on one trace")
    cmp_.add_argument("--policies", default=None,
                      help="comma-separated names (default: all)")
    cmp_.add_argument("--dataset", default=None)
    cmp_.add_argument("--trace-index", type=int, default=0)
    cmp_.add_argument("--objects", type=int, default=10_000)
    cmp_.add_argument("--requests", type=int, default=200_000)
    cmp_.add_argument("--alpha", type=float, default=1.0)
    cmp_.add_argument("--cache-ratio", type=float, default=0.1)
    cmp_.add_argument("--cache-size", type=int, default=None)
    cmp_.add_argument("--scale", type=float, default=1.0)
    cmp_.add_argument("--seed", type=int, default=0)

    mrc = sub.add_parser(
        "mrc",
        help="miss-ratio curve for one policy: exact by default, "
        "SHARDS-sampled with --rate < 1",
    )
    mrc.add_argument("--policy", default="lru")
    mrc.add_argument("--dataset", default=None)
    mrc.add_argument("--trace-index", type=int, default=0)
    mrc.add_argument("--objects", type=int, default=10_000)
    mrc.add_argument("--requests", type=int, default=200_000)
    mrc.add_argument("--alpha", type=float, default=1.0)
    mrc.add_argument("--rate", type=_sampling_rate, default=1.0,
                     help="spatial sampling rate in (0, 1]; below 1 "
                     "enables SHARDS")
    mrc.add_argument("--ensembles", type=_positive_int, default=3,
                     help="independent samples per sampled curve")
    mrc.add_argument("--scale", type=float, default=1.0)
    mrc.add_argument("--seed", type=int, default=0)

    res = sub.add_parser(
        "resilience",
        help="fault-injection demo: outage degradation, crash recovery, "
        "trace corruption salvage, and the policy sanitizer",
    )
    res.add_argument("--objects", type=int, default=2_000)
    res.add_argument("--requests", type=int, default=20_000)
    res.add_argument("--alpha", type=float, default=1.0)
    res.add_argument("--seed", type=int, default=0)

    perf = sub.add_parser(
        "perf",
        help="reference-vs-fast throughput benchmark (BENCH_perf.json)",
    )
    perf.add_argument("--objects", type=int, default=100_000)
    perf.add_argument("--requests", type=int, default=1_000_000)
    perf.add_argument("--alpha", type=float, default=1.0)
    perf.add_argument("--cache-ratio", type=float, default=0.1)
    perf.add_argument("--seed", type=int, default=42)
    perf.add_argument(
        "--pairs", default=None,
        help="comma-separated reference:fast pairs (default: all built-in)",
    )
    perf.add_argument(
        "--out", default="benchmarks/results/BENCH_perf.json",
        help="output JSON path",
    )

    serve = sub.add_parser(
        "serve",
        help="live cache service demo (read-through Zipf replay, "
        "offline-parity check)",
    )
    serve.add_argument("--policy", default="s3fifo")
    serve.add_argument("--shards", type=int, default=1)
    serve.add_argument("--backend", choices=("inproc", "mp", "cluster"),
                       default="inproc",
                       help="inproc: in-process shards; mp: one worker "
                       "process per shard (see --workers); cluster: "
                       "replicated node processes (see --nodes)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker process count (mp backend)")
    serve.add_argument("--transport", choices=("pipe", "shm"),
                       default="pipe",
                       help="mp parent<->worker channel: duplex pipes "
                       "or shared-memory ring buffers")
    serve.add_argument("--nodes", type=int, default=3,
                       help="node process count (cluster backend)")
    serve.add_argument("--replication", type=int, default=2,
                       help="copies per key (cluster backend)")
    serve.add_argument("--vnodes", type=int, default=64,
                       help="ring points per node (cluster backend)")
    serve.add_argument("--batch", type=int, default=1,
                       help="replay in get_many/set_many batches of this "
                       "size (amortizes IPC on the mp backend)")
    serve.add_argument("--objects", type=int, default=10_000)
    serve.add_argument("--requests", type=int, default=100_000)
    serve.add_argument("--alpha", type=float, default=1.0)
    serve.add_argument("--cache-ratio", type=float, default=0.1)
    serve.add_argument("--ttl", type=float, default=None,
                       help="expire demo entries after this many seconds")
    serve.add_argument("--checked", action="store_true",
                       help="run the invariant sanitizer on every access")
    serve.add_argument("--watch", type=float, default=None, metavar="SECS",
                       help="print a one-line stats snapshot every SECS "
                       "seconds while the replay runs")
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--resp-port", type=int, default=None,
                       metavar="PORT",
                       help="serve the backend over the Redis RESP2 "
                       "protocol on this port (0 = ephemeral) instead "
                       "of running the replay demo")
    serve.add_argument("--memcached-port", type=int, default=None,
                       metavar="PORT",
                       help="serve the memcached text protocol on this "
                       "port (0 = ephemeral); combines with --resp-port")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for the network server")
    serve.add_argument("--max-connections", type=int, default=1024,
                       help="accept limit across both protocols")
    serve.add_argument("--idle-timeout", type=float, default=None,
                       metavar="SECS",
                       help="close connections idle for SECS seconds")
    serve.add_argument("--drain-timeout", type=float, default=5.0,
                       metavar="SECS",
                       help="graceful-shutdown deadline: in-flight "
                       "commands get this long before force-close")

    lg = sub.add_parser(
        "loadgen",
        help="concurrent service load generator (BENCH_service.json)",
    )
    lg.add_argument("--policy", default="s3fifo")
    lg.add_argument("--shards", default="1,4",
                    help="comma-separated shard counts (thread backend)")
    lg.add_argument("--threads", default="1,4",
                    help="comma-separated thread counts (thread backend)")
    lg.add_argument("--backend", default="thread",
                    help="comma-separated subset of thread,mp,cluster; "
                    "each backend runs its own matrix and the rows land "
                    "in one combined report")
    lg.add_argument("--workers", default="1,4",
                    help="comma-separated worker-process counts "
                    "(mp backend)")
    lg.add_argument("--transport", default="pipe",
                    help="comma-separated subset of pipe,shm (mp "
                    "backend); the mp matrix runs once per transport")
    lg.add_argument("--nodes", default="3",
                    help="comma-separated node-process counts "
                    "(cluster backend)")
    lg.add_argument("--replication", type=int, default=2,
                    help="copies per key (cluster backend)")
    lg.add_argument("--vnodes", type=int, default=64,
                    help="ring points per node (cluster backend)")
    lg.add_argument("--batch", type=int, default=1,
                    help="get_many/set_many batch size (1 = per-key ops)")
    lg.add_argument("--frontend", default="inproc",
                    help="comma-separated subset of inproc,resp,"
                    "memcached; socket frontends drive the backend "
                    "through a real CacheServer on ephemeral ports")
    lg.add_argument("--connections", default="1,4",
                    help="comma-separated client connection counts "
                    "(socket frontends)")
    lg.add_argument("--pipeline", default="1,16",
                    help="comma-separated pipeline depths: commands "
                    "written per socket round-trip (socket frontends)")
    lg.add_argument("--objects", type=int, default=10_000)
    lg.add_argument("--requests", type=int, default=100_000)
    lg.add_argument("--alpha", type=float, default=1.0)
    lg.add_argument("--cache-ratio", type=float, default=0.1)
    lg.add_argument("--mode", choices=("closed", "open"), default="closed")
    lg.add_argument("--rate", type=float, default=50_000.0,
                    help="per-thread target ops/sec (open mode)")
    lg.add_argument("--checked", action="store_true",
                    help="run the invariant sanitizer on every access")
    lg.add_argument("--ttl", type=float, default=None,
                    help="store entries with this default TTL in seconds "
                    "(requires a removal-capable policy)")
    lg.add_argument("--seed", type=int, default=42)
    lg.add_argument(
        "--out", default="benchmarks/results/BENCH_service.json",
        help="output JSON path",
    )

    export = sub.add_parser(
        "export-metrics",
        aliases=["stats"],
        help="replay an instrumented Zipf workload and export the "
        "metrics registry (Prometheus text or JSON)",
    )
    export.add_argument("--policy", default="s3fifo")
    export.add_argument("--shards", type=int, default=1)
    export.add_argument("--objects", type=int, default=10_000)
    export.add_argument("--requests", type=int, default=100_000)
    export.add_argument("--alpha", type=float, default=1.0)
    export.add_argument("--cache-ratio", type=float, default=0.1)
    export.add_argument("--ttl", type=float, default=None,
                        help="store entries with this default TTL in "
                        "seconds (requires a removal-capable policy)")
    export.add_argument("--format", choices=("prom", "json"),
                        default="prom")
    export.add_argument("--out", default=None,
                        help="write the export here instead of stdout")
    export.add_argument("--seed", type=int, default=42)

    walk = sub.add_parser(
        "walkthrough", help="Fig. 5 style step-by-step S3-FIFO state trace"
    )
    walk.add_argument(
        "--trace", default=None,
        help="comma-separated keys (default: the documentation demo)",
    )
    walk.add_argument("--capacity", type=int, default=6)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.service.core import RemovalUnsupportedError

    args = build_parser().parse_args(argv)
    handlers = {
        "list-policies": _cmd_list_policies,
        "simulate": _cmd_simulate,
        "experiment": _cmd_experiment,
        "analyze": _cmd_analyze,
        "compare": _cmd_compare,
        "mrc": _cmd_mrc,
        "resilience": _cmd_resilience,
        "perf": _cmd_perf,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "export-metrics": _cmd_export_metrics,
        "stats": _cmd_export_metrics,
        "walkthrough": _cmd_walkthrough,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except RemovalUnsupportedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
