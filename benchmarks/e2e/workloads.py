"""The three workloads of the end-to-end benchmark.

Each workload builds its inputs from the seed, sets the system up
(``setup``), runs one unit of measured work per ``unit`` call, checks
its outputs (``check``), and reports its end-to-end metrics
(``end_to_end``).  A unit returns its timings already divided by the
host's slowdown (:mod:`hostclock`).  A traced run also calls
:func:`probe_layers` on the workload's own inputs for the per-layer
costs.  Only public functions of the program are called: ``simulate``,
``compile_trace``, ``CacheService``, ``RespParser`` and the ``serve
--resp-port`` command line.
"""

from __future__ import annotations

import math
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import repro
from repro.cache.registry import create_policy
from repro.netsrv.resp import NIL, RespParser, encode_bulk, encode_simple
from repro.service.core import CacheService
from repro.sim.simulator import simulate
from repro.traces.compiled import compile_trace
from repro.traces.synthetic import zipf_trace

from hostclock import HostClock
from respwire import Connection, decode_reply, encode_command
from tracing import self_times

#: Where the imported package lives; the server process imports it too.
SRC = Path(repro.__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

SIM_POLICIES = ("fifo", "lru", "sieve", "s3fifo")
#: Policies with a vector hit-run engine; lru runs scalar only.
VECTOR_FAMILY = ("fifo", "sieve", "s3fifo")
ENGINES = ("auto", "scalar", "vector")
SETUP_REPEATS = 5
#: Least total set-up time per run at ``--scale 1``; it scales with the
#: inputs, so that tiny smoke-test inputs do not build hundreds of times.
SETUP_MIN_S = 2.0
#: Operations replayed through the service and wire probes.
PROBE_OPS = 200_000
#: Wall time of one measured unit of the RESP workload.
RESP_SLICE_S = 0.25
#: Keys per pipelined batch while the cache is filled before timing.
FILL_BATCH = 64
HOST = "127.0.0.1"
#: Round trips per echo reference, and the seconds they take on the
#: recording host in a quiet phase.
ECHO_ROUNDS = 750
ECHO_REFERENCE_S = 0.035
#: GETs after the fill over which ``resp-read`` counts its miss ratio;
#: a run reaches it even when the host runs at a third of its speed.
MISS_WINDOW = 50_000

#: What a unit returns: work done, its seconds and its timing samples
#: (name -> seconds), all at the reference host speed.
Unit = Tuple[int, float, Dict[str, List[float]]]


def value_for(key: int) -> bytes:
    """The 64-byte value stored under ``key``; hits must return it."""
    return b"%064d" % key


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def build_trace(tracer, generate: Callable, name: str):
    """Generate keys and compile them, each step under its own span."""
    with tracer.span("traces.generate"):
        keys = generate()
    with tracer.span("traces.compile"):
        trace = compile_trace(keys, name=name)
    with tracer.span("traces.key_ids"):
        trace.key_ids()
    # Built here because the first vector run would otherwise pay for it
    # lazily inside the measured time.
    with tracer.span("traces.occurrence_index"):
        trace.occurrence_index()
    return trace


def timed_setup(build: Callable, tracer, clock, scale: float,
                discard: Callable = lambda result: None):
    """Run ``build`` at least :data:`SETUP_REPEATS` times and for
    :data:`SETUP_MIN_S` x ``scale``; return the median seconds at the
    reference host speed and the last result.
    ``discard`` releases each earlier result before the next build."""
    times = []
    result = None
    while (len(times) < SETUP_REPEATS
           or sum(times) < SETUP_MIN_S * scale):
        if result is not None:
            discard(result)
            result = None
        start = time.perf_counter()
        with tracer.span("setup"):
            result = build()
        times.append((time.perf_counter() - start) / clock.slowdown())
    return statistics.median(times), result


class Workload:
    """Shared bookkeeping: checks, counts and extra report lines."""

    def __init__(self, name: str, seed: int, scale: float) -> None:
        self.name = name
        self.seed = seed
        self.scale = scale
        self.errors: List[str] = []
        self.attempted = 0
        self.failed = 0
        #: Extra report lines: name -> (value, unit).
        self.extras: Dict[str, Tuple[float, str]] = {}
        #: Registry names standing for fifo/lru/sieve/s3fifo here.
        self.policies: Dict[str, str] = {p: p for p in SIM_POLICIES}

    @property
    def oracle_key(self) -> str:
        return f"{self.name}/seed={self.seed}/scale={self.scale:g}"

    def mismatch(self, message: str) -> None:
        self.errors.append(f"{self.name}: {message}")

    def oracle_entry(self) -> Optional[dict]:
        """What the seed-0 oracle pins; ``None`` when nothing repeats."""
        return None

    def check_oracle(self, expected: dict) -> None:
        observed = self.oracle_entry()
        for key in sorted(set(expected) | set(observed or {})):
            want = expected.get(key)
            got = (observed or {}).get(key)
            if want != got:
                self.mismatch(f"oracle {key}: expected {want}, got {got}")

    def unit_clock(self, clock: HostClock) -> HostClock:
        """The clock that corrects the unit timings: by default the one
        that corrected set-up."""
        return clock

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------
class SimWorkload(Workload):
    """The four ``*-fast`` policies on one compiled Zipf trace through
    ``simulate`` with the default engine."""

    def __init__(self, name: str, seed: int, scale: float, alpha: float,
                 requests: int) -> None:
        super().__init__(name, seed, scale)
        self.alpha = alpha
        self.objects = max(1000, int(100_000 * scale))
        self.requests = max(10_000, int(requests * scale))
        self.capacity = max(10, int(10_000 * scale))
        self.policies = {p: f"{p}-fast" for p in SIM_POLICIES}
        self.outcomes: Dict[str, Tuple[int, int]] = {}
        self.trace = None

    def _build(self, tracer):
        with tracer.span("build"):
            return build_trace(
                tracer, lambda: zipf_trace(self.objects, self.requests,
                                           alpha=self.alpha, seed=self.seed),
                self.name)

    def setup(self, tracer, clock) -> None:
        self.setup_s, self.trace = timed_setup(
            lambda: self._build(tracer), tracer, clock, self.scale)

    def unit(self, tracer, clock) -> Unit:
        """One pass: each policy simulates the whole trace once."""
        work = 0
        spent = 0.0
        samples: Dict[str, List[float]] = {}
        for policy, impl in self.policies.items():
            start = time.perf_counter()
            with tracer.span(f"simulate.{policy}"):
                result = simulate(create_policy(impl, capacity=self.capacity),
                                  self.trace)
            took = (time.perf_counter() - start) / clock.slowdown()
            spent += took
            work += result.requests
            samples[policy] = [took]
            self.attempted += 1
            outcome = (result.misses, result.evictions)
            first = self.outcomes.setdefault(policy, outcome)
            if outcome != first:
                self.mismatch(f"{impl} (misses, evictions) {outcome} "
                              f"differs from the first pass's {first}")
        return work, spent, samples

    def check(self) -> None:
        """Cross-check the default engine against ``engine="scalar"``."""
        for policy in VECTOR_FAMILY:
            impl = self.policies[policy]
            result = simulate(create_policy(impl, capacity=self.capacity),
                              self.trace, engine="scalar")
            scalar = (result.misses, result.evictions)
            if scalar != self.outcomes[policy]:
                self.mismatch(f"{impl} default engine gave (misses, "
                              f"evictions) {self.outcomes[policy]}, scalar "
                              f"{scalar}")

    def oracle_entry(self) -> dict:
        return {p: {"misses": m, "evictions": e}
                for p, (m, e) in self.outcomes.items()}

    def end_to_end(self, samples: Dict[str, List[float]],
                   units: List[Tuple[int, float]]) -> Dict[str, float]:
        # One sample per policy, its median simulate() time: p50 lies
        # between the two middle policies, p99 is the slowest policy,
        # and a pass of the median calls sets the request rate.
        call_ms = [statistics.median(times) * 1e3
                   for times in samples.values()]
        return {
            "req_per_s": len(call_ms) * len(self.trace) / sum(call_ms) * 1e3,
            "p50_ms": statistics.median(call_ms),
            "p99_ms": percentile(call_ms, 0.99),
            "miss_ratio": self.outcomes["s3fifo"][0] / len(self.trace),
            "setup_s": self.setup_s,
        }

    def probe(self, tracer):
        return self.trace, self.capacity


# ----------------------------------------------------------------------
# RESP service workload
# ----------------------------------------------------------------------
class Child:
    """A child process that prints ``<banner>HOST:PORT`` on its standard
    output once it accepts connections."""

    def __init__(self, argv: List[str], banner: str,
                 env: Optional[Dict[str, str]] = None) -> None:
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
        try:
            self.port = self._read_port(banner,
                                        deadline=time.monotonic() + 60)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, banner: str, deadline: float) -> int:
        while True:
            remaining = deadline - time.monotonic()
            ready = select.select([self.proc.stdout], [], [],
                                  max(0.0, remaining))[0]
            if not ready:
                raise TimeoutError(f"no {banner!r} line from {self.proc.args}")
            line = self.proc.stdout.readline().decode()
            if not line:
                raise RuntimeError(f"{self.proc.args} exited with code "
                                   f"{self.proc.wait()}")
            if line.startswith(banner):
                return int(line.rsplit(":", 1)[1])

    def stop(self) -> None:
        """SIGTERM (the RESP server drains and exits), then wait; kill if
        stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def start_server(objects: int, cache_ratio: float) -> Child:
    """``serve --resp-port 0`` in a child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return Child(
        [sys.executable, "-m", "repro.cli", "serve", "--host", HOST,
         "--resp-port", "0", "--policy", "s3fifo", "--objects", str(objects),
         "--cache-ratio", repr(cache_ratio)],
        "resp: listening on ", env)


class EchoReference:
    """The reference of the RESP workload's host clock: times
    :data:`ECHO_ROUNDS` depth-1 round trips of a GET-sized message to the
    benchmark's own echo server (``echo_server.py``)."""

    def __init__(self) -> None:
        self.child = Child([sys.executable, str(HERE / "echo_server.py"),
                            HOST], "echo: listening on ")
        try:
            self.sock = socket.create_connection((HOST, self.child.port),
                                                 timeout=30)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except BaseException:
            self.child.stop()
            raise
        self.message = encode_command(b"GET", b"k12345")

    def __call__(self) -> float:
        sock, message = self.sock, self.message
        start = time.perf_counter()
        for _ in range(ECHO_ROUNDS):
            sock.sendall(message)
            received = 0
            while received < len(message):
                chunk = sock.recv(1 << 16)
                if not chunk:
                    raise ConnectionError("the echo server closed the "
                                          "connection")
                received += len(chunk)
        return time.perf_counter() - start

    def close(self) -> None:
        self.sock.close()
        self.child.stop()


class RespWorkload(Workload):
    """One read-through client against the RESP server over loopback.

    Closed loop, one connection, depth 1: GET, then SET on a miss, one
    latency sample per request.  One connection keeps the client to one
    thread, so the client and the server together need at most the two
    CPUs of the recording host.
    """

    def __init__(self, name: str, seed: int, scale: float, alpha: float,
                 cache_ratio: float) -> None:
        super().__init__(name, seed, scale)
        self.alpha = alpha
        self.cache_ratio = cache_ratio
        self.objects = max(1000, int(100_000 * scale))
        self.capacity = max(1, int(self.objects * cache_ratio))
        self.warmup = max(1000, int(20_000 * scale))
        self.stream = max(10_000, int(1_000_000 * scale))
        self.server: Optional[Child] = None
        self.conn: Optional[Connection] = None
        self.echo: Optional[EchoReference] = None
        #: Client counts since the server started (checked against INFO).
        self.counts: Dict[str, int] = defaultdict(int)
        #: Stream positions of the GETs that missed, after the fill.
        self.missed_at: List[int] = []

    # -- set-up --------------------------------------------------------
    def _spawn(self, tracer) -> Child:
        with tracer.span("server.spawn"):
            server = start_server(self.objects, self.cache_ratio)
        try:
            with tracer.span("server.first_ping"):
                conn = Connection(HOST, server.port)
                try:
                    conn.send(encode_command(b"PING"))
                    reply = conn.replies(1)[0]
                finally:
                    conn.close()
        except BaseException:
            server.stop()
            raise
        if reply != "PONG":
            self.mismatch(f"PING answered {reply!r}")
        return server

    def setup(self, tracer, clock) -> None:
        self.keys = zipf_trace(self.objects, self.stream, alpha=self.alpha,
                               seed=self.seed)
        self.values = [value_for(k) for k in range(self.objects)]
        self.get_cmd = [encode_command(b"GET", b"k%d" % k)
                        for k in range(self.objects)]
        self.set_cmd = [encode_command(b"SET", b"k%d" % k, self.values[k])
                        for k in range(self.objects)]
        self.setup_s, self.server = timed_setup(
            lambda: self._spawn(tracer), tracer, clock, self.scale,
            discard=lambda server: server.stop())
        self.conn = Connection(HOST, self.server.port)
        self._fill(self.keys[:self.warmup])
        self.cursor = self.warmup
        self.echo = EchoReference()

    def unit_clock(self, clock: HostClock) -> HostClock:
        """A request crosses two processes and the loopback device, which
        a host slows differently from CPU work in one process."""
        return HostClock(self.echo, ECHO_REFERENCE_S)

    def _fill(self, keys: List[int]) -> None:
        """Fill the cache before timing: pipelined read-through batches."""
        conn = self.conn
        for start in range(0, len(keys), FILL_BATCH):
            batch = keys[start:start + FILL_BATCH]
            conn.send(b"".join(self.get_cmd[k] for k in batch))
            missed = []
            for key, value in zip(batch, conn.replies(len(batch))):
                self._read_reply(key, value, self.counts)
                if value is None:
                    missed.append(key)
            if missed:
                conn.send(b"".join(self.set_cmd[k] for k in missed))
                for key, value in zip(missed, conn.replies(len(missed))):
                    self._set_reply(key, value, self.counts)

    # -- client loop ---------------------------------------------------
    def _read_reply(self, key: int, value, counts) -> None:
        counts["gets"] += 1
        if value is None:
            return
        if value == self.values[key]:
            counts["hits"] += 1
            return
        counts["bad"] += 1
        if counts["bad"] == 1:
            self.mismatch(f"GET k{key} returned {value!r}")

    def _set_reply(self, key: int, value, counts) -> None:
        counts["sets"] += 1
        if value != "OK":
            counts["bad"] += 1
            self.mismatch(f"SET k{key} answered {value!r}")

    def unit(self, tracer, clock) -> Unit:
        """Depth-1 read-through requests for :data:`RESP_SLICE_S`."""
        conn, keys = self.conn, self.keys
        get_cmd, set_cmd = self.get_cmd, self.set_cmd
        clock_ns = time.perf_counter_ns
        missed_at = self.missed_at
        n = len(keys)
        i = self.cursor
        lat_ns: List[int] = []
        counts: Dict[str, int] = defaultdict(int)
        start = time.perf_counter()
        deadline_ns = clock_ns() + int(RESP_SLICE_S * 1e9)
        while clock_ns() < deadline_ns:
            key = keys[i % n]
            with tracer.span("resp.request"):
                t0 = clock_ns()
                with tracer.span("resp.send"):
                    conn.send(get_cmd[key])
                with tracer.span("resp.recv"):
                    value = conn.replies(1)[0]
                if value is None:
                    missed_at.append(i)
                    with tracer.span("resp.send"):
                        conn.send(set_cmd[key])
                    with tracer.span("resp.recv"):
                        self._set_reply(key, conn.replies(1)[0], counts)
                lat_ns.append(clock_ns() - t0)
            self._read_reply(key, value, counts)
            i += 1
        took = time.perf_counter() - start
        slowdown = clock.slowdown()
        self.cursor = i
        for name, count in counts.items():
            self.counts[name] += count
        self.attempted += counts["gets"]
        self.failed = self.counts["bad"]
        lat = [t / 1e9 / slowdown for t in lat_ns]
        return (counts["gets"], took / slowdown,
                {"p50": [statistics.median(lat)],
                 "p99": [percentile(lat, 0.99)]})

    def _info(self) -> Dict[str, str]:
        self.conn.send(encode_command(b"INFO"))
        text = self.conn.replies(1)[0].decode()
        return dict(line.split(":", 1) for line in text.splitlines()
                    if line and not line.startswith("#"))

    def check(self) -> None:
        """Server INFO must count exactly the client's GETs and SETs."""
        info = self._info()
        for name in ("gets", "hits", "sets"):
            if int(info[name]) != self.counts[name]:
                self.mismatch(f"server INFO {name}={info[name]}, client "
                              f"counted {self.counts[name]}")
        self.extras["server.gets"] = (int(info["gets"]), "count")
        self.extras["server.sets"] = (int(info["sets"]), "count")
        self.extras["server.evictions"] = (int(info["evictions"]), "count")
        # The loop and socket floor: depth-1 PINGs on the idle server.
        ping = encode_command(b"PING")
        lat = []
        for _ in range(1000):
            t0 = time.perf_counter_ns()
            self.conn.send(ping)
            self.conn.replies(1)
            lat.append((time.perf_counter_ns() - t0) / 1e3)
        self.extras["netsrv.ping_p50_us"] = (statistics.median(lat), "us")

    def end_to_end(self, samples: Dict[str, List[float]],
                   units: List[Tuple[int, float]]) -> Dict[str, float]:
        # Latency percentiles are taken per slice (~2000 requests, ~20
        # beyond p99) and their median reported: a pooled p99 is set by
        # the few slices a burst on the host hit.  The miss ratio is over
        # a fixed stretch of the stream: new keys keep arriving in a
        # Zipf stream, so it falls the further a run gets.
        end = min(self.cursor, self.warmup + MISS_WINDOW)
        misses = sum(1 for position in self.missed_at if position < end)
        return {
            "req_per_s": statistics.median(w / s for w, s in units),
            "p50_ms": statistics.median(samples["p50"]) * 1e3,
            "p99_ms": statistics.median(samples["p99"]) * 1e3,
            "miss_ratio": misses / (end - self.warmup),
            "setup_s": self.setup_s,
        }

    def probe(self, tracer):
        """Keys drawn like the client's, at the server's capacity."""
        with tracer.span("build"):
            trace = build_trace(
                tracer, lambda: zipf_trace(self.objects,
                                           int(PROBE_OPS * self.scale),
                                           alpha=self.alpha, seed=self.seed),
                self.name)
        return trace, self.capacity

    def close(self) -> None:
        if self.echo is not None:
            self.echo.close()
        if self.conn is not None:
            self.conn.close()
        if self.server is not None:
            self.server.stop()


# ----------------------------------------------------------------------
# Per-layer costs on a workload's own inputs (traced runs only)
# ----------------------------------------------------------------------
def probe_layers(workload: Workload, tracer) -> Dict[str, float]:
    """Time each layer alone on the workload's inputs, under spans named
    after the layer, and return the per-layer metrics."""
    with tracer.span("probe"):
        trace, capacity = workload.probe(tracer)
        results = {}
        for policy in SIM_POLICIES:
            impl = workload.policies[policy]
            engines = ENGINES if policy in VECTOR_FAMILY else ("scalar",)
            seen = set()
            for engine in engines:
                with tracer.span(f"sim.{policy}.{engine}"):
                    result = simulate(create_policy(impl, capacity=capacity),
                                      trace, engine=engine)
                seen.add((result.misses, result.evictions))
            if len(seen) != 1:
                workload.mismatch(f"{impl} engines disagree on "
                                  f"{trace.name}: {sorted(seen)}")
            results[policy] = result
        ops, service_ns = _probe_service(workload, trace, capacity, tracer)
        wire_ns = _probe_wire(workload, ops, tracer)

    layer = {}
    table = defaultdict(lambda: (0.0, 0), self_times(tracer.spans))
    builds = table["build"][1]
    for stage in ("generate", "compile", "occurrence_index"):
        layer[f"traces.{stage}_s"] = table[f"traces.{stage}"][0] / builds
    for policy in SIM_POLICIES:
        engines = ENGINES if policy in VECTOR_FAMILY else ("scalar",)
        for engine in engines:
            layer[f"sim.{policy}.{engine}_ns"] = (
                table[f"sim.{policy}.{engine}"][0]
                / results[policy].requests * 1e9)
    for policy, result in results.items():
        layer[f"sim.{policy}.hit_ratio"] = result.hits / result.requests
        layer[f"sim.{policy}.evictions"] = result.evictions
    layer.update(service_ns)
    layer.update(wire_ns)
    return layer


def _probe_service(workload: Workload, trace, capacity: int, tracer):
    """Read-through replay of the first :data:`PROBE_OPS` requests
    through an in-process ``CacheService`` with the workload's s3fifo;
    per-call get/set nanoseconds."""
    clock = time.perf_counter_ns
    get_ns = set_ns = gets = sets = 0
    ops: List[Tuple[int, bool]] = []
    with tracer.span("service.replay"):
        service = CacheService(capacity, workload.policies["s3fifo"])
        get, put = service.get, service.set
        table = trace.key_table
        for kid in trace.key_ids()[:int(PROBE_OPS * workload.scale)]:
            key = table[kid]
            t0 = clock()
            value = get(key)
            t1 = clock()
            get_ns += t1 - t0
            gets += 1
            if value is None:
                put(key, value_for(key))
                set_ns += clock() - t1
                sets += 1
            elif value != value_for(key):
                workload.mismatch(f"service returned {value!r} for {key}")
            ops.append((key, value is not None))
    return ops, {"service.get_ns": get_ns / gets,
                 "service.set_ns": set_ns / max(1, sets)}


def _probe_wire(workload: Workload, ops, tracer) -> Dict[str, float]:
    """The replay's commands through the benchmark's encoder and the
    server's ``RespParser`` (4 KiB chunks), and the matching replies,
    built with the server's encoders, through the benchmark's decoder."""
    expected: List[object] = []
    replies = []
    for key, hit in ops:
        if hit:
            expected.append(value_for(key))
            replies.append(encode_bulk(value_for(key)))
        else:
            expected.extend((None, "OK"))
            replies.extend((NIL, encode_simple("OK")))
    clock = time.perf_counter_ns
    with tracer.span("client.encode"):
        t0 = clock()
        commands = []
        for key, hit in ops:
            name = b"k%d" % key
            commands.append(encode_command(b"GET", name))
            if not hit:
                commands.append(encode_command(b"SET", name, value_for(key)))
        encode_ns = clock() - t0
    stream = b"".join(commands)
    parser = RespParser()
    parsed = 0
    with tracer.span("netsrv.parse"):
        t0 = clock()
        for offset in range(0, len(stream), 4096):
            parsed += len(parser.feed(stream[offset:offset + 4096]))
        parse_ns = clock() - t0
    if parsed != len(commands):
        workload.mismatch(f"RespParser returned {parsed} commands of "
                          f"{len(commands)}")
    buf = b"".join(replies)
    decoded = []
    pos = 0
    with tracer.span("client.decode"):
        t0 = clock()
        while pos < len(buf):
            value, pos = decode_reply(buf, pos)
            decoded.append(value)
        decode_ns = clock() - t0
    if decoded != expected:
        workload.mismatch("decoded replies differ from the encoded ones")
    return {
        "netsrv.parse_ns_per_cmd": parse_ns / len(commands),
        "client.encode_ns": encode_ns / len(commands),
        "client.decode_ns": decode_ns / len(decoded),
    }


WORKLOADS = {
    "sim-zipf-0.8": lambda seed, scale: SimWorkload(
        "sim-zipf-0.8", seed, scale, alpha=0.8, requests=500_000),
    "sim-zipf-1.4": lambda seed, scale: SimWorkload(
        "sim-zipf-1.4", seed, scale, alpha=1.4, requests=2_000_000),
    "resp-read": lambda seed, scale: RespWorkload(
        "resp-read", seed, scale, alpha=1.2, cache_ratio=0.1),
}
