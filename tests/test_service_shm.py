"""Shared-memory transport: codec fidelity, differential parity with
pipe, ring/arena edge cases, and crash liveness.

The codec tests are pure functions and run in tier-1, as does one
two-worker smoke test — proof the shm path spawns and serves at all.
Everything else spawns worker processes under small adversarial
geometries (4-slot rings, 256-byte arenas) and carries the ``shm``
marker: ``make shm``.
"""

import multiprocessing
import pickle
import threading
import time

import pytest

from repro.resilience import WORKER_CRASH, FaultPlan
from repro.service import MPCacheService, WorkerCrashedError
from repro.service.shm import (
    _Arena,
    decode_reply,
    decode_request,
    encode_reply,
    encode_request,
)
from repro.service.transport import TransportClosedError, create_transport


def assert_no_orphans():
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.02)
    assert multiprocessing.active_children() == []


def make_arena(size=4096):
    return _Arena(memoryview(bytearray(size)))


class MyInt(int):
    """Module-level so it survives pickling in the codec fallback."""


class TestCodec:
    """Wire-format round-trips, no processes involved."""

    def roundtrip_request(self, msg, arena_size=4096):
        arena = make_arena(arena_size)
        data = encode_request(msg, arena)
        return decode_request(data, arena.view)

    def roundtrip_reply(self, msg, arena_size=4096):
        arena = make_arena(arena_size)
        data = encode_reply(msg, arena)
        return decode_reply(data, arena.view)

    def test_get_many_roundtrip(self):
        msg = ("get_many", [1, "k", b"raw", None, True, 2.5], "default")
        assert self.roundtrip_request(msg) == msg

    def test_set_many_roundtrip_mixed_values(self):
        items = [
            ("small", b"x" * 8),          # inline bytes (< arena min)
            ("big", b"y" * 500),          # arena bytes
            ("text", "z" * 500),          # arena str
            ("num", 123456789),
            ("neg", -5),
            ("pi", 3.25),
            ("flag", True),
            ("nothing", None),
            ("rich", {"nested": [1, 2]}),  # per-object pickle
        ]
        msg = ("set_many", True, 0.5, None, items)
        assert self.roundtrip_request(msg) == msg

    def test_delete_many_roundtrip(self):
        msg = ("delete_many", [0, 1, "x"])
        assert self.roundtrip_request(msg) == msg

    def test_control_ops_pickle_fallback(self):
        for msg in [("stats",), ("close",), ("handshake", {"a": 1})]:
            assert self.roundtrip_request(msg) == msg

    def test_exact_types_survive(self):
        """bool is an int subclass and custom subclasses masquerade as
        their base; the codec must hand back exactly what a pipe would."""

        huge = 1 << 80  # exceeds the i64 fast path
        msg = ("set_many", False, None, None,
               [("a", True), ("b", 1), ("c", MyInt(7)), ("d", huge)])
        decoded = self.roundtrip_request(msg)
        assert decoded == msg
        values = [v for _, v in decoded[4]]
        assert type(values[0]) is bool and type(values[1]) is int
        assert type(values[2]) is MyInt
        assert values[3] == huge

    def test_reply_bools_bitset(self):
        for payload in ([True], [False], [True, False] * 17):
            assert self.roundtrip_reply(("ok", payload)) == ("ok", payload)

    def test_reply_values_and_empty(self):
        assert self.roundtrip_reply(("ok", [])) == ("ok", [])
        payload = [None, 1, b"v" * 200, "s" * 200, False]
        got = self.roundtrip_reply(("ok", payload))
        assert got == ("ok", payload)
        # a lone bool inside a mixed list must stay bool, not bitset
        assert type(got[1][4]) is bool

    def test_reply_error_pickles(self):
        code, exc = self.roundtrip_reply(("error", ValueError("boom")))
        assert code == "error"
        assert type(exc) is ValueError and exc.args == ("boom",)

    def test_arena_full_falls_back_inline(self):
        """Values that don't fit the arena inline into ring slots; the
        ones that did fit are not disturbed."""
        items = [("a", b"A" * 100), ("b", b"B" * 100), ("c", b"C" * 100)]
        msg = ("set_many", False, None, None, items)
        arena = make_arena(150)  # room for one value, not three
        data = encode_request(msg, arena)
        assert decode_request(data, arena.view) == msg

    def test_zero_arena_still_works(self):
        msg = ("set_many", False, None, None, [("k", b"v" * 500)])
        assert self.roundtrip_request(msg, arena_size=0) == msg


class TestTransportFactory:
    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            create_transport("rdma", multiprocessing.get_context())
        with pytest.raises(ValueError):
            MPCacheService(32, "s3fifo", num_workers=1, transport="rdma")
        assert_no_orphans()

    def test_shm_transport_options_validated(self):
        ctx = multiprocessing.get_context()
        with pytest.raises(ValueError):
            create_transport("shm", ctx, {"slots": 1})
        with pytest.raises(ValueError):
            create_transport("shm", ctx, {"slot_size": 8})
        with pytest.raises(ValueError):
            create_transport("shm", ctx, {"arena_size": -1})


def test_shm_smoke_roundtrip():
    """Tier-1 smoke: the shm transport spawns, serves, and tears down."""
    with MPCacheService(64, "s3fifo", num_workers=2,
                        transport="shm") as svc:
        assert svc.transport == "shm"
        assert svc.set("a", {"rich": [1, 2]}) is True
        assert svc.get("a") == {"rich": [1, 2]}
        assert svc.get_many(["a", "missing"]) == [{"rich": [1, 2]}, None]
        assert len(svc.worker_pids) == 2
    assert_no_orphans()


def mixed_workload(svc, n=300, span=90):
    """Mixed types and batch ops, deterministic across transports."""
    state = 7
    for i in range(n):
        state = (state * 1103515245 + 12345) % (2 ** 31)
        key = state % span
        op = i % 6
        if op == 0:
            svc.set(key, b"v" * (state % 300))
        elif op == 1:
            svc.set(f"s{key}", "text" * (state % 40), ttl=None)
        elif op == 2:
            svc.set_many([(key, state), (key + span, state * 0.5),
                          (f"t{key}", (True, None))])
        elif op == 3:
            svc.get_many([key, f"s{key}", "nope"])
        elif op == 4:
            svc.delete_many([key + span])
        else:
            svc.get(key, default="fallback")


@pytest.mark.shm
class TestPipeParity:
    def test_stats_byte_identical_across_transports(self):
        """The acceptance differential: the same request stream through
        pipe and shm must produce byte-identical ``stats()`` documents —
        the transport may not change semantics, types, or counts."""
        docs = {}
        for transport in ("pipe", "shm"):
            with MPCacheService(48, "s3fifo", num_workers=3,
                                transport=transport) as svc:
                mixed_workload(svc)
                docs[transport] = pickle.dumps(svc.stats())
        assert docs["pipe"] == docs["shm"]
        assert_no_orphans()

    def test_value_fidelity_across_transports(self):
        values = [b"", b"x" * 5000, "ué" * 100, 0, -(1 << 70),
                  1.5, True, False, None, ("tu", ["ple"]), {"d": 1}]
        for transport in ("pipe", "shm"):
            with MPCacheService(64, "s3fifo", num_workers=2,
                                transport=transport) as svc:
                svc.set_many([(i, v) for i, v in enumerate(values)])
                got = svc.get_many(list(range(len(values))))
                assert got == values
                assert [type(v) for v in got] == [type(v) for v in values]
        assert_no_orphans()


@pytest.mark.shm
class TestSmallGeometries:
    """Adversarial ring/arena sizes: correctness may never depend on
    the segment being big enough, only speed may."""

    TINY = {"slots": 4, "slot_size": 128, "arena_size": 256}

    def test_ring_full_backpressure(self):
        """A burst far larger than the ring blocks-and-drains instead
        of dropping or overwriting."""
        with MPCacheService(800, "s3fifo", num_workers=2,
                            transport="shm",
                            transport_options=self.TINY) as svc:
            items = [(i, i * 3) for i in range(400)]
            svc.set_many(items)
            assert svc.get_many([k for k, _ in items]) == [v for _, v in items]
        assert_no_orphans()

    def test_oversized_values_fragment_without_corruption(self):
        """5 KB values through 128-byte slots and a 256-byte arena:
        every value inlines and fragments, neighbors stay intact."""
        with MPCacheService(64, "s3fifo", num_workers=2,
                            transport="shm",
                            transport_options=self.TINY) as svc:
            blobs = {i: bytes([i]) * 5000 for i in range(8)}
            svc.set_many(list(blobs.items()))
            for i, blob in blobs.items():
                assert svc.get(i) == blob
            svc.set(0, b"tiny")  # small after huge: arena reset is clean
            assert svc.get(0) == b"tiny"
            assert svc.get(1) == blobs[1]
        assert_no_orphans()

    def test_stats_parity_survives_tiny_geometry(self):
        with MPCacheService(48, "s3fifo", num_workers=2,
                            transport="pipe") as ref:
            mixed_workload(ref, n=150)
            want = pickle.dumps(ref.stats())
        with MPCacheService(48, "s3fifo", num_workers=2,
                            transport="shm",
                            transport_options=self.TINY) as svc:
            mixed_workload(svc, n=150)
            assert pickle.dumps(svc.stats()) == want
        assert_no_orphans()


@pytest.mark.shm
class TestShmCrashSafety:
    def test_worker_crash_surfaces_not_hangs(self):
        """Shared memory has no EOF; the liveness poll must convert a
        dead worker into WorkerCrashedError promptly."""
        svc = MPCacheService(
            64, "s3fifo", num_workers=2, transport="shm",
            fault_plans={0: FaultPlan().add(WORKER_CRASH, 3, 4)},
        )
        crashed = None
        start = time.monotonic()
        try:
            for i in range(500):
                try:
                    svc.set(f"k{i}", i)
                except WorkerCrashedError as exc:
                    crashed = exc
                    break
            elapsed = time.monotonic() - start
            assert crashed is not None, "worker-crash fault never fired"
            assert crashed.worker_id == 0
            assert crashed.exitcode == 13
            assert elapsed < 30.0  # surfaced via poll, not a hang
        finally:
            svc.close()
        assert_no_orphans()

    def test_survivors_still_serve_after_peer_crash(self):
        svc = MPCacheService(
            64, "s3fifo", num_workers=2, transport="shm",
            fault_plans={0: FaultPlan().add(WORKER_CRASH, 1, 2)},
        )
        try:
            survivors = []
            for i in range(500):
                try:
                    svc.set(f"k{i}", i)
                    survivors.append(f"k{i}")
                except WorkerCrashedError:
                    pass
            alive = [k for k in survivors if svc.shard_for(k) == 1]
            assert alive, "expected keys on the surviving worker"
            assert svc.get(alive[-1]) is not None
        finally:
            svc.close()
        assert_no_orphans()


@pytest.mark.shm
class TestShmLifecycle:
    def test_close_idempotent_and_unlinks_segment(self):
        from multiprocessing import shared_memory

        svc = MPCacheService(32, "s3fifo", num_workers=2, transport="shm")
        svc.set("a", 1)
        names = [chan._shm.name for chan in svc._pool._channels.values()]
        svc.close()
        svc.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        assert_no_orphans()

    def test_constructor_failure_leaves_no_segments(self):
        with pytest.raises(Exception):
            MPCacheService(64, "definitely-not-a-policy", num_workers=2,
                           transport="shm")
        assert_no_orphans()

    def test_heartbeat_advances_while_worker_lives(self):
        with MPCacheService(32, "s3fifo", num_workers=1,
                            transport="shm") as svc:
            chan = svc._pool._channels[0]
            svc.set("a", 1)
            first = chan.heartbeat()
            svc.get("a")
            time.sleep(0.05)  # idle worker still beats while waiting
            assert chan.heartbeat() > 0
            assert chan.heartbeat() >= first

    def test_ops_after_close_raise(self):
        from repro.service import ServiceClosedError

        svc = MPCacheService(32, "s3fifo", num_workers=2, transport="shm")
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.get("a")
        with pytest.raises(TransportClosedError):
            svc._pool._channels[0].send(("get", "a"))
