"""CompiledTrace: interning, round-trips, annotation, checksums."""

import pytest

from repro.sim.request import Request
from repro.traces.compiled import CompiledTrace, compile_trace


class TestCompileTrace:
    def test_bare_keys(self):
        ct = compile_trace(["a", "b", "a", "c"])
        assert len(ct) == 4
        assert ct.num_requests == 4
        assert ct.num_objects == 3
        assert ct.unit_size
        assert ct.sizes is None
        assert list(ct.keys) == [0, 1, 0, 2]  # first-appearance order
        assert ct.key_table == ["a", "b", "c"]

    def test_tuples_materialize_sizes_lazily(self):
        ct = compile_trace([("a", 1), ("b", 5), ("a", 1)])
        assert not ct.unit_size
        assert list(ct.sizes) == [1, 5, 1]
        # all-unit tuples never allocate a sizes buffer
        assert compile_trace([("a", 1), ("b", 1)]).sizes is None

    def test_requests_preserve_next_access(self):
        reqs = [Request("a", next_access=3), Request("b"), Request("a")]
        ct = compile_trace(reqs)
        assert list(ct.next_access) == [3, -1, -1]

    def test_integer_and_mixed_keys(self):
        ct = compile_trace([10, "ten", 10])
        assert ct.num_objects == 2
        assert list(ct) == [10, "ten", 10]

    def test_compile_idempotent(self):
        ct = compile_trace(["a", "b"])
        assert compile_trace(ct) is ct

    def test_iter_round_trip(self):
        items = ["a", "b", "a", "c", "b"]
        assert list(compile_trace(items)) == items
        sized = [("a", 2), ("b", 7)]
        assert list(compile_trace(sized)) == sized

    def test_len_set_footprint_compat(self):
        ct = compile_trace(["x", "y", "x"])
        assert len(set(ct)) == 2  # analysis helpers rely on this


class TestIterRequests:
    def test_fresh_objects(self):
        ct = compile_trace([("a", 2), ("b", 3)])
        reqs = list(ct.iter_requests())
        assert [(r.key, r.size) for r in reqs] == [("a", 2), ("b", 3)]
        assert reqs[0] is not reqs[1]

    def test_reuse_yields_single_object(self):
        ct = compile_trace(["a", "b"])
        seen = set()
        for req in ct.iter_requests(reuse=True):
            seen.add(id(req))
            assert req.size == 1
        assert len(seen) == 1

    def test_request_at(self):
        ct = compile_trace([("a", 2), ("b", 3)])
        req = ct.request_at(1)
        assert (req.key, req.size, req.time) == ("b", 3, 2)


class TestAnnotate:
    def test_next_access_times(self):
        ct = compile_trace(["a", "b", "a", "b", "c"]).annotate()
        # 1-based times of the next access; -1 = never again
        assert list(ct.next_access) == [3, 4, -1, -1, -1]

    def test_annotate_idempotent(self):
        ct = compile_trace(["a", "a"]).annotate()
        buf = ct.next_access
        assert ct.annotate().next_access is buf

    def test_matches_analysis_helper(self):
        from repro.traces.analysis import annotate_next_access

        items = ["a", "b", "a", "c", "b", "a"]
        ct = compile_trace(items).annotate()
        expected = [
            -1 if r.next_access is None else r.next_access
            for r in annotate_next_access([Request(k) for k in items])
        ]
        assert list(ct.next_access) == expected


class TestBuffers:
    def test_key_ids_cached_and_shared(self):
        ct = compile_trace(["a", "b", "a"])
        ids = ct.key_ids()
        assert ids == [0, 1, 0]
        assert ct.key_ids() is ids
        assert ids[0] is ids[2]  # shared canonical ints, not fresh ones

    def test_key_index_inverts_the_key_table(self):
        ct = compile_trace(["a", "b", "a", 7])
        index = ct.key_index()
        assert index == {"a": 0, "b": 1, 7: 2}
        assert ct.key_index() is index

    @pytest.mark.parametrize(
        "keys", [[], ["a"], ["a", "b", "a", "c", "b", "a"]]
    )
    def test_occurrence_index_lists_each_key_positions(self, keys):
        ct = compile_trace(keys)
        occ_pos, occ_start = ct.occurrence_index()
        assert occ_start[0] == 0 and occ_start[-1] == len(keys)
        for kid, key in enumerate(ct.key_table):
            got = occ_pos[occ_start[kid]:occ_start[kid + 1]]
            assert got == [i for i, k in enumerate(keys) if k == key]
        assert ct.occurrence_index() is ct.occurrence_index()

    def test_checksum_stable_and_discriminating(self):
        a = compile_trace(["a", "b", "a"])
        b = compile_trace(["x", "y", "x"])  # same id structure
        c = compile_trace(["a", "a", "b"])
        assert a.checksum() == b.checksum()
        assert a.checksum() != c.checksum()

    def test_nbytes(self):
        ct = compile_trace(["a"] * 10)
        assert ct.nbytes() == 10 * ct.keys.itemsize

    def test_misaligned_buffers_rejected(self):
        from array import array

        with pytest.raises(ValueError):
            CompiledTrace(array("q", [0, 0]), ["a"], sizes=array("q", [1]))

    def test_empty_trace(self):
        ct = compile_trace([])
        assert len(ct) == 0
        assert ct.num_objects == 0
        assert list(ct) == []
