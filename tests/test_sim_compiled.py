"""simulate() over compiled traces: routing, warmup split, windows."""

import pytest

from repro.cache.registry import create_policy
from repro.sim.request import Request, as_request
from repro.sim.simulator import (
    SimulationResult,
    simulate,
    simulate_compiled,
    windowed_miss_ratios,
)
from repro.traces.compiled import compile_trace
from repro.traces.synthetic import zipf_trace

ZIPF = zipf_trace(num_objects=400, num_requests=6_000, alpha=1.0, seed=21)


class TestAsRequest:
    def test_passthrough(self):
        req = Request("k", size=3)
        assert as_request(req) is req

    def test_tuple_and_bare(self):
        req = as_request(("k", 7))
        assert (req.key, req.size) == ("k", 7)
        assert (as_request("k").key, as_request("k").size) == ("k", 1)


class TestRouting:
    def test_simulate_routes_compiled_to_fast_engine(self):
        raw = simulate(create_policy("s3fifo", 50), ZIPF)
        via_simulate = simulate(create_policy("s3fifo-fast", 50), compile_trace(ZIPF))
        direct = simulate_compiled(
            create_policy("s3fifo-fast", 50), compile_trace(ZIPF)
        )
        assert raw.misses == via_simulate.misses == direct.misses
        assert raw.evictions == via_simulate.evictions == direct.evictions

    def test_non_fast_policy_on_compiled_trace(self):
        # Policies without the batch protocol run through the
        # reused-Request fallback and must report identical results.
        raw = simulate(create_policy("lfu", 50), ZIPF)
        compiled = simulate(create_policy("lfu", 50), compile_trace(ZIPF))
        assert raw.misses == compiled.misses
        assert raw.evictions == compiled.evictions
        assert raw.bytes_missed == compiled.bytes_missed

    def test_compiled_sized_trace(self):
        items = [(k, (hash(k) % 9) + 1) for k in ZIPF]
        raw = simulate(create_policy("s3fifo", 300), items)
        compiled = simulate(
            create_policy("s3fifo-fast", 300), compile_trace(items)
        )
        assert raw.bytes_requested == compiled.bytes_requested
        assert raw.bytes_missed == compiled.bytes_missed
        assert raw.byte_miss_ratio == compiled.byte_miss_ratio


class TestWarmupEvictionSplit:
    def test_evictions_are_steady_state_only(self):
        policy = create_policy("fifo", 30)
        result = simulate(policy, ZIPF, warmup=0.5)
        assert result.warmup_requests == 3_000
        assert result.requests == 3_000
        assert result.warmup_evictions > 0
        assert result.evictions > 0
        assert (
            result.total_evictions
            == result.evictions + result.warmup_evictions
            == policy.stats.evictions
        )

    def test_compiled_split_matches_streaming(self):
        stream = simulate(create_policy("s3fifo", 40), ZIPF, warmup=0.25)
        batch = simulate(
            create_policy("s3fifo-fast", 40), compile_trace(ZIPF), warmup=0.25
        )
        assert stream.warmup_evictions == batch.warmup_evictions
        assert stream.evictions == batch.evictions
        assert stream.misses == batch.misses

    def test_preused_policy_evictions_excluded(self):
        # Evictions performed before this run never leak into either
        # bucket of the result.
        policy = create_policy("fifo", 30)
        simulate(policy, ZIPF[:2_000])
        prior = policy.stats.evictions
        assert prior > 0
        result = simulate(policy, ZIPF[2_000:], warmup_requests=500)
        assert result.total_evictions == policy.stats.evictions - prior

    def test_zero_warmup(self):
        result = simulate(create_policy("fifo", 30), ZIPF)
        assert result.warmup_requests == 0
        assert result.warmup_evictions == 0
        assert result.total_evictions == result.evictions

    def test_warmup_full_trace_leaves_no_steady_state(self):
        result = simulate(
            create_policy("fifo", 30),
            compile_trace(ZIPF),
            warmup_requests=len(ZIPF),
        )
        assert result.requests == 0
        assert result.evictions == 0
        assert result.warmup_evictions > 0
        assert result.miss_ratio == 0.0

    def test_fractional_warmup_validation(self):
        with pytest.raises(ValueError):
            simulate(create_policy("fifo", 10), compile_trace(ZIPF), warmup=1.0)
        with pytest.raises(ValueError):
            simulate(create_policy("fifo", 10), ZIPF, warmup=-0.1)
        with pytest.raises(ValueError):
            # unsized iterable cannot take a fractional warmup
            simulate(create_policy("fifo", 10), iter(ZIPF), warmup=0.5)


class TestWindowedCompiled:
    def test_fast_policy_matches_streaming_windows(self):
        for window in (512, 6_000, 7_000):
            raw = windowed_miss_ratios(
                create_policy("s3fifo", 60), ZIPF, window=window
            )
            fast = windowed_miss_ratios(
                create_policy("s3fifo-fast", 60),
                compile_trace(ZIPF),
                window=window,
            )
            assert raw == fast, f"window={window}"

    def test_partial_trailing_window(self):
        ratios = windowed_miss_ratios(
            create_policy("fifo-fast", 60), compile_trace(ZIPF), window=3_500
        )
        assert len(ratios) == 2  # 3500 + 2500

    def test_non_fast_policy_windows(self):
        raw = windowed_miss_ratios(create_policy("lfu", 60), ZIPF, window=1_000)
        compiled = windowed_miss_ratios(
            create_policy("lfu", 60), compile_trace(ZIPF), window=1_000
        )
        assert raw == compiled

    def test_window_validation(self):
        with pytest.raises(ValueError):
            windowed_miss_ratios(
                create_policy("fifo", 10), compile_trace(ZIPF), window=0
            )


class TestSimulationResult:
    def test_total_evictions_property(self):
        r = SimulationResult(
            "fifo", 10, requests=100, misses=40, bytes_requested=100,
            bytes_missed=40, evictions=25, warmup_requests=50,
            warmup_evictions=12,
        )
        assert r.total_evictions == 37
        assert r.hits == 60
        assert r.miss_ratio == 0.4


class TestWarmupValidation:
    """A negative ``warmup_requests`` is rejected the same way by every
    engine (it used to overcount, raise IndexError, or be recorded)."""

    TRACE = compile_trace(ZIPF)

    @pytest.mark.parametrize("engine", ["auto", "scalar", "vector"])
    def test_compiled_engines_reject_negative(self, engine):
        with pytest.raises(ValueError, match="warmup_requests"):
            simulate(create_policy("fifo-fast", 50), self.TRACE,
                     warmup_requests=-5, engine=engine)

    def test_streaming_rejects_negative(self):
        with pytest.raises(ValueError, match="warmup_requests"):
            simulate(create_policy("fifo", 50), ZIPF, warmup_requests=-5)

    def test_zero_is_accepted(self):
        result = simulate(create_policy("fifo", 50), ZIPF, warmup_requests=0)
        assert result.requests == len(ZIPF)


class TestEngineValidation:
    def test_unknown_engine_rejected_on_streaming_trace(self):
        with pytest.raises(ValueError, match="engine"):
            simulate(create_policy("fifo", 10), [1, 2, 3], engine="bogus")

    def test_vector_needs_compiled_trace(self):
        with pytest.raises(ValueError, match="CompiledTrace"):
            simulate(create_policy("fifo", 10), [1, 2, 3], engine="vector")

    @pytest.mark.parametrize("engine", ["auto", "scalar"])
    def test_streaming_runs_for_auto_and_scalar(self, engine):
        result = simulate(create_policy("fifo", 10), [1, 2, 1], engine=engine)
        assert result.misses == 2

    def test_uncompiled_fallback_job_streams(self, monkeypatch):
        """A job whose trace cannot be compiled streams the raw trace."""
        import repro.traces.compiled as compiled
        from repro.sim.runner import SweepJob, execute_job

        def refuse(trace, name=None, annotate=False):
            raise TypeError("not compilable")

        monkeypatch.setattr(compiled, "compile_trace", refuse)
        raw = list(ZIPF[:500])
        result = execute_job(SweepJob("raw", lambda: raw, {}, "fifo", 20))
        assert result.ok, result.error
        assert result.miss_ratio == simulate(
            create_policy("fifo", 20), raw
        ).miss_ratio


class TestEngineReport:
    """Every result says which engine ran and how the trace was split."""

    def test_streaming_reports_scalar(self):
        result = simulate(create_policy("fifo", 50), ZIPF,
                          warmup_requests=100)
        assert result.engine == "scalar"
        assert result.scalar_requests == len(ZIPF)
        assert (result.hit_run_requests, result.event_requests,
                result.forced_rechecks, result.handoffs) == (0, 0, 0, 0)

    def test_scalar_engine_reports_scalar(self):
        trace = compile_trace(ZIPF)
        result = simulate(create_policy("s3fifo-fast", 50), trace,
                          warmup=0.25, engine="scalar")
        assert result.engine == "scalar"
        assert result.scalar_requests == len(trace)

    def test_vector_engine_reports_split(self):
        trace = compile_trace(ZIPF)
        result = simulate(create_policy("s3fifo-fast", 50), trace,
                          warmup=0.25, engine="vector")
        assert result.engine == "vector"
        assert result.scalar_requests == 0 and result.handoffs == 0
        assert result.hit_run_requests + result.event_requests == len(trace)
        assert 0 <= result.forced_rechecks <= result.event_requests
