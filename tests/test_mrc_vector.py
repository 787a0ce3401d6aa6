"""Vectorized SHARDS sampling and the exact MRC paths.

The compiled-trace branch of :func:`repro.sim.mrc.spatial_sample`
replicates CPython's tuple hash in uint64 NumPy; these tests pin it
*bit-identical* to the scalar fingerprint filter — same kept requests,
in order — across key types, rates, and seeds, because a sampler that
drifts by one key produces silently different (not wrong-looking)
curves.  The exact curves are pinned the same way: the FIFO single
pass and ``sampled_mrc(rate=1.0)`` must reproduce per-size runs.
"""

import random

import pytest

from repro.cache.registry import create_policy
from repro.sim.mrc import fifo_mrc, sampled_mrc, spatial_sample
from repro.sim.simulator import simulate
from repro.traces.compiled import compile_trace
from repro.traces.synthetic import zipf_trace

ZIPF = zipf_trace(num_objects=500, num_requests=8000, alpha=1.0, seed=5)
STR_TRACE = [f"obj:{k}" for k in ZIPF]
MIXED = [k if k % 3 else f"s{k}" for k in ZIPF]
_rng = random.Random(13)
SIZED = [(k, _rng.randint(1, 25)) for k in ZIPF]


@pytest.mark.parametrize(
    "items", [ZIPF, STR_TRACE, MIXED, SIZED],
    ids=["int-keys", "str-keys", "mixed-keys", "sized"],
)
@pytest.mark.parametrize("rate", [0.05, 0.25, 0.6, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 97])
def test_spatial_sample_compiled_pinned_to_scalar(items, rate, seed):
    scalar = spatial_sample(items, rate, seed=seed)
    vector = spatial_sample(compile_trace(items), rate, seed=seed)
    assert vector == scalar


def test_spatial_sample_empty_compiled_trace():
    assert spatial_sample(compile_trace([]), 0.5) == []


def test_spatial_sample_rejects_bad_rate():
    with pytest.raises(ValueError):
        spatial_sample(compile_trace(ZIPF), 0.0)
    with pytest.raises(ValueError):
        spatial_sample(compile_trace(ZIPF), 1.5)


def test_fifo_mrc_vector_matches_multisim():
    """The single pass equals per-size vector-engine runs."""
    compiled = compile_trace(ZIPF)
    sizes = [8, 32, 128, 500]
    for policy in ("fifo", "sfifo"):
        curve = fifo_mrc(ZIPF, sizes, policy=policy)
        assert curve.sizes == sizes
        for size, ratio in zip(curve.sizes, curve.miss_ratios):
            vector = simulate(
                create_policy(policy, size), compiled, engine="vector"
            )
            assert ratio == vector.miss_ratio, (policy, size)


def test_sampled_mrc_rate_one_is_exact():
    """rate=1.0 must equal exact per-size re-simulation — no sampling
    error at all, whatever ``ensembles`` says."""
    sizes = [16, 64, 256]
    curve = sampled_mrc("s3fifo", ZIPF, sizes, rate=1.0, ensembles=3)
    compiled = compile_trace(ZIPF)
    for size, ratio in zip(curve.sizes, curve.miss_ratios):
        exact = simulate(
            create_policy("s3fifo", size), compiled, engine="scalar"
        )
        assert ratio == exact.miss_ratio, size
