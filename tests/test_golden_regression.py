"""Golden regression values: exact miss ratios on a pinned workload.

Every policy's miss ratio on one fixed trace (Zipf(1.0), 1000 objects,
25k requests, seed 1234, cache 100) is pinned to six decimals.  Any
refactor that changes a policy's *decisions* — not just its speed —
fails here, which is the point: eviction-algorithm behaviour changes
must be deliberate and reviewed, never incidental.

If a change is intentional, regenerate the table with::

    python - <<'PY'
    from repro.cache.registry import create_policy, policy_names
    from repro.sim.simulator import simulate
    from repro.traces.analysis import annotate_next_access
    from repro.traces.synthetic import zipf_trace
    trace = zipf_trace(1000, 25_000, alpha=1.0, seed=1234)
    annotated = annotate_next_access(trace)
    for name in policy_names(include_offline=True):
        tr = annotated if name == "belady" else list(trace)
        r = simulate(create_policy(name, capacity=100), tr)
        print(f'    "{name}": {r.miss_ratio:.6f},')
    PY
"""

import pytest

from repro.cache.registry import create_policy
from repro.sim.simulator import simulate
from repro.traces.analysis import annotate_next_access
from repro.traces.synthetic import zipf_trace

GOLDEN = {
    "arc": 0.357480,
    "belady": 0.244520,
    "blru": 0.420720,
    "cacheus": 0.414080,
    "car": 0.353120,
    "clock": 0.407480,
    "clockpro": 0.345040,
    "eelru": 0.420560,
    "fifo": 0.477000,
    "fifo-fast": 0.477000,
    "fifomerge": 0.476400,
    "gdsf": 0.360440,
    "hyperbolic": 0.391840,
    "lecar": 0.420560,
    "lfu": 0.340840,
    "lhd": 0.342600,
    "lirs": 0.358840,
    "lrfu": 0.333040,
    "lru": 0.420560,
    "lru-fast": 0.420560,
    "lruk": 0.353160,
    "mq": 0.320560,
    "random": 0.476560,
    "s3fifo": 0.344640,
    "s3fifo-d": 0.344480,
    "s3fifo-fast": 0.344640,
    "s3fifo-ring": 0.343360,
    "s3sieve": 0.334360,
    "s3variant": 0.344640,
    "sfifo": 0.422440,
    "sieve": 0.329400,
    "sieve-fast": 0.329400,
    "slru": 0.349080,
    "tinylfu": 0.362160,
    "tinylfu-0.1": 0.370080,
    "twoq": 0.365640,
}


#: The seven non-default §6.3 configurations of ``s3variant`` (small
#: queue, main queue, promote-on-hit) on the same trace and capacity.
GOLDEN_S3VARIANT = {
    ("fifo", "fifo", True): 0.344600,
    ("fifo", "lru", False): 0.359640,
    ("fifo", "lru", True): 0.359640,
    ("lru", "fifo", False): 0.344560,
    ("lru", "fifo", True): 0.344560,
    ("lru", "lru", False): 0.359800,
    ("lru", "lru", True): 0.359800,
}


@pytest.fixture(scope="module")
def golden_trace():
    return zipf_trace(num_objects=1000, num_requests=25_000, alpha=1.0,
                      seed=1234)


@pytest.mark.parametrize("policy_name", sorted(GOLDEN))
def test_golden_miss_ratio(policy_name, golden_trace):
    if policy_name == "belady":
        trace = annotate_next_access(golden_trace)
    else:
        trace = list(golden_trace)
    policy = create_policy(policy_name, capacity=100)
    result = simulate(policy, trace)
    assert result.miss_ratio == pytest.approx(
        GOLDEN[policy_name], abs=1e-9
    ), (
        f"{policy_name} decisions changed: {result.miss_ratio:.6f} != "
        f"{GOLDEN[policy_name]:.6f} (regenerate GOLDEN if intentional)"
    )


@pytest.mark.parametrize(
    "config", sorted(GOLDEN_S3VARIANT), ids=lambda c: "S={},M={},hit-promote={}".format(*c)
)
def test_golden_s3variant_configs(config, golden_trace):
    small, main, promote = config
    policy = create_policy(
        "s3variant", capacity=100, small_type=small, main_type=main,
        promote_on_hit=promote,
    )
    result = simulate(policy, list(golden_trace))
    assert result.miss_ratio == pytest.approx(
        GOLDEN_S3VARIANT[config], abs=1e-9
    ), f"{policy.variant_name} decisions changed: {result.miss_ratio:.6f}"


def test_golden_covers_every_registered_policy():
    from repro.cache.registry import policy_names

    assert set(GOLDEN) == set(policy_names(include_offline=True))


def test_golden_orderings():
    """Structural facts the table must keep exhibiting."""
    assert GOLDEN["belady"] == min(GOLDEN.values())
    assert GOLDEN["s3fifo"] < GOLDEN["lru"]
    assert GOLDEN["s3fifo"] < GOLDEN["fifo"]
    assert GOLDEN["s3sieve"] <= GOLDEN["s3fifo"]
    assert GOLDEN["fifo"] == max(GOLDEN.values())


def test_fast_twins_match_references():
    """The ``*-fast`` rewrites are decision-identical, not just close."""
    for ref in ("fifo", "lru", "sieve", "s3fifo"):
        assert GOLDEN[f"{ref}-fast"] == GOLDEN[ref]
