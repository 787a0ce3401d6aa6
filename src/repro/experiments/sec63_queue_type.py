"""Section 6.3: "LRU or FIFO?" — the queue-type ablation.

S3-FIFO's structure with every combination of FIFO/LRU small and main
queues, plus the promote-on-hit variant.  Reproduced claim: once quick
demotion is in place, the queue type does not matter — LRU queues do
not improve efficiency.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.common import LARGE_CACHE_RATIO, format_rows
from repro.sim.metrics import mean, miss_ratio_reduction
from repro.sim.runner import run_sweep
from repro.traces.datasets import make_dataset_jobs

VARIANTS: List[Dict[str, Any]] = [
    {"label": "S3(S=fifo,M=fifo)", "small_type": "fifo", "main_type": "fifo"},
    {"label": "S3(S=lru,M=fifo)", "small_type": "lru", "main_type": "fifo"},
    {"label": "S3(S=fifo,M=lru)", "small_type": "fifo", "main_type": "lru"},
    {"label": "S3(S=lru,M=lru)", "small_type": "lru", "main_type": "lru"},
    {
        "label": "S3(S=fifo,M=fifo,hit-promote)",
        "small_type": "fifo",
        "main_type": "fifo",
        "promote_on_hit": True,
    },
]


def _variant_kwargs(variant: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in variant.items() if k != "label"}


def run(
    datasets: Optional[Sequence[str]] = None,
    cache_ratio: float = LARGE_CACHE_RATIO,
    scale: float = 1.0,
    processes: Optional[int] = None,
    seed: int = 0,
    traces_per_dataset: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Mean reduction vs FIFO for each queue-type variant."""
    rows: List[Dict[str, Any]] = []
    all_results = []
    jobs = make_dataset_jobs(
        ["fifo"],
        cache_ratio,
        datasets=list(datasets) if datasets else None,
        scale=scale,
        seed=seed,
        traces_per_dataset=traces_per_dataset,
    )
    for variant in VARIANTS:
        variant_jobs = make_dataset_jobs(
            ["s3variant"],
            cache_ratio,
            datasets=list(datasets) if datasets else None,
            scale=scale,
            seed=seed,
            policy_kwargs={"s3variant": _variant_kwargs(variant)},
            traces_per_dataset=traces_per_dataset,
        )
        for job in variant_jobs:
            job.tags["variant"] = variant["label"]
        jobs.extend(variant_jobs)
    all_results = [r for r in run_sweep(jobs, processes=processes) if r.ok]
    fifo_mr = {
        r.trace_name: r.miss_ratio for r in all_results if r.policy == "fifo"
    }
    for variant in VARIANTS:
        reductions = [
            miss_ratio_reduction(fifo_mr[r.trace_name], r.miss_ratio)
            for r in all_results
            if r.tags.get("variant") == variant["label"]
            and r.trace_name in fifo_mr
        ]
        if not reductions:
            continue
        rows.append(
            {
                "variant": variant["label"],
                "mean_reduction": mean(reductions),
                "min_reduction": min(reductions),
                "max_reduction": max(reductions),
                "traces": len(reductions),
            }
        )
    return rows


def format_table(rows: List[Dict[str, Any]] = None) -> str:
    if rows is None:
        rows = run()
    return format_rows(
        rows,
        columns=[
            "variant",
            "mean_reduction",
            "min_reduction",
            "max_reduction",
            "traces",
        ],
        title="Sec. 6.3 — queue-type ablation",
        float_fmt="{:+.3f}",
    )


if __name__ == "__main__":
    print(format_table())
