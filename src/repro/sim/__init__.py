"""Trace-driven cache simulation engine.

A miniature libCacheSim: streaming simulation of one policy over one
trace (:func:`simulate`), metric helpers implementing the paper's
miss-ratio-reduction formula (:mod:`repro.sim.metrics`), and a
multiprocessing sweep runner standing in for the authors' distributed
computation platform (:mod:`repro.sim.runner`), which runs each job as
one :func:`simulate` call.  Questions over many cache sizes have one
path each: :func:`multisim` for exact FIFO-family counts, and
:mod:`repro.sim.mrc` for miss-ratio curves.

Attributes are resolved lazily (PEP 562): :mod:`repro.cache.base`
imports :mod:`repro.sim.request` while the simulator imports the
policy base class, and laziness breaks that cycle.
"""

from repro.sim.request import Request, as_request

__all__ = [
    "Request",
    "as_request",
    "SimulationResult",
    "simulate",
    "simulate_compiled",
    "windowed_miss_ratios",
    "miss_ratio_reduction",
    "percentile_summary",
    "SweepJob",
    "SweepResult",
    "SweepReport",
    "FailureSummary",
    "run_sweep",
    "shutdown_pool",
    "MultiSimResult",
    "multisim",
    "fifo_multisim",
    "sfifo_multisim",
]

_LAZY = {
    "SimulationResult": "repro.sim.simulator",
    "simulate": "repro.sim.simulator",
    "simulate_compiled": "repro.sim.simulator",
    "windowed_miss_ratios": "repro.sim.simulator",
    "miss_ratio_reduction": "repro.sim.metrics",
    "percentile_summary": "repro.sim.metrics",
    "SweepJob": "repro.sim.runner",
    "SweepResult": "repro.sim.runner",
    "SweepReport": "repro.sim.runner",
    "FailureSummary": "repro.sim.runner",
    "run_sweep": "repro.sim.runner",
    "shutdown_pool": "repro.sim.runner",
    "MultiSimResult": "repro.sim.multisim",
    "multisim": "repro.sim.multisim",
    "fifo_multisim": "repro.sim.multisim",
    "sfifo_multisim": "repro.sim.multisim",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value
