"""The throughput-vs-hit-ratio frontier through the socket path.

:mod:`repro.experiments.frontier` established the in-process picture:
transport moves the throughput axis, capacity moves the hit-ratio
axis.  This experiment runs the same harness over the network
front-end (:mod:`repro.netsrv`), which adds the last cost layer a
production deployment pays — protocol parsing, socket syscalls, and
the event loop — and the lever that pays it back: **pipelining**.

Four series share one seeded Zipf trace:

* ``inproc``          — the in-process baseline (no server at all).
* ``resp p1``         — RESP over a socket, one command per
  round-trip: the worst case, every GET pays a full socket round-trip.
* ``resp p16``        — RESP with 16 pipelined commands per write;
  consecutive GETs are also fused into one ``get_many`` server-side.
* ``memcached p16``   — the memcached text protocol at the same
  depth, via multi-key ``get`` (its native batching form).

The wire protocol cannot move a point's hit ratio, so protocol and
pipelining effects show purely as vertical shifts: the gap between
``inproc`` and ``resp p1`` is the full network tax; the gap between
``resp p1`` and ``resp p16`` is how much of it pipelining refunds.
Socket series land on *near*-equal hit ratios: request interleaving
across connections wiggles the order slightly, the same effect thread
slicing has in-process.  ``make net-frontier`` writes
``benchmarks/results/net_frontier.txt``.
"""

from __future__ import annotations

import functools
from typing import Tuple

from repro.experiments import frontier
from repro.experiments.frontier import (  # noqa: F401  (the harness's)
    DEFAULT_RATIOS,
    Series,
    format_chart,
    format_table,
)

DEFAULT_SERIES: Tuple[Series, ...] = (
    ("inproc", "I", {}),
    ("resp p1", "R",
     {"frontend": "resp", "connections": 2, "pipeline_depth": 1}),
    ("resp p16", "P",
     {"frontend": "resp", "connections": 2, "pipeline_depth": 16}),
    ("memcached p16", "M",
     {"frontend": "memcached", "connections": 2, "pipeline_depth": 16}),
)

#: The frontier harness over this series set.
run = functools.partial(frontier.run, series=DEFAULT_SERIES)

if __name__ == "__main__":
    frontier.main(DEFAULT_SERIES)
