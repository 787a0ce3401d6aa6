"""Fig. 5 as executable documentation: step-by-step S3-FIFO traces.

The paper's Fig. 5 illustrates how objects flow between S, M, and G.
:func:`walkthrough` replays a request sequence against a real
:class:`~repro.core.s3fifo.S3FifoCache` and records the queue contents
after every request, so the algorithm's behaviour can be printed,
asserted in tests, and studied interactively::

    >>> from repro.core.walkthrough import walkthrough, format_walkthrough
    >>> steps = walkthrough(["a", "b", "a", "c"], capacity=4)
    >>> print(format_walkthrough(steps))  # doctest: +SKIP
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence

from repro.core.s3fifo import QueueType, S3FifoCache


class WalkthroughStep:
    """State snapshot after one request."""

    __slots__ = ("index", "key", "hit", "small", "main", "ghost", "freqs")

    def __init__(
        self,
        index: int,
        key: Hashable,
        hit: bool,
        small: List[Hashable],
        main: List[Hashable],
        ghost: List[Hashable],
        freqs: dict,
    ) -> None:
        self.index = index
        self.key = key
        self.hit = hit
        self.small = small
        self.main = main
        self.ghost = ghost
        self.freqs = freqs

    def __repr__(self) -> str:
        return (
            f"WalkthroughStep({self.index}: {self.key!r} "
            f"{'hit' if self.hit else 'miss'})"
        )


def _ghost_keys(cache: S3FifoCache) -> List[Hashable]:
    # GhostFifo internals: present maps live keys.
    return list(cache.ghost._present)


def _main_keys(cache: S3FifoCache) -> List[Hashable]:
    if cache._main_type is QueueType.SIEVE:
        # SIEVE examines M from its hand, which need not be the tail.
        return [*cache._lap, *cache._passed]
    return list(cache._main)


def walkthrough(
    trace: Sequence[Hashable],
    capacity: int,
    cache: Optional[S3FifoCache] = None,
    **kwargs,
) -> List[WalkthroughStep]:
    """Replay ``trace`` and capture S/M/G after every request.

    Queue listings start at the next eviction candidate: the tail, or a
    SIEVE main queue's hand.  Pass an existing ``cache`` (any S3 queue
    discipline) to continue a walkthrough mid-stream.
    """
    if cache is None:
        cache = S3FifoCache(capacity, **kwargs)
    steps: List[WalkthroughStep] = []
    for i, key in enumerate(trace, start=1):
        hit = cache.access(key)
        freqs = {
            k: entry.freq
            for k, entry in list(cache._small.items())
            + list(cache._main.items())
        }
        steps.append(
            WalkthroughStep(
                index=i,
                key=key,
                hit=hit,
                small=list(cache._small),
                main=_main_keys(cache),
                ghost=_ghost_keys(cache),
                freqs=freqs,
            )
        )
    return steps


def format_walkthrough(steps: Sequence[WalkthroughStep]) -> str:
    """Render the steps as an aligned text table (Fig. 5 in ASCII)."""
    lines = [
        f"{'#':>3}  {'req':>6}  {'':4}  {'S (tail->head)':28}  "
        f"{'M (tail->head)':34}  ghost"
    ]
    for step in steps:
        def fmt(keys):
            return ",".join(
                f"{k}({step.freqs[k]})" if k in step.freqs else str(k)
                for k in keys
            )

        lines.append(
            f"{step.index:>3}  {str(step.key):>6}  "
            f"{'hit ' if step.hit else 'miss'}  "
            f"{fmt(step.small):28}  {fmt(step.main):34}  "
            f"{','.join(map(str, step.ghost))}"
        )
    return "\n".join(lines)


#: The request sequence used by the README / docs walkthrough: a hot
#: object (x) amid one-hit wonders, showing quick demotion, the ghost
#: rescue, and main-queue reinsertion in a dozen steps.
DEMO_TRACE: List[str] = [
    "x", "a", "x", "b", "c", "d", "e",   # x hot, a..e one-hit wonders
    "x", "f", "g", "x", "h",
]


def demo(capacity: int = 6) -> str:
    """The documentation example, rendered."""
    return format_walkthrough(walkthrough(DEMO_TRACE, capacity))


if __name__ == "__main__":
    print(demo())
