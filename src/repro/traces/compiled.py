"""Compiled traces: columnar, allocation-free trace storage.

The streaming simulator historically paid Python-object overhead on
every access — a :class:`~repro.sim.request.Request` allocation plus
``isinstance`` dispatch per request — so throughput experiments
measured interpreter overhead more than algorithmic cost.  A
:class:`CompiledTrace` pays that cost exactly once: arbitrary hashable
keys are interned to dense integer ids (first-appearance order) and
the trace is materialized as columnar ``array('q')`` buffers:

* ``keys`` — one dense id per request,
* ``sizes`` — per-request object sizes, or ``None`` for unit-size
  traces (the common case; no buffer is allocated),
* ``next_access`` — optional per-request time of the next access to
  the same key (``-1`` when the key never recurs), the annotation
  Belady-style offline policies need.

Array-backed fast policies consume the id buffers directly (zero
per-request allocation); everything else round-trips through
:meth:`CompiledTrace.iter_requests`, which can reuse a single mutable
:class:`Request` so even the compatibility path allocates nothing per
request.  Interning preserves key *identity* structure exactly, so any
hash-independent policy makes identical decisions on the compiled and
raw forms of a trace.
"""

from __future__ import annotations

import zlib
from array import array
from typing import Hashable, Iterable, Iterator, List, Optional, Union

from repro.sim.request import Request

TraceItem = Union[Request, tuple, Hashable]


class CompiledTrace:
    """A trace interned to dense ids and stored in columnar buffers."""

    __slots__ = (
        "name", "keys", "sizes", "next_access", "key_table",
        "_key_index", "_key_ids", "_id_range", "_occ_index",
    )

    def __init__(
        self,
        keys: array,
        key_table: List[Hashable],
        sizes: Optional[array] = None,
        next_access: Optional[array] = None,
        name: Optional[str] = None,
    ) -> None:
        if sizes is not None and len(sizes) != len(keys):
            raise ValueError("sizes buffer must align with keys")
        if next_access is not None and len(next_access) != len(keys):
            raise ValueError("next_access buffer must align with keys")
        self.keys = keys
        self.key_table = key_table
        self.sizes = sizes
        self.next_access = next_access
        self.name = name
        self._key_index: Optional[dict] = None
        self._key_ids: Optional[list] = None
        self._id_range: Optional[list] = None
        self._occ_index: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.keys)

    @property
    def num_requests(self) -> int:
        return len(self.keys)

    @property
    def num_objects(self) -> int:
        """Number of distinct keys (the trace footprint in objects)."""
        return len(self.key_table)

    @property
    def unit_size(self) -> bool:
        """Whether every request has size 1 (no sizes buffer)."""
        return self.sizes is None

    def nbytes(self) -> int:
        """Memory held by the columnar buffers (excludes the key table)."""
        total = self.keys.itemsize * len(self.keys)
        if self.sizes is not None:
            total += self.sizes.itemsize * len(self.sizes)
        if self.next_access is not None:
            total += self.next_access.itemsize * len(self.next_access)
        return total

    def key_index(self) -> dict:
        """The key -> id dict inverting :attr:`key_table`, built on
        first use and cached; its ids are :meth:`id_range`'s ints.

        Array twins whose slots are this trace's ids use it as their
        own key map (see
        :meth:`~repro.cache.fast_base.FastPolicyBase._slots_for`), so it
        must never be mutated.  :func:`compile_trace` drops the dict it
        interned with rather than keeping it here: built after the
        trace's other columns, it does not raise the peak memory of
        building them.
        """
        index = self._key_index
        if index is None:
            index = self._key_index = dict(
                zip(self.key_table, self.id_range())
            )
        return index

    def key_ids(self) -> list:
        """The id column as a plain list, materialized once and cached.

        Hot batch loops index this instead of :attr:`keys`: a list read
        returns an existing reference, while every ``array('q')`` read
        allocates a fresh int object — at millions of requests per run
        that allocation is the single largest cost.  Costs ~8 bytes per
        request plus one int object per *distinct* id.
        """
        ids = self._key_ids
        if ids is None:
            # Route through a canonical int per id so the list holds
            # shared references instead of one fresh int per request.
            canon = self._id_range = list(range(self.num_objects))
            ids = self._key_ids = [canon[k] for k in self.keys]
        return ids

    def id_range(self) -> list:
        """``list(range(num_objects))`` over the same int objects as
        :meth:`key_ids`, materialized with it and cached: the id ->
        slot map of a batch loop whose slots are the trace's ids."""
        if self._id_range is None:
            self.key_ids()
        return self._id_range

    def occurrence_index(self) -> tuple:
        """CSR index of per-key occurrence positions, built once and cached.

        Returns ``(occ_pos, occ_start)`` where
        ``occ_pos[occ_start[kid]:occ_start[kid + 1]]`` lists, in
        ascending order, every request position at which ``kid``
        occurs.  The vector engine (:mod:`repro.sim.vector`) walks
        these chains to reconstruct lazy hit side-effects (S3-FIFO
        frequency, SIEVE visited bits) and to find the next occurrence
        of an evicted key without re-probing the whole chunk.

        Both columns are plain Python lists: the consumers read single
        elements in tight scalar loops, where list indexing returns an
        existing reference instead of allocating (see :meth:`key_ids`).
        """
        idx = self._occ_index
        if idx is None:
            n = len(self.keys)
            k = self.num_objects
            try:
                import numpy as np
            except ImportError:  # pragma: no cover - numpy is a hard dep
                np = None
            if np is not None and n:
                ids = np.frombuffer(self.keys, dtype=np.int64)
                # Stable sort by id groups positions per key while
                # keeping each group in ascending position order.
                occ_pos = np.argsort(ids, kind="stable").tolist()
                counts = np.bincount(ids, minlength=k)
                starts = np.zeros(k + 1, dtype=np.int64)
                np.cumsum(counts, out=starts[1:])
                occ_start = starts.tolist()
            else:
                buckets: List[list] = [[] for _ in range(k)]
                for i, kid in enumerate(self.keys):
                    buckets[kid].append(i)
                occ_pos = [p for b in buckets for p in b]
                occ_start = [0] * (k + 1)
                acc = 0
                for j, b in enumerate(buckets):
                    acc += len(b)
                    occ_start[j + 1] = acc
            idx = self._occ_index = (occ_pos, occ_start)
        return idx

    def checksum(self) -> str:
        """Stable hex digest of the id/size columns (test fixture aid)."""
        crc = zlib.crc32(self.keys.tobytes())
        if self.sizes is not None:
            crc = zlib.crc32(self.sizes.tobytes(), crc)
        return f"{crc & 0xFFFFFFFF:08x}"

    # ------------------------------------------------------------------
    # Round-trip back to the legacy trace forms
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[TraceItem]:
        """Yield the original trace items: bare keys for unit-size
        traces, ``(key, size)`` tuples otherwise.

        This keeps a :class:`CompiledTrace` drop-in compatible with
        every consumer of raw traces (``len(set(trace))``, analysis
        helpers, re-compilation, ...).
        """
        table = self.key_table
        if self.sizes is None:
            for kid in self.keys:
                yield table[kid]
        else:
            for kid, size in zip(self.keys, self.sizes):
                yield (table[kid], size)

    def iter_requests(self, reuse: bool = False) -> Iterator[Request]:
        """Yield :class:`Request` objects reconstructed from the buffers.

        With ``reuse=True`` a *single* mutable Request is yielded every
        time with its fields rewritten in place — zero per-request
        allocation.  Safe for every policy in this library (policies
        copy ``key``/``size`` into their own entries and never retain
        the Request), but do not store the yielded object.
        """
        table = self.key_table
        sizes = self.sizes
        nxt = self.next_access
        n = len(self.keys)
        if reuse:
            req = Request.__new__(Request)
            for i in range(n):
                req.key = table[self.keys[i]]
                req.size = 1 if sizes is None else sizes[i]
                req.time = 0
                na = -1 if nxt is None else nxt[i]
                req.next_access = None if na < 0 else na
                yield req
        else:
            for i in range(n):
                na = -1 if nxt is None else nxt[i]
                yield Request(
                    table[self.keys[i]],
                    size=1 if sizes is None else sizes[i],
                    next_access=None if na < 0 else na,
                )

    def request_at(self, i: int) -> Request:
        """Reconstruct the ``i``-th request (fresh object)."""
        na = -1 if self.next_access is None else self.next_access[i]
        return Request(
            self.key_table[self.keys[i]],
            size=1 if self.sizes is None else self.sizes[i],
            time=i + 1,
            next_access=None if na < 0 else na,
        )

    # ------------------------------------------------------------------
    # Annotation
    # ------------------------------------------------------------------
    def annotate(self) -> "CompiledTrace":
        """Fill ``next_access`` (in place) and return ``self``.

        Times use the simulator's convention: 1-based request sequence
        numbers, ``-1`` when the key never recurs — matching
        :func:`repro.traces.analysis.annotate_next_access`.
        """
        if self.next_access is not None:
            return self
        n = len(self.keys)
        nxt = array("q", bytes(self.keys.itemsize * n))
        last = [-1] * self.num_objects
        keys = self.keys
        for i in range(n - 1, -1, -1):
            kid = keys[i]
            j = last[kid]
            nxt[i] = -1 if j < 0 else j + 1
            last[kid] = i
        self.next_access = nxt
        return self

    def __repr__(self) -> str:
        label = f"{self.name!r}, " if self.name else ""
        return (
            f"CompiledTrace({label}requests={len(self.keys)}, "
            f"objects={self.num_objects}, "
            f"unit_size={self.sizes is None})"
        )


def compile_trace(
    trace: Iterable[TraceItem],
    name: Optional[str] = None,
    annotate: bool = False,
) -> CompiledTrace:
    """Intern ``trace`` into a :class:`CompiledTrace`.

    ``trace`` may yield anything :func:`repro.sim.simulate` accepts:
    bare hashable keys, ``(key, size)`` tuples, or
    :class:`~repro.sim.request.Request` objects (whose ``next_access``
    annotations are preserved).  Compiling an already-compiled trace
    returns it unchanged.
    """
    if isinstance(trace, CompiledTrace):
        return trace
    ids: dict = {}
    key_table: List[Hashable] = []
    keys = array("q")
    sizes: Optional[array] = None
    next_access: Optional[array] = None
    append_key = keys.append
    for item in trace:
        if isinstance(item, Request):
            key = item.key
            size = item.size
            na = item.next_access
            if na is not None and next_access is None:
                next_access = array("q", [-1] * len(keys))
            if next_access is not None:
                next_access.append(-1 if na is None else na)
        elif isinstance(item, tuple):
            key, size = item[0], item[1]
            if next_access is not None:
                next_access.append(-1)
        else:
            key, size = item, 1
            if next_access is not None:
                next_access.append(-1)
        kid = ids.get(key)
        if kid is None:
            kid = ids[key] = len(key_table)
            key_table.append(key)
        append_key(kid)
        if size != 1 and sizes is None:
            sizes = array("q", [1] * (len(keys) - 1))
            sizes.append(size)
        elif sizes is not None:
            sizes.append(size)
    compiled = CompiledTrace(
        keys, key_table, sizes=sizes, next_access=next_access, name=name
    )
    if annotate:
        compiled.annotate()
    return compiled
