"""Content-addressed disk cache for compiled traces.

Benchmark runs regenerate and re-intern the same seeded synthetic
traces on every invocation; at 1M requests the Python-level generation
plus :func:`~repro.traces.compiled.compile_trace` interning costs more
than the simulation being measured.  This store persists a
:class:`~repro.traces.compiled.CompiledTrace`'s columnar buffers as a
``.npz`` file named by the trace's content checksum, with a small JSON
index mapping caller-chosen *spec keys* (e.g.
``"zipf-a1.4-o100000-n1000000-s42"``) to checksums:

    benchmarks/results/.trace-cache/
        index.json            {spec_key: checksum}
        <checksum>.npz        keys / sizes / key-table columns

The cache is **eviction-free by design**: entries are only ever added,
never aged out.  Each 1M-request unit trace costs ~8 MB (one int64 per
request plus the key table); the benchmark suite's handful of
workloads stays well under 100 MB, and ``make clean-trace-cache``
removes the directory wholesale when reclaiming the space.

Key tables with non-integer keys are stored as JSON; traces whose keys
JSON cannot represent are silently not cached (the factory result is
returned uncached), so arbitrary-hashable traces keep working.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.traces.compiled import CompiledTrace, compile_trace

#: Default cache directory, relative to the working directory (matches
#: the benchmark outputs under ``benchmarks/results/``).
DEFAULT_TRACE_CACHE = Path("benchmarks") / "results" / ".trace-cache"

_INDEX_NAME = "index.json"


def _load_index(cache_dir: Path) -> dict:
    try:
        with open(cache_dir / _INDEX_NAME) as fh:
            index = json.load(fh)
    except (OSError, ValueError):
        return {}
    return index if isinstance(index, dict) else {}


def _write_index(cache_dir: Path, index: dict) -> None:
    tmp = cache_dir / (_INDEX_NAME + ".tmp")
    tmp.write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")
    tmp.replace(cache_dir / _INDEX_NAME)


def store_trace(
    trace: CompiledTrace, cache_dir: Optional[Path] = None
) -> Optional[Path]:
    """Persist ``trace``'s buffers; returns the ``.npz`` path.

    Content-addressed: the filename is the trace's
    :meth:`~repro.traces.compiled.CompiledTrace.checksum`, so identical
    content is stored once no matter how many spec keys point at it.
    Returns ``None`` when the trace cannot be serialized (a key table
    JSON cannot represent).
    """
    table = trace.key_table
    if all(isinstance(k, int) and not isinstance(k, bool) for k in table):
        table_payload = {"table_int": np.asarray(table, dtype=np.int64)}
    else:
        try:
            encoded = json.dumps(table)
        except (TypeError, ValueError):
            return None
        table_payload = {
            "table_json": np.frombuffer(
                encoded.encode("utf-8"), dtype=np.uint8
            )
        }
    cache_dir = Path(cache_dir) if cache_dir else DEFAULT_TRACE_CACHE
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{trace.checksum()}.npz"
    if path.exists():
        return path
    payload = {
        "keys": np.frombuffer(trace.keys, dtype=np.int64),
        **table_payload,
    }
    if trace.sizes is not None:
        payload["sizes"] = np.frombuffer(trace.sizes, dtype=np.int64)
    tmp = path.with_suffix(".npz.tmp")
    with open(tmp, "wb") as fh:
        np.savez(fh, **payload)
    tmp.replace(path)
    return path


def load_trace(
    checksum: str,
    cache_dir: Optional[Path] = None,
    name: Optional[str] = None,
) -> Optional[CompiledTrace]:
    """Rebuild a stored trace by checksum; ``None`` on any miss."""
    cache_dir = Path(cache_dir) if cache_dir else DEFAULT_TRACE_CACHE
    path = cache_dir / f"{checksum}.npz"
    if not path.is_file():
        return None
    from array import array

    try:
        with np.load(path) as data:
            keys = array("q", data["keys"].tobytes())
            sizes = (
                array("q", data["sizes"].tobytes())
                if "sizes" in data
                else None
            )
            if "table_int" in data:
                table = data["table_int"].tolist()
            else:
                table = json.loads(
                    data["table_json"].tobytes().decode("utf-8")
                )
                # JSON round-trips tuples as lists; key tables only
                # ever hold hashables, so any list must go back.
                table = [
                    tuple(k) if isinstance(k, list) else k for k in table
                ]
    except (OSError, ValueError, KeyError):
        return None
    trace = CompiledTrace(keys, table, sizes=sizes, name=name)
    if trace.checksum() != checksum:  # corrupted / truncated file
        return None
    return trace


def cached_compile(
    spec_key: str,
    factory: Callable[[], object],
    cache_dir: Optional[Path] = None,
    name: Optional[str] = None,
) -> CompiledTrace:
    """The compiled trace for ``spec_key``, from disk when possible.

    On a hit, the buffers come straight off the ``.npz`` (checksum
    verified); on a miss, ``factory()`` is invoked, its result compiled
    and stored, and the index updated.  Storage failures degrade to an
    ordinary in-memory compile — the cache is an accelerator, never a
    correctness dependency.
    """
    cache_dir = Path(cache_dir) if cache_dir else DEFAULT_TRACE_CACHE
    index = _load_index(cache_dir)
    checksum = index.get(spec_key)
    if isinstance(checksum, str):
        trace = load_trace(checksum, cache_dir, name=name)
        if trace is not None:
            return trace
    trace = compile_trace(factory(), name=name)
    try:
        path = store_trace(trace, cache_dir)
        if path is not None:
            index = _load_index(cache_dir)  # re-read: cheap, fresher
            index[spec_key] = trace.checksum()
            _write_index(cache_dir, index)
    except OSError:  # read-only checkout, full disk, ...
        pass
    return trace
