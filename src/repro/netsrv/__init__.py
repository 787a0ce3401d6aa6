"""Network front-end: real wire protocols over every cache backend.

This package closes the last gap between "a cache library with a
service layer" and "a cache you can point a stock client at":

* :mod:`repro.netsrv.resp` — incremental RESP2 parser + encoders
  (enough of the Redis protocol for ``redis-cli`` and ``redis-py``).
* :mod:`repro.netsrv.memcached` — incremental memcached text-protocol
  parser (multi-key ``get``/``gets``, ``set``/``delete`` with
  ``noreply``, ``stats``, ``version``, ``quit``).
* :mod:`repro.netsrv.server` — :class:`CacheServer`, one blocking
  thread per connection, speaking both protocols over any backend
  (thread, sharded, mp pipe/shm, cluster), with pipelining,
  connection limits, idle timeouts, graceful drain, fault injection,
  and ``repro_net_*`` metrics; ``start()``/``stop()`` or a ``with``
  block run it from synchronous code.
* :mod:`repro.netsrv.client` — minimal blocking clients (no external
  client libraries needed) used by the conformance tests and the
  load generator's socket mode.

See ``docs/NETWORK.md`` for the protocol coverage matrix and drain
semantics.
"""

from repro.netsrv.client import McClient, McError, RespClient, RespError
from repro.netsrv.memcached import (
    RELATIVE_EXPTIME_CEILING,
    McParser,
    McProtocolError,
)
from repro.netsrv.resp import (
    NIL,
    RespParser,
    RespProtocolError,
    encode_array,
    encode_bulk,
    encode_error,
    encode_integer,
    encode_simple,
)
from repro.netsrv.server import (
    PROTOCOLS,
    SERVER_VERSION,
    CacheServer,
    exptime_to_ttl,
)

__all__ = [
    "CacheServer",
    "PROTOCOLS",
    "SERVER_VERSION",
    "exptime_to_ttl",
    "RespClient",
    "RespError",
    "McClient",
    "McError",
    "RespParser",
    "RespProtocolError",
    "McParser",
    "McProtocolError",
    "RELATIVE_EXPTIME_CEILING",
    "NIL",
    "encode_simple",
    "encode_error",
    "encode_integer",
    "encode_bulk",
    "encode_array",
]
