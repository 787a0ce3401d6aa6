"""A loopback TCP echo server: the reference round trip of the RESP workload.

    python3 benchmarks/e2e/echo_server.py 127.0.0.1

It serves with asyncio streams, like the program's server, and echoes
every chunk it reads.  It prints ``echo: listening on HOST:PORT`` once
it accepts connections, and runs until it is terminated.  It belongs to
the benchmark, so a change to the program cannot change its speed.
"""

from __future__ import annotations

import asyncio
import sys


async def _echo(reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
    try:
        while data := await reader.read(1 << 16):
            writer.write(data)
            await writer.drain()
    finally:
        writer.close()


async def main(host: str) -> None:
    server = await asyncio.start_server(_echo, host, 0)
    host, port = server.sockets[0].getsockname()[:2]
    print(f"echo: listening on {host}:{port}", flush=True)
    await server.serve_forever()


if __name__ == "__main__":
    asyncio.run(main(sys.argv[1]))
