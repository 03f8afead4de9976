"""Consistent-hash sharded front-end: linear throughput past one core.

The single-process server coalesces duplicate work but saturates one
CPU.  This module scales it horizontally without giving that up::

    clients ──► ShardedServer (one asyncio process, public port)
                   │ routes by consistent-hashing routing_key
                   ├──► worker 0 (subprocess: full EstimationServer)
                   ├──► worker 1         ...each with its own batcher,
                   └──► worker N-1       ...all sharing one disk cache

Routing is the load-bearing decision.  Every request exposes a
*content-addressed* ``routing_key()`` derived from
:func:`repro.cache.estimate_digest` — instance, mechanism, seed,
estimator params, nothing else (reprolint rule D203 keeps it that way:
no wall clocks, pids or per-process randomness anywhere near shard
selection).  Hashing that key onto a :class:`HashRing` means a given
computation *always* lands on the same worker, so duplicate-skewed
traffic keeps coalescing exactly as it did on one server, while
distinct digests spread across the fleet and run truly in parallel.

Determinism is preserved by construction rather than by care: the
front-end never recomputes anything — worker response bodies are
relayed byte-for-byte (sized responses via :func:`~repro.service.
server._write_raw`, sweep NDJSON lines re-framed chunk-for-chunk), so
a sharded response is the *same bytes* a standalone server would have
produced, for any shard count and any interleaving.

Sweeps fan out: the front-end computes each point's routing key
(:meth:`~repro.service.protocol.SweepRequest.point_routing_keys`,
hashing the instance once, not per point), partitions the index set by
owning shard, forwards the body to each shard with its ``indices``
subset, and merges the workers' NDJSON streams in completion order.  A
shard failing mid-sweep degrades to per-point ``shard_unavailable``
error lines — the stream still terminates with its ``done`` line and
correct count.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
from dataclasses import replace
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from repro.service.protocol import (
    PROTOCOL_VERSION,
    Request,
    ServiceError,
    SweepRequest,
)
from repro.service.server import (
    BackgroundServer,
    ServerConfig,
    _error_from_payload,
    _error_line,
    _FrontDoor,
)
from repro.service.worker import WorkerProcess


class HashRing:
    """Deterministic consistent-hash ring over shard indices.

    Each shard owns ``vnodes`` points on a 64-bit circle, placed by
    SHA-256 of ``"shard:<i>:vnode:<v>"`` — no randomness, so every
    front-end (including a restarted one) builds the identical ring and
    routes identically.  A key maps to the shard owning its clockwise
    successor point; virtual nodes keep the keyspace split near-uniform,
    and growing the fleet by one shard moves only ~1/(N+1) of keys.
    """

    def __init__(self, shards: int, vnodes: int = 64) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.shards = shards
        self.vnodes = vnodes
        points = sorted(
            (self._hash(f"shard:{shard}:vnode:{vnode}"), shard)
            for shard in range(shards)
            for vnode in range(vnodes)
        )
        self._points = [point for point, _ in points]
        self._owners = [shard for _, shard in points]

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")

    def shard_for(self, routing_key: str) -> int:
        """The shard owning ``routing_key`` (clockwise successor point)."""
        index = bisect.bisect_right(self._points, self._hash(routing_key))
        if index == len(self._points):
            index = 0
        return self._owners[index]


def _close_quietly(writer) -> None:
    try:
        writer.close()
    except Exception:
        pass


class _ShardLink:
    """Keep-alive asyncio connections from the front-end to one worker.

    A tiny HTTP/1.1 client speaking exactly the subset the worker
    serves.  Idle connections are pooled; a stale pooled socket (worker
    restarted, kernel reaped it) gets one fresh-connection retry, after
    which failures surface to the caller as ``shard_unavailable``.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._idle: List[Tuple[Any, Any]] = []

    async def _acquire(self) -> Tuple[Any, Any, bool]:
        while self._idle:
            reader, writer = self._idle.pop()
            if writer.is_closing():
                continue
            return reader, writer, True
        reader, writer = await asyncio.open_connection(self.host, self.port)
        return reader, writer, False

    def _release(self, reader, writer) -> None:
        if not writer.is_closing():
            self._idle.append((reader, writer))

    def close(self) -> None:
        for _reader, writer in self._idle:
            _close_quietly(writer)
        self._idle.clear()

    def _request_bytes(self, method: str, path: str, body: bytes) -> bytes:
        return (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n"
            "\r\n"
        ).encode("latin-1") + body

    @staticmethod
    async def _read_head(reader) -> Tuple[int, Dict[str, str]]:
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        return status, headers

    async def _send(
        self, method: str, path: str, body: bytes
    ) -> Tuple[Any, Any, int, Dict[str, str]]:
        """Send on a pooled connection, retrying once on a stale socket."""
        reader, writer, reused = await self._acquire()
        try:
            writer.write(self._request_bytes(method, path, body))
            await writer.drain()
            status, headers = await self._read_head(reader)
        except (OSError, asyncio.IncompleteReadError, ValueError):
            _close_quietly(writer)
            if not reused:
                raise
            reader, writer = await asyncio.open_connection(self.host, self.port)
            try:
                writer.write(self._request_bytes(method, path, body))
                await writer.drain()
                status, headers = await self._read_head(reader)
            except (OSError, asyncio.IncompleteReadError, ValueError):
                _close_quietly(writer)
                raise
        return reader, writer, status, headers

    async def round_trip(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, bytes]:
        """One sized request/response; returns (status, body bytes)."""
        reader, writer, status, headers = await self._send(method, path, body)
        try:
            length = int(headers.get("content-length", "0"))
            payload = await reader.readexactly(length) if length else b""
        except (OSError, ValueError, asyncio.IncompleteReadError):
            _close_quietly(writer)
            raise
        if headers.get("connection", "").lower() == "close":
            _close_quietly(writer)
        else:
            self._release(reader, writer)
        return status, payload

    async def stream(self, path: str, body: bytes) -> AsyncIterator[bytes]:
        """POST a sweep and yield its NDJSON lines as they arrive.

        Yields every line *including* the terminator; de-chunks the
        worker's framing and re-splits on line feeds, so callers see
        exactly the lines the worker wrote.  A non-200 response raises
        the worker's typed error instead of yielding.
        """
        reader, writer, status, headers = await self._send("POST", path, body)
        if status != 200:
            try:
                length = int(headers.get("content-length", "0"))
                payload = await reader.readexactly(length) if length else b""
            except (OSError, ValueError, asyncio.IncompleteReadError):
                _close_quietly(writer)
                raise
            self._release(reader, writer)
            raise _error_from_payload(status, payload)
        if "chunked" not in headers.get("transfer-encoding", "").lower():
            _close_quietly(writer)
            raise ValueError("worker sweep response was not chunked")
        buffer = b""
        finished = False
        try:
            while True:
                size_line = await reader.readline()
                size = int(size_line.strip() or b"0", 16)
                if size == 0:
                    await reader.readexactly(2)  # trailing CRLF
                    break
                buffer += await reader.readexactly(size)
                await reader.readexactly(2)  # chunk CRLF
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    yield line + b"\n"
            finished = True
        finally:
            if finished:
                self._release(reader, writer)
            else:  # abandoned mid-stream: unread tail poisons the socket
                _close_quietly(writer)


class ShardedServer(_FrontDoor):
    """The consistent-hash front-end over a fleet of worker processes.

    Speaks the exact protocol of :class:`~repro.service.server.
    EstimationServer` on its public port — clients cannot tell (and the
    determinism test suite checks they cannot tell) whether they hit a
    standalone server or a fleet.  ``config`` doubles as the worker
    config: each worker gets a copy with ``port=0`` on loopback, and
    all of them share ``config.cache_dir`` (safe: the cache's claim
    protocol is multi-process atomic).
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        shards: int = 2,
        vnodes: int = 64,
    ) -> None:
        super().__init__(config or ServerConfig())
        self.shards = shards
        self.ring = HashRing(shards, vnodes)
        self._workers: List[WorkerProcess] = []
        self._links: List[_ShardLink] = []

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Boot the fleet (concurrently), then bind the public port."""
        worker_config = replace(self.config, host="127.0.0.1", port=0)
        self._workers = [WorkerProcess(worker_config) for _ in range(self.shards)]
        loop = asyncio.get_running_loop()
        try:
            for worker in self._workers:
                worker.spawn()
            await asyncio.gather(
                *(
                    loop.run_in_executor(None, worker.await_ready)
                    for worker in self._workers
                )
            )
        except BaseException:
            self._stop_workers()
            raise
        self._links = [
            _ShardLink("127.0.0.1", worker.port) for worker in self._workers
        ]
        await self._listen()

    def _stop_workers(self) -> None:
        for worker in self._workers:
            worker.stop()

    async def shutdown(self, timeout: Optional[float] = None) -> None:
        """Stop accepting, close connections, SIGINT the fleet.

        Workers drain their own in-flight batches under their own
        ``shutdown_timeout`` — the front-end only has to get out of the
        way and then reap them.
        """
        if self._closing:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        for link in self._links:
            link.close()
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            *(
                loop.run_in_executor(None, worker.stop)
                for worker in self._workers
            )
        )

    # -- request handling --------------------------------------------------

    async def _run_single(
        self, op: str, path: str, request: Request, body: bytes
    ) -> Tuple[int, bytes, Any]:
        """Route one sized request to its shard; relay the bytes back.

        An attack's result is decoded as well, so the fleet's attack
        counters match the sum over its shards.
        """
        shard = self.ring.shard_for(request.routing_key())
        self.metrics.record_routed(shard)
        try:
            status, payload = await self._links[shard].round_trip(
                "POST", path, body
            )
        except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
            raise ServiceError(
                "shard_unavailable",
                f"shard {shard} is unreachable: {type(exc).__name__}: {exc}",
            ) from None
        result = None
        if op == "attack" and status == 200:
            result = json.loads(payload)["result"]
        return status, payload, result

    def _sweep_lines(
        self, request: SweepRequest, data: Dict[str, Any]
    ) -> Tuple[AsyncIterator[bytes], int, List[asyncio.Future]]:
        """Fan a sweep out across shards and merge the streams.

        Each shard receives the original body with ``indices`` replaced
        by the subset of points that consistent-hash onto it, and each
        resulting NDJSON line is re-framed to the client verbatim as it
        arrives — completion order across the whole fleet.  A failing
        shard degrades to typed per-point error lines; the stream still
        ends with an honest ``done`` terminator.
        """
        keys = request.point_routing_keys()
        indices = request.point_indices()
        by_shard: Dict[int, List[int]] = {}
        for index in indices:
            shard = self.ring.shard_for(keys[index])
            by_shard.setdefault(shard, []).append(index)
            self.metrics.record_routed(shard)
        queue: asyncio.Queue = asyncio.Queue()
        tasks = [
            asyncio.ensure_future(
                self._pump_shard(shard, shard_indices, data, queue)
            )
            for shard, shard_indices in sorted(by_shard.items())
        ]

        async def lines() -> AsyncIterator[bytes]:
            active = len(tasks)
            while active:
                line = await queue.get()
                if line is None:
                    active -= 1
                else:
                    yield line

        return lines(), len(indices), tasks

    async def _pump_shard(
        self,
        shard: int,
        shard_indices: List[int],
        data: Dict[str, Any],
        queue: asyncio.Queue,
    ) -> None:
        """Stream one shard's slice of the sweep into the merge queue.

        Forwards worker lines byte-verbatim (minus each shard's own
        ``done`` terminator — the front-end writes the fleet-wide one).
        On shard failure, every not-yet-delivered point gets a typed
        ``shard_unavailable`` error line so counts stay honest.
        """
        emitted: set = set()
        body = json.dumps(dict(data, indices=shard_indices)).encode()
        try:
            async for line in self._links[shard].stream("/v1/sweep", body):
                parsed = json.loads(line)
                if parsed.get("done"):
                    break
                if isinstance(parsed.get("i"), int):
                    emitted.add(parsed["i"])
                await queue.put(line)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            if not isinstance(exc, ServiceError):
                exc = ServiceError(
                    "shard_unavailable",
                    f"shard {shard} failed mid-sweep: "
                    f"{type(exc).__name__}: {exc}",
                )
            error = self._typed(exc)
            for index in shard_indices:
                if index not in emitted:
                    await queue.put(_error_line(index, error))
        finally:
            await queue.put(None)

    # -- introspection -----------------------------------------------------

    async def _probe(self, shard: int, path: str) -> Optional[Dict[str, Any]]:
        try:
            status, payload = await self._links[shard].round_trip("GET", path)
            if status != 200:
                return None
            data = json.loads(payload)
            return data if isinstance(data, dict) else None
        except Exception:
            return None

    async def _healthz_payload(self) -> Dict[str, Any]:
        probes = await asyncio.gather(
            *(self._probe(shard, "/healthz") for shard in range(self.shards))
        )
        alive = sum(1 for probe in probes if probe and probe.get("ok"))
        if self._closing:
            status = "shutting_down"
        else:
            status = "serving" if alive == self.shards else "degraded"
        return {
            "v": PROTOCOL_VERSION,
            "ok": alive == self.shards and not self._closing,
            "status": status,
            "shards": {"count": self.shards, "alive": alive},
        }

    async def _metrics_payload(self) -> Dict[str, Any]:
        probes = await asyncio.gather(
            *(self._probe(shard, "/metrics") for shard in range(self.shards))
        )
        snapshot = self.metrics.snapshot()
        snapshot["sharding"] = {
            "shards": self.shards,
            "vnodes": self.ring.vnodes,
            "workers": [
                {
                    "shard": shard,
                    "port": worker.port,
                    "alive": worker.alive,
                }
                for shard, worker in enumerate(self._workers)
            ],
            "per_shard": [
                probe.get("metrics") if probe else None for probe in probes
            ],
        }
        return {"v": PROTOCOL_VERSION, "ok": True, "metrics": snapshot}


async def run_sharded_server(
    config: Optional[ServerConfig] = None,
    shards: int = 2,
    vnodes: int = 64,
    ready=None,
) -> None:
    """Start a sharded front-end and run until cancelled (CLI entry)."""
    server = ShardedServer(config, shards=shards, vnodes=vnodes)
    await server.start()
    if ready is not None:
        ready(server)
    try:
        await server.serve_forever()
    finally:
        await server.shutdown()


class BackgroundShardedServer(BackgroundServer):
    """A :class:`ShardedServer` on its own thread (tests & benchmarks)."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        shards: int = 2,
        vnodes: int = 64,
    ) -> None:
        super().__init__(config)
        self.shards = shards
        self.vnodes = vnodes

    def _make_server(self):
        return ShardedServer(
            self.config, shards=self.shards, vnodes=self.vnodes
        )
