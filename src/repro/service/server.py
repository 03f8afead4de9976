"""The estimation server: asyncio JSON-over-HTTP on the stdlib only.

One long-lived process owns every warm cache the library has grown —
interned instances with their compiled views, per-group
:class:`~repro.voting.montecarlo.BatchEstimator` profile caches, and an
optional persistent :class:`~repro.cache.EstimateCache` — and serves
estimates over five endpoints:

* ``POST /v1/estimate`` / ``/v1/gain`` / ``/v1/ballot`` — one estimate,
  routed through the coalescing micro-batcher
  (:mod:`repro.service.batcher`);
* ``POST /v1/experiment`` — one registered experiment table;
* ``POST /v1/sweep`` — many seeds over one (instance, mechanism,
  params); the response *streams* as chunked NDJSON, one line per
  completed point, so grids never buffer server-side;
* ``GET /healthz`` — liveness; ``GET /metrics`` — counters, batch
  shape, queue depth, latency quantiles and cache statistics.

**Determinism contract.**  A served estimate is bit-identical to the
same call made directly against the library API with the same
``(instance, mechanism, seed, estimator params)``, cache-warm or cold:
requests carry explicit integer seeds, instances round-trip exactly
through :mod:`repro.io`, estimates are ``n_jobs``-invariant (so the
server may parallelise freely), shared estimators only reuse *exact*
profile-cache values, and JSON float serialisation round-trips every
double.  The test suite pins this end to end.

The HTTP layer is a deliberately small HTTP/1.1 subset (keep-alive,
``Content-Length`` bodies, chunked transfer-encoding for sweep
streams only) — enough for the JSON protocol without pulling in a
framework the container doesn't have.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from repro.cache import EstimateCache, label_cache_ops
from repro.incremental.edits import batch_digest
from repro.service.batcher import BatchPolicy, CoalescingBatcher, Outcome
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    MAX_PAYLOAD_BYTES,
    PROTOCOL_VERSION,
    AttackRequest,
    DeltaRequest,
    EstimateRequest,
    ExperimentRequest,
    Request,
    ServiceError,
    SweepRequest,
    gain_payload,
    instance_pool,
    mechanism_pool,
    ok_payload,
    parse_body,
    parse_request,
)

ROUTES = {
    "/v1/estimate": "estimate",
    "/v1/gain": "gain",
    "/v1/ballot": "ballot",
    "/v1/experiment": "experiment",
    "/v1/sweep": "sweep",
    "/v1/delta": "delta",
    "/v1/attack": "attack",
}

def _ndjson(payload: Dict[str, Any]) -> bytes:
    """One NDJSON line: compact JSON plus the line feed that frames it."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


def _error_line(index: int, error: ServiceError) -> bytes:
    """The NDJSON line reporting one failed sweep point."""
    return _ndjson(
        {
            "i": index,
            "ok": False,
            "error": {"code": error.code, "message": error.message},
        }
    )


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


# -- HTTP plumbing (shared by the server and the shard front-end) ----------


def _parse_http_head(head: bytes) -> Optional[Tuple[str, str, Dict[str, str]]]:
    try:
        lines = head.decode("latin-1").split("\r\n")
        method, path, _version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError):
        return None
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            return None
        headers[name.strip().lower()] = value.strip()
    return method.upper(), path, headers


async def _write_raw(writer, status: int, body: bytes, keep: bool = True) -> None:
    """One sized response; ``body`` bytes go over the wire verbatim.

    Verbatim matters: the shard front-end relays worker response bodies
    through here untouched, which is what makes sharded responses
    bitwise-identical to single-server (and direct-library) ones.
    """
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep else 'close'}\r\n"
        "\r\n"
    ).encode("latin-1")
    try:
        writer.write(head + body)
        await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass


async def _write_json(
    writer, status: int, payload: Dict[str, Any], keep: bool = True
) -> None:
    await _write_raw(writer, status, json.dumps(payload).encode(), keep=keep)


async def _write_stream_head(writer, keep: bool = True) -> None:
    head = (
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: application/x-ndjson\r\n"
        "Transfer-Encoding: chunked\r\n"
        f"Connection: {'keep-alive' if keep else 'close'}\r\n"
        "\r\n"
    ).encode("latin-1")
    writer.write(head)
    await writer.drain()


async def _write_chunk(writer, data: bytes) -> None:
    """One HTTP chunk (empty ``data`` writes the terminal chunk).

    Unlike :func:`_write_raw` this *propagates* connection failures —
    a dead client must abort the stream, not silently discard it.
    """
    if data:
        writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
    else:
        writer.write(b"0\r\n\r\n")
    await writer.drain()


async def _http_connection_loop(
    reader, writer, max_payload: int, serve_one, fail
) -> None:
    """The keep-alive request loop one connection runs until it dies.

    Framing-level failures (oversized head, bad Content-Length, bodies
    past ``max_payload``) are answered with typed errors and close the
    connection — it cannot be resynced after them; an oversized body
    goes through ``fail(writer, error, keep)``, the server's counted
    error path.  Each well-framed request goes to ``serve_one(method,
    path, headers, body, writer, keep) -> bool``, which writes its own
    response and returns whether the connection is still usable.
    """
    try:
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except (
                asyncio.IncompleteReadError,
                ConnectionResetError,
                BrokenPipeError,
            ):
                break
            except asyncio.LimitOverrunError:
                error = ServiceError("bad_request", "request head too large")
                await _write_json(writer, 431, error.payload(), keep=False)
                break
            parsed = _parse_http_head(head)
            if parsed is None:
                error = ServiceError("bad_request", "malformed HTTP request")
                await _write_json(writer, 400, error.payload(), keep=False)
                break
            method, path, headers = parsed
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError:
                error = ServiceError("bad_request", "invalid Content-Length")
                await _write_json(writer, 400, error.payload(), keep=False)
                break
            if length > max_payload:
                # Typed 413 without reading (or buffering) the body;
                # the connection cannot be resynced, so close it.
                error = ServiceError(
                    "payload_too_large",
                    f"request body is {length} bytes (limit {max_payload})",
                )
                await fail(writer, error, False)
                break
            try:
                body = await reader.readexactly(length) if length else b""
            except (asyncio.IncompleteReadError, ConnectionResetError):
                break
            keep = headers.get("connection", "").lower() != "close"
            keep = await serve_one(method, path, headers, body, writer, keep)
            if not keep:
                break
    except asyncio.CancelledError:  # server shutdown closed us
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (Exception, asyncio.CancelledError):
            pass


@dataclass
class ServerConfig:
    """Everything the server runtime is parameterised by.

    ``n_jobs`` is the process-pool fan-out *inside* one estimate
    (results are ``n_jobs``-invariant); ``workers`` is the thread pool
    bridging the event loop to those (blocking) library calls.
    ``share_estimators=False`` disables the warm per-group estimator
    pool — the un-coalesced baseline the service benchmark measures
    against.  ``sweep_window`` caps how many points of one
    streaming sweep may be in flight at once, keeping grid-sized
    requests from monopolising the batcher queue.
    """

    host: str = "127.0.0.1"
    port: int = 8577
    n_jobs: int = 1
    workers: int = 4
    max_batch: int = 32
    max_delay: float = 0.002
    max_queue: int = 512
    coalesce: bool = True
    request_timeout: float = 60.0
    max_payload: int = MAX_PAYLOAD_BYTES
    cache_dir: Optional[str] = None
    cache_max_entries: Optional[int] = None
    default_target_se: Optional[float] = None
    share_estimators: bool = True
    estimator_pool_size: int = 16
    delta_pool_size: int = 8
    intern_pool_size: int = 64
    shutdown_timeout: float = 10.0
    sweep_window: int = 128

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.sweep_window < 1:
            raise ValueError(
                f"sweep_window must be >= 1, got {self.sweep_window}"
            )
        if self.request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be positive, got {self.request_timeout}"
            )
        if self.default_target_se is not None and not self.default_target_se > 0:
            raise ValueError(
                f"default_target_se must be positive, got {self.default_target_se}"
            )

    def batch_policy(self) -> BatchPolicy:
        return BatchPolicy(
            max_batch=self.max_batch,
            max_delay=self.max_delay,
            max_queue=self.max_queue,
            coalesce=self.coalesce,
        )


def _error_from_payload(status: int, payload: bytes) -> ServiceError:
    """Rebuild a typed error from a relayed JSON error body."""
    try:
        error = json.loads(payload)["error"]
        return ServiceError(error["code"], str(error.get("message", "")))
    except (KeyError, TypeError, ValueError):
        return ServiceError("shard_unavailable", f"worker returned HTTP {status}")


class _FrontDoor:
    """What both servers share: the listener, admission and accounting.

    Every request arrives through :meth:`_serve_one`.  POSTs are
    admitted by :meth:`_admit`, failures of any kind leave through
    :meth:`_fail` as typed errors, and successes are counted by
    :meth:`_complete` — so ``/metrics`` means the same thing on a
    standalone server and on a sharded front-end.  Subclasses supply the
    work: :meth:`_run_single` (one sized response) and
    :meth:`_sweep_lines` (a sweep's NDJSON lines), plus the ``/healthz``
    and ``/metrics`` payloads.
    """

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.metrics = ServiceMetrics()
        self._instances = instance_pool(config.intern_pool_size)
        self._mechanisms = mechanism_pool(config.intern_pool_size)
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self._closing = False
        self._port: Optional[int] = None

    async def _listen(self) -> None:
        """Bind the public port (port 0 picks a free one)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._port = self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        """The actually-bound port (differs from config when it was 0)."""
        if self._port is None:
            raise RuntimeError("server has not been started")
        return self._port

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("server has not been started")
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:  # normal shutdown path
            pass

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            await _http_connection_loop(
                reader, writer, self.config.max_payload, self._serve_one,
                self._fail,
            )
        finally:
            self._conn_tasks.discard(task)

    # -- admission and accounting -----------------------------------------

    def _admit(self, op: str, path: str, body: bytes) -> Tuple[Request, Dict[str, Any]]:
        """The admission sequence every POST runs before any work.

        Counts the arrival, refuses work while draining, decodes the
        envelope, checks the body's op against the route, parses the
        request and fills in the server-level ``target_se`` default —
        before any coalesce or routing key is computed, so an explicit
        ``target_se=x`` and an omitted one under default ``x`` coalesce,
        share cache entries and route to the same shard.  Returns the
        request and its decoded body.
        """
        self.metrics.record_request(op)
        if self._closing:
            raise ServiceError(
                "shutting_down", "server is draining and not accepting work"
            )
        data = parse_body(body, self.config.max_payload)
        if data["op"] != op:
            raise ServiceError(
                "bad_request",
                f"body op {data['op']!r} does not match route {path!r}",
            )
        request = parse_request(data, self._instances, self._mechanisms)
        default = self.config.default_target_se
        # Attack searches run fixed-rounds and have no target_se.
        if default is not None and getattr(request, "target_se", default) is None:
            request = replace(request, target_se=default)
        return request, data

    def _typed(self, exc: BaseException) -> ServiceError:
        """``exc`` as a typed error (``internal`` unless it is one), counted."""
        if not isinstance(exc, ServiceError):
            # Defensive: never leak a traceback.
            exc = ServiceError("internal", f"{type(exc).__name__}: {exc}")
        self.metrics.record_error(exc.code)
        return exc

    async def _fail(self, writer, exc: BaseException, keep: bool) -> bool:
        """The error path: count ``exc``'s typed code and write its response."""
        error = self._typed(exc)
        await _write_json(writer, error.http_status, error.payload(), keep=keep)
        return keep

    def _complete(self, op: str, start: float, result: Any = None) -> None:
        """Count one successful response (and, for attacks, its outcome)."""
        self.metrics.record_completed(op, time.perf_counter() - start)
        if op == "attack" and isinstance(result, dict):
            self.metrics.record_attack(
                str(result.get("scenario")), bool(result.get("found"))
            )

    # -- request handling --------------------------------------------------

    async def _serve_one(
        self, method: str, path: str, headers: Dict[str, str],
        body: bytes, writer, keep: bool,
    ) -> bool:
        if method == "GET" and path == "/healthz":
            await _write_json(writer, 200, await self._healthz_payload(), keep=keep)
            return keep
        if method == "GET" and path == "/metrics":
            await _write_json(writer, 200, await self._metrics_payload(), keep=keep)
            return keep
        op = ROUTES.get(path)
        if op is None or method != "POST":
            error = ServiceError("not_found", f"no route for {method} {path}")
            return await self._fail(writer, error, keep)
        start = time.perf_counter()
        try:
            request, data = self._admit(op, path, body)
            if op == "sweep":
                lines, count, tasks = self._sweep_lines(request, data)
            else:
                status, payload, result = await self._run_single(
                    op, path, request, body
                )
        except Exception as exc:
            return await self._fail(writer, exc, keep)
        if op == "sweep":
            return await self._stream(writer, keep, lines, count, tasks, start)
        if status == 200:
            self._complete(op, start, result)
        else:  # a relayed error keeps its typed code
            self.metrics.record_error(_error_from_payload(status, payload).code)
        await _write_raw(writer, status, payload, keep=keep)
        return keep

    async def _stream(
        self, writer, keep: bool, lines: AsyncIterator[bytes], count: int,
        tasks: List[asyncio.Future], start: float,
    ) -> bool:
        """Write a sweep's lines as one chunked NDJSON stream.

        Lines go out as they complete — completion order, not index
        order; clients reassemble by the ``i`` field — followed by a
        ``{"done": true, "n": count}`` terminator whose absence signals a
        truncated stream.  Returns whether the connection is still
        usable for keep-alive.
        """
        intact = True
        try:
            await _write_stream_head(writer, keep=keep)
            async for line in lines:
                await _write_chunk(writer, line)
            await _write_chunk(
                writer, _ndjson({"v": PROTOCOL_VERSION, "done": True, "n": count})
            )
            await _write_chunk(writer, b"")  # terminal chunk
        except (ConnectionResetError, BrokenPipeError):
            intact = False  # client went away mid-stream
        finally:
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        if intact:
            self._complete("sweep", start)
        return keep and intact

    async def _run_single(
        self, op: str, path: str, request: Request, body: bytes
    ) -> Tuple[int, bytes, Any]:
        """Serve one admitted request: (HTTP status, body, result or None)."""
        raise NotImplementedError

    def _sweep_lines(
        self, request: SweepRequest, data: Dict[str, Any]
    ) -> Tuple[AsyncIterator[bytes], int, List[asyncio.Future]]:
        """Start an admitted sweep: (its lines, point count, tasks to reap)."""
        raise NotImplementedError

    async def _healthz_payload(self) -> Dict[str, Any]:
        raise NotImplementedError

    async def _metrics_payload(self) -> Dict[str, Any]:
        raise NotImplementedError


class EstimationServer(_FrontDoor):
    """The serving runtime; see the module docstring for the contract."""

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        super().__init__(config or ServerConfig())
        self.cache = (
            EstimateCache(
                self.config.cache_dir, max_entries=self.config.cache_max_entries
            )
            if self.config.cache_dir is not None
            else None
        )
        self._estimators: "OrderedDict[str, Any]" = OrderedDict()
        self._estimators_lock = threading.Lock()
        # Warm DeltaSession pool: session token -> (applied batch digests,
        # session).  Checkout is exclusive (pop), like the estimator pool.
        self._delta_sessions: "OrderedDict[str, Tuple[Tuple[str, ...], Any]]" = (
            OrderedDict()
        )
        self._delta_lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._batcher: Optional[CoalescingBatcher] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (port 0 picks a free port)."""
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-service"
        )
        self._batcher = CoalescingBatcher(
            self.config.batch_policy(),
            self._execute_group,
            self._executor,
            metrics=self.metrics,
        )
        await self._listen()

    async def shutdown(self, timeout: Optional[float] = None) -> None:
        """Graceful stop: drain in-flight work, then close connections.

        While draining, the listener keeps accepting so late requests
        receive typed ``shutting_down`` errors instead of connection
        resets; requests still unresolved after ``timeout`` fail the
        same way.
        """
        if self._closing:
            return
        self._closing = True
        timeout = self.config.shutdown_timeout if timeout is None else timeout
        if self._batcher is not None:
            await self._batcher.drain(timeout)
        if self._conn_tasks:
            # Let dispatchers woken by drain's typed failures write their
            # 503s before the connections are torn down.
            await asyncio.sleep(0.05)
        if self._server is not None:
            self._server.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)

    # -- request dispatch --------------------------------------------------

    async def _submit(self, request: Request, what: str) -> Any:
        """Run ``request`` through the coalescing batcher, under the deadline."""
        future = self._batcher.submit(
            request, request.coalesce_key(), request.group_key()
        )
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), self.config.request_timeout
            )
        except asyncio.TimeoutError:
            raise ServiceError(
                "timeout",
                f"{what} exceeded {self.config.request_timeout}s "
                "(the computation keeps running; an identical retry "
                "coalesces onto it)",
            ) from None

    async def _run_single(
        self, op: str, path: str, request: Request, body: bytes
    ) -> Tuple[int, bytes, Any]:
        result = await self._submit(request, "request")
        return 200, json.dumps(ok_payload(result)).encode(), result

    def _sweep_lines(
        self, request: SweepRequest, data: Dict[str, Any]
    ) -> Tuple[AsyncIterator[bytes], int, List[asyncio.Future]]:
        """One task per point, at most ``sweep_window`` in flight.

        Each point is an independent :class:`EstimateRequest` submitted
        through the same coalescing batcher as single estimates; the
        window keeps a 10^5-point grid from flooding the queue.
        """
        indices = request.point_indices()
        window = asyncio.Semaphore(self.config.sweep_window)
        tasks = [
            asyncio.ensure_future(self._run_point(request, index, window))
            for index in indices
        ]

        async def lines() -> AsyncIterator[bytes]:
            for done in asyncio.as_completed(tasks):
                yield await done

        return lines(), len(indices), tasks

    async def _run_point(
        self, request: SweepRequest, index: int, window: asyncio.Semaphore
    ) -> bytes:
        """One sweep point → its NDJSON line (errors become error lines)."""
        point = request.point(index)
        try:
            async with window:
                result = await self._submit(point, f"sweep point {index}")
        except Exception as exc:
            return _error_line(index, self._typed(exc))
        return _ndjson({"i": index, "ok": True, "result": result})

    async def _healthz_payload(self) -> Dict[str, Any]:
        return {
            "v": PROTOCOL_VERSION,
            "ok": True,
            "status": "shutting_down" if self._closing else "serving",
        }

    async def _metrics_payload(self) -> Dict[str, Any]:
        snapshot = self.metrics.snapshot()
        snapshot["queue"] = {
            "depth": self._batcher.queue_depth if self._batcher else 0,
            "outstanding": self._batcher.outstanding if self._batcher else 0,
            "high_water": self.config.max_queue,
            "rejected_total": self._batcher.rejected_total if self._batcher else 0,
        }
        snapshot["estimate_cache"] = (
            self.cache.stats() if self.cache is not None else None
        )
        snapshot["pools"] = {
            "interned_instances": len(self._instances),
            "interned_mechanisms": len(self._mechanisms),
            "warm_estimators": len(self._estimators),
            "warm_delta_sessions": len(self._delta_sessions),
            "workers": self.config.workers,
            "n_jobs": self.config.n_jobs,
        }
        return {"v": PROTOCOL_VERSION, "ok": True, "metrics": snapshot}

    # -- group execution (worker threads) ----------------------------------

    def _checkout_estimator(self, group_key: Optional[str]):
        from repro.voting.montecarlo import BatchEstimator

        if group_key is not None and self.config.share_estimators:
            with self._estimators_lock:
                cached = self._estimators.pop(group_key, None)
            if cached is not None:
                return cached
        return BatchEstimator(n_jobs=self.config.n_jobs)

    def _return_estimator(self, group_key: Optional[str], estimator) -> None:
        if group_key is None or not self.config.share_estimators:
            return
        with self._estimators_lock:
            # Exclusive checkout: a concurrent group under the same key
            # built its own estimator; last one back wins the pool slot.
            self._estimators[group_key] = estimator
            self._estimators.move_to_end(group_key)
            while len(self._estimators) > self.config.estimator_pool_size:
                self._estimators.popitem(last=False)

    def _execute_group(self, requests: List[Request]) -> List[Outcome]:
        """Serve one micro-batch in arrival order on one warm estimator."""
        first = requests[0]
        group_key = (
            first.group_key() if isinstance(first, EstimateRequest) else None
        )
        estimator = self._checkout_estimator(group_key)
        outcomes: List[Outcome] = []
        try:
            for request in requests:
                # Sweep points carry via="sweep"; everything else is
                # charged to its own op — the per-op cache statistics
                # `repro info` and /metrics report.
                label = getattr(request, "via", None) or request.op
                try:
                    with label_cache_ops(label):
                        outcomes.append(("ok", self._run_one(request, estimator)))
                except ServiceError as error:
                    outcomes.append(("error", error))
                except Exception as exc:
                    outcomes.append(
                        (
                            "error",
                            ServiceError(
                                "internal", f"{type(exc).__name__}: {exc}"
                            ),
                        )
                    )
        finally:
            self._return_estimator(group_key, estimator)
        return outcomes

    def _run_one(self, request: Request, estimator) -> Any:
        from repro.voting.montecarlo import (
            estimate_ballot_probability,
            estimate_correct_probability,
            estimate_gain,
        )

        if isinstance(request, DeltaRequest):
            return self._serve_delta_request(request)
        if isinstance(request, AttackRequest):
            return self._serve_attack_request(request)
        if isinstance(request, ExperimentRequest):
            from repro.experiments import ExperimentConfig, get_experiment
            from repro.io import result_to_dict

            try:
                runner = get_experiment(request.experiment)
            except KeyError as exc:
                raise ServiceError("not_found", str(exc)) from None
            config = ExperimentConfig(
                seed=request.seed,
                scale=request.scale,
                n_jobs=self.config.n_jobs,
                target_se=request.target_se,
                cache_dir=self.config.cache_dir,
            )
            return result_to_dict(runner(config))
        kwargs: Dict[str, Any] = dict(
            rounds=request.rounds,
            seed=request.seed,
            tie_policy=request.tie_policy,
            n_jobs=self.config.n_jobs,
            target_se=request.target_se,
            max_rounds=request.max_rounds,
            cache=self.cache,
        )
        if request.op == "ballot":
            return estimate_ballot_probability(
                request.instance, request.mechanism, **kwargs
            ).to_dict()
        kwargs["exact_conditional"] = request.exact_conditional
        kwargs["estimator"] = estimator
        if request.op == "gain":
            gain, est, direct = estimate_gain(
                request.instance, request.mechanism, **kwargs
            )
            return gain_payload(gain, est, direct)
        return estimate_correct_probability(
            request.instance, request.mechanism, **kwargs
        ).to_dict()

    def _serve_delta_request(self, request: DeltaRequest) -> Any:
        """Serve one delta request from the warm-session pool.

        Checkout is exclusive; the request's edit chain is matched
        against the session's applied chain by per-batch digests and
        only the unseen suffix is applied (the longest-prefix reuse
        that makes resent-whole-chain clients cheap).  A chain that
        diverges — or an empty pool slot — costs one rebuild on the
        base instance, never a wrong answer: the session is a pure
        function of (base, chain).  Sessions whose edits fail validation
        mid-apply are discarded, not returned to the pool.
        """
        from repro.incremental.session import DeltaSession

        token = request.session_token()
        digests = tuple(batch_digest(list(batch)) for batch in request.edits)
        with self._delta_lock:
            entry = self._delta_sessions.pop(token, None)
        session = None
        applied: Tuple[str, ...] = ()
        if entry is not None and entry[0] == digests[: len(entry[0])]:
            applied, session = entry
        try:
            if session is None:
                session = DeltaSession(
                    request.instance,
                    request.mechanism,
                    rounds=request.rounds,
                    seed=request.seed,
                    engine=request.engine,
                    tie_policy=request.tie_policy,
                    cache=self.cache,
                )
            for batch in request.edits[len(applied):]:
                session.apply(batch)
            estimate = session.estimate(
                target_se=request.target_se, max_rounds=request.max_rounds
            )
        except ValueError as exc:
            raise ServiceError("bad_request", str(exc)) from None
        with self._delta_lock:
            self._delta_sessions[token] = (digests, session)
            self._delta_sessions.move_to_end(token)
            while len(self._delta_sessions) > self.config.delta_pool_size:
                self._delta_sessions.popitem(last=False)
        return {
            "estimate": estimate.to_dict(),
            "delta": {
                "session": token,
                "chain": session.chain_digest(),
                "edit_batches": len(digests),
                "patched_batches": len(digests) - len(applied),
                "num_voters": session.num_voters,
                "engine": request.engine,
                "patch_stats": dict(session.patch_stats),
            },
        }

    def _serve_attack_request(self, request: AttackRequest) -> Any:
        """Serve one attack search; the result is the search's wire dict.

        The search owns its delta session for the whole run.  Base-digest
        routing lands every search of one electorate on the shard that
        interned its instance, so the compiled views stay warm and the
        search reuses the base session the previous search on that
        instance object left (:mod:`repro.attacks.search`'s one-entry
        slot) instead of building its own.  The result is exactly
        :meth:`repro.attacks.search.AttackResult.to_dict`, so a served
        search is bitwise-comparable to a direct library run.
        """
        from repro.attacks.search import AttackSearch

        try:
            search = AttackSearch(
                request.instance,
                request.mechanism_data,
                request.scenario,
                budget=request.budget,
                rounds=request.rounds,
                seed=request.seed,
                engine=request.engine,
                tie_policy=request.tie_policy,
                min_harm=request.min_harm,
                margin=request.margin,
                max_steps=request.max_steps,
                cache=self.cache,
            )
            result = search.run()
        except ValueError as exc:
            raise ServiceError("bad_request", str(exc)) from None
        return result.to_dict()


async def run_server(config: Optional[ServerConfig] = None, ready=None) -> None:
    """Start a server and run until cancelled (library entry point)."""
    server = EstimationServer(config)
    await server.start()
    if ready is not None:
        ready(server)
    try:
        await server.serve_forever()
    finally:
        await server.shutdown()


class BackgroundServer:
    """An :class:`EstimationServer` on its own thread and event loop.

    The harness tests, benchmarks and notebooks use: ``with
    BackgroundServer(config) as handle: client = ServiceClient(port=
    handle.port)``.  ``stop()`` performs the full graceful shutdown and
    joins the thread.
    """

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig(port=0)
        self.server: Optional[EstimationServer] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self) -> "BackgroundServer":
        if self._thread is not None:
            raise RuntimeError("background server already started")
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-service-loop",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._error is not None:
            raise RuntimeError(f"server failed to start: {self._error}")
        if self.server is None:
            raise RuntimeError("server did not come up within 30s")
        return self

    def _make_server(self):
        """The server this background thread runs (subclass hook: the
        sharded front-end reuses the whole lifecycle with its own make)."""
        return EstimationServer(self.config)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = self._make_server()
        try:
            await server.start()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self.server = server
        self._ready.set()
        await self._stop_event.wait()
        await server.shutdown()

    @property
    def port(self) -> int:
        if self.server is None:
            raise RuntimeError("background server is not running")
        return self.server.port

    def request_shutdown(self) -> None:
        """Begin graceful shutdown without waiting for it to finish."""
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)

    def stop(self, timeout: float = 30.0) -> None:
        """Gracefully shut down and join the server thread."""
        self.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise RuntimeError("server thread did not stop in time")
            self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
