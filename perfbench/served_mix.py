"""``served_mix``: reads and writes against a 2-shard fleet, open loop.

The fleet is ``repro serve --shards 2 --cache`` on a fresh cache
directory, started as its own process tree.  One generator process
drives it over two keep-alive connections on a fixed schedule, so a
slow fleet builds a queue instead of slowing the generator down.
Requests alternate between two kinds:

* ``/v1/estimate`` reads of a fixed set of (instance, seed) points,
  warmed during set-up so they hit the on-disk cache, except every
  ``MISS_EVERY``-th read, which carries a fresh seed and misses;
* ``/v1/delta`` writes, each extending one of a few per-instance edit
  chains by one batch.

The nominal phase sends ``PHASE_REQUESTS`` evenly over the run's
``--seconds`` and yields the latency percentiles; the phases of
``LADDER`` above it find the highest rate at which the estimate tail
stays under ``SLO_MS`` without a growing backlog.  The last step offers
far more than the fleet can serve, so the two senders run back to back
there and its achieved rate, over ``SATURATION_CHUNKS`` chunks of
``SATURATION_REQUESTS``, is the fleet's capacity.
Set-up is fleet boot plus cache warm-up.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from harness import (
    Measurement, OpenLoop, Reference, Sent, derive, descendants, percentile,
    tail_percentile, vm_hwm_mib,
)
from layers import RATIO_METRICS

N = 2000  # voters per instance
DEGREE = 6  # random regular: every delta touches a similar neighbourhood
BETA = 0.35
ALPHA = 0.05
INSTANCES = 8  # one delta stream per instance
# The instances do not depend on the workload seed: routing is content
# addressed, so a fixed electorate gives every seed the same split of
# delta streams across shards.  The seed drives the traffic: which points
# are read, the fresh seeds, and the edit chains.
ELECTORATE = 0
SEEDS_PER_INSTANCE = 4  # warm (instance, seed) points
ROUNDS = 64
MECHANISM = {"name": "random_approved"}
MISS_EVERY = 20  # every 20th estimate read carries a fresh seed
CONNECTIONS = 2
SHARDS = 2
PHASE_REQUESTS = 200  # per phase but the saturating one: 100 estimates, 100 deltas
# Requests/s tried after the nominal phase, every step in every run.  The
# fleet's capacity on two cores is 45-80 requests/s as the machine's speed
# drifts, so a step in that range would pass on some runs and fail on
# others.  The last step saturates the fleet at any plausible capacity.
LADDER = (40.0, 1000.0)
# The saturating step is longer, sent in chunks with the speed reference
# timed between them (see measure).
SATURATION_CHUNKS = 4
SATURATION_REQUESTS = 100  # per chunk
SLO_MS = 250.0  # limit on the estimate tail percentile
RECHECKED_ESTIMATES = 8  # served estimates recomputed by the gate
SETUP_REPEATS = 3
ROOT = os.getcwd()
WORK = os.path.join(ROOT, "perfbench", ".work")
FLEET_TRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fleettrace")


class Fleet:
    """A ``repro serve --shards`` process tree plus a warm cache."""

    def __init__(self, trace_dir: Optional[str] = None) -> None:
        os.makedirs(WORK, exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        if trace_dir is not None:
            env["PYTHONPATH"] = FLEET_TRACE + os.pathsep + env["PYTHONPATH"]
            env["PERFBENCH_FLEET_TRACE"] = trace_dir
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--shards", str(SHARDS), "--workers", str(CONNECTIONS),
             "--cache", "--cache-dir", self.cache_dir],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.close()
            raise RuntimeError(f"fleet failed to boot: {line!r}")
        self.port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])
        # Left to the scheduler, which processes share a core differs
        # from boot to boot and moves latency by up to a quarter.  The
        # generator and the front-end share the first CPU; the shard
        # workers share the last.
        cpus = sorted(os.sched_getaffinity(0))
        _pin(os.getpid(), cpus[0])
        _pin(self.proc.pid, cpus[0])
        for pid in descendants(self.proc.pid):
            _pin(pid, cpus[-1])

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)

    def peak_rss_mib(self) -> float:
        pids = [self.proc.pid] + descendants(self.proc.pid)
        return sum(vm_hwm_mib(pid) for pid in pids)

    def close(self) -> None:
        children = descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        for pid in children:  # workers are SIGINTed by the front-end
            for _ in range(300):
                if not os.path.exists(f"/proc/{pid}") or _is_zombie(pid):
                    break
                time.sleep(0.1)
            else:
                os.kill(pid, signal.SIGKILL)
        self.proc.stdout.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _pin(pid: int, cpu: int) -> None:
    """Pin every thread of ``pid`` (and so its future threads) to ``cpu``."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:
            pass


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def post(conn: http.client.HTTPConnection, path: str, body: bytes) -> Tuple[bool, dict]:
    """One request; ``(ok, payload)``; transport failures are not ok."""
    try:
        conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        raw = response.read()
    except (OSError, http.client.HTTPException) as exc:
        conn.close()
        return False, {"error": f"{type(exc).__name__}: {exc}"}
    try:
        data = json.loads(raw)
    except ValueError:
        return False, {"error": f"non-JSON reply, HTTP {response.status}"}
    return response.status == 200 and data.get("ok") is True, data


class Inputs:
    """Instances, warm points, and the request generator for one seed."""

    def __init__(self, seed: int) -> None:
        import numpy as np

        from repro import ProblemInstance, bounded_uniform_competencies, random_regular_graph
        from repro.io import instance_to_dict

        self.seed = seed
        self.instances = []
        self.instance_json: List[str] = []
        for k in range(INSTANCES):
            graph = random_regular_graph(N, DEGREE, seed=derive(ELECTORATE, 10 + k))
            comp = bounded_uniform_competencies(N, BETA, seed=derive(ELECTORATE, 20 + k))
            instance = ProblemInstance(graph, comp, alpha=ALPHA)
            self.instances.append(instance)
            self.instance_json.append(json.dumps(instance_to_dict(instance)))
        self.points = [
            (k, derive(seed, 1000 + SEEDS_PER_INSTANCE * k + j))
            for k in range(INSTANCES) for j in range(SEEDS_PER_INSTANCE)
        ]
        self.stream_seeds = [derive(seed, 2000 + k) for k in range(INSTANCES)]
        self.chains: List[List[List[dict]]] = [[] for _ in range(INSTANCES)]
        self._rng = np.random.default_rng(derive(seed, 3))
        self._fresh = 0

    def estimate_body(self, k: int, point_seed: int) -> bytes:
        return (
            '{"v": 1, "op": "estimate", "instance": ' + self.instance_json[k]
            + ', "mechanism": ' + json.dumps(MECHANISM)
            + f', "rounds": {ROUNDS}, "seed": {point_seed}, "tie_policy": "INCORRECT",'
            ' "engine": "batch", "exact_conditional": true}'
        ).encode()

    def delta_body(self, k: int) -> bytes:
        return (
            '{"v": 1, "op": "delta", "instance": ' + self.instance_json[k]
            + ', "mechanism": ' + json.dumps(MECHANISM)
            + f', "rounds": {ROUNDS}, "seed": {self.stream_seeds[k]},'
            ' "tie_policy": "INCORRECT", "engine": "mc", "edits": '
            + json.dumps(self.chains[k]) + "}"
        ).encode()

    def schedule(self, count: int) -> List[Tuple[str, int, int, bytes]]:
        """``count`` requests alternating estimate/delta.

        Each is ``(kind, instance, tag, body)``: the tag is the seed of an
        estimate and the chain length a delta brings its stream to.
        """
        out = []
        for i in range(count):
            if i % 2 == 0:
                if (i // 2) % MISS_EVERY == MISS_EVERY - 1:
                    k = int(self._rng.integers(INSTANCES))
                    point_seed = derive(self.seed, 10**6 + self._fresh)
                    self._fresh += 1
                else:
                    k, point_seed = self.points[int(self._rng.integers(len(self.points)))]
                out.append(("estimate", k, point_seed, self.estimate_body(k, point_seed)))
            else:
                k = (i // 2) % INSTANCES
                voter = int(self._rng.integers(N))
                level = round(float(self._rng.uniform(BETA, 1 - BETA)), 6)
                self.chains[k].append([{"kind": "competency", "voter": voter, "competency": level}])
                out.append(("delta", k, len(self.chains[k]), self.delta_body(k)))
        return out


def _span(tracer, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def setup(seed: int, tracer=None):
    inputs = Inputs(seed)
    trace_dir = None if tracer is None else tempfile.mkdtemp(prefix="fleet-trace-", dir=WORK)
    with _span(tracer, "service.boot"):
        fleet = Fleet(trace_dir)
    try:
        conns = [fleet.connect() for _ in range(CONNECTIONS)]
        # Warm every estimate point and every stream's delta session.
        warm = [("/v1/estimate", inputs.estimate_body(k, s)) for k, s in inputs.points]
        warm += [("/v1/delta", inputs.delta_body(k)) for k in range(INSTANCES)]
        for i, (path, body) in enumerate(warm):
            with _span(tracer, "service.request"):
                ok, data = post(conns[i % CONNECTIONS], path, body)
            if not ok:
                raise RuntimeError(f"warm-up {path} failed: {data}")
        for conn in conns:
            conn.close()
    except BaseException:
        fleet.close()
        raise
    return {
        "inputs": inputs, "fleet": fleet, "served": [], "deltas": {}, "trace_dir": trace_dir,
    }


def teardown(state) -> None:
    """Scrape ``/metrics``, stop the fleet, and collect its own traces."""
    fleet: Fleet = state["fleet"]
    try:
        conn = fleet.connect()
        conn.request("GET", "/metrics")
        state["snapshot"] = json.loads(conn.getresponse().read())["metrics"]
        conn.close()
    finally:
        fleet.close()
    trace_dir = state["trace_dir"]
    if trace_dir is not None:
        state["fleet_traces"] = []
        for name in sorted(os.listdir(trace_dir)):
            with open(os.path.join(trace_dir, name)) as handle:
                state["fleet_traces"].append(json.load(handle))
        shutil.rmtree(trace_dir)


def _phase(state, rate: float, count: int, tracer=None) -> List[Sent]:
    inputs: Inputs = state["inputs"]
    requests = inputs.schedule(count)
    conns = [state["fleet"].connect() for _ in range(CONNECTIONS)]

    def send(conn: int, index: int):
        kind, k, tag, body = requests[index]
        path = "/v1/estimate" if kind == "estimate" else "/v1/delta"
        with _span(tracer, "service.request"):
            ok, data = post(conns[conn], path, body)
        return ok, (kind, k, tag, len(body), data)

    def sleep(seconds: float) -> None:
        with _span(tracer, "load.idle"):
            time.sleep(seconds)

    try:
        sent = OpenLoop(send, CONNECTIONS, sleep=sleep).run(count, rate)
    finally:
        for conn in conns:
            conn.close()
    for s in sent:
        kind, k, tag, _, data = s.value
        if not s.ok:
            continue
        if kind == "estimate":
            state["served"].append((k, tag, data["result"]))
        elif tag > state["deltas"].get(k, (0, None))[0]:
            state["deltas"][k] = (tag, data["result"])
    return sent


def _latencies(sent: List[Sent], kind: str) -> List[float]:
    return [1000 * s.latency for s in sent if s.value[0] == kind]


def _achieved(sent: List[Sent]) -> float:
    """Requests completed per second from the phase's start to its last reply."""
    return len(sent) / (max(s.done for s in sent) - sent[0].due)


def _tail(values: List[float]) -> Tuple[float, int]:
    q = tail_percentile(len(values))
    return percentile(values, q), q


def measure(state, seed: int, seconds: float, ops: Optional[int] = None,
            tracer=None) -> Measurement:
    """Nominal phase (``PHASE_REQUESTS`` over ``seconds``), then the ladder."""
    out = Measurement()
    nominal_rate = PHASE_REQUESTS / seconds
    phases = [
        (rate, _phase(state, rate, PHASE_REQUESTS, tracer))
        for rate in (nominal_rate,) + LADDER[:-1]
    ]
    # The fleet's capacity depends on the machine's speed as much as the
    # closed-loop workloads' rates do, so it is rescaled the same way: the
    # step is sent in chunks, and each chunk's time is scaled by the
    # reference timed before and after it.
    reference = Reference()
    before = reference()
    saturated: List[Sent] = []
    busy = scaled = 0.0
    for _ in range(SATURATION_CHUNKS):
        chunk = _phase(state, LADDER[-1], SATURATION_REQUESTS, tracer)
        after = reference()
        elapsed = max(s.done for s in chunk) - chunk[0].due
        busy += elapsed
        scaled += elapsed * reference.scale(before, after)
        saturated += chunk
        before = after
    phases.append((LADDER[-1], saturated))
    out.measured_rate = len(saturated) / busy
    out.measured_scale = scaled / busy
    out.reference_s += reference.spent
    state["phases"] = phases
    best = None
    for rate, sent in phases:
        est = _latencies(sent, "estimate")
        backlog = 1000 * (sent[-1].done - sent[-1].due)
        if all(s.ok for s in sent) and _tail(est)[0] <= SLO_MS and backlog <= SLO_MS:
            best = _achieved(sent)
    for rate, sent in phases:
        out.attempted += len(sent)
        for s in sent:
            if not s.ok:
                out.failures.append(f"{s.value[0]} at {rate}/s: {s.value[4]}")
    nominal = phases[0][1]
    est, delta = _latencies(nominal, "estimate"), _latencies(nominal, "delta")
    est_tail, q = _tail(est)
    delta_tail, dq = _tail(delta)
    # Not rescaled by the speed reference: the latency is set by the
    # pinned fleet processes, which a reference timed in the generator
    # does not track (rescaling doubled this metric's spread).
    for latency in est:
        out.record(latency / 1000, 1, latency / 1000, 1.0)
    capacity = out.measured_rate
    if best is None:
        out.failures.append(f"estimate p{q} above {SLO_MS} ms even at {nominal_rate}/s")
    lag = [1000 * s.lag for _, sent in phases for s in sent]
    for rate, sent in phases:
        est_at = _latencies(sent, "estimate")
        tail, tq = _tail(est_at)
        out.named[f"at_{rate:g}_rps.estimate_p{tq}_ms"] = (tail, "ms", len(est_at))
        out.named[f"at_{rate:g}_rps.backlog_ms"] = (
            1000 * (sent[-1].done - sent[-1].due), "ms", 1,
        )
    out.named.update({
        "estimate_p50_ms": (percentile(est, 50), "ms", len(est)),
        f"estimate_p{q}_ms": (est_tail, "ms", len(est)),
        "delta_p50_ms": (percentile(delta, 50), "ms", len(delta)),
        f"delta_p{dq}_ms": (delta_tail, "ms", len(delta)),
        "max_rps_at_slo": (best or 0.0, "req/s", len(phases)),
        "capacity_rps": (capacity, "req/s", len(phases[-1][1])),
        f"capacity_rps @{Reference.NOMINAL_S}s ref": (
            out.rate(normalised=True), "req/s", len(phases[-1][1]),
        ),
        "machine speed at capacity": (out.measured_scale, "x nominal", 1),
        "generator_lag_p90_ms": (percentile(lag, 90), "ms", len(lag)),
    })
    return out


def peak_rss_mib(state) -> float:
    return vm_hwm_mib() + state["fleet"].peak_rss_mib()


def fleet_layers(traces: List[dict]) -> Dict[str, float]:
    """Per-layer metrics summed over the fleet's processes."""
    out: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    for trace in traces:
        for name, value in trace["layers"].items():
            out[name] = out.get(name, 0.0) + value
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
    for metric, (hits, lookups) in RATIO_METRICS.items():
        total = counters.get(lookups, 0)
        out[metric] = counters.get(hits, 0) / total if total else 0.0
    # Layers the fleet never entered keep the client's value (set-up
    # generates the instances client side).
    return {name: value for name, value in out.items() if value}


def service_metrics(state) -> Dict[str, float]:
    """Per-layer metrics of a traced pass, measured inside and at the fleet.

    Layer times come from the fleet's own traces; the service metrics from
    the ``/metrics`` snapshot taken at teardown and the client's view.
    """
    snapshot = state["snapshot"]
    shards = snapshot["sharding"]["per_shard"]
    routed = [int(v) for v in snapshot.get("routed", {}).values()]
    batches = sum(s["batches"]["count"] for s in shards)
    hits = sum(s["estimate_cache"]["hits"] for s in shards)
    lookups = hits + sum(s["estimate_cache"]["misses"] for s in shards)
    served = [s for _, sent in state["phases"] for s in sent]
    deltas = [s.value[4]["result"]["delta"] for s in served if s.ok and s.value[0] == "delta"]
    lag = [1000 * s.lag for s in served]
    return {
        **fleet_layers(state.get("fleet_traces", [])),
        "service.frontend_p50_ms": snapshot["latency"]["p50_ms"],
        "service.shard_p50_ms": sum(s["latency"]["p50_ms"] for s in shards) / len(shards),
        "service.coalesced_ratio": snapshot["coalesced_total"] / max(1, snapshot["requests_total"]),
        "service.batch_mean_size": (
            sum(s["batches"]["requests"] for s in shards) / batches if batches else 0.0
        ),
        "service.queue_rejected": float(sum(s["queue"]["rejected_total"] for s in shards)),
        "service.routed_max_share": max(routed) / sum(routed) if routed else 0.0,
        "service.request_kib": sum(s.value[3] for s in served) / len(served) / 1024,
        "service.delta_patched_share": (
            sum(d["patched_batches"] for d in deltas)
            / max(1, sum(d["edit_batches"] for d in deltas))
        ),
        "load.generator_lag_ms": percentile(lag, 90),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "incremental.affected_voters": float(sum(
            d["delta"]["patch_stats"]["affected_voters"] for _, d in state["deltas"].values()
        )),
        "incremental.full_rebuilds": float(sum(
            d["delta"]["patch_stats"]["full_rebuilds"] for _, d in state["deltas"].values()
        )),
    }


def gates(state, seed: int, result: Measurement) -> None:
    """Served values must equal direct library calls, bit for bit."""
    from repro import estimate_correct_probability
    from repro.incremental import DeltaSession
    from repro.service.protocol import build_mechanism, estimate_from_payload

    inputs: Inputs = state["inputs"]
    mechanism = build_mechanism(dict(MECHANISM))
    served = state["served"]
    step = max(1, len(served) // RECHECKED_ESTIMATES)
    for k, point_seed, payload in served[::step][:RECHECKED_ESTIMATES]:
        result.attempted += 1
        direct = estimate_correct_probability(
            inputs.instances[k], mechanism, rounds=ROUNDS, seed=point_seed, engine="batch",
        )
        if estimate_from_payload(payload) != direct:
            result.failures.append(f"served estimate ({k}, {point_seed}) != direct call")
    for k, (length, payload) in sorted(state["deltas"].items()):
        result.attempted += 1
        session = DeltaSession(
            inputs.instances[k], mechanism, rounds=ROUNDS, seed=inputs.stream_seeds[k],
            engine="mc",
        )
        for batch in inputs.chains[k][:length]:
            session.apply(batch)
        if estimate_from_payload(payload["estimate"]) != session.estimate():
            result.failures.append(f"delta chain {k} (length {length}) != fresh DeltaSession")
