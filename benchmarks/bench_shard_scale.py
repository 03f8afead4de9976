"""Scale-out benchmark for the sharded estimation service (PR 7).

Two scenarios, both recorded into ``BENCH_service.json`` via the
``service_record`` fixture and both asserting bitwise determinism
against the direct library call before any timing claim:

* **sharded_4_workers_vs_1** — thirty-two concurrent clients issue a
  duplicate-skewed storm (eight distinct estimates, four duplicates
  each) against a one-worker fleet and a four-worker fleet.  Duplicates
  consistent-hash onto the same shard, where they coalesce; distinct
  keys spread across the fleet and compute in parallel.  The **2x**
  wall-clock floor is asserted only on machines with >= 4 usable cores
  (CI's runners; a single-core box cannot parallelise anything and
  records the honest ratio instead).
* **streaming_sweep_time_to_first_result** — a 12-point sweep through a
  two-shard fleet, comparing time-to-first-result of the streamed
  NDJSON response against the full-sweep wall clock.  Streaming must
  deliver the first point >= 2.5x sooner than the whole sweep takes —
  a floor that holds on any core count, because it measures pipelining,
  not parallelism.
"""

from __future__ import annotations

import concurrent.futures
import os
import time

from repro.core.competencies import bounded_uniform_competencies
from repro.core.instance import ProblemInstance
from repro.graphs.generators import complete_graph
from repro.io import instance_to_dict
from repro.service import (
    BackgroundShardedServer,
    ServerConfig,
    ServiceClient,
    mechanism_spec,
)
from repro.service.protocol import build_mechanism
from repro.voting.montecarlo import estimate_correct_probability

CLIENTS = 32
DISTINCT_SEEDS = (11, 22, 33, 44, 55, 66, 77, 88)  # x4 duplicates each
ROUNDS = 800
N = 96
SWEEP_SEEDS = tuple(range(12))

MECH_SPEC = mechanism_spec("approval_threshold", threshold=2)

WORKER_CONFIG = ServerConfig(
    port=0, workers=2, max_batch=32, max_delay=0.005,
    coalesce=True, share_estimators=True,
)

# Streaming scenario: micro-batching off.  A batch group resolves its
# futures together, so batching a whole sweep into one group would make
# time-to-first-result equal time-to-last — per-point jobs are what
# gives the stream its granularity.
STREAM_CONFIG = ServerConfig(
    port=0, workers=2, max_batch=1, max_delay=0.0,
    coalesce=True, share_estimators=True,
)


def _cores() -> int:
    return len(os.sched_getaffinity(0))


def _instance() -> ProblemInstance:
    comp = bounded_uniform_competencies(N, 0.35, seed=1)
    return ProblemInstance(complete_graph(N), comp, alpha=0.05)


def _direct(instance, seed: int, rounds: int = ROUNDS):
    return estimate_correct_probability(
        instance, build_mechanism(MECH_SPEC),
        rounds=rounds, seed=seed, n_jobs=1,
    )


def _storm(port: int, instance_dict) -> tuple:
    """All 32 clients fire at once; returns (wall seconds, results)."""
    client = ServiceClient(port=port, timeout=600.0)
    workload = [
        DISTINCT_SEEDS[i % len(DISTINCT_SEEDS)] for i in range(CLIENTS)
    ]

    def one(seed: int):
        return client.estimate(
            instance_dict, MECH_SPEC, rounds=ROUNDS, seed=seed
        )

    with concurrent.futures.ThreadPoolExecutor(CLIENTS) as pool:
        t0 = time.perf_counter()
        results = list(pool.map(one, workload))
        elapsed = time.perf_counter() - t0
    return elapsed, results


def test_sharded_fleet_scales_duplicate_skewed_storm(service_record):
    """4-worker fleet vs 1-worker fleet on the duplicate-skewed storm."""
    instance = _instance()
    instance_dict = instance_to_dict(instance)
    expected = {seed: _direct(instance, seed) for seed in DISTINCT_SEEDS}
    workload = [
        DISTINCT_SEEDS[i % len(DISTINCT_SEEDS)] for i in range(CLIENTS)
    ]

    with BackgroundShardedServer(WORKER_CONFIG, shards=1) as one_worker:
        _storm(one_worker.port, instance_dict)  # warm-up
        one_seconds, one_results = _storm(one_worker.port, instance_dict)

    with BackgroundShardedServer(WORKER_CONFIG, shards=4) as fleet:
        _storm(fleet.port, instance_dict)  # warm-up
        four_seconds, four_results = _storm(fleet.port, instance_dict)
        metrics = ServiceClient(port=fleet.port).metrics()

    # Determinism first, timing second: every served result from either
    # fleet size is bit-identical to the direct library call.
    for seed, one, four in zip(workload, one_results, four_results):
        assert one == expected[seed]
        assert four == expected[seed]

    # The ring spread the eight distinct keys over several shards.
    assert len(metrics["routed"]) >= 2

    cores = _cores()
    service_record(
        "sharded_4_workers_vs_1_duplicate_skewed_storm",
        four_seconds,
        one_seconds,
        clients=CLIENTS,
        distinct_requests=len(DISTINCT_SEEDS),
        rounds=ROUNDS,
        n=N,
        shards=4,
        cores=cores,
        shards_hit=len(metrics["routed"]),
    )
    if cores >= 4:
        assert four_seconds * 2 <= one_seconds, (
            f"4-worker fleet {four_seconds:.3f}s vs "
            f"1-worker {one_seconds:.3f}s on {cores} cores"
        )


def test_streaming_sweep_time_to_first_result(service_record):
    """First streamed point lands >= 2.5x sooner than the full sweep."""
    instance = _instance()
    instance_dict = instance_to_dict(instance)
    expected = [_direct(instance, seed) for seed in SWEEP_SEEDS]

    with BackgroundShardedServer(STREAM_CONFIG, shards=2) as fleet:
        client = ServiceClient(port=fleet.port, timeout=600.0)
        client.sweep(
            instance_dict, MECH_SPEC, seeds=SWEEP_SEEDS, rounds=ROUNDS
        )  # warm-up

        t0 = time.perf_counter()
        first_seconds = None
        streamed = {}
        for index, result in client.iter_sweep(
            instance_dict, MECH_SPEC, seeds=SWEEP_SEEDS, rounds=ROUNDS
        ):
            if first_seconds is None:
                first_seconds = time.perf_counter() - t0
            streamed[index] = result
        full_seconds = time.perf_counter() - t0

    assert sorted(streamed) == list(range(len(SWEEP_SEEDS)))
    for index in range(len(SWEEP_SEEDS)):
        assert streamed[index] == expected[index]

    service_record(
        "streaming_sweep_time_to_first_result",
        first_seconds,
        full_seconds,
        points=len(SWEEP_SEEDS),
        rounds=ROUNDS,
        n=N,
        shards=2,
        cores=_cores(),
    )
    assert first_seconds * 2.5 <= full_seconds, (
        f"first result after {first_seconds:.3f}s of a "
        f"{full_seconds:.3f}s sweep"
    )
