"""Throughput benchmark for the estimation service (PR 4).

Thirty-two concurrent clients issue a duplicate-heavy workload — four
distinct estimates, each requested by eight clients, the tuning-sweep
shape the service exists for — against two servers:

* **coalesced** — the production configuration: request coalescing on,
  micro-batching on, shared warm estimators, four worker threads;
* **sequential** — the un-coalesced baseline: coalescing off, batch
  window of one, one worker thread, no estimator sharing.  Every request
  is computed individually, in series.

Both serve bit-identical results (asserted against the direct library
call); the coalesced server must clear a conservative **2x** wall-clock
floor (typically ~8x here: 32 requests collapse onto 4 computations).
Timings land in ``BENCH_service.json`` via the ``service_record``
fixture in ``conftest.py``.
"""

from __future__ import annotations

import concurrent.futures
import time

from repro.core.competencies import bounded_uniform_competencies
from repro.core.instance import ProblemInstance
from repro.graphs.generators import complete_graph
from repro.io import instance_to_dict
from repro.service import BackgroundServer, ServerConfig, ServiceClient, mechanism_spec
from repro.service.protocol import build_mechanism
from repro.voting.montecarlo import estimate_correct_probability

CLIENTS = 32
DISTINCT_SEEDS = (11, 22, 33, 44)  # each duplicated CLIENTS/4 times
ROUNDS = 2000
N = 96

MECH_SPEC = mechanism_spec("approval_threshold", threshold=2)

COALESCED = ServerConfig(
    port=0, workers=4, max_batch=32, max_delay=0.005,
    coalesce=True, share_estimators=True,
)
SEQUENTIAL = ServerConfig(
    port=0, workers=1, max_batch=1, max_delay=0.0,
    coalesce=False, share_estimators=False,
)


def _instance() -> ProblemInstance:
    comp = bounded_uniform_competencies(N, 0.35, seed=1)
    return ProblemInstance(complete_graph(N), comp, alpha=0.05)


def _storm(port: int, instance_dict) -> tuple:
    """All 32 clients fire at once; returns (wall seconds, results)."""
    client = ServiceClient(port=port, timeout=300.0)
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


def test_coalesced_server_2x_sequential(service_record):
    """Coalesced serving beats the sequential baseline >= 2x wall clock."""
    instance = _instance()
    instance_dict = instance_to_dict(instance)
    expected = {
        seed: estimate_correct_probability(
            instance, build_mechanism(MECH_SPEC),
            rounds=ROUNDS, seed=seed, n_jobs=1,
        )
        for seed in DISTINCT_SEEDS
    }

    with BackgroundServer(SEQUENTIAL) as baseline:
        _storm(baseline.port, instance_dict)  # warm-up (interning, threads)
        sequential_seconds, sequential_results = _storm(
            baseline.port, instance_dict
        )

    with BackgroundServer(COALESCED) as coalesced:
        _storm(coalesced.port, instance_dict)  # warm-up
        coalesced_seconds, coalesced_results = _storm(
            coalesced.port, instance_dict
        )
        metrics = ServiceClient(port=coalesced.port).metrics()

    # Determinism first: every served result, from either server, is
    # bit-identical to the direct library call.
    workload = [
        DISTINCT_SEEDS[i % len(DISTINCT_SEEDS)] for i in range(CLIENTS)
    ]
    for seed, seq, coa in zip(workload, sequential_results, coalesced_results):
        assert seq == expected[seed]
        assert coa == expected[seed]

    service_record(
        "coalesced_vs_sequential_32_clients",
        coalesced_seconds,
        sequential_seconds,
        clients=CLIENTS,
        distinct_requests=len(DISTINCT_SEEDS),
        rounds=ROUNDS,
        n=N,
        coalesced_total=metrics["coalesced_total"],
        mean_batch_size=metrics["batches"]["mean_size"],
    )
    assert coalesced_seconds * 2 <= sequential_seconds, (
        f"coalesced {coalesced_seconds:.3f}s vs "
        f"sequential {sequential_seconds:.3f}s"
    )
