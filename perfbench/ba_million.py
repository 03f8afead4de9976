"""``ba_million``: library estimation of P^M at n = 10^6.

A Barabási–Albert graph (n = 10^6, m = 4) with bounded competencies,
estimated under ``ApprovalThreshold(1)`` and ``RandomApproved`` on the
batch engine with ``exact_conditional=False``.  One caller runs a closed
loop; each operation estimates both mechanisms on the next per-call
seed of a fixed sequence.  Graph build and compile are the set-up.

The electorate does not depend on the workload seed: how long the BA
build takes varies with its seed by a factor of two (duplicate redraws),
which would make ``setup_s`` differ between two sets of seeds.  The seed
drives the estimate calls.
"""

from __future__ import annotations

from typing import Optional

from harness import Measurement, closed_loop, derive

N = 1_000_000
M = 4
BETA = 0.35  # competencies uniform on (0.35, 0.65)
ALPHA = 0.05
ROUNDS = 8  # per estimate call
ELECTORATE = 0  # seed of the graph and the competencies
SETUP_REPEATS = 2  # a build takes ~9 s; more would not fit the runs' time budget


def setup(seed: int, tracer=None):
    from repro import ProblemInstance, barabasi_albert_graph, bounded_uniform_competencies

    graph = barabasi_albert_graph(N, M, seed=derive(ELECTORATE, 0))
    instance = ProblemInstance(
        graph, bounded_uniform_competencies(N, BETA, seed=derive(ELECTORATE, 1)), alpha=ALPHA
    )
    instance.compiled()
    return instance


def teardown(instance) -> None:
    pass


def measure(instance, seed: int, seconds: float,
            ops: Optional[int] = None, tracer=None) -> Measurement:
    from repro import ApprovalThreshold, RandomApproved, estimate_correct_probability

    mechanisms = (ApprovalThreshold(1), RandomApproved())
    out = Measurement()

    def call_pair(k: int):
        call_seed = derive(seed, 100 + k)
        for mechanism in mechanisms:
            estimate = estimate_correct_probability(
                instance, mechanism, rounds=ROUNDS, seed=call_seed,
                engine="batch", exact_conditional=False,
            )
            out.attempted += 1
            if not 0.0 <= estimate.probability <= 1.0:
                out.failures.append(
                    f"{mechanism.name} seed {call_seed}: P={estimate.probability}"
                )
        return N * ROUNDS * len(mechanisms), None

    closed_loop(out, seconds, ops, call_pair)
    out.named["voter_rounds_per_s"] = (out.rate(False), "voter*round/s", out.ops)
    out.named["call_pair_p50_ms"] = (out.p50_ms(False), "ms", out.ops)
    return out


def gates(instance, seed: int, result: Measurement) -> None:
    """Per-call range checks run inside :func:`measure`; nothing more."""
