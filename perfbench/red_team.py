"""``red_team``: DNH attack searches with the delta inner on the mc engine.

The electorate is a random 6-regular graph with n = 10^4 and bounded
competencies.  Each operation runs two greedy ``AttackSearch``es on the
next search seed: a ``misreport`` search (competency patches, so every
candidate recomputes the direct term) and a ``collusion_ring`` search
(rewires, so every candidate repairs forests).  Set-up is the instance
build.

The electorate does not depend on the workload seed (the random-regular
pairing restarts a seed-dependent number of times, which would make
``setup_s`` seed-dependent); the seed drives the searches.
"""

from __future__ import annotations

import time
from typing import List, Optional

from harness import Measurement, closed_loop, derive

N = 10_000
DEGREE = 6
BETA = 0.35
ALPHA = 0.05
MECHANISM = {"name": "random_approved"}
SCENARIOS = ({"name": "misreport"}, {"name": "collusion_ring"})
BUDGET = 1  # one greedy step: every search scores the same number of moves
ROUNDS = 64
ELECTORATE = 0  # seed of the graph and the competencies
SETUP_REPEATS = 75  # a build takes ~35 ms; many keep the median steady


def setup(seed: int, tracer=None):
    from repro import ProblemInstance, bounded_uniform_competencies, random_regular_graph

    graph = random_regular_graph(N, DEGREE, seed=derive(ELECTORATE, 0))
    instance = ProblemInstance(
        graph, bounded_uniform_competencies(N, BETA, seed=derive(ELECTORATE, 1)), alpha=ALPHA
    )
    instance.compiled()
    return {"instance": instance, "searches": []}


def teardown(state) -> None:
    pass


def measure(state, seed: int, seconds: float,
            ops: Optional[int] = None, tracer=None) -> Measurement:
    from repro.attacks import AttackSearch

    out = Measurement()

    def search_pair(k: int):
        search_seed = derive(seed, 200 + k)
        start = time.perf_counter()
        moves = 0
        for scenario in SCENARIOS:
            result = AttackSearch(
                state["instance"], MECHANISM, scenario, budget=BUDGET,
                rounds=ROUNDS, seed=search_seed, engine="mc", inner="delta",
            ).run()
            moves += result.moves_evaluated
            state["searches"].append((scenario, search_seed, result))
        out.attempted += moves
        # How many moves a search scores depends on where it stops, so
        # the latency is per scored move, not per search.
        return moves, (time.perf_counter() - start) / moves

    closed_loop(out, seconds, ops, search_pair)
    out.named["moves_per_s"] = (out.rate(False), "moves/s", int(sum(out.op_work)))
    out.named["move_p50_ms"] = (out.p50_ms(False), "ms", out.ops)
    return out


def _replay(instance, scenario_spec, search_seed: int, result) -> List[str]:
    """Re-estimate a search's final committed state on a scratch session.

    The committed moves are regenerated from the search's proposal
    stream (child ``step`` of ``derive_seed(seed, 1)``, as
    ``AttackSearch`` documents) and matched by label.
    """
    from repro._util.rng import as_generator, as_seed_sequence, child_seed_sequence, derive_seed
    from repro.attacks import build_scenario
    from repro.incremental import DeltaSession
    from repro.service.protocol import build_mechanism
    from repro.voting.exact import direct_voting_probability

    mechanism = build_mechanism(dict(MECHANISM))
    scenario = build_scenario(scenario_spec)
    session = DeltaSession(instance, mechanism, rounds=ROUNDS, seed=search_seed, engine="mc")
    root = as_seed_sequence(derive_seed(search_seed, 1))
    for record in result.history:
        rng = as_generator(child_seed_sequence(root, record["step"]))
        proposals = scenario.propose(session.instance, mechanism, rng)
        matches = [m for m in proposals if m.label == record["label"]]
        if not matches:
            return [f"{scenario.name} seed {search_seed}: move {record['label']} not proposed"]
        session.apply(matches[0].edits)
    estimate = session.estimate()
    if result.history:
        last = result.history[-1]
        same = (estimate.probability, estimate.std_error) == (
            last["probability"], last["std_error"],
        )
    else:
        direct = direct_voting_probability(instance.competencies)
        same = float(direct) - estimate.probability == result.baseline_harm
    return [] if same else [
        f"{scenario.name} seed {search_seed}: scratch replay differs from the search"
    ]


def gates(state, seed: int, result: Measurement) -> None:
    from repro.attacks import AttackSearch, benign_star_instance, verify_certificate

    for scenario, search_seed, search in state["searches"]:
        result.attempted += 1
        result.failures.extend(_replay(state["instance"], scenario, search_seed, search))
    state["searches"].clear()
    star = AttackSearch(
        benign_star_instance(25), MECHANISM, {"name": "misreport"},
        budget=4, rounds=64, seed=7, engine="exact",
    ).run()
    result.attempted += 1
    if not (star.found and star.history[0]["label"] == "misreport:v0->0.625"
            and verify_certificate(star.certificate).ok):
        result.failures.append("Figure 1 star: no verified misreport certificate")
