"""Attack-search throughput benchmark: patched vs scratch inner loops.

The adversarial search scores dozens of candidate moves per committed
step, and every score is a full correct-probability estimate of the
attacked state.  :class:`~repro.attacks.search.AttackSearch` evaluates
all of them on **one** shared delta session (``inner="delta"``: apply
the candidate in a ``DeltaSession.trial``, estimate, undo) instead of
rebuilding a session per candidate (``inner="scratch"``).  Both inners are pure
functions of the same inputs, so their results — every score, every
committed move, the final :class:`AttackResult` dict — are
**bit-identical**, asserted before any timing is recorded; the speedup
is a pure implementation win.

Scales (``REPRO_BENCH_SCALE``):

* ``smoke`` (default) — n = 2·10^3, 256 rounds: the CI job;
* ``default`` / ``full`` — n = 10^4, 512 rounds: the committed
  headline entry.

Two searches are timed: ``misreport`` (competency patches, so every
candidate recomputes the direct-voting term) and ``collusion_ring``
(rewires at the most competent voter, so every candidate repairs
forests).  Both scales assert each search's floor and record the
candidate-scoring throughput (``moves_per_s``) in ``BENCH_attacks.json``.
The scratch search runs right after the delta search on the same
instance, so it takes the base session that search left (both inners
reuse it); only its per-candidate sessions are built from scratch.

A third case times base-session reuse itself: a ``collusion_ring``
search right after a ``misreport`` search on the same instance (no
session build) against the same search on an equal but distinct
instance object (one build), with bit-identical results.
"""

import os
import time

from repro.attacks import AttackSearch
from repro.core.competencies import bounded_uniform_competencies
from repro.core.instance import ProblemInstance
from repro.graphs.generators import random_regular_graph

SCALE = os.environ.get("REPRO_BENCH_SCALE", "smoke")
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))

#: scale → (n, degree, budget, rounds)
_PARAMS = {
    "smoke": (2_000, 6, 3, 256),
    "default": (10_000, 6, 4, 512),
    "full": (10_000, 6, 4, 512),
}

DELTA_FLOOR = 3.0
"""Misreport floor: delta inner ≥3x over scratch re-estimation."""

COLLUSION_RING = 8
"""Ring size of the collusion search: eight single-rewire candidates."""

COLLUSION_FLOOR = 3.0
"""Collusion-ring floor: delta inner ≥3x over scratch re-estimation
(smoke scale measured 4.7-7.8x over eleven runs on 2 CPUs)."""


REUSE_FLOOR = 2.0
"""Second-scenario floor: a search on the base the previous search left
≥2x over the same search on an equal but fresh instance object (smoke
scale measured 3.4-5.2x over twelve runs on 2 CPUs)."""


def _electorate():
    n, degree, _budget, _rounds = _PARAMS.get(SCALE, _PARAMS["smoke"])
    graph = random_regular_graph(n, degree, seed=SEED)
    return graph, bounded_uniform_competencies(n, 0.35, seed=SEED)


def _run_search(instance, scenario, *, inner, budget, rounds):
    search = AttackSearch(
        instance,
        {"name": "random_approved"},
        scenario,
        budget=budget,
        rounds=rounds,
        seed=SEED,
        engine="mc",
        inner=inner,
    )
    start = time.perf_counter()
    result = search.run()
    seconds = time.perf_counter() - start
    return seconds, result


def _check_delta_speedup(attack_record, scenario, floor):
    """Time one search per inner, assert bit-identity, then the floor."""
    n, degree, budget, rounds = _PARAMS.get(SCALE, _PARAMS["smoke"])
    instance = ProblemInstance(*_electorate(), alpha=0.05)

    seconds, delta_result = _run_search(
        instance, scenario, inner="delta", budget=budget, rounds=rounds
    )
    baseline_seconds, scratch_result = _run_search(
        instance, scenario, inner="scratch", budget=budget, rounds=rounds
    )
    # Bit-identical searches are a precondition of recording: the two
    # inners must agree on every score, commit, and the final result.
    assert delta_result.to_dict() == scratch_result.to_dict()
    assert delta_result.moves_evaluated > 0

    speedup = baseline_seconds / seconds
    attack_record(
        scenario["name"],
        n,
        seconds,
        baseline_seconds,
        moves_evaluated=delta_result.moves_evaluated,
        engine="mc",
        degree=degree,
        budget=budget,
        rounds=rounds,
        steps=delta_result.steps,
        found=delta_result.found,
        floor=floor,
    )
    assert speedup >= floor, (
        f"{scenario['name']} attack-search delta speedup {speedup:.2f}x under the "
        f"{floor}x floor ({seconds:.3f}s delta vs "
        f"{baseline_seconds:.3f}s scratch)"
    )


def test_attack_search_delta_speedup(attack_record):
    """The headline entry: misreport search, delta vs scratch scoring."""
    _check_delta_speedup(attack_record, {"name": "misreport"}, DELTA_FLOOR)


def test_collusion_ring_delta_speedup(attack_record):
    """Collusion-ring search (forest repairs), delta vs scratch scoring."""
    _check_delta_speedup(
        attack_record,
        {"name": "collusion_ring", "params": {"ring": COLLUSION_RING}},
        COLLUSION_FLOOR,
    )


def test_second_scenario_reuses_base(attack_record):
    """A collusion-ring search after a misreport search on one base
    builds no session; the same search on an equal, distinct instance
    object builds one.  Results are bit-identical."""
    n, degree, budget, rounds = _PARAMS.get(SCALE, _PARAMS["smoke"])
    graph, competencies = _electorate()
    instance = ProblemInstance(graph, competencies, alpha=0.05)
    scenario = {"name": "collusion_ring", "params": {"ring": COLLUSION_RING}}
    _run_search(instance, {"name": "misreport"}, inner="delta", budget=budget, rounds=rounds)
    seconds, reused = _run_search(
        instance, scenario, inner="delta", budget=budget, rounds=rounds
    )
    twin = ProblemInstance(graph, competencies, alpha=0.05)
    baseline_seconds, fresh = _run_search(
        twin, scenario, inner="delta", budget=budget, rounds=rounds
    )
    assert reused.to_dict() == fresh.to_dict()
    assert reused.moves_evaluated > 0

    speedup = baseline_seconds / seconds
    attack_record(
        "collusion_ring_reused_base",
        n,
        seconds,
        baseline_seconds,
        moves_evaluated=reused.moves_evaluated,
        engine="mc",
        degree=degree,
        budget=budget,
        rounds=rounds,
        steps=reused.steps,
        found=reused.found,
        floor=REUSE_FLOOR,
    )
    assert speedup >= REUSE_FLOOR, (
        f"base-session reuse speedup {speedup:.2f}x under the {REUSE_FLOOR}x "
        f"floor ({seconds:.3f}s reused vs {baseline_seconds:.3f}s fresh)"
    )
