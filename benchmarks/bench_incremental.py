"""Incremental-engine churn benchmark: patch, don't recompute.

The workload the delta engine exists for: a live election where a small
fraction of the electorate re-delegates between consecutive estimates.
Each step rewires 1% of the voters (one approval edge swapped per
churned voter), then re-estimates.  The incremental loop patches one
persistent :class:`~repro.incremental.session.DeltaSession`; the scratch
baseline rebuilds a fresh session on the identical spliced instance
every step.  Both loops produce **bit-identical** per-step estimates —
asserted before any timing is recorded — so the speedup is a pure
implementation win, not an accuracy trade.

Scales (``REPRO_BENCH_SCALE``):

* ``smoke`` (default) — n = 2·10^4, 12 steps: the CI job;
* ``default`` / ``full`` — n = 10^5, 64 steps, 1000 rewires/step: the
  committed headline entry, asserted at the ≥5x floor the roadmap
  promises.

A second case covers the ``"exact"`` engine at merge-tree-friendly n:
dirty-path re-merge of cached Poisson-binomial trees against full tree
rebuilds.  Exact tails are O(n log² n) per round from scratch, so the
patch win is real but structurally smaller than the MC engine's —
recorded with its own floor.
"""

import os
import time

import numpy as np

from repro.core.competencies import bounded_uniform_competencies
from repro.core.instance import ProblemInstance
from repro.graphs.generators import random_regular_graph
from repro.incremental import DeltaSession, Rewire, SetCompetency
from repro.incremental.structure import patched_instance
from repro.mechanisms.threshold import ApprovalThreshold

SCALE = os.environ.get("REPRO_BENCH_SCALE", "smoke")
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))

#: scale → (n, degree, steps, rewires per step, retained rounds)
_MC_PARAMS = {
    "smoke": (20_000, 16, 12, 200, 32),
    "default": (100_000, 16, 64, 1000, 64),
    "full": (100_000, 16, 64, 1000, 64),
}

#: scale → (n, steps, rewires per step, competency edits per step, rounds)
_EXACT_PARAMS = {
    "smoke": (2_048, 8, 8, 4, 8),
    "default": (4_096, 12, 8, 4, 8),
    "full": (4_096, 12, 8, 4, 8),
}

MC_FLOOR = 5.0
EXACT_FLOOR = 1.2


def _adjacency_sets(graph):
    indptr, indices = graph.adjacency_csr()
    return [
        set(int(w) for w in indices[indptr[v]:indptr[v + 1]])
        for v in range(graph.num_vertices)
    ]


def _churn_schedule(graph, steps, rewires, competency_edits=0, seed=SEED):
    """A valid, deterministic edit schedule against the evolving graph.

    Each rewire swaps one existing approval edge of a churned voter for
    one fresh one; a mirror adjacency keeps every generated edit valid
    against the instance state it will actually be applied to.
    """
    # seed + 0x5EED, not derive_seed: re-seeding would change the churn
    # schedule that test_mc_churn_speedup's 5x floor was measured on.
    rng = np.random.default_rng(seed + 0x5EED)  # reprolint: disable=R103
    n = graph.num_vertices
    adj = _adjacency_sets(graph)
    schedule = []
    for _ in range(steps):
        batch = []
        voters = rng.choice(n, size=rewires, replace=False)
        for v in (int(v) for v in voters):
            if not adj[v]:
                continue
            old = sorted(adj[v])[rng.integers(len(adj[v]))]
            new = int(rng.integers(n))
            while new == v or new in adj[v]:
                new = int(rng.integers(n))
            adj[v].discard(old)
            adj[old].discard(v)
            adj[v].add(new)
            adj[new].add(v)
            batch.append(Rewire(voter=v, add=(new,), remove=(old,)))
        for v in rng.choice(n, size=competency_edits, replace=False):
            batch.append(
                SetCompetency(voter=int(v), competency=float(rng.uniform(0.2, 0.9)))
            )
        schedule.append(batch)
    return schedule


# Asserted bit-identical to _run_scratch before any timing.
# reprolint: reference=_run_scratch
def _run_incremental(instance, mechanism, schedule, *, rounds, engine):
    """The patched loop: one session, apply + estimate per step."""
    session = DeltaSession(
        instance, mechanism, rounds=rounds, seed=SEED, engine=engine
    )
    estimates = []
    start = time.perf_counter()
    for batch in schedule:
        session.apply(batch)
        estimates.append(session.estimate())
    seconds = time.perf_counter() - start
    return seconds, estimates, session


def _run_scratch(instance, mechanism, schedule, *, rounds, engine):
    """The baseline loop: no retained state, rebuild and re-estimate.

    Graph and competency maintenance (the cheap part, shared by any
    workflow) stays in the timed loop for symmetry with the patched run,
    but the baseline instance is constructed *fresh* each step — the
    approval structure, compiled degree tables, delegation streams,
    forests, and per-round values are all re-derived from scratch, which
    is exactly what re-estimating without the delta engine costs.
    """
    estimates = []
    current = instance
    start = time.perf_counter()
    for batch in schedule:
        current, _ = patched_instance(current, batch)
        scratch = ProblemInstance(
            current.graph, current.competencies, alpha=current.alpha
        )
        fresh = DeltaSession(
            scratch, mechanism, rounds=rounds, seed=SEED, engine=engine
        )
        estimates.append(fresh.estimate())
    seconds = time.perf_counter() - start
    return seconds, estimates


def _assert_bit_identical(inc, scratch):
    assert len(inc) == len(scratch)
    for step, (a, b) in enumerate(zip(inc, scratch)):
        assert a.probability == b.probability, f"step {step} diverged"
        assert a.std_error == b.std_error, f"step {step} diverged"
        assert a.rounds == b.rounds, f"step {step} diverged"


def test_mc_churn_speedup(incremental_record):
    """The headline entry: 1% re-delegation churn under the MC engine."""
    n, degree, steps, rewires, rounds = _MC_PARAMS.get(
        SCALE, _MC_PARAMS["smoke"]
    )
    graph = random_regular_graph(n, degree, seed=SEED)
    competencies = bounded_uniform_competencies(n, 0.35, seed=SEED)
    instance = ProblemInstance(graph, competencies, alpha=0.05)
    mechanism = ApprovalThreshold(4)
    schedule = _churn_schedule(graph, steps, rewires)

    seconds, inc_estimates, session = _run_incremental(
        instance, mechanism, schedule, rounds=rounds, engine="mc"
    )
    baseline_seconds, scratch_estimates = _run_scratch(
        instance, mechanism, schedule, rounds=rounds, engine="mc"
    )
    _assert_bit_identical(inc_estimates, scratch_estimates)

    speedup = baseline_seconds / seconds
    incremental_record(
        "mc_churn",
        n,
        seconds,
        baseline_seconds,
        engine="mc",
        steps=steps,
        rewires_per_step=rewires,
        rounds=rounds,
        degree=degree,
        floor=MC_FLOOR,
        patch_stats=dict(session.patch_stats),
        final_estimate=inc_estimates[-1].probability,
    )
    assert speedup >= MC_FLOOR, (
        f"mc churn speedup {speedup:.2f}x under the {MC_FLOOR}x floor "
        f"({seconds:.3f}s patched vs {baseline_seconds:.3f}s scratch)"
    )


def test_exact_churn_speedup(incremental_record):
    """Dirty-path merge-tree re-merge vs full exact-tail rebuilds."""
    n, steps, rewires, competency_edits, rounds = _EXACT_PARAMS.get(
        SCALE, _EXACT_PARAMS["smoke"]
    )
    graph = random_regular_graph(n, 16, seed=SEED)
    competencies = bounded_uniform_competencies(n, 0.35, seed=SEED)
    instance = ProblemInstance(graph, competencies, alpha=0.05)
    mechanism = ApprovalThreshold(4)
    schedule = _churn_schedule(graph, steps, rewires, competency_edits)

    seconds, inc_estimates, session = _run_incremental(
        instance, mechanism, schedule, rounds=rounds, engine="exact"
    )
    baseline_seconds, scratch_estimates = _run_scratch(
        instance, mechanism, schedule, rounds=rounds, engine="exact"
    )
    _assert_bit_identical(inc_estimates, scratch_estimates)

    speedup = baseline_seconds / seconds
    incremental_record(
        "exact_churn",
        n,
        seconds,
        baseline_seconds,
        engine="exact",
        steps=steps,
        rewires_per_step=rewires,
        competency_edits_per_step=competency_edits,
        rounds=rounds,
        floor=EXACT_FLOOR,
        patch_stats=dict(session.patch_stats),
        final_estimate=inc_estimates[-1].probability,
    )
    assert speedup >= EXACT_FLOOR, (
        f"exact churn speedup {speedup:.2f}x under the {EXACT_FLOOR}x floor "
        f"({seconds:.3f}s patched vs {baseline_seconds:.3f}s scratch)"
    )
