"""Ablations A1–A2: the design knobs DESIGN.md calls out.

* **A1 — approval threshold α.**  Larger α means delegates are strictly
  better (the Lemma 7 per-delegation expectation increase is ≥ α), but
  also shrinks approval sets and hence delegation volume.  Gain should
  rise with α until the volume collapse dominates.
* **A2 — mechanism threshold j(n).**  Algorithm 1's threshold trades the
  two desiderata: small j maximises delegation (more gain, but on
  adversarial instances more weight concentration — the DNH risk);
  j close to n stops delegation entirely (gain → 0).
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
from repro.experiments.theorems import dnh_competencies
from repro.graphs.generators import complete_graph
from repro.mechanisms.threshold import ApprovalThreshold


@register_experiment("A1", "Ablation: approval threshold alpha")
def run_alpha_ablation(config: ExperimentConfig = ExperimentConfig()) -> ExperimentResult:
    """Gain of Algorithm 1 on K_n as alpha sweeps."""
    n = config.pick(smoke=256, default=1024, full=4096)
    rounds = config.pick(smoke=40, default=150, full=400)
    alphas = config.pick(
        smoke=[0.02, 0.1],
        default=[0.01, 0.02, 0.05, 0.1, 0.2, 0.29],
        full=[0.005, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.29],
    )
    rows: List[List[object]] = []
    gens = spawn_generators(config.seed, len(alphas) + 1)
    p = bounded_uniform_competencies(n, 0.35, seed=gens[-1])
    mech = ApprovalThreshold(lambda nn: max(1.0, nn ** (1.0 / 3.0)))
    for alpha, gen in zip(alphas, gens[: len(alphas)]):
        inst = ProblemInstance(complete_graph(n), p, alpha=alpha)
        forest = mech.sample_delegations(inst, gen)
        est = monte_carlo_gain(
            inst, mech, rounds=rounds, seed=gen, **config.estimator_kwargs()
        )
        rows.append(
            [alpha, forest.num_delegators, forest.max_weight(),
             est.direct_probability, est.mechanism_probability, est.gain]
        )
    result = ExperimentResult(
        experiment_id="A1",
        title="Ablation: approval threshold alpha",
        claim=(
            "per-delegation expectation increase is >= alpha, so gain "
            "grows with alpha while approval sets stay large; very large "
            "alpha shrinks delegation volume (competencies span only 0.3)"
        ),
        headers=["alpha", "delegators", "max_weight", "P_direct",
                 "P_mechanism", "gain"],
        rows=rows,
        seed=config.seed,
        scale=config.scale,
    )
    result.observations.append(
        f"delegators fall from {rows[0][1]} (alpha={alphas[0]}) to "
        f"{rows[-1][1]} (alpha={alphas[-1]}); gains "
        f"{['%+.3f' % r[5] for r in rows]}"
    )
    return result


@register_experiment("A3", "Ablation: tie policy")
def run_tie_policy_ablation(config: ExperimentConfig = ExperimentConfig()) -> ExperimentResult:
    """Strict-majority vs coin-flip ties across representative instances.

    The paper's decision rule counts ties as incorrect.  None of its
    asymptotic statements can depend on this choice: the two policies
    differ exactly by half the tie probability mass, which vanishes for
    non-degenerate instances as n grows.  This ablation measures that
    difference directly.
    """
    from repro.voting.outcome import TiePolicy
    from repro.voting.exact import direct_voting_probability

    sizes = config.pick(
        smoke=[16, 64], default=[16, 64, 256, 1024], full=[16, 64, 256, 1024, 4096]
    )
    rows: List[List[object]] = []
    gens = spawn_generators(config.seed, len(sizes))
    for n, gen in zip(sizes, gens):
        p = bounded_uniform_competencies(n, 0.35, seed=gen)
        strict = direct_voting_probability(p, TiePolicy.INCORRECT)
        coin = direct_voting_probability(p, TiePolicy.COIN_FLIP)
        # even-n worst case: all-1/2 voters maximise tie mass
        p_half = np.full(n, 0.5)
        strict_h = direct_voting_probability(p_half, TiePolicy.INCORRECT)
        coin_h = direct_voting_probability(p_half, TiePolicy.COIN_FLIP)
        rows.append([n, strict, coin, coin - strict, coin_h - strict_h])
    result = ExperimentResult(
        experiment_id="A3",
        title="Ablation: tie policy",
        claim=(
            "the strict-majority and coin-flip tie rules differ by half "
            "the tie mass, which decays like Theta(1/sqrt(n)) even in the "
            "worst (all-1/2) case — no asymptotic conclusion depends on "
            "the tie rule"
        ),
        headers=["n", "P_strict", "P_coinflip", "delta", "worst_case_delta"],
        rows=rows,
        seed=config.seed,
        scale=config.scale,
    )
    deltas = [r[4] for r in rows]
    result.observations.append(
        f"worst-case tie-rule difference shrinks {deltas[0]:.4f} -> "
        f"{deltas[-1]:.4f} as n grows {sizes[0]} -> {sizes[-1]}"
    )
    return result


@register_experiment("A4", "Ablation: Rao-Blackwellised vs naive estimation")
def run_estimator_ablation(config: ExperimentConfig = ExperimentConfig()) -> ExperimentResult:
    """Variance of the exact-conditional estimator vs naive simulation.

    A design choice DESIGN.md calls out: sampling only the delegation
    forest and adding the exact conditional correctness removes all
    vote-sampling variance.  This ablation measures the standard error
    of both estimators at equal round budgets.
    """
    from repro.voting.montecarlo import estimate_correct_probability
    from repro.mechanisms.threshold import ApprovalThreshold

    n = config.pick(smoke=128, default=512, full=2048)
    budgets = config.pick(smoke=[50], default=[50, 200, 800], full=[50, 200, 800, 3200])
    gens = spawn_generators(config.seed, 2 * len(budgets) + 1)
    p = bounded_uniform_competencies(n, 0.35, seed=gens[-1])
    inst = ProblemInstance(complete_graph(n), p, alpha=0.05)
    mech = ApprovalThreshold(lambda d: max(1.0, d ** (1.0 / 3.0)))
    rows: List[List[object]] = []
    for idx, rounds in enumerate(budgets):
        # Fixed budgets on purpose: this ablation *measures* standard
        # errors, so the adaptive target_se knob is not forwarded.
        exact = estimate_correct_probability(
            inst, mech, rounds=rounds, seed=gens[2 * idx],
            exact_conditional=True, cache=config.estimate_cache(),
        )
        naive = estimate_correct_probability(
            inst, mech, rounds=rounds, seed=gens[2 * idx + 1],
            exact_conditional=False, cache=config.estimate_cache(),
        )
        # Uncertainty via the 95% CI half-width: the naive estimator's
        # sample variance degenerates to 0 when all rounds agree (e.g.
        # 50/50 successes), while its Wilson interval stays honest.
        exact_unc = (exact.ci_high - exact.ci_low) / 2.0
        naive_unc = (naive.ci_high - naive.ci_low) / 2.0
        ratio = naive_unc / exact_unc if exact_unc > 0 else float("inf")
        rows.append(
            [rounds, exact.probability, exact_unc,
             naive.probability, naive_unc, ratio]
        )
    result = ExperimentResult(
        experiment_id="A4",
        title="Ablation: Rao-Blackwellised vs naive estimation",
        claim=(
            "conditioning on the forest and computing the exact weighted "
            "Poisson-binomial tail removes vote-sampling variance: the "
            "naive estimator needs orders of magnitude more rounds for "
            "the same standard error"
        ),
        headers=["rounds", "P_exactcond", "unc_exactcond", "P_naive",
                 "unc_naive", "se_ratio"],
        rows=rows,
        seed=config.seed,
        scale=config.scale,
    )
    result.observations.append(
        f"standard-error ratios (naive / Rao-Blackwellised): "
        f"{['%.1f' % r[5] for r in rows]}"
    )
    return result


@register_experiment("A2", "Ablation: Algorithm 1 threshold j(n)")
def run_threshold_ablation(config: ExperimentConfig = ExperimentConfig()) -> ExperimentResult:
    """Gain and weight concentration of Algorithm 1 as j(n) sweeps."""
    n = config.pick(smoke=256, default=1024, full=4096)
    rounds = config.pick(smoke=40, default=150, full=400)
    thresholds = [
        ("1", 1.0),
        ("log2(n)", float(np.log2(n))),
        ("n^(1/3)", float(n ** (1.0 / 3.0))),
        ("n^(1/2)", float(n**0.5)),
        ("n/4", n / 4.0),
        ("n/2", n / 2.0),
    ]
    if config.scale == "smoke":
        thresholds = thresholds[::2]
    rows: List[List[object]] = []
    gens = spawn_generators(config.seed, 2 * len(thresholds))
    experts = max(2, int(round(n ** (1.0 / 3.0))))
    for idx, (label, j) in enumerate(thresholds):
        gen_spg, gen_dnh = gens[2 * idx], gens[2 * idx + 1]
        mech = ApprovalThreshold(j)
        p = bounded_uniform_competencies(n, 0.35, seed=gen_spg)
        inst = ProblemInstance(complete_graph(n), p, alpha=0.05)
        forest = mech.sample_delegations(inst, gen_spg)
        est = monte_carlo_gain(
            inst, mech, rounds=rounds, seed=gen_spg, **config.estimator_kwargs()
        )
        # Adversarial few-experts instance: small j concentrates weight.
        inst_adv = ProblemInstance(
            complete_graph(n), dnh_competencies(n, experts), alpha=0.05
        )
        forest_adv = mech.sample_delegations(inst_adv, gen_dnh)
        est_adv = monte_carlo_gain(
            inst_adv, mech, rounds=rounds, seed=gen_dnh,
            **config.estimator_kwargs()
        )
        rows.append(
            [label, forest.num_delegators, est.gain,
             forest_adv.max_weight(), est_adv.gain]
        )
    result = ExperimentResult(
        experiment_id="A2",
        title="Ablation: Algorithm 1 threshold j(n)",
        claim=(
            "small j maximises delegation and gain on benign instances but "
            "concentrates weight on adversarial ones; j ~ n stops "
            "delegation and sends gain to 0 — j in o(n) but growing "
            "(e.g. n^(1/3)) balances both"
        ),
        headers=["j(n)", "delegators", "gain_benign",
                 "max_weight_adversarial", "gain_adversarial"],
        rows=rows,
        seed=config.seed,
        scale=config.scale,
    )
    result.observations.append(
        f"benign gain by threshold: {['%+.3f' % r[2] for r in rows]}; "
        f"adversarial max weight: {[r[3] for r in rows]}"
    )
    return result
