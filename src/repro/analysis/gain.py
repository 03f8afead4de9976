"""Gain computation: ``gain(M, G) = P^M(G) − P^D(G)`` (Section 2.2).

Two evaluation modes:

* :func:`exact_gain` — for mechanisms with few distinct forests (or a
  deterministic forest, like :class:`~repro.mechanisms.GreedyBest`),
  enumerate/average exactly;
* :func:`monte_carlo_gain` — Rao–Blackwellised Monte Carlo over the
  mechanism's randomness with exact conditional correctness per forest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro._util.rng import SeedLike, as_generator
from repro.core.instance import ProblemInstance
from repro.voting.exact import direct_voting_probability, forest_correct_probability
from repro.voting.montecarlo import estimate_correct_probability
from repro.voting.outcome import TiePolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.mechanisms.base import DelegationMechanism


@dataclass(frozen=True)
class GainEstimate:
    """A gain measurement with its components and uncertainty."""

    gain: float
    mechanism_probability: float
    direct_probability: float
    std_error: float
    rounds: int

    @property
    def ci_low(self) -> float:
        """Lower end of a 95% interval on the gain."""
        return self.gain - 1.96 * self.std_error

    @property
    def ci_high(self) -> float:
        """Upper end of a 95% interval on the gain."""
        return self.gain + 1.96 * self.std_error

    def is_positive(self, significance: float = 1.96) -> bool:
        """Whether the gain is positive beyond ``significance`` std errors."""
        return self.gain > significance * self.std_error

    def is_negative(self, significance: float = 1.96) -> bool:
        """Whether the gain is negative beyond ``significance`` std errors."""
        return self.gain < -significance * self.std_error


def exact_gain(
    instance: ProblemInstance,
    mechanism: "DelegationMechanism",
    tie_policy: TiePolicy = TiePolicy.INCORRECT,
    rng: SeedLike = 0,
) -> GainEstimate:
    """Gain for a mechanism whose forest is deterministic.

    Samples the forest once (deterministic mechanisms ignore the seed)
    and computes both probabilities exactly.  For randomised mechanisms
    use :func:`monte_carlo_gain` instead.
    """
    forest = mechanism.sample_delegations(instance, as_generator(rng))
    pm = forest_correct_probability(forest, instance.competencies, tie_policy)
    pd = direct_voting_probability(instance.competencies, tie_policy)
    return GainEstimate(
        gain=pm - pd,
        mechanism_probability=pm,
        direct_probability=pd,
        std_error=0.0,
        rounds=1,
    )


def monte_carlo_gain(
    instance: ProblemInstance,
    mechanism: "DelegationMechanism",
    rounds: int = 400,
    seed: SeedLike = None,
    tie_policy: TiePolicy = TiePolicy.INCORRECT,
    n_jobs: int = 1,
    target_se: Optional[float] = None,
    max_rounds: Optional[int] = None,
    cache=None,
) -> GainEstimate:
    """Rao–Blackwellised gain estimate over mechanism randomness.

    Direct voting is exact; only the forest distribution is sampled, so
    ``std_error`` reflects purely the mechanism's randomness.  ``n_jobs``
    sets the estimator's process-pool workers, ``target_se`` /
    ``max_rounds`` adaptive precision and ``cache`` on-disk persistence,
    see :func:`repro.voting.montecarlo.estimate_correct_probability`.
    ``rounds`` on the returned estimate is the count actually evaluated
    (smaller than the request when an adaptive run converges early).
    """
    est = estimate_correct_probability(
        instance,
        mechanism,
        rounds=rounds,
        seed=seed,
        tie_policy=tie_policy,
        n_jobs=n_jobs,
        target_se=target_se,
        max_rounds=max_rounds,
        cache=cache,
    )
    pd = direct_voting_probability(instance.competencies, tie_policy)
    return GainEstimate(
        gain=est.probability - pd,
        mechanism_probability=est.probability,
        direct_probability=pd,
        std_error=est.std_error,
        rounds=est.rounds,
    )
