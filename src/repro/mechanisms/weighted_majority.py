"""The full weighted-majority multi-delegation mechanism (Section 6).

Unlike :class:`~repro.mechanisms.extensions.MultiDelegateWeighted`
(which applies the paper's best-of-k *reduction* and stays inside the
single-delegate forest model), this mechanism realises the complete
Section 6 setting: each voter names up to ``k`` distinct approved
neighbours with a local weight function, and effective votes resolve as
weighted majorities over the resulting DAG
(:class:`~repro.voting.dag.WeightedDelegationDag`).

Weight functions implemented:

* ``"uniform"`` — equal weights (pure majority-of-advisors);
* ``"rank"`` — weights proportional to 1, 2, …, k by the voter's local
  ranking of the chosen delegates (better-ranked advisors count more).

Footnote 3 of the paper notes any non-trivial weight function assumes
extra information; the ``rank`` option uses only the local ranking the
model already grants.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro._util.rng import SeedLike, as_generator
from repro.core.instance import ProblemInstance
from repro.voting.dag import DelegateWeights, WeightedDelegationDag

_WEIGHTINGS = ("uniform", "rank")


class WeightedMajorityDelegation:
    """Multi-delegate mechanism producing a weighted delegation DAG.

    Parameters
    ----------
    k:
        Maximum number of delegates per voter; a voter with fewer
        approved neighbours names all of them.
    threshold:
        Minimum approved-neighbour count required to delegate at all
        (Algorithm 1's condition, reused).
    weighting:
        ``"uniform"`` or ``"rank"`` (see module docstring).
    """

    def __init__(
        self, k: int, threshold: float = 1.0, weighting: str = "uniform"
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if weighting not in _WEIGHTINGS:
            raise ValueError(
                f"weighting must be one of {_WEIGHTINGS}, got {weighting!r}"
            )
        self._k = int(k)
        self._threshold = float(threshold)
        self._weighting = weighting
        # Weights of a voter naming ``m`` delegates, at index ``m - 1``;
        # rank: better-ranked (higher) advisors weigh more.
        self._weights = tuple(
            tuple(1.0 if weighting == "uniform" else float(r + 1) for r in range(m))
            for m in range(1, self._k + 1)
        )

    @property
    def name(self) -> str:
        """Identifier used in reports."""
        return (
            f"weighted-majority(k={self._k}, j={self._threshold:.3g}, "
            f"{self._weighting})"
        )

    @property
    def k(self) -> int:
        """Maximum delegates per voter."""
        return self._k

    def sample_dag(
        self, instance: ProblemInstance, rng: SeedLike = None
    ) -> WeightedDelegationDag:
        """Draw one weighted delegation DAG for ``instance``.

        Delegates are read as offsets into the compiled approval
        segments, which are already in local-view order (competency
        ascending, ties by index); the per-voter ``gen.choice`` calls of
        :meth:`_reference_sample_dag` stay, since they fix the stream.
        """
        gen = as_generator(rng)
        compiled = instance.compiled()
        counts = compiled.approved_counts
        voters = np.flatnonzero((counts > 0) & (counts >= self._threshold))
        picks = []
        for count in counts[voters].tolist():
            picks.append(np.sort(gen.choice(count, size=min(self._k, count), replace=False)))
        choices: Dict[int, DelegateWeights] = {}
        if voters.size:
            sizes = [len(p) for p in picks]
            delegates = compiled.resolve_approved_offsets(
                np.repeat(voters, sizes), np.concatenate(picks)
            ).tolist()
            start = 0
            for voter, size in zip(voters.tolist(), sizes):
                choices[voter] = DelegateWeights(
                    tuple(delegates[start:start + size]), self._weights[size - 1]
                )
                start += size
        return WeightedDelegationDag(instance.num_voters, choices)

    def _reference_sample_dag(
        self, instance: ProblemInstance, rng: SeedLike = None
    ) -> WeightedDelegationDag:
        """Per-voter local-view oracle for :meth:`sample_dag`."""
        gen = as_generator(rng)
        choices: Dict[int, DelegateWeights] = {}
        for voter in range(instance.num_voters):
            view = instance.local_view(voter)
            if not view.approved or view.approval_count < self._threshold:
                continue
            count = min(self._k, view.approval_count)
            picks = gen.choice(view.approval_count, size=count, replace=False)
            picks = np.sort(picks)  # ascending local rank
            delegates = tuple(int(view.approved[int(i)]) for i in picks)
            if self._weighting == "uniform":
                weights = tuple(1.0 for _ in delegates)
            else:  # rank: better-ranked (higher) advisors weigh more
                weights = tuple(float(r + 1) for r in range(len(delegates)))
            choices[voter] = DelegateWeights(delegates, weights)
        return WeightedDelegationDag(instance.num_voters, choices)

    def estimate_correct_probability(
        self,
        instance: ProblemInstance,
        dag_rounds: int = 20,
        vote_rounds: int = 200,
        seed: SeedLike = None,
    ) -> float:
        """Average Monte Carlo correctness over sampled DAGs."""
        if dag_rounds <= 0:
            raise ValueError(f"dag_rounds must be positive, got {dag_rounds}")
        gen = as_generator(seed)
        total = 0.0
        for _ in range(dag_rounds):
            dag = self.sample_dag(instance, gen)
            estimate, _, _ = dag.estimate_correct_probability(
                instance.competencies, rounds=vote_rounds, seed=gen
            )
            total += estimate
        return total / dag_rounds

    def __repr__(self) -> str:
        return f"WeightedMajorityDelegation(name={self.name!r})"
