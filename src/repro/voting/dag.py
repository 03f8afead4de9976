"""Weighted-majority delegation DAGs — the full Section 6 model.

The paper's base model lets each voter delegate to *one* approved
neighbour.  Section 6 sketches the richer "weighted majority vote"
setting: a voter names several approved delegates with local weights,
and its effective vote is the weighted majority of its delegates'
effective votes.  Because approval is strictly upward in competency
(``α > 0``), the delegate relation is a DAG and effective votes resolve
in one topological pass.

Decision rule: once every voter's effective vote is resolved, the
outcome is the plain majority over all ``n`` effective votes (each voter
still casts exactly one ballot — multi-delegation changes how a ballot
is *formed*, not how many exist).

Exact probabilities are intractable here (effective votes are correlated
through shared upstream delegates), so evaluation is Monte Carlo over
vote realisations; the estimator and its error are reported explicitly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro._util.mathx import wilson_interval
from repro._util.rng import SeedLike, as_generator
from repro.voting import montecarlo


@dataclass(frozen=True)
class DelegateWeights:
    """One voter's multi-delegation choice: delegates and their weights."""

    delegates: Tuple[int, ...]
    weights: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.delegates) != len(self.weights):
            raise ValueError("delegates and weights must have equal length")
        if not self.delegates:
            raise ValueError("a DelegateWeights entry needs at least one delegate")
        if len(set(self.delegates)) != len(self.delegates):
            raise ValueError(f"duplicate delegates in {self.delegates}")
        if any(w <= 0 for w in self.weights):
            raise ValueError("delegate weights must be positive")


class WeightedDelegationDag:
    """A resolved multi-delegation structure over ``n`` voters.

    Parameters
    ----------
    n:
        Number of voters.
    choices:
        Mapping from voter to its :class:`DelegateWeights`; voters absent
        from the mapping vote directly.  The induced delegate relation
        must be acyclic (checked).

    The choices are also held as a delegate CSR over the voters
    (``indptr``, delegates and float weights in each tuple's order) from
    which one level plan is built: level 0 holds the direct voters and
    level ``t`` the voters whose deepest delegate sits on level
    ``t - 1``.  Votes then resolve one level at a time for a whole block
    of rounds.
    """

    def __init__(self, n: int, choices: Dict[int, DelegateWeights]) -> None:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        self._n = n
        self._choices = dict(choices)
        voters = np.array(sorted(self._choices), dtype=np.int64)
        counts = np.zeros(n, dtype=np.int64)
        if voters.size and (voters[0] < 0 or voters[-1] >= n):
            self._raise_invalid()
        entries = [self._choices[v] for v in voters.tolist()]
        counts[voters] = [len(c.delegates) for c in entries]
        self._indptr = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(counts)))
        self._delegates = np.fromiter(
            itertools.chain.from_iterable(c.delegates for c in entries),
            dtype=np.int64, count=int(self._indptr[-1]),
        )
        self._weights = np.fromiter(
            itertools.chain.from_iterable(c.weights for c in entries),
            dtype=float, count=int(self._indptr[-1]),
        )
        owners = np.repeat(np.arange(n, dtype=np.int64), counts)
        d = self._delegates
        if d.size and (d.min() < 0 or d.max() >= n or np.any(d == owners)):
            self._raise_invalid()
        self._levels = self._level_sets(counts, owners)
        self._plan = self._level_plan(counts)

    def _raise_invalid(self) -> None:
        """Raise the first range or self-delegation error, in dict order."""
        for voter, choice in self._choices.items():
            if not 0 <= voter < self._n:
                raise ValueError(f"voter {voter} out of range")
            for d in choice.delegates:
                if not 0 <= d < self._n:
                    raise ValueError(
                        f"voter {voter} delegates to out-of-range {d}"
                    )
                if d == voter:
                    raise ValueError(f"voter {voter} delegates to itself")

    def _level_sets(self, counts: np.ndarray, owners: np.ndarray) -> List[np.ndarray]:
        """Kahn's algorithm one whole level at a time.

        ``remaining[v]`` counts ``v``'s unresolved delegates; a level is
        every voter whose count reached 0 while resolving the previous
        one.  Raises ``ValueError`` on a cycle, naming the voters no
        level reaches (the voters Kahn's algorithm leaves unresolved).
        """
        remaining = counts.copy()
        by_delegate = np.argsort(self._delegates, kind="stable")
        dependents = owners[by_delegate]
        dep_ptr = np.concatenate(
            (np.zeros(1, dtype=np.int64),
             np.cumsum(np.bincount(self._delegates, minlength=self._n)))
        )
        levels: List[np.ndarray] = []
        ready = np.flatnonzero(remaining == 0)
        resolved = 0
        while ready.size:
            levels.append(ready)
            resolved += ready.size
            lo = dep_ptr[ready]
            fan = dep_ptr[ready + 1] - lo
            offsets = np.repeat(lo - (np.cumsum(fan) - fan), fan)
            deps = dependents[offsets + np.arange(int(fan.sum()))]
            np.subtract.at(remaining, deps, 1)
            ready = np.unique(deps[remaining[deps] == 0])
        if resolved != self._n:
            cyclic = np.flatnonzero(remaining > 0).tolist()
            raise ValueError(f"delegation cycle among voters {cyclic}")
        return levels

    def _level_plan(self, counts: np.ndarray) -> List["_Level"]:
        """Per delegating level: its voters and one entry per delegate slot.

        A level's voters are ordered by delegate count, descending
        (stable), so the voters holding slot ``s`` are a prefix of the
        level; slot ``s`` stores that prefix's ``s``-th delegates and
        weights.  ``half`` is each voter's total weight over 2, summed
        slot by slot from 0.0 — Python's left-to-right ``sum``.
        """
        plan = []
        for level in self._levels[1:]:
            voters = level[np.argsort(-counts[level], kind="stable")]
            held = counts[voters]
            starts = self._indptr[voters]
            slots = []
            total = np.zeros(voters.size)
            for slot in range(int(held[0])):
                width = int(np.count_nonzero(held > slot))
                cells = starts[:width] + slot
                weights = self._weights[cells]
                total[:width] += weights
                slots.append((self._delegates[cells], weights[:, None]))
            plan.append(_Level(voters, slots, (total / 2.0)[:, None]))
        return plan

    # -- accessors ---------------------------------------------------------

    @property
    def num_voters(self) -> int:
        """Number of voters."""
        return self._n

    @property
    def direct_voters(self) -> Tuple[int, ...]:
        """Voters that vote directly (no delegates), ascending."""
        return tuple(v for v in range(self._n) if v not in self._choices)

    @property
    def num_delegators(self) -> int:
        """Voters with at least one delegate."""
        return len(self._choices)

    def choice(self, voter: int) -> Optional[DelegateWeights]:
        """The voter's multi-delegation entry, or None for direct voters."""
        return self._choices.get(voter)

    def max_fan_in(self) -> int:
        """Maximum number of delegators naming any single voter.

        The DAG analogue of the maximum sink weight: the quantity the
        Lemma 5-style condition would need to bound.  One ``bincount``
        over the delegate CSR.
        """
        if not self._n:
            return 0
        return int(np.bincount(self._delegates, minlength=self._n).max())

    def _reference_max_fan_in(self) -> int:
        """Per-delegate loop oracle for :meth:`max_fan_in`."""
        fan = np.zeros(self._n, dtype=np.int64)
        for choice in self._choices.values():
            for d in choice.delegates:
                fan[d] += 1
        return int(fan.max()) if self._n else 0

    # -- realisation ----------------------------------------------------------

    def _competencies(self, competencies: Sequence[float]) -> np.ndarray:
        comp = np.asarray(competencies, dtype=float)
        if len(comp) != self._n:
            raise ValueError(
                f"competency vector length {len(comp)} does not match n={self._n}"
            )
        return comp

    def _resolve_votes(
        self, draws: np.ndarray, comp: np.ndarray, tie_break_own_vote: bool
    ) -> np.ndarray:
        """Effective votes of a block of rounds, voter-major ``(n, rounds)``.

        ``draws[r, 0]`` and ``draws[r, 1]`` are round ``r``'s two
        ``random(n)`` rows of the per-round loop.  Each level's correct
        weight is accumulated one delegate slot at a time from 0.0, a
        wrong delegate adding an exact 0.0, so it equals the loop's
        left-to-right ``sum`` bit for bit.
        """
        own = (draws[:, 0, :] < comp).T
        votes = own.copy()
        for level in self._plan:
            correct = np.zeros((level.voters.size, votes.shape[1]))
            for delegates, weights in level.slots:
                correct[: delegates.size] += np.where(votes[delegates], weights, 0.0)
            vote = correct > level.half
            tie = correct == level.half
            if tie.any():
                if tie_break_own_vote:
                    fallback = own[level.voters]
                else:
                    fallback = (draws[:, 1, level.voters] < 0.5).T
                vote |= tie & fallback
            votes[level.voters] = vote
        return votes

    def sample_effective_votes(
        self,
        competencies: Sequence[float],
        rng: SeedLike = None,
        tie_break_own_vote: bool = True,
    ) -> np.ndarray:
        """Realise all effective votes once; returns a 0/1 array.

        Direct voters draw Bernoulli(p_i).  A delegating voter's vote is
        the weighted majority of its delegates' effective votes; a tied
        weighted majority falls back to the voter's own fresh
        Bernoulli(p_i) draw when ``tie_break_own_vote`` (the "you decide
        when your advisors disagree" rule), else a fair coin.  One round
        of the level kernel; :meth:`_reference_sample_effective_votes`
        is the per-voter oracle.
        """
        comp = self._competencies(competencies)
        draws = as_generator(rng).random((1, 2, self._n))
        return self._resolve_votes(draws, comp, tie_break_own_vote)[:, 0].astype(np.int8)

    def _reference_sample_effective_votes(
        self,
        competencies: Sequence[float],
        rng: SeedLike = None,
        tie_break_own_vote: bool = True,
    ) -> np.ndarray:
        """Per-voter oracle for :meth:`sample_effective_votes`.

        Voters resolve in level order; any order that puts delegates
        before their delegators gives the same votes.
        """
        comp = self._competencies(competencies)
        gen = as_generator(rng)
        votes = np.zeros(self._n, dtype=np.int8)
        draws = gen.random(self._n)
        tie_draws = gen.random(self._n)
        for v in np.concatenate(self._levels).tolist() if self._n else ():
            choice = self._choices.get(v)
            if choice is None:
                votes[v] = 1 if draws[v] < comp[v] else 0
                continue
            correct_w = sum(
                w for d, w in zip(choice.delegates, choice.weights) if votes[d]
            )
            total_w = sum(choice.weights)
            if correct_w > total_w / 2.0:
                votes[v] = 1
            elif correct_w < total_w / 2.0:
                votes[v] = 0
            elif tie_break_own_vote:
                votes[v] = 1 if draws[v] < comp[v] else 0
            else:
                votes[v] = 1 if tie_draws[v] < 0.5 else 0
        return votes

    def estimate_correct_probability(
        self,
        competencies: Sequence[float],
        rounds: int = 400,
        seed: SeedLike = None,
        tie_break_own_vote: bool = True,
    ) -> Tuple[float, float, float]:
        """Monte Carlo ``P[majority of effective votes is correct]``.

        Returns ``(estimate, ci_low, ci_high)`` with a Wilson 95%
        interval.  The final decision uses the strict-majority rule over
        all ``n`` effective votes (ties incorrect), matching the paper.

        Rounds run in blocks under
        :data:`~repro.voting.montecarlo.CHUNK_BUDGET_BYTES`; a block's
        ``random((block, 2, n))`` draw is the per-round loop's stream
        (:meth:`_reference_estimate_correct_probability`), so the
        estimate and the generator's end state match it bit for bit.
        """
        if rounds <= 0:
            raise ValueError(f"rounds must be positive, got {rounds}")
        gen = as_generator(seed)
        comp = self._competencies(competencies)
        block = max(1, montecarlo.CHUNK_BUDGET_BYTES // (_BYTES_PER_CELL * max(1, self._n)))
        wins = 0
        for done in range(0, rounds, block):
            draws = gen.random((min(block, rounds - done), 2, self._n))
            votes = self._resolve_votes(draws, comp, tie_break_own_vote)
            wins += int(np.count_nonzero(votes.sum(axis=0) * 2 > self._n))
        lo, hi = wilson_interval(wins, rounds)
        return (wins / rounds, lo, hi)

    def _reference_estimate_correct_probability(
        self,
        competencies: Sequence[float],
        rounds: int = 400,
        seed: SeedLike = None,
        tie_break_own_vote: bool = True,
    ) -> Tuple[float, float, float]:
        """Per-round oracle for :meth:`estimate_correct_probability`."""
        if rounds <= 0:
            raise ValueError(f"rounds must be positive, got {rounds}")
        gen = as_generator(seed)
        wins = 0
        for _ in range(rounds):
            votes = self._reference_sample_effective_votes(
                competencies, gen, tie_break_own_vote
            )
            if int(votes.sum()) * 2 > self._n:
                wins += 1
        lo, hi = wilson_interval(wins, rounds)
        return (wins / rounds, lo, hi)

    def __repr__(self) -> str:
        return (
            f"WeightedDelegationDag(n={self._n}, "
            f"delegators={self.num_delegators}, max_fan_in={self.max_fan_in()})"
        )


_BYTES_PER_CELL = 40
"""Peak bytes per voter and round of :meth:`WeightedDelegationDag.
estimate_correct_probability`: the two float64 draws, the own-vote and
vote masks, and one level's float64 weight sums and gathers."""


class _Level(NamedTuple):
    """One delegating level of :meth:`WeightedDelegationDag._level_plan`."""

    voters: np.ndarray
    slots: List[Tuple[np.ndarray, np.ndarray]]
    half: np.ndarray

