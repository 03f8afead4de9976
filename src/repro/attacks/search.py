"""Greedy budgeted attack search for do-no-harm violations.

:class:`AttackSearch` drives a declarative
:class:`~repro.attacks.scenarios.AttackScenario` against an instance:
each step the scenario proposes candidate moves (edit batches with
costs), the searcher scores every affordable candidate by the *harm* it
inflicts — direct-majority correct probability minus the mechanism's
estimate, both on the attacked state — commits the strictly best one,
and stops when the committed harm clears ``min_harm`` with a
``margin``-sigma statistical cushion (a DNH violation, emitted as a
:class:`~repro.attacks.certificates.ViolationCertificate`), when no
candidate improves, or when the budget or step cap runs out.

The inner loop is the point: with ``inner="delta"`` all candidates are
evaluated on **one** shared :class:`~repro.incremental.session.DeltaSession`
inside :meth:`~repro.incremental.session.DeltaSession.trial` — apply the
candidate's edits, estimate, and restore the committed state from the
trial's undo log — so each score is a patched estimate touching only the
affected voters, not a from-scratch re-resolution.  ``inner="scratch"``
rebuilds a fresh session per candidate instead; it is the benchmark
baseline (``benchmarks/bench_attacks.py``) and, because a session is a
pure function of its patched instance, both inners produce **bitwise
identical** scores, commits, and certificates.

A search does not build its base session when the previous search left
one for the same instance object, mechanism token, rounds, seed, engine
and tie policy: one module-level slot retains the last finished search's
session, walked back to its base by the inverses of its committed moves,
with the base :class:`~repro.voting.exact.DirectVotingTerm`.  A search
takes the session out of the slot (concurrent searches never share one),
empties the slot before building on a miss (so at most one idle session
is held), and puts it back only when it finishes normally.  A session is
a pure function of its inputs, so reuse changes no result bit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro._util.rng import as_generator, as_seed_sequence, child_seed_sequence, derive_seed
from repro.attacks.certificates import ViolationCertificate, instance_digest
from repro.attacks.scenarios import AttackMove, AttackScenario, build_scenario
from repro.core.instance import ProblemInstance
from repro.incremental.edits import (
    Join,
    Leave,
    Rewire,
    SetCompetency,
    as_edit,
    canonical_batch,
    edit_chain_digest,
    invert_batch,
)
from repro.incremental.session import ENGINES, DeltaSession
from repro.voting.exact import DirectVotingTerm, direct_voting_probability
from repro.voting.montecarlo import CorrectnessEstimate
from repro.voting.outcome import TiePolicy

INNER_LOOPS = ("delta", "scratch")

#: Scores within this of each other are treated as ties (the earlier
#: proposal wins); committing requires a strictly larger improvement.
_HARM_EPS = 1e-12


@dataclass
class AttackResult:
    """Outcome of one :meth:`AttackSearch.run`.

    ``found`` says whether a certified DNH violation was reached;
    ``certificate`` is its wire dict when it was (kept as a dict so the
    result itself round-trips through JSON unchanged).  ``history`` has
    one record per committed move: step index, move label and cost, the
    post-commit mechanism estimate and direct probability, and the harm.
    """

    found: bool
    scenario: str
    budget: int
    budget_spent: int
    steps: int
    moves_evaluated: int
    baseline_harm: float
    best_harm: float
    history: List[Dict[str, Any]] = field(default_factory=list)
    certificate: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "found": self.found,
            "scenario": self.scenario,
            "budget": self.budget,
            "budget_spent": self.budget_spent,
            "steps": self.steps,
            "moves_evaluated": self.moves_evaluated,
            "baseline_harm": self.baseline_harm,
            "best_harm": self.best_harm,
            "history": self.history,
            "certificate": self.certificate,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AttackResult":
        try:
            certificate = data.get("certificate")
            return cls(
                found=bool(data["found"]),
                scenario=str(data["scenario"]),
                budget=int(data["budget"]),
                budget_spent=int(data["budget_spent"]),
                steps=int(data["steps"]),
                moves_evaluated=int(data["moves_evaluated"]),
                baseline_harm=float(data["baseline_harm"]),
                best_harm=float(data["best_harm"]),
                history=[dict(h) for h in data["history"]],
                certificate=dict(certificate) if certificate is not None else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed attack result payload: {exc}") from None


class _BaseSlot:
    """One retained base session and its direct term, behind a lock.

    :meth:`take` always empties the slot, so a miss frees the held
    session before the caller builds its own, and two threads never
    hold the same session.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._held: Optional[Tuple[Any, DeltaSession, DirectVotingTerm]] = None

    def take(
        self, key: Any, instance: ProblemInstance
    ) -> Optional[Tuple[DeltaSession, DirectVotingTerm]]:
        with self._lock:
            held, self._held = self._held, None
        if held is None or held[0] != key or held[1].base_instance is not instance:
            return None
        return held[1], held[2]

    def put(self, key: Any, session: DeltaSession, direct: DirectVotingTerm) -> None:
        with self._lock:
            self._held = (key, session, direct)


_BASE = _BaseSlot()


def _check_positive(value: int, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


class AttackSearch:
    """Explore an attack budget for a certified DNH violation.

    Parameters
    ----------
    instance:
        The base (pre-attack) :class:`~repro.core.instance.ProblemInstance`.
    mechanism:
        A declarative mechanism spec dict (``{"name": ...}`` plus
        parameters, as accepted by the service protocol) — kept
        declarative so certificates replay standalone.
    scenario:
        An :class:`~repro.attacks.scenarios.AttackScenario` or its spec
        dict from :func:`~repro.attacks.scenarios.scenario_spec`.
    budget:
        Total attack budget; each committed move spends its ``cost``.
    rounds, seed, engine, tie_policy:
        Estimation parameters, passed straight to the inner
        :class:`~repro.incremental.session.DeltaSession`; together with
        the instance and mechanism they pin every estimate bitwise.
    min_harm, margin:
        Violation threshold: committed harm must exceed ``min_harm`` by
        ``margin`` standard errors of the mechanism estimate.
    inner:
        ``"delta"`` (shared patched session; default) or ``"scratch"``
        (fresh session per candidate; benchmark baseline).
    max_steps:
        Cap on committed moves (defaults to ``budget``).
    """

    def __init__(
        self,
        instance: ProblemInstance,
        mechanism: Mapping[str, Any],
        scenario: Union[AttackScenario, Mapping[str, Any]],
        *,
        budget: int = 8,
        rounds: int = 64,
        seed: int = 0,
        engine: str = "mc",
        tie_policy: Union[TiePolicy, str] = TiePolicy.INCORRECT,
        min_harm: float = 0.05,
        margin: float = 2.0,
        inner: str = "delta",
        max_steps: Optional[int] = None,
        cache: Optional[Any] = None,
    ) -> None:
        if not isinstance(mechanism, Mapping):
            raise ValueError(
                "mechanism must be a declarative spec mapping "
                "(e.g. {'name': 'random_approved'}) so certificates "
                "replay standalone"
            )
        from repro.service.protocol import ServiceError, build_mechanism

        try:
            built = build_mechanism(dict(mechanism))
        except ServiceError as exc:
            raise ValueError(str(exc)) from None
        from repro.mechanisms.base import LocalDelegationMechanism

        if not isinstance(built, LocalDelegationMechanism) or not (
            getattr(built, "supports_batch_sampling", False)
        ):
            raise ValueError(
                "attack search requires a local mechanism with a batch "
                "kernel (the delta inner loop), got "
                f"{getattr(built, 'name', type(built).__name__)!r}"
            )
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        if inner not in INNER_LOOPS:
            raise ValueError(
                f"inner must be one of {INNER_LOOPS}, got {inner!r}"
            )
        if isinstance(tie_policy, str):
            try:
                tie_policy = TiePolicy[tie_policy]
            except KeyError:
                raise ValueError(f"unknown tie policy {tie_policy!r}") from None
        if not isinstance(min_harm, (int, float)) or isinstance(min_harm, bool):
            raise ValueError(f"min_harm must be a number, got {min_harm!r}")
        if not isinstance(margin, (int, float)) or isinstance(margin, bool):
            raise ValueError(f"margin must be a number, got {margin!r}")
        if float(margin) < 0.0:
            raise ValueError(f"margin must be non-negative, got {margin}")
        self.instance = instance
        self.mechanism_spec = dict(mechanism)
        self.mechanism = built
        self.scenario = build_scenario(scenario)
        self.budget = _check_positive(budget, "budget")
        self.rounds = _check_positive(rounds, "rounds")
        self.seed = int(seed)
        self.engine = engine
        self.tie_policy = tie_policy
        self.min_harm = float(min_harm)
        self.margin = float(margin)
        self.inner = inner
        self.max_steps = (
            self.budget if max_steps is None
            else _check_positive(max_steps, "max_steps")
        )
        self._cache = cache
        # The scenario's proposal stream is seeded independently of the
        # estimation stream so neither perturbs the other.
        self._proposal_root = as_seed_sequence(derive_seed(self.seed, 1))

    # ------------------------------------------------------------------
    # inner loops

    def _fresh_session(self, instance: ProblemInstance) -> DeltaSession:
        return DeltaSession(
            instance,
            self.mechanism,
            rounds=self.rounds,
            seed=self.seed,
            engine=self.engine,
            tie_policy=self.tie_policy,
            cache=self._cache,
        )

    # reprolint: reference=_score_scratch
    def _score_delta(
        self, session: DeltaSession, move: AttackMove
    ) -> CorrectnessEstimate:
        """Patched score: the move applied in a trial on the shared session."""
        with session.trial(move.edits):
            return session.estimate()

    def _score_scratch(
        self, instance: ProblemInstance, move: AttackMove
    ) -> CorrectnessEstimate:
        """Baseline score: a fresh session rebuilt per candidate."""
        session = self._fresh_session(instance)
        session.apply(move.edits)
        return session.estimate()

    def _screen_direct(self, direct: DirectVotingTerm, move: AttackMove) -> float:
        """Direct probability of the state ``move`` would produce.

        Moves that leave competencies alone reuse the committed value;
        one ``SetCompetency`` plus any number of ``Join`` edits are
        scored in O(n) per edit from the committed PMF.  Anything else
        (a ``Leave``, several competency changes) is recomputed on a
        patched copy.
        """
        n = len(direct.competencies)
        joins: List[float] = []
        competency: Optional[Tuple[int, float]] = None
        for edit in map(as_edit, move.edits):
            if isinstance(edit, Join):
                joins.append(edit.competency)
            elif isinstance(edit, SetCompetency) and edit.voter >= n:
                joins[edit.voter - n] = edit.competency
            elif isinstance(edit, SetCompetency) and competency is None:
                competency = (edit.voter, edit.competency)
            elif isinstance(edit, (SetCompetency, Leave)):
                return direct_voting_probability(
                    _attacked_competencies(direct.competencies, move.edits),
                    tie_policy=self.tie_policy,
                )
        return direct.probability_delta(competency, joins)

    # ------------------------------------------------------------------

    def run(self) -> AttackResult:
        """Run the greedy search; returns the (JSON-serialisable) result."""
        token = self.mechanism.cache_token(self.instance)
        key = None if token is None else (
            token, self.rounds, self.seed, self.engine, self.tie_policy
        )
        taken = None if key is None else _BASE.take(key, self.instance)
        if taken is None:
            session = self._fresh_session(self.instance)
            base_direct = DirectVotingTerm(
                session.instance.competencies, self.tie_policy
            )
        else:
            session, base_direct = taken
            session.cache = self._cache
        result, inverses = self._search(session, base_direct)
        if key is not None and inverses is not None:
            for inverse in reversed(inverses):
                session.apply(inverse)
            session.reset_chain()
            session.cache = None  # the slot must not keep a caller's cache alive
            _BASE.put(key, session, base_direct)
        return result

    def _search(
        self, session: DeltaSession, direct: DirectVotingTerm
    ) -> Tuple[AttackResult, Optional[List[List[Any]]]]:
        """The greedy search from ``session``'s base state.

        Returns the result and the inverse of each committed batch, in
        commit order (``None`` when a committed batch has no inverse).
        """
        pre_estimate = session.estimate()
        # Candidates are screened against the committed state's cached
        # PMF; every published direct value comes from a fresh term.
        pre_direct = direct.probability
        baseline_harm = pre_direct - pre_estimate.probability

        committed: List[Tuple[Any, ...]] = []  # canonical batches
        inverses: Optional[List[List[Any]]] = []
        history: List[Dict[str, Any]] = []
        moves_evaluated = 0
        budget_left = self.budget
        current_harm = baseline_harm
        post_estimate = pre_estimate
        found = False

        for step in range(self.max_steps):
            rng = as_generator(child_seed_sequence(self._proposal_root, step))
            proposals = self.scenario.propose(
                session.instance, self.mechanism, rng
            )
            affordable = [m for m in proposals if m.cost <= budget_left]
            if not affordable:
                break

            best: Optional[Tuple[AttackMove, CorrectnessEstimate, float]] = None
            for move in affordable:
                moves_evaluated += 1
                if self.inner == "delta":
                    # The trial restores the committed state bitwise, so
                    # shadow edits (e.g. a shared Join) never collide.
                    estimate = self._score_delta(session, move)
                else:
                    estimate = self._score_scratch(session.instance, move)
                # Harm is judged on the attacked state: the move may have
                # changed competencies, which changes both sides.
                harm = self._screen_direct(direct, move) - estimate.probability
                if best is None or harm > best[2] + _HARM_EPS:
                    best = (move, estimate, harm)

            if best is None or best[2] <= current_harm + _HARM_EPS:
                break  # no strictly improving move

            move, estimate, _screened = best
            if inverses is not None:
                try:
                    inverses.append(invert_batch(session.instance, move.edits))
                except ValueError:  # a Leave: this session cannot go back
                    inverses = None
            session.apply(move.edits)
            if any(
                not isinstance(as_edit(edit), Rewire) for edit in move.edits
            ):
                direct = DirectVotingTerm(
                    session.instance.competencies, self.tie_policy
                )
            harm = direct.probability - estimate.probability
            committed.append(canonical_batch(move.edits))
            budget_left -= move.cost
            current_harm = harm
            post_estimate = estimate
            history.append(
                {
                    "step": step,
                    "label": move.label,
                    "cost": move.cost,
                    "probability": estimate.probability,
                    "std_error": estimate.std_error,
                    "direct": direct.probability,
                    "harm": harm,
                }
            )
            if harm - self.margin * estimate.std_error > self.min_harm:
                found = True
                break

        certificate: Optional[Dict[str, Any]] = None
        if found:
            certificate = self._certificate(
                committed, pre_estimate, post_estimate,
                pre_direct, direct.probability,
            ).to_dict()

        return AttackResult(
            found=found,
            scenario=self.scenario.name,
            budget=self.budget,
            budget_spent=self.budget - budget_left,
            steps=len(history),
            moves_evaluated=moves_evaluated,
            baseline_harm=baseline_harm,
            best_harm=current_harm,
            history=history,
            certificate=certificate,
        ), inverses

    def _certificate(
        self,
        committed: List[Any],
        pre_estimate: CorrectnessEstimate,
        post_estimate: CorrectnessEstimate,
        pre_direct: float,
        post_direct: float,
    ) -> ViolationCertificate:
        from repro.io import instance_to_dict

        return ViolationCertificate(
            scenario=self.scenario.spec(),
            mechanism=dict(self.mechanism_spec),
            instance=instance_to_dict(self.instance),
            instance_digest=instance_digest(self.instance),
            rounds=self.rounds,
            seed=self.seed,
            engine=self.engine,
            tie_policy=self.tie_policy.name,
            edits=tuple(tuple(batch) for batch in committed),
            chain_digest=edit_chain_digest(
                [
                    [dict(edit) for edit in batch]
                    for batch in committed
                ]
            ),
            pre={
                "estimate": pre_estimate.to_dict(),
                "direct": pre_direct,
            },
            post={
                "estimate": post_estimate.to_dict(),
                "direct": post_direct,
            },
            harm=post_direct - post_estimate.probability,
            min_harm=self.min_harm,
            margin=self.margin,
        )


def _attacked_competencies(
    competencies: np.ndarray, edits: Any
) -> np.ndarray:
    """``competencies`` after ``edits``' competency effects, as a copy."""
    out = competencies.copy()
    for edit in map(as_edit, edits):
        if isinstance(edit, SetCompetency):
            out[edit.voter] = edit.competency
        elif isinstance(edit, Join):
            out = np.append(out, edit.competency)
        elif isinstance(edit, Leave):
            out = np.delete(out, edit.voter)
    return out
