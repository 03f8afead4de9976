"""Declarative attack scenarios: who the adversary is, what it may try.

The paper's warning is that delegation *manipulates variance*: its
Figure 1 star concentrates all voting weight on one hub whose competency
(5/8) undercuts the direct-majority probability, breaking do-no-harm
even though every delegation goes "upward".  A scenario here is the
declarative form of one adversary archetype attacking exactly that
failure mode:

* :class:`CompetencyMisreport` — strategic competency misreporting: a
  voter announces an inflated competency, flipping neighbours' approval
  decisions so they delegate to it (the Figure 1 star weaponised: boost
  the hub from benign to 5/8 and every leaf's only approvable neighbour
  becomes the hub);
* :class:`CollusionRing` — a ring of colluders steers delegations
  toward a near-dictator by wiring approval edges at it;
* :class:`SybilFlood` — budgeted Sybil voter injection: fake voters
  join with a single edge to the target and a competency placed just
  low enough to approve it, inflating the target's weight;
* :class:`AdaptiveLemmaProbe` — an adaptive adversary that samples the
  mechanism's own delegation forests, finds the heaviest sink, and
  probes the Lemma 3/5 variance-preserving conditions (max sink weight
  in ``o(n^{1/2 - eps})`` / ``O(n^{0.9})``) by feeding that sink.

Each scenario is a pure proposal generator: ``propose(instance,
mechanism, rng)`` returns candidate :class:`AttackMove`\\ s (edit batches
with a budget cost) and never mutates anything.  Scenarios are
deterministic given the generator they are handed — the attack-
determinism contract (reprolint A501): every scenario declares a
behavioural ``cache_token`` and draws randomness only through
generators built by ``repro._util.rng``, so a search, its served form
and its certificate replay all see identical proposals.

Scenarios travel on the wire as declarative specs (``{"name",
"params"}``) through :data:`SCENARIO_BUILDERS`, mirroring the mechanism
spec registry in :mod:`repro.service.protocol`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.instance import ProblemInstance
from repro.incremental.edits import Edit, Join, Rewire, SetCompetency
from repro.mechanisms.base import DelegationMechanism

#: Figure 1 competencies: the hub's 5/8 beats each leaf's 9/16, every
#: leaf delegates, and the electorate collapses onto a 5/8 dictator.
FIGURE1_HUB_COMPETENCY = 5.0 / 8.0
FIGURE1_LEAF_COMPETENCY = 9.0 / 16.0

MAX_PROPOSALS = 64
"""Per-step ceiling on the candidate moves one scenario may emit."""


@dataclass(frozen=True)
class AttackMove:
    """One candidate adversarial action: an edit batch plus its cost.

    ``cost`` is the budget units the move consumes when committed
    (defaulting to one per edit keeps budgets comparable across
    scenarios); ``label`` names the move in search history and
    certificates.
    """

    edits: Tuple[Edit, ...]
    label: str
    cost: int

    def __post_init__(self) -> None:
        if not self.edits:
            raise ValueError("an attack move must carry at least one edit")
        if self.cost < 1:
            raise ValueError(f"move cost must be >= 1, got {self.cost}")


def _move(edits: Sequence[Edit], label: str, cost: Optional[int] = None) -> AttackMove:
    edits = tuple(edits)
    return AttackMove(edits=edits, label=label, cost=len(edits) if cost is None else cost)


class AttackScenario(abc.ABC):
    """Base class for attack scenarios; see the module docstring.

    Subclasses must declare a behavioural :meth:`cache_token` (enforced
    by reprolint A501) and implement :meth:`propose`.  All randomness
    inside :meth:`propose` must come from the passed generator, which
    the search derives through :mod:`repro._util.rng` — never from
    module-level ``numpy.random`` / ``random`` state.
    """

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Wire name of this scenario (a :data:`SCENARIO_BUILDERS` key)."""

    @abc.abstractmethod
    def cache_token(self) -> Tuple[Any, ...]:
        """A stable token of this scenario's behaviour.

        Folded into attack-request coalescing keys and certificate
        digests; two scenario objects with equal tokens must propose
        identical moves given identical inputs.
        """

    @abc.abstractmethod
    def propose(
        self,
        instance: ProblemInstance,
        mechanism: DelegationMechanism,
        rng: np.random.Generator,
    ) -> List[AttackMove]:
        """Candidate moves against the *current* (already-patched) state."""

    def spec(self) -> Dict[str, Any]:
        """The declarative ``{"name", "params"}`` wire form."""
        return {"name": self.name, "params": self._params()}

    @abc.abstractmethod
    def _params(self) -> Dict[str, Any]:
        """The scenario's constructor params in plain JSON types."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def _check_positive_int(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"scenario param {field!r} must be an integer")
    if value < 1:
        raise ValueError(f"scenario param {field!r} must be >= 1, got {value}")
    return int(value)


def _check_unit(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"scenario param {field!r} must be a number")
    out = float(value)
    if not 0.0 <= out <= 1.0:
        raise ValueError(f"scenario param {field!r} must lie in [0, 1], got {out}")
    return out


def _degree_ranked(instance: ProblemInstance, count: int) -> List[int]:
    """The ``count`` highest-degree voters (ties broken by lowest index).

    Degree is the adversary's cheapest proxy for leverage: a misreport
    only moves voters who can *see* the misreporter, so the hub of a
    star is the first voter worth corrupting.
    """
    degrees = instance.approval_structure().degrees
    order = np.lexsort((np.arange(len(degrees)), -degrees))
    return [int(v) for v in order[:count]]


# reprolint: reference=_reference_non_neighbours
def _non_neighbours(instance: ProblemInstance, target: int, count: int) -> List[int]:
    """The ``count`` least competent voters not adjacent to ``target``.

    Ties break by lowest index, and ``target`` itself is never eligible.
    A voter is adjacent when its own adjacency row holds ``target``: one
    comparison over the CSR indices marks those rows, so a call costs
    O(edges) array work instead of a Python set per voter.
    """
    competencies = np.asarray(instance.competencies, dtype=float)
    indptr, indices = instance.graph.adjacency_csr()
    blocked = np.zeros(len(competencies), dtype=bool)
    hits = np.flatnonzero(indices == target)
    blocked[np.searchsorted(indptr, hits, side="right") - 1] = True
    blocked[target] = True
    order = np.lexsort((np.arange(len(competencies)), competencies))
    return [int(v) for v in order[~blocked[order]][:count]]


def _reference_non_neighbours(
    instance: ProblemInstance, target: int, count: int
) -> List[int]:
    """Per-voter oracle of :func:`_non_neighbours` over Python sets."""
    competencies = np.asarray(instance.competencies, dtype=float)
    indptr, indices = instance.graph.adjacency_csr()
    neighbours = [
        set(int(w) for w in indices[indptr[v]: indptr[v + 1]])
        for v in range(instance.num_voters)
    ]
    order = np.lexsort((np.arange(len(competencies)), competencies))
    return [
        int(v) for v in order
        if int(v) != target and target not in neighbours[int(v)]
    ][:count]


class CompetencyMisreport(AttackScenario):
    """Strategic competency misreporting against high-leverage voters.

    Proposes :class:`SetCompetency` edits raising a target's announced
    competency to each of ``levels``: the targets are the
    highest-degree voters (plus ``sampled`` rng-drawn extras), because a
    louder announcement only matters to voters adjacent to it.  On the
    benign star this rediscovers Figure 1 exactly — the best move is
    "hub announces 5/8", the smallest level that flips every leaf's
    approval while keeping the hub voting directly.
    """

    def __init__(
        self,
        levels: Sequence[float] = (
            FIGURE1_HUB_COMPETENCY, 0.75, 0.875,
        ),
        targets: int = 3,
        sampled: int = 2,
    ) -> None:
        self._levels = tuple(_check_unit(p, "levels") for p in levels)
        if not self._levels:
            raise ValueError("scenario param 'levels' must be non-empty")
        self._targets = _check_positive_int(targets, "targets")
        self._sampled = int(sampled)
        if self._sampled < 0:
            raise ValueError(
                f"scenario param 'sampled' must be >= 0, got {sampled}"
            )

    @property
    def name(self) -> str:
        return "misreport"

    def cache_token(self) -> Tuple[Any, ...]:
        return (
            type(self).__qualname__, self._levels, self._targets, self._sampled,
        )

    def _params(self) -> Dict[str, Any]:
        return {
            "levels": list(self._levels),
            "targets": self._targets,
            "sampled": self._sampled,
        }

    def propose(
        self,
        instance: ProblemInstance,
        mechanism: DelegationMechanism,
        rng: np.random.Generator,
    ) -> List[AttackMove]:
        targets = _degree_ranked(instance, self._targets)
        if self._sampled and instance.num_voters > len(targets):
            rest = np.setdiff1d(
                np.arange(instance.num_voters), np.array(targets, dtype=np.int64)
            )
            draw = min(self._sampled, len(rest))
            targets.extend(
                int(v) for v in rng.choice(rest, size=draw, replace=False)
            )
        competencies = instance.competencies
        moves: List[AttackMove] = []
        for voter in targets:
            for level in self._levels:
                if level == float(competencies[voter]):
                    continue
                moves.append(_move(
                    [SetCompetency(voter=voter, competency=level)],
                    f"misreport:v{voter}->{level:g}",
                ))
                if len(moves) >= MAX_PROPOSALS:
                    return moves
        return moves


class CollusionRing(AttackScenario):
    """A colluding ring wires approval edges at a near-dictator.

    The ring picks the most competent voter as its boss and proposes
    :class:`Rewire` edits adding an edge from each (low-competency,
    hence boss-approving) member toward it — plus one aggregate move
    closing the whole ring at once, the budgeted "everyone defects
    together" action.  Voting weight concentrates on the boss the same
    way the Figure 1 star concentrates it on the hub.
    """

    def __init__(self, ring: int = 4) -> None:
        self._ring = _check_positive_int(ring, "ring")

    @property
    def name(self) -> str:
        return "collusion_ring"

    def cache_token(self) -> Tuple[Any, ...]:
        return (type(self).__qualname__, self._ring)

    def _params(self) -> Dict[str, Any]:
        return {"ring": self._ring}

    def propose(
        self,
        instance: ProblemInstance,
        mechanism: DelegationMechanism,
        rng: np.random.Generator,
    ) -> List[AttackMove]:
        competencies = np.asarray(instance.competencies, dtype=float)
        boss = int(np.argmax(competencies))
        # Least-competent voters first: they approve the boss (their own
        # competency clears the alpha gap) and carry the least direct
        # voting value, so rewiring them is the cheapest concentration.
        members = _non_neighbours(instance, boss, self._ring)
        moves = [
            _move(
                [Rewire(voter=member, add=(boss,))],
                f"collude:v{member}->v{boss}",
            )
            for member in members
        ]
        if len(members) > 1:
            moves.append(_move(
                [Rewire(voter=member, add=(boss,)) for member in members],
                f"collude:ring{len(members)}->v{boss}",
            ))
        return moves[:MAX_PROPOSALS]


class SybilFlood(AttackScenario):
    """Budgeted Sybil injection: fake voters join pointing at the target.

    Each move is a :class:`Join` whose single neighbour is the most
    competent voter and whose announced competency sits ``gap`` below
    the target's — low enough that the Sybil approves the target (the
    alpha test passes) and delegates its vote upward, high enough to
    look like an ordinary voter.  Inside a delta session every join is
    a full-rebuild edit; the search stays correct, just slower, which
    is exactly what the delta-vs-scratch benchmark quantifies.
    """

    def __init__(self, swarm: int = 2, gap: float = 0.125) -> None:
        self._swarm = _check_positive_int(swarm, "swarm")
        self._gap = _check_unit(gap, "gap")

    @property
    def name(self) -> str:
        return "sybil_flood"

    def cache_token(self) -> Tuple[Any, ...]:
        return (type(self).__qualname__, self._swarm, self._gap)

    def _params(self) -> Dict[str, Any]:
        return {"swarm": self._swarm, "gap": self._gap}

    def propose(
        self,
        instance: ProblemInstance,
        mechanism: DelegationMechanism,
        rng: np.random.Generator,
    ) -> List[AttackMove]:
        competencies = np.asarray(instance.competencies, dtype=float)
        target = int(np.argmax(competencies))
        sybil_p = max(0.0, float(competencies[target]) - self._gap)
        moves = [
            _move(
                [Join(neighbors=(target,), competency=sybil_p)],
                f"sybil:1->v{target}",
            )
        ]
        if self._swarm > 1:
            moves.append(_move(
                [
                    Join(neighbors=(target,), competency=sybil_p)
                    for _ in range(self._swarm)
                ],
                f"sybil:{self._swarm}->v{target}",
            ))
        return moves


class AdaptiveLemmaProbe(AttackScenario):
    """Adaptive adversary probing the Lemma 3/5 variance conditions.

    Lemmas 3 and 5 are the paper's only variance-preserving escape
    hatches: do-no-harm survives when the maximum delegated weight stays
    in ``o(n^{1/2 - eps})`` (Lemma 3) or, under vanishing-variance
    competencies, ``O(n^{0.9})`` (Lemma 5).  This adversary *measures*
    where the mechanism actually sits — it samples ``probes`` delegation
    forests from the mechanism itself, finds the heaviest sink — and
    then pushes the instance across the threshold: rewiring the least
    competent non-neighbours onto that sink and raising the sink's
    announced competency so more neighbours approve it.
    """

    def __init__(self, probes: int = 2, feeders: int = 3, boost: float = 0.125) -> None:
        self._probes = _check_positive_int(probes, "probes")
        self._feeders = _check_positive_int(feeders, "feeders")
        self._boost = _check_unit(boost, "boost")

    @property
    def name(self) -> str:
        return "lemma_probe"

    def cache_token(self) -> Tuple[Any, ...]:
        return (
            type(self).__qualname__, self._probes, self._feeders, self._boost,
        )

    def _params(self) -> Dict[str, Any]:
        return {
            "probes": self._probes,
            "feeders": self._feeders,
            "boost": self._boost,
        }

    def heaviest_sink(
        self,
        instance: ProblemInstance,
        mechanism: DelegationMechanism,
        rng: np.random.Generator,
    ) -> Tuple[int, int]:
        """The heaviest ``(sink, weight)`` over ``probes`` sampled forests."""
        best_sink, best_weight = 0, 0
        for _ in range(self._probes):
            forest = mechanism.sample_delegations(instance, rng)
            for sink, weight in forest.sink_weights().items():
                if weight > best_weight or (
                    weight == best_weight and sink < best_sink
                ):
                    best_sink, best_weight = int(sink), int(weight)
        return best_sink, best_weight

    def propose(
        self,
        instance: ProblemInstance,
        mechanism: DelegationMechanism,
        rng: np.random.Generator,
    ) -> List[AttackMove]:
        sink, _weight = self.heaviest_sink(instance, mechanism, rng)
        competencies = np.asarray(instance.competencies, dtype=float)
        feeders = _non_neighbours(instance, sink, self._feeders)
        moves = [
            _move(
                [Rewire(voter=feeder, add=(sink,))],
                f"probe:feed v{feeder}->v{sink}",
            )
            for feeder in feeders
        ]
        boosted = min(1.0, float(competencies[sink]) + self._boost)
        if boosted != float(competencies[sink]):
            moves.append(_move(
                [SetCompetency(voter=sink, competency=boosted)],
                f"probe:boost v{sink}->{boosted:g}",
            ))
        return moves[:MAX_PROPOSALS]


# -- scenario specs --------------------------------------------------------


def _check_param_keys(params: Mapping[str, Any], allowed: Tuple[str, ...]) -> None:
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown scenario param(s) {unknown}; allowed: {sorted(allowed)}"
        )


def _build_misreport(params: Mapping[str, Any]) -> AttackScenario:
    _check_param_keys(params, ("levels", "targets", "sampled"))
    kwargs: Dict[str, Any] = {}
    if "levels" in params:
        levels = params["levels"]
        if not isinstance(levels, (list, tuple)):
            raise ValueError("scenario param 'levels' must be a list")
        kwargs["levels"] = list(levels)
    for key in ("targets", "sampled"):
        if key in params:
            kwargs[key] = params[key]
    return CompetencyMisreport(**kwargs)


def _build_collusion_ring(params: Mapping[str, Any]) -> AttackScenario:
    _check_param_keys(params, ("ring",))
    return CollusionRing(**dict(params))


def _build_sybil_flood(params: Mapping[str, Any]) -> AttackScenario:
    _check_param_keys(params, ("swarm", "gap"))
    return SybilFlood(**dict(params))


def _build_lemma_probe(params: Mapping[str, Any]) -> AttackScenario:
    _check_param_keys(params, ("probes", "feeders", "boost"))
    return AdaptiveLemmaProbe(**dict(params))


SCENARIO_BUILDERS: Dict[str, Callable[[Mapping[str, Any]], AttackScenario]] = {
    "misreport": _build_misreport,
    "collusion_ring": _build_collusion_ring,
    "sybil_flood": _build_sybil_flood,
    "lemma_probe": _build_lemma_probe,
}
"""Wire name → validated scenario constructor (the scenario registry)."""


def scenario_spec(name: str, **params: Any) -> Dict[str, Any]:
    """Build (and eagerly validate) a scenario spec dict."""
    spec = {"name": name, "params": params}
    build_scenario(spec)
    return spec


def build_scenario(spec: Any) -> AttackScenario:
    """Resolve a ``{"name", "params"}`` spec into a scenario instance."""
    if isinstance(spec, AttackScenario):
        return spec
    if not isinstance(spec, Mapping):
        raise ValueError(
            f"scenario spec must be an object, got {type(spec).__name__}"
        )
    unknown = sorted(set(spec) - {"name", "params"})
    if unknown:
        raise ValueError(f"unknown scenario spec field(s) {unknown}")
    name = spec.get("name")
    builder = SCENARIO_BUILDERS.get(name)
    if builder is None:
        raise ValueError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIO_BUILDERS)}"
        )
    params = spec.get("params", {})
    if not isinstance(params, Mapping):
        raise ValueError("scenario 'params' must be an object")
    return builder(params)


def benign_star_instance(
    num_voters: int = 25,
    hub_p: float = 0.5,
    leaf_p: float = FIGURE1_LEAF_COMPETENCY,
    alpha: float = 0.01,
) -> ProblemInstance:
    """The Figure 1 star *before* the attack: a hub nobody delegates to.

    Leaves hold the paper's 9/16 competency but the hub announces only
    ``hub_p`` (default 1/2), below every leaf's approval bar — so under
    any approval-based mechanism no leaf delegates and do-no-harm holds
    trivially.  One :class:`CompetencyMisreport` move boosting the hub
    to 5/8 recreates Figure 1 exactly: every leaf's sole approvable
    neighbour becomes the hub, weight collapses onto it, and the
    mechanism's correct-probability drops to 5/8 while the direct
    majority stays far higher.  The seeded starting point for the
    attack-search acceptance tests.
    """
    from repro.graphs.generators import star_graph

    if num_voters < 3:
        raise ValueError(f"a star needs at least 3 voters, got {num_voters}")
    competencies = np.full(num_voters, float(leaf_p))
    competencies[0] = float(hub_p)
    return ProblemInstance(
        star_graph(num_voters), competencies, alpha=float(alpha)
    )
