"""Problem instances ``G = (V, E, p)`` and the local view given to mechanisms.

A :class:`ProblemInstance` couples an immutable voting :class:`Graph` with
a competency vector ``p``.  Voter identity is the vertex index; the paper's
"wlog sorted" convention is available via :meth:`ProblemInstance.sorted_by_competency`
but not forced, because topologies like the star attach meaning to specific
vertices (the hub).

Local delegation mechanisms never see the instance itself.  They receive a
:class:`LocalView` containing exactly the information the model grants a
voter (Section 2.1): the pseudonymous identities of its neighbours, which
of them are *approved* (at least ``alpha`` more competent), and an
arbitrary-but-fixed ranking over the approved neighbours.  Competencies are
deliberately absent from the view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro._util.validation import check_index, check_probability_vector
from repro.graphs.graph import Graph


@dataclass(frozen=True)
class LocalView:
    """Everything a voter is allowed to observe (Section 2.1).

    Attributes
    ----------
    voter:
        The observing voter's own index.
    num_neighbors:
        Size of the voter's neighbourhood.
    neighbors:
        Pseudonymous neighbour identities (vertex indices; identities are
        opaque labels to the mechanism — competencies are not included).
    approved:
        The subset of ``neighbors`` in the approval set ``J(voter)``,
        i.e. neighbours with competency at least ``alpha`` higher.  The
        paper grants local mechanisms "an arbitrary ranking over the
        approval set"; we instantiate that ranking as ascending
        competency (ties by vertex index), which is the instantiation
        under which ranking-sensitive mechanisms like best-of-k
        multi-delegation are meaningful.  Competency *values* remain
        hidden.
    """

    voter: int
    num_neighbors: int
    neighbors: Tuple[int, ...]
    approved: Tuple[int, ...]

    @property
    def approval_count(self) -> int:
        """Size of the approved subset ``|J(i) ∩ N(i)|``."""
        return len(self.approved)


class ProblemInstance:
    """A voting problem instance ``G = (V, E, p)`` with approval threshold.

    Parameters
    ----------
    graph:
        The undirected voting graph.
    competencies:
        Sequence of per-voter correctness probabilities ``p_i ∈ [0, 1]``.
    alpha:
        Approval threshold ``α > 0``: voter ``j`` is approved by voter
        ``i`` iff ``p_i + α ≤ p_j``.  Strict positivity guarantees every
        induced delegation graph is acyclic (Section 2.2).
    """

    __slots__ = ("_graph", "_p", "_alpha", "_structure", "_compiled", "__weakref__")

    def __init__(
        self, graph: Graph, competencies: Sequence[float], alpha: float = 1e-9
    ) -> None:
        p = check_probability_vector("competencies", competencies)
        if len(p) != graph.num_vertices:
            raise ValueError(
                f"competency vector length {len(p)} does not match "
                f"graph size {graph.num_vertices}"
            )
        if not alpha > 0:
            raise ValueError(
                f"alpha must be > 0 to guarantee acyclic delegation, got {alpha}"
            )
        self._graph = graph
        self._p = p
        self._p.setflags(write=False)
        self._alpha = float(alpha)
        self._structure = None
        self._compiled = None

    # -- accessors ---------------------------------------------------------

    @property
    def graph(self) -> Graph:
        """The underlying voting graph."""
        return self._graph

    @property
    def competencies(self) -> np.ndarray:
        """Read-only competency vector ``p`` (indexed by voter)."""
        return self._p

    @property
    def alpha(self) -> float:
        """Approval threshold ``α``."""
        return self._alpha

    @property
    def num_voters(self) -> int:
        """Number of voters ``n``."""
        return self._graph.num_vertices

    def competency(self, voter: int) -> float:
        """Competency ``p_i`` of ``voter``."""
        check_index("voter", voter, self.num_voters)
        return float(self._p[voter])

    def mean_competency(self) -> float:
        """Average competency ``(1/n) Σ p_i``."""
        return float(self._p.mean())

    def __repr__(self) -> str:
        return (
            f"ProblemInstance(n={self.num_voters}, m={self._graph.num_edges}, "
            f"alpha={self._alpha})"
        )

    # -- approval ------------------------------------------------------------

    def approves(self, voter: int, other: int) -> bool:
        """Whether ``other`` is in the (global) approval set ``J(voter)``."""
        return self._p[voter] + self._alpha <= self._p[other]

    def approved_neighbors(self, voter: int) -> Tuple[int, ...]:
        """Neighbours of ``voter`` in ``J(voter)``, sorted by vertex index."""
        p_i = self._p[voter]
        threshold = p_i + self._alpha
        return tuple(
            v for v in self._graph.neighbors(voter) if self._p[v] >= threshold
        )

    def local_view(self, voter: int) -> LocalView:
        """The :class:`LocalView` the model grants to ``voter``."""
        check_index("voter", voter, self.num_voters)
        neighbors = self._graph.neighbors(voter)
        approved = sorted(
            self.approved_neighbors(voter), key=lambda v: (self._p[v], v)
        )
        return LocalView(
            voter=voter,
            num_neighbors=len(neighbors),
            neighbors=neighbors,
            approved=tuple(approved),
        )

    def approval_structure(self):
        """Cached :class:`~repro.core.structure.ApprovalStructure`.

        Built on first use; mechanisms use it to sample delegations in
        O(1) per voter instead of materialising local views each round.
        """
        if self._structure is None:
            from repro.core.structure import ApprovalStructure

            self._structure = ApprovalStructure(self)
        return self._structure

    def install_approval_structure(self, structure) -> None:
        """Install a precomputed :class:`ApprovalStructure` for this instance.

        Splice hook for the incremental engine: a patched copy of an
        instance reuses the clean portions of the previous structure
        instead of re-filtering the whole adjacency.  The structure must
        describe exactly this instance's ``(graph, competencies, alpha)``
        — the incremental tests pin spliced structures bitwise against
        scratch builds.  Must be called before the lazy builders run.
        """
        if structure.num_voters != self.num_voters:
            raise ValueError(
                f"structure covers {structure.num_voters} voters, "
                f"instance has {self.num_voters}"
            )
        if self._structure is not None or self._compiled is not None:
            raise ValueError(
                "cannot install a structure after the lazy builders ran"
            )
        self._structure = structure

    def compiled(self):
        """Cached :class:`~repro.core.compiled.CompiledInstance`.

        The flat-array (CSR) view of this instance consumed by the
        batched mechanism samplers and the batch Monte Carlo engine;
        built on first use.
        """
        if self._compiled is None:
            from repro.core.compiled import CompiledInstance

            self._compiled = CompiledInstance(self)
        return self._compiled

    # -- transforms ------------------------------------------------------------

    def sorted_by_competency(self) -> Tuple["ProblemInstance", np.ndarray]:
        """Relabel voters so ``p_0 ≤ p_1 ≤ … ≤ p_{n-1}`` (the paper's wlog).

        Returns the relabelled instance together with the permutation
        ``perm`` such that new voter ``i`` is old voter ``perm[i]``.
        Ties are broken by original index, so the permutation is stable.
        """
        perm = np.argsort(self._p, kind="stable")
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(len(perm))
        new_graph = Graph(self.num_voters, inverse[self._graph.edge_array])

        return (
            ProblemInstance(new_graph, self._p[perm], alpha=self._alpha),
            perm,
        )

    def with_competencies(self, competencies: Sequence[float]) -> "ProblemInstance":
        """A copy of this instance with a different competency vector."""
        return ProblemInstance(self._graph, competencies, alpha=self._alpha)

    def with_alpha(self, alpha: float) -> "ProblemInstance":
        """A copy of this instance with a different approval threshold."""
        return ProblemInstance(self._graph, self._p, alpha=alpha)
