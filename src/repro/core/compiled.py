"""Array-native compiled form of a :class:`ProblemInstance`.

Batched mechanism kernels (``sample_delegations_batch``) and the batched
Monte Carlo engine operate on flat arrays, never on per-voter
:class:`~repro.core.instance.LocalView` objects.  ``CompiledInstance``
gathers everything those kernels consume, computed once per instance:

* the graph adjacency in CSR form (``neighbor_indptr``/``neighbor_indices``),
* the approved-neighbour relation (per-voter counts plus an offset
  resolver over competency-ascending segments, backed by the cached
  :class:`~repro.core.structure.ApprovalStructure`),
* the degree and competency vectors,
* derived per-mechanism tables (e.g. greedy best-approved targets),
  memoised through :meth:`memo`,
* the approval DAG's level order (:meth:`approval_levels`), which lets
  fixed-mover mechanisms resolve forests in one pass.

Everything here is plain numpy data, so a compiled instance travels to
worker processes with the instance when the batch estimator fans out.
"""

from __future__ import annotations
# reprolint: sparse-safe

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    NamedTuple,
    Optional,
    Tuple,
)

import numpy as np

from repro.delegation.graph import SELF
from repro.graphs.graph import csr_index_dtype

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.instance import ProblemInstance


class ApprovalLevels(NamedTuple):
    """The approval DAG in static topological (level) order.

    ``level[v]`` is 0 for a voter with no approved neighbour and
    otherwise ``1 + max(level[t] for t approved by v)`` — the longest
    approval path leaving ``v``.  Approval needs ``p_t >= p_v + alpha``
    with ``alpha > 0``, so every delegation goes strictly down a level,
    and resolving movers level by level (level 1 first) finds each
    target's sink already final.  ``order`` holds the voters with at
    least one approved neighbour sorted stably by level (ties by index),
    and ``order[bounds[d - 1]:bounds[d]]`` is level ``d``, so the DAG is
    ``len(bounds) - 1`` levels deep.
    """

    level: np.ndarray
    order: np.ndarray
    bounds: np.ndarray


class CompiledInstance:
    """Flat-array view of one problem instance for batched kernels."""

    def __init__(self, instance: "ProblemInstance") -> None:
        structure = instance.approval_structure()
        self._structure = structure
        self.num_voters: int = instance.num_voters
        self.competencies: np.ndarray = instance.competencies
        self.alpha: float = instance.alpha
        self.degrees: np.ndarray = structure.degrees
        self.approved_counts: np.ndarray = structure.approved_counts
        indptr, indices = instance.graph.adjacency_csr()
        self.neighbor_indptr: np.ndarray = indptr
        self.neighbor_indices: np.ndarray = indices
        #: Smallest integer dtype holding any voter index (and ``SELF``);
        #: delegate matrices produced by the batch kernels use it, halving
        #: the per-round footprint on sub-2^31 instances.
        self.index_dtype: np.dtype = csr_index_dtype(
            self.num_voters, int(indices.shape[0])
        )
        self._approved_csr: Tuple[np.ndarray, np.ndarray] = None
        self._greedy_targets: np.ndarray = None
        self._memo: Dict[Hashable, Any] = {}

    # -- approved-neighbour access ----------------------------------------

    def resolve_approved_offsets(
        self, voters: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """Vectorised ``approved[voter][offset]`` lookup.

        Offsets index each voter's approved segment in the local-view
        order (competency ascending, ties by vertex index), so a uniform
        offset draw reproduces ``uniform_choice(view.approved, rng)``.
        ``voters`` and ``offsets`` broadcast — kernels pass a ``(1, M)``
        voter row against ``(R, M)`` per-round offsets.
        """
        return self._structure._resolve_offsets(voters, offsets)

    def approved_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The approved relation as explicit ``(indptr, indices)`` arrays.

        On general graphs this is the structure's stored CSR, returned
        without copying; on complete graphs (which store the O(n) suffix
        form) the CSR is materialised lazily and cached — batch kernels
        normally only need :meth:`resolve_approved_offsets`.
        """
        if self._approved_csr is None:
            self._approved_csr = self._structure.approved_csr()
        return self._approved_csr

    # -- derived per-mechanism tables --------------------------------------

    @property
    def greedy_targets(self) -> np.ndarray:
        """Per-voter most competent approved neighbour (ties: lowest index).

        ``SELF`` for voters with no approved neighbour.  This is exactly
        the deterministic choice of
        :class:`repro.mechanisms.greedy.GreedyBest`.
        """
        if self._greedy_targets is None:
            targets = np.full(self.num_voters, SELF, dtype=self.index_dtype)
            indptr, indices = self.approved_csr()
            if len(indices):
                src = np.repeat(
                    np.arange(self.num_voters), np.diff(indptr)
                )
                p = self.competencies[indices]
                # Primary: voter; secondary: competency descending;
                # tertiary: index ascending — first row per voter wins.
                order = np.lexsort((indices, -p, src))
                voters_sorted = src[order]
                first = np.unique(voters_sorted, return_index=True)[1]
                targets[voters_sorted[first]] = indices[order][first]
            self._greedy_targets = targets
            self._greedy_targets.setflags(write=False)
        return self._greedy_targets

    def unique_degrees(self) -> Tuple[np.ndarray, np.ndarray]:
        """Memoised ``np.unique(degrees, return_inverse=True)``.

        Threshold-style kernels evaluate their threshold once per
        distinct degree; memoising the O(n log n) unique pass here keeps
        chunk-streamed kernel calls O(n) after the first chunk.
        """
        return self.memo(
            ("unique_degrees",),
            lambda: np.unique(self.degrees, return_inverse=True),
        )

    def approval_levels(self) -> Optional[ApprovalLevels]:
        """Memoised level order of the approval DAG, or ``None``.

        ``None`` on complete-form structures (their O(n) suffix form
        has no stored CSR to relax over), and when the DAG is deeper
        than ``n.bit_length() + 1`` levels: that is the pass bound of
        :func:`~repro.delegation.graph.resolve_forests_batch`'s pointer
        doubling, past which one pass per level costs more numpy calls
        than doubling does.  A cycle (possible only when ``alpha`` is
        below half a competency ulp) exceeds the bound too.  Built on
        first use, not in the constructor, so a compile that never
        samples pays nothing; competency edits change it, so
        :meth:`adopt_degree_tables` never carries it across a patch.
        """
        if self._structure.is_complete_form:
            return None
        return self.memo(
            ("approval_levels",),
            lambda: _approval_levels(
                self.num_voters, self.approved_counts, self.approved_csr()[1]
            ),
        )

    def adopt_degree_tables(self, other: "CompiledInstance") -> None:
        """Carry degree-derived memo tables across an incremental patch.

        The delta engine rebuilds the compiled view after splicing an
        edited instance; when the degree vector is unchanged (competency
        edits never change it) the memoised ``unique_degrees`` pass is
        still valid, so adopting it keeps the patched compile O(1)
        instead of O(n log n).  A degree mismatch makes this a no-op
        rather than an error, so callers can invoke it unconditionally.
        Only ``unique_degrees`` is adopted; competency-dependent tables
        (the level order, level plans) are rebuilt lazily as usual.
        """
        if not np.array_equal(self.degrees, other.degrees):
            return
        key = ("unique_degrees",)
        if key in other._memo:
            self._memo.setdefault(key, other._memo[key])

    def memo(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """Memoise a derived table under ``key`` (built on first use).

        Mechanism kernels use this for instance-level precomputation that
        depends on mechanism parameters, keying by ``(class name,
        parameters)``.
        """
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def memo_last(self, key: Tuple[Hashable, ...], build: Callable[[], Any]) -> Any:
        """:meth:`memo` that keeps only the last key tagged ``key[0]``.

        For tables keyed by content that callers vary (a mover mask's
        digest): a stream of distinct keys replaces one entry instead of
        growing the memo.
        """
        for old in list(self._memo):
            if isinstance(old, tuple) and old[:1] == key[:1] and old != key:
                self._memo.pop(old, None)
        return self.memo(key, build)


# reprolint: reference=_reference_approval_levels
def _approval_levels(
    n: int, counts: np.ndarray, indices: np.ndarray
) -> Optional[ApprovalLevels]:
    """Level order of the approved CSR by relaxing only what still climbs.

    Every voter with an approved neighbour starts at level 1.  Pass
    ``d`` keeps the CSR entries ``v -> t`` whose target sits at level
    ``d``: exactly their owners ``v`` have a level above ``d``, so they
    move to ``d + 1``.  An entry whose target stayed below ``d`` can
    never lift its owner again and is dropped for good, so each pass
    touches only the edges into voters still climbing, with no
    per-segment reduction.
    """
    cap = n.bit_length() + 1
    level = (counts > 0).astype(np.int8)
    owners = np.repeat(np.arange(n, dtype=indices.dtype), counts)
    targets = indices
    depth = 1 if owners.size else 0
    while owners.size:
        climbing = np.take(level, targets, mode="clip") == depth
        targets = np.compress(climbing, targets)
        owners = np.compress(climbing, owners)
        if not owners.size:
            break
        depth += 1
        if depth > cap:
            return None
        level[owners] = depth
    sizes = np.bincount(level, minlength=depth + 1)
    order = np.argsort(level, kind="stable")[sizes[0]:]
    bounds = np.concatenate(([0], np.cumsum(sizes[1:])))
    for table in (level, order, bounds):
        table.setflags(write=False)
    return ApprovalLevels(level, order, bounds)


def _reference_approval_levels(
    compiled: CompiledInstance,
) -> Optional[ApprovalLevels]:
    """Brute-force oracle of :meth:`CompiledInstance.approval_levels`.

    Longest approval path per voter by whole-graph relaxation in plain
    Python until nothing changes; no fixed point within ``n + 1``
    sweeps means a cycle.  Same ``None`` cases as the fast build.
    """
    if compiled._structure.is_complete_form:
        return None
    n = compiled.num_voters
    indptr, indices = compiled.approved_csr()
    approved = [
        [int(t) for t in indices[indptr[v]:indptr[v + 1]]] for v in range(n)
    ]
    level = [0] * n
    for _ in range(n + 1):
        new = [1 + max(level[t] for t in ts) if ts else 0 for ts in approved]
        if new == level:
            break
        level = new
    else:
        return None
    depth = max(level, default=0)
    if depth > n.bit_length() + 1:
        return None
    order = [v for d in range(1, depth + 1) for v in range(n) if level[v] == d]
    sizes = [sum(1 for x in level if x == d) for d in range(1, depth + 1)]
    return ApprovalLevels(
        np.array(level, dtype=np.int8),
        np.array(order, dtype=np.intp),
        np.cumsum([0] + sizes),
    )
