"""Precomputed approval structure for fast delegation sampling.

Monte Carlo experiments sample thousands of delegation forests per
instance; building a :class:`~repro.core.instance.LocalView` per voter
per round is O(n²) on dense graphs.  :class:`ApprovalStructure` computes
the approval relation once per instance:

* on a **complete graph**, voter ``i``'s approved set is a suffix of the
  competency-sorted voter order, so the structure stores just the sorted
  order and one start index per voter (O(n) memory);
* on **general graphs**, a CSR-style (indptr, indices) pair stores each
  voter's approved neighbours (O(m) memory), built by filtering the
  graph's flat CSR adjacency with one vectorised comparison — no
  per-voter Python loop, which is what lets million-voter instances
  compile in seconds.  The original per-voter construction is retained
  as :meth:`ApprovalStructure._reference_general_csr` and pinned to the
  vectorised build by the equivalence suite.

Mechanism fast paths consume only ``approved_count``, ``degree`` and
``sample_approved`` — exactly the information their ``decide`` methods
use — so the fast and slow paths are distributionally identical (tested).
"""

from __future__ import annotations
# reprolint: sparse-safe

from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.graphs.graph import csr_index_dtype, sorted_pair_keys

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.instance import ProblemInstance


class ApprovalStructure:
    """Per-instance approval relation in sampling-friendly form."""

    def __init__(self, instance: "ProblemInstance") -> None:
        graph = instance.graph
        p = instance.competencies
        alpha = instance.alpha
        n = graph.num_vertices
        self._degrees = np.asarray(graph.degrees(), dtype=np.int64)
        self._complete = graph.is_complete() and n >= 2
        if self._complete:
            # Approved set of i = suffix of the ascending-competency order
            # starting at the first voter with p >= p_i + alpha.
            order = np.argsort(p, kind="stable")
            sorted_p = p[order]
            starts = np.searchsorted(sorted_p, p + alpha, side="left")
            self._order = order
            self._starts = starts.astype(np.int64)
            self._counts = (n - self._starts).astype(np.int64)
            self._indptr = None
            self._indices = None
        else:
            indptr, indices = self._general_csr(graph, p, alpha)
            self._indptr = indptr
            self._indices = indices
            self._counts = np.diff(indptr).astype(np.int64)
            self._order = None
            self._starts = None

    @classmethod
    def from_general_csr(
        cls,
        instance: "ProblemInstance",
        indptr: np.ndarray,
        indices: np.ndarray,
    ) -> "ApprovalStructure":
        """Wrap precomputed general-form CSR arrays without rebuilding.

        Splice hook for the incremental engine
        (:mod:`repro.incremental.structure`): after a localised edit the
        approved relation changes only in the dirtied voters' segments,
        so the caller patches the CSR arrays directly and installs them
        here instead of re-filtering the whole adjacency.  The arrays
        must equal what ``_general_csr`` would build for ``instance`` —
        the incremental tests pin this bitwise.  Only the general form is
        supported; complete graphs rebuild through the constructor (the
        O(n) suffix form is cheap from scratch).
        """
        self = object.__new__(cls)
        self._degrees = np.asarray(instance.graph.degrees(), dtype=np.int64)
        self._complete = False
        self._indptr = indptr
        self._indices = indices
        self._counts = np.diff(indptr).astype(np.int64)
        self._order = None
        self._starts = None
        return self

    # reprolint: reference=_reference_general_csr
    @staticmethod
    def _general_csr(
        graph, p: np.ndarray, alpha: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Approved-neighbour CSR by flat filtering of the adjacency CSR.

        An edge entry ``(src, dst)`` survives iff ``p[dst] >= p[src] +
        alpha`` — the same float comparison, voter by voter, that
        ``ProblemInstance.approved_neighbors`` evaluates, so the filter
        is bit-identical to the reference loop.  Each surviving segment
        is then ordered competency-ascending, ties by vertex index: with
        ``rank`` the inverse of the stable argsort of ``p``, one
        ``np.sort`` of the int64 keys ``src * n + rank[dst]`` orders the
        entries exactly as the per-voter ``lexsort((arr, p[arr]))`` of
        the reference does, and ``keys % n`` maps back through the
        argsort to the neighbour ids.
        """
        n = graph.num_vertices
        g_indptr, g_indices = graph.adjacency_csr()
        degrees = np.diff(g_indptr).astype(np.int64)
        src = np.repeat(np.arange(n, dtype=np.int64), degrees)
        thresholds = p + alpha
        keep = p[g_indices] >= thresholds[src]
        asrc = src[keep]
        del src
        by_competency = np.argsort(p, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[by_competency] = np.arange(n, dtype=np.int64)
        keys = sorted_pair_keys(asrc, rank[g_indices[keep]], n)
        keys %= n
        counts = np.bincount(asrc, minlength=n)
        idx_dtype = csr_index_dtype(n, int(keys.size))
        indptr = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts))
        ).astype(idx_dtype)
        return indptr, by_competency[keys].astype(idx_dtype)

    @staticmethod
    def _reference_general_csr(
        instance: "ProblemInstance",
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Seed builder: per-voter approved-neighbour loop.

        Kept as the equivalence-test oracle for :meth:`_general_csr`.
        """
        n = instance.num_voters
        p = instance.competencies
        indptr = np.zeros(n + 1, dtype=np.int64)
        chunks = []
        for v in range(n):
            approved = instance.approved_neighbors(v)
            indptr[v + 1] = indptr[v] + len(approved)
            if approved:
                arr = np.asarray(approved, dtype=np.int64)
                # Competency-ascending segment order (ties by index)
                # so that "offset within segment" equals local rank —
                # used by best-of-k sampling.
                arr = arr[np.lexsort((arr, p[arr]))]
                chunks.append(arr)
        indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        return indptr, indices

    @property
    def num_voters(self) -> int:
        """Number of voters."""
        return len(self._counts)

    @property
    def degrees(self) -> np.ndarray:
        """Vertex degrees, indexed by voter."""
        return self._degrees

    @property
    def approved_counts(self) -> np.ndarray:
        """``|J(i) ∩ N(i)|`` for every voter."""
        return self._counts

    @property
    def is_complete_form(self) -> bool:
        """Whether the O(n) complete-graph suffix form is in use."""
        return self._complete

    def approved_by(self, mask: np.ndarray) -> np.ndarray:
        """Boolean mask of the voters some voter in ``mask`` approves."""
        out = np.zeros(self.num_voters, dtype=bool)
        if not self._complete:
            out[self._indices[np.repeat(mask, self._counts)]] = True
        elif mask.any():  # the union of suffixes is the widest one
            out[self._order[int(self._starts[mask].min()):]] = True
        return out

    def approved_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The approved relation as ``(indptr, indices)`` CSR arrays.

        Segments are in local-view order (competency ascending, ties by
        index).  On general graphs this returns the stored arrays
        directly (no copy); on complete graphs the CSR is materialised
        from the O(n) suffix form on demand — callers that only need
        counts or offset resolution should prefer those accessors.
        """
        if not self._complete:
            return self._indptr, self._indices
        n = self.num_voters
        counts = self._counts
        total = int(counts.sum())
        idx_dtype = csr_index_dtype(n, total)
        indptr = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts))
        ).astype(idx_dtype)
        voters = np.repeat(np.arange(n, dtype=np.int64), counts)
        offsets = np.arange(total, dtype=np.int64) - indptr[voters].astype(np.int64)
        indices = (
            self._resolve_offsets(voters, offsets).astype(idx_dtype)
            if total
            else np.empty(0, dtype=idx_dtype)
        )
        return indptr, indices

    def approved_count(self, voter: int) -> int:
        """``|J(voter) ∩ N(voter)|``."""
        return int(self._counts[voter])

    def approved_neighbors(self, voter: int) -> Tuple[int, ...]:
        """The approved neighbours of ``voter`` (unordered)."""
        if self._complete:
            return tuple(int(v) for v in self._order[self._starts[voter]:])
        lo, hi = self._indptr[voter], self._indptr[voter + 1]
        return tuple(int(v) for v in self._indices[lo:hi])

    def sample_approved(self, voter: int, rng: np.random.Generator) -> int:
        """A uniformly random approved neighbour of ``voter``."""
        count = int(self._counts[voter])
        if count == 0:
            raise ValueError(f"voter {voter} has no approved neighbours")
        k = int(rng.integers(count))
        if self._complete:
            return int(self._order[self._starts[voter] + k])
        return int(self._indices[self._indptr[voter] + k])

    def sample_approved_many(
        self, voters: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorised :meth:`sample_approved` over an array of voters.

        All listed voters must have at least one approved neighbour.
        """
        counts = self._counts[voters]
        if np.any(counts == 0):
            bad = int(voters[np.argmax(counts == 0)])
            raise ValueError(f"voter {bad} has no approved neighbours")
        offsets = rng.integers(counts)
        return self._resolve_offsets(voters, offsets)

    def sample_best_of_k_many(
        self, voters: np.ndarray, k: int, rng: np.random.Generator
    ) -> np.ndarray:
        """For each voter, the most competent of ``k`` uniform approved picks.

        Segments are stored in ascending competency (ties by index), so
        "best of k picks" is simply the maximal offset among k uniform
        offsets — the same tie-breaking as the local-view ranking.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        counts = self._counts[voters]
        if np.any(counts == 0):
            bad = int(voters[np.argmax(counts == 0)])
            raise ValueError(f"voter {bad} has no approved neighbours")
        offsets = rng.integers(np.broadcast_to(counts, (k, len(voters)))).max(axis=0)
        return self._resolve_offsets(voters, offsets)

    def _resolve_offsets(self, voters: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        if self._complete:
            return self._order[self._starts[voters] + offsets]
        return self._indices[self._indptr[voters] + offsets]
