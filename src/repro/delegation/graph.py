"""The induced delegation graph (Section 2.2, "Delegation").

Each voter either votes directly (a *sink*) or delegates to exactly one
other voter; following delegations transitively, each voter's vote lands
on a unique sink.  The sink's *weight* is the number of votes it carries,
including its own.

Because approval requires strictly higher competency (``α > 0``),
delegation graphs induced by approval mechanisms are acyclic.  The
resolver nevertheless detects cycles explicitly — non-approval mechanisms
(used in counterexample experiments) could create them, and votes caught
in a cycle would otherwise silently vanish.

Resolution and depth computation are vectorised pointer doubling over
the whole delegate array: ``O(log n)`` rounds of NumPy fancy indexing
instead of a per-voter Python walk.  The original walking resolver is
retained as :meth:`DelegationGraph._reference_resolve_sinks` and pinned
to the fast path by the equivalence suite.
"""

from __future__ import annotations
# reprolint: sparse-safe

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

SELF = -1
"""Sentinel delegate value meaning "vote directly" (no delegation)."""


class DelegationCycleError(ValueError):
    """Raised when delegation choices contain a cycle.

    Carries the offending ``cycle`` as a list of voter indices in
    delegation order.
    """

    def __init__(self, cycle: List[int]) -> None:
        self.cycle = cycle
        super().__init__(f"delegation cycle detected: {' -> '.join(map(str, cycle))}")


# reprolint: reference=_reference_resolve_sinks
def resolve_forests_batch(
    delegates: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve a whole ``(rounds, n)`` batch of delegate arrays at once.

    Returns ``(sink_of, weights)``, both ``(rounds, n)``: ``sink_of[r, i]``
    is the sink carrying voter ``i``'s vote in round ``r`` and
    ``weights[r, i]`` the votes carried by ``i`` (0 unless a sink).
    ``sink_of`` comes back in the pointer dtype — int32 while
    ``rounds * n`` fits, int64 beyond — and ``weights`` as int64.

    Pointer doubling runs over *flattened global* indices — every voter
    of every round is one cell of a single array — so each gather is
    one flat fancy index instead of a per-row ``take_along_axis``.  It
    runs only over a shrinking *frontier*: the delegating cells whose
    pointer does not yet land on a sink.  Each pass tests
    ``moving[target]``, drops the cells that have landed (their
    pointer is final; the frontier is compacted once a quarter of it
    has landed) and doubles and scatters the survivors, so a cell at
    depth ``d`` leaves after ``ceil(log2 d)`` doublings and shallow
    forests cost little more than one gather per delegator.
    A forest of ``n`` voters is at most ``n - 1`` hops deep, so a
    frontier still non-empty after ``n.bit_length() + 1`` passes can
    only hold cells on or feeding a cycle; the first such cell in
    row-major order is walked by :meth:`DelegationGraph._raise_cycle`
    and reported as :class:`DelegationCycleError`.  Integer delegate
    matrices of any width (the batch kernels emit the instance's CSR
    index dtype, int32 below 2^31 voters) are consumed as-is — no
    int64 upcast copy.

    The batch engine reaches this resolver through
    :meth:`~repro.mechanisms.base.DelegationMechanism.sample_forests_batch`,
    whose default samples a delegate matrix, resolves it here and keeps
    the weight columns of voters that are a sink in some round.
    Fixed-mover mechanisms (:class:`~repro.mechanisms.base.
    UniformApprovedDelegation`) skip the matrix and resolve in one pass
    over the approval DAG's level order, bitwise equal to those
    columns; the incremental engine calls this resolver directly.
    """
    delegates = np.asarray(delegates)
    if delegates.dtype.kind != "i":
        delegates = delegates.astype(np.int64)
    if delegates.ndim != 2:
        raise ValueError("delegates must be a (rounds, n) matrix")
    rounds, n = delegates.shape
    if n == 0 or rounds == 0:
        empty = np.zeros((rounds, n), dtype=np.int64)
        return empty, empty.copy()
    if delegates.min() < SELF or delegates.max() >= n:
        r, i = np.argwhere((delegates < SELF) | (delegates >= n))[0]
        raise ValueError(
            f"voter {i} delegates to out-of-range target {delegates[r, i]}"
        )
    ptr_dtype = np.int32 if rounds * n <= np.iinfo(np.int32).max else np.int64
    idx = np.arange(n, dtype=ptr_dtype)
    # SELF is -1, so adding i + 1 points a direct voter at itself; the
    # branch-free sum avoids ``np.where``'s per-cell branch on the mask.
    ptr = (delegates + (delegates == SELF) * (idx + 1)).astype(
        ptr_dtype, copy=False
    )
    moving = (ptr != idx).ravel()
    base = (np.arange(rounds, dtype=ptr_dtype) * n)[:, None]
    ptr += base
    flat = ptr.ravel()
    cells = np.flatnonzero(moving)
    target = flat[cells]
    for _ in range(int(n).bit_length() + 1):
        unresolved = moving[target]
        left = np.count_nonzero(unresolved)
        if not left:
            break
        # Compact once a quarter of the frontier has landed.  A landed
        # cell points at a sink, which points at itself, so doubling it
        # again is harmless; a deep chain sheds too few cells per pass
        # to repay the copy.
        if 4 * left <= 3 * cells.size:
            cells = np.compress(unresolved, cells)
            target = np.compress(unresolved, target)
        target = flat[target]
        flat[cells] = target
    else:
        r, i = divmod(int(cells[moving[target]][0]), n)
        DelegationGraph._raise_cycle(delegates[r], i)
    weights = np.bincount(flat, minlength=rounds * n).reshape(rounds, n)
    ptr -= base
    return ptr, weights


class DelegationGraph:
    """Resolved delegation choices with sink assignment and weights.

    Parameters
    ----------
    delegates:
        ``delegates[i]`` is the voter ``i`` delegates to, or ``SELF``
        (= -1) when ``i`` votes directly.  Delegating to oneself is
        normalised to ``SELF``.

    Raises
    ------
    DelegationCycleError
        If following delegations from some voter never reaches a sink.
    """

    __slots__ = (
        "_delegates",
        "_sink_of",
        "_sinks",
        "_sink_indices",
        "_weights",
        "_depths",
    )

    def __init__(self, delegates: Sequence[int]) -> None:
        raw = np.asarray(delegates)
        if raw.ndim != 1:
            raise ValueError("delegates must be a one-dimensional sequence")
        n = len(raw)
        normalised = raw.astype(np.int64, copy=True) if n else np.empty(0, np.int64)
        if n:
            idx = np.arange(n, dtype=np.int64)
            normalised[normalised == idx] = SELF
            bad = (normalised != SELF) & ((normalised < 0) | (normalised >= n))
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(
                    f"voter {i} delegates to out-of-range target {raw[i]}"
                )
        self._delegates = normalised
        self._delegates.setflags(write=False)
        self._sink_of = self._resolve_sinks(normalised)
        self._sink_of.setflags(write=False)
        sink_indices = np.nonzero(normalised == SELF)[0]
        self._sink_indices = sink_indices
        self._sink_indices.setflags(write=False)
        self._sinks: Tuple[int, ...] = tuple(sink_indices.tolist())
        weights = np.bincount(self._sink_of, minlength=n) if n else np.zeros(0, np.int64)
        self._weights = weights
        self._weights.setflags(write=False)
        self._depths: Optional[np.ndarray] = None

    @staticmethod
    def _resolve_sinks(delegates: np.ndarray) -> np.ndarray:
        """Vectorised pointer doubling; detects cycles.

        Each round replaces every pointer with its pointer's pointer, so
        after ``k`` rounds each voter points ``2^k`` delegation hops
        ahead (absorbed at sinks).  ``ceil(log2 n) + 1`` rounds suffice
        for any forest; voters still not pointing at a sink afterwards
        are necessarily caught in a cycle.
        """
        n = len(delegates)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        idx = np.arange(n, dtype=np.int64)
        ptr = np.where(delegates == SELF, idx, delegates)
        for _ in range(int(n).bit_length() + 1):
            nxt = ptr[ptr]
            if np.array_equal(nxt, ptr):
                break
            ptr = nxt
        unresolved = delegates[ptr] != SELF
        if unresolved.any():
            DelegationGraph._raise_cycle(delegates, int(idx[unresolved][0]))
        return ptr

    @staticmethod
    def _raise_cycle(delegates: np.ndarray, start: int) -> None:
        """Walk from ``start`` (known to feed a cycle) and report it."""
        order: Dict[int, int] = {}
        v = start
        while v not in order:
            order[v] = len(order)
            v = int(delegates[v])
        path = list(order)
        raise DelegationCycleError(path[order[v]:] + [v])

    @staticmethod
    def _reference_resolve_sinks(delegates: np.ndarray) -> np.ndarray:
        """Seed resolver: per-voter walk with path compression.

        Kept as the equivalence-test oracle for :meth:`_resolve_sinks`.
        """
        n = len(delegates)
        sink_of = np.full(n, -2, dtype=np.int64)  # -2 = unresolved
        for start in range(n):
            if sink_of[start] != -2:
                continue
            path = []
            v = start
            while True:
                if sink_of[v] != -2:
                    terminal = int(sink_of[v])
                    break
                path.append(v)
                nxt = int(delegates[v])
                if nxt == SELF:
                    terminal = v
                    break
                if nxt in path:
                    # Walked back onto the current path: a cycle.
                    idx = path.index(nxt)
                    raise DelegationCycleError(path[idx:] + [nxt])
                v = nxt
            for u in path:
                sink_of[u] = terminal
        return sink_of

    # -- accessors ----------------------------------------------------------

    @property
    def num_voters(self) -> int:
        """Number of voters ``n``."""
        return len(self._delegates)

    @property
    def delegates(self) -> np.ndarray:
        """Per-voter delegate array (``SELF`` for direct voters)."""
        return self._delegates

    @property
    def sinks(self) -> Tuple[int, ...]:
        """Voters that vote directly, ascending."""
        return self._sinks

    @property
    def sink_indices(self) -> np.ndarray:
        """Sink voter indices as a read-only array, ascending."""
        return self._sink_indices

    @property
    def sink_weight_array(self) -> np.ndarray:
        """Weights of :attr:`sink_indices`, aligned; sums to ``n``."""
        return self._weights[self._sink_indices]

    @property
    def num_sinks(self) -> int:
        """Number of sinks."""
        return len(self._sinks)

    def sink_of(self, voter: int) -> int:
        """The sink that ultimately carries ``voter``'s vote."""
        return int(self._sink_of[voter])

    def weight(self, voter: int) -> int:
        """Votes carried by ``voter`` (0 unless ``voter`` is a sink)."""
        return int(self._weights[voter])

    def sink_weights(self) -> Dict[int, int]:
        """Mapping sink → weight; weights sum to ``n``."""
        return {s: int(self._weights[s]) for s in self._sinks}

    @property
    def num_delegators(self) -> int:
        """Number of voters that delegated (Definition 2's ``Delegate(n)``)."""
        return self.num_voters - self.num_sinks

    def max_weight(self) -> int:
        """Maximum sink weight ``w`` — the quantity Lemma 5 bounds."""
        if self.num_voters == 0:
            return 0
        return int(self._weights.max())

    def depth(self, voter: int) -> int:
        """Number of delegation hops from ``voter`` to its sink."""
        self._compute_depths()
        assert self._depths is not None
        return int(self._depths[voter])

    def max_depth(self) -> int:
        """Longest delegation chain in the forest."""
        if self.num_voters == 0:
            return 0
        self._compute_depths()
        assert self._depths is not None
        return int(self._depths.max())

    def _compute_depths(self) -> None:
        """Pointer-doubling hop counts: ``depth[i]`` = hops to the sink.

        Maintains the invariant that ``dist[i]`` is the number of hops
        from ``i`` to ``ptr[i]``; squaring the pointers adds the two hop
        counts.  Sinks self-point with distance 0, absorbing the walk.
        """
        if self._depths is not None:
            return
        n = self.num_voters
        if n == 0:
            self._depths = np.empty(0, dtype=np.int64)
            return
        idx = np.arange(n, dtype=np.int64)
        ptr = np.where(self._delegates == SELF, idx, self._delegates)
        dist = (self._delegates != SELF).astype(np.int64)
        while True:
            nxt = ptr[ptr]
            if np.array_equal(nxt, ptr):
                break
            dist += dist[ptr]
            ptr = nxt
        self._depths = dist

    def is_acyclic(self) -> bool:
        """Always True for constructed instances (cycles raise on build)."""
        return True

    def __repr__(self) -> str:
        return (
            f"DelegationGraph(n={self.num_voters}, sinks={self.num_sinks}, "
            f"max_weight={self.max_weight()})"
        )

    # -- constructors ----------------------------------------------------------

    @classmethod
    def direct(cls, n: int) -> "DelegationGraph":
        """The trivial delegation graph where everyone votes directly."""
        return cls([SELF] * n)
