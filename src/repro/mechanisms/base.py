"""Mechanism abstractions.

A delegation mechanism maps a problem instance to, per voter, a
probability distribution over "delegate to j" / "vote directly"
(Section 2.2).  The executable form here is sampling: a mechanism draws
one delegation forest per call.

*Local* mechanisms (the paper's focus) are a subclass whose per-voter
decision receives only a :class:`~repro.core.instance.LocalView` —
locality is enforced structurally, not by convention.

Ballots generalise forests with an abstaining set so the Section 6
abstention extension shares the same evaluation pipeline.
"""

from __future__ import annotations
# reprolint: sparse-safe

import abc
import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

import numpy as np

from repro._util.rng import (
    SeedLike,
    as_generator,
    as_seed_sequence,
    child_seed_sequence,
)
from repro._util.threads import run_split
from repro.core.compiled import _reference_approval_levels
from repro.core.instance import LocalView, ProblemInstance
from repro.delegation.graph import SELF, DelegationGraph, resolve_forests_batch
from repro.graphs.graph import csr_index_dtype

UNIFORM_CHUNK_BUDGET_BYTES = 256 * 1024 * 1024
"""Default per-call budget for the batched kernels' uniform cube.

``sample_delegations_batch`` streams rounds in chunks sized so the
``(chunk, rows, n)`` uniform block stays under this budget — peak memory
is O(E + chunk·n) instead of O(rounds·n).  Chunking is invisible in the
output: round ``r`` draws only from child seed ``r``, so any partition
of rounds into chunks produces bit-identical delegate matrices."""

LEVEL_BLOCK_CELLS = 1 << 17
"""Cells (rounds × voters) per block of the level-ordered forest kernel.

:meth:`UniformApprovedDelegation.sample_forests_batch` draws, picks and
resolves rounds in blocks of about this many cells (at least one round),
running its level loop over the block's flat indices.  A block's sink
rows and weight counts then stay cache-sized: on a 2-core Xeon with a
4 MiB L2, BA instances ran ~2x faster at n = 10^4 and 10^5 than with
2^20-cell blocks, and no slower at n = 500 or 10^6.  At n = 10^6 a block
is one round and every per-block temporary stays below glibc's
32 MiB mmap ceiling, so it is reused from the heap instead of being
mapped and faulted in afresh; at small n a block spans hundreds of
rounds, so the per-level numpy calls are not paid once per round.

Blocks are the unit of the kernel's thread fan-out: once a block is one
round (n >= :data:`~repro._util.threads.MIN_THREAD_WIDTH`, equal to
this constant), a call's blocks are split over
``min(blocks, CPUs in the affinity mask)`` threads, each holding one
block's buffers.  Processes split rounds across ``n_jobs``, threads
split a chunk's blocks, and peak memory is O(E + chunk·n +
workers·block).  Any blocking and any thread count give bit-identical
output."""


@dataclass(frozen=True)
class Ballot:
    """A resolved election input: a delegation forest plus abstainers.

    ``abstaining`` must be a subset of the forest's sinks — a voter who
    delegated cannot also abstain.  Votes delegated to an abstaining sink
    are lost (the footnote-4 hazard the paper's restricted abstention
    model is designed around).
    """

    forest: DelegationGraph
    abstaining: FrozenSet[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        sinks = set(self.forest.sinks)
        extra = set(self.abstaining) - sinks
        if extra:
            raise ValueError(
                f"abstaining voters must be sinks, but {sorted(extra)} delegated"
            )

    @property
    def participating_weight(self) -> int:
        """Total weight carried by non-abstaining sinks.

        Computed from the forest's sink-weight array with a vectorised
        abstain mask rather than a per-sink Python sum.
        """
        weights = self.forest.sink_weight_array
        if not self.abstaining:
            return int(weights.sum())
        mask = np.isin(
            self.forest.sink_indices, np.fromiter(self.abstaining, dtype=np.int64)
        )
        return int(weights[~mask].sum())


class DelegationMechanism(abc.ABC):
    """Base class for all delegation mechanisms."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short identifier used in experiment reports."""

    @property
    def is_local(self) -> bool:
        """Whether the mechanism uses only local views (Section 2.2)."""
        return isinstance(self, LocalDelegationMechanism)

    @abc.abstractmethod
    def sample_delegations(
        self, instance: ProblemInstance, rng: SeedLike = None
    ) -> DelegationGraph:
        """Draw one delegation forest for ``instance``."""

    def sample_ballot(
        self, instance: ProblemInstance, rng: SeedLike = None
    ) -> Ballot:
        """Draw one ballot; default mechanisms never abstain."""
        return Ballot(self.sample_delegations(instance, rng))

    def cache_token(self, instance: ProblemInstance) -> Optional[Tuple[Any, ...]]:
        """A stable token of this mechanism's behaviour on ``instance``.

        Used by the persistent estimate cache (:mod:`repro.cache`) as
        the mechanism component of the digest.  The default tokenises
        the mechanism's pickled bytes — parameterised mechanisms built
        from plain data hash stably.  Mechanisms holding unpicklable
        state (lambda thresholds) return ``None`` — uncacheable — unless
        they override this with a behavioural token (the threshold
        mechanisms tokenise their per-degree threshold values, which is
        what actually determines the sampled forests).
        """
        try:
            blob = pickle.dumps(self, protocol=4)
        except Exception:
            return None
        return ("pickle", type(self).__qualname__, hashlib.sha256(blob).hexdigest())

    # -- batched sampling --------------------------------------------------

    def batch_uniform_rows(self) -> Optional[int]:
        """Per-voter uniform rows the batched kernel consumes, or ``None``.

        A mechanism with a vectorised batch kernel declares here how many
        uniform draws per voter one round costs (round ``r`` consumes
        exactly ``rng_r.random((rows, n))``); mechanisms without a kernel
        return ``None`` and :meth:`sample_delegations_batch` falls back
        to the per-voter loop transparently.
        """
        return None

    @property
    def supports_batch_sampling(self) -> bool:
        """Whether :meth:`sample_delegations_batch` uses a vectorised kernel."""
        return self.batch_uniform_rows() is not None

    def sample_delegations_batch(
        self,
        instance: ProblemInstance,
        n_rounds: int,
        seed: SeedLike = None,
        first_round: int = 0,
        chunk_rounds: Optional[int] = None,
    ) -> np.ndarray:
        """Draw ``n_rounds`` delegation forests as one ``(rounds, n)`` matrix.

        Round ``i`` draws from the absolute child seed ``first_round + i``
        of ``seed``'s root (:func:`repro._util.rng.child_seed_sequence`),
        the batch engine's determinism contract: results are independent
        of how rounds are partitioned across calls or workers.

        Kernel mechanisms map each round's block of per-voter uniforms
        through :meth:`~LocalDelegationMechanism.decide_from_uniforms`'s
        vectorised counterpart; mechanisms without a kernel run the
        ordinary per-round :meth:`sample_delegations` on the same child
        seeds (so their forests match the per-round engine exactly).

        The uniform cube is generated in round chunks (``chunk_rounds``
        rounds at a time; default sized to
        :data:`UNIFORM_CHUNK_BUDGET_BYTES`), so peak transient memory
        scales with the chunk, not with ``n_rounds``.  Because each
        round's uniforms come from its own child seed, the output is
        bit-identical for every chunking.  The returned matrix uses the
        instance's CSR index dtype (int32 below 2^31 voters).
        """
        if n_rounds < 0:
            raise ValueError(f"n_rounds must be non-negative, got {n_rounds}")
        if chunk_rounds is not None and chunk_rounds < 1:
            raise ValueError(f"chunk_rounds must be >= 1, got {chunk_rounds}")
        root = as_seed_sequence(seed)
        n = instance.num_voters
        out_dtype = csr_index_dtype(n, 2 * instance.graph.num_edges)
        rows = self.batch_uniform_rows()
        if rows is None:
            out = np.empty((n_rounds, n), dtype=out_dtype)
            for i in range(n_rounds):
                rng = np.random.default_rng(
                    child_seed_sequence(root, first_round + i)
                )
                out[i] = self.sample_delegations(instance, rng).delegates
            return out
        if chunk_rounds is None:
            per_round = max(1, rows) * max(1, n) * 8
            chunk_rounds = max(1, UNIFORM_CHUNK_BUDGET_BYTES // per_round)
        if chunk_rounds >= n_rounds:
            uniforms = self._uniform_block(root, first_round, n_rounds, rows, n)
            return self._delegations_from_uniforms(instance, uniforms)
        out = np.empty((n_rounds, n), dtype=out_dtype)
        for cstart in range(0, n_rounds, chunk_rounds):
            cstop = min(cstart + chunk_rounds, n_rounds)
            uniforms = self._uniform_block(
                root, first_round + cstart, cstop - cstart, rows, n
            )
            out[cstart:cstop] = self._delegations_from_uniforms(
                instance, uniforms
            )
        return out

    @staticmethod
    def _uniform_block(
        root: np.random.SeedSequence,
        first_round: int,
        n_rounds: int,
        rows: int,
        n: int,
    ) -> np.ndarray:
        """The ``(n_rounds, rows, n)`` uniforms for one contiguous chunk."""
        uniforms = np.empty((n_rounds, rows, n))
        for i in range(n_rounds):
            rng = np.random.default_rng(child_seed_sequence(root, first_round + i))
            if rows:
                uniforms[i] = rng.random((rows, n))
        return uniforms

    def _delegations_from_uniforms(
        self, instance: ProblemInstance, uniforms: np.ndarray
    ) -> np.ndarray:
        """Vectorised kernel: uniforms ``(rounds, rows, n)`` → delegates.

        Must produce, for every round and voter, *exactly* the delegate
        that ``decide_from_uniforms(view, uniforms[r, :, voter])`` picks —
        the exact-equivalence suite pins batched forests bit-identically
        to the per-voter reference given shared uniforms.
        """
        raise NotImplementedError(
            f"{type(self).__name__} declares batch_uniform_rows() but no kernel"
        )

    def sample_forests_batch(
        self,
        instance: ProblemInstance,
        n_rounds: int,
        seed: SeedLike = None,
        first_round: int = 0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``n_rounds`` forests as compact sink profiles ``(sinks, weights)``.

        The batch engine's entry point.  ``sinks`` (int64, index order)
        holds the voters that are a sink in at least one round, and
        ``weights`` the ``(rounds, len(sinks))`` intp matrix of the
        votes each carries (0 in a round where it delegates).  This
        default is the composition
        :meth:`_reference_sample_forests_batch`; mechanisms with a fixed
        mover set override it with a one-pass kernel
        (:class:`UniformApprovedDelegation`), bitwise equal.  A weight
        row not summing to ``n`` raises ``RuntimeError`` on either path.
        """
        sinks, weights = self._reference_sample_forests_batch(
            instance, n_rounds, seed, first_round
        )
        _check_weight_rows(weights, instance.num_voters, first_round)
        return sinks, weights

    def _reference_sample_forests_batch(
        self,
        instance: ProblemInstance,
        n_rounds: int,
        seed: SeedLike = None,
        first_round: int = 0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample the delegate matrix, resolve it, drop never-sink columns
        (the oracle)."""
        _, weights = resolve_forests_batch(
            self.sample_delegations_batch(
                instance, n_rounds, seed=seed, first_round=first_round
            )
        )
        sinks = np.flatnonzero(weights.any(axis=0))
        return sinks, weights[:, sinks]

    def forest_bytes_per_voter(self, instance: ProblemInstance) -> int:
        """Bytes per voter and round that :meth:`sample_forests_batch` holds.

        Sizes the batch engine's round chunks.  The composition keeps
        the uniform rows (float64), the delegate row (index dtype) and
        the resolve scratch of
        :func:`~repro.delegation.graph.resolve_forests_batch`: three
        8-byte words per voter cover its int32 sink row (the pointer
        dtype below 2^31 cells), the int64 weight row, and the
        frontier's cell and target arrays plus ``bincount``'s index copy.
        """
        return 8 * (self.batch_uniform_rows() or 0) + 4 + 3 * 8

    def fixed_sinks(self, instance: ProblemInstance) -> np.ndarray:
        """Sorted int64 ids of voters that are a weight-1 sink in every
        forest (the exact tails take them once per estimate); none here."""
        return np.empty(0, dtype=np.int64)

    def delegations_from_uniforms_subset(
        self,
        instance: ProblemInstance,
        uniforms: np.ndarray,
        voters: np.ndarray,
    ) -> np.ndarray:
        """Delegates for ``voters`` only, given the full uniform cube.

        The incremental engine (:mod:`repro.incremental`) retains each
        round's uniforms and, after a localised instance edit, re-derives
        delegates only for the dirtied voters — every other voter's
        decision provably cannot have changed.  ``uniforms`` is the full
        ``(rounds, rows, n)`` cube (column ``v`` is voter ``v``'s draws,
        so the subset consumes the *same* uniforms the full kernel
        would); the result is the ``(rounds, len(voters))`` slice of the
        full delegate matrix, bit-identical to
        ``_delegations_from_uniforms(...)[:, voters]``.

        The default implementation runs the full kernel and slices —
        always correct, O(n).  Mechanisms whose per-voter decision has no
        cross-voter coupling override this with a true subset kernel
        (the threshold family restricts its mask and target resolution
        to ``voters``, making a patch O(|voters|)).
        """
        if self.batch_uniform_rows() is None:
            raise NotImplementedError(
                f"{type(self).__name__} has no uniform-based decision kernel"
            )
        return self._delegations_from_uniforms(instance, uniforms)[:, voters]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class LocalDelegationMechanism(DelegationMechanism):
    """A mechanism whose per-voter choice sees only the local view.

    Subclasses implement :meth:`decide`; :meth:`distribution` has a
    default Monte Carlo-free implementation for mechanisms whose decision
    is "delegate uniformly over approved when condition holds", which
    subclasses with richer behaviour override.
    """

    @abc.abstractmethod
    def decide(self, view: LocalView, rng: np.random.Generator) -> Optional[int]:
        """Return the delegate chosen by ``view.voter`` or ``None`` to vote."""

    def should_delegate(self, view: LocalView) -> bool:
        """Whether the voter's *deterministic* condition to delegate holds.

        Only meaningful for mechanisms where the delegate/vote decision is
        a deterministic function of the view (true for Algorithm 1,
        Theorem 5's mechanism, direct voting).  Mechanisms with random
        conditions override :meth:`distribution` instead.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not expose a deterministic condition"
        )

    def distribution(self, view: LocalView) -> Dict[Optional[int], float]:
        """The mechanism's output distribution for one voter.

        Keys are delegate indices plus ``None`` for "vote directly";
        values sum to 1.  Default: uniform over approved neighbours when
        :meth:`should_delegate` holds, else vote.
        """
        if self.should_delegate(view) and view.approved:
            share = 1.0 / len(view.approved)
            return {j: share for j in view.approved}
        return {None: 1.0}

    def sample_delegations(
        self, instance: ProblemInstance, rng: SeedLike = None
    ) -> DelegationGraph:
        gen = as_generator(rng)
        delegates: List[int] = []
        for voter in range(instance.num_voters):
            choice = self.decide(instance.local_view(voter), gen)
            delegates.append(SELF if choice is None else int(choice))
        return DelegationGraph(delegates)

    def decide_from_uniforms(
        self, view: LocalView, u: np.ndarray
    ) -> Optional[int]:
        """Deterministic form of :meth:`decide` over explicit uniforms.

        ``u`` holds this voter's :meth:`batch_uniform_rows` uniform draws
        for one round.  Factoring the decision into a pure function of
        ``(view, u)`` is what lets the batched kernel and the per-voter
        reference consume *the same* uniforms and be compared forest by
        forest, bit for bit.  (The rng-based :meth:`decide` keeps its own
        draw order untouched — per-round fallback streams are pinned by
        tests.)
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no uniform-based decision kernel"
        )

    def _reference_sample_delegations_batch(
        self,
        instance: ProblemInstance,
        n_rounds: int,
        seed: SeedLike = None,
        first_round: int = 0,
    ) -> np.ndarray:
        """Per-voter oracle for :meth:`sample_delegations_batch`.

        Draws the identical per-round uniform blocks and routes each
        voter through :meth:`decide_from_uniforms`; the batched kernels
        are pinned to this loop exactly (not statistically).
        """
        rows = self.batch_uniform_rows()
        if rows is None:
            raise NotImplementedError(
                f"{type(self).__name__} has no uniform-based decision kernel"
            )
        root = as_seed_sequence(seed)
        n = instance.num_voters
        out = np.full((n_rounds, n), SELF, dtype=np.int64)
        views = [instance.local_view(v) for v in range(n)]
        for i in range(n_rounds):
            rng = np.random.default_rng(child_seed_sequence(root, first_round + i))
            block = rng.random((rows, n)) if rows else np.empty((0, n))
            for voter in range(n):
                choice = self.decide_from_uniforms(views[voter], block[:, voter])
                if choice is not None:
                    out[i, voter] = int(choice)
        return out


def uniform_choice(
    options: tuple, rng: np.random.Generator
) -> int:
    """Uniformly choose one element of a non-empty tuple."""
    if not options:
        raise ValueError("cannot choose from an empty option set")
    return int(options[int(rng.integers(len(options)))])


def uniform_offset(u: float, count: int) -> int:
    """Map one uniform draw to an index in ``0 .. count - 1``.

    The shared offset formula of the batched kernels and their
    :meth:`~LocalDelegationMechanism.decide_from_uniforms` references:
    ``min(floor(u * count), count - 1)`` (the clamp guards ``u = 1.0``
    never produced by ``random()`` but allowed by the contract).
    """
    return min(int(u * count), count - 1)


def batched_uniform_approved_targets(
    compiled, movers: np.ndarray, u_rows: np.ndarray
) -> np.ndarray:
    """Vectorised "uniform approved neighbour" picks for many rounds.

    ``u_rows`` is the ``(rounds, n)`` uniform block; ``movers`` the voters
    whose delegation condition holds (every one must have a non-empty
    approved set).  Returns the ``(rounds, len(movers))`` delegate
    matrix.  Offsets follow :func:`uniform_offset`, and the approved
    segments are ordered exactly like ``LocalView.approved`` (competency
    ascending, ties by index), so each entry equals
    ``view.approved[uniform_offset(u, count)]``.
    """
    counts = compiled.approved_counts[movers]
    offsets = np.minimum((u_rows[:, movers] * counts).astype(np.int64), counts - 1)
    return compiled.resolve_approved_offsets(movers[None, :], offsets)


class UniformApprovedDelegation(LocalDelegationMechanism):
    """A fixed set of movers, each delegating to a uniform approved neighbour.

    The shared shape of Algorithm 1 (:class:`~repro.mechanisms.threshold.
    ApprovalThreshold`) and Theorem 5's mechanism
    (:class:`~repro.mechanisms.fraction.FractionApproved`): whether a
    voter delegates is a deterministic function of its neighbourhood,
    owned by one method, :meth:`_movers`; a mover's delegate is uniform
    over its approved neighbours, drawn from one uniform per round.

    Because the movers do not depend on the round, the batch engine
    resolves their forests in one pass per level of the approval DAG
    (:meth:`sample_forests_batch`).
    """

    @abc.abstractmethod
    def _movers(
        self, compiled, voters: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Boolean mask of the voters that delegate (over ``voters``, or all).

        Must agree with :meth:`should_delegate` voter by voter and be
        false wherever the approved set is empty.
        """

    def decide(self, view: LocalView, rng: np.random.Generator) -> Optional[int]:
        if not view.approved or not self.should_delegate(view):
            return None
        return uniform_choice(view.approved, rng)

    def fixed_sinks(self, instance: ProblemInstance) -> np.ndarray:
        """The non-movers that no mover approves: no chain can end there."""
        movers = self._movers(instance.compiled())
        reached = instance.approval_structure().approved_by(movers)
        return np.flatnonzero(~(movers | reached))

    def sample_delegations(
        self, instance: ProblemInstance, rng: SeedLike = None
    ) -> DelegationGraph:
        """Vectorised sampler, distributionally identical to ``decide``."""
        gen = as_generator(rng)
        delegates = np.full(instance.num_voters, SELF, dtype=np.int64)
        movers = np.flatnonzero(self._movers(instance.compiled()))
        if movers.size:
            delegates[movers] = instance.approval_structure().sample_approved_many(
                movers, gen
            )
        return DelegationGraph(delegates)

    # -- batched kernels ---------------------------------------------------

    def batch_uniform_rows(self) -> int:
        return 1

    def decide_from_uniforms(
        self, view: LocalView, u: np.ndarray
    ) -> Optional[int]:
        if not view.approved or not self.should_delegate(view):
            return None
        return view.approved[uniform_offset(float(u[0]), view.approval_count)]

    def _delegations_from_uniforms(
        self, instance: ProblemInstance, uniforms: np.ndarray
    ) -> np.ndarray:
        compiled = instance.compiled()
        delegates = np.full(
            (uniforms.shape[0], instance.num_voters), SELF,
            dtype=compiled.index_dtype,
        )
        movers = np.flatnonzero(self._movers(compiled))
        if movers.size:
            delegates[:, movers] = batched_uniform_approved_targets(
                compiled, movers, uniforms[:, 0, :]
            )
        return delegates

    def delegations_from_uniforms_subset(
        self,
        instance: ProblemInstance,
        uniforms: np.ndarray,
        voters: np.ndarray,
    ) -> np.ndarray:
        """True subset kernel: O(rounds × |voters|), not O(rounds × n).

        Restricts the full kernel's mask and target resolution to
        ``voters``; every formula (mover condition, offset clamp,
        segment resolution) is the full kernel's own restricted
        elementwise, so the result is bit-identical to slicing the full
        delegate matrix.
        """
        compiled = instance.compiled()
        voters = np.asarray(voters, dtype=np.int64)
        mask = self._movers(compiled, voters)
        delegates = np.full(
            (uniforms.shape[0], voters.size), SELF, dtype=compiled.index_dtype
        )
        movers = voters[mask]
        if movers.size:
            delegates[:, mask] = batched_uniform_approved_targets(
                compiled, movers, uniforms[:, 0, :]
            )
        return delegates

    def sample_forests_batch(
        self,
        instance: ProblemInstance,
        n_rounds: int,
        seed: SeedLike = None,
        first_round: int = 0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pick targets and resolve forests in one pass, level by level.

        Bitwise equal to :meth:`_reference_sample_forests_batch`, dtypes
        included.  Runs when the instance has a level table
        (:meth:`~repro.core.compiled.CompiledInstance.approval_levels`);
        complete-form and too-deep approval DAGs, and empty batches,
        take the composition.  Either way ``sinks`` are the non-movers
        and every weight is at least 1.
        """
        n = instance.num_voters
        if n_rounds > 0 and n > 0:
            compiled = instance.compiled()
            levels = compiled.approval_levels()
            if levels is not None:
                return _level_ordered_forests(
                    compiled, levels, self._movers(compiled),
                    as_seed_sequence(seed), first_round, n_rounds,
                )
        return super().sample_forests_batch(instance, n_rounds, seed, first_round)

    def forest_bytes_per_voter(self, instance: ProblemInstance) -> int:
        """8 bytes (one intp weight) per voter and round on the level path.

        The kernel's other arrays are per block of
        :data:`LEVEL_BLOCK_CELLS` cells, not per round, and its weight
        rows hold the sinks only.  The mask's :class:`LevelPlan` is O(E)
        once per compiled instance, not per round, so it is outside
        this figure.
        """
        if instance.compiled().approval_levels() is not None:
            return 8
        return super().forest_bytes_per_voter(instance)


class LevelPlan(NamedTuple):
    """A fixed mover set laid out in level-ordered position coordinates.

    Positions ``[0, S)`` are the ``S`` sinks (the non-movers) in rank
    order, ``S`` is the spare slot and ``S + 1 + j`` is mover
    ``movers[j]``.  ``movers`` holds the movers in the approval DAG's
    level order, and ``movers[lo:hi]`` for ``(lo, hi)`` in ``spans`` is
    one level.  Mover ``j``'s approved row is ``targets[starts[j]:
    starts[j] + counts[j]]``, in ``LocalView.approved`` order, each entry
    the target's position: its sink rank, the mover position, or ``S``
    for a mover outside the level order (one with no approved
    neighbour, which only a broken mask names).  A target's position is
    always below its owner's, so a round resolves the movers by one
    slice write per level.  Every array is read-only: the kernel's
    threads share one plan.
    """

    sinks: np.ndarray
    movers: np.ndarray
    spans: Tuple[Tuple[int, int], ...]
    counts: np.ndarray
    starts: np.ndarray
    targets: np.ndarray


def level_plan(compiled, levels, mask: np.ndarray) -> LevelPlan:
    """The memoised :class:`LevelPlan` of ``mask`` on ``compiled``.

    Keyed by the mask's content, so mechanisms with equal masks share
    one plan; the compiled instance keeps only the last mask's plan, so
    a stream of distinct masks cannot grow memory.
    """
    digest = hashlib.blake2b(np.packbits(mask).tobytes(), digest_size=16)
    return compiled.memo_last(
        ("level_plan", mask.size, digest.hexdigest()),
        lambda: _level_plan(compiled, levels, mask),
    )


# reprolint: reference=_reference_level_plan
def _level_plan(compiled, levels, mask: np.ndarray) -> LevelPlan:
    """Build a :class:`LevelPlan` level by level, in O(E) memory.

    Each level's approved rows are cut out of the CSR with that level's
    owner mask (one byte per approved edge, never an index per edge)
    and written as int32 positions (int64 past 2^31 voters).
    """
    n = compiled.num_voters
    indices = compiled.approved_csr()[1]
    # Every index below is in range by construction (level order, movers
    # and CSR entries), so ``take`` runs unchecked in "clip" mode.
    keep = np.take(mask, levels.order, mode="clip")
    movers = np.compress(keep, levels.order).astype(np.intp)
    sinks = np.flatnonzero(~mask)
    n_sinks = sinks.size
    dtype = np.int32 if n + 1 <= np.iinfo(np.int32).max else np.int64
    position = np.full(n, n_sinks, dtype=dtype)
    position[sinks] = np.arange(n_sinks, dtype=dtype)
    position[movers] = np.arange(n_sinks + 1, n_sinks + 1 + movers.size, dtype=dtype)
    counts = np.take(compiled.approved_counts, movers, mode="clip")
    starts = np.zeros(movers.size, dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    targets = np.empty(int(counts.sum()), dtype=dtype)
    # Per approved edge, the level of its owner if the owner moves, else 0.
    owner_level = np.where(mask, levels.level, 0).astype(np.int8)
    edge_level = np.repeat(owner_level, compiled.approved_counts)
    spans, hi = [], 0
    for depth, (start, stop) in enumerate(zip(levels.bounds[:-1], levels.bounds[1:]), 1):
        lo, hi = hi, hi + int(np.count_nonzero(keep[start:stop]))
        if hi == lo:
            continue
        spans.append((lo, hi))
        row = np.compress(edge_level == depth, indices)
        first = int(starts[lo])
        np.take(position, row, out=targets[first:first + row.size], mode="clip")
    plan = LevelPlan(
        sinks, movers, tuple(spans), counts.astype(np.float64), starts, targets
    )
    for array in (sinks, movers, plan.counts, starts, targets):
        array.setflags(write=False)
    return plan


def _reference_level_plan(instance: ProblemInstance, mask: np.ndarray) -> LevelPlan:
    """Brute-force oracle of :func:`_level_plan`, voter by voter.

    Reads each mover's approved set from its ``LocalView`` and the level
    from :func:`~repro.core.compiled._reference_approval_levels`.
    """
    levels = _reference_approval_levels(instance.compiled())
    n = instance.num_voters
    sinks = [v for v in range(n) if not mask[v]]
    movers = [int(v) for v in levels.order if mask[v]]
    position = {v: len(sinks) for v in range(n)}
    position.update({v: r for r, v in enumerate(sinks)})
    position.update({v: len(sinks) + 1 + j for j, v in enumerate(movers)})
    spans, counts, starts, targets = [], [], [], []
    for depth in range(1, len(levels.bounds)):
        level = [j for j, v in enumerate(movers) if levels.level[v] == depth]
        if level:
            spans.append((level[0], level[-1] + 1))
    for v in movers:
        approved = instance.local_view(v).approved
        starts.append(len(targets))
        counts.append(len(approved))
        targets.extend(position[u] for u in approved)
    dtype = np.int32 if n + 1 <= np.iinfo(np.int32).max else np.int64
    return LevelPlan(
        np.array(sinks, dtype=np.int64),
        np.array(movers, dtype=np.intp),
        tuple(spans),
        np.array(counts, dtype=np.float64),
        np.array(starts, dtype=np.intp),
        np.array(targets, dtype=dtype),
    )


def _level_ordered_forests(
    compiled,
    levels,
    mask: np.ndarray,
    root: np.random.SeedSequence,
    first_round: int,
    n_rounds: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """One-pass pick and resolve of a fixed mover set, in level order.

    Works in the position coordinates of the mask's memoised
    :class:`LevelPlan` (:func:`level_plan`).  A round gathers the
    movers' uniforms, picks each mover's target with
    :func:`batched_uniform_approved_targets`' formula by reading the
    plan's targets (a near-sequential walk), and resolves the movers
    level by level: a mover's target sits on a strictly lower level or
    is a sink, so ``rank[S+1+lo:S+1+hi] = rank[targets]`` reads only
    final ranks.  No delegate matrix is built and no cycle check is
    needed, because every target comes from the approved CSR.

    Rounds run in blocks of :data:`LEVEL_BLOCK_CELLS` cells over flat
    indices of a ``(block, S + 1 + M)`` scratch, one per thread
    (:func:`~repro._util.threads.run_split`), reused across that
    thread's blocks; each row's first ``S + 1`` cells hold the ranks
    ``0 .. S`` once, and a round rewrites every mover cell before
    reading it.  A sink's weight is its own vote plus the count of
    mover cells landing on it, so the ``bincount`` runs over the mover
    tail into ``rounds × (S + 1)`` bins (the last one the spare).
    Returns the compact profile ``(sinks, weights)``, bitwise equal to
    :meth:`~DelegationMechanism._reference_sample_forests_batch`,
    dtypes included; a weight row not summing to ``n`` (a mover with
    no approved neighbour, so outside the level order, leaves its vote
    out and feeds the spare) raises ``RuntimeError``.
    """
    n = compiled.num_voters
    plan = level_plan(compiled, levels, mask)
    counts, starts, targets = plan.counts, plan.starts, plan.targets
    # ``np.take`` copies a read-only index array on every call; one
    # writeable copy per call serves every round.
    movers = plan.movers.copy()
    n_sinks = plan.sinks.size
    tail = n_sinks + 1
    width = tail + movers.size
    weights = np.empty((n_rounds, n_sinks), dtype=np.intp)
    sums = np.empty(n_rounds, dtype=np.intp)
    block = max(1, min(n_rounds, LEVEL_BLOCK_CELLS // n))
    rows = np.arange(block, dtype=targets.dtype)[:, None]
    base = rows * width
    bins = rows * tail
    # The lowest level's targets can only be sinks or the spare, whose
    # positions are their own ranks: that level needs no resolve.
    lowest = plan.spans[0][1] if plan.spans else 0

    def run_blocks(blocks: range) -> None:
        # Each thread owns its buffers and writes only its own weight rows.
        uniforms = np.empty((block, n))
        rank = np.empty((block, width), dtype=targets.dtype)
        rank[:, :tail] = np.arange(tail, dtype=targets.dtype)
        picked = np.empty((block, movers.size))
        cells = np.empty((block, movers.size), dtype=np.intp)
        for b0 in (k * block for k in blocks):
            b = min(block, n_rounds - b0)
            for i in range(b):
                rng = np.random.default_rng(
                    child_seed_sequence(root, first_round + b0 + i)
                )
                rng.random(out=uniforms[i])
            u = picked[:b]
            np.take(uniforms[:b], movers, axis=1, out=u, mode="clip")
            # ``random()`` draws u < 1, and for an integer 1 <= c < 2^53
            # the rounded product u·c is below c, so the ``counts - 1``
            # clamp of ``batched_uniform_approved_targets`` never fires.
            u *= counts
            cell = cells[:b]
            np.copyto(cell, u, casting="unsafe")
            cell += starts
            moved = rank[:b, tail:]
            np.take(targets, cell, out=moved, mode="clip")
            moved[:, lowest:] += base[:b]
            flat = rank[:b].reshape(-1)
            for lo, hi in plan.spans[1:]:
                moved[:, lo:hi] = np.take(flat, moved[:, lo:hi], mode="clip")
            np.add(moved, bins[:b], out=cell)
            landing = np.bincount(cell.reshape(-1), minlength=b * tail)
            rows_out = weights[b0:b0 + b]
            np.add(landing.reshape(b, tail)[:, :-1], 1, out=rows_out)
            # Summed while the rows are still in cache.
            rows_out.sum(axis=1, out=sums[b0:b0 + b])

    run_split(run_blocks, -(-n_rounds // block), n)
    _check_weight_rows(weights, n, first_round, sums)
    return plan.sinks, weights


def _check_weight_rows(
    weights: np.ndarray, n: int, first_round: int, sums: Optional[np.ndarray] = None
) -> None:
    """Raise ``RuntimeError`` unless every round's sink weights sum to ``n``.

    ``sums`` are the row sums when the caller already has them.
    """
    if sums is None:
        sums = weights.sum(axis=1)
    bad = np.flatnonzero(sums != n)
    if bad.size:
        raise RuntimeError(
            f"round {first_round + int(bad[0])}: sink weights sum to "
            f"{int(weights[bad[0]].sum())}, not {n}"
        )
