"""`DeltaSession`: persistent estimation state that patches under edits.

A session holds one instance, one local mechanism, and ``rounds`` of
retained per-round state (delegation uniforms, delegate matrix, resolved
sinks and weights, and the engine's value state).  Edits arrive in
batches via :meth:`DeltaSession.apply`; each batch splices the instance
(:mod:`repro.incremental.structure`), re-derives delegates for the dirty
voters only (the mechanism's ``delegations_from_uniforms_subset`` over
the *retained* uniforms), patches the affected forests
(:mod:`repro.incremental.forest`), and patches the per-round values —
integer correct-weight deltas for the ``"mc"`` engine, dirty-path
merge-tree re-merge for the ``"exact"`` engine.

Determinism contract (the retained-draw model): a session is a pure
function of ``(instance, mechanism, rounds, seed, engine)``.  Round
``r``'s delegation uniforms come from absolute child seed ``r`` of the
root — the same stream ``sample_delegations_batch`` consumes — and the
MC engine's vote uniforms from that child's first spawn, drawn
positionally (one uniform per voter index).  Positional draws are what
make the state patchable: an edit changes which *columns* matter, never
where a voter's draw lives.  (The streamed estimator draws votes
compactly over each round's sink set instead — an equally valid MC
scheme, but its draw positions depend on the sink set and therefore
cannot be patched; the two estimators are deliberately distinct streams.)
Consequently a patched session is **bitwise equal** to a fresh session
built on the final instance — the invariant every delta path is pinned
to, cold and cache-warm.

Joins and leaves re-base the voter index space (uniform columns are
positional), so they rebuild the per-round state from the spliced
instance; rewires and competency edits take the patch path.

:meth:`DeltaSession.trial` scores a batch without keeping it: it applies
the batch through :meth:`~DeltaSession.apply` and on exit puts back
exactly what that apply replaced, from an undo log the patch path fills
only while a trial is open — no inverse batch, no second splice.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import setitem
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro._util.rng import SeedLike, as_seed_sequence, child_seed_sequence
from repro.cache import label_cache_ops
from repro.core.instance import ProblemInstance
from repro.delegation.graph import resolve_forests_batch
from repro.incremental.edits import (
    Edit,
    as_edit,
    canonical_batch,
    edit_chain_digest,
)
from repro.incremental.forest import patch_forests_delta, sink_weight_deltas
from repro.incremental.structure import patched_instance
from repro.incremental.tails import (
    block_bounds,
    default_blocks,
    pmf_tree_build,
    pmf_tree_delta,
    tree_root,
)
from repro.mechanisms.base import DelegationMechanism, LocalDelegationMechanism
from repro.voting.exact import tail_from_pmf
from repro.voting.montecarlo import (
    CorrectnessEstimate,
    _adaptive_estimate,
    _cached,
    _resolve_adaptive,
    _summarise_values,
)
from repro.voting.outcome import TiePolicy, majority_correct

ENGINES = ("mc", "exact")
"""Value engines: ``"mc"`` patches integer correct-weight totals (0/1
per-round outcomes, Wilson intervals); ``"exact"`` patches cached
Poisson-binomial merge trees (Rao–Blackwellised per-round tails)."""

_EMPTY = np.empty(0, dtype=np.int64)


class DeltaSession:
    """Persistent estimation state over one instance, patched under edits.

    Parameters
    ----------
    instance:
        The base instance.  Edits are applied relative to it; the cache
        identity of every estimate is ``(base instance, mechanism, seed,
        params, edit-chain digest)``.
    mechanism:
        A *local* mechanism with a batch kernel.  Locality is load-
        bearing, not a convenience: a voter's delegate depends only on
        its own local view and uniforms, which is exactly what makes the
        dirty-set model sound (clean voters provably keep their
        delegates under the retained draws).
    rounds:
        Retained rounds.  Estimates may use any prefix; adaptive
        estimates replay the geometric stopping rule over the retained
        values without re-simulating.
    seed:
        Root seed of the retained-draw streams.
    engine:
        ``"mc"`` or ``"exact"`` (see :data:`ENGINES`).  The exact
        engine's merge trees have
        :func:`~repro.incremental.tails.default_blocks` leaves.
    cache:
        Optional :class:`repro.cache.EstimateCache`; estimates of
        patched states are persisted under the ``delta`` op label.

    :meth:`apply` keeps a batch; :meth:`trial` applies one for the
    duration of a ``with`` block and then restores the prior state
    bitwise, edit chain included, so an estimate inside the block is
    keyed (and cached) by the kept chain plus the trial batch.
    ``patch_stats`` counts a trial's apply like any other and its undo
    not at all.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        mechanism: DelegationMechanism,
        *,
        rounds: int = 64,
        seed: SeedLike = 0,
        engine: str = "mc",
        tie_policy: TiePolicy = TiePolicy.INCORRECT,
        cache=None,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        if rounds <= 0:
            raise ValueError(f"rounds must be positive, got {rounds}")
        if not isinstance(mechanism, LocalDelegationMechanism):
            raise ValueError(
                "DeltaSession requires a local mechanism: locality is what "
                "guarantees voters outside the dirty set keep their delegates"
            )
        if not mechanism.supports_batch_sampling:
            raise ValueError(
                f"{type(mechanism).__name__} has no batch kernel; the delta "
                "engine retains and replays the kernel's uniform stream"
            )
        self.engine = engine
        self.rounds = int(rounds)
        self.tie_policy = tie_policy
        self.mechanism = mechanism
        self.cache = cache
        self._seed = seed
        self._root = as_seed_sequence(seed)
        self._base_instance = instance
        self._edit_batches: List[List[dict]] = []
        # Undo entries ``(fn, *args)`` while a trial is open, else None.
        self._undo: Optional[list] = None
        self.patch_stats: Dict[str, int] = {
            "edit_batches": 0,
            "edits": 0,
            "full_rebuilds": 0,
            "rounds_patched": 0,
            "affected_voters": 0,
        }
        self._build(instance)

    # -- state construction ------------------------------------------------

    def _build(self, instance: ProblemInstance) -> None:
        """From-scratch state build — also the join/leave rebuild path."""
        n = instance.num_voters
        rows = self.mechanism.batch_uniform_rows()
        self._uniforms = DelegationMechanism._uniform_block(
            self._root, 0, self.rounds, rows, n
        )
        self._delegates = self.mechanism._delegations_from_uniforms(
            instance, self._uniforms
        )
        sink_local, self._weights_arr = resolve_forests_batch(self._delegates)
        self._pending_moves: List[tuple] = []
        self._pos_scratch: Optional[np.ndarray] = None
        base = np.arange(self.rounds, dtype=np.int64)[:, None] * n
        self._sinks_flat = (sink_local.astype(np.int64) + base).ravel()
        self._instance = instance
        if self.engine == "mc":
            self._vote_u = np.empty((self.rounds, n))
            for r in range(self.rounds):
                vote_rng = np.random.default_rng(
                    child_seed_sequence(self._root, r).spawn(1)[0]
                )
                self._vote_u[r] = vote_rng.random(n)
            self._votes = self._vote_u < instance.competencies
            self._correct = (self._weights_arr * self._votes).sum(axis=1)
            self._trees = None
            self._bounds = None
        else:
            self._bounds = block_bounds(n, default_blocks(n))
            comp = instance.competencies
            self._trees = [
                pmf_tree_build(self._weights_arr[r], comp, self._bounds)
                for r in range(self.rounds)
            ]
            self._vote_u = None
            self._votes = None
            self._correct = None
        self._values_cache: Optional[np.ndarray] = None

    # -- weight maintenance ------------------------------------------------

    @property
    def _weights(self) -> np.ndarray:
        """Dense ``(rounds, n)`` sink weights, flushing pending moves.

        Re-delegation batches log their weight moves instead of applying
        them: the MC engine's correct-total delta never reads the dense
        weight matrix, so a pure churn stream skips the weight update
        entirely.  Any consumer that does need weights (the exact
        engine's merge trees, the competency-flip term, state
        comparisons) reads through this property, which first scatters
        every pending move into the int64 matrix: one unit off each old
        sink cell, one unit onto each new one.  The scatter touches only
        the moved cells, and integer addition is associative, so the
        deferred fold is bitwise the eager one.
        """
        self._flush_weights()
        return self._weights_arr

    def _flush_weights(self) -> None:
        if not self._pending_moves:
            return
        w_flat = self._weights_arr.reshape(-1)
        for old, new in self._pending_moves:
            np.subtract.at(w_flat, old, 1)
            np.add.at(w_flat, new, 1)
        self._pending_moves = []

    # -- accessors ---------------------------------------------------------

    @property
    def instance(self) -> ProblemInstance:
        """The current (post-edit) instance."""
        return self._instance

    @property
    def base_instance(self) -> ProblemInstance:
        """The instance the session was opened on."""
        return self._base_instance

    @property
    def num_voters(self) -> int:
        return self._instance.num_voters

    def chain_digest(self) -> str:
        """Content digest of the edit chain applied so far."""
        return edit_chain_digest(self._edit_batches)

    def edit_batches(self) -> List[List[dict]]:
        """The applied edit batches in canonical wire form."""
        return [list(batch) for batch in self._edit_batches]

    def per_round_values(self) -> np.ndarray:
        """The retained per-round values (copy)."""
        return self._values().copy()

    # -- edits -------------------------------------------------------------

    def apply(self, edits: Sequence[Union[Edit, dict]]) -> "DeltaSession":
        """Apply one edit batch, patching retained state where possible.

        Returns ``self`` so edit/estimate call chains read naturally.
        Rewires and competency changes patch; joins/leaves rebuild the
        per-round state on the spliced instance (the uniform columns are
        positional in the voter index, so a re-based index space means
        fresh columns).  Either way the post-apply state is bitwise the
        state of a fresh session on the final instance.
        """
        batch = [as_edit(e) for e in edits]
        canonical = canonical_batch(batch)
        new_instance, dirty = patched_instance(self._instance, batch)
        self.patch_stats["edit_batches"] += 1
        self.patch_stats["edits"] += len(batch)
        if dirty is None:
            self.patch_stats["full_rebuilds"] += 1
            if self._undo is not None:
                # _build only rebinds attributes, so the old bindings
                # are the old state.
                self._undo.append((self.__dict__.update, dict(self.__dict__)))
            self._build(new_instance)
        else:
            self._patch(new_instance, dirty)
        self._edit_batches.append(canonical)
        self._values_cache = None
        return self

    @contextmanager
    def trial(self, edits: Sequence[Union[Edit, dict]]) -> Iterator["DeltaSession"]:
        """Apply ``edits`` for the body of a ``with`` block, then undo them.

        Inside the block the session is the one :meth:`apply` leaves
        (estimates included, keyed by the kept chain plus this batch).
        On exit — normal or by exception, also when ``apply`` itself
        raises — every array cell, merge-tree node and attribute the
        apply replaced is put back from the undo log, so the state is
        bitwise the pre-trial one without splicing an inverse batch.
        Trials do not nest.
        """
        if self._undo is not None:
            raise RuntimeError("DeltaSession trials do not nest")
        saved = (self._instance, self._values_cache, len(self._edit_batches))
        self._undo = log = []
        try:
            yield self.apply(edits)
        finally:
            while log:
                fn, *args = log.pop()
                fn(*args)
            self._undo = None
            self._instance, self._values_cache, chain = saved
            del self._edit_batches[chain:]

    def reset_chain(self) -> None:
        """Forget an applied chain that nets out to the base instance.

        After the inverse of every kept batch has been applied the
        retained state is already bitwise the base state (a session is
        a pure function of its instance); this rebinds the base instance
        and empties the chain, so the session is then indistinguishable
        from a fresh one, estimate cache keys included.  Raises
        ``ValueError`` when the current instance differs from the base.
        """
        now, base = self._instance, self._base_instance
        if now is not base and not (
            now.alpha == base.alpha
            and np.array_equal(now.competencies, base.competencies)
            and now.graph == base.graph
        ):
            raise ValueError("the applied edit chain does not net out to the base")
        del self._edit_batches[:]
        self._instance = base
        self._values_cache = None

    def _unmove(self, move: tuple) -> None:
        """Take back one logged weight move, pending or already flushed."""
        if self._pending_moves and self._pending_moves[-1] is move:
            self._pending_moves.pop()
            return
        old, new = move
        w_flat = self._weights_arr.reshape(-1)
        np.subtract.at(w_flat, new, 1)
        np.add.at(w_flat, old, 1)

    def _patch(self, new_instance: ProblemInstance, dirty: np.ndarray) -> None:
        """Patch retained state for a non-structural edit batch.

        Weight maintenance and the MC correct-total delta both come
        straight from the aligned ``(affected, old sink, new sink)``
        triplets of :func:`patch_forests_delta`: each affected voter
        moves one unit of weight from its old sink to its new sink, so

        * the weight update scatters the moves into the moved cells, and
        * the MC delta decomposes exactly as ``Σ w_new·v_new − Σ
          w_old·v_old = Σ_moves (v_old[new] − v_old[old]) +
          Σ_{c ∈ comp_changed} w_new[c]·(v_new[c] − v_old[c])`` —
          two gathers against the retained vote matrix plus one small
          per-column term, all in exact integer arithmetic, with no
          per-round Python loop at all.

        The exact engine still walks rounds (each round owns a merge
        tree), using :func:`sink_weight_deltas` to slice the dirtied
        leaves per round.

        Inside a :meth:`trial` each in-place write first logs what it
        overwrites: the dirty delegate columns, the affected sink cells,
        the weight move, the MC totals and vote columns, and the
        replaced merge-tree nodes.
        """
        log = self._undo
        old_comp = self._instance.competencies
        new_comp = new_instance.competencies
        new_instance.compiled().adopt_degree_tables(self._instance.compiled())
        comp_changed = np.flatnonzero(old_comp != new_comp)
        n = new_instance.num_voters
        rounds = self.rounds
        affected = old_sinks = new_sinks = _EMPTY
        if dirty.size:
            sub = self.mechanism.delegations_from_uniforms_subset(
                new_instance, self._uniforms, dirty
            )
            old_cols = self._delegates[:, dirty]
            changed_mask = sub != old_cols
            if log is not None:
                log.append((setitem, self._delegates, (slice(None), dirty), old_cols))
            self._delegates[:, dirty] = sub
            if changed_mask.any():
                rows, cols_idx = np.nonzero(changed_mask)
                if (
                    self._pos_scratch is None
                    or self._pos_scratch.size != self._sinks_flat.size
                ):
                    # Per-session (never module-level: server worker
                    # threads patch different sessions concurrently).
                    self._pos_scratch = np.empty(
                        self._sinks_flat.size, dtype=np.int32
                    )
                (
                    self._sinks_flat, affected, old_sinks, new_sinks,
                    rounds_patched,
                ) = patch_forests_delta(
                    self._delegates, self._sinks_flat, rows, dirty[cols_idx],
                    pos_scratch=self._pos_scratch,
                )
                self.patch_stats["rounds_patched"] += rounds_patched
                self.patch_stats["affected_voters"] += int(affected.size)
        if affected.size:
            move = (old_sinks, new_sinks)
            self._pending_moves.append(move)
            if log is not None:
                log.append((setitem, self._sinks_flat, affected, old_sinks))
                log.append((self._unmove, move))
        if self.engine == "mc":
            if log is not None and (affected.size or comp_changed.size):
                log.append((setitem, self._correct, slice(None), self._correct.copy()))
            if affected.size:
                votes_flat = self._votes.reshape(-1)
                contrib = votes_flat[new_sinks].astype(
                    np.int64
                ) - votes_flat[old_sinks].astype(np.int64)
                move_delta = np.bincount(
                    affected // n, weights=contrib, minlength=rounds
                )
                self._correct += move_delta.astype(np.int64)
            if comp_changed.size:
                v_new = self._vote_u[:, comp_changed] < new_comp[comp_changed]
                v_old = self._votes[:, comp_changed]
                flips = v_new.astype(np.int64) - v_old.astype(np.int64)
                self._correct += (flips * self._weights[:, comp_changed]).sum(
                    axis=1
                )
                if log is not None:
                    log.append(
                        (setitem, self._votes, (slice(None), comp_changed), v_old)
                    )
                self._votes[:, comp_changed] = v_new
        else:
            touched_keys = _EMPTY
            all_deltas = _EMPTY
            round_bounds = np.zeros(rounds + 1, dtype=np.int64)
            if affected.size:
                touched_keys, all_deltas, round_bounds = sink_weight_deltas(
                    old_sinks, new_sinks, rounds, n
                )
            for r in range(rounds):
                lo, hi = int(round_bounds[r]), int(round_bounds[r + 1])
                touched = touched_keys[lo:hi] - r * n if hi > lo else _EMPTY
                if comp_changed.size:
                    cols = np.union1d(touched, comp_changed)
                else:
                    cols = touched
                if cols.size:
                    pmf_tree_delta(
                        self._trees[r], self._weights[r], new_comp,
                        self._bounds, cols, undo=log,
                    )
        self._instance = new_instance

    # -- values and estimates ----------------------------------------------

    def _values(self) -> np.ndarray:
        if self._values_cache is None:
            n = self._instance.num_voters
            if self.engine == "mc":
                self._values_cache = np.array(
                    [
                        majority_correct(float(c), float(n), self.tie_policy)
                        for c in self._correct
                    ]
                )
            else:
                self._values_cache = np.array(
                    [
                        tail_from_pmf(tree_root(tree), n, self.tie_policy)
                        for tree in self._trees
                    ]
                )
        return self._values_cache

    def estimate(
        self,
        *,
        rounds: Optional[int] = None,
        target_se: Optional[float] = None,
        max_rounds: Optional[int] = None,
    ) -> CorrectnessEstimate:
        """Estimate of the current (patched) state from retained values.

        Fixed-rounds estimates summarise the first ``rounds`` retained
        values; with ``target_se`` the adaptive geometric stopping rule
        replays over them (warm start: nothing is re-simulated, the
        stopping round is the same deterministic function of the seed as
        a fresh run).  With a cache attached, estimates are persisted
        under the base-instance + edit-chain digest (op label
        ``delta``), so replayed chains hit warm entries.
        """
        use = self.rounds if rounds is None else int(rounds)
        cap = _resolve_adaptive(use, target_se, max_rounds)
        limit = use if cap is None else max(use, cap)
        if limit > self.rounds:
            raise ValueError(
                f"session retains {self.rounds} rounds, "
                f"estimate requested {limit}"
            )
        exact_conditional = self.engine == "exact"

        def compute() -> CorrectnessEstimate:
            values = self._values()
            if cap is None:
                return _summarise_values(values[:use], use, exact_conditional)
            return _adaptive_estimate(
                lambda start, stop: values[start:stop],
                target_se, cap, exact_conditional,
            )

        if self.cache is None:
            return compute()
        params = {
            "fn": "delta_estimate",
            "engine": self.engine,
            "rounds": use,
            "tie_policy": self.tie_policy.name,
            "target_se": target_se,
            "max_rounds": None if target_se is None else cap,
            "edit_chain": self.chain_digest(),
        }
        if self.engine == "exact":
            params["n_blocks"] = int(len(self._bounds) - 1)
        with label_cache_ops("delta"):
            return _cached(
                self.cache, self._base_instance, self.mechanism,
                self._seed, params, compute,
            )
