"""Incremental forest maintenance: re-resolve only affected subtrees.

:func:`repro.delegation.graph.resolve_forests_batch` pointer-doubles the
whole ``(rounds, n)`` batch.  After an edit batch only a handful of
voters per round changed their delegate, and :func:`patch_forests_delta`
re-resolves just the voters whose sink can have moved, pinned
bit-identical to the from-scratch resolver by
:func:`_reference_patch_forests_delta` (reprolint K403).
:func:`sink_weight_deltas` turns its aligned old/new sinks into sparse
per-round weight changes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.delegation.graph import SELF, DelegationGraph, resolve_forests_batch


def _normalised_row(delegates: np.ndarray) -> np.ndarray:
    """Copy of one delegate row with self-pointers normalised to ``SELF``."""
    row = np.asarray(delegates, dtype=np.int64).copy()
    idx = np.arange(row.shape[0], dtype=np.int64)
    row[row == idx] = SELF
    return row


# reprolint: reference=_reference_patch_forests_delta
def patch_forests_delta(
    delegates: np.ndarray,
    sinks_flat: np.ndarray,
    changed_rows: np.ndarray,
    changed_cols: np.ndarray,
    pos_scratch: "np.ndarray | None" = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Patch every round's sink assignment in one flat restricted doubling.

    The **affected set** of a round is

        ``A = { v : old_sink[v] ∈ old_sink[changed] }``

    — every voter whose *old* tree contains a changed voter.  This is a
    provably conservative superset of the voters whose sink can change:

    * if ``v ∉ A``, no vertex on ``v``'s old delegation path changed its
      pointer (a changed vertex ``c`` on the path would force
      ``old_sink[v] = old_sink[c] ∈ old_sink[changed]``), so the new
      path equals the old path and ``v``'s sink is unchanged;
    * consequently, for any ``t ∉ A`` reached while re-resolving an
      affected voter, ``old_sink[t]`` is already the correct new sink —
      clean territory acts as terminal shortcuts, and the restricted
      doubling converges in O(|A| log n) gathers instead of O(n log n).

    The doubling runs over all rounds at once in a global index space:
    round ``r``'s voter ``v`` is the flat id ``r·n + v``, so a batch
    costs a few dozen NumPy calls however many rounds are retained.
    Delegation never crosses rounds, so the flat pointer graph is the
    disjoint union of the per-round ones and resolves to the same fixed
    point — extra doubling iterations past a round's convergence are
    no-ops on its entries.

    Parameters
    ----------
    delegates:
        The **updated** ``(rounds, n)`` delegate matrix (local ids).
    sinks_flat:
        Global-id sink assignment before the change, flat ``(rounds·n,)``
        (entry ``r·n + v`` holds ``r·n + sink(v in round r)``).
    changed_rows / changed_cols:
        Parallel arrays: round and voter of each changed delegate entry.
    pos_scratch:
        Optional reusable int32 buffer of ``rounds·n`` entries for the
        position table.  Freshly mapped pages fault on every scatter;
        a session that patches every few hundred milliseconds passes
        its own warm buffer and skips that cost.  Contents are never
        read beyond positions written in the same call.

    Returns ``(new_sinks_flat, affected, old_sinks, new_sinks,
    rounds_patched)``: the patched flat sink assignment (bitwise the
    from-scratch resolution of ``delegates``), the affected global ids,
    their global sink ids before and after the patch (aligned with
    ``affected`` — the caller derives weight moves and correct-total
    deltas from these without any per-round bookkeeping), and the
    patched-round count for session statistics.
    """
    rounds, n = delegates.shape
    ptr = np.asarray(sinks_flat, dtype=np.int64)
    if ptr is not sinks_flat or ptr.ndim != 1:
        raise ValueError("sinks_flat must be a flat int64 array")
    changed_rows = np.asarray(changed_rows, dtype=np.int64)
    changed_cols = np.asarray(changed_cols, dtype=np.int64)
    changed_flat = changed_rows * n + changed_cols
    affected_sinks = np.zeros(rounds * n, dtype=bool)
    affected_sinks[ptr[changed_flat]] = True
    is_affected = affected_sinks[ptr]
    affected = np.flatnonzero(is_affected)
    k = int(affected.size)
    old_sinks = ptr[affected]
    if k == 0:
        return ptr, affected, old_sinks, old_sinks, 0
    # Resolve in a compact local index space over the affected set: the
    # O(rounds·n) array is read twice (the membership gather above and
    # the terminal-sink gather below) and written once at the end — no
    # full copy, and the doubling's gathers stay cache-resident.  Every
    # affected voter's first hop either stays inside the affected set
    # (a local pointer) or lands in clean territory, whose old sink is
    # provably the correct new sink (terminal value).  ``sinks_flat`` is
    # only mutated after the whole patch succeeds, so a delegation cycle
    # raises without corrupting the caller's retained state.
    d = np.asarray(delegates).ravel()[affected].astype(np.int64, copy=False)
    d_global = d + (affected // n) * n
    self_mask = (d == SELF) | (d_global == affected)
    p0 = np.where(self_mask, affected, d_global)
    idx = np.arange(k, dtype=np.int64)
    # Local index of each first hop via a dense position table and the
    # membership mask already in hand — two O(k) scatters/gathers where
    # a binary search over the affected set would thrash cache.  Entries
    # of ``pos`` outside the affected set are uninitialised; ``internal``
    # masks every read of them.
    if pos_scratch is not None and pos_scratch.size == rounds * n:
        pos = pos_scratch
    else:
        pos = np.empty(rounds * n, dtype=np.int32)
    pos[affected] = idx
    internal = is_affected[p0]
    lptr = np.where(internal, pos[p0].astype(np.int64, copy=False), idx)
    sinkval = np.where(self_mask, affected, ptr[p0])
    terminal0 = lptr == idx
    # Restricted doubling over a shrinking active set: an entry leaves
    # as soon as its pointer reaches a fixed point (terminals and
    # already-resolved entries), so total gather volume is
    # O(k · avg resolution depth), not O(k · log n) every iteration.
    active = np.flatnonzero(~terminal0)
    cur = lptr[active]
    for _ in range(int(n).bit_length() + 1):
        nxt = lptr[cur]
        moving = nxt != cur
        if not moving.any():
            break
        if not moving.all():
            keep = np.flatnonzero(moving)
            active = active[keep]
            nxt = nxt[keep]
        lptr[active] = nxt
        cur = nxt
    # A converged pointer must land on an *initial* fixed point (a
    # terminal or a self-sink).  Even-length cycles collapse to spurious
    # fixed points under doubling (x→y→x doubles to x→x), so checking
    # convergence alone would miss them — validity of the root is the
    # sound test, and it also covers odd cycles exhausting the loop.
    bad = np.flatnonzero(~terminal0[lptr])
    if bad.size:
        flat = int(affected[bad[0]])
        DelegationGraph._raise_cycle(
            _normalised_row(np.asarray(delegates)[flat // n]), flat % n
        )
    new_sinks = sinkval[lptr]
    ptr[affected] = new_sinks
    rounds_patched = int(np.unique(changed_rows).size)
    return ptr, affected, old_sinks, new_sinks, rounds_patched


def _reference_patch_forests_delta(
    delegates: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """From-scratch oracle: global doubling of the whole round cube,
    lifted to the same global flat ids the patch maintains."""
    sink_of, weights = resolve_forests_batch(np.asarray(delegates))
    rounds, n = sink_of.shape
    base = np.arange(rounds, dtype=np.int64)[:, None] * n
    return (sink_of.astype(np.int64) + base).ravel(), weights


def sink_weight_deltas(
    old_sinks: np.ndarray,
    new_sinks: np.ndarray,
    rounds: int,
    n: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Global sparse weight deltas, sliceable per round.

    ``old_sinks`` / ``new_sinks`` are the aligned global sink ids from
    :func:`patch_forests_delta`.  Returns ``(keys, deltas,
    round_bounds)``: the sorted global keys ``r·n + sink`` whose weight
    changed, the int64 delta at each, and bounds such that round ``r``'s
    slice is ``keys[round_bounds[r]:round_bounds[r+1]] - r·n``.  The
    exact engine uses this to find which merge-tree leaves each round
    dirtied; the MC engine doesn't need keys at all (its correct-total
    delta reads votes at the moved sinks directly).
    """
    keys = np.unique(np.concatenate((old_sinks, new_sinks)))
    deltas = np.bincount(
        np.searchsorted(keys, new_sinks), minlength=keys.size
    ) - np.bincount(np.searchsorted(keys, old_sinks), minlength=keys.size)
    nonzero = deltas != 0
    keys = keys[nonzero]
    deltas = deltas[nonzero].astype(np.int64, copy=False)
    round_bounds = np.searchsorted(
        keys, np.arange(rounds + 1, dtype=np.int64) * n
    )
    return keys, deltas, round_bounds
