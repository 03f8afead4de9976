"""Instance splicing: apply edits to (graph, competencies, structure) in O(E).

A localised edit leaves almost every CSR row of the adjacency and of the
approval structure untouched.  :func:`patched_instance` applies a batch
of edits to a :class:`~repro.core.instance.ProblemInstance` and returns
a new instance whose arrays are **bitwise equal** to building the edited
instance from scratch (pinned by the incremental test suite), plus the
set of voters whose local view changed — the dirty set the delta
session re-derives delegates for:

* a :class:`~repro.incremental.edits.Rewire` dirties the voter and every
  added/removed partner (their neighbourhoods changed);
* a :class:`~repro.incremental.edits.SetCompetency` dirties the voter
  and its (final-graph) neighbours — their approved sets and approved
  *ordering* depend on the voter's competency;
* :class:`~repro.incremental.edits.Join` / :class:`Leave` change the
  voter index space, so they return a ``None`` dirty set and the session
  rebuilds its per-round state (the instance arrays are still spliced in
  O(E), not re-validated edge by edge).

The approval-structure splice :func:`approved_csr_delta` recomputes only
the dirty voters' approved segments and is pinned to the from-scratch
builder by :func:`_reference_approved_csr_delta` (reprolint K403).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.instance import ProblemInstance
from repro.core.structure import ApprovalStructure
from repro.graphs.graph import Graph, csr_index_dtype
from repro.incremental.edits import (
    Edit,
    Join,
    Leave,
    Rewire,
    SetCompetency,
    as_edit,
)


def _splice_rows_flat(
    old_indptr: np.ndarray,
    old_indices: np.ndarray,
    keys: np.ndarray,
    seg_bounds: np.ndarray,
    seg_values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Replace the rows in ``keys``; copy every clean span verbatim.

    ``keys`` are the sorted dirty rows; row ``keys[i]``'s replacement is
    ``seg_values[seg_bounds[i]:seg_bounds[i+1]]``.  Returns ``(indptr,
    indices)`` with ``indptr`` int64 and ``indices`` in the old array's
    dtype — callers cast to whatever their consumer expects (keeping the
    native CSR dtype avoids materialising an int64 copy of every clean
    edge just to splice a few thousand).  The new indices array is
    assembled piecewise: walking the dirty rows in index order yields
    alternating clean spans (zero-copy slices of the old array) and
    replacement segments, concatenated in one pass.  That keeps the O(E)
    work a single memcpy plus an O(n) counts cumsum, instead of
    per-element index arithmetic over E — the difference between the
    splice being noise and being the patch loop's bottleneck.
    """
    old_indptr = np.asarray(old_indptr)
    old_indices = np.asarray(old_indices)
    new_counts = np.diff(old_indptr).astype(np.int64, copy=True)
    new_counts[keys] = np.diff(seg_bounds)
    indptr = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(new_counts))
    )
    if keys.size == 0:
        return indptr, old_indices.copy()
    seg_values = np.asarray(seg_values, dtype=old_indices.dtype)
    los = old_indptr[keys].tolist()
    his = old_indptr[keys + 1].tolist()
    seg_bounds_list = seg_bounds.tolist()
    pieces: List[np.ndarray] = []
    prev = 0
    for i, lo in enumerate(los):
        if lo > prev:
            pieces.append(old_indices[prev:lo])
        blo, bhi = seg_bounds_list[i], seg_bounds_list[i + 1]
        if bhi > blo:
            pieces.append(seg_values[blo:bhi])
        prev = his[i]
    if prev < old_indices.size:
        pieces.append(old_indices[prev:])
    if pieces:
        indices = np.concatenate(pieces)
    else:
        indices = np.empty(0, dtype=old_indices.dtype)
    return indptr, indices


def _leave_csr(
    indptr: np.ndarray, indices: np.ndarray, voter: int, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Drop ``voter``'s row and column and shift higher indices down."""
    counts = np.diff(indptr).astype(np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), counts)
    dst = np.asarray(indices, dtype=np.int64)
    keep = (src != voter) & (dst != voter)
    new_src = src[keep]
    new_src -= new_src > voter
    new_dst = dst[keep]
    new_dst -= new_dst > voter
    new_counts = np.bincount(new_src, minlength=n - 1)
    new_indptr = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(new_counts))
    )
    return new_indptr, new_dst


def _join_csr(
    indptr: np.ndarray,
    indices: np.ndarray,
    neighbors: np.ndarray,
    n: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Append voter ``n`` adjacent to ``neighbors``.

    The new index is the largest, so appending it at the end of each
    neighbour's row keeps every row strictly increasing.
    """
    counts = np.diff(indptr).astype(np.int64)
    new_counts = np.append(counts, len(neighbors))
    new_counts[neighbors] += 1
    total = int(new_counts.sum())
    new_indptr = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(new_counts))
    )
    out = np.empty(total, dtype=np.int64)
    voters_of = np.repeat(np.arange(n + 1, dtype=np.int64), new_counts)
    offsets = np.arange(total, dtype=np.int64) - new_indptr[voters_of]
    old_counts_ext = np.append(counts, 0)
    copy = offsets < old_counts_ext[voters_of]
    old_indptr64 = np.asarray(indptr, dtype=np.int64)
    out[copy] = np.asarray(indices, dtype=np.int64)[
        old_indptr64[voters_of[copy]] + offsets[copy]
    ]
    out[~copy & (voters_of < n)] = n  # each neighbour row gains n at its end
    start = int(new_indptr[n])
    out[start:] = np.sort(neighbors)
    return new_indptr, out


def _approved_flat(
    g_indptr: np.ndarray,
    g_indices: np.ndarray,
    p: np.ndarray,
    alpha: float,
    dirty: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """All dirty voters' approved segments in one vectorised pass.

    Applies the builder's own filter (``p[dst] >= p[src] + alpha``) and
    segment order (competency ascending, ties by index) with one ragged
    gather and one global lexsort keyed ``(row, competency, index)`` —
    within each row that is the per-row ``(competency, index)`` order,
    and rows are contiguous, so the slices are bitwise the segments the
    global pass produces.  A thousand tiny per-row sorts would otherwise
    dominate the splice.  Returns
    ``(values, bounds)`` flat form: row ``dirty[i]``'s segment is
    ``values[bounds[i]:bounds[i+1]]``.
    """
    dirty = np.asarray(dirty, dtype=np.int64)
    if dirty.size == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    g_indptr = np.asarray(g_indptr, dtype=np.int64)
    starts = g_indptr[dirty]
    row_counts = g_indptr[dirty + 1] - starts
    total = int(row_counts.sum())
    row_id = np.repeat(np.arange(dirty.size, dtype=np.int64), row_counts)
    flat = np.arange(total, dtype=np.int64)
    flat += np.repeat(starts - (np.cumsum(row_counts) - row_counts), row_counts)
    nbrs = np.asarray(g_indices, dtype=np.int64)[flat]
    keep = p[nbrs] >= p[dirty[row_id]] + alpha
    nbrs = nbrs[keep]
    row_id = row_id[keep]
    order = np.lexsort((nbrs, p[nbrs], row_id))
    nbrs = nbrs[order]
    seg_counts = np.bincount(row_id, minlength=dirty.size)
    bounds = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(seg_counts))
    )
    return nbrs, bounds


# reprolint: reference=_reference_approved_csr_delta
def approved_csr_delta(
    structure: ApprovalStructure,
    graph: Graph,
    competencies: np.ndarray,
    alpha: float,
    dirty: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Patched general-form approved CSR: recompute dirty segments only.

    ``structure`` is the pre-edit structure (general form), ``graph`` /
    ``competencies`` the post-edit instance data, and ``dirty`` the
    voters whose approved segment may have changed.  Every clean segment
    is copied verbatim; the result is bit-identical to
    ``ApprovalStructure._general_csr`` on the edited instance.
    """
    g_indptr, g_indices = graph.adjacency_csr()
    dirty = np.asarray(dirty, dtype=np.int64)
    seg_values, seg_bounds = _approved_flat(
        g_indptr, g_indices, competencies, alpha, dirty
    )
    indptr, indices = _splice_rows_flat(
        structure._indptr, structure._indices, dirty, seg_bounds, seg_values
    )
    idx_dtype = csr_index_dtype(graph.num_vertices, int(indices.size))
    return indptr.astype(idx_dtype), indices.astype(idx_dtype)


def _reference_approved_csr_delta(
    graph: Graph, competencies: np.ndarray, alpha: float
) -> Tuple[np.ndarray, np.ndarray]:
    """From-scratch oracle: the vectorised global builder."""
    return ApprovalStructure._general_csr(graph, competencies, alpha)


class _EditApplier:
    """Sequentially applies one batch of edits to instance arrays.

    Rewires and competency edits are O(touched rows); a join/leave
    flushes pending row edits and re-bases the index space.  The class
    exists so a batch of a thousand rewires costs one O(E) CSR rebuild,
    not a thousand.
    """

    def __init__(self, instance: ProblemInstance) -> None:
        indptr, indices = instance.graph.adjacency_csr()
        self.n = instance.num_voters
        self.indptr = indptr
        self.indices = indices
        self.competencies = instance.competencies.copy()
        self.rows: Dict[int, set] = {}
        self.dirty: set = set()
        self.structural = False

    def _row(self, voter: int) -> set:
        if voter not in self.rows:
            lo, hi = int(self.indptr[voter]), int(self.indptr[voter + 1])
            self.rows[voter] = set(self.indices[lo:hi].tolist())
        return self.rows[voter]

    def _flush_rows(self) -> None:
        if self.rows:
            keys = sorted(self.rows)
            segs = [sorted(self.rows[v]) for v in keys]
            bounds = np.zeros(len(keys) + 1, dtype=np.int64)
            np.cumsum([len(seg) for seg in segs], out=bounds[1:])
            values = np.fromiter(
                chain.from_iterable(segs),
                dtype=np.asarray(self.indices).dtype,
                count=int(bounds[-1]),
            )
            self.indptr, self.indices = _splice_rows_flat(
                self.indptr, self.indices,
                np.asarray(keys, dtype=np.int64), bounds, values,
            )
            self.rows = {}

    def _check_voter(self, voter: int, what: str) -> None:
        if not 0 <= voter < self.n:
            raise ValueError(
                f"{what} {voter} out of range for {self.n} voters"
            )

    def rewire(self, edit: Rewire) -> None:
        v = edit.voter
        self._check_voter(v, "rewire voter")
        row = self._row(v)
        for u in edit.remove:
            self._check_voter(u, "rewire target")
            if u not in row:
                raise ValueError(f"edge {{{v}, {u}}} does not exist")
            row.discard(u)
            self._row(u).discard(v)
        for u in edit.add:
            self._check_voter(u, "rewire target")
            if u in row:
                raise ValueError(f"edge {{{v}, {u}}} already exists")
            row.add(u)
            self._row(u).add(v)
        self.dirty.update((v, *edit.add, *edit.remove))

    def set_competency(self, edit: SetCompetency) -> None:
        self._check_voter(edit.voter, "competency voter")
        self.competencies[edit.voter] = edit.competency
        self.dirty.add(edit.voter)
        # Neighbours are dirtied after all edits, against the final graph.

    def join(self, edit: Join) -> None:
        for u in edit.neighbors:
            self._check_voter(u, "join neighbor")
        self._flush_rows()
        nbrs = np.asarray(edit.neighbors, dtype=np.int64)
        self.indptr, self.indices = _join_csr(
            self.indptr, self.indices, nbrs, self.n
        )
        self.n += 1
        self.competencies = np.append(self.competencies, edit.competency)
        self.structural = True

    def leave(self, edit: Leave) -> None:
        self._check_voter(edit.voter, "leaving voter")
        if self.n < 2:
            raise ValueError("cannot remove the last voter")
        self._flush_rows()
        self.indptr, self.indices = _leave_csr(
            self.indptr, self.indices, edit.voter, self.n
        )
        self.n -= 1
        self.competencies = np.delete(self.competencies, edit.voter)
        self.structural = True

    def apply(self, edit: Edit) -> None:
        if isinstance(edit, Rewire):
            self.rewire(edit)
        elif isinstance(edit, SetCompetency):
            self.set_competency(edit)
        elif isinstance(edit, Join):
            self.join(edit)
        elif isinstance(edit, Leave):
            self.leave(edit)
        else:  # pragma: no cover - guarded by as_edit
            raise ValueError(f"not an edit: {edit!r}")


def patched_instance(
    instance: ProblemInstance, edits: Sequence[Edit]
) -> Tuple[ProblemInstance, Optional[np.ndarray]]:
    """Apply one edit batch; return ``(new_instance, dirty_voters)``.

    ``dirty_voters`` is the sorted array of voters whose local view
    changed — the exact set whose delegates the session re-derives — or
    ``None`` when a join/leave re-based the index space (the session
    then rebuilds its per-round state; the instance arrays themselves
    are still spliced, not re-validated).

    The returned instance's graph, competency, and approval-structure
    arrays are bitwise equal to constructing the edited instance from
    scratch; when the pre-edit structure is in general CSR form and the
    batch is non-structural, the structure is spliced via
    :func:`approved_csr_delta` and installed, skipping the O(E log E)
    global rebuild.
    """
    applier = _EditApplier(instance)
    for edit in edits:
        applier.apply(as_edit(edit))
    applier._flush_rows()
    graph = Graph.from_csr(
        applier.n, applier.indptr, applier.indices, validate=False
    )
    if applier.structural:
        return ProblemInstance(graph, applier.competencies, alpha=instance.alpha), None

    comp_changed = np.flatnonzero(instance.competencies != applier.competencies)
    dirty = set(applier.dirty)
    g_indptr, g_indices = graph.adjacency_csr()
    for v in comp_changed:
        lo, hi = int(g_indptr[v]), int(g_indptr[v + 1])
        dirty.update(int(x) for x in g_indices[lo:hi])
    dirty_arr = np.array(sorted(dirty), dtype=np.int64)

    new_instance = ProblemInstance(graph, applier.competencies, alpha=instance.alpha)
    old_structure = instance.approval_structure()
    if not old_structure.is_complete_form and not (
        graph.is_complete() and graph.num_vertices >= 2
    ):
        indptr, indices = approved_csr_delta(
            old_structure, graph, new_instance.competencies,
            new_instance.alpha, dirty_arr,
        )
        new_instance.install_approval_structure(
            ApprovalStructure.from_general_csr(new_instance, indptr, indices)
        )
    return new_instance, dirty_arr
