"""Graph generators for every topology the paper studies or suggests.

All generators return :class:`repro.graphs.Graph` instances and accept a
``seed`` (int, Generator or None) wherever randomness is involved.  The
random d-regular generator uses the configuration (pairing) model with
rejection of loops/multi-edges, which samples asymptotically uniformly for
constant ``d`` — the regime covered by Theorem 3.

The scale generators (Barabási–Albert, Watts–Strogatz, caveman,
d-regular) never build Python edge-tuple lists: edges live in flat NumPy
arrays end to end and the adjacency CSR is assembled directly via
:func:`_graph_from_edge_array`, keeping peak memory ``O(E)`` at
million-vertex sizes.
"""

from __future__ import annotations
# reprolint: sparse-safe

import itertools
from typing import List, Optional, Set, Tuple

import numpy as np

from repro._util.rng import SeedLike, as_generator
from repro.graphs.graph import Graph, sorted_pair_keys

_BA_MAX_REDRAW_ROUNDS = 512
"""Safety cap on Barabási–Albert duplicate-target redraw sweeps."""

_WS_MAX_REJECTION_TRIES = 64
"""Rejection-sampling attempts per Watts–Strogatz rewire before the
exact (enumerate-all-candidates) fallback."""

_BOUNDED_DEGREE_BLOCK = 4096
"""Most ``(u, v)`` attempts :func:`random_bounded_degree_graph` draws at
once: a block costs O(block) memory however large ``max_attempts``
(~40 n) grows, and overshooting the stopping attempt costs at most one
block's redraw."""


def _graph_from_edge_array(n: int, edges: np.ndarray) -> Graph:
    """Assemble a :class:`Graph` straight from a trusted edge array.

    ``edges`` must be a ``(m, 2)`` integer array of distinct undirected
    edges with no self-loops (generators guarantee this by
    construction).  Both directions of every edge become int64 keys
    ``src * n + dst`` and one ``np.sort`` of those keys is the CSR
    order (:func:`~repro.graphs.graph.sorted_pair_keys`); the edges are
    distinct, so the result is what a ``lexsort((dst, src))`` gives.
    ``keys % n`` is then the indices array, handed to
    :meth:`Graph.from_csr` with validation off, so no per-edge tuples
    and no canonicalisation re-sort are ever materialised.  Raises
    ``ValueError`` when ``n * n`` overflows int64.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return Graph(n)
    keys = sorted_pair_keys(
        np.concatenate((edges[:, 0], edges[:, 1])),
        np.concatenate((edges[:, 1], edges[:, 0])),
        n,
    )
    keys %= n
    counts = np.bincount(edges.ravel(), minlength=n)
    indptr = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(counts)))
    return Graph.from_csr(n, indptr, keys, validate=False)


def complete_graph(n: int) -> Graph:
    """The complete graph :math:`K_n` (graph restriction ``K_n``).

    Emits the CSR directly (row ``i`` is ``0..n-1`` minus ``i``) — no
    intermediate triangle of edge pairs.
    """
    idx = np.arange(n, dtype=np.int64)
    full = np.broadcast_to(idx, (n, n))
    indices = full[full != idx[:, None]]
    indptr = np.arange(n + 1, dtype=np.int64) * max(n - 1, 0)
    return Graph.from_csr(n, indptr, indices, validate=False)


def star_graph(n: int, centre: int = 0) -> Graph:
    """A star on ``n`` vertices with the hub at ``centre``.

    This is the Figure 1 counterexample topology: the single high-degree
    hub lets a delegate-to-better mechanism concentrate all weight on one
    voter, violating do-no-harm.
    """
    if n < 1:
        raise ValueError(f"star graph needs at least 1 vertex, got {n}")
    if not 0 <= centre < n:
        raise ValueError(f"centre {centre} out of range for {n} vertices")
    return Graph(n, ((centre, v) for v in range(n) if v != centre))


def cycle_graph(n: int) -> Graph:
    """The n-cycle — the simplest 2-regular bounded-degree graph."""
    if n < 3:
        raise ValueError(f"cycle graph needs at least 3 vertices, got {n}")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> Graph:
    """The n-path (maximum degree 2, minimum degree 1)."""
    if n < 1:
        raise ValueError(f"path graph needs at least 1 vertex, got {n}")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def grid_graph(rows: int, cols: int) -> Graph:
    """A rows x cols 2-D grid — a canonical Δ ≤ 4 bounded-degree graph."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid dimensions must be positive, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def random_regular_graph(
    n: int, d: int, seed: SeedLike = None, max_tries: int = 200
) -> Graph:
    """A random simple d-regular graph (Steger–Wormald pairing).

    This realises the ``Rand(n, d)`` graph restriction.  Each vertex gets
    ``d`` half-edges ("stubs"); stubs are matched progressively, skipping
    pairs that would create a loop or multi-edge, restarting on a dead
    end.  For ``d = o(n^{1/3})`` the output is asymptotically uniform
    over simple d-regular graphs — the regime of Theorem 3, where ``d``
    is constant or slowly growing.

    Raises
    ------
    ValueError
        If ``n * d`` is odd or ``d >= n`` (no simple d-regular graph
        exists), or if ``max_tries`` restarts all dead-end.
    """
    if d < 0 or n < 0:
        raise ValueError(f"n and d must be non-negative, got n={n}, d={d}")
    if d >= n and not (n == 0 and d == 0):
        raise ValueError(f"no simple {d}-regular graph on {n} vertices exists")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    if d == 0:
        return Graph(n)
    if d == n - 1:
        return complete_graph(n)
    rng = as_generator(seed)
    for _ in range(max_tries):
        edges = _pair_stubs(n, d, rng)
        if edges is not None:
            return _graph_from_edge_array(n, edges)
    raise ValueError(
        f"failed to sample a simple {d}-regular graph on {n} vertices "
        f"after {max_tries} attempts"
    )


def _pair_stubs(n: int, d: int, rng: np.random.Generator):
    """One Steger–Wormald pairing attempt; None on a dead end.

    Each round shuffles the remaining stubs once (same generator stream
    as the original per-pair loop) and accepts/rejects all pairs with
    array operations: a pair is rejected iff it is a self-loop, repeats
    an already placed edge, or repeats an earlier accepted pair of the
    same round — exactly the sequential acceptance rule.
    """
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    placed_keys = np.empty(0, dtype=np.int64)
    edge_chunks: List[np.ndarray] = []
    while stubs.size:
        rng.shuffle(stubs)
        pairs = stubs[: stubs.size - (stubs.size % 2)].reshape(-1, 2)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        keys = lo * n + hi
        valid = (lo != hi) & ~np.isin(keys, placed_keys)
        if valid.any():
            # Among valid pairs, only the first occurrence of each key
            # is accepted (earlier pairs win, as in sequential order).
            vidx = np.flatnonzero(valid)
            first = np.unique(keys[vidx], return_index=True)[1]
            accept = np.zeros(len(pairs), dtype=bool)
            accept[vidx[np.sort(first)]] = True
        else:
            return None
        edge_chunks.append(np.column_stack((lo[accept], hi[accept])))
        placed_keys = np.concatenate((placed_keys, keys[accept]))
        leftover = pairs[~accept].ravel()
        if stubs.size % 2:  # odd leftover from a previous round's carry
            leftover = np.append(leftover, stubs[-1])
        stubs = leftover
    return np.concatenate(edge_chunks) if edge_chunks else np.empty((0, 2), int)


def erdos_renyi_graph(n: int, p: float, seed: SeedLike = None) -> Graph:
    """The Erdős–Rényi graph G(n, p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rng = as_generator(seed)
    if n < 2 or p <= 0.0:
        return Graph(n)
    # Vectorised draw over the upper triangle; edges stay arrays.
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    return _graph_from_edge_array(n, np.column_stack((iu[mask], ju[mask])))


# reprolint: reference=_reference_barabasi_albert_graph
def barabasi_albert_graph(n: int, m: int, seed: SeedLike = None) -> Graph:
    """Barabási–Albert preferential attachment graph.

    Section 6 proposes auditing the paper's variance conditions on such
    hub-heavy "social network" models; this generator feeds experiment X3.
    Starts from a star on ``m + 1`` vertices, then attaches each new vertex
    to ``m`` distinct existing vertices chosen proportionally to degree.

    The attachment pool ("each endpoint once per incident edge") is laid
    out as a flat cell array whose final length is known up front: the
    ``2m`` star endpoints, then per step ``m`` target slots and ``m``
    copies of the new vertex id.  Every step draws its ``m`` pool
    positions in one batched call; a position pointing at an earlier
    target slot takes that slot's vertex, so targets are the roots of a
    pointer forest whose static cells (star and new-vertex copies) are
    fixpoints.  Steps whose ``m`` resolved targets collide redraw only
    the duplicate slots (first occurrence kept, row-major draw order)
    until every step is duplicate-free.

    Each sweep does only the work that can change (:func:`_ba_targets`):
    roots are found by pointer jumping over the still-unresolved target
    slots only; after the first sweep only the redrawn slots and the
    slots whose pointer chains pass through them (found through a
    parent→children index) are re-resolved; and only their steps are
    re-checked, with ``m(m-1)/2`` column comparisons.  The output is
    bitwise that of :func:`_reference_barabasi_albert_graph`, the
    full-array sweep it replaced, for every seed: both consume the
    generator stream identically.  The stream differs from the original
    interleaved scalar per-step draws, so seeded outputs are equally
    valid preferential-attachment samples, not bit-identical to those
    (same caveat as :func:`watts_strogatz_graph`).
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if n < m + 1:
        raise ValueError(f"need n >= m + 1 = {m + 1}, got n={n}")
    rng = as_generator(seed)
    star = np.column_stack(
        (np.zeros(m, dtype=np.int64), np.arange(1, m + 1, dtype=np.int64))
    )
    if n == m + 1:
        return _graph_from_edge_array(n, star)
    # The sweep's pointer arrays die with _ba_targets, before the CSR
    # assembly allocates its keys.
    targets = _ba_targets(n, m, rng)
    new_ids = np.arange(m + 1, n, dtype=np.int64)
    edges = np.concatenate(
        (star, np.column_stack((targets.ravel(), np.repeat(new_ids, m))))
    )
    del targets
    return _graph_from_edge_array(n, edges)


def _ba_targets(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """The ``(n - m - 1, m)`` duplicate-free attachment targets per step.

    Cell layout as in :func:`barabasi_albert_graph`: with ``slot = 2m``,
    step ``s`` owns cells ``slot * (s + 1) + j``; ``j < m`` are its
    target slots, the rest hold vertex ``m + 1 + s``.
    """
    steps = n - m - 1
    slot = 2 * m
    total = slot * (steps + 1)
    ptr_dtype = np.int64 if total > np.iinfo(np.int32).max else np.int32
    bases = slot + slot * np.arange(steps, dtype=np.int64)
    tg = (bases[:, None] + np.arange(m, dtype=np.int64)[None, :]).astype(ptr_dtype)
    ptr = np.arange(total, dtype=ptr_dtype)
    # Step s draws from the pool prefix of length bases[s] (everything
    # appended by earlier steps plus the star) — degree-proportional by
    # the pool invariant.
    ptr[tg] = rng.integers(0, bases[:, None], size=(steps, m), dtype=ptr_dtype)
    roots = ptr.copy()
    _jump_to_static(roots, tg.ravel(), slot, m)
    targets = _cell_vertex(roots[tg], slot, m)
    rows, cols = np.nonzero(_earlier_duplicates(targets))
    children = None
    moved_ever = np.empty(0, dtype=ptr_dtype)
    for _ in range(_BA_MAX_REDRAW_ROUNDS):
        if not rows.size:
            break
        if children is None:
            children = _ChildIndex(ptr, tg.ravel(), slot, m)
        moved = tg[rows, cols]
        ptr[moved] = rng.integers(0, bases[rows], dtype=ptr_dtype)
        moved_ever = np.union1d(moved_ever, moved)
        # Re-resolve the moved slots and every slot whose chain passes
        # through one; all other roots are unchanged.
        changed = [moved]
        frontier = moved
        while frontier.size:
            frontier = children.of(frontier, ptr, moved_ever)
            changed.append(frontier)
        cells = np.unique(np.concatenate(changed))
        roots[cells] = ptr[cells]
        _jump_to_static(roots, cells, slot, m)
        # Only the steps owning a changed slot can have gained or lost a
        # duplicate; rows ascend, so the redraws stay in row-major order.
        touched = np.unique(cells // slot - 1)
        targets[touched] = _cell_vertex(roots[tg[touched]], slot, m)
        sub_rows, cols = np.nonzero(_earlier_duplicates(targets[touched]))
        rows = touched[sub_rows]
    else:
        raise RuntimeError(
            "Barabási–Albert target redraw failed to converge "
            f"after {_BA_MAX_REDRAW_ROUNDS} sweeps"
        )
    return targets


def _is_target_cell(cells: np.ndarray, slot: int, m: int) -> np.ndarray:
    """Whether each cell is a target slot (not a static pool cell)."""
    return (cells >= slot) & (cells % slot < m)


def _cell_vertex(cells: np.ndarray, slot: int, m: int) -> np.ndarray:
    """Vertex held by each static cell: star cells alternate ``0, k``;
    step ``s``'s new-vertex cells hold ``m + 1 + s``."""
    cells = cells.astype(np.int64)
    return np.where(cells < slot, (cells & 1) * ((cells + 1) >> 1), m + cells // slot)


def _jump_to_static(roots: np.ndarray, cells: np.ndarray, slot: int, m: int) -> None:
    """Pointer-jump ``roots[cells]`` in place until each is a static cell.

    Only cells still pointing at a target slot take part in a jump, so
    the work shrinks with the frontier; static cells are fixpoints.
    """
    active = cells[_is_target_cell(roots[cells], slot, m)]
    while active.size:
        hop = roots[roots[active]]
        roots[active] = hop
        active = active[_is_target_cell(hop, slot, m)]


def _earlier_duplicates(targets: np.ndarray) -> np.ndarray:
    """Mask of entries equal to an earlier entry of the same row.

    The first occurrence of each value is kept; ``m(m-1)/2`` column
    comparisons instead of a per-row stable argsort.
    """
    dup = np.zeros(targets.shape, dtype=bool)
    for j in range(1, targets.shape[1]):
        column = targets[:, j]
        for i in range(j):
            dup[:, j] |= column == targets[:, i]
    return dup


class _ChildIndex:
    """Parent→children lookup over the BA pointer forest.

    Built once from the pointers at hand: the target slots that point at
    another target slot, sorted by that parent.  Slots redrawn later are
    looked up through ``moved_ever`` with their current pointer, and
    their stale entries here are dropped by re-checking ``ptr``.
    """

    def __init__(self, ptr: np.ndarray, slots: np.ndarray, slot: int, m: int):
        parents = ptr[slots]
        keep = _is_target_cell(parents, slot, m)
        total = ptr.shape[0]
        keys = sorted_pair_keys(parents[keep], slots[keep], total)
        self._parents = (keys // total).astype(ptr.dtype)
        self._children = (keys % total).astype(ptr.dtype)

    def of(
        self, frontier: np.ndarray, ptr: np.ndarray, moved_ever: np.ndarray
    ) -> np.ndarray:
        """Sorted unique slots whose current pointer is in ``frontier``."""
        # Probes in the index's dtype: mixed dtypes copy the whole index.
        frontier = frontier.astype(self._parents.dtype, copy=False)
        lo = np.searchsorted(self._parents, frontier, side="left")
        hi = np.searchsorted(self._parents, frontier, side="right")
        counts = hi - lo
        offsets = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        kids = self._children[offsets + np.arange(int(counts.sum()))]
        kids = kids[ptr[kids] == np.repeat(frontier, counts)]
        moved = moved_ever[np.isin(ptr[moved_ever], frontier)]
        return np.unique(np.concatenate((kids, moved)))


def _reference_barabasi_albert_graph(
    n: int, m: int, seed: SeedLike = None
) -> Graph:
    """Full-array redraw sweeps: the oracle for :func:`barabasi_albert_graph`.

    Every sweep pointer-doubles the whole pool and re-checks every step
    with a per-row stable argsort.  Kept for the bitwise equivalence
    tests and the speed floor in ``benchmarks/bench_sparse_scale.py``.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if n < m + 1:
        raise ValueError(f"need n >= m + 1 = {m + 1}, got n={n}")
    rng = as_generator(seed)
    star = np.column_stack(
        (np.zeros(m, dtype=np.int64), np.arange(1, m + 1, dtype=np.int64))
    )
    steps = n - m - 1
    if steps == 0:
        return _graph_from_edge_array(n, star)
    slot = 2 * m
    total = slot * (steps + 1)
    # Static pool values: star endpoints interleaved (0, 1, 0, 2, ...),
    # then each step's m new-vertex copies.  Target slots are resolved
    # below; their cells are never read before resolution lands on a
    # static cell (pointers strictly decrease).
    val = np.full(total, -1, dtype=np.int64)
    val[0:slot:2] = 0
    val[1:slot:2] = np.arange(1, m + 1)
    bases = slot + slot * np.arange(steps, dtype=np.int64)
    tg = bases[:, None] + np.arange(m, dtype=np.int64)[None, :]
    new_ids = np.arange(m + 1, n, dtype=np.int64)
    val[bases[:, None] + np.arange(m, slot, dtype=np.int64)[None, :]] = (
        new_ids[:, None]
    )
    ptr_dtype = np.int64 if total > np.iinfo(np.int32).max else np.int32
    ptr = np.arange(total, dtype=ptr_dtype)
    # Step s draws from the pool prefix of length bases[s] (everything
    # appended by earlier steps plus the star) — degree-proportional by
    # the pool invariant.
    ptr[tg] = rng.integers(0, bases[:, None], size=(steps, m), dtype=ptr_dtype)
    targets = None
    for _ in range(_BA_MAX_REDRAW_ROUNDS):
        roots = ptr
        while True:
            nxt = roots[roots]
            if np.array_equal(nxt, roots):
                break
            roots = nxt
        targets = val[roots[tg]]
        # A slot is a duplicate iff an earlier slot of the same step
        # resolved to the same vertex (stable sort ⇒ first slot wins).
        order = np.argsort(targets, axis=1, kind="stable")
        svals = np.take_along_axis(targets, order, axis=1)
        dup_sorted = np.zeros_like(svals, dtype=bool)
        dup_sorted[:, 1:] = svals[:, 1:] == svals[:, :-1]
        if not dup_sorted.any():
            break
        dup = np.zeros_like(dup_sorted)
        np.put_along_axis(dup, order, dup_sorted, axis=1)
        rows, cols = np.nonzero(dup)
        ptr[tg[rows, cols]] = rng.integers(0, bases[rows], dtype=ptr_dtype)
    else:
        raise RuntimeError(
            "Barabási–Albert target redraw failed to converge "
            f"after {_BA_MAX_REDRAW_ROUNDS} sweeps"
        )
    edges = np.concatenate(
        (star, np.column_stack((targets.ravel(), np.repeat(new_ids, m))))
    )
    return _graph_from_edge_array(n, edges)


def watts_strogatz_graph(
    n: int, k: int, rewire_prob: float, seed: SeedLike = None
) -> Graph:
    """Watts–Strogatz small-world graph (ring lattice with rewiring).

    ``k`` must be even; each vertex starts connected to its ``k`` nearest
    ring neighbours, then each clockwise edge is rewired with probability
    ``rewire_prob`` to a uniform non-duplicate target.
    """
    if k % 2 != 0 or k < 2:
        raise ValueError(f"k must be even and >= 2, got {k}")
    if n <= k:
        raise ValueError(f"need n > k, got n={n}, k={k}")
    if not 0.0 <= rewire_prob <= 1.0:
        raise ValueError(f"rewire_prob must lie in [0, 1], got {rewire_prob}")
    rng = as_generator(seed)
    # Ring lattice, vectorised: clockwise edge (u, (u + offset) % n) for
    # every vertex and offset.  All rewiring coins are drawn in one call
    # before any rewire-target draw, so the stream differs from the
    # seed's interleaved scalar draws — seeded outputs are equally valid
    # Watts–Strogatz samples, not bit-identical to the old ones.
    half = k // 2
    u_all = np.repeat(np.arange(n, dtype=np.int64), half)
    v_all = (u_all + np.tile(np.arange(1, half + 1, dtype=np.int64), n)) % n
    coins = rng.random(n * half)
    flagged = np.flatnonzero(coins < rewire_prob)
    if not flagged.size:
        return _graph_from_edge_array(n, np.column_stack((u_all, v_all)))
    # Rewiring keeps O(E) state: the edge list stays in (u_all, v_all)
    # and membership is a set of scalar edge keys.  Each rewire draws its
    # uniform non-duplicate target by rejection sampling (uniform over
    # valid targets, exactly as enumerating them), falling back to exact
    # enumeration only if a vertex is so saturated that
    # ``_WS_MAX_REJECTION_TRIES`` draws all collide.
    edge_keys = set(
        (np.minimum(u_all, v_all) * n + np.maximum(u_all, v_all)).tolist()
    )
    for idx in flagged.tolist():
        u, v = int(u_all[idx]), int(v_all[idx])
        key = u * n + v if u < v else v * n + u
        if key not in edge_keys:
            continue  # already rewired away
        w = -1
        for _ in range(_WS_MAX_REJECTION_TRIES):
            cand = int(rng.integers(n))
            if cand == u:
                continue
            cand_key = u * n + cand if u < cand else cand * n + u
            if cand_key in edge_keys:
                continue
            w, new_key = cand, cand_key
            break
        else:
            # Exact fallback: recover u's current neighbourhood from the
            # live edge arrays (rare, so the O(E) scan is acceptable).
            mask = np.ones(n, dtype=bool)
            mask[u] = False
            mask[v_all[u_all == u]] = False
            mask[u_all[v_all == u]] = False
            candidates = np.flatnonzero(mask)
            if not candidates.size:
                continue
            w = int(candidates[int(rng.integers(candidates.size))])
            new_key = u * n + w if u < w else w * n + u
        v_all[idx] = w
        edge_keys.remove(key)
        edge_keys.add(new_key)
    return _graph_from_edge_array(n, np.column_stack((u_all, v_all)))


def connected_caveman_graph(num_cliques: int, clique_size: int) -> Graph:
    """Connected caveman graph: a ring of cliques sharing one rewired edge.

    A clustered "corporate teams" topology: high minimum degree inside
    cliques with a thin ring connecting them.
    """
    if num_cliques < 1 or clique_size < 2:
        raise ValueError(
            f"need num_cliques >= 1 and clique_size >= 2, got "
            f"{num_cliques}, {clique_size}"
        )
    n = num_cliques * clique_size
    # One clique's upper triangle, broadcast across all clique bases; the
    # first triu pair is (0, 1), i.e. each clique's (base, base + 1) edge
    # that the connected variant rewires into the ring.
    iu, ju = np.triu_indices(clique_size, k=1)
    bases = np.arange(num_cliques, dtype=np.int64) * clique_size
    src = bases[:, None] + iu[None, :]
    dst = bases[:, None] + ju[None, :]
    if num_cliques > 1:
        src, dst = src[:, 1:], dst[:, 1:]
        nxt = ((np.arange(num_cliques, dtype=np.int64) + 1) % num_cliques) * (
            clique_size
        )
        ring_a = np.minimum(bases, nxt + 1)
        ring_b = np.maximum(bases, nxt + 1)
        edges = np.column_stack(
            (
                np.concatenate((src.ravel(), ring_a)),
                np.concatenate((dst.ravel(), ring_b)),
            )
        )
    else:
        edges = np.column_stack((src.ravel(), dst.ravel()))
    return _graph_from_edge_array(n, edges)


def star_of_cliques_graph(num_cliques: int, clique_size: int) -> Graph:
    """A hub vertex connected to one member of each clique.

    An extreme structural-asymmetry topology used in the condition-audit
    experiment (X3): vertex 0 is the hub; cliques hang off it.
    """
    if num_cliques < 1 or clique_size < 1:
        raise ValueError(
            f"need num_cliques >= 1 and clique_size >= 1, got "
            f"{num_cliques}, {clique_size}"
        )
    n = 1 + num_cliques * clique_size
    edges: List[Tuple[int, int]] = []
    for c in range(num_cliques):
        base = 1 + c * clique_size
        members = range(base, base + clique_size)
        edges.extend(itertools.combinations(members, 2))
        edges.append((0, base))
    return Graph(n, edges)


def random_bounded_degree_graph(
    n: int, max_degree: int, target_edges: Optional[int] = None, seed: SeedLike = None
) -> Graph:
    """A random connected-ish graph with maximum degree at most ``max_degree``.

    Realises the ``Δ ≤ k`` restriction (Theorem 4 workloads).  Greedily
    adds uniformly random edges between vertices that still have spare
    degree, starting from a spanning path (itself degree ≤ 2) so that the
    result is connected whenever ``max_degree >= 2``.

    The ``(u, v)`` attempts are drawn in blocks of at most
    :data:`_BOUNDED_DEGREE_BLOCK` pairs: ``rng.integers(n, size=2 * b)``
    is the stream of ``2 * b`` scalar ``rng.integers(n)`` calls, the
    draws of :func:`_reference_random_bounded_degree_graph`.  Attempts
    that are rejected whatever came before them in the block (loops, and
    pairs with an endpoint already saturated when the block was drawn)
    are dropped with one mask; the rest run in order.  When the
    target is reached inside a block, the generator is reset to its
    state before the block and advanced by the attempts the loop
    consumed, so its end state matches the per-attempt loop's too.
    """
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = as_generator(seed)
    if n < 2:
        path = np.empty((0, 2), dtype=np.int64)
    else:
        order = rng.permutation(n).astype(np.int64)
        step = 1 if max_degree >= 2 else 2
        path = np.column_stack((order[:-1:step], order[1::step]))
        if max_degree == 1:
            return _graph_from_edge_array(n, path)
    keys = set((np.minimum(path[:, 0], path[:, 1]) * n
                + np.maximum(path[:, 0], path[:, 1])).tolist())
    degrees = np.bincount(path.ravel(), minlength=n)
    if target_edges is None:
        target_edges = min(n * max_degree // 2, 2 * n)
    attempts = 0
    max_attempts = 20 * max(target_edges, 1) + 100
    while len(keys) < target_edges and attempts < max_attempts:
        block = min(_BOUNDED_DEGREE_BLOCK, max_attempts - attempts)
        state = rng.bit_generator.state
        pairs = rng.integers(n, size=2 * block).reshape(block, 2)
        lo = pairs.min(axis=1)
        hi = pairs.max(axis=1)
        block_keys = lo * n + hi
        spare = (lo != hi) & (degrees[lo] < max_degree) & (degrees[hi] < max_degree)
        candidates = np.flatnonzero(spare)
        used = block
        for i, key, u, v in zip(
            candidates.tolist(),
            block_keys[candidates].tolist(),
            lo[candidates].tolist(),
            hi[candidates].tolist(),
        ):
            if key in keys or degrees[u] >= max_degree or degrees[v] >= max_degree:
                continue
            keys.add(key)
            degrees[u] += 1
            degrees[v] += 1
            if len(keys) >= target_edges:
                used = i + 1
                break
        if used < block:
            rng.bit_generator.state = state
            rng.integers(n, size=2 * used)
        attempts += used
    flat = np.fromiter(keys, dtype=np.int64, count=len(keys))
    return _graph_from_edge_array(n, np.column_stack(np.divmod(flat, n)))


def _reference_random_bounded_degree_graph(
    n: int, max_degree: int, target_edges: Optional[int] = None, seed: SeedLike = None
) -> Graph:
    """Per-attempt oracle for :func:`random_bounded_degree_graph`."""
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = as_generator(seed)
    degrees = [0] * n
    edges: Set[Tuple[int, int]] = set()
    if max_degree >= 2 and n >= 2:
        order = rng.permutation(n)
        for i in range(n - 1):
            u, v = int(order[i]), int(order[i + 1])
            edges.add((min(u, v), max(u, v)))
            degrees[u] += 1
            degrees[v] += 1
    elif max_degree == 1 and n >= 2:
        order = rng.permutation(n)
        for i in range(0, n - 1, 2):
            u, v = int(order[i]), int(order[i + 1])
            edges.add((min(u, v), max(u, v)))
            degrees[u] += 1
            degrees[v] += 1
        return Graph(n, edges)
    if target_edges is None:
        target_edges = min(n * max_degree // 2, 2 * n)
    attempts = 0
    max_attempts = 20 * max(target_edges, 1) + 100
    while len(edges) < target_edges and attempts < max_attempts:
        attempts += 1
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in edges:
            continue
        if degrees[u] >= max_degree or degrees[v] >= max_degree:
            continue
        edges.add(key)
        degrees[u] += 1
        degrees[v] += 1
    return Graph(n, edges)


def random_min_degree_graph(n: int, min_degree: int, seed: SeedLike = None) -> Graph:
    """A random graph with minimum degree at least ``min_degree``.

    Realises the ``δ ≥ k`` restriction (Theorem 5 workloads).  Each vertex
    links to ``min_degree`` distinct uniform partners; union of the
    resulting directed picks gives minimum degree ≥ ``min_degree``.

    ``rng.choice(n - 1, k, replace=False)`` shifted past ``u`` is the
    stream and the value of :func:`_reference_random_min_degree_graph`'s
    ``rng.choice`` over the array of the other vertices; the picks'
    undirected keys are deduplicated once, with no edge tuples.
    """
    if min_degree < 0:
        raise ValueError(f"min_degree must be >= 0, got {min_degree}")
    if min_degree >= n and n > 0:
        raise ValueError(
            f"min_degree must be < n for a simple graph, got "
            f"min_degree={min_degree}, n={n}"
        )
    rng = as_generator(seed)
    picks = np.empty(n * min_degree, dtype=np.int64)
    for u in range(n):
        picks[u * min_degree:(u + 1) * min_degree] = rng.choice(
            n - 1, size=min_degree, replace=False
        )
    if picks.size == 0:
        return Graph(n)
    owners = np.repeat(np.arange(n, dtype=np.int64), min_degree)
    picks += picks >= owners
    keys = np.unique(np.minimum(owners, picks) * n + np.maximum(owners, picks))
    return _graph_from_edge_array(n, np.column_stack(np.divmod(keys, n)))


def _reference_random_min_degree_graph(
    n: int, min_degree: int, seed: SeedLike = None
) -> Graph:
    """Per-vertex oracle for :func:`random_min_degree_graph`."""
    if min_degree < 0:
        raise ValueError(f"min_degree must be >= 0, got {min_degree}")
    if min_degree >= n and n > 0:
        raise ValueError(
            f"min_degree must be < n for a simple graph, got "
            f"min_degree={min_degree}, n={n}"
        )
    rng = as_generator(seed)
    edges: Set[Tuple[int, int]] = set()
    for u in range(n):
        others = np.array([v for v in range(n) if v != u])
        picks = rng.choice(others, size=min_degree, replace=False)
        for v in picks:
            v = int(v)
            edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)
