"""An immutable undirected simple graph on vertices ``0 .. n-1``.

The paper's model is an undirected graph ``(V, E)`` whose vertices are
voters.  We implement our own lightweight structure rather than depending
on :mod:`networkx` in the hot path: delegation resolution and Monte Carlo
experiments iterate neighbourhoods millions of times.

The canonical storage is the CSR adjacency (``indptr``/``indices``) with
a cached degree vector — the representation consumed directly by the
compiled-instance fast paths (:mod:`repro.core.compiled`).  Index arrays
use ``int32`` whenever every vertex id and every ``indptr`` offset fits
(:func:`csr_index_dtype`), halving memory at social-graph scale, and fall
back to ``int64`` past 2^31 entries.  :meth:`Graph.from_csr` builds a
graph straight from CSR arrays with no edge-tuple materialisation, which
is how the large-n generators construct million-voter instances in O(E)
memory.

Tuple views (``edges``, ``_adjacency_tuples``) exist for the readable
reference paths and tests only.  They are built lazily, and above
:data:`TUPLE_VIEW_LIMIT` items they *raise* instead of silently
allocating gigabytes — wrap the access in :func:`allow_tuple_views` to
opt in explicitly.  ``neighbors`` is a per-call CSR slice, so iterating
one vertex's neighbourhood never materialises the other ``n - 1``.

:mod:`networkx` interop is provided through :meth:`Graph.from_networkx`
and :meth:`Graph.to_networkx` for tests and external tooling.
"""

from __future__ import annotations
# reprolint: sparse-safe

import contextlib
import contextvars
import hashlib
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

Edge = Tuple[int, int]

#: Largest tuple view (edge count for ``edges``, vertex count for
#: ``_adjacency_tuples``) materialised without an explicit opt-in.
TUPLE_VIEW_LIMIT = 1 << 20

_INT32_MAX = np.iinfo(np.int32).max

#: Largest ``n`` whose pair keys ``row * n + col`` (at most ``n*n - 1``)
#: fit in int64: ``isqrt(2**63 - 1)``.
PAIR_KEY_MAX_N = 3_037_000_499

_TUPLE_VIEWS_ALLOWED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_graph_tuple_views_allowed", default=False
)


@contextlib.contextmanager
def allow_tuple_views():
    """Permit tuple-view materialisation beyond :data:`TUPLE_VIEW_LIMIT`.

    Large-n code paths must use the array-native APIs (``edge_array``,
    ``adjacency_csr``); this context manager is the explicit escape hatch
    for tools (serialisation of huge graphs, debugging) that knowingly
    accept the memory cost.
    """
    token = _TUPLE_VIEWS_ALLOWED.set(True)
    try:
        yield
    finally:
        _TUPLE_VIEWS_ALLOWED.reset(token)


def csr_index_dtype(num_vertices: int, nnz: int) -> np.dtype:
    """Smallest index dtype holding vertex ids and ``indptr`` offsets.

    ``int32`` iff both the largest vertex id and the largest ``indptr``
    value (``nnz``, the directed entry count) fit in a signed 32-bit
    integer; ``int64`` otherwise.  The overflow guard is exact at the
    boundary: ``nnz = 2^31 - 1`` is still int32, ``2^31`` is not.
    """
    if num_vertices <= _INT32_MAX and nnz <= _INT32_MAX:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def sorted_pair_keys(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """The ``(row, col)`` pairs as ascending int64 keys ``row * n + col``.

    One ``np.sort`` of a single integer key orders the pairs exactly as
    ``np.lexsort((cols, rows))`` does (both entries lie in ``[0, n)``),
    at a fraction of the cost.  Decode with ``keys // n`` (rows) and
    ``keys % n`` (cols).  Raises ``ValueError`` when ``n > PAIR_KEY_MAX_N``,
    where the keys would wrap around.
    """
    if n > PAIR_KEY_MAX_N:
        raise ValueError(
            f"pair keys row * n + col overflow int64 for n = {n} "
            f"(at most {PAIR_KEY_MAX_N})"
        )
    keys = np.multiply(rows, n, dtype=np.int64)
    keys += cols
    keys.sort()
    return keys


def _as_edge_array(edges: Iterable[Edge]) -> np.ndarray:
    """Coerce an edge iterable to an ``(m, 2)`` int64 array."""
    if isinstance(edges, np.ndarray):
        arr = np.asarray(edges, dtype=np.int64)
    else:
        arr = np.asarray(list(edges), dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must be (u, v) pairs, got shape {arr.shape}")
    return arr


class Graph:
    """Immutable undirected simple graph with vertices ``0 .. n-1``.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n``; vertices are the integers ``0 .. n-1``.
    edges:
        Iterable of ``(u, v)`` pairs — or an ``(m, 2)`` integer array,
        which the vectorised generators pass to skip Python-level edge
        iteration entirely.  Self-loops and duplicate edges are rejected:
        the paper's model is a simple graph, and duplicates would
        silently bias "random approved neighbour" sampling.

    Construction from adjacency arrays without any edge materialisation
    is available through :meth:`from_csr`.
    """

    __slots__ = (
        "_n",
        "_edge_arr",
        "_indptr",
        "_indices",
        "_degrees",
        "_edges",
        "_hash",
    )

    def __init__(self, num_vertices: int, edges: Iterable[Edge] = ()) -> None:
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be non-negative, got {num_vertices}")
        self._n = int(num_vertices)
        arr = _as_edge_array(edges)
        if arr.shape[0]:
            lo = np.minimum(arr[:, 0], arr[:, 1])
            hi = np.maximum(arr[:, 0], arr[:, 1])
            self._validate(arr, lo, hi)
            canon = np.column_stack(
                np.divmod(sorted_pair_keys(lo, hi, self._n), self._n)
            )
            # CSR adjacency: each undirected edge contributes both
            # directions; the sorted (src, dst) keys mod n are the rows'
            # neighbours in order.
            src = np.concatenate((canon[:, 0], canon[:, 1]))
            dst = np.concatenate((canon[:, 1], canon[:, 0]))
            indices = sorted_pair_keys(src, dst, self._n) % self._n
        else:
            canon = arr
            indices = np.empty(0, dtype=np.int64)
        self._edge_arr: Optional[np.ndarray] = canon
        self._edge_arr.setflags(write=False)
        endpoints = canon.ravel()
        self._degrees = np.bincount(endpoints, minlength=self._n).astype(np.int64)
        self._degrees.setflags(write=False)
        idx_dtype = csr_index_dtype(self._n, 2 * canon.shape[0])
        indptr = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(self._degrees))
        )
        self._indptr = indptr.astype(idx_dtype)
        self._indptr.setflags(write=False)
        self._indices = indices.astype(idx_dtype)
        self._indices.setflags(write=False)
        # Tuple views are built lazily (and size-gated) on first access.
        self._edges: Optional[Tuple[Edge, ...]] = None
        self._hash: Optional[int] = None

    @classmethod
    def from_csr(
        cls,
        num_vertices: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        validate: bool = True,
    ) -> "Graph":
        """Build a graph directly from a symmetric CSR adjacency.

        ``indices[indptr[v]:indptr[v + 1]]`` must hold vertex ``v``'s
        neighbours in strictly increasing order, and the adjacency must
        be symmetric with no self-loops — exactly the arrays
        :meth:`adjacency_csr` returns.  No ``(m, 2)`` edge array or edge
        tuples are materialised (``edge_array`` stays lazy), so peak
        memory is O(E).  Digest and equality semantics are identical to
        the edge-list constructor: ``from_csr(*g.adjacency_csr())`` is
        ``==`` to ``g``, hashes identically, and produces the same
        :func:`repro.cache.instance_token` digest.

        Set ``validate=False`` only for arrays produced by trusted code
        (the generators); invalid CSR input then yields undefined
        behaviour.
        """
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be non-negative, got {num_vertices}")
        n = int(num_vertices)
        indptr = np.asarray(indptr)
        indices = np.asarray(indices)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be one-dimensional")
        if indptr.shape[0] != n + 1:
            raise ValueError(
                f"indptr must have length n + 1 = {n + 1}, got {indptr.shape[0]}"
            )
        nnz = int(indices.shape[0])
        if validate:
            cls._validate_csr(n, indptr, indices, nnz)
        idx_dtype = csr_index_dtype(n, nnz)
        self = cls.__new__(cls)
        self._n = n
        self._edge_arr = None
        self._indptr = np.ascontiguousarray(indptr, dtype=idx_dtype)
        self._indptr.setflags(write=False)
        self._indices = np.ascontiguousarray(indices, dtype=idx_dtype)
        self._indices.setflags(write=False)
        self._degrees = np.diff(indptr).astype(np.int64)
        self._degrees.setflags(write=False)
        self._edges = None
        self._hash = None
        return self

    @staticmethod
    def _validate_csr(
        n: int, indptr: np.ndarray, indices: np.ndarray, nnz: int
    ) -> None:
        if indptr.size and (int(indptr[0]) != 0 or int(indptr[-1]) != nnz):
            raise ValueError(
                f"indptr must run from 0 to len(indices)={nnz}, "
                f"got [{int(indptr[0])}, {int(indptr[-1])}]"
            )
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if nnz == 0:
            return
        if int(indices.min()) < 0 or int(indices.max()) >= n:
            raise ValueError(f"indices out of range for {n} vertices")
        degrees = np.diff(indptr)
        src = np.repeat(np.arange(n, dtype=np.int64), degrees)
        if np.any(src == indices):
            v = int(src[np.argmax(src == indices)])
            raise ValueError(f"self-loop at vertex {v} is not allowed")
        if nnz > 1:
            # Positions i, i+1 in the same row must be strictly increasing
            # (sorted, no duplicate neighbours).
            same_row = np.ones(nnz - 1, dtype=bool)
            boundaries = np.asarray(indptr[1:-1], dtype=np.int64)
            boundaries = boundaries[(boundaries > 0) & (boundaries < nnz)]
            same_row[boundaries - 1] = False
            deltas = np.diff(indices.astype(np.int64))
            if np.any(deltas[same_row] <= 0):
                raise ValueError(
                    "each CSR row must list neighbours in strictly "
                    "increasing order with no duplicates"
                )
        # Symmetry: the reversed entry list (dst, src), sorted into CSR
        # order, must reproduce the forward list exactly.
        if not np.array_equal(
            sorted_pair_keys(indices, src, n), sorted_pair_keys(src, indices, n)
        ):
            raise ValueError("CSR adjacency must be symmetric (undirected graph)")

    def _validate(self, arr: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        """Reject out-of-range endpoints, self-loops and duplicate edges.

        Reports the earliest offending edge with the same message (and the
        same per-edge check priority) as the original per-edge loop.
        """
        out_of_range = (lo < 0) | (hi >= self._n)
        self_loop = ~out_of_range & (lo == hi)
        bad = out_of_range | self_loop
        first_bad = int(np.argmax(bad)) if bad.any() else arr.shape[0]
        # Duplicates can only precede the first invalid edge, so dedup the
        # valid prefix; beyond it the invalid edge is reported first.
        first_dup = arr.shape[0]
        if first_bad > 0:
            keys = lo[:first_bad] * self._n + hi[:first_bad]
            _, first_idx = np.unique(keys, return_index=True)
            if len(first_idx) != len(keys):
                dup_mask = np.ones(len(keys), dtype=bool)
                dup_mask[first_idx] = False
                first_dup = int(np.argmax(dup_mask))
        if first_bad < arr.shape[0] and first_bad <= first_dup:
            u, v = int(arr[first_bad, 0]), int(arr[first_bad, 1])
            if out_of_range[first_bad]:
                raise ValueError(
                    f"edge ({u}, {v}) out of range for {self._n} vertices"
                )
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        if first_dup < arr.shape[0]:
            key = (int(lo[first_dup]), int(hi[first_dup]))
            raise ValueError(f"duplicate edge {key}")

    # -- basic accessors -------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._indices.shape[0] // 2

    def _check_tuple_view(self, count: int, what: str) -> None:
        if count > TUPLE_VIEW_LIMIT and not _TUPLE_VIEWS_ALLOWED.get():
            raise RuntimeError(
                f"materialising {what} would build {count} tuples "
                f"(> TUPLE_VIEW_LIMIT = {TUPLE_VIEW_LIMIT}); use the "
                f"array-native APIs (edge_array, adjacency_csr) or wrap "
                f"the access in repro.graphs.allow_tuple_views()"
            )

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All edges as sorted ``(min, max)`` tuples, in sorted order.

        Size-gated: raises above :data:`TUPLE_VIEW_LIMIT` edges unless
        inside :func:`allow_tuple_views` — use :attr:`edge_array` in
        array code.
        """
        if self._edges is None:
            self._check_tuple_view(self.num_edges, "Graph.edges")
            self._edges = tuple(map(tuple, self.edge_array.tolist()))
        return self._edges

    @property
    def edge_array(self) -> np.ndarray:
        """Read-only ``(m, 2)`` array of canonical ``(min, max)`` edges.

        Lazily derived from the CSR adjacency for :meth:`from_csr`-built
        graphs (CSR rows are sorted, so the derived array is already in
        canonical lexicographic order).
        """
        if self._edge_arr is None:
            src = np.repeat(np.arange(self._n, dtype=np.int64), self._degrees)
            dst = self._indices.astype(np.int64, copy=False)
            mask = src < dst
            arr = np.column_stack((src[mask], dst[mask]))
            arr.setflags(write=False)
            self._edge_arr = arr
        return self._edge_arr

    def adjacency_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The adjacency in CSR form as read-only ``(indptr, indices)``.

        Vertex ``v``'s sorted neighbours are
        ``indices[indptr[v]:indptr[v + 1]]``.  This is the array-native
        export consumed by :class:`repro.core.compiled.CompiledInstance`.
        Index dtype is :func:`csr_index_dtype` of the graph's size.
        """
        return self._indptr, self._indices

    def _adjacency_tuples(self) -> Tuple[Tuple[int, ...], ...]:
        """All neighbourhoods as a tuple of tuples (size-gated bulk view)."""
        self._check_tuple_view(self._n, "Graph._adjacency_tuples")
        indices = self._indices.tolist()
        indptr = self._indptr.tolist()
        return tuple(
            tuple(indices[indptr[v] : indptr[v + 1]]) for v in range(self._n)
        )

    def neighbors(self, vertex: int) -> Tuple[int, ...]:
        """Sorted tuple of neighbours of ``vertex``.

        A per-call CSR row slice: cost is O(deg(vertex)), never O(n) —
        large-n code paths can interrogate single vertices freely.
        """
        if vertex < 0:
            vertex += self._n
        if not 0 <= vertex < self._n:
            raise IndexError(f"vertex {vertex} out of range for {self._n} vertices")
        start, stop = int(self._indptr[vertex]), int(self._indptr[vertex + 1])
        return tuple(self._indices[start:stop].tolist())

    def degree(self, vertex: int) -> int:
        """Degree of ``vertex``."""
        return int(self._degrees[vertex])

    def degrees(self) -> np.ndarray:
        """Degrees of all vertices as a read-only array, indexed by vertex."""
        return self._degrees

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` is present.

        Binary search in ``u``'s sorted CSR row — O(log deg(u)), no set
        materialisation.
        """
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        start, stop = int(self._indptr[u]), int(self._indptr[u + 1])
        pos = int(np.searchsorted(self._indices[start:stop], v))
        return pos < stop - start and int(self._indices[start + pos]) == v

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        # CSR is canonical (rows sorted), so value equality of the index
        # arrays is edge-set equality regardless of index dtype or
        # construction path (edge list vs from_csr).
        return (
            self._n == other._n
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            h = hashlib.blake2b(digest_size=8)
            h.update(str(self._n).encode("ascii"))
            h.update(np.ascontiguousarray(self._indptr, dtype=np.int64).tobytes())
            h.update(np.ascontiguousarray(self._indices, dtype=np.int64).tobytes())
            self._hash = int.from_bytes(h.digest(), "little")
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.num_edges})"

    # -- structure queries ------------------------------------------------

    def max_degree(self) -> int:
        """Maximum degree Δ (0 for the empty graph)."""
        if self._n == 0:
            return 0
        return int(self._degrees.max())

    def min_degree(self) -> int:
        """Minimum degree δ (0 for the empty graph)."""
        if self._n == 0:
            return 0
        return int(self._degrees.min())

    def is_complete(self) -> bool:
        """Whether every pair of distinct vertices is adjacent."""
        return self.num_edges == self._n * (self._n - 1) // 2

    def is_regular(self) -> bool:
        """Whether all vertices share the same degree."""
        if self._n == 0:
            return True
        return int(self._degrees.min()) == int(self._degrees.max())

    # -- interop ----------------------------------------------------------

    @classmethod
    def from_networkx(cls, nx_graph) -> "Graph":
        """Build a :class:`Graph` from a networkx graph.

        Vertices are relabelled ``0 .. n-1`` in sorted node order; the node
        order therefore must be sortable.
        """
        nodes = sorted(nx_graph.nodes())
        index: Dict[object, int] = {node: i for i, node in enumerate(nodes)}
        edges = [(index[u], index[v]) for u, v in nx_graph.edges() if u != v]
        return cls(len(nodes), edges)

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (lazy import)."""
        import networkx as nx

        out = nx.Graph()
        out.add_nodes_from(range(self._n))
        out.add_edges_from(map(tuple, self.edge_array.tolist()))
        return out

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_adjacency(cls, adjacency: Sequence[Sequence[int]]) -> "Graph":
        """Build from an adjacency-list representation.

        The adjacency lists must be symmetric (``v in adjacency[u]`` iff
        ``u in adjacency[v]``); violations raise ``ValueError``.
        """
        n = len(adjacency)
        edges = []
        for u, nbrs in enumerate(adjacency):
            for v in nbrs:
                if u not in adjacency[v]:
                    raise ValueError(
                        f"asymmetric adjacency: {v} in adj[{u}] but {u} not in adj[{v}]"
                    )
                if u < v:
                    edges.append((u, v))
        return cls(n, edges)
