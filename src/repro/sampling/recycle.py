"""Recycle sampling graphs (Definition 6).

A ``(j, c, n)``-recycle sampling graph has ordered vertices
``v_0 … v_{n-1}`` (index 0 plays the role of the paper's ``v_1``) where:

* the first ``j`` vertices have no out-edges — they are always "fresh"
  Bernoulli draws (in the delegation application these are the top-``j``
  voters, who never delegate);
* each later vertex ``v_i`` may have directed edges to a prefix of
  earlier vertices (its *successors* — the voters it could delegate to);
* vertex ``v_i`` carries a pair ``(z_i, p_i)``: with probability ``z_i``
  its variable ``x_i`` is a fresh Bernoulli(``p_i``) draw, with
  probability ``1 − z_i`` it *recycles* the realised value of a uniformly
  random successor;
* the longest directed path (the *partition complexity*) has at most
  ``c`` vertices.

``X_n = Σ x_i`` is the recycle sampling random variable — the abstraction
of the number of correct votes under a delegation mechanism.  Lemma 2
shows ``X_n`` concentrates almost as well as an independent sum, degraded
only by a factor proportional to ``c``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._util.rng import SeedLike, as_generator
from repro._util.validation import check_probability


@dataclass(frozen=True)
class RecycleNode:
    """One vertex of a recycle sampling graph.

    Attributes
    ----------
    fresh_prob:
        ``z_i`` — probability the node draws a fresh Bernoulli rather
        than recycling a successor's value.
    bernoulli_param:
        ``p_i`` — parameter of the fresh Bernoulli draw.
    successors:
        Indices of earlier vertices whose realised value may be recycled,
        chosen uniformly.  Must all be strictly smaller than this node's
        own index; empty iff the node is always fresh.
    """

    fresh_prob: float
    bernoulli_param: float
    successors: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_probability("fresh_prob", self.fresh_prob)
        check_probability("bernoulli_param", self.bernoulli_param)
        if not self.successors and self.fresh_prob < 1.0:
            raise ValueError(
                "a node without successors must be always fresh (fresh_prob=1)"
            )


class RecycleSamplingGraph:
    """A ``(j, c, n)``-recycle sampling graph and its sampler.

    Parameters
    ----------
    nodes:
        The ordered vertices.  ``nodes[i].successors`` must contain only
        indices ``< i``.
    independent_prefix:
        The parameter ``j``: the first ``j`` nodes must have no
        successors.  Defaults to the largest prefix without successors.
    """

    def __init__(
        self,
        nodes: Sequence[RecycleNode],
        independent_prefix: int = 0,
    ) -> None:
        self._nodes: Tuple[RecycleNode, ...] = tuple(nodes)
        n = len(self._nodes)
        # Successor CSR over the *distinct* successor tuples, keyed by
        # identity: ``layered`` hands a whole layer one shared tuple, so
        # each tuple is converted, range-checked and (in the kernels
        # below) reduced once rather than once per node.
        set_of: Dict[int, int] = {}
        members: List[np.ndarray] = []
        ranges: List[Tuple[int, int]] = []
        node_set: List[int] = []
        for i, node in enumerate(self._nodes):
            sid = set_of.get(id(node.successors))
            if sid is None:
                sid = set_of[id(node.successors)] = len(members)
                arr = np.array(node.successors, dtype=np.int64)
                members.append(arr)
                ranges.append((int(arr.min()), int(arr.max())) if arr.size else (0, -1))
            low, high = ranges[sid]
            if low < 0 or high >= i:
                bad = next(s for s in node.successors if not 0 <= s < i)
                raise ValueError(
                    f"node {i} has successor {bad}; successors must be "
                    f"earlier vertices"
                )
            node_set.append(sid)
        if not 0 <= independent_prefix <= n:
            raise ValueError(
                f"independent_prefix must lie in [0, {n}], got {independent_prefix}"
            )
        for i in range(independent_prefix):
            if self._nodes[i].successors:
                raise ValueError(
                    f"node {i} lies in the independent prefix of size "
                    f"{independent_prefix} but has successors"
                )
        self._j = independent_prefix
        sizes = np.array([arr.size for arr in members], dtype=np.int64)
        self._node_set = np.array(node_set, dtype=np.int64)
        self._set_ptr = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(sizes)))
        self._set_idx = (
            np.concatenate(members) if members else np.empty(0, dtype=np.int64)
        )
        self._counts = sizes[self._node_set]
        self._fresh = np.array([node.fresh_prob for node in self._nodes], dtype=float)
        self._bern = np.array(
            [node.bernoulli_param for node in self._nodes], dtype=float
        )

    # -- structure ---------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of vertices ``n``."""
        return len(self._nodes)

    @property
    def nodes(self) -> Tuple[RecycleNode, ...]:
        """The ordered vertices."""
        return self._nodes

    @property
    def independent_prefix(self) -> int:
        """The parameter ``j`` — size of the successor-free prefix."""
        return self._j

    def partition_complexity(self) -> int:
        """Number of vertices on the longest directed path (``c``).

        Computed by DP over the DAG (edges point to smaller indices); an
        isolated vertex has complexity 1.  A successor set's deepest
        member is found once, at the set's first node: every member
        precedes that node, so its depth is already final.
        """
        n = self.num_nodes
        if n == 0:
            return 0
        depth = np.ones(n, dtype=np.int64)
        set_depth: List[Optional[int]] = [None] * (len(self._set_ptr) - 1)
        for i, sid in enumerate(self._node_set.tolist()):
            below = set_depth[sid]
            if below is None:
                members = self._successors(sid)
                below = set_depth[sid] = int(depth[members].max()) if members.size else 0
            depth[i] = below + 1
        return int(depth.max())

    def _reference_partition_complexity(self) -> int:
        """Per-edge DP oracle for :meth:`partition_complexity`."""
        n = self.num_nodes
        if n == 0:
            return 0
        depth = [1] * n
        for i, node in enumerate(self._nodes):
            for s in node.successors:
                depth[i] = max(depth[i], depth[s] + 1)
        return max(depth)

    def _successors(self, sid: int) -> np.ndarray:
        """The members of distinct successor tuple ``sid``, in tuple order."""
        return self._set_idx[self._set_ptr[sid]:self._set_ptr[sid + 1]]

    def is_recycle_graph(self, j: int, c: int) -> bool:
        """Whether this is a valid ``(j, c, n)``-recycle sampling graph."""
        return self._j >= j and self.partition_complexity() <= c

    # -- distributional quantities -----------------------------------------

    def expectations(self) -> np.ndarray:
        """``E[x_i]`` for every node, by the recycling recurrence.

        ``E[x_i] = z_i p_i + (1 − z_i) · mean_{s ∈ succ(i)} E[x_s]``.
        The mean over a successor set is taken once, at the set's first
        node (its members all precede it), with the same ``np.mean`` over
        the same values in the same order as the per-node oracle.
        """
        out = np.empty(self.num_nodes)
        set_mean: List[Optional[float]] = [None] * (len(self._set_ptr) - 1)
        for i, (node, sid) in enumerate(zip(self._nodes, self._node_set.tolist())):
            fresh = node.fresh_prob * node.bernoulli_param
            if node.successors:
                mean = set_mean[sid]
                if mean is None:
                    mean = set_mean[sid] = float(np.mean(out[self._successors(sid)]))
                recycled = (1.0 - node.fresh_prob) * mean
            else:
                recycled = 0.0
            out[i] = fresh + recycled
        return out

    def _reference_expectations(self) -> np.ndarray:
        """Per-node oracle for :meth:`expectations`."""
        out = np.empty(self.num_nodes)
        for i, node in enumerate(self._nodes):
            fresh = node.fresh_prob * node.bernoulli_param
            if node.successors:
                recycled = (1.0 - node.fresh_prob) * float(
                    np.mean([out[s] for s in node.successors])
                )
            else:
                recycled = 0.0
            out[i] = fresh + recycled
        return out

    def mean_sum(self, upto: int = -1) -> float:
        """``μ(X_i) = E[Σ_{k ≤ i} x_k]`` (full sum when ``upto`` is -1)."""
        exp = self.expectations()
        if upto == -1:
            return float(exp.sum())
        if not 0 <= upto <= self.num_nodes:
            raise ValueError(f"upto must lie in [0, {self.num_nodes}], got {upto}")
        return float(exp[:upto].sum())

    # -- sampling -------------------------------------------------------------

    def sample(self, rng: SeedLike = None) -> np.ndarray:
        """Realise the graph once; returns the 0/1 vector ``(x_0 … x_{n-1})``.

        Realisation follows Definition 6: for increasing ``i``, ``x_i`` is
        fresh with probability ``z_i``, otherwise equal to the already
        realised value of a uniformly random successor.

        The per-node loop (:meth:`_reference_sample`) draws its successor
        picks one ``integers(len(successors))`` call at a time, but which
        nodes draw depends only on the pre-drawn ``fresh_draws``.  One
        ``integers(0, bounds)`` call over the recycled nodes in index
        order is the same stream (pinned in the tests, end state
        included); each recycled node then takes its value from the
        fresh node its picks lead to, found by pointer doubling.
        """
        gen = as_generator(rng)
        n = self.num_nodes
        fresh_draws = gen.random(n)
        bern_draws = gen.random(n)
        values = (bern_draws < self._bern).astype(np.int8)
        recycled = np.flatnonzero((self._counts > 0) & ~(fresh_draws < self._fresh))
        if recycled.size == 0:
            return values
        offsets = gen.integers(0, self._counts[recycled])
        parent = np.arange(n, dtype=np.int64)
        parent[recycled] = self._set_idx[
            self._set_ptr[self._node_set[recycled]] + offsets
        ]
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        return values[parent]

    def _reference_sample(self, rng: SeedLike = None) -> np.ndarray:
        """Per-node oracle for :meth:`sample` (same stream, same values)."""
        gen = as_generator(rng)
        n = self.num_nodes
        values = np.empty(n, dtype=np.int8)
        fresh_draws = gen.random(n)
        bern_draws = gen.random(n)
        for i, node in enumerate(self._nodes):
            if not node.successors or fresh_draws[i] < node.fresh_prob:
                values[i] = 1 if bern_draws[i] < node.bernoulli_param else 0
            else:
                pick = node.successors[int(gen.integers(len(node.successors)))]
                values[i] = values[pick]
        return values

    def sample_sum(self, rng: SeedLike = None) -> int:
        """One realisation of ``X_n``."""
        return int(self.sample(rng).sum())

    def sample_prefix_sums(self, rng: SeedLike = None) -> np.ndarray:
        """One realisation of the prefix sums ``(X_1 … X_n)``."""
        return np.cumsum(self.sample(rng))

    def __repr__(self) -> str:
        return (
            f"RecycleSamplingGraph(n={self.num_nodes}, j={self._j}, "
            f"c={self.partition_complexity()})"
        )

    # -- constructors ------------------------------------------------------------

    @classmethod
    def independent(
        cls, params: Sequence[float]
    ) -> "RecycleSamplingGraph":
        """A recycle graph with no edges: an ordinary independent sum."""
        nodes = [RecycleNode(1.0, float(p)) for p in params]
        return cls(nodes, independent_prefix=len(nodes))

    @classmethod
    def layered(
        cls,
        layer_params: Sequence[Sequence[float]],
        fresh_prob: float,
    ) -> "RecycleSamplingGraph":
        """Synthetic layered graph used by the Lemma 1/2 experiments.

        Layer 0 nodes are independent; each node in layer ``t > 0``
        recycles (with probability ``1 − fresh_prob``) a uniformly random
        node of layer ``t − 1``.  The partition complexity equals the
        number of layers.
        """
        check_probability("fresh_prob", fresh_prob)
        nodes: List[RecycleNode] = []
        prev_layer: Tuple[int, ...] = ()
        for t, layer in enumerate(layer_params):
            if not layer:
                raise ValueError(f"layer {t} is empty")
            start = len(nodes)
            for p in layer:
                if t == 0:
                    nodes.append(RecycleNode(1.0, float(p)))
                else:
                    # One tuple shared by the whole layer (see __init__).
                    nodes.append(RecycleNode(fresh_prob, float(p), prev_layer))
            prev_layer = tuple(range(start, len(nodes)))
        return cls(nodes, independent_prefix=len(layer_params[0]))
