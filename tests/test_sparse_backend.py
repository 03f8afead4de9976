"""Sparse (CSR-native) backend equivalence suite.

The CSR backend's contract is *bit-identity*, not approximation: a graph
built through :meth:`Graph.from_csr` must be indistinguishable — same
digest, same forests, same estimates — from the same graph built through
the edge-list constructor, for every topology, mechanism and engine.
Chunked streaming must likewise be invisible: any ``chunk_rounds`` yields
the same bits as the unchunked run.  These tests pin all of that, plus
the int32/int64 index-dtype boundary and the tuple-view size gate that
keeps million-vertex graphs from materialising Python tuples.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._util.rng import as_seed_sequence
from repro.core.approval_graph import (
    _approval_in_degrees,
    _longest_chain,
    _reference_in_degrees,
    _reference_longest_chain,
)
from repro.core.competencies import bounded_uniform_competencies
from repro.core.instance import ProblemInstance
from repro.graphs import generators as G
from repro.graphs import graph as graph_module
from repro.graphs.graph import Graph, allow_tuple_views, csr_index_dtype
from repro.mechanisms.direct import DirectVoting
from repro.mechanisms.fraction import FractionApproved
from repro.mechanisms.greedy import GreedyBest
from repro.mechanisms.sampled import SampledNeighbourhood
from repro.mechanisms.threshold import ApprovalThreshold, RandomApproved
from repro.voting.montecarlo import BatchEstimator, _reference_batch_rounds
from repro.voting.outcome import TiePolicy

# The four non-complete topology families the scale work targets, small
# enough that the dense (edge-tuple) twin is cheap to build.
TOPOLOGIES = [
    ("ba", lambda: G.barabasi_albert_graph(72, 3, seed=7)),
    ("ws", lambda: G.watts_strogatz_graph(72, 6, 0.2, seed=11)),
    ("caveman", lambda: G.connected_caveman_graph(12, 6)),
    ("regular", lambda: G.random_regular_graph(72, 4, seed=13)),
]

MECHANISMS = [
    ("direct", lambda: DirectVoting()),
    ("threshold", lambda: ApprovalThreshold(2)),
    ("random-approved", lambda: RandomApproved()),
    ("fraction", lambda: FractionApproved(0.5)),
    ("sampled", lambda: SampledNeighbourhood(2)),
    ("greedy", lambda: GreedyBest()),
]


def _twin_instances(build):
    """The same instance built via the dense and the CSR constructor."""
    csr_graph = build()
    n = csr_graph.num_vertices
    dense_graph = Graph(n, csr_graph.edge_array)
    p = bounded_uniform_competencies(n, 0.3, seed=5)
    return (
        ProblemInstance(dense_graph, p, alpha=0.08),
        ProblemInstance(csr_graph, p, alpha=0.08),
    )


@pytest.mark.parametrize("topo,build", TOPOLOGIES, ids=[t for t, _ in TOPOLOGIES])
@pytest.mark.parametrize("mech,make", MECHANISMS, ids=[m for m, _ in MECHANISMS])
@pytest.mark.parametrize("use_reference", [False, True], ids=["batch", "reference"])
def test_csr_vs_dense_bit_identity(topo, build, mech, make, use_reference):
    """Same seed, same bits: dense-built and CSR-built twins agree exactly."""
    dense, sparse = _twin_instances(build)
    mechanism = make()
    forests_dense = mechanism.sample_delegations_batch(dense, 6, seed=3)
    forests_sparse = mechanism.sample_delegations_batch(sparse, 6, seed=3)
    assert np.array_equal(forests_dense, forests_sparse)
    assert forests_dense.dtype == forests_sparse.dtype
    if use_reference:
        # The per-round oracle: equal per-round values imply equal
        # estimates and standard errors.
        a, b = (
            _reference_batch_rounds(
                twin, mechanism, as_seed_sequence(9), 0, 12,
                TiePolicy.INCORRECT, True, 512,
            )
            for twin in (dense, sparse)
        )
        assert np.array_equal(a, b)
        return
    est = BatchEstimator()
    a = est.estimate(dense, mechanism, rounds=12, seed=9)
    b = est.estimate(sparse, mechanism, rounds=12, seed=9)
    assert a.probability == b.probability
    assert a.std_error == b.std_error


@pytest.mark.parametrize("topo,build", TOPOLOGIES, ids=[t for t, _ in TOPOLOGIES])
def test_from_csr_round_trip(topo, build):
    """``from_csr(*g.adjacency_csr())`` preserves identity semantics."""
    g = build()
    indptr, indices = g.adjacency_csr()
    h = Graph.from_csr(g.num_vertices, indptr, indices, validate=True)
    assert h == g
    assert hash(h) == hash(g)
    assert h.num_edges == g.num_edges
    assert np.array_equal(h.degrees(), g.degrees())
    assert np.array_equal(h.edge_array, g.edge_array)
    for v in (0, g.num_vertices // 2, g.num_vertices - 1):
        assert h.neighbors(v) == g.neighbors(v)
    # CSR arrays come back verbatim.
    hp, hi = h.adjacency_csr()
    assert np.array_equal(hp, indptr) and np.array_equal(hi, indices)


@pytest.mark.parametrize(
    "mutate,match",
    [
        (lambda p, i: (p, np.where(i >= 1, i - 1, i)), "self-loop|symmetric|increasing"),
        (lambda p, i: (p, i + 100), "out of range"),
        (lambda p, i: (p[:-1], i), "length"),
        (lambda p, i: (p, i[::-1].copy()), "increasing|symmetric"),
    ],
)
def test_from_csr_validation_rejects_bad_input(mutate, match):
    g = G.connected_caveman_graph(4, 4)
    indptr, indices = g.adjacency_csr()
    bad_indptr, bad_indices = mutate(indptr.copy(), indices.astype(np.int64))
    with pytest.raises(ValueError, match=match):
        Graph.from_csr(g.num_vertices, bad_indptr, bad_indices, validate=True)


def test_from_csr_asymmetric_rejected():
    # 0→1 present, 1→0 missing: valid rows, invalid graph.
    indptr = np.array([0, 1, 1, 1])
    indices = np.array([1])
    with pytest.raises(ValueError, match="symmetric"):
        Graph.from_csr(3, indptr, indices, validate=True)


def test_csr_index_dtype_int32_overflow_guard():
    """int32 iff *both* the vertex ids and the CSR offsets fit in int32."""
    i32_max = np.iinfo(np.int32).max
    assert csr_index_dtype(1000, 4000) == np.int32
    assert csr_index_dtype(i32_max, 100) == np.int32
    assert csr_index_dtype(i32_max + 1, 100) == np.int64
    assert csr_index_dtype(100, i32_max) == np.int32
    assert csr_index_dtype(100, i32_max + 1) == np.int64
    assert csr_index_dtype(i32_max + 1, i32_max + 1) == np.int64


def test_generator_graphs_use_int32_indices():
    for _, build in TOPOLOGIES:
        g = build()
        indptr, indices = g.adjacency_csr()
        assert indices.dtype == np.int32
        assert indptr.dtype == np.int32


@pytest.mark.parametrize("chunk_rounds", [1, 3, 5, None])
def test_batch_sampling_chunk_invariance(chunk_rounds):
    """Chunk boundaries cannot shift round seeds: forests are identical."""
    _, instance = _twin_instances(TOPOLOGIES[0][1])
    mechanism = ApprovalThreshold(2)
    baseline = mechanism.sample_delegations_batch(instance, 11, seed=2)
    chunked = mechanism.sample_delegations_batch(
        instance, 11, seed=2, chunk_rounds=chunk_rounds
    )
    assert np.array_equal(baseline, chunked)


@pytest.mark.parametrize("chunk_rounds", [1, 4, None])
def test_estimator_chunk_invariance(chunk_rounds):
    _, instance = _twin_instances(TOPOLOGIES[1][1])
    mechanism = RandomApproved()
    baseline = BatchEstimator().estimate(instance, mechanism, rounds=13, seed=4)
    chunked = BatchEstimator(chunk_rounds=chunk_rounds).estimate(
        instance, mechanism, rounds=13, seed=4
    )
    assert baseline.probability == chunked.probability
    assert baseline.std_error == chunked.std_error


@pytest.mark.parametrize("alpha", [0.02, 0.1, 0.5])
@pytest.mark.parametrize(
    "topo,build",
    TOPOLOGIES + [("complete", lambda: G.complete_graph(40))],
    ids=[t for t, _ in TOPOLOGIES] + ["complete"],
)
def test_approval_graph_kernels_match_reference(topo, build, alpha):
    """Vectorised in-degree / longest-chain pin to the per-voter oracles."""
    g = build()
    p = bounded_uniform_competencies(g.num_vertices, 0.25, seed=17)
    instance = ProblemInstance(g, p, alpha=alpha)
    assert np.array_equal(
        _approval_in_degrees(instance), _reference_in_degrees(instance)
    )
    assert _longest_chain(instance) == _reference_longest_chain(instance)


def test_approval_graph_kernels_equal_competencies():
    # Degenerate floats: ties everywhere, tiny alpha.
    g = G.complete_graph(16)
    p = np.full(16, 0.5)
    instance = ProblemInstance(g, p, alpha=1e-12)
    assert np.array_equal(
        _approval_in_degrees(instance), _reference_in_degrees(instance)
    )
    assert _longest_chain(instance) == _reference_longest_chain(instance)


def test_tuple_view_gate(monkeypatch):
    """Beyond the limit, bulk tuple views raise; array APIs keep working."""
    g = G.connected_caveman_graph(6, 5)
    monkeypatch.setattr(graph_module, "TUPLE_VIEW_LIMIT", 4)
    with pytest.raises(RuntimeError, match="TUPLE_VIEW_LIMIT"):
        g.edges
    with pytest.raises(RuntimeError, match="TUPLE_VIEW_LIMIT"):
        g._adjacency_tuples()
    # Array-native and per-vertex APIs stay available at any size.
    assert g.edge_array.shape == (g.num_edges, 2)
    indptr, indices = g.adjacency_csr()
    assert indices.size == 2 * g.num_edges
    assert len(g.neighbors(0)) == g.degree(0)
    with allow_tuple_views():
        assert len(g.edges) == g.num_edges
    # The gate re-engages once the context exits (fresh graph: `edges`
    # caches a successfully built view).
    g2 = G.connected_caveman_graph(6, 5)
    with pytest.raises(RuntimeError, match="TUPLE_VIEW_LIMIT"):
        g2.edges
