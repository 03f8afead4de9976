"""Tests for the precomputed ApprovalStructure fast path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import ProblemInstance
from repro.core.structure import ApprovalStructure
from repro.graphs import generators as G
from repro.graphs.generators import (
    complete_graph,
    erdos_renyi_graph,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph


def brute_approved(inst, v):
    return set(inst.approved_neighbors(v))


class TestCompleteBranch:
    @pytest.fixture
    def inst(self):
        rng = np.random.default_rng(3)
        return ProblemInstance(
            complete_graph(30), rng.uniform(0.2, 0.8, 30), alpha=0.07
        )

    def test_counts(self, inst):
        s = ApprovalStructure(inst)
        for v in range(30):
            assert s.approved_count(v) == len(brute_approved(inst, v))

    def test_members(self, inst):
        s = ApprovalStructure(inst)
        for v in range(30):
            assert set(s.approved_neighbors(v)) == brute_approved(inst, v)

    def test_sample_in_approved(self, inst):
        s = ApprovalStructure(inst)
        rng = np.random.default_rng(0)
        for v in range(30):
            if s.approved_count(v):
                for _ in range(5):
                    assert s.sample_approved(v, rng) in brute_approved(inst, v)

    def test_sample_uniform(self, inst):
        s = ApprovalStructure(inst)
        rng = np.random.default_rng(1)
        v = 0  # lowest-ish competency: many approved
        approved = brute_approved(inst, v)
        counts = {a: 0 for a in approved}
        trials = 4000
        for _ in range(trials):
            counts[s.sample_approved(v, rng)] += 1
        expected = trials / len(approved)
        for c in counts.values():
            assert abs(c - expected) < 5 * np.sqrt(expected)

    def test_sample_empty_raises(self, inst):
        s = ApprovalStructure(inst)
        best = int(np.argmax(inst.competencies))
        with pytest.raises(ValueError, match="no approved"):
            s.sample_approved(best, np.random.default_rng(0))


class TestGeneralBranch:
    @pytest.fixture
    def inst(self):
        rng = np.random.default_rng(5)
        g = erdos_renyi_graph(40, 0.2, seed=7)
        return ProblemInstance(g, rng.uniform(0.1, 0.9, 40), alpha=0.05)

    def test_counts_and_members(self, inst):
        s = ApprovalStructure(inst)
        for v in range(inst.num_voters):
            assert s.approved_count(v) == len(brute_approved(inst, v))
            assert set(s.approved_neighbors(v)) == brute_approved(inst, v)

    def test_segments_sorted_by_competency(self, inst):
        s = ApprovalStructure(inst)
        p = inst.competencies
        for v in range(inst.num_voters):
            members = s.approved_neighbors(v)
            comps = [p[m] for m in members]
            assert comps == sorted(comps)

    def test_sample_many_matches_single(self, inst):
        s = ApprovalStructure(inst)
        voters = np.array(
            [v for v in range(inst.num_voters) if s.approved_count(v) > 0]
        )
        out = s.sample_approved_many(voters, np.random.default_rng(0))
        for v, target in zip(voters, out):
            assert int(target) in brute_approved(inst, int(v))

    def test_sample_many_rejects_empty(self, inst):
        s = ApprovalStructure(inst)
        empty = [v for v in range(inst.num_voters) if s.approved_count(v) == 0]
        if empty:
            with pytest.raises(ValueError):
                s.sample_approved_many(
                    np.array([empty[0]]), np.random.default_rng(0)
                )


class TestBestOfK:
    @pytest.fixture
    def inst(self):
        return ProblemInstance(
            star_graph(6), [0.1, 0.5, 0.6, 0.7, 0.8, 0.9], alpha=0.05
        )

    def test_k1_is_uniform_member(self, inst):
        s = ApprovalStructure(inst)
        out = s.sample_best_of_k_many(
            np.array([0]), 1, np.random.default_rng(0)
        )
        assert int(out[0]) in brute_approved(inst, 0)

    def test_large_k_concentrates_on_best(self, inst):
        s = ApprovalStructure(inst)
        out = s.sample_best_of_k_many(
            np.array([0] * 200), 50, np.random.default_rng(0)
        )
        # With k=50 over 5 approved, essentially always the best (voter 5).
        assert np.mean(out == 5) > 0.95

    def test_k_rejected(self, inst):
        s = ApprovalStructure(inst)
        with pytest.raises(ValueError):
            s.sample_best_of_k_many(np.array([0]), 0, np.random.default_rng(0))

    def test_best_of_k_stochastically_dominates(self):
        rng = np.random.default_rng(11)
        inst = ProblemInstance(
            complete_graph(20), rng.uniform(0.2, 0.8, 20), alpha=0.03
        )
        s = ApprovalStructure(inst)
        p = inst.competencies
        v = int(np.argmin(p))
        gen = np.random.default_rng(0)
        k1 = s.sample_best_of_k_many(np.array([v] * 500), 1, gen)
        k4 = s.sample_best_of_k_many(np.array([v] * 500), 4, gen)
        assert p[k4].mean() > p[k1].mean()


class TestPathGraphEdgeCases:
    def test_isolated_in_path(self):
        inst = ProblemInstance(path_graph(1), [0.5], alpha=0.1)
        s = ApprovalStructure(inst)
        assert s.approved_count(0) == 0
        assert s.approved_neighbors(0) == ()

    def test_two_vertex_graph_not_complete_branch(self):
        # K_2 is complete; verify both branches agree on it via counts.
        inst = ProblemInstance(complete_graph(2), [0.3, 0.7], alpha=0.1)
        s = ApprovalStructure(inst)
        assert s.approved_count(0) == 1
        assert s.approved_count(1) == 0


# The sparse topologies of the scale work, each also padded with
# isolated voters (empty approved segments).
_SPARSE_TOPOLOGIES = [
    lambda: G.barabasi_albert_graph(60, 3, seed=7),
    lambda: G.watts_strogatz_graph(60, 6, 0.2, seed=11),
    lambda: G.connected_caveman_graph(10, 6),
    lambda: G.random_regular_graph(60, 4, seed=13),
    lambda: G.erdos_renyi_graph(60, 0.08, seed=3),
]


def _competencies(kind, n, rng):
    if kind == "uniform":
        return rng.uniform(0.1, 0.9, n)
    if kind == "equal":
        return np.full(n, 0.6)
    return rng.choice([0.4, 0.7], size=n)  # two-valued: many ties


class TestGeneralCsrOracle:
    """``_general_csr`` is bitwise the per-voter reference loop."""

    @settings(max_examples=80, deadline=None)
    @given(
        topology=st.integers(0, len(_SPARSE_TOPOLOGIES) - 1),
        isolated=st.integers(0, 5),
        kind=st.sampled_from(["uniform", "equal", "two-valued"]),
        alpha=st.sampled_from([0.0, 1e-12, 0.05, 0.5]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_reference(self, topology, isolated, kind, alpha, seed):
        base = _SPARSE_TOPOLOGIES[topology]()
        n = base.num_vertices + isolated
        graph = Graph(n, base.edge_array)
        p = _competencies(kind, n, np.random.default_rng(seed))
        inst = ProblemInstance(graph, p, alpha=alpha or 1.0)
        # ProblemInstance demands alpha > 0 (acyclic delegation), but the
        # approval filter is defined at alpha = 0 too, where equal
        # competencies approve each other and only the index breaks ties.
        inst._alpha = alpha
        indptr, indices = ApprovalStructure._general_csr(
            graph, inst.competencies, alpha
        )
        ref_indptr, ref_indices = ApprovalStructure._reference_general_csr(inst)
        assert np.array_equal(indptr, ref_indptr)
        assert np.array_equal(indices, ref_indices)
