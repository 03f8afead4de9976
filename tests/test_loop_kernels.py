"""Loop-free kernels pinned bitwise to their per-item ``_reference_*`` loops.

Recycle sampling (Definition 6), weighted-majority DAG voting and DAG
sampling (Section 6), and the Theorem 4/5 graph generators each keep
their original loop as an oracle.  Every kernel must return exactly
what its loop returns, and leave a shared generator in exactly the
state the loop leaves it in, so a later draw from the same generator
cannot tell the two apart either.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import ProblemInstance
from repro.graphs.generators import (
    _reference_random_bounded_degree_graph,
    _reference_random_min_degree_graph,
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    random_bounded_degree_graph,
    random_min_degree_graph,
    star_graph,
)
from repro.mechanisms.weighted_majority import WeightedMajorityDelegation
from repro.sampling.recycle import RecycleNode, RecycleSamplingGraph
from repro.voting import montecarlo
from repro.voting.dag import DelegateWeights, WeightedDelegationDag

# Python 3.12 made ``sum`` over floats compensated; the DAG kernel (like
# the 3.11 ``sum`` its oracle calls) adds weights left to right.
LEFT_TO_RIGHT_SUM = sum([1.0, 1e100, 1.0, -1e100]) == 0.0


def _pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


# -- recycle sampling -----------------------------------------------------


def _assert_recycle_matches(graph, seed=0, draws=3):
    fast, slow = _pair(seed)
    for _ in range(draws):
        got, want = graph.sample(fast), graph._reference_sample(slow)
        assert got.dtype == want.dtype == np.int8
        assert np.array_equal(got, want)
    assert fast.bit_generator.state == slow.bit_generator.state
    assert graph.expectations().tobytes() == graph._reference_expectations().tobytes()
    assert graph.partition_complexity() == graph._reference_partition_complexity()


@st.composite
def recycle_graphs(draw):
    """Arbitrary recycle graphs: shared, distinct and repeating tuples."""
    n = draw(st.integers(0, 30))
    nodes = []
    for i in range(n):
        p = draw(st.floats(0.0, 1.0))
        if i == 0 or draw(st.integers(0, 3)) == 0:
            nodes.append(RecycleNode(1.0, p))
            continue
        z = draw(st.sampled_from([0.0, 0.3, 0.9, draw(st.floats(0.0, 1.0))]))
        previous = nodes[-1].successors
        if previous and draw(st.booleans()):
            successors = previous  # the same tuple object as the last node
        else:
            successors = tuple(
                draw(st.lists(st.integers(0, i - 1), min_size=1, max_size=6))
            )
        nodes.append(RecycleNode(z, p, successors))
    return RecycleSamplingGraph(nodes)


@settings(deadline=None, max_examples=80)
@given(recycle_graphs(), st.integers(0, 2**32 - 1))
def test_recycle_kernels_match_reference(graph, seed):
    _assert_recycle_matches(graph, seed)


@pytest.mark.parametrize(
    "j, c", [(20, 1), (20, 8), (600, 4), (200, 2), (1, 2), (5, 5)]
)
def test_recycle_layered_matches_reference(j, c):
    n_total = 400
    if c == 1:
        layers = [[0.55] * n_total]
    else:
        per = max(1, (n_total - j) // (c - 1))
        layers = [[0.55] * j] + [[0.55] * per for _ in range(c - 1)]
    graph = RecycleSamplingGraph.layered(layers, fresh_prob=0.3)
    assert graph.partition_complexity() == c
    _assert_recycle_matches(graph, seed=j * 10 + c)


def test_layered_shares_one_tuple_per_layer():
    graph = RecycleSamplingGraph.layered([[0.5] * 3, [0.5] * 4, [0.5] * 2], 0.5)
    nodes = graph.nodes
    assert all(node.successors is nodes[3].successors for node in nodes[3:7])
    assert nodes[7].successors is nodes[8].successors
    assert nodes[7].successors == (3, 4, 5, 6)


def test_recycle_equal_but_distinct_tuples_match_reference():
    nodes = [RecycleNode(1.0, 0.4), RecycleNode(1.0, 0.7)]
    nodes += [RecycleNode(0.2, 0.5, tuple([0, 1])) for _ in range(30)]
    _assert_recycle_matches(RecycleSamplingGraph(nodes), seed=3, draws=5)


def test_recycle_independent_and_empty_graphs():
    _assert_recycle_matches(RecycleSamplingGraph.independent([0.2, 0.9, 0.5]))
    empty = RecycleSamplingGraph([])
    _assert_recycle_matches(empty)
    assert empty.sample(0).shape == (0,)
    assert empty.partition_complexity() == 0


@pytest.mark.parametrize("successors, bad", [((0, 3), 3), ((-1, 0), -1), ((0, 1), 1)])
def test_recycle_rejects_later_successors(successors, bad):
    nodes = [RecycleNode(1.0, 0.5), RecycleNode(0.5, 0.5, successors)]
    with pytest.raises(ValueError, match=f"node 1 has successor {bad};"):
        RecycleSamplingGraph(nodes)


# -- weighted DAG voting ----------------------------------------------------


def _assert_dag_matches(dag, comp, rounds, seed=0):
    for tie_own in (True, False):
        fast, slow = _pair(seed)
        got = dag.estimate_correct_probability(comp, rounds, fast, tie_own)
        want = dag._reference_estimate_correct_probability(comp, rounds, slow, tie_own)
        assert got == want
        assert fast.bit_generator.state == slow.bit_generator.state
        votes = dag.sample_effective_votes(comp, fast, tie_own)
        ref = dag._reference_sample_effective_votes(comp, slow, tie_own)
        assert votes.dtype == ref.dtype == np.int8
        assert np.array_equal(votes, ref)
        assert fast.bit_generator.state == slow.bit_generator.state


@st.composite
def weighted_dags(draw, max_delegates=4, weights=st.floats(0.1, 5.0)):
    """DAGs over a random voter permutation, so levels are not index order."""
    n = draw(st.integers(1, 25))
    rank = draw(st.permutations(range(n)))
    choices = {}
    for pos in range(1, n):
        if not draw(st.booleans()):
            continue
        count = draw(st.integers(1, min(max_delegates, pos)))
        upstream = draw(
            st.lists(st.integers(0, pos - 1), min_size=count, max_size=count, unique=True)
        )
        choices[rank[pos]] = DelegateWeights(
            tuple(rank[u] for u in upstream),
            tuple(draw(st.lists(weights, min_size=count, max_size=count))),
        )
    comp = draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]), min_size=n, max_size=n))
    return WeightedDelegationDag(n, choices), comp


@settings(deadline=None, max_examples=60)
@given(weighted_dags(max_delegates=2), st.integers(0, 2**32 - 1))
def test_dag_float_weights_match_reference(built, seed):
    # Two delegates: every summation order rounds the same way.
    dag, comp = built
    _assert_dag_matches(dag, comp, rounds=20, seed=seed)


@pytest.mark.skipif(not LEFT_TO_RIGHT_SUM, reason="sum() is compensated here")
@settings(deadline=None, max_examples=60)
@given(weighted_dags(max_delegates=6), st.integers(0, 2**32 - 1))
def test_dag_many_float_weights_match_reference(built, seed):
    dag, comp = built
    _assert_dag_matches(dag, comp, rounds=20, seed=seed)


@settings(deadline=None, max_examples=60)
@given(
    weighted_dags(max_delegates=6, weights=st.sampled_from([0.5, 1.0, 2.0, 3.0])),
    st.integers(0, 2**32 - 1),
)
def test_dag_tied_weights_match_reference(built, seed):
    # Dyadic weights: exact sums in any order, and many exact ties.
    dag, comp = built
    _assert_dag_matches(dag, comp, rounds=30, seed=seed)


def test_dag_deep_chain_across_many_blocks(monkeypatch):
    n = 60
    choices = {v: DelegateWeights((v + 1,), (1.0,)) for v in range(n - 1)}
    choices.update({v: DelegateWeights((v + 1, v + 2), (1.0, 1.0)) for v in range(0, n - 2, 7)})
    dag = WeightedDelegationDag(n, choices)
    comp = np.linspace(0.1, 0.9, n)
    # 40 bytes per cell: a budget of 3 rounds' worth splits 50 rounds into 17 blocks.
    monkeypatch.setattr(montecarlo, "CHUNK_BUDGET_BYTES", 3 * 40 * n)
    _assert_dag_matches(dag, comp, rounds=50, seed=5)
    monkeypatch.setattr(montecarlo, "CHUNK_BUDGET_BYTES", 1)
    _assert_dag_matches(dag, comp, rounds=7, seed=6)


def test_dag_without_delegators_and_empty_dag():
    _assert_dag_matches(WeightedDelegationDag(5, {}), [0.1, 0.9, 0.5, 0.5, 0.7], 40)
    empty = WeightedDelegationDag(0, {})
    _assert_dag_matches(empty, [], 10)
    assert empty.max_fan_in() == 0


@settings(deadline=None, max_examples=60)
@given(weighted_dags())
def test_max_fan_in_matches_reference(built):
    dag, _ = built
    assert dag.max_fan_in() == dag._reference_max_fan_in()


def test_cycle_error_names_the_unresolved_voters():
    choices = {
        0: DelegateWeights((1,), (1.0,)),
        1: DelegateWeights((2,), (1.0,)),
        2: DelegateWeights((1,), (1.0,)),
        4: DelegateWeights((3,), (1.0,)),
    }
    with pytest.raises(ValueError, match=r"delegation cycle among voters \[0, 1, 2\]$"):
        WeightedDelegationDag(5, choices)


@pytest.mark.parametrize(
    "choices, message",
    [
        ({0: DelegateWeights((1,), (1.0,)), 5: DelegateWeights((0,), (1.0,))}, "voter 5 out of range"),
        ({1: DelegateWeights((0, 7), (1.0, 1.0))}, "voter 1 delegates to out-of-range 7"),
        ({2: DelegateWeights((0,), (1.0,)), 1: DelegateWeights((1,), (1.0,))}, "voter 1 delegates to itself"),
    ],
)
def test_dag_validation_messages(choices, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        WeightedDelegationDag(3, choices)


# -- DAG sampling -------------------------------------------------------------


@pytest.mark.parametrize(
    "graph",
    [complete_graph(60), barabasi_albert_graph(120, 3, seed=1), cycle_graph(30),
     star_graph(25), complete_graph(1), complete_graph(2)],
    ids=["complete", "ba", "cycle", "star", "n1", "n2"],
)
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("weighting", ["uniform", "rank"])
def test_sample_dag_matches_reference(graph, k, weighting):
    p = np.random.default_rng(graph.num_vertices).uniform(0.3, 0.9, graph.num_vertices)
    instance = ProblemInstance(graph, p, alpha=0.05)
    for threshold in (1.0, 3.0):
        mech = WeightedMajorityDelegation(k, threshold=threshold, weighting=weighting)
        fast, slow = _pair(k)
        for _ in range(2):
            got, want = mech.sample_dag(instance, fast), mech._reference_sample_dag(instance, slow)
            assert list(got._choices.items()) == list(want._choices.items())
            assert np.array_equal(got._delegates, want._delegates)
        assert fast.bit_generator.state == slow.bit_generator.state


# -- Theorem 4/5 generators ---------------------------------------------------


def _assert_same_graph(got, want):
    assert got == want
    for a, b in zip(got.adjacency_csr(), want.adjacency_csr()):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert np.array_equal(got.edge_array, want.edge_array)


@pytest.mark.parametrize("n", [1, 2, 3, 9, 64, 300])
@pytest.mark.parametrize("max_degree", [1, 2, 3, 4, 16])
@pytest.mark.parametrize("target", [None, 0, 7, 400])
def test_bounded_degree_matches_reference(n, max_degree, target):
    # target=400 is out of reach for all but (300, 3+): those loops
    # run to max_attempts and stop on the attempt cap.
    fast, slow = _pair(n * 100 + max_degree)
    got = random_bounded_degree_graph(n, max_degree, target, fast)
    want = _reference_random_bounded_degree_graph(n, max_degree, target, slow)
    _assert_same_graph(got, want)
    assert fast.bit_generator.state == slow.bit_generator.state


def test_bounded_degree_stops_inside_a_late_block():
    # The path holds 5999 of the 12000 target edges, so at least 6001
    # attempts run: the target is met inside the second 4096-pair block
    # or later, and the generator must be rewound to the stopping attempt.
    fast, slow = _pair(8)
    got = random_bounded_degree_graph(6000, 16, seed=fast)
    want = _reference_random_bounded_degree_graph(6000, 16, seed=slow)
    assert got.num_edges == 12000
    _assert_same_graph(got, want)
    assert fast.bit_generator.state == slow.bit_generator.state
    assert fast.random() == slow.random()


@pytest.mark.parametrize(
    "n, min_degree", [(0, 0), (1, 0), (5, 0), (2, 1), (5, 4), (40, 3), (257, 16)]
)
def test_min_degree_matches_reference(n, min_degree):
    fast, slow = _pair(n + min_degree)
    got = random_min_degree_graph(n, min_degree, fast)
    want = _reference_random_min_degree_graph(n, min_degree, slow)
    _assert_same_graph(got, want)
    assert fast.bit_generator.state == slow.bit_generator.state
