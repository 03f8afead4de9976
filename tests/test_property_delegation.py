"""Property-based tests for delegation graphs and mechanisms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import ProblemInstance
from repro.delegation.graph import (
    SELF,
    DelegationCycleError,
    DelegationGraph,
    resolve_forests_batch,
)
from repro.delegation.metrics import weight_profile
from repro.graphs.generators import complete_graph, erdos_renyi_graph
from repro.mechanisms.threshold import ApprovalThreshold


@st.composite
def acyclic_delegations(draw):
    """Delegation arrays where voters only point to lower indices.

    Pointing strictly downward guarantees acyclicity, matching the
    approval structure (delegate to strictly more competent = earlier in
    some fixed order).
    """
    n = draw(st.integers(1, 40))
    delegates = []
    for i in range(n):
        if i == 0:
            delegates.append(SELF)
        else:
            choice = draw(st.integers(-1, i - 1))
            delegates.append(SELF if choice < 0 else choice)
    return delegates


class TestDelegationGraphProperties:
    @given(acyclic_delegations())
    def test_weights_sum_to_n(self, delegates):
        forest = DelegationGraph(delegates)
        assert sum(forest.sink_weights().values()) == len(delegates)

    @given(acyclic_delegations())
    def test_sink_of_is_sink(self, delegates):
        forest = DelegationGraph(delegates)
        sinks = set(forest.sinks)
        for v in range(len(delegates)):
            assert forest.sink_of(v) in sinks

    @given(acyclic_delegations())
    def test_sinks_have_no_delegate(self, delegates):
        forest = DelegationGraph(delegates)
        for s in forest.sinks:
            assert forest.delegates[s] == SELF

    @given(acyclic_delegations())
    def test_delegators_plus_sinks_is_n(self, delegates):
        forest = DelegationGraph(delegates)
        assert forest.num_delegators + forest.num_sinks == forest.num_voters

    @given(acyclic_delegations())
    def test_max_weight_bounds(self, delegates):
        forest = DelegationGraph(delegates)
        n = forest.num_voters
        assert 1 <= forest.max_weight() <= n

    @given(acyclic_delegations())
    def test_depth_zero_iff_sink(self, delegates):
        forest = DelegationGraph(delegates)
        for v in range(forest.num_voters):
            if v in forest.sinks:
                assert forest.depth(v) == 0
            else:
                assert forest.depth(v) >= 1

    @given(acyclic_delegations())
    def test_effective_voters_at_most_sinks(self, delegates):
        forest = DelegationGraph(delegates)
        profile = weight_profile(forest)
        assert profile.effective_num_voters <= profile.num_sinks + 1e-9


@st.composite
def random_instances(draw):
    n = draw(st.integers(3, 25))
    seed = draw(st.integers(0, 10**6))
    dense = draw(st.booleans())
    rng = np.random.default_rng(seed)
    graph = complete_graph(n) if dense else erdos_renyi_graph(n, 0.4, seed=seed)
    p = rng.uniform(0.05, 0.95, n)
    alpha = draw(st.sampled_from([0.01, 0.05, 0.15]))
    return ProblemInstance(graph, p, alpha=alpha)


class TestMechanismProperties:
    @settings(max_examples=40, deadline=None)
    @given(random_instances(), st.integers(0, 5), st.integers(0, 10**6))
    def test_threshold_mechanism_invariants(self, instance, threshold, seed):
        mech = ApprovalThreshold(threshold)
        forest = mech.sample_delegations(instance, seed)
        # resolves without cycles, weights conserve votes
        assert sum(forest.sink_weights().values()) == instance.num_voters
        # every delegation strictly increases competency by >= alpha
        for v in range(instance.num_voters):
            t = int(forest.delegates[v])
            if t != SELF:
                assert (
                    instance.competencies[t]
                    >= instance.competencies[v] + instance.alpha - 1e-12
                )
                assert instance.graph.has_edge(v, t)

    @settings(max_examples=20, deadline=None)
    @given(random_instances(), st.integers(0, 10**6))
    def test_depth_bounded_by_competency_levels(self, instance, seed):
        import math

        mech = ApprovalThreshold(1)
        forest = mech.sample_delegations(instance, seed)
        assert forest.max_depth() <= math.ceil(1.0 / instance.alpha)


@st.composite
def delegate_matrices(draw):
    """``(rounds, n)`` delegate matrices in int32 or int64.

    Each row walks a random voter order; every voter votes directly,
    delegates to itself, or delegates to an earlier voter in the order
    (acyclic).  When ``cyclic`` is drawn, targets range over all voters,
    so self-loops, cycles and chains feeding cycles appear in any round.
    """
    n = draw(st.integers(1, 24))
    rounds = draw(st.integers(1, 4))
    cyclic = draw(st.booleans())
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    delegates = np.full((rounds, n), SELF, dtype=dtype)
    for r in range(rounds):
        order = draw(st.permutations(range(n)))
        for k, v in enumerate(order):
            pick = draw(st.integers(-2, n - 1 if cyclic else k - 1))
            if pick == -2:
                delegates[r, v] = v
            elif pick >= 0:
                delegates[r, v] = order[pick]
    return delegates


def _reference_rows(delegates):
    """Row-by-row oracle: normalise self-delegation, then walk each row.

    Raises the first cyclic row's :class:`DelegationCycleError`.
    """
    n = delegates.shape[1]
    sinks, weights = [], []
    for row in delegates:
        row = row.astype(np.int64)
        row[row == np.arange(n)] = SELF
        sink = DelegationGraph._reference_resolve_sinks(row)
        sinks.append(sink)
        weights.append(np.bincount(sink, minlength=n))
    return np.array(sinks), np.array(weights)


def _assert_batch_matches_reference(delegates):
    try:
        ref_sinks, ref_weights = _reference_rows(delegates)
    except DelegationCycleError as err:
        with pytest.raises(DelegationCycleError) as got:
            resolve_forests_batch(delegates)
        assert got.value.cycle == err.cycle
        return
    sink_of, weights = resolve_forests_batch(delegates)
    assert np.array_equal(sink_of, ref_sinks)
    assert np.array_equal(weights, ref_weights)


def _chain(depth, seed):
    """One row: a chain of ``depth`` hops over ``depth + 1`` shuffled voters."""
    labels = np.random.default_rng(seed).permutation(depth + 1)
    row = np.full(depth + 1, SELF, dtype=np.int64)
    row[labels[1:]] = labels[:-1]
    return row, labels


class TestResolveForestsBatchProperties:
    @settings(max_examples=300, deadline=None)
    @given(delegate_matrices())
    def test_matches_reference_row_by_row(self, delegates):
        _assert_batch_matches_reference(delegates)

    @pytest.mark.parametrize(
        "depth",
        sorted({2 ** k + off for k in range(13) for off in (-1, 0, 1)} - {0}),
    )
    def test_chain_depths_around_powers_of_two(self, depth):
        # Depths 2^k - 1, 2^k and 2^k + 1 up to k = 12 straddle the
        # doubling pass at which each chain's deepest voter lands.
        row, labels = _chain(depth, seed=depth)
        other, _ = _chain(depth, seed=depth + 1)
        for dtype in (np.int32, np.int64):
            _assert_batch_matches_reference(
                np.stack([row, other]).astype(dtype)
            )
        # Closing the chain into a cycle must raise, whatever its length.
        closed = row.copy()
        closed[labels[0]] = labels[-1]
        _assert_batch_matches_reference(np.stack([row, closed]))
