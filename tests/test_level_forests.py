"""Level-ordered forest sampling: the one-pass kernel against its oracle.

``UniformApprovedDelegation.sample_forests_batch`` picks targets and
resolves forests in one pass over the approval DAG's level order, and
returns compact sink profiles ``(sinks, weights)``.  It is pinned
bitwise — values and dtypes — to the composition it replaces,
``resolve_forests_batch(sample_delegations_batch(...))`` with the
never-sink weight columns dropped, and the level table is pinned to a
brute-force longest-path oracle.  The kernel's blocks and the naive vote
loop's rounds fan out over threads; every worker count gives the same
bits.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro._util.threads as threads
import repro.mechanisms.base as mechanisms_base
from repro.core.compiled import _reference_approval_levels
from repro.core.instance import ProblemInstance
from repro.delegation.graph import SELF, resolve_forests_batch
from repro.graphs import generators as G
from repro.graphs.graph import Graph
from repro.mechanisms.base import LEVEL_BLOCK_CELLS, _reference_level_plan, level_plan
from repro.mechanisms.fraction import FractionApproved
from repro.mechanisms.sampled import SampledNeighbourhood
from repro.mechanisms.threshold import ApprovalThreshold, RandomApproved
from repro.voting.montecarlo import (
    CHUNK_BUDGET_BYTES,
    TAILS_BYTES_PER_VOTER,
    BatchEstimator,
    _auto_chunk_rounds,
    _streamed_rounds,
)
from repro.voting.outcome import TiePolicy

ALPHAS = (1e-12, 0.01, 0.05, 0.2)


def _with_isolated(graph: Graph, extra: int) -> Graph:
    """``graph`` plus ``extra`` voters with no neighbours."""
    return Graph(graph.num_vertices + extra, graph.edge_array)


def _family_graph(family: str, n: int, seed: int) -> Graph:
    if family == "ba":
        return G.barabasi_albert_graph(n, 2, seed=seed)
    if family == "er":
        return G.erdos_renyi_graph(n, 0.2, seed=seed)
    if family == "regular":
        return G.random_regular_graph(n - n % 2, 3, seed=seed)
    return G.connected_caveman_graph(max(2, n // 4), 4)


def _competencies(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.random(n)
    if kind == "tied":
        return np.round(rng.random(n), 1)
    return np.where(rng.random(n) < 0.5, 0.3, 0.7)


@st.composite
def level_cases(draw):
    family = draw(st.sampled_from(["ba", "er", "regular", "caveman"]))
    n = draw(st.integers(6, 40))
    seed = draw(st.integers(0, 10**6))
    graph = _with_isolated(_family_graph(family, n, seed), draw(st.integers(0, 5)))
    kind = draw(st.sampled_from(["uniform", "tied", "two-valued"]))
    p = _competencies(kind, graph.num_vertices, draw(st.integers(0, 10**6)))
    return ProblemInstance(graph, p, alpha=draw(st.sampled_from(ALPHAS)))


@st.composite
def complete_cases(draw):
    """Complete graphs: the approval structure's O(n) suffix form."""
    n = draw(st.integers(2, 30))
    kind = draw(st.sampled_from(["uniform", "tied", "two-valued"]))
    p = _competencies(kind, n, draw(st.integers(0, 10**6)))
    return ProblemInstance(
        G.complete_graph(n), p, alpha=draw(st.sampled_from(ALPHAS))
    )


MECHANISMS = st.sampled_from(
    [
        ApprovalThreshold(1),
        ApprovalThreshold(3),
        ApprovalThreshold(lambda d: d ** 0.5 / 2),
        RandomApproved(),
        FractionApproved(0.5),
        FractionApproved(0.25),
    ]
)


def _compressed_composition(mechanism, instance, rounds, seed, first_round=0):
    """The delegate matrix, resolved, with the never-sink columns dropped."""
    _, weights = resolve_forests_batch(
        mechanism.sample_delegations_batch(
            instance, rounds, seed=seed, first_round=first_round
        )
    )
    sinks = np.flatnonzero(weights.any(axis=0))
    return sinks, weights[:, sinks]


def _assert_bitwise(got, want):
    assert len(got) == len(want) == 2
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def _assert_plan(mechanism, instance):
    """The memoised level plan equals its voter-by-voter oracle."""
    compiled = instance.compiled()
    levels = compiled.approval_levels()
    if levels is None:
        return
    mask = mechanism._movers(compiled)
    got, want = level_plan(compiled, levels, mask), _reference_level_plan(instance, mask)
    assert got.spans == want.spans
    for a, b in zip(got, want):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def _plans(compiled):
    """The level plans memoised on ``compiled``."""
    return [
        value for key, value in compiled._memo.items()
        if isinstance(key, tuple) and key[0] == "level_plan"
    ]


class _BrokenMask(RandomApproved):
    """Names every voter without an approved neighbour as a mover."""

    def _movers(self, compiled, voters=None):
        mask = super()._movers(compiled, voters)
        mask[compiled.approved_counts == 0] = True
        return mask


def _assert_fixed_sinks(mechanism, instance, got):
    """Fixed-mover forests: the sinks are the non-movers, every weight >= 1."""
    sinks, weights = got
    movers = mechanism._movers(instance.compiled())
    assert np.array_equal(sinks, np.flatnonzero(~movers))
    assert (weights >= 1).all()
    # The voters no mover approves keep exactly their own vote.
    assert (weights[:, np.isin(sinks, mechanism.fixed_sinks(instance))] == 1).all()


class TestSampleForestsBatch:
    @settings(max_examples=120, deadline=None)
    @given(
        level_cases(),
        MECHANISMS,
        st.integers(1, 12),
        st.integers(0, 50),
        st.sampled_from([None, 7, 40]),
        st.integers(0, 10**6),
    )
    def test_matches_composition(
        self, instance, mechanism, rounds, first_round, block, seed
    ):
        args = (instance, rounds, seed, first_round)
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(mechanisms_base, "LEVEL_BLOCK_CELLS", block)
            got = mechanism.sample_forests_batch(*args)
        want = _compressed_composition(mechanism, *args)
        _assert_bitwise(got, want)
        _assert_bitwise(mechanism._reference_sample_forests_batch(*args), want)
        assert got[0].dtype == np.int64 and got[1].dtype == np.intp
        _assert_fixed_sinks(mechanism, instance, got)
        _assert_plan(mechanism, instance)

    def test_fused_path_runs_on_every_family(self):
        """The property above must exercise the fused kernel, not only
        its fallback: every family yields a level table at alpha 0.05."""
        for family in ("ba", "er", "regular", "caveman"):
            graph = _with_isolated(_family_graph(family, 30, 1), 3)
            instance = ProblemInstance(
                graph, _competencies("uniform", graph.num_vertices, 2), alpha=0.05
            )
            assert instance.compiled().approval_levels() is not None

    def test_rounds_past_one_block(self):
        """n·rounds above :data:`LEVEL_BLOCK_CELLS` at the shipped block
        size: blocks split mid-batch and the scratch is reused."""
        n = 1100
        instance = ProblemInstance(
            G.barabasi_albert_graph(n, 3, seed=4),
            _competencies("uniform", n, 5),
            alpha=0.05,
        )
        rounds = LEVEL_BLOCK_CELLS // n + 3
        mechanism = ApprovalThreshold(1)
        got = mechanism.sample_forests_batch(instance, rounds, 11, 5)
        _assert_bitwise(got, _compressed_composition(mechanism, instance, rounds, 11, 5))
        _assert_fixed_sinks(mechanism, instance, got)

    def test_deep_chain_and_complete_graph_take_the_composition(self):
        chain = ProblemInstance(G.path_graph(40), np.linspace(0.1, 0.9, 40), alpha=0.01)
        complete = ProblemInstance(
            G.complete_graph(12), np.linspace(0.1, 0.9, 12), alpha=0.01
        )
        for instance in (chain, complete):
            assert instance.compiled().approval_levels() is None
            mechanism = RandomApproved()
            got = mechanism.sample_forests_batch(instance, 5, 3)
            _assert_bitwise(got, _compressed_composition(mechanism, instance, 5, 3))
            _assert_fixed_sinks(mechanism, instance, got)

    def test_empty_batches_match(self):
        instance = ProblemInstance(G.cycle_graph(6), np.linspace(0.2, 0.8, 6), alpha=0.05)
        mechanism = RandomApproved()
        got = mechanism.sample_forests_batch(instance, 0, 3)
        _assert_bitwise(got, _compressed_composition(mechanism, instance, 0, 3))
        assert got[1].shape == (0, 0)

    def test_weight_rows_must_sum_to_n(self):
        """A mover mask naming a voter with no approved neighbour leaves
        that voter out of every forest; the weight check catches it."""

        class Broken(RandomApproved):
            def _movers(self, compiled, voters=None):
                mask = super()._movers(compiled, voters)
                mask[compiled.approved_counts == 0] = True
                return mask

        competencies = np.full(6, 0.3)
        competencies[0] = 0.9
        instance = ProblemInstance(G.star_graph(6), competencies, alpha=0.05)
        with pytest.raises(RuntimeError, match="sink weights sum to"):
            Broken().sample_forests_batch(instance, 2, 0)

    def test_estimates_are_unchanged(self):
        """The batch engine consumes the fused forests: estimates equal
        those computed from the composition's forests."""

        class Composed(ApprovalThreshold):
            sample_forests_batch = mechanisms_base.DelegationMechanism.sample_forests_batch

        instance = ProblemInstance(
            G.barabasi_albert_graph(300, 3, seed=2), _competencies("uniform", 300, 3),
            alpha=0.05,
        )
        for exact in (True, False):
            fused = BatchEstimator().estimate(
                instance, ApprovalThreshold(2), rounds=40, seed=9, exact_conditional=exact
            )
            composed = BatchEstimator().estimate(
                instance, Composed(2), rounds=40, seed=9, exact_conditional=exact
            )
            assert fused == composed


@contextmanager
def _workers(count):
    """Patch the thread count of both fan-outs to ``count``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(threads, "thread_workers", lambda tasks, width: count)
        yield patch


class TestThreadedBlocks:
    """Blocks split over 1, 2 or 3 threads give the oracle's bits."""

    WORKERS = (1, 2, 3)

    @pytest.fixture
    def instance(self):
        n = 60
        graph = _with_isolated(G.barabasi_albert_graph(n, 2, seed=8), 2)
        return ProblemInstance(
            graph, _competencies("uniform", graph.num_vertices, 9), alpha=0.05
        )

    # 2 rounds per block: 7 rounds are 4 blocks with a one-round last
    # block, 3 rounds are 2 blocks (fewer than 3 workers), 1 round is one.
    @pytest.mark.parametrize("rounds", [7, 3, 1])
    @pytest.mark.parametrize("mechanism", [ApprovalThreshold(1), RandomApproved()])
    def test_matches_oracle_for_every_worker_count(self, instance, mechanism, rounds):
        assert instance.compiled().approval_levels() is not None
        want = mechanism._reference_sample_forests_batch(instance, rounds, 5, 3)
        for count in self.WORKERS:
            with _workers(count) as patch:
                patch.setattr(
                    mechanisms_base, "LEVEL_BLOCK_CELLS", 2 * instance.num_voters
                )
                got = mechanism.sample_forests_batch(instance, rounds, 5, 3)
            _assert_bitwise(got, want)

    def test_affinity_mask_sets_the_thread_count(self, instance, monkeypatch):
        """Unpatched worker count (one CPU under ``taskset -c 0``, else
        several): never more than min(blocks, CPUs), same bits."""
        used = []
        count = threads.thread_workers

        def spy(tasks, width):
            used.append((tasks, count(tasks, width)))
            return used[-1][1]

        monkeypatch.setattr(threads, "MIN_THREAD_WIDTH", 1)
        monkeypatch.setattr(threads, "thread_workers", spy)
        monkeypatch.setattr(mechanisms_base, "LEVEL_BLOCK_CELLS", 2 * instance.num_voters)
        mechanism = ApprovalThreshold(1)
        got = mechanism.sample_forests_batch(instance, 9, 2)
        _assert_bitwise(got, mechanism._reference_sample_forests_batch(instance, 9, 2))
        cpus = len(os.sched_getaffinity(0))
        assert used == [(5, min(5, cpus))]

    def test_more_threads_than_cores_under_fast_switching(self, instance):
        """Four threads, one round per block, a thread switch every
        microsecond: a row written by the wrong thread would show."""
        mechanism = RandomApproved()
        root = np.random.SeedSequence(3)
        want = mechanism._reference_sample_forests_batch(instance, 24, root)
        values = _streamed_rounds(
            instance, mechanism, root, 0, 24, TiePolicy.INCORRECT, False, None, None
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _workers(4) as patch:
                patch.setattr(mechanisms_base, "LEVEL_BLOCK_CELLS", instance.num_voters)
                for _ in range(5):
                    _assert_bitwise(mechanism.sample_forests_batch(instance, 24, root), want)
                    got = _streamed_rounds(
                        instance, mechanism, root, 0, 24, TiePolicy.INCORRECT,
                        False, None, None,
                    )
                    assert got.tobytes() == values.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_broken_mover_mask_raises_through_the_pool(self):
        class Broken(RandomApproved):
            def _movers(self, compiled, voters=None):
                mask = super()._movers(compiled, voters)
                mask[compiled.approved_counts == 0] = True
                return mask

        competencies = np.full(6, 0.3)
        competencies[0] = 0.9
        instance = ProblemInstance(G.star_graph(6), competencies, alpha=0.05)
        for count in self.WORKERS:
            with _workers(count) as patch:
                patch.setattr(mechanisms_base, "LEVEL_BLOCK_CELLS", 6)
                with pytest.raises(RuntimeError, match="sink weights sum to"):
                    Broken().sample_forests_batch(instance, 5, 0)

    @pytest.mark.parametrize(
        "mechanism", [ApprovalThreshold(2), SampledNeighbourhood(1, d=4)]
    )
    def test_naive_values_equal_on_one_and_two_workers(self, instance, mechanism):
        """Fixed-mover (dense rows) and sampled (compressed rows) vote loops."""
        root = np.random.SeedSequence(21)
        values = []
        for count in (1, 2):
            with _workers(count):
                values.append(
                    _streamed_rounds(
                        instance, mechanism, root, 4, 37, TiePolicy.COIN_FLIP,
                        False, None, 10,
                    )
                )
        assert values[0].tobytes() == values[1].tobytes()

    @pytest.mark.parametrize("exact", [False, True])
    def test_estimates_equal_on_one_and_two_workers(self, instance, exact):
        estimates = []
        for count in (1, 2):
            with _workers(count) as patch:
                patch.setattr(mechanisms_base, "LEVEL_BLOCK_CELLS", 130)
                estimates.append(
                    BatchEstimator().estimate(
                        instance, FractionApproved(0.5), rounds=30, seed=4,
                        exact_conditional=exact,
                    )
                )
        assert estimates[0] == estimates[1]


class TestCompositionWeightGate:
    """The composition path checks weight rows like the fused kernel."""

    @staticmethod
    def _dropping_resolve(delegates):
        sink_of, weights = resolve_forests_batch(delegates)
        weights[-1, int(np.argmax(weights[-1]))] -= 1
        return sink_of, weights

    def test_dropped_vote_raises(self, monkeypatch):
        monkeypatch.setattr(mechanisms_base, "resolve_forests_batch", self._dropping_resolve)
        sparse = ProblemInstance(
            G.barabasi_albert_graph(40, 2, seed=1), _competencies("uniform", 40, 2),
            alpha=0.05,
        )
        complete = ProblemInstance(
            G.complete_graph(12), np.linspace(0.1, 0.9, 12), alpha=0.01
        )
        # SampledNeighbourhood has no fused kernel; RandomApproved on a
        # complete graph falls back to the composition.
        for mechanism, instance in (
            (SampledNeighbourhood(1, d=4), sparse),
            (RandomApproved(), complete),
        ):
            with pytest.raises(RuntimeError, match="round 6: sink weights sum to"):
                mechanism.sample_forests_batch(instance, 4, 0, first_round=3)
            # the oracle itself stays unchecked
            mechanism._reference_sample_forests_batch(instance, 4, 0, first_round=3)


class TestChunkSizing:
    """Streamed chunks are sized for the forest path that runs."""

    def test_level_path_keeps_eight_bytes_per_voter(self):
        n = 2000
        instance = ProblemInstance(
            G.barabasi_albert_graph(n, 3, seed=1), _competencies("uniform", n, 2),
            alpha=0.05,
        )
        assert instance.compiled().approval_levels() is not None
        for mechanism in (ApprovalThreshold(1), FractionApproved(0.5)):
            assert _auto_chunk_rounds(instance, mechanism) == CHUNK_BUDGET_BYTES // (8 * n)
            # Rao-Blackwellised chunks also hold the tails kernel's arrays.
            assert _auto_chunk_rounds(instance, mechanism, True) == (
                CHUNK_BUDGET_BYTES // ((8 + TAILS_BYTES_PER_VOTER) * n)
            )

    def test_composition_figure_is_unchanged(self):
        n = 400
        complete = ProblemInstance(
            G.complete_graph(n), _competencies("uniform", n, 3), alpha=0.05
        )
        assert complete.compiled().approval_levels() is None
        # uniform rows (float64), delegate row (int32) and three 8-byte
        # words of resolve scratch per voter
        assert _auto_chunk_rounds(complete, ApprovalThreshold(1)) == (
            CHUNK_BUDGET_BYTES // ((8 * 1 + 4 + 3 * 8) * n)
        )
        sparse = ProblemInstance(
            G.barabasi_albert_graph(n, 3, seed=1), _competencies("uniform", n, 2),
            alpha=0.05,
        )
        assert _auto_chunk_rounds(sparse, SampledNeighbourhood(1, d=4)) == (
            CHUNK_BUDGET_BYTES // ((8 * 2 + 4 + 3 * 8) * n)
        )


class TestApprovalLevels:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(level_cases())
    def test_matches_longest_path_oracle(self, instance):
        compiled = instance.compiled()
        got, want = compiled.approval_levels(), _reference_approval_levels(compiled)
        assert (got is None) == (want is None)
        if got is not None:
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(level_cases(), MECHANISMS, st.integers(0, 10**6))
    def test_delegations_descend_to_approved_neighbours(self, instance, mechanism, seed):
        compiled = instance.compiled()
        levels = compiled.approval_levels()
        if levels is None:
            return
        delegates = mechanism.sample_delegations_batch(instance, 4, seed)
        sink_of, _ = resolve_forests_batch(delegates)
        sinks, weights = mechanism.sample_forests_batch(instance, 4, seed)
        indptr, indices = compiled.approved_csr()
        for r, row in enumerate(delegates):
            for v in np.flatnonzero(row != SELF):
                t = int(row[v])
                assert levels.level[t] < levels.level[v]
                assert t in indices[indptr[v]:indptr[v + 1]]
                assert sink_of[r, v] == sink_of[r, t]
                assert v not in sinks
            assert np.array_equal(
                np.bincount(sink_of[r], minlength=instance.num_voters)[sinks],
                weights[r],
            )
        assert np.array_equal(weights.sum(axis=1), np.full(4, instance.num_voters))

    def test_chain_deeper_than_cap_is_none(self):
        n = 12  # cap: n.bit_length() + 1 = 5 levels
        shallow = ProblemInstance(G.path_graph(5), np.linspace(0.1, 0.9, 5), alpha=0.01)
        deep = ProblemInstance(G.path_graph(n), np.linspace(0.1, 0.9, n), alpha=0.01)
        levels = shallow.compiled().approval_levels()
        assert list(levels.level) == [4, 3, 2, 1, 0]
        assert list(levels.order) == [3, 2, 1, 0]
        assert deep.compiled().approval_levels() is None
        assert _reference_approval_levels(deep.compiled()) is None

    def test_complete_form_is_none(self):
        instance = ProblemInstance(G.complete_graph(8), np.linspace(0.1, 0.9, 8), alpha=0.01)
        assert instance.compiled()._structure.is_complete_form
        assert instance.compiled().approval_levels() is None

    def test_not_adopted_across_a_competency_patch(self):
        graph = G.barabasi_albert_graph(60, 2, seed=3)
        before = ProblemInstance(graph, _competencies("uniform", 60, 4), alpha=0.05)
        after = before.with_competencies(before.competencies[::-1].copy())
        table = before.compiled().approval_levels()
        mechanism = ApprovalThreshold(1)
        mechanism.sample_forests_batch(before, 2, 0)
        plan = _plans(before.compiled())[0]
        after.compiled().adopt_degree_tables(before.compiled())
        assert _plans(after.compiled()) == []
        got = after.compiled().approval_levels()
        assert got is not table
        for a, b in zip(got, _reference_approval_levels(after.compiled())):
            assert np.array_equal(a, b)
        mechanism.sample_forests_batch(after, 2, 0)
        assert _plans(after.compiled())[0] is not plan
        _assert_plan(mechanism, after)


class TestLevelPlan:
    """One plan per compiled instance, keyed by the mover mask's content."""

    @pytest.fixture
    def instance(self):
        graph = _with_isolated(G.barabasi_albert_graph(80, 3, seed=6), 2)
        p = 0.35 + 0.3 * _competencies("uniform", graph.num_vertices, 7)
        instance = ProblemInstance(graph, p, alpha=0.05)
        assert instance.compiled().approval_levels() is not None
        return instance

    @pytest.fixture
    def builds(self, monkeypatch):
        """Count plan builds: a memo miss calls ``_level_plan``."""
        calls = []
        build = mechanisms_base._level_plan

        def spy(*args):
            calls.append(args[-1].copy())
            return build(*args)

        monkeypatch.setattr(mechanisms_base, "_level_plan", spy)
        return calls

    def test_equal_masks_share_one_plan(self, instance, builds):
        compiled = instance.compiled()
        threshold, eager = ApprovalThreshold(1), RandomApproved()
        assert np.array_equal(threshold._movers(compiled), eager._movers(compiled))
        threshold.sample_forests_batch(instance, 3, 1)
        eager.sample_forests_batch(instance, 3, 2)
        assert len(builds) == 1
        plans = _plans(compiled)
        assert len(plans) == 1
        levels = compiled.approval_levels()
        assert level_plan(compiled, levels, eager._movers(compiled)) is plans[0]

    def test_a_new_mask_replaces_the_plan(self, instance, builds):
        compiled = instance.compiled()
        eager, strict = RandomApproved(), ApprovalThreshold(3)
        assert not np.array_equal(eager._movers(compiled), strict._movers(compiled))
        eager.sample_forests_batch(instance, 2, 0)
        first = _plans(compiled)
        strict.sample_forests_batch(instance, 2, 0)
        second = _plans(compiled)
        assert len(first) == len(second) == 1
        assert second[0] is not first[0]
        eager.sample_forests_batch(instance, 2, 0)
        assert len(builds) == 3
        assert len(_plans(compiled)) == 1
        assert len(compiled._memo) == len(set(compiled._memo))

    def test_arrays_are_read_only(self, instance):
        FractionApproved(0.5).sample_forests_batch(instance, 2, 0)
        (plan,) = _plans(instance.compiled())
        for array in (plan.sinks, plan.movers, plan.counts, plan.starts, plan.targets):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0

    def test_callable_threshold_hits_the_memo(self, instance, builds):
        for mechanism in (
            ApprovalThreshold(lambda d: d ** 0.5 / 2),
            ApprovalThreshold(lambda d: d ** 0.5 / 2),
            ApprovalThreshold(lambda d: d ** 0.5 / 2),
        ):
            got = mechanism.sample_forests_batch(instance, 4, 3)
            _assert_bitwise(got, mechanism._reference_sample_forests_batch(instance, 4, 3))
        assert len(builds) == 1

    def test_broken_mask_lands_on_the_spare_slot(self):
        competencies = np.full(6, 0.3)
        competencies[0] = 0.9
        instance = ProblemInstance(G.star_graph(6), competencies, alpha=0.05)
        compiled = instance.compiled()
        mask = _BrokenMask()._movers(compiled)
        plan = level_plan(compiled, compiled.approval_levels(), mask)
        # The hub moves but has no approved neighbour: it is outside the
        # level order, so every leaf's one target is the spare slot.
        assert plan.sinks.size == 0
        assert plan.movers.tolist() == [1, 2, 3, 4, 5]
        assert plan.targets.tolist() == [0] * 5
        _assert_plan(_BrokenMask(), instance)
        with pytest.raises(RuntimeError, match="sink weights sum to 0, not 6"):
            _BrokenMask().sample_forests_batch(instance, 1, 0)


class TestMoverMask:
    @settings(max_examples=40, deadline=None)
    @given(st.one_of(level_cases(), complete_cases()), MECHANISMS)
    def test_fixed_sinks_are_the_unapproved_non_movers(self, instance, mechanism):
        movers = mechanism._movers(instance.compiled())
        approved = {
            int(u)
            for v in np.flatnonzero(movers)
            for u in instance.local_view(int(v)).approved
        }
        want = [
            v for v in range(instance.num_voters)
            if not movers[v] and v not in approved
        ]
        got = mechanism.fixed_sinks(instance)
        assert got.dtype == np.int64
        assert got.tolist() == want

    @settings(max_examples=40, deadline=None)
    @given(level_cases(), MECHANISMS, st.integers(0, 10**6))
    def test_subset_mask_is_full_mask_restricted(self, instance, mechanism, seed):
        compiled = instance.compiled()
        voters = np.random.default_rng(seed).permutation(instance.num_voters)[:5]
        full = mechanism._movers(compiled)
        assert np.array_equal(mechanism._movers(compiled, voters), full[voters])
        views = [instance.local_view(v) for v in range(instance.num_voters)]
        expected = [bool(view.approved) and mechanism.should_delegate(view) for view in views]
        assert list(full) == expected
