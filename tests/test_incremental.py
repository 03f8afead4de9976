"""Property suite for the incremental delta engine.

The package-wide contract: every patched quantity is **bitwise** the
from-scratch rebuild on the final instance.  The suite drives random
edit chains (rewires, competency updates, joins, leaves) over four
topologies under both value engines, comparing the session's retained
state and estimates against a fresh session after every batch; kernels
are fuzzed directly against their ``_reference`` oracles; and the
even-length-cycle regression (pointer doubling collapses ``x→y→x`` to a
spurious fixed point) is pinned for the delta resolver.
"""

import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import EstimateCache
from repro.core.competencies import bounded_uniform_competencies
from repro.core.instance import ProblemInstance
from repro.core.structure import ApprovalStructure
from repro.delegation.graph import SELF, DelegationCycleError
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    random_regular_graph,
    star_graph,
)
from repro.incremental import DeltaSession, Join, Leave, Rewire, SetCompetency
from repro.incremental.forest import (
    _reference_patch_forests_delta,
    patch_forests_delta,
    sink_weight_deltas,
)
from repro.incremental.session import ENGINES
from repro.incremental.structure import (
    _reference_approved_csr_delta,
    approved_csr_delta,
    patched_instance,
)
from repro.incremental.tails import (
    _reference_pmf_tree_delta,
    block_bounds,
    default_blocks,
    pmf_tree_build,
    pmf_tree_delta,
    tree_root,
)
from repro.mechanisms.threshold import ApprovalThreshold
from repro.voting.exact import _FFT_MIN, weighted_bernoulli_pmf

TOPOLOGIES = {
    "complete": lambda: complete_graph(20),
    "regular": lambda: random_regular_graph(40, 6, seed=1),
    "erdos_renyi": lambda: erdos_renyi_graph(50, 0.12, seed=2),
    "cycle": lambda: cycle_graph(36),
}


def _adjacency_sets(graph):
    indptr, indices = graph.adjacency_csr()
    return [
        set(int(w) for w in indices[indptr[v]:indptr[v + 1]])
        for v in range(graph.num_vertices)
    ]


def _random_edit(rng, instance, *, structural, kind=None):
    """One valid random edit against ``instance``'s current state
    (of ``kind`` when given, else a random kind)."""
    n = instance.num_voters
    adj = _adjacency_sets(instance.graph)
    kinds = ["rewire", "competency"]
    if structural:
        kinds += ["join"] + (["leave"] if n > 8 else [])
    if kind is None:
        kind = kinds[rng.integers(len(kinds))]
    if kind == "rewire":
        candidates = [v for v in range(n) if adj[v] and len(adj[v]) < n - 1]
        if not candidates:
            kind = "competency"
        else:
            v = candidates[rng.integers(len(candidates))]
            old = sorted(adj[v])[rng.integers(len(adj[v]))]
            free = [w for w in range(n) if w != v and w not in adj[v]]
            new = free[rng.integers(len(free))]
            return Rewire(voter=v, add=(new,), remove=(old,))
    if kind == "competency":
        return SetCompetency(
            voter=int(rng.integers(n)),
            competency=float(rng.uniform(0.1, 0.9)),
        )
    if kind == "join":
        size = int(rng.integers(1, min(5, n)))
        nbrs = tuple(int(v) for v in rng.choice(n, size=size, replace=False))
        return Join(neighbors=nbrs, competency=float(rng.uniform(0.2, 0.8)))
    return Leave(voter=int(rng.integers(n)))


def _fresh_session(instance, mechanism, *, rounds, engine):
    rebuilt = ProblemInstance(
        instance.graph, instance.competencies, alpha=instance.alpha
    )
    return DeltaSession(
        rebuilt, mechanism, rounds=rounds, seed=3, engine=engine,
    )


def _assert_state_bitwise(session, fresh, engine):
    # Structural invariants of the patched state: every round's sink
    # weights sum to n, and every voter votes itself (SELF) or delegates
    # to a neighbour it approves in the current instance.
    n = session.num_voters
    assert np.array_equal(session._weights.sum(axis=1), np.full(session.rounds, n))
    for voter in range(n):
        allowed = {SELF, *session.instance.approved_neighbors(voter)}
        assert set(session._delegates[:, voter].tolist()) <= allowed
    assert np.array_equal(session._sinks_flat, fresh._sinks_flat)
    assert np.array_equal(session._weights, fresh._weights)
    assert np.array_equal(session.per_round_values(), fresh.per_round_values())
    if engine == "mc":
        assert np.array_equal(session._votes, fresh._votes)
        assert np.array_equal(session._correct, fresh._correct)
    a, b = session.estimate(), fresh.estimate()
    assert a.probability == b.probability
    assert a.std_error == b.std_error
    assert a.rounds == b.rounds


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_random_edit_chain_bitwise(topology, engine):
    """Random chains (incl. joins/leaves) stay bitwise a fresh session."""
    graph = TOPOLOGIES[topology]()
    n = graph.num_vertices
    instance = ProblemInstance(
        graph, bounded_uniform_competencies(n, 0.35, seed=7), alpha=0.05
    )
    mechanism = ApprovalThreshold(2)
    rounds = 12 if engine == "mc" else 6
    session = DeltaSession(
        instance, mechanism, rounds=rounds, seed=3, engine=engine
    )
    rng = np.random.default_rng(
        sum(map(ord, topology)) * 1009 + sum(map(ord, engine))
    )
    for step in range(6):
        structural = step in (2, 4)
        batch = []
        mirror = session.instance
        for _ in range(int(rng.integers(1, 4))):
            edit = _random_edit(rng, mirror, structural=structural)
            mirror, _ = patched_instance(mirror, [edit])
            batch.append(edit)
        session.apply(batch)
        fresh = _fresh_session(
            session.instance, mechanism, rounds=rounds, engine=engine
        )
        _assert_state_bitwise(session, fresh, engine)
    assert session.patch_stats["edit_batches"] == 6
    assert session.patch_stats["full_rebuilds"] >= 1


@pytest.mark.parametrize("engine", ENGINES)
def test_patch_stats_pure_churn(engine):
    """Pure rewire/competency chains never trigger a rebuild."""
    graph = random_regular_graph(40, 6, seed=1)
    instance = ProblemInstance(
        graph, bounded_uniform_competencies(40, 0.35, seed=7), alpha=0.05
    )
    session = DeltaSession(
        instance, ApprovalThreshold(2), rounds=8, seed=3, engine=engine
    )
    rng = np.random.default_rng(5)
    for _ in range(4):
        edit = _random_edit(rng, session.instance, structural=False)
        session.apply([edit])
    assert session.patch_stats["full_rebuilds"] == 0
    assert session.patch_stats["edit_batches"] == 4


def _dense_weight_fold(weights, pending_moves):
    """The signed-bincount fold the sparse scatter replaced."""
    old = np.concatenate([m[0] for m in pending_moves])
    new = np.concatenate([m[1] for m in pending_moves])
    moves = np.concatenate((old, new))
    signs = np.concatenate((np.full(old.size, -1.0), np.full(new.size, 1.0)))
    w_delta = np.bincount(moves, weights=signs, minlength=weights.size)
    out = weights.copy()
    w_flat = out.reshape(-1)
    np.add(w_flat, w_delta, out=w_flat, casting="unsafe")
    return out


def _check_weight_fold(session):
    """Flush ``session``'s pending moves; compare with the dense fold."""
    pending = list(session._pending_moves)
    before = session._weights_arr.copy()
    want = _dense_weight_fold(before, pending) if pending else before
    session._flush_weights()
    assert session._pending_moves == []
    assert session._weights_arr.dtype == np.int64
    assert np.array_equal(session._weights_arr, want)
    return sum(old.size for old, _new in pending)


def test_weight_fold_matches_dense_bincount():
    """The sparse scatter of pending weight moves equals the dense fold,
    for an empty flush, several pending batches and a hub rewire."""
    n = 200
    graph = star_graph(n)
    comp = bounded_uniform_competencies(n, 0.35, seed=7).copy()
    comp[0] = 0.99  # every leaf approves the hub
    instance = ProblemInstance(graph, comp, alpha=0.05)
    session = DeltaSession(
        instance, ApprovalThreshold(1), rounds=8, seed=3, engine="mc"
    )
    assert _check_weight_fold(session) == 0

    rng = np.random.default_rng(5)
    for _ in range(3):
        leaf = int(rng.integers(1, n))
        other = int(rng.integers(1, n))
        if other != leaf:
            session.apply([Rewire(voter=leaf, add=(other,))])
    session.apply([Rewire(voter=1, remove=(0,))])
    assert len(session._pending_moves) >= 2
    _check_weight_fold(session)

    # Cutting the hub from half the leaves moves every cut leaf's vote
    # in every round.
    session.apply([Rewire(voter=0, remove=tuple(range(2, n, 2)))])
    moved = _check_weight_fold(session)
    assert moved >= session.rounds * (n // 2 - 1)
    fresh = _fresh_session(
        session.instance, ApprovalThreshold(1), rounds=8, engine="mc"
    )
    assert np.array_equal(session._weights, fresh._weights)


def test_instances_free_without_the_cycle_collector():
    """Compiled and patched instances die on ``del`` by reference count:
    no compiled view or approval structure points back at its instance."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        graph = random_regular_graph(40, 6, seed=1)
        instance = ProblemInstance(
            graph, bounded_uniform_competencies(40, 0.35, seed=7), alpha=0.05
        )
        instance.compiled()
        patched, dirty = patched_instance(
            instance, [SetCompetency(voter=3, competency=0.9)]
        )
        assert dirty is not None
        patched.compiled()
        refs = (weakref.ref(instance), weakref.ref(patched))
        del instance, patched
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


TRIAL_KINDS = ("rewire", "competency", "join", "leave", "mixed", "hub", "bad")


def _four_leaf_trees():
    """Exact merge trees get four leaves while this is active, so trials
    on these small instances replace inner nodes."""
    return mock.patch("repro.incremental.session.default_blocks", lambda n: 4)


def _trial_setup(kind, engine):
    """(instance, mechanism, session params) for a trial of ``kind``: hub
    trials run on a star whose every leaf approves the competent hub."""
    params = {"rounds": 8, "engine": engine}
    if engine == "exact":
        params.update(rounds=4)
    if kind == "hub":
        comp = bounded_uniform_competencies(30, 0.35, seed=7).copy()
        comp[0] = 0.99
        return ProblemInstance(star_graph(30), comp, alpha=0.05), ApprovalThreshold(1), params
    graph = random_regular_graph(40, 6, seed=1)
    comp = bounded_uniform_competencies(40, 0.35, seed=7)
    return ProblemInstance(graph, comp, alpha=0.05), ApprovalThreshold(2), params


def _trial_edits(rng, instance, kind):
    """One trial batch of ``kind`` against ``instance``."""
    if kind == "hub":  # cut the hub from every other leaf it still has
        return [Rewire(voter=0, remove=tuple(sorted(_adjacency_sets(instance.graph)[0])[::2]))]
    if kind == "bad":  # a valid edit, then an edge that does not exist
        adj = _adjacency_sets(instance.graph)[0]
        absent = next(w for w in range(1, instance.num_voters) if w not in adj)
        edit = _random_edit(rng, instance, structural=False)
        return [edit, Rewire(voter=0, remove=(absent,))]
    batch = []
    mirror = instance
    for _ in range(int(rng.integers(1, 4))):
        edit = _random_edit(
            rng, mirror, structural=kind == "mixed",
            kind=None if kind == "mixed" else kind,
        )
        mirror, _ = patched_instance(mirror, [edit])
        batch.append(edit)
    return batch


@_four_leaf_trees()
@settings(max_examples=40, deadline=None)
@given(
    engine=st.sampled_from(ENGINES),
    kind=st.sampled_from(TRIAL_KINDS),
    seed=st.integers(0, 2**32 - 1),
    kept=st.integers(0, 2),
    flush=st.booleans(),
)
def test_trial_restores_state_bitwise(engine, kind, seed, kept, flush):
    """Inside a trial the session is ``apply``'s; after it, bitwise the
    pre-trial session — with kept batches pending before it, weights
    flushed inside it, and a batch whose ``apply`` raises."""
    instance, mechanism, params = _trial_setup(kind, engine)
    rng = np.random.default_rng(seed)
    session = DeltaSession(instance, mechanism, seed=3, **params)
    for _ in range(kept):  # kept rewires leave weight moves pending
        session.apply([_random_edit(rng, session.instance, structural=False, kind="rewire")])
    pre, chain = session.instance, session.chain_digest()
    batch = _trial_edits(rng, pre, kind)
    if kind == "bad":
        with pytest.raises(ValueError, match="does not exist"):
            with session.trial(batch):
                pass
    else:
        with session.trial(batch):
            if flush:
                session._flush_weights()
            inside = session.estimate()
        want = _fresh_session(pre, mechanism, **params).apply(batch).estimate()
        assert (inside.probability, inside.std_error, inside.rounds) == (
            want.probability, want.std_error, want.rounds,
        )
    assert session.instance is pre
    assert session.chain_digest() == chain
    _assert_state_bitwise(session, _fresh_session(pre, mechanism, **params), engine)


@_four_leaf_trees()
@pytest.mark.parametrize("engine", ENGINES)
def test_trial_undoes_a_patch_that_raises_midway(engine, monkeypatch):
    """A fault after the delegate columns are written is undone too."""
    instance, mechanism, params = _trial_setup("hub", engine)
    session = DeltaSession(instance, mechanism, seed=3, **params)
    batch = _trial_edits(np.random.default_rng(0), instance, "hub")

    def fail(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr("repro.incremental.session.patch_forests_delta", fail)
    with pytest.raises(RuntimeError, match="injected"):
        with session.trial(batch):
            pass
    monkeypatch.undo()
    _assert_state_bitwise(session, _fresh_session(instance, mechanism, **params), engine)


@_four_leaf_trees()
@pytest.mark.parametrize("engine", ENGINES)
def test_trial_patch_stats_count_the_apply_not_the_undo(engine):
    """``patch_stats`` count a trial's apply exactly as ``apply`` counts
    the same batch, and nothing for the undo; trials do not nest."""
    instance, mechanism, params = _trial_setup("hub", engine)
    batch = _trial_edits(np.random.default_rng(0), instance, "hub")
    session = DeltaSession(instance, mechanism, seed=3, **params)
    with session.trial(batch):
        with pytest.raises(RuntimeError, match="do not nest"):
            with session.trial(batch):
                pass
    applied = DeltaSession(instance, mechanism, seed=3, **params).apply(batch)
    assert session.patch_stats == applied.patch_stats
    assert session.patch_stats["affected_voters"] > 0
    assert session.edit_batches() == []


def test_trial_estimates_key_by_kept_chain_plus_move(tmp_path):
    """A cached trial estimate is stored under the kept chain plus the
    trial batch — the key ``apply`` of that batch on a fresh session
    looks up — and a trial repeated after undo hits it."""
    instance, mechanism, params = _trial_setup("rewire", "mc")
    rng = np.random.default_rng(4)
    kept = [_random_edit(rng, instance, structural=False, kind="rewire")]
    cache = EstimateCache(tmp_path)
    session = DeltaSession(instance, mechanism, seed=3, cache=cache, **params)
    session.apply(kept)
    batch = [_random_edit(rng, session.instance, structural=False, kind="competency")]
    for _ in range(2):
        with session.trial(batch):
            inside = session.estimate()
    assert (cache.hits, cache.misses) == (1, 1)
    replay = DeltaSession(instance, mechanism, seed=3, cache=cache, **params)
    assert replay.apply(kept).apply(batch).estimate().probability == inside.probability
    assert (cache.hits, cache.misses) == (2, 1)


def test_reset_chain_needs_a_chain_that_nets_out():
    instance, mechanism, params = _trial_setup("rewire", "mc")
    session = DeltaSession(instance, mechanism, seed=3, **params)
    session.apply([SetCompetency(voter=3, competency=0.9)])
    with pytest.raises(ValueError, match="net out"):
        session.reset_chain()
    session.apply([SetCompetency(voter=3, competency=float(instance.competencies[3]))])
    session.reset_chain()
    assert session.instance is instance and session.edit_batches() == []
    _assert_state_bitwise(session, _fresh_session(instance, mechanism, **params), "mc")


def test_spliced_structure_matches_rebuilt():
    """The spliced approved CSR is bitwise the global builder's, dtype too."""
    graph = erdos_renyi_graph(50, 0.12, seed=2)
    instance = ProblemInstance(
        graph, bounded_uniform_competencies(50, 0.35, seed=7), alpha=0.05
    )
    session = DeltaSession(
        instance, ApprovalThreshold(2), rounds=4, seed=3, engine="mc"
    )
    rng = np.random.default_rng(11)
    for _ in range(5):
        session.apply([_random_edit(rng, session.instance, structural=False)])
    current = session.instance
    structure = current.approval_structure()
    got_ptr, got_idx = structure._indptr, structure._indices
    ref_ptr, ref_idx = ApprovalStructure._general_csr(
        current.graph, current.competencies, current.alpha
    )
    assert np.array_equal(got_ptr, ref_ptr)
    assert np.array_equal(got_idx, ref_idx)
    assert got_idx.dtype == ref_idx.dtype


# -- kernel fuzz vs oracles -----------------------------------------------


def _random_forest(rng, rounds, n):
    deleg = np.full((rounds, n), SELF, dtype=np.int64)
    for r in range(rounds):
        order = rng.permutation(n)
        for i, v in enumerate(order[1:], 1):
            if rng.random() < 0.6:
                deleg[r, v] = order[rng.integers(0, i)]
    return deleg


def _perturb(rng, deleg):
    """Random delegate changes; returns (new_deleg, rows, cols)."""
    rounds, n = deleg.shape
    new_deleg = deleg.copy()
    rows, cols = [], []
    for _ in range(int(rng.integers(1, max(2, n // 2)))):
        r, v = int(rng.integers(rounds)), int(rng.integers(n))
        others = np.flatnonzero(np.arange(n) != v)
        new_deleg[r, v] = (
            SELF if rng.random() < 0.3 else int(rng.choice(others))
        )
        rows.append(r)
        cols.append(v)
    return new_deleg, np.array(rows), np.array(cols)


@pytest.mark.parametrize("use_scratch", [False, True])
def test_patch_forests_delta_matches_oracle(use_scratch):
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(40):
        rounds, n = int(rng.integers(1, 5)), int(rng.integers(4, 40))
        deleg = _random_forest(rng, rounds, n)
        sinks_flat, _ = _reference_patch_forests_delta(deleg)
        new_deleg, rows, cols = _perturb(rng, deleg)
        scratch = None
        if use_scratch:
            scratch = np.full(rounds * n, -99, dtype=np.int32)
        try:
            ref_flat, ref_weights = _reference_patch_forests_delta(new_deleg)
        except DelegationCycleError:
            with pytest.raises(DelegationCycleError):
                patch_forests_delta(
                    new_deleg, sinks_flat.copy(), rows, cols,
                    pos_scratch=scratch,
                )
            continue
        got = sinks_flat.copy()
        got, affected, old_s, new_s, patched = patch_forests_delta(
            new_deleg, got, rows, cols, pos_scratch=scratch
        )
        assert np.array_equal(got, ref_flat)
        # voters outside the affected set keep their old sink
        clean = np.setdiff1d(np.arange(rounds * n), affected)
        assert np.array_equal(ref_flat[clean], sinks_flat[clean])
        assert patched == np.unique(rows).size
        assert np.array_equal(old_s, sinks_flat[affected])
        assert np.array_equal(new_s, got[affected])
        # the sparse weight deltas reproduce the dense weight diff
        keys, deltas, bounds = sink_weight_deltas(old_s, new_s, rounds, n)
        dense = np.zeros(rounds * n, dtype=np.int64)
        dense[keys] = deltas
        base_weights = _reference_patch_forests_delta(deleg)[1]
        assert np.array_equal(
            base_weights.reshape(-1) + dense, ref_weights.reshape(-1)
        )
        for r in range(rounds):
            lo, hi = int(bounds[r]), int(bounds[r + 1])
            assert np.all(keys[lo:hi] >= r * n)
            assert np.all(keys[lo:hi] < (r + 1) * n)
        checked += 1
    assert checked >= 10


def test_patch_forests_delta_rejects_non_flat_state():
    deleg = np.array([[SELF, 0]], dtype=np.int64)
    with pytest.raises(ValueError, match="flat int64"):
        patch_forests_delta(
            deleg,
            np.zeros((1, 2), dtype=np.int64),
            np.array([0]),
            np.array([1]),
        )


def test_approved_csr_delta_matches_oracle():
    rng = np.random.default_rng(24)
    graph = erdos_renyi_graph(40, 0.15, seed=5)
    comp = bounded_uniform_competencies(40, 0.35, seed=6)
    instance = ProblemInstance(graph, comp, alpha=0.05)
    structure = instance.approval_structure()
    new_comp = comp.copy()
    dirty = rng.choice(40, size=9, replace=False)
    new_comp[dirty] = rng.uniform(0.1, 0.9, size=9)
    # every voter approving a changed voter is dirty too
    indptr, indices = graph.adjacency_csr()
    dirty_mask = np.zeros(40, dtype=bool)
    dirty_mask[dirty] = True
    sources = np.flatnonzero(
        np.bincount(
            np.repeat(np.arange(40), np.diff(indptr)),
            weights=dirty_mask[indices],
            minlength=40,
        )
    )
    all_dirty = np.union1d(dirty, sources)
    got_ptr, got_idx = approved_csr_delta(
        structure, graph, new_comp, 0.05, all_dirty
    )
    ref_ptr, ref_idx = _reference_approved_csr_delta(graph, new_comp, 0.05)
    assert np.array_equal(got_ptr, ref_ptr)
    assert np.array_equal(got_idx, ref_idx)
    assert got_idx.dtype == ref_idx.dtype


# -- even-length cycle regression -----------------------------------------


@pytest.mark.parametrize(
    "delegates, changed",
    [
        ([1, 0, SELF], [0, 1]),  # 2-cycle
        ([1, 2, 0, SELF], [0, 1, 2]),  # 3-cycle
        ([2, SELF, 3, 2], [2, 3]),  # 2-cycle at the end of a chain
    ],
)
def test_patch_forests_delta_cycles_raise(delegates, changed):
    row = np.asarray(delegates, dtype=np.int64)
    n = row.size
    base = np.full(n, SELF, dtype=np.int64)
    sinks_flat, _ = _reference_patch_forests_delta(base[None, :])
    state = sinks_flat.copy()
    with pytest.raises(DelegationCycleError):
        patch_forests_delta(
            row[None, :],
            state,
            np.zeros(len(changed), dtype=np.int64),
            np.asarray(changed, dtype=np.int64),
        )
    # a failed patch must not corrupt the retained state
    assert np.array_equal(state, sinks_flat)


# -- exact engine ----------------------------------------------------------


def test_exact_trees_match_pmf_oracle():
    """Patched merge-tree roots equal the direct Poisson-binomial PMF."""
    graph = random_regular_graph(32, 6, seed=4)
    instance = ProblemInstance(
        graph, bounded_uniform_competencies(32, 0.35, seed=7), alpha=0.05
    )
    session = DeltaSession(
        instance, ApprovalThreshold(2), rounds=4, seed=3, engine="exact"
    )
    rng = np.random.default_rng(31)
    for _ in range(3):
        session.apply(
            [_random_edit(rng, session.instance, structural=False)]
        )
    comp = session.instance.competencies
    weights = session._weights
    for r in range(session.rounds):
        root = tree_root(session._trees[r])
        ref = weighted_bernoulli_pmf(weights[r], comp)
        assert root.shape == ref.shape
        np.testing.assert_allclose(root, ref, rtol=0, atol=1e-12)


def test_pmf_tree_patch_matches_scratch_above_crossover():
    """Dirty-path re-merges equal a scratch build node by node at a size
    whose upper merges take the real-FFT branch of the merge rule."""
    n = 8192
    rng = np.random.default_rng(11)
    weights = rng.integers(0, 4, n)
    probs = rng.uniform(0.2, 0.8, n)
    bounds = block_bounds(n, default_blocks(n))
    levels = pmf_tree_build(weights, probs, bounds)
    # The root merge is a lone pair: FFT above 4 * _FFT_MIN entries.
    assert min(len(node) for node in levels[-2]) > 4 * _FFT_MIN
    for _ in range(3):
        cols = np.sort(rng.choice(n, size=6, replace=False))
        probs = probs.copy()
        weights = weights.copy()
        probs[cols] = rng.uniform(0.2, 0.8, cols.size)
        weights[cols[:3]] = rng.integers(0, 4, 3)
        pmf_tree_delta(levels, weights, probs, bounds, cols)
        scratch = _reference_pmf_tree_delta(weights, probs, bounds)
        assert [len(level) for level in levels] == [len(level) for level in scratch]
        for got, want in zip(levels, scratch):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


# -- estimates, cache, adaptive -------------------------------------------


def test_cache_warm_replay(tmp_path):
    """Replaying an edit chain against a shared cache hits warm entries."""
    graph = random_regular_graph(40, 6, seed=1)
    instance = ProblemInstance(
        graph, bounded_uniform_competencies(40, 0.35, seed=7), alpha=0.05
    )
    mechanism = ApprovalThreshold(2)
    adj = _adjacency_sets(graph)
    old = sorted(adj[0])[0]
    new = next(w for w in range(1, 40) if w not in adj[0] and w != 0)
    batch = [Rewire(voter=0, add=(new,), remove=(old,)),
             SetCompetency(voter=3, competency=0.5)]
    cache = EstimateCache(tmp_path)
    first = DeltaSession(
        instance, mechanism, rounds=8, seed=3, engine="mc", cache=cache
    )
    cold = first.apply(batch).estimate()
    replay = DeltaSession(
        instance, mechanism, rounds=8, seed=3, engine="mc", cache=cache
    )
    warm = replay.apply(batch).estimate()
    assert warm.probability == cold.probability
    assert warm.std_error == cold.std_error
    stats = cache.stats()
    assert stats["by_op"]["delta"]["hits"] >= 1
    assert first.chain_digest() == replay.chain_digest()


def test_adaptive_estimate_replays_stopping_rule():
    """Warm-start adaptive estimates equal a fresh session's, bitwise."""
    graph = erdos_renyi_graph(50, 0.12, seed=2)
    instance = ProblemInstance(
        graph, bounded_uniform_competencies(50, 0.35, seed=7), alpha=0.05
    )
    mechanism = ApprovalThreshold(2)
    session = DeltaSession(
        instance, mechanism, rounds=16, seed=3, engine="mc"
    )
    rng = np.random.default_rng(41)
    session.apply([_random_edit(rng, session.instance, structural=False)])
    session.apply([SetCompetency(voter=5, competency=0.7)])
    fresh = _fresh_session(
        session.instance, mechanism, rounds=16, engine="mc"
    )
    a = session.estimate(rounds=4, target_se=0.05, max_rounds=16)
    b = fresh.estimate(rounds=4, target_se=0.05, max_rounds=16)
    assert a.probability == b.probability
    assert a.std_error == b.std_error
    assert a.rounds == b.rounds


def test_estimate_beyond_retained_rounds_raises():
    graph = random_regular_graph(40, 6, seed=1)
    instance = ProblemInstance(
        graph, bounded_uniform_competencies(40, 0.35, seed=7), alpha=0.05
    )
    session = DeltaSession(
        instance, ApprovalThreshold(2), rounds=4, seed=3, engine="mc"
    )
    with pytest.raises(ValueError, match="retains 4 rounds"):
        session.estimate(rounds=5)
    with pytest.raises(ValueError, match="retains 4 rounds"):
        session.estimate(target_se=0.001, max_rounds=64)
