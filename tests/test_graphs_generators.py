"""Tests for graph generators."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graphs import generators as generators_module
from repro.graphs.generators import (
    _graph_from_edge_array,
    _reference_barabasi_albert_graph,
    barabasi_albert_graph,
    complete_graph,
    connected_caveman_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    random_bounded_degree_graph,
    random_min_degree_graph,
    random_regular_graph,
    star_graph,
    star_of_cliques_graph,
    watts_strogatz_graph,
)
from repro.graphs.graph import PAIR_KEY_MAX_N, Graph
from repro.graphs.properties import is_connected


def _csr_sha256(graph):
    indptr, indices = graph.adjacency_csr()
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(indices, dtype=np.int64).tobytes())
    return h.hexdigest()


class TestCompleteGraph:
    def test_edge_count(self):
        g = complete_graph(6)
        assert g.num_edges == 15
        assert g.is_complete()

    def test_trivial_sizes(self):
        assert complete_graph(0).num_edges == 0
        assert complete_graph(1).num_edges == 0
        assert complete_graph(2).num_edges == 1


class TestStarGraph:
    def test_structure(self):
        g = star_graph(5)
        assert g.degree(0) == 4
        assert all(g.degree(v) == 1 for v in range(1, 5))

    def test_custom_centre(self):
        g = star_graph(5, centre=2)
        assert g.degree(2) == 4

    def test_single_vertex(self):
        assert star_graph(1).num_edges == 0

    def test_rejects_bad_centre(self):
        with pytest.raises(ValueError):
            star_graph(5, centre=5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            star_graph(0)


class TestCyclePathGrid:
    def test_cycle_regular(self):
        g = cycle_graph(7)
        assert g.is_regular()
        assert g.degree(0) == 2
        assert g.num_edges == 7

    def test_cycle_min_size(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_path_degrees(self):
        g = path_graph(5)
        assert g.degree(0) == 1
        assert g.degree(2) == 2
        assert g.num_edges == 4

    def test_grid_shape(self):
        g = grid_graph(3, 4)
        assert g.num_vertices == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical
        assert g.max_degree() == 4 or g.max_degree() == 3  # interior exists for 3x4? 3x4 has interior
        assert is_connected(g)

    def test_grid_1x1(self):
        assert grid_graph(1, 1).num_vertices == 1


class TestRandomRegular:
    @pytest.mark.parametrize("n,d", [(10, 3), (50, 4), (100, 16), (64, 63)])
    def test_regularity(self, n, d):
        g = random_regular_graph(n, d, seed=0)
        assert g.num_vertices == n
        assert all(deg == d for deg in g.degrees())

    def test_d_zero(self):
        assert random_regular_graph(5, 0).num_edges == 0

    def test_rejects_odd_product(self):
        with pytest.raises(ValueError, match="even"):
            random_regular_graph(5, 3)

    def test_rejects_d_too_large(self):
        with pytest.raises(ValueError):
            random_regular_graph(5, 5)

    def test_deterministic_with_seed(self):
        a = random_regular_graph(20, 4, seed=1)
        b = random_regular_graph(20, 4, seed=1)
        assert a == b

    def test_different_seeds_vary(self):
        a = random_regular_graph(40, 4, seed=1)
        b = random_regular_graph(40, 4, seed=2)
        assert a != b


class TestErdosRenyi:
    def test_p_zero_empty(self):
        assert erdos_renyi_graph(20, 0.0, seed=0).num_edges == 0

    def test_p_one_complete(self):
        assert erdos_renyi_graph(10, 1.0, seed=0).is_complete()

    def test_edge_count_plausible(self):
        g = erdos_renyi_graph(200, 0.1, seed=0)
        expected = 0.1 * 200 * 199 / 2
        assert 0.7 * expected < g.num_edges < 1.3 * expected

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            erdos_renyi_graph(5, 1.5)


class TestBarabasiAlbert:
    def test_sizes(self):
        g = barabasi_albert_graph(50, 3, seed=0)
        assert g.num_vertices == 50
        # star seed: m edges; each of the n-m-1 later vertices adds m edges.
        assert g.num_edges == 3 + (50 - 4) * 3

    def test_min_degree(self):
        g = barabasi_albert_graph(50, 2, seed=0)
        assert g.min_degree() >= 1

    def test_hub_emerges(self):
        g = barabasi_albert_graph(300, 2, seed=0)
        assert g.max_degree() > 4 * g.min_degree()

    def test_connected(self):
        assert is_connected(barabasi_albert_graph(100, 2, seed=1))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            barabasi_albert_graph(3, 3)

    def test_rejects_zero_m(self):
        with pytest.raises(ValueError):
            barabasi_albert_graph(5, 0)


@st.composite
def _ba_cases(draw):
    m = draw(st.integers(1, 10))
    n = draw(st.integers(m + 1, 3000))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, m, seed, draw(st.booleans())


class TestBarabasiAlbertOracle:
    """The incremental redraw sweeps are bitwise the full-array oracle."""

    @settings(max_examples=60, deadline=None)
    @given(_ba_cases())
    @example((4, 3, 0, False))  # star only: n = m + 1
    @example((11, 10, 5, True))  # star only at the largest m
    @example((12, 10, 1, False))  # m >= n/3: many redraw sweeps
    @example((25, 9, 7, True))
    @example((30, 10, 3, False))
    def test_matches_reference(self, case):
        n, m, seed, as_generator = case
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        seeds = rngs if as_generator else [seed, seed]
        outcomes = []
        for build, s in zip(
            (barabasi_albert_graph, _reference_barabasi_albert_graph), seeds
        ):
            try:
                g = build(n, m, seed=s)
            except RuntimeError as exc:
                outcomes.append(("raised", str(exc)))
            else:
                idx = g.adjacency_csr()[1]
                outcomes.append(("graph", _csr_sha256(g), idx.dtype))
        assert outcomes[0] == outcomes[1]
        if as_generator:
            # A caller's live generator is left in the same state.
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize(
        "n,m,seed,digest",
        [
            (2_000, 3, 11, "36fe6d18c12ca389c2c68cbb077e43f0ccfff3ba8fca7642e940f1622007290a"),
            (60, 20, 4, "7185f5935933234f6c8da4d23f2e6cab0cf9e5ac05c876d7be72a68ea5992cdf"),
            (100_000, 4, 0, "30e446ef28298629aace6d122526115fa45d2d4635983fe3636ff40219f51d16"),
        ],
    )
    def test_csr_pinned(self, n, m, seed, digest):
        assert _csr_sha256(barabasi_albert_graph(n, m, seed=seed)) == digest

    def test_redraw_cap_raises(self, monkeypatch):
        monkeypatch.setattr(generators_module, "_BA_MAX_REDRAW_ROUNDS", 1)
        # Step 0 draws 10 slots from a pool whose 20 cells hold vertex 0
        # ten times: the first draw collides and one sweep cannot finish.
        for build in (barabasi_albert_graph, _reference_barabasi_albert_graph):
            with pytest.raises(RuntimeError, match="failed to converge after 1 sweeps"):
                build(50, 10, seed=0)
        # m = 1 never redraws, so the cap does not bite.
        assert barabasi_albert_graph(50, 1, seed=0).num_edges == 49


@st.composite
def _simple_edge_arrays(draw):
    n = draw(st.integers(2, 60))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda uv: uv[0] != uv[1]
            ),
            max_size=200,
        )
    )
    seen, edges = set(), []
    for u, v in pairs:
        if (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            edges.append((u, v))
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    order = np.random.default_rng(draw(st.integers(0, 2**16))).permutation(len(edges))
    return n, edges[order]


class TestGraphFromEdgeArray:
    @settings(max_examples=80, deadline=None)
    @given(_simple_edge_arrays())
    def test_matches_edge_list_constructor(self, case):
        n, edges = case
        g = _graph_from_edge_array(n, edges)
        assert g == Graph(n, edges)
        indptr, indices = g.adjacency_csr()
        assert Graph.from_csr(n, indptr, indices, validate=True) == g

    def test_rejects_overflowing_keys(self):
        with pytest.raises(ValueError, match="overflow int64"):
            _graph_from_edge_array(PAIR_KEY_MAX_N + 1, np.array([[0, 1]]))


class TestWattsStrogatz:
    def test_no_rewire_is_ring_lattice(self):
        g = watts_strogatz_graph(20, 4, 0.0, seed=0)
        assert g.is_regular()
        assert g.degree(0) == 4

    def test_rewire_preserves_edge_count(self):
        g = watts_strogatz_graph(50, 6, 0.5, seed=0)
        assert g.num_edges == 50 * 3

    def test_rewire_degree_bounds(self):
        # Rewiring moves only the far endpoint of a clockwise edge, so
        # every vertex keeps its k/2 originating edges: min degree >=
        # k/2, and total degree stays n * k.
        for seed in range(3):
            g = watts_strogatz_graph(60, 6, 0.7, seed=seed)
            degrees = g.degrees()
            assert degrees.min() >= 3
            assert degrees.max() <= 59
            assert degrees.sum() == 60 * 6

    def test_rejects_odd_k(self):
        with pytest.raises(ValueError):
            watts_strogatz_graph(10, 3, 0.1)

    def test_rejects_n_le_k(self):
        with pytest.raises(ValueError):
            watts_strogatz_graph(4, 4, 0.1)


class TestCavemanAndCliqueStar:
    def test_caveman_size(self):
        g = connected_caveman_graph(4, 5)
        assert g.num_vertices == 20
        assert is_connected(g)

    def test_caveman_single_clique(self):
        g = connected_caveman_graph(1, 4)
        assert g.is_complete()

    def test_star_of_cliques(self):
        g = star_of_cliques_graph(3, 4)
        assert g.num_vertices == 13
        assert g.degree(0) == 3  # hub touches one member per clique
        assert is_connected(g)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            connected_caveman_graph(0, 3)
        with pytest.raises(ValueError):
            star_of_cliques_graph(2, 0)


class TestBoundedDegree:
    @pytest.mark.parametrize("delta", [2, 4, 16])
    def test_respects_bound(self, delta):
        g = random_bounded_degree_graph(100, delta, seed=0)
        assert g.max_degree() <= delta

    def test_connected_for_delta_ge_2(self):
        g = random_bounded_degree_graph(60, 3, seed=1)
        assert is_connected(g)

    def test_matching_for_delta_1(self):
        g = random_bounded_degree_graph(10, 1, seed=0)
        assert g.max_degree() <= 1

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            random_bounded_degree_graph(10, 0)


class TestMinDegree:
    @pytest.mark.parametrize("delta", [1, 3, 8])
    def test_respects_bound(self, delta):
        g = random_min_degree_graph(40, delta, seed=0)
        assert g.min_degree() >= delta

    def test_zero_min_degree(self):
        g = random_min_degree_graph(5, 0, seed=0)
        assert g.num_edges == 0

    def test_rejects_impossible(self):
        with pytest.raises(ValueError):
            random_min_degree_graph(5, 5)

    def test_deterministic(self):
        a = random_min_degree_graph(30, 4, seed=7)
        b = random_min_degree_graph(30, 4, seed=7)
        assert a == b
