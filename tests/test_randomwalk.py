"""Transition machinery, hitting times by three routes, and the bound."""

from __future__ import annotations

import hashlib
import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgetrf

from gcentral import randomwalk
from gcentral.cli import hitting_json, json_text
from gcentral.errors import InputError, NumericalError, TruncationError, check_memory
from gcentral.graph import Graph
from gcentral.measures import Measure, check_upper_bound, group_randomwalk
from gcentral.optimize import _scorers
from gcentral.randomwalk import (
    ROUTE_ABSORBING,
    ROUTE_CONTRACTION,
    _guide,
    _step_table,
    _walk_step,
    absorbing_times,
    contract,
    fundamental_matrix,
    hitting_time_matrix,
    hitting_time_set,
    monte_carlo_hitting,
    stationary,
    transition_matrix,
)

from conftest import (
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_proper_subset,
    star_graph,
    torus_graph,
)
import oracles


def k2() -> Graph:
    return Graph(2, [(0, 1)])


def weighted_wheel() -> Graph:
    """Hub 0 of degree 10 with weights 0.15..1.05, a unit rim, and vertex 11 on 1 and 6."""
    edges = [(0, i) for i in range(1, 11)] + [(i, i % 10 + 1) for i in range(1, 11)]
    weights = [0.1 * i + 0.05 for i in range(1, 11)] + [1.0] * 10
    return Graph(12, edges + [(1, 11), (6, 11)], weights + [0.3, 2.5])


class TestTransitionMatrix:
    def test_rows_stochastic_zero_diagonal(self):
        rng = np.random.Generator(np.random.PCG64(41))
        for _ in range(15):
            g = random_connected_graph(rng, int(rng.integers(2, 15)), weighted=True)
            p = transition_matrix(g)
            assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(np.diag(p) == 0)
            for u in range(g.n):
                for v in range(g.n):
                    has_edge = v in g.neighbors(u)
                    assert (p[u, v] > 0) == has_edge

    def test_unweighted_uniform(self):
        p = transition_matrix(star_graph(3))
        assert p[0, 1] == pytest.approx(1 / 3)
        assert p[1, 0] == 1.0

    def test_weighted_values_pinned(self):
        # Exact bits of an earlier release; a change means w / w.sum() moved.
        p = transition_matrix(weighted_wheel())
        assert p[0].tolist() == [
            0.0, 0.025000000000000005, 0.041666666666666664, 0.05833333333333334, 0.075,
            0.09166666666666667, 0.10833333333333335, 0.12500000000000003,
            0.1416666666666667, 0.15833333333333335, 0.17500000000000002, 0.0,
        ]
        digest = hashlib.sha256(p.tobytes()).hexdigest()
        assert digest == "011f5e6da71776cf313695474eb7bb4e3e565d6bad4e8b8d6749440438cb66a1"


def weighted_hub() -> Graph:
    """Hub 0 on a 24-cycle, spoke weights 1e-3 to 1e3: guide cells with several keys."""
    spokes = [(0, i) for i in range(1, 25)]
    rim = [(i, i % 24 + 1) for i in range(1, 25)]
    weights = [10.0 ** (6 * ((7 * i) % 24) / 23 - 3) for i in range(24)] + [1.0] * 24
    return Graph(25, spokes + rim, weights)


def equal_keys_graph() -> Graph:
    """Weights spanning 1e16: the tiny ones leave some cumulative keys equal,
    and the last key of vertex 1's row is reached before its last slot."""
    w = [1.0, 1e-16, 1e-16, 1.0, 1e-16, 1.0, 1.0, 1e-16, 1e-16, 1.0]
    edges = [(0, v) for v in range(1, 6)] + [(1, v) for v in range(2, 6)] + [(2, 3)]
    return Graph(6, edges, w)


def step_oracle(g: Graph, u: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The walk step as a binary search over all keys, clamped to u's row."""
    keys = _step_table(g).keys
    slot = np.searchsorted(keys, 2.0 * u + r, side="right")
    return g._indices[np.minimum(slot, g._indptr[u + 1] - 1)]


def assert_step_matches_oracle(g: Graph) -> None:
    """At every vertex u, for the draws in [0, 1) at the edges of u's step:
    0, the top draw, every guide cell edge of u's row, and each key less 2u
    with its neighbours one ulp either side."""
    guide = _guide(g)
    cell_edges = np.arange(guide.scale) / guide.scale
    at, draws = [], []
    for u in g.vertices():
        r = guide.keys[g._indptr[u] : g._indptr[u + 1]] - 2.0 * u
        r = np.concatenate(([0.0, np.nextafter(1.0, 0.0)], cell_edges, r, np.nextafter(r, -1.0), np.nextafter(r, 2.0)))
        r = np.unique(r[(r >= 0.0) & (r < 1.0)])
        at.append(np.full(r.size, u))
        draws.append(r)
    at, draws = np.concatenate(at), np.concatenate(draws)
    np.testing.assert_array_equal(_walk_step(g, guide, at, draws), step_oracle(g, at, draws))


class TestWalkStep:
    @pytest.mark.parametrize(
        "g", [path_graph(5), star_graph(6), weighted_wheel()], ids=["path", "star", "wheel"]
    )
    def test_extreme_draws_pick_first_and_last_neighbor(self, g):
        guide = _guide(g)
        for u in g.vertices():
            nbrs = g.neighbors(u)
            for r, want in ((0.0, nbrs[0]), (np.nextafter(1.0, 0.0), nbrs[-1])):
                # For u >= 1 the key 2u + r rounds up to 2u + 1 at the top draw.
                step = _walk_step(g, guide, np.array([u]), np.array([r]))
                assert step.tolist() == [want], (u, r)

    @pytest.mark.parametrize(
        "g",
        [path_graph(5), star_graph(6), weighted_wheel(), star_graph(3000), weighted_hub(), equal_keys_graph()],
        ids=["path", "star", "wheel", "star3000", "hub", "equal-keys"],
    )
    def test_step_matches_search_at_edge_draws(self, g):
        assert_step_matches_oracle(g)

    def test_equal_keys_and_crowded_cells_covered(self):
        # The cases the guide must get right are present: equal keys, a row
        # whose last key comes early, and cells that fall back to the search.
        g = equal_keys_graph()
        keys = _step_table(g).keys
        assert np.any(np.diff(keys) == 0.0)
        assert keys[g._indptr[2] - 2] == 3.0
        for g in (star_graph(3000), weighted_hub(), star_graph(20)):
            assert np.any(_guide(g).cells < 0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
        extra=st.floats(0.0, 1.0),
        spread=st.sampled_from([0.0, 1.0, 6.0, 16.0]),
    )
    def test_step_matches_search_on_random_weighted_graphs(self, n, seed, extra, spread):
        rng = np.random.Generator(np.random.PCG64(seed))
        g = random_connected_graph(rng, n, extra_edge_prob=extra)
        weights = list(10.0 ** rng.uniform(-spread / 2, spread / 2, len(g.edges)))
        assert_step_matches_oracle(Graph(n, g.edges, weights))

    def test_step_table_matches_per_vertex_loop(self):
        rng = np.random.Generator(np.random.PCG64(47))
        star = Graph(201, [(0, i) for i in range(1, 201)], list(rng.uniform(0.1, 9.0, 200)))
        dense = random_connected_graph(rng, 40, extra_edge_prob=0.5, weighted=True)
        for g in (weighted_wheel(), star, dense):
            table = _step_table(g)
            for u in g.vertices():
                w = np.asarray(oracles.neighbor_weights(g, u))
                p = w / w.sum()
                c = np.cumsum(p)
                row = slice(g._indptr[u], g._indptr[u + 1])
                assert np.array_equal(table.prob[row], p)
                assert np.array_equal(table.cum[row], c / c[-1])
                assert table.cum[row][-1] == 1.0

    def test_monte_carlo_allocates_no_dense_table(self):
        # A dense n x n inverse-CDF table took about 206 MB here.
        g = star_graph(3000)
        tracemalloc.start()
        try:
            monte_carlo_hitting(g, [0], walks_per_source=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestStationary:
    def test_k2_symmetric(self):
        assert np.allclose(stationary(k2()), [0.5, 0.5])

    def test_path_degree_proportional(self):
        assert np.allclose(stationary(path_graph(3)), [0.25, 0.5, 0.25])

    def test_weighted_triangle(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)], [1, 1, 2])
        assert np.allclose(stationary(g), [0.25, 0.375, 0.375])

    def test_fixed_point_on_random_weighted(self):
        rng = np.random.Generator(np.random.PCG64(43))
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(2, 20)), weighted=True)
            pi = stationary(g)
            p = transition_matrix(g)
            assert abs(pi.sum() - 1.0) < 1e-12
            assert np.max(np.abs(pi @ p - pi)) < 1e-10


class TestFundamentalMatrix:
    def test_k2_closed_form(self):
        z = fundamental_matrix(k2())
        assert np.allclose(z, [[0.75, 0.25], [0.25, 0.75]], atol=1e-12)

    def test_row_sums_one(self):
        rng = np.random.Generator(np.random.PCG64(47))
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 25)), weighted=True)
            z = fundamental_matrix(g)
            assert np.allclose(z.sum(axis=1), 1.0, atol=1e-9)

    def test_residual_bound(self):
        g = random_connected_graph(np.random.Generator(np.random.PCG64(53)), 30, weighted=True)
        p = transition_matrix(g)
        pi = stationary(g)
        z = fundamental_matrix(g)
        m = np.eye(g.n) - p + np.tile(pi, (g.n, 1))
        assert np.max(np.abs(m @ z - np.eye(g.n))) < 1e-8

    def test_bipartite_graph_handled(self):
        # Even cycles are bipartite: P has eigenvalue -1 but I - P + Pinf stays regular.
        z = fundamental_matrix(cycle_graph(6))
        assert np.isfinite(z).all()

    @pytest.mark.parametrize("solve", [fundamental_matrix, hitting_time_matrix])
    def test_disconnected_graph_raises(self, solve):
        # Two components: P has eigenvalue 1 twice and Pinf removes only one,
        # so LU meets an exactly zero pivot.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalError, match="singular"):
                solve(Graph(4, [(0, 1), (2, 3)]))
        assert not caught


class TestHittingTimePair:
    def test_k2_forced_step(self):
        assert hitting_time_matrix(k2())[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_path_end_to_end(self):
        assert hitting_time_matrix(path_graph(3))[0, 2] == pytest.approx(4.0, abs=1e-9)

    def test_triangle_symmetric(self):
        h = hitting_time_matrix(cycle_graph(3))
        for u in range(3):
            for v in range(3):
                expected = 0.0 if u == v else 2.0
                assert h[u, v] == pytest.approx(expected, abs=1e-9)

    def test_diagonal_zero(self):
        assert (np.diag(hitting_time_matrix(path_graph(4))) == 0.0).all()

    def test_first_step_recurrence(self):
        rng = np.random.Generator(np.random.PCG64(61))
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(3, 15)), weighted=True)
            h = hitting_time_matrix(g)
            p = transition_matrix(g)
            for j in range(g.n):
                for i in range(g.n):
                    if i == j:
                        continue
                    rhs = 1.0 + sum(p[i, u] * h[u, j] for u in range(g.n))
                    assert h[i, j] == pytest.approx(rhs, abs=1e-7)


class TestContract:
    def test_leaf_contraction(self):
        c = contract(path_graph(3), [2])
        assert c.base.n == 3 and c.base.edges == ((0, 1), (1, 2))
        assert c.base.weights == (1.0, 1.0)
        assert c.merged == 2
        assert c.boundary.members == (2,)

    def test_triangle_two_vertices(self):
        c = contract(cycle_graph(3), [1, 2])
        assert c.base.n == 2
        assert c.base.edges == ((0, 1),) and c.base.weights == (2.0,)

    def test_star_two_leaves(self):
        c = contract(star_graph(3), [1, 2])
        # Center keeps its edge to the remaining leaf and gains weight 2 to the blob.
        weights = dict(zip(c.base.edges, c.base.weights))
        center, leaf, blob = c.mapping[0], c.mapping[3], c.merged
        key = (center, blob) if center < blob else (blob, center)
        assert weights[key] == 2.0
        key2 = (center, leaf) if center < leaf else (leaf, center)
        assert weights[key2] == 1.0

    def test_cut_weight_preserved(self):
        rng = np.random.Generator(np.random.PCG64(67))
        for _ in range(15):
            g = random_connected_graph(rng, int(rng.integers(3, 15)), weighted=True)
            s = random_proper_subset(rng, g.n)
            c = contract(g, s)
            inside = set(s)
            crossing = sum(
                w for (u, v), w in zip(g.edges, g.weights) if (u in inside) != (v in inside)
            )
            into_blob = sum(
                w
                for (u, v), w in zip(c.base.edges, c.base.weights)
                if c.merged in (u, v)
            )
            assert into_blob == pytest.approx(crossing, rel=1e-12)

    def test_boundary_members_touch_outside(self):
        g = path_graph(5)
        c = contract(g, [0, 1, 4])
        assert c.boundary.members == (1, 4)

    def test_matches_edge_loop_oracle(self):
        # Bit for bit: the folded weights are the oracle's running sums.
        rng = np.random.Generator(np.random.PCG64(2026))
        for i in range(60):
            g = random_connected_graph(rng, int(rng.integers(2, 30)), extra_edge_prob=0.3, weighted=True)
            if i % 3 == 0:
                g = oracles.relabel(g, [f"v{v}" for v in range(g.n)])
            s = random_proper_subset(rng, g.n)
            base, mapping, boundary = oracles.contract_oracle(g, s)
            c = contract(g, s)
            assert c.base == base and c.base.labels == base.labels
            assert c.base.edges == base.edges and c.base.weights == base.weights
            assert c.mapping == mapping and c.merged == g.n - len(s)
            assert c.boundary.members == boundary

    @pytest.mark.parametrize(
        "edges, weights, members, want",
        [
            # One outside vertex, 0, 3 or 2, with crossing weights 1, 1, 1e16
            # in edge order: 1 + 1 = 2 survives the addition of 1e16.
            ([(0, 1), (0, 2), (0, 3)], [1.0, 1.0, 1e16], [1, 2, 3], 1.0000000000000002e16),
            ([(0, 3), (1, 3), (2, 3)], [1.0, 1.0, 1e16], [0, 1, 2], 1.0000000000000002e16),
            ([(0, 2), (1, 2), (2, 3)], [1.0, 1.0, 1e16], [0, 1, 3], 1.0000000000000002e16),
            # 1e16 first: each 1 then rounds away.
            ([(0, 1), (0, 2), (0, 3)], [1e16, 1.0, 1.0], [1, 2, 3], 1e16),
        ],
    )
    def test_crossing_weights_add_in_edge_order(self, edges, weights, members, want):
        c = contract(Graph(4, edges, weights), members)
        assert c.base.edges == ((0, 1),) and c.base.weights == (want,)


class TestHittingTimeSet:
    def test_k2_single_target(self):
        sol = hitting_time_set(k2(), [1])
        assert sol.h == (1.0, 0.0)

    def test_path_both_ends(self):
        sol = hitting_time_set(path_graph(3), [0, 2])
        assert sol.h[1] == pytest.approx(1.0, abs=1e-12)

    def test_path_far_end_by_hand(self):
        sol = hitting_time_set(path_graph(3), [2])
        assert sol.h[0] == pytest.approx(4.0, abs=1e-9)
        assert sol.h[1] == pytest.approx(3.0, abs=1e-9)

    def test_unknown_route_rejected(self):
        with pytest.raises(InputError):
            hitting_time_set(path_graph(3), [2], route="eigen")

    def test_routes_agree_and_match_oracle(self):
        rng = np.random.Generator(np.random.PCG64(71))
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(3, 20)), weighted=bool(rng.integers(2)))
            s = random_proper_subset(rng, g.n)
            a = hitting_time_set(g, s, route=ROUTE_ABSORBING)
            c = hitting_time_set(g, s, route=ROUTE_CONTRACTION)
            oracle = oracles.hitting_times_oracle(g, s)
            for v in range(g.n):
                assert a.h[v] == pytest.approx(c.h[v], abs=1e-7)
                assert a.h[v] == pytest.approx(oracle[v], abs=1e-7)

    def test_members_zero_outside_at_least_one(self):
        sol = hitting_time_set(cycle_graph(5), [0, 2])
        for v in range(5):
            if v in (0, 2):
                assert sol.h[v] == 0.0
            else:
                assert sol.h[v] >= 1.0

    def test_exactly_zero_pivot_raises(self):
        # Two triangles joined by an edge of weight 1e-16 and a pendant
        # vertex: from the far triangle the walk's chance of crossing is
        # below float64 resolution, and LU meets an exactly zero pivot.
        g = Graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5), (5, 6)],
                  [1, 1, 1, 1e-16, 1, 1, 1, 1])
        comp = [0, 1, 2, 4, 5, 6]
        a = np.eye(6) - transition_matrix(g)[np.ix_(comp, comp)]
        assert dgetrf(a)[2] > 0
        healthy = np.eye(6) - transition_matrix(cycle_graph(7))[np.ix_(comp, comp)]
        for systems in (a, np.stack([healthy, a])):
            with pytest.raises(NumericalError, match="singular"):
                absorbing_times(systems)

    def test_first_step_recurrence_for_sets(self):
        rng = np.random.Generator(np.random.PCG64(73))
        g = random_connected_graph(rng, 12, weighted=True)
        s = (1, 5)
        sol = hitting_time_set(g, s)
        p = transition_matrix(g)
        for v in range(g.n):
            if v in s:
                continue
            rhs = 1.0 + sum(p[v, u] * sol.h[u] for u in range(g.n) if u not in s)
            assert sol.h[v] == pytest.approx(rhs, abs=1e-7)

    def test_contraction_reads_merged_column_of_hitting_time_matrix(self, novice, expert):
        # The route solves for Z's merged column alone; the all-pairs matrix
        # of the contracted graph holds the same times to rounding.
        rng = np.random.Generator(np.random.PCG64(79))
        graphs = [novice, expert, torus_graph(6, 7)]
        graphs += [random_connected_graph(rng, int(rng.integers(8, 60)), weighted=bool(i % 2)) for i in range(20)]
        for g in graphs:
            for s in ([0], [g.n - 1, 1], random_proper_subset(rng, g.n)):
                c = contract(g, s)
                want = hitting_time_matrix(c.base)[list(c.mapping), c.merged]
                got = np.array(hitting_time_set(g, s, route=ROUTE_CONTRACTION).h)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("extra_edge_prob", [0.01, 0.25])
    def test_contraction_peak_within_its_guard(self, monkeypatch, extra_edge_prob):
        g = random_connected_graph(np.random.Generator(np.random.PCG64(83)), 300, extra_edge_prob, weighted=True)
        guards = []

        def record(needed, what):
            if what.startswith("the fundamental matrix"):
                guards.append(needed)
            return check_memory(needed, what)

        monkeypatch.setattr(randomwalk, "check_memory", record)
        tracemalloc.start()
        try:
            hitting_time_set(g, [0, 1, 2], route=ROUTE_CONTRACTION)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(guards) == 1 and peak < guards[0], peak / guards[0]


class TestGroupRandomwalk:
    def test_path_center_cover(self):
        assert group_randomwalk(path_graph(3), [1]).value == pytest.approx(1.0, abs=1e-12)

    def test_path_far_end(self):
        assert group_randomwalk(path_graph(3), [2]).value == pytest.approx(3.5, abs=1e-9)

    def test_triangle(self):
        assert group_randomwalk(cycle_graph(3), [0]).value == pytest.approx(2.0, abs=1e-9)

    def test_vertex_cover_iff_one(self, exhaustive_corpus):
        import itertools

        for g in exhaustive_corpus[:400]:
            for size in range(1, min(3, g.n - 1) + 1):
                for s in itertools.combinations(range(g.n), size):
                    value = group_randomwalk(g, s).value
                    assert (abs(value - 1.0) < 1e-12) == oracles.is_vertex_cover(g, s)

    def test_equals_search_score_bit_for_bit(self, corpus_n7):
        # ``centrality`` and ``optimum`` solve with one kernel and take one
        # mean.  The search's block scorer takes every k-subset at once
        # here; a value does not depend on its block, and score_subset is
        # the one-row case.
        weighted = random_connected_graph(np.random.Generator(np.random.PCG64(83)), 12, weighted=True)
        for g in [*corpus_n7, weighted]:
            for k in range(1, min(3, g.n - 1) + 1):
                subsets = np.array(list(itertools.combinations(range(g.n), k)))
                searched = _scorers(g, k, Measure.RANDOMWALK).block(subsets)
                for s, value in zip(subsets.tolist(), searched.tolist()):
                    assert group_randomwalk(g, s).value == value, (g, s)

    def test_scale_invariance(self):
        rng = np.random.Generator(np.random.PCG64(79))
        g = random_connected_graph(rng, 10, weighted=True)
        scaled = Graph(g.n, g.edges, [w * 17.5 for w in g.weights])
        assert np.allclose(transition_matrix(g), transition_matrix(scaled), atol=1e-12)
        assert np.allclose(stationary(g), stationary(scaled), atol=1e-12)
        s = (0, 3)
        a = hitting_time_set(g, s).h
        b = hitting_time_set(scaled, s).h
        assert np.allclose(a, b, atol=1e-10)


class TestMonteCarlo:
    def test_k2_deterministic_walk(self):
        sol = monte_carlo_hitting(k2(), [1], walks_per_source=500, seed=3)
        assert sol.h[0] == 1.0
        assert sol.stderr[0] == 0.0

    def test_path_matches_analytic(self):
        sol = monte_carlo_hitting(path_graph(3), [2], walks_per_source=100_000, seed=11)
        assert abs(sol.h[0] - 4.0) <= 3 * sol.stderr[0]
        assert abs(sol.h[1] - 3.0) <= 3 * sol.stderr[1]

    def test_triangle_matches_analytic(self):
        sol = monte_carlo_hitting(cycle_graph(3), [0], walks_per_source=100_000, seed=13)
        for v in (1, 2):
            assert abs(sol.h[v] - 2.0) <= 3 * sol.stderr[v]

    def test_deterministic_given_seed(self):
        a = monte_carlo_hitting(path_graph(4), [3], walks_per_source=2_000, seed=17)
        b = monte_carlo_hitting(path_graph(4), [3], walks_per_source=2_000, seed=17)
        assert a.h == b.h and a.stderr == b.stderr
        c = monte_carlo_hitting(path_graph(4), [3], walks_per_source=2_000, seed=18)
        assert a.h != c.h

    def test_seeded_values_pinned(self):
        # Exact outputs of an earlier release: the walk stream and the step
        # lookup must not move for an existing seed.
        sol = monte_carlo_hitting(path_graph(4), [3], walks_per_source=2_000, seed=17)
        assert sol.h == (9.155, 8.154, 5.178, 0.0)
        assert sol.stderr == (0.15459281020954446, 0.15302892185944045, 0.14776019266794635, 0.0)

    def test_weighted_seeded_values_pinned(self):
        sol = monte_carlo_hitting(weighted_wheel(), [0, 11], walks_per_source=300, seed=23)
        assert sol.h == (
            0.0, 5.02, 5.653333333333333, 5.526666666666666, 4.64, 3.7666666666666666,
            2.3033333333333332, 3.183333333333333, 3.3266666666666667, 3.3966666666666665,
            3.85, 0.0,
        )
        assert sol.stderr == (
            0.0, 0.2438971949296206, 0.2509279693103921, 0.2351684485267104,
            0.21167485214906842, 0.1779878450457244, 0.15115300695801226,
            0.15150367342760607, 0.17207458218966795, 0.16820240059511818,
            0.2369033313522566, 0.0,
        )

    def test_star_seeded_values_pinned(self):
        # The hub's row spans guide cells with several keys, so walks at the
        # hub fall back to the search; four walks hit the step cap.
        sol = monte_carlo_hitting(star_graph(20), [1], walks_per_source=40, max_steps=200, seed=29)
        assert sol.h == (
            38.05, 0.0, 36.9, 43.2, 33.58974358974359, 38.15384615384615, 35.05,
            39.333333333333336, 28.5, 33.65, 49.05, 35.3, 32.1, 36.92307692307692, 38.2,
            35.55, 42.5, 35.8, 35.55, 38.2, 35.0,
        )
        assert sol.stderr == (
            5.9961472673110725, 0.0, 5.095473104025389, 5.168345467535511,
            5.318051395581197, 7.029294635950272, 4.95621210820708, 4.61548957745396,
            3.8549003113253666, 5.218255676726879, 7.6754645729269315, 6.255479649157659,
            4.0711303791579265, 4.435682910416458, 5.2685812813269495, 5.268429192258937,
            7.101011123379471, 4.700681892705594, 6.424507364132666, 6.821459352096711,
            5.252593986759646,
        )
        assert sol.truncated == (0,) * 4 + (1, 1, 0, 1) + (0,) * 5 + (1,) + (0,) * 7

    def test_weighted_hub_seeded_values_pinned(self):
        sol = monte_carlo_hitting(weighted_hub(), [1, 13], walks_per_source=100, seed=31)
        assert sol.h == (
            1162.29, 0.0, 541.23, 963.14, 871.54, 1052.26, 960.25, 834.94, 994.0, 951.74,
            1037.17, 1047.62, 465.4, 0.0, 997.41, 1060.16, 1098.55, 1053.46, 1023.8,
            1218.45, 1011.54, 1154.61, 1113.52, 1059.03, 991.94,
        )
        assert sol.stderr == (
            114.48314180072825, 0.0, 87.31963905471935, 104.31560215291503,
            85.63413298044846, 114.53733158788327, 89.89604251353872, 85.2849055528088,
            89.35405458459661, 97.89107285883912, 137.89495640163966, 87.92903679167145,
            98.55818360519615, 0.0, 83.81376673279513, 99.60610374384848,
            123.55645613862252, 98.82019220725482, 101.42586385427465, 137.0888949779034,
            103.02554397386655, 95.65218758025813, 121.50048715868581, 102.83931022854456,
            96.11468404405692,
        )

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            monte_carlo_hitting(path_graph(6), [5], walks_per_source=500, max_steps=2, seed=5)

    @pytest.mark.parametrize("arg", [{"walks_per_source": 0}, {"max_steps": 0}, {"max_steps": -5}])
    def test_nonpositive_counts_rejected(self, arg):
        with pytest.raises(InputError, match="must be at least 1"):
            monte_carlo_hitting(path_graph(6), [5], seed=5, **arg)

    def test_weighted_walk_bias(self):
        # Heavy edge 0-2 should pull the walk toward 2 and shrink the hitting time.
        light = Graph(3, [(0, 1), (0, 2), (1, 2)], [1, 1, 1])
        heavy = Graph(3, [(0, 1), (0, 2), (1, 2)], [1, 10, 1])
        a = monte_carlo_hitting(light, [2], walks_per_source=50_000, seed=19)
        b = monte_carlo_hitting(heavy, [2], walks_per_source=50_000, seed=19)
        assert b.h[0] < a.h[0]
        analytic = hitting_time_set(heavy, [2]).h[0]
        assert abs(b.h[0] - analytic) <= 4 * b.stderr[0]

    def test_json_payload(self):
        sol = monte_carlo_hitting(path_graph(3), [2], walks_per_source=100, seed=23)
        payload = json.loads(json_text(hitting_json(sol)))
        assert payload["route"] == "monte-carlo"
        assert payload["rng"] == "numpy.random.PCG64"
        assert payload["seed"] == 23
        assert payload["walks_per_source"] == 100
        assert set(payload["hitting_times"]) == {"0", "1", "2"}


class TestUpperBound:
    def test_path_center(self):
        bc = check_upper_bound(path_graph(3), [1])
        assert bc.lhs == pytest.approx(1.0, abs=1e-9)
        assert bc.mid == pytest.approx(2.0, abs=1e-12)
        assert bc.holds

    def test_path_end(self):
        bc = check_upper_bound(path_graph(3), [2])
        assert bc.lhs == pytest.approx(3.5, abs=1e-9)
        assert bc.mid == pytest.approx(4.5, abs=1e-12)
        assert bc.holds

    def test_k2_equality(self):
        bc = check_upper_bound(k2(), [1])
        assert bc.lhs == pytest.approx(1.0, abs=1e-12)
        assert bc.mid == pytest.approx(1.0, abs=1e-12)
        assert bc.holds

    def test_weighted_rejected(self):
        g = Graph(2, [(0, 1)], [2.0])
        with pytest.raises(InputError):
            check_upper_bound(g, [1])

    def test_holds_on_random_instances(self):
        rng = np.random.Generator(np.random.PCG64(83))
        for _ in range(100):
            g = random_connected_graph(rng, int(rng.integers(3, 15)))
            s = random_proper_subset(rng, g.n)
            assert check_upper_bound(g, s).holds


class TestPairBound:
    def test_hitting_under_two_m_times_distance(self):
        rng = np.random.Generator(np.random.PCG64(89))
        for _ in range(15):
            g = random_connected_graph(rng, int(rng.integers(3, 15)))
            h = hitting_time_matrix(g)
            apd = oracles.all_pairs_distances(g)
            for u in range(g.n):
                for v in range(g.n):
                    if u == v:
                        continue
                    assert h[u, v] <= 2 * g.m * apd[u][v] + 1e-9
