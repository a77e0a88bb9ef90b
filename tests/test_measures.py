"""The three deterministic group measures against definitions and oracles."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from gcentral.errors import InputError
from gcentral.graph import Graph, geodesic_counts
from gcentral.measures import (
    Measure,
    group_betweenness,
    group_closeness,
    group_degree,
)
from gcentral.optimize import _scorers, score_subset

from conftest import complete_graph, cycle_graph, layered_bipartite, path_graph, star_graph
import oracles


class TestGroupDegree:
    def test_star_center_dominates(self):
        assert group_degree(star_graph(3), [0]).exact == 1

    def test_path_endpoint(self):
        assert group_degree(path_graph(3), [0]).exact == Fraction(1, 2)

    def test_novice_livingthing(self, novice):
        v = novice.vertex_by_label("livingthing")
        assert group_degree(novice, [v]).exact == Fraction(5, 24)

    def test_rejects_full_set(self):
        with pytest.raises(InputError):
            group_degree(path_graph(3), [0, 1, 2])


class TestGroupCloseness:
    def test_path_center(self):
        assert group_closeness(path_graph(3), [1]).exact == 1

    def test_path_endpoint(self):
        assert group_closeness(path_graph(3), [0]).exact == Fraction(3, 2)

    def test_six_vertex_path_endpoint(self):
        g = path_graph(6)
        assert group_closeness(g, [0]).exact == Fraction(1 + 2 + 3 + 4 + 5, 5)

    def test_at_least_one(self, corpus_n8):
        rng = np.random.Generator(np.random.PCG64(23))
        for g in rng.choice(len(corpus_n8), size=60, replace=False):
            g = corpus_n8[int(g)]
            k = int(rng.integers(1, g.n))
            s = tuple(sorted(int(v) for v in rng.choice(g.n, size=k, replace=False)))
            assert group_closeness(g, s).exact >= 1


class TestGroupBetweenness:
    def test_path_center_is_cover(self):
        assert group_betweenness(path_graph(3), [1]).value == 1.0

    def test_triangle_single_vertex(self):
        assert group_betweenness(cycle_graph(3), [0]).value == 0.0

    def test_four_cycle(self):
        assert group_betweenness(cycle_graph(4), [0]).value == pytest.approx(1 / 6, abs=1e-15)

    def test_single_outside_vertex_scores_one(self):
        # No outside pairs are left, and V less one vertex covers every
        # edge: 1, as the search scores it.
        for g in (complete_graph(3), path_graph(4)):
            members = tuple(range(g.n - 1))
            assert group_betweenness(g, members).value == score_subset(g, members, Measure.BETWEENNESS) == 1.0

    def test_equals_search_score_bit_for_bit(self, corpus_n7):
        # ``centrality`` and ``optimum`` score a set with one kernel.  The
        # search's block scorer takes every k-subset at once here; a value
        # does not depend on its block, and score_subset is the one-row case.
        for g in corpus_n7:
            for k in range(1, min(3, g.n - 2) + 1):
                subsets = np.array(list(itertools.combinations(range(g.n), k)))
                searched = _scorers(g, k, Measure.BETWEENNESS).block(subsets)
                for s, value in zip(subsets.tolist(), searched.tolist()):
                    assert group_betweenness(g, s).value == value, (g, s)
        # One graph from each count range at k = 1: the 8 x 20 ladder's counts
        # pass 2**53; the hub's complement in the 4 x 26 hub ladder has counts
        # between 2**53 / (2n), where a dense layered pass once gave up, and
        # 2**53; the 4 x 8 hub ladder's lie below both.
        for g in (layered_bipartite(8, 20), layered_bipartite(4, 26, hub=True), layered_bipartite(4, 8, hub=True)):
            searched = _scorers(g, 1, Measure.BETWEENNESS).block(np.arange(g.n)[:, None])
            for v, value in enumerate(searched.tolist()):
                assert group_betweenness(g, [v]).value == value, (g, v)

    def test_in_unit_interval(self, corpus_n8):
        rng = np.random.Generator(np.random.PCG64(29))
        for idx in rng.choice(len(corpus_n8), size=60, replace=False):
            g = corpus_n8[int(idx)]
            if g.n < 3:
                continue
            k = int(rng.integers(1, g.n - 1))
            s = tuple(sorted(int(v) for v in rng.choice(g.n, size=k, replace=False)))
            value = group_betweenness(g, s).value
            assert -1e-12 <= value <= 1 + 1e-12


def sigma_through_set(g: Graph, u: int, v: int, s) -> tuple[int, int]:
    """Shortest u-v paths meeting ``s``, and all shortest u-v paths, by the
    counting pass of ``group_betweenness``: all geodesics from ``u``, less
    those with no interior vertex in ``s``.
    """
    counts = next(geodesic_counts(g, [u], s))
    total, avoiding = int(counts.sigma[0, v]), int(counts.avoiding[0, v])
    return total - avoiding, total


class TestSigmaThroughSet:
    """The complement route of group betweenness against explicit paths."""

    def test_path(self):
        assert sigma_through_set(path_graph(3), 0, 2, [1]) == (1, 1)

    def test_four_cycle(self):
        assert sigma_through_set(cycle_graph(4), 1, 3, [0]) == (1, 2)

    def test_complete_adjacent_pair(self):
        assert sigma_through_set(complete_graph(4), 0, 1, [2, 3]) == (0, 1)

    def test_matches_explicit_enumeration(self, corpus_n7):
        rng = np.random.Generator(np.random.PCG64(31))
        picks = rng.choice(len(corpus_n7), size=80, replace=False)
        for idx in picks:
            g = corpus_n7[int(idx)]
            if g.n < 3:
                continue
            for size in (1, 2):
                if size >= g.n - 1:
                    continue
                for s in itertools.combinations(range(g.n), size):
                    outside = [v for v in range(g.n) if v not in s]
                    for u, v in itertools.combinations(outside, 2):
                        assert sigma_through_set(g, u, v, s) == oracles.sigma_through_oracle(
                            g, u, v, s
                        )


class TestCharacterizations:
    """Dominating and vertex-cover characterizations on the small corpus."""

    def test_degree_closeness_dominating(self, exhaustive_corpus):
        for g in exhaustive_corpus:
            for size in range(1, min(3, g.n - 1) + 1):
                for s in itertools.combinations(range(g.n), size):
                    dom = oracles.is_dominating(g, s)
                    assert (group_degree(g, s).exact == 1) == dom
                    assert (group_closeness(g, s).exact == 1) == dom

    def test_betweenness_vertex_cover(self, exhaustive_corpus):
        for g in exhaustive_corpus:
            for size in range(1, min(3, g.n - 2) + 1):
                for s in itertools.combinations(range(g.n), size):
                    cover = oracles.is_vertex_cover(g, s)
                    assert (group_betweenness(g, s).value == 1.0) == cover

    def test_dominating_monotone_under_supersets(self, exhaustive_corpus):
        for g in exhaustive_corpus[:200]:
            for size in range(1, min(2, g.n - 2) + 1):
                for s in itertools.combinations(range(g.n), size):
                    if not oracles.is_dominating(g, s):
                        continue
                    rest = [v for v in range(g.n) if v not in s]
                    for extra in rest:
                        sup = tuple(sorted(s + (extra,)))
                        if len(sup) >= g.n:
                            continue
                        assert group_degree(g, sup).exact == 1
                        assert group_closeness(g, sup).exact == 1


class TestSingletonCollapse:
    """Group scores of {v} equal classical per-vertex centralities."""

    def test_against_classical_implementations(self, corpus_n8):
        rng = np.random.Generator(np.random.PCG64(37))
        picks = rng.choice(len(corpus_n8), size=50, replace=False)
        for idx in picks:
            g = corpus_n8[int(idx)]
            for v in range(g.n):
                assert group_degree(g, [v]).exact == oracles.classical_degree(g, v)
                assert group_closeness(g, [v]).exact == oracles.classical_closeness(g, v)
                if g.n >= 3:
                    assert group_betweenness(g, [v]).value == pytest.approx(
                        oracles.classical_betweenness(g, v), abs=1e-12
                    )


class TestDisconnectedGraphs:
    def test_closeness_rejects(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(InputError, match="disconnected"):
            group_closeness(g, [0])

    def test_betweenness_rejects(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(InputError, match="disconnected"):
            group_betweenness(g, [0])


class TestMeasureEnum:
    def test_directions(self):
        assert Measure.DEGREE.maximize and Measure.BETWEENNESS.maximize
        assert not Measure.CLOSENESS.maximize and not Measure.RANDOMWALK.maximize

    def test_exactness(self):
        assert Measure.DEGREE.exact and Measure.CLOSENESS.exact
        assert not Measure.BETWEENNESS.exact and not Measure.RANDOMWALK.exact

    def test_parse_aliases(self):
        assert Measure.parse("random-walk") is Measure.RANDOMWALK
        assert Measure.parse("Degree") is Measure.DEGREE
        with pytest.raises(InputError):
            Measure.parse("pagerank")
