"""Property tests: the breadth-first distance pass agrees with the oracles'
BFS (connectivity, distances to the nearest member of a set, all-pairs
distances), and a graph's views of its CSR arrays do not depend on how its
edges were given.

Random graphs of at most 9 vertices with every edge drawn independently,
so many are disconnected or have isolated vertices.  Examples are
derandomized, so every run checks the same inputs.
"""

from __future__ import annotations

import itertools
import pickle
from unittest import mock

import numpy as np
import pytest

from gcentral import graph
from gcentral.graph import Graph, _hop_distances, is_connected, multi_source_distances

import oracles

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

DETERMINISTIC = settings(derandomize=True, deadline=None, database=None)


@st.composite
def graphs(draw) -> Graph:
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, k in zip(pairs, keep) if k])


@DETERMINISTIC
@given(g=graphs())
def test_is_connected_matches_reachability(g):
    assert is_connected(g) == (len(oracles.reachable_from(g, 0)) == g.n)


@DETERMINISTIC
@given(g=graphs(), data=st.data())
def test_multi_source_distances_match_nearest_bfs(g, data):
    members = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
    rows = [oracles.bfs_distances(g, s) for s in members]
    want = []
    for v in range(g.n):
        reached = [row[v] for row in rows if row[v] >= 0]
        want.append(min(reached) if reached else -1)
    assert multi_source_distances(g, members).tolist() == want


@DETERMINISTIC
@given(g=graphs(), block=st.integers(1, 4))
def test_hop_distances_match_bfs_across_source_blocks(g, block):
    # Blocks of one to four sources put a block boundary inside most graphs.
    with mock.patch.object(graph, "_SOURCE_BLOCK", block):
        dist = _hop_distances(g)
    assert dist.dtype == np.int16
    assert dist.tolist() == oracles.all_pairs_distances(g)


@st.composite
def shuffled_edge_lists(draw) -> tuple[int, list[tuple[int, int]], list[float], list, list]:
    """n, the sorted edges ``u < v`` with their weights, and the same edges
    in a random order and orientation with their weights."""
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, k in zip(pairs, keep) if k]
    weight = st.one_of(st.just(1.0), st.floats(1e-300, 1e300))
    weights = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    order = draw(st.permutations(range(len(edges))))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    shuffled = [edges[i][::-1] if flip else edges[i] for i, flip in zip(order, flips)]
    return n, edges, weights, shuffled, [weights[i] for i in order]


@DETERMINISTIC
@given(case=shuffled_edge_lists())
def test_edge_order_and_orientation_do_not_matter(case):
    n, edges, weights, shuffled, shuffled_weights = case
    g, h = Graph(n, edges, weights), Graph(n, shuffled, shuffled_weights)
    # edges and weights keep the values and types of the stored tuples they replace.
    for x in (g, h):
        assert x.edges == tuple(edges) and x.weights == tuple(weights) and x.m == len(edges)
        assert all(type(u) is int and type(v) is int for u, v in x.edges)
        assert all(type(w) is float for w in x.weights)
    for v in range(n):
        want = sorted((b if a == v else a, w) for (a, b), w in zip(edges, weights) if v in (a, b))
        assert g.neighbors(v) == h.neighbors(v) == tuple(u for u, _ in want)
        assert oracles.neighbor_weights(g, v) == oracles.neighbor_weights(h, v) == tuple(w for _, w in want)
    assert g == h and hash(g) == hash(h)
    assert g.is_unweighted() == h.is_unweighted() == all(w == 1.0 for w in weights)
    back = pickle.loads(pickle.dumps(h))
    assert back == g and hash(back) == hash(g)
    assert back.edges == g.edges and back.weights == g.weights
