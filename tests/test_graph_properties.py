"""Property tests: the csgraph traversals agree with the oracles' BFS.

Random graphs of at most 9 vertices with every edge drawn independently,
so many are disconnected or have isolated vertices.  Examples are
derandomized, so every run checks the same inputs.
"""

from __future__ import annotations

import itertools

import pytest

from gcentral.graph import Graph, is_connected, multi_source_distances

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
    assert multi_source_distances(g, members).dist == tuple(want)
