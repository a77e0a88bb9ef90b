"""Group betweenness from the counting pass against the double-loop reference.

``oracles.betweenness_reference`` counts with one Python BFS per outside
vertex, with and without the set, and sums the pairs' avoiding shares with
``math.fsum``, as the library's one betweenness formula does; the
vectorised pass must give the same float, bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from gcentral import errors, graph
from gcentral.errors import BudgetExceededError
from gcentral.graph import Graph
from gcentral.measures import group_betweenness

from conftest import layered_bipartite, path_graph
import oracles

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

DETERMINISTIC = settings(derandomize=True, deadline=None, database=None)


@st.composite
def connected_graphs(draw) -> Graph:
    """A random spanning tree plus independent extra edges, weighted or not."""
    n = draw(st.integers(3, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for pair in itertools.combinations(range(n), 2):
        if pair not in edges and draw(st.booleans()):
            edges.add(pair)
    edges = sorted(edges)
    weights = None
    if draw(st.booleans()):
        weights = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.5]), min_size=len(edges), max_size=len(edges)))
    return Graph(n, edges, weights)


@DETERMINISTIC
@given(g=connected_graphs(), data=st.data())
def test_matches_reference_bit_for_bit(g, data):
    k = data.draw(st.integers(1, g.n - 2))
    members = tuple(sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=k, max_size=k))))
    assert group_betweenness(g, members).value == oracles.betweenness_reference(g, members)


def test_overflowing_counts_run_on_python_ints():
    # End to end, 20 layers of width 8 carry 8**18 = 2**54 geodesics.
    g = layered_bipartite(8, 20)
    members = (8, 9)
    avoided = np.zeros(g.n, dtype=bool)
    avoided[list(members)] = True
    assert graph._count_pass(g, np.array([0]), avoided, float) is None
    counts = graph._count_pass(g, np.array([0]), avoided, object)
    assert counts.sigma[0, g.n - 1] == 8**18
    assert counts.avoiding[0, g.n - 1] == 6 * 8**17
    assert group_betweenness(g, members).value == oracles.betweenness_reference(g, members)


@pytest.mark.parametrize("g", [path_graph(6), layered_bipartite(8, 20)], ids=["float", "object"])
def test_shortest_path_counts_hold_python_ints(g):
    counts = oracles.shortest_path_counts(g, 0)
    assert all(type(x) is int for x in counts.dist + counts.sigma)
    assert list(counts.sigma) == oracles.bfs_counts(g, 0)[1]


def test_long_path():
    g = path_graph(300)
    members = (0, 150, 151, 299)
    assert group_betweenness(g, members).value == oracles.betweenness_reference(g, members)


def one_source_limit(g: Graph) -> int:
    """The memory limit that leaves room for exactly one source per block."""
    per_vertex, per_slot = graph._ROW_BYTES
    return per_vertex * g.n + per_slot * g._indices.size


@pytest.mark.parametrize("g", [path_graph(40), layered_bipartite(8, 20)], ids=["path", "overflow"])
def test_one_source_blocks_give_the_same_value(monkeypatch, g):
    members = (8, 9)
    unlimited = group_betweenness(g, members).value
    blocks = []
    count_pass = graph._count_pass

    def spy(g, sources, avoided, dtype):
        blocks.append(len(sources))
        return count_pass(g, sources, avoided, dtype)

    monkeypatch.setattr(graph, "_count_pass", spy)
    monkeypatch.setattr(errors, "MEMORY_LIMIT", one_source_limit(g))
    assert group_betweenness(g, members).value == unlimited
    assert blocks and set(blocks) == {1}


def test_below_one_source_refused(monkeypatch):
    g = path_graph(40)
    monkeypatch.setattr(errors, "MEMORY_LIMIT", one_source_limit(g) - 1)
    with pytest.raises(BudgetExceededError, match="counting shortest paths on 40 vertices"):
        group_betweenness(g, (8,))


def test_work_limit(monkeypatch):
    g = path_graph(40)
    # 39 outside vertices times 78 CSR slots.
    monkeypatch.setattr(errors, "PATH_COUNT_LIMIT", 39 * 78)
    group_betweenness(g, (8,))
    monkeypatch.setattr(errors, "PATH_COUNT_LIMIT", 39 * 78 - 1)
    with pytest.raises(BudgetExceededError, match="39 outside vertices over 78 CSR slots"):
        group_betweenness(g, (8,))
