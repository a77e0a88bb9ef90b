"""Property tests: the optimizer agrees with the brute-force oracles.

Random connected graphs of at most 8 vertices, weighted and unweighted,
with k up to n - 1, under every measure.  Examples are derandomized, so every
run checks the same inputs.
"""

from __future__ import annotations

import itertools

import pytest

from gcentral.graph import Graph
from gcentral.measures import Measure, evaluate
from gcentral.optimize import MEASURE_ORDER, optimumset, score_subset

import oracles

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

DETERMINISTIC = settings(derandomize=True, deadline=None, database=None)


@st.composite
def connected_graphs(draw) -> Graph:
    """A random spanning tree plus random extra edges, optionally weighted."""
    n = draw(st.integers(2, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = list(itertools.combinations(range(n), 2))
    extra = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = sorted(edges | {p for p, keep in zip(pairs, extra) if keep})
    weights = None
    if draw(st.booleans()):
        weights = draw(st.lists(st.floats(0.1, 2.0), min_size=len(edges), max_size=len(edges)))
    return Graph(n, edges, weights)


@DETERMINISTIC
@given(g=connected_graphs(), k=st.integers(1, 7), measure=st.sampled_from(MEASURE_ORDER))
def test_optimumset_ties_match_naive_enumerator(g, k, measure):
    k = min(k, g.n - 1)
    got = [s.members for s in optimumset(g, k, measure).optimal_sets]
    _, want = oracles.naive_optimumset(g, k, measure)
    assert got == want


@DETERMINISTIC
@given(g=connected_graphs(), measure=st.sampled_from(MEASURE_ORDER), data=st.data())
def test_score_subset_matches_oracle(g, measure, data):
    members = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=min(3, g.n - 1)))
    subset = tuple(sorted(members))
    got = score_subset(g, subset, measure)
    want = oracles.group_score_oracle(g, subset, measure)
    if measure in (Measure.DEGREE, Measure.CLOSENESS):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-9)
    # What ``centrality`` prints for the set against what ``optimum`` ranks
    # it by: the same kernel for betweenness and for random walk, the same
    # Fraction for the exact measures.
    if measure is Measure.BETWEENNESS and len(subset) == g.n - 1:
        return
    single = evaluate(g, subset, measure)
    if measure.exact:
        assert single.exact == got
    else:
        assert single.value == got
