"""The four group-centrality scores for vertex subsets of a connected graph.

Degree and closeness are computed in exact rational arithmetic so ties are
exact.  Betweenness counts, for every outside pair, its geodesics and those
avoiding the set in one vectorised pass from blocks of outside sources
(:func:`gcentral.graph.geodesic_counts`), and sums the pairs' correctly
rounded shares with ``math.fsum``, by the one formula the search
(:mod:`gcentral.optimize`) also uses.  The random-walk score is the mean
absorbing-solve hitting time (:func:`gcentral.randomwalk.hitting_time_set`),
checked against its degree/closeness upper bound by
:func:`check_upper_bound`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from . import errors
from .errors import BudgetExceededError, InputError
from .graph import Graph, VertexSet, as_vertex_set, geodesic_counts, multi_source_distances
from .randomwalk import ROUTE_ABSORBING, hitting_time_set

__all__ = [
    "Measure",
    "Score",
    "group_degree",
    "group_closeness",
    "group_betweenness",
    "group_randomwalk",
    "evaluate",
    "check_upper_bound",
    "BoundCheck",
]


class Measure(enum.Enum):
    """A group-centrality measure together with its optimization direction."""

    DEGREE = "degree"
    CLOSENESS = "closeness"
    BETWEENNESS = "betweenness"
    RANDOMWALK = "randomwalk"

    @property
    def maximize(self) -> bool:
        """Higher is more central for degree and betweenness; lower for the rest."""
        return self in (Measure.DEGREE, Measure.BETWEENNESS)

    @property
    def exact(self) -> bool:
        """Whether scores carry an exact rational representation."""
        return self in (Measure.DEGREE, Measure.CLOSENESS)

    @classmethod
    def parse(cls, name: str) -> "Measure":
        key = name.strip().lower().replace("-", "").replace("_", "")
        for m in cls:
            if m.value == key:
                return m
        raise InputError(f"unknown measure {name!r}")


@dataclass(frozen=True)
class Score:
    """A measure value, optionally with its exact rational form."""

    value: float
    exact: Fraction | None = None

    @staticmethod
    def from_fraction(f: Fraction) -> "Score":
        return Score(value=float(f), exact=f)


def group_degree(g: Graph, s: VertexSet | Iterable[int]) -> Score:
    """Fraction of non-members adjacent to the set; 1 iff the set dominates.

    It counts the outside vertices at hop distance 1, so multiple ties from
    one outside vertex into the set count once.
    """
    vs = as_vertex_set(s)
    vs.check_proper(g)
    dist = multi_source_distances(g, vs)
    return Score.from_fraction(Fraction(int(np.count_nonzero(dist == 1)), g.n - len(vs)))


def group_closeness(g: Graph, s: VertexSet | Iterable[int]) -> Score:
    """Mean hop distance from non-members to the set; 1 iff the set dominates."""
    vs = as_vertex_set(s)
    vs.check_proper(g)
    dist = multi_source_distances(g, vs)
    if dist.min() < 0:
        raise InputError("graph is disconnected; group closeness is undefined")
    outside = g.n - len(vs)
    return Score.from_fraction(Fraction(int(dist.sum()), outside))


def betweenness_score(shares: Iterable[np.ndarray], c: int) -> float:
    """2 (P - fsum(shares)) / (c (c - 1)) over the P outside pairs' avoiding
    shares, given in blocks.  fsum rounds the exact sum once, so no order or
    blocking moves a bit; the shares equal to 1 enter it as one count."""

    def terms() -> Iterator[float]:
        for block in shares:
            yield int(np.count_nonzero(block == 1.0))
            yield from block[block != 1.0].tolist()

    return 2.0 * (c * (c - 1) // 2 - math.fsum(terms())) / (c * (c - 1))


def group_betweenness(g: Graph, s: VertexSet | Iterable[int]) -> Score:
    """Mean fraction, over outside pairs, of their geodesics meeting the set.

    Exact integer path counts per pair, summed as shares by
    :func:`betweenness_score`, as in the search.  Value 1 iff the set is a
    vertex cover, so 1 with one outside vertex, which leaves no pairs (the
    search's convention too).  Refused (BudgetExceededError) when the outside
    vertices times the CSR slots pass ``errors.PATH_COUNT_LIMIT``.
    """
    vs = as_vertex_set(s)
    vs.check_proper(g)
    comp = np.asarray(vs.complement(g.n))
    c = len(comp)
    if c == 1:
        return Score(value=1.0)
    work = c * g._indices.size
    if work > errors.PATH_COUNT_LIMIT:
        raise BudgetExceededError(
            f"group betweenness from {c} outside vertices over {g._indices.size} CSR slots "
            f"needs about {work:.2e} path-count steps, above the limit of {errors.PATH_COUNT_LIMIT:.2e}"
        )

    def shares() -> Iterator[np.ndarray]:
        # Per block of sources, each pair u < v of the complement's share of
        # geodesics avoiding the set, a correctly rounded ratio of exact counts.
        first = 0
        for block in geodesic_counts(g, comp, vs.members):
            rows = len(block.sigma)
            later = np.arange(c) > np.arange(first, first + rows)[:, None]
            first += rows
            total = block.sigma[:, comp][later]
            if (total == 0).any():
                raise InputError("graph is disconnected; group betweenness is undefined")
            yield np.asarray(block.avoiding[:, comp][later] / total, dtype=float)

    return Score(value=betweenness_score(shares(), c))


def group_randomwalk(g: Graph, s: VertexSet | Iterable[int]) -> Score:
    """Mean hitting time to the set over all outside vertices.

    Lower is more central; the value is 1 exactly when the set is a vertex
    cover (every outside vertex is absorbed in one step).
    """
    vs = as_vertex_set(s)
    sol = hitting_time_set(g, vs, route=ROUTE_ABSORBING)
    # The search's mean, so that centrality and optimum print one value.
    return Score(value=math.fsum(sol.h) / (g.n - len(vs)))


def evaluate(g: Graph, s: VertexSet | Iterable[int], measure: Measure) -> Score:
    """Score one set under one measure (reference implementations)."""
    if measure is Measure.DEGREE:
        return group_degree(g, s)
    if measure is Measure.CLOSENESS:
        return group_closeness(g, s)
    if measure is Measure.BETWEENNESS:
        return group_betweenness(g, s)
    return group_randomwalk(g, s)


@dataclass(frozen=True)
class BoundCheck:
    """Evaluation of the degree/closeness bound on the group score.

    ``lhs`` is the group random-walk score and ``mid`` the fully determined
    middle expression ``(sum of set distances)(sum of outside degrees) /
    |outside|``.  ``holds`` checks ``lhs <= mid`` with 1e-9 slack.
    """

    lhs: float
    mid: float
    holds: bool


def check_upper_bound(g: Graph, s: VertexSet | Iterable[int]) -> BoundCheck:
    """Check the group score against its degree/closeness upper bound.

    Requires unit weights: the bound rests on unweighted hitting-time
    estimates.
    """
    if not g.is_unweighted():
        raise InputError("upper bound is stated for unweighted graphs")
    vs = as_vertex_set(s)
    vs.check_proper(g)
    comp = vs.complement(g.n)
    lhs = group_randomwalk(g, vs).value
    # The members' distances are 0, so the sum over all vertices is the outside's.
    sum_dist = int(multi_source_distances(g, vs).sum())
    sum_deg = sum(g.degree(v) for v in comp)
    mid = sum_dist * sum_deg / len(comp)
    return BoundCheck(lhs=lhs, mid=mid, holds=lhs <= mid + 1e-9)
