"""The four group-centrality scores for vertex subsets of a connected graph.

Degree and closeness are computed in exact rational arithmetic so ties are
exact.  Betweenness counts, for every outside pair, its geodesics and those
avoiding the set in one vectorised pass from blocks of outside sources
(:func:`gcentral.graph.geodesic_counts`), and sums the pairs' correctly
rounded shares with ``math.fsum``, by the one formula the search
(:mod:`gcentral.optimize`) also uses.  The random-walk score lives in
:mod:`gcentral.randomwalk` and is re-exported through :func:`evaluate`.
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

__all__ = [
    "Measure",
    "Score",
    "group_degree",
    "group_closeness",
    "group_betweenness",
    "evaluate",
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
    field = multi_source_distances(g, vs)
    return Score.from_fraction(Fraction(field.dist.count(1), g.n - len(vs)))


def group_closeness(g: Graph, s: VertexSet | Iterable[int]) -> Score:
    """Mean hop distance from non-members to the set; 1 iff the set dominates."""
    vs = as_vertex_set(s)
    vs.check_proper(g)
    field = multi_source_distances(g, vs)
    if min(field.dist) < 0:
        raise InputError("graph is disconnected; group closeness is undefined")
    outside = g.n - len(vs)
    return Score.from_fraction(Fraction(sum(field.dist), outside))


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


def evaluate(g: Graph, s: VertexSet | Iterable[int], measure: Measure) -> Score:
    """Score one set under one measure (reference implementations)."""
    if measure is Measure.DEGREE:
        return group_degree(g, s)
    if measure is Measure.CLOSENESS:
        return group_closeness(g, s)
    if measure is Measure.BETWEENNESS:
        return group_betweenness(g, s)
    from .randomwalk import group_randomwalk

    return group_randomwalk(g, s)
