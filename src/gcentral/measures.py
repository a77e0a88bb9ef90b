"""The four group-centrality scores for vertex subsets of a connected graph.

Degree and closeness are computed in exact rational arithmetic so ties are
exact.  Betweenness counts, for every outside pair, its geodesics and those
avoiding the set in one vectorised pass from blocks of outside sources
(:func:`gcentral.graph.geodesic_counts`), and adds the pairs' exact integer
ratios into one float in pair order.  The random-walk score lives in
:mod:`gcentral.randomwalk` and is re-exported through :func:`evaluate`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

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

    @property
    def exact_num(self) -> int | None:
        return self.exact.numerator if self.exact is not None else None

    @property
    def exact_den(self) -> int | None:
        return self.exact.denominator if self.exact is not None else None

    @staticmethod
    def from_fraction(f: Fraction) -> "Score":
        return Score(value=float(f), exact=f)

    def render(self) -> str:
        """Human-readable form: exact rational first when one exists."""
        if self.exact is not None:
            return f"{self.exact.numerator}/{self.exact.denominator} ({self.value:.6f})"
        return f"{self.value:.6f}"


def group_degree(g: Graph, s: VertexSet | Iterable[int]) -> Score:
    """Fraction of non-members adjacent to the set; 1 iff the set dominates.

    Multiple ties from one outside vertex into the set count once.
    """
    vs = as_vertex_set(s)
    vs.check_proper(g)
    inside = set(vs.members)
    covered = 0
    outside = 0
    for v in range(g.n):
        if v in inside:
            continue
        outside += 1
        if any(w in inside for w in g.neighbors(v)):
            covered += 1
    return Score.from_fraction(Fraction(covered, outside))


def group_closeness(g: Graph, s: VertexSet | Iterable[int]) -> Score:
    """Mean hop distance from non-members to the set; 1 iff the set dominates."""
    vs = as_vertex_set(s)
    vs.check_proper(g)
    field = multi_source_distances(g, vs)
    if min(field.dist) < 0:
        raise InputError("graph is disconnected; group closeness is undefined")
    outside = g.n - len(vs)
    return Score.from_fraction(Fraction(sum(field.dist), outside))


def group_betweenness(g: Graph, s: VertexSet | Iterable[int]) -> Score:
    """Mean fraction, over outside pairs, of their geodesics meeting the set.

    Exact integer path counts per pair, summed in floating point in pair
    order, normalized by the number of outside pairs.  Value 1 iff the set
    is a vertex cover.  Refused (BudgetExceededError) when the outside
    vertices times the CSR slots pass ``errors.PATH_COUNT_LIMIT``.
    """
    vs = as_vertex_set(s)
    vs.check_proper(g)
    comp = np.asarray(vs.complement(g.n))
    c = len(comp)
    if c < 2:
        raise InputError("group betweenness needs at least two outside vertices")
    work = c * g._indices.size
    if work > errors.PATH_COUNT_LIMIT:
        raise BudgetExceededError(
            f"group betweenness from {c} outside vertices over {g._indices.size} CSR slots "
            f"needs about {work:.2e} path-count steps, above the limit of {errors.PATH_COUNT_LIMIT:.2e}"
        )
    bc = 0.0
    first = 0
    for block in geodesic_counts(g, comp, vs.members):
        # The outside pairs (u, v), u < v, with u from this block, in the
        # order of a double loop over the complement.
        rows = len(block.sigma)
        later = np.arange(c) > np.arange(first, first + rows)[:, None]
        first += rows
        total = block.sigma[:, comp][later]
        if (total == 0).any():
            raise InputError("graph is disconnected; group betweenness is undefined")
        # Each fraction is a correctly rounded ratio of exact integers; the
        # sequential sum, carried from block to block, is the double loop's.
        through = np.asarray((total - block.avoiding[:, comp][later]) / total, dtype=float)
        bc = float(np.add.accumulate(np.concatenate(([bc], through)))[-1])
    return Score(value=2.0 * bc / (c * (c - 1)))


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
