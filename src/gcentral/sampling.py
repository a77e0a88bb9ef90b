"""Random-walk graph sampling and the clique/star separating family.

Sampling walks the source graph (with restarts) until a target number of
distinct vertices has been visited, then returns the induced subgraph.
Every step moves along an edge from a visited vertex and every restart
returns to the start, so the visited vertices always induce a connected
graph, which every downstream measure needs.

The separating family attaches m cliques and m stars of size n to a hub;
its point is that the random-walk score prefers the clique-attachment set
while closeness cannot tell it from the star-root set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, SamplingBudgetError
from .graph import Graph, VertexSet, _renamed_edges
from .randomwalk import RNG_NAME, _step_table

__all__ = [
    "SampleConfig",
    "SampleResult",
    "random_walk_sample",
    "FamilyParams",
    "GadgetFamily",
    "generate_family",
]

DEFAULT_RESTART = 0.15
DEFAULT_STEP_BUDGET = 100_000


@dataclass(frozen=True)
class SampleConfig:
    """Parameters of one sampling run.

    ``restart_probability`` defaults to 0.15; the sampling scheme this
    follows leaves the value open, so it is explicit configuration.
    """

    target_nodes: int = 40
    restart_probability: float = DEFAULT_RESTART
    seed: int = 0
    step_budget: int = DEFAULT_STEP_BUDGET

    def __post_init__(self):
        if self.target_nodes < 2:
            raise InputError("target_nodes must be at least 2")
        if not 0.0 < self.restart_probability < 1.0:
            raise InputError("restart_probability must lie in (0, 1)")
        if self.step_budget < self.target_nodes:
            raise InputError("step_budget must be at least target_nodes")
        if self.seed < 0:
            raise InputError("seed must be nonnegative")


@dataclass(frozen=True)
class SampleResult:
    """Induced sample with the mapping back to source-graph vertex ids.

    ``visited`` counts the distinct vertices the walk touched, all of them
    in ``graph``.
    """

    graph: Graph
    original_ids: tuple[int, ...]
    visited: int
    seed: int
    rng: str = RNG_NAME


def random_walk_sample(g: Graph, cfg: SampleConfig) -> SampleResult:
    """Visit vertices by a restarting random walk and induce the subgraph.

    The walk starts at a seed-chosen vertex, restarts there with the
    configured probability, and records distinct visits until
    ``cfg.target_nodes`` vertices are collected.  The induced subgraph is
    connected (see the module docstring).  Deterministic for a fixed seed.
    """
    if g.n < cfg.target_nodes:
        raise InputError(f"graph has {g.n} < target_nodes={cfg.target_nodes} vertices")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    start = int(rng.integers(g.n))
    cum = _step_table(g).cum
    bounds = g._indptr.tolist()

    visited: set[int] = {start}
    current = start
    steps = 0
    while len(visited) < cfg.target_nodes:
        if steps >= cfg.step_budget:
            raise SamplingBudgetError(
                f"step budget {cfg.step_budget} exhausted with "
                f"{len(visited)} of {cfg.target_nodes} vertices visited"
            )
        steps += 1
        if rng.random() < cfg.restart_probability:
            current = start
            continue
        lo = bounds[current]
        row = cum[lo : bounds[current + 1]]
        current = int(g._indices[lo + int(np.searchsorted(row, rng.random(), side="right"))])
        visited.add(current)

    sample, original_ids = _induced(g, sorted(visited))
    return SampleResult(
        graph=sample, original_ids=original_ids, visited=len(visited), seed=cfg.seed
    )


def _induced(g: Graph, ids: list[int]) -> tuple[Graph, tuple[int, ...]]:
    """The subgraph of ``g`` induced by the ascending ``ids``, renumbered in their order."""
    new_id = np.full(g.n, -1)
    new_id[ids] = np.arange(len(ids))
    u, v, w = _renamed_edges(g, new_id)
    labels = [g.label(v) for v in ids] if g.labels is not None else None
    return Graph(len(ids), zip(u.tolist(), v.tolist()), w.tolist(), labels), tuple(ids)


@dataclass(frozen=True)
class FamilyParams:
    """Clique/star gadget sizes: n vertices per gadget, m gadgets of each kind."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 2:
            raise InputError("family needs n >= 2")
        if self.m < 1:
            raise InputError("family needs m >= 1")


@dataclass(frozen=True)
class GadgetFamily:
    """Hub-plus-gadgets graph with its landmark vertex sets.

    Layout: hub is vertex 0; then the m cliques in order, attach vertex
    first within each; then the m stars, root first.
    """

    graph: Graph
    hub: int
    clique_attach: VertexSet
    star_roots: VertexSet

    @property
    def clique_set(self) -> VertexSet:
        """Hub plus every clique attach vertex (the random-walk optimum)."""
        return VertexSet(tuple(sorted((self.hub,) + self.clique_attach.members)))

    @property
    def star_set(self) -> VertexSet:
        """Hub plus every star root (ties the clique set under closeness)."""
        return VertexSet(tuple(sorted((self.hub,) + self.star_roots.members)))


def generate_family(p: FamilyParams) -> GadgetFamily:
    """Build the hub + m n-cliques + m n-stars graph with labeled landmarks."""
    n, m = p.n, p.m
    edges: list[tuple[int, int]] = []
    attach = []
    roots = []
    for i in range(m):
        base = 1 + i * n
        attach.append(base)
        edges.append((0, base))
        for a in range(n):
            for b in range(a + 1, n):
                edges.append((base + a, base + b))
    for i in range(m):
        base = 1 + (m + i) * n
        roots.append(base)
        edges.append((0, base))
        for leaf in range(1, n):
            edges.append((base, base + leaf))
    g = Graph(1 + 2 * m * n, edges)
    return GadgetFamily(
        graph=g,
        hub=0,
        clique_attach=VertexSet(tuple(attach)),
        star_roots=VertexSet(tuple(roots)),
    )
