"""Shared graph builders, fixture loaders, and the small-graph corpus."""

from __future__ import annotations

import itertools
from importlib import resources

import numpy as np
import pytest

from gcentral.graph import Graph, is_connected, load_edge_list, parse_label_file


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def torus_graph(rows: int, cols: int) -> Graph:
    """The rows x cols grid with both directions wrapped around."""
    edges = set()
    for r, c in itertools.product(range(rows), range(cols)):
        u = r * cols + c
        for v in (((r + 1) % rows) * cols + c, r * cols + (c + 1) % cols):
            edges.add((min(u, v), max(u, v)))
    return Graph(rows * cols, sorted(edges))


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))


def layered_bipartite(width: int, layers: int, hub: bool = False) -> Graph:
    """Consecutive layers of ``width`` vertices joined completely, and with
    ``hub`` one more vertex, the last, next to every other."""
    n = width * layers
    edges = [
        (layer * width + a, (layer + 1) * width + b)
        for layer in range(layers - 1)
        for a in range(width)
        for b in range(width)
    ]
    return Graph(n + hub, edges + [(v, n) for v in range(n) if hub])


def random_connected_graph(
    rng: np.random.Generator,
    n: int,
    extra_edge_prob: float = 0.25,
    weighted: bool = False,
) -> Graph:
    """Random spanning tree plus Bernoulli extra edges; weights in [0.1, 2]."""
    edges = set()
    for v in range(1, n):
        edges.add((int(rng.integers(v)), v))
    for u, v in itertools.combinations(range(n), 2):
        if (u, v) not in edges and rng.random() < extra_edge_prob:
            edges.add((u, v))
    edges = sorted(edges)
    weights = None
    if weighted:
        weights = [float(w) for w in rng.uniform(0.1, 2.0, size=len(edges))]
    return Graph(n, edges, weights)


def random_proper_subset(rng: np.random.Generator, n: int, max_size: int | None = None) -> tuple[int, ...]:
    hi = n - 1 if max_size is None else min(max_size, n - 1)
    k = int(rng.integers(1, hi + 1))
    return tuple(sorted(int(v) for v in rng.choice(n, size=k, replace=False)))


def all_connected_graphs(n: int):
    """Every labeled connected graph on n vertices (feasible for n <= 5)."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for bits in range(2 ** len(pairs)):
        if bin(bits).count("1") < n - 1:
            continue
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        g = Graph(n, edges)
        if is_connected(g):
            out.append(g)
    return out


def _fixture_text(name: str) -> str:
    return resources.files("gcentral").joinpath(f"fixtures/{name}").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def concept_labels() -> list[str]:
    return parse_label_file(_fixture_text("labels.tsv"))


@pytest.fixture(scope="session")
def novice(concept_labels) -> Graph:
    return load_edge_list(_fixture_text("novice.edges"), labels=concept_labels)


@pytest.fixture(scope="session")
def expert(concept_labels) -> Graph:
    return load_edge_list(_fixture_text("expert.edges"), labels=concept_labels)


@pytest.fixture(scope="session")
def exhaustive_corpus() -> list[Graph]:
    """All connected graphs with 2..5 vertices (771 graphs)."""
    out = []
    for n in range(2, 6):
        out.extend(all_connected_graphs(n))
    return out


@pytest.fixture(scope="session")
def sampled_corpus() -> list[Graph]:
    """Seeded random connected graphs with 6..8 vertices."""
    rng = np.random.Generator(np.random.PCG64(20240901))
    out = []
    for n in (6, 7, 8):
        for _ in range(25):
            out.append(random_connected_graph(rng, n, extra_edge_prob=float(rng.uniform(0.1, 0.6))))
    return out


@pytest.fixture(scope="session")
def corpus_n8(exhaustive_corpus, sampled_corpus) -> list[Graph]:
    return exhaustive_corpus + sampled_corpus


@pytest.fixture(scope="session")
def corpus_n7(exhaustive_corpus, sampled_corpus) -> list[Graph]:
    return exhaustive_corpus + [g for g in sampled_corpus if g.n <= 7]
