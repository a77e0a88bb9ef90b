"""Independent reference implementations used only to check the library.

Everything here is deliberately written from scratch against the raw
definitions (explicit path enumeration, neighbor scans, hand-built linear
systems) rather than reusing library internals, so agreement is meaningful.
The last four, views of library results and graphs, are the exception:
only tests read them.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from gcentral.errors import InputError
from gcentral.graph import Graph, geodesic_counts
from gcentral.measures import Measure


def bfs_distances(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.n
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for v in g.neighbors(u):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def all_pairs_distances(g: Graph) -> list[list[int]]:
    return [bfs_distances(g, u) for u in range(g.n)]


def reachable_from(g: Graph, source: int) -> set[int]:
    seen = {source}
    q = deque([source])
    while q:
        u = q.popleft()
        for v in g.neighbors(u):
            if v not in seen:
                seen.add(v)
                q.append(v)
    return seen


def enumerate_shortest_paths(g: Graph, u: int, v: int) -> list[tuple[int, ...]]:
    """Every shortest u-v path, as explicit vertex tuples (DFS over the BFS dag)."""
    dist = bfs_distances(g, u)
    if dist[v] < 0:
        return []
    paths = []

    def walk_back(w: int, suffix: tuple[int, ...]) -> None:
        if w == u:
            paths.append((u,) + suffix)
            return
        for p in g.neighbors(w):
            if dist[p] == dist[w] - 1:
                walk_back(p, (w,) + suffix)

    walk_back(v, ())
    return paths


def colex_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """Every size-k subset of range(n) in colex order: sorted by the reversed tuple."""
    return sorted(itertools.combinations(range(n), k), key=lambda s: s[::-1])


def is_dominating(g: Graph, members: tuple[int, ...]) -> bool:
    inside = set(members)
    return all(
        v in inside or any(w in inside for w in g.neighbors(v)) for v in range(g.n)
    )


def is_vertex_cover(g: Graph, members: tuple[int, ...]) -> bool:
    inside = set(members)
    return all(u in inside or v in inside for u, v in g.edges)


def dominating_sets(g: Graph, k: int) -> list[tuple[int, ...]]:
    """Every size-k dominating set, in lexicographic order."""
    return [s for s in itertools.combinations(range(g.n), k) if is_dominating(g, s)]


def vertex_covers(g: Graph, k: int) -> list[tuple[int, ...]]:
    """Every size-k vertex cover, in lexicographic order."""
    return [s for s in itertools.combinations(range(g.n), k) if is_vertex_cover(g, s)]


def classical_degree(g: Graph, v: int) -> Fraction:
    return Fraction(g.degree(v), g.n - 1)


def classical_closeness(g: Graph, v: int) -> Fraction:
    return Fraction(sum(bfs_distances(g, v)), g.n - 1)


def classical_betweenness(g: Graph, v: int) -> float:
    """Pair-normalized betweenness of one vertex by explicit path enumeration."""
    others = [u for u in range(g.n) if u != v]
    total = 0.0
    for i, u in enumerate(others):
        for w in others[i + 1 :]:
            paths = enumerate_shortest_paths(g, u, w)
            through = sum(1 for p in paths if v in p)
            total += through / len(paths)
    pairs = (g.n - 1) * (g.n - 2) // 2
    return total / pairs


def sigma_through_oracle(
    g: Graph, u: int, v: int, members: tuple[int, ...]
) -> tuple[int, int]:
    inside = set(members)
    paths = enumerate_shortest_paths(g, u, v)
    through = sum(1 for p in paths if inside & set(p))
    return through, len(paths)


def bfs_counts(g: Graph, source: int, banned: frozenset[int] = frozenset()) -> tuple[list[int], list[int]]:
    """Single-source BFS with exact shortest-path counts, skipping ``banned``
    vertices; banned or unreachable vertices keep dist -1 and count 0."""
    dist = [-1] * g.n
    sigma = [0] * g.n
    dist[source] = 0
    sigma[source] = 1
    q = deque([source])
    while q:
        u = q.popleft()
        for v in g.neighbors(u):
            if v in banned:
                continue
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                q.append(v)
            if dist[v] == dist[u] + 1:
                sigma[v] += sigma[u]
    return dist, sigma


def betweenness_reference(g: Graph, members: tuple[int, ...]) -> float:
    """Group betweenness by one double loop over the outside pairs.

    The paths avoiding the set are the shortest paths of the original length
    that survive with the set removed; each pair's avoiding share is a ratio
    of exact integers, and the shares are summed correctly rounded
    (``math.fsum``) and taken from the number of pairs P:
    2 (P - sum) / (c (c - 1)).
    """
    inside = frozenset(members)
    outside = [v for v in range(g.n) if v not in inside]
    shares = []
    for i, u in enumerate(outside):
        dist, sigma = bfs_counts(g, u)
        dist_sub, sigma_sub = bfs_counts(g, u, inside)
        for v in outside[i + 1 :]:
            avoiding = sigma_sub[v] if dist_sub[v] == dist[v] else 0
            shares.append(avoiding / sigma[v])
    c = len(outside)
    return 2 * (len(shares) - math.fsum(shares)) / (c * (c - 1))


def hitting_times_oracle(g: Graph, members: tuple[int, ...]) -> dict[int, float]:
    """Expected absorption steps from hand-built first-step equations."""
    inside = set(members)
    outside = [v for v in range(g.n) if v not in inside]
    index = {v: i for i, v in enumerate(outside)}
    a = np.zeros((len(outside), len(outside)))
    b = np.ones(len(outside))
    for v in outside:
        a[index[v], index[v]] = 1.0
        wsum = sum(neighbor_weights(g, v))
        for w, wt in zip(g.neighbors(v), neighbor_weights(g, v)):
            if w not in inside:
                a[index[v], index[w]] -= wt / wsum
    h = np.linalg.solve(a, b)
    out = {v: 0.0 for v in inside}
    out.update({v: float(h[index[v]]) for v in outside})
    return out


def exact_hitting_times(g: Graph, members: tuple[int, ...]) -> dict[int, Fraction]:
    """Expected absorption steps in exact rational arithmetic: the
    first-step equations over the graph's float weights, read exactly,
    solved by Gauss-Jordan elimination (I - Q is an M-matrix, so no pivot
    vanishes)."""
    inside = set(members)
    outside = [v for v in range(g.n) if v not in inside]
    adj = [[Fraction(0)] * g.n for _ in range(g.n)]
    for (u, v), w in zip(g.edges, g.weights):
        adj[u][v] = adj[v][u] = Fraction(w)
    rows = []
    for i, u in enumerate(outside):
        total = sum(adj[u])
        rows.append([Fraction(i == j) - adj[u][x] / total for j, x in enumerate(outside)] + [Fraction(1)])
    for c, pivot_row in enumerate(rows):
        for r, row in enumerate(rows):
            if r != c and row[c]:
                f = row[c] / pivot_row[c]
                rows[r] = [a - f * b for a, b in zip(row, pivot_row)]
    out = {v: Fraction(0) for v in inside}
    out.update({u: rows[i][-1] / rows[i][i] for i, u in enumerate(outside)})
    return out


def group_score_oracle(g: Graph, members: tuple[int, ...], measure: Measure):
    """Score one set straight from the definitions (exact where possible)."""
    inside = set(members)
    outside = [v for v in range(g.n) if v not in inside]
    if measure is Measure.DEGREE:
        touched = sum(
            1 for v in outside if any(w in inside for w in g.neighbors(v))
        )
        return Fraction(touched, len(outside))
    if measure is Measure.CLOSENESS:
        total = 0
        for v in outside:
            dist = bfs_distances(g, v)
            total += min(dist[s] for s in members)
        return Fraction(total, len(outside))
    if measure is Measure.BETWEENNESS:
        if len(outside) < 2:
            # No outside pairs: vacuously fully mediated (the convention the
            # vertex-cover characterization needs).
            return 1.0
        total = 0.0
        for i, u in enumerate(outside):
            for v in outside[i + 1 :]:
                through, count = sigma_through_oracle(g, u, v, members)
                total += through / count
        c = len(outside)
        return 2.0 * total / (c * (c - 1))
    h = hitting_times_oracle(g, members)
    return sum(h[v] for v in outside) / len(outside)


def naive_optimumset(g: Graph, k: int, measure: Measure):
    """Sequential brute force: no pruning, no partitioning, no parallelism.

    Returns (best_value, lexicographically sorted list of optimal tuples).
    Ties match the library's regime: exact for rationals, 1e-9 relative for
    floats.
    """
    scored = [
        (group_score_oracle(g, s, measure), s)
        for s in itertools.combinations(range(g.n), k)
    ]
    values = [v for v, _ in scored]
    best = max(values) if measure.maximize else min(values)
    if measure.exact:
        optima = [s for v, s in scored if v == best]
    else:
        optima = [
            s
            for v, s in scored
            if abs(v - best) <= max(1e-9 * max(abs(v), abs(best)), 1e-12)
        ]
    return best, sorted(optima)


def contract_oracle(g: Graph, members: tuple[int, ...]) -> tuple[Graph, tuple[int, ...], tuple[int, ...]]:
    """Contract ``members`` by one loop over the edges: the merged graph (each
    outside vertex's crossing weights added in edge order by a running sum),
    the vertex mapping and the members with an outside neighbor."""
    inside = set(members)
    comp = [v for v in range(g.n) if v not in inside]
    idmap = {v: i for i, v in enumerate(comp)}
    merged = len(comp)
    edges, weights = [], []
    into_merged: dict[int, float] = {}
    boundary = set()
    for (u, v), w in zip(g.edges, g.weights):
        u_in, v_in = u in inside, v in inside
        if u_in and v_in:
            continue
        if not u_in and not v_in:
            edges.append((idmap[u], idmap[v]))
            weights.append(w)
        else:
            out, bnd = (v, u) if u_in else (u, v)
            into_merged[idmap[out]] = into_merged.get(idmap[out], 0.0) + w
            boundary.add(bnd)
    for cu in sorted(into_merged):
        edges.append((cu, merged))
        weights.append(into_merged[cu])
    labels = None
    if g.labels is not None:
        labels = [g.label(v) for v in comp] + [",".join(g.label(v) for v in sorted(inside))]
    mapping = tuple(idmap.get(v, merged) for v in range(g.n))
    return Graph(merged + 1, edges, weights, labels), mapping, tuple(sorted(boundary))


def induced_oracle(g: Graph, ids: list[int]) -> Graph:
    """The subgraph induced by the ascending ``ids``, renumbered in their
    order, by one loop over the edges."""
    idmap = {v: i for i, v in enumerate(ids)}
    edges, weights = [], []
    for (u, v), w in zip(g.edges, g.weights):
        if u in idmap and v in idmap:
            edges.append((idmap[u], idmap[v]))
            weights.append(w)
    labels = [g.label(v) for v in ids] if g.labels is not None else None
    return Graph(len(ids), edges, weights, labels)


@dataclass(frozen=True)
class PathCounts:
    """Per-vertex distance and number of shortest paths from ``source``.

    Counts are exact Python integers, so they never overflow.
    """

    source: int
    dist: tuple[int, ...]
    sigma: tuple[int, ...]


def shortest_path_counts(g: Graph, u: int) -> PathCounts:
    """Distances and exact shortest-path counts from source ``u``, by the library's counting pass."""
    if not 0 <= u < g.n:
        raise InputError(f"vertex {u} outside graph")
    counts = next(geodesic_counts(g, [u]))
    sigma = tuple(map(int, counts.sigma[0].tolist()))
    return PathCounts(source=u, dist=tuple(counts.dist[0].tolist()), sigma=sigma)


def weighted_degree(g: Graph, u: int) -> float:
    """Sum of incident edge weights; equals the degree when unweighted."""
    if not 0 <= u < g.n:
        raise InputError(f"vertex {u} outside graph")
    return sum(neighbor_weights(g, u))


def neighbor_weights(g: Graph, v: int) -> tuple[float, ...]:
    """Weights parallel to ``g.neighbors(v)``: the slots of ``v``'s CSR row."""
    return tuple(g._slot_w[g._indptr[v] : g._indptr[v + 1]].tolist())


def relabel(g: Graph, labels: list[str]) -> Graph:
    """``g`` with the vertex labels ``labels``."""
    return Graph(g.n, g.edges, g.weights, labels)
