"""Undirected weighted simple graphs and the traversal primitives built on them.

A :class:`Graph` is immutable after construction: every operation in this
package is a pure function of (graph, arguments), so graphs can be shared
freely across threads and worker processes.

Every distance and connectivity question is answered by
:mod:`scipy.sparse.csgraph` on the graph's one CSR matrix: here
(:func:`is_connected`, :func:`multi_source_distances`) and in
:mod:`gcentral.optimize` (all-pairs hop distances).  Exact shortest-path
counts, which csgraph does not give, come from :func:`geodesic_counts`:
one numpy pass over the CSR arrays that runs breadth-first layers from a
block of sources at once, counting all geodesics and those avoiding a
vertex set (for group betweenness and :func:`shortest_path_counts`), in
float64 while that is exact and on Python ints past it.  The betweenness
search takes its base distances and counts from the same pass, once, from
every vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
import scipy.sparse
from scipy.sparse import csgraph

from .errors import InputError, check_memory

__all__ = [
    "Graph",
    "VertexSet",
    "PathCounts",
    "GeodesicCounts",
    "as_vertex_set",
    "load_edge_list",
    "parse_label_file",
    "format_edge_list",
    "is_connected",
    "multi_source_distances",
    "shortest_path_counts",
    "geodesic_counts",
    "weighted_degree",
]


#: Bytes a Graph allocates per vertex and per edge once its edge list is
#: validated: the CSR arrays and the sort that builds them.  Tracemalloc
#: peaks were 24 per vertex and at most 88 per edge (paths and random graphs
#: of 300 to 10**6 vertices).
_GRAPH_BYTES = (32, 96)


class Graph:
    """Simple undirected graph with strictly positive edge weights.

    Vertex ids are the integers ``0..n-1``.  Edges are stored once as
    ``(u, v)`` pairs with ``u < v``; neighbor queries are symmetric.
    Construction validates simplicity (no self-loops, no duplicates) and
    positive finite weights and weighted degrees, then freezes adjacency in
    one read-only CSR layout: row pointers ``_indptr``, neighbor ids
    ``_indices`` (ascending within a row) and per-slot weights ``_slot_w``,
    with the weighted adjacency matrix ``_csr`` over those arrays.  The
    matrix is symmetric, so csgraph's default directed traversal of it is
    the undirected one.
    """

    __slots__ = ("n", "edges", "weights", "labels", "_indptr", "_indices", "_slot_w", "_csr", "_hash")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        weights: Iterable[float] | None = None,
        labels: Sequence[str] | None = None,
    ):
        if n <= 0:
            raise InputError("graph needs at least one vertex")
        edge_list: list[tuple[int, int]] = []
        for u, v in edges:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            edge_list.append((u, v) if u < v else (v, u))
        if weights is None:
            weight_list = [1.0] * len(edge_list)
        else:
            weight_list = [float(w) for w in weights]
            if len(weight_list) != len(edge_list):
                raise InputError("weights must parallel edges")
        order = sorted(range(len(edge_list)), key=lambda i: edge_list[i])
        edge_list = [edge_list[i] for i in order]
        weight_list = [weight_list[i] for i in order]
        for e, after in zip(edge_list, edge_list[1:]):
            if e == after:
                raise InputError(f"duplicate edge {e}")
        for e, w in zip(edge_list, weight_list):
            if not 0 < w < math.inf:
                raise InputError(f"non-positive or non-finite weight {w} on edge {e}")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise InputError(f"expected {n} labels, got {len(labels)}")

        per_vertex, per_edge = _GRAPH_BYTES
        check_memory(per_vertex * n + per_edge * len(edge_list), f"a graph of {n} vertices")
        # Each edge takes one slot in either endpoint's row; sorted by row,
        # then neighbor, the rows list their neighbors in ascending order.
        ends = np.array(edge_list, dtype=np.intp).reshape(-1, 2)
        rows, cols = ends.T.ravel(), ends[:, ::-1].T.ravel()
        order = np.lexsort((cols, rows))
        rows, cols, slot_w = rows[order], cols[order], np.tile(weight_list, 2)[order]
        # bincount adds each row's weights in slot order, as a running sum would.
        wdeg = np.bincount(rows, slot_w, minlength=n)
        overflow = np.flatnonzero(~np.isfinite(wdeg))
        if overflow.size:
            raise InputError(f"weighted degree of vertex {overflow[0]} overflows")
        with np.errstate(over="ignore"):
            total = np.cumsum(wdeg)[-1]
        if not math.isfinite(total):
            raise InputError("total weighted degree overflows")

        self.n = n
        self.edges = tuple(edge_list)
        self.weights = tuple(weight_list)
        self.labels = labels
        self._indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        self._indices = cols
        self._slot_w = slot_w
        self._freeze()

    def _freeze(self) -> None:
        """Make the CSR arrays read-only, build the matrix over them, and hash."""
        for a in (self._indptr, self._indices, self._slot_w):
            a.flags.writeable = False
        csr = (self._slot_w, self._indices, self._indptr)
        self._csr = scipy.sparse.csr_array(csr, shape=(self.n, self.n))
        self._hash = hash((self.n, self.edges, self.weights, self.labels))

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self._indices[self._indptr[v] : self._indptr[v + 1]].tolist())

    def degree(self, v: int) -> int:
        return int(self._indptr[v + 1] - self._indptr[v])

    def neighbor_weights(self, v: int) -> tuple[float, ...]:
        """Weights parallel to ``neighbors(v)``."""
        return tuple(self._slot_w[self._indptr[v] : self._indptr[v + 1]].tolist())

    def is_unweighted(self) -> bool:
        return all(w == 1.0 for w in self.weights)

    def vertices(self) -> range:
        return range(self.n)

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def vertex_by_label(self, name: str) -> int:
        if self.labels is not None:
            try:
                return self.labels.index(name)
            except ValueError:
                pass
        if name.isascii() and name.isdigit() and int(name) < self.n:
            return int(name)
        raise InputError(f"unknown vertex label {name!r}")

    def relabel(self, labels: Sequence[str]) -> "Graph":
        return Graph(self.n, self.edges, self.weights, labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.edges == other.edges
            and self.weights == other.weights
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        kind = "unweighted" if self.is_unweighted() else "weighted"
        return f"Graph(n={self.n}, m={self.m}, {kind})"

    # Pickle support: __slots__ without __dict__ needs explicit state.  The
    # state was validated where it was pickled, so unpickling skips
    # validation; the hash is recomputed because str hashes are salted per
    # process.
    def __getstate__(self):
        return (self.n, self.edges, self.weights, self.labels, self._indptr, self._indices, self._slot_w)

    def __setstate__(self, state):
        self.n, self.edges, self.weights, self.labels, self._indptr, self._indices, self._slot_w = state
        self._freeze()


@dataclass(frozen=True)
class VertexSet:
    """Canonical vertex subset: sorted, distinct, nonempty members."""

    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise InputError("vertex set must be nonempty")
        if any(self.members[i] >= self.members[i + 1] for i in range(len(self.members) - 1)):
            raise InputError("vertex set members must be strictly increasing")
        if self.members[0] < 0:
            raise InputError("vertex ids must be nonnegative")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, v: int) -> bool:
        return v in self.members

    def complement(self, n: int) -> tuple[int, ...]:
        inside = set(self.members)
        return tuple(v for v in range(n) if v not in inside)

    def check_proper(self, g: Graph) -> None:
        if self.members[-1] >= g.n:
            raise InputError(f"vertex {self.members[-1]} outside graph with n={g.n}")
        if len(self.members) >= g.n:
            raise InputError("vertex set must be a proper subset of V")


def as_vertex_set(s: VertexSet | Iterable[int]) -> VertexSet:
    """Normalize any iterable of vertex ids to canonical form."""
    if isinstance(s, VertexSet):
        return s
    return VertexSet(tuple(sorted(set(int(v) for v in s))))


@dataclass(frozen=True)
class DistanceField:
    """Hop distances from every vertex to the nearest member of ``source``."""

    source: VertexSet
    dist: tuple[int, ...]


@dataclass(frozen=True)
class PathCounts:
    """Per-vertex distance and number of shortest paths from ``source``.

    Counts are exact Python integers, so they never overflow.
    """

    source: int
    dist: tuple[int, ...]
    sigma: tuple[int, ...]


UNREACHED = -1


class GeodesicCounts(NamedTuple):
    """Hop distances and geodesic counts from a block of sources, one row
    per source, one column per vertex.

    ``sigma`` counts every shortest path, ``avoiding`` those with no
    interior vertex in the avoided set.  Counts are float64 (exact integers
    below 2**53) or, past that range, Python ints in an object array.
    Unreached vertices keep dist == -1 and zero counts.
    """

    dist: np.ndarray
    sigma: np.ndarray
    avoiding: np.ndarray


#: Sources one counting pass takes at once, fewer if the memory limit says so.
_SOURCE_BLOCK = 256
# Bytes per source row, per vertex and per CSR slot: the dense rows (the
# distance, the two counts, the dedup scratch) with the caller's per-pair
# arrays, and one level's expansion, which can read every slot.  These are
# the object route's, which adds the counts' ints and the quotients' floats
# to the float64 route's.  Measured by tracemalloc: float64 65 per vertex
# (3,000-vertex path) and 45 per slot (3,000-leaf star); objects 220 per
# vertex (8 x 40 layered graph).
_ROW_BYTES = (240, 48)


def _count_pass(g: Graph, sources: np.ndarray, avoided: np.ndarray, dtype) -> GeodesicCounts | None:
    """Breadth-first layers from every source at once, counting geodesics.

    Only the (source, vertex) pairs reached at the current level are
    expanded, through the CSR slots of their vertex; a pair's counts are
    the sums over its predecessors on the layer before.  A vertex in
    ``avoided`` (a bool mask) passes on its total count but not its
    avoiding one.  In float64 the pass gives up (None) as soon as a count
    reaches 2**53, where sums could round.
    """
    n, b = g.n, len(sources)
    dist = np.full(b * n, UNREACHED, dtype=np.int32)
    sigma = np.zeros(b * n, dtype=dtype)
    avoiding = np.zeros(b * n, dtype=dtype)
    owner = np.empty(b * n, dtype=np.intp)
    degree = np.diff(g._indptr)
    # A pair (source row r, vertex v) is the flat index r * n + v.
    base = np.arange(b) * n
    vertex = np.asarray(sources, dtype=np.intp)
    key = base + vertex
    dist[key] = 0
    sigma[key] = avoiding[key] = 1
    level = 0
    while key.size:
        level += 1
        reach = degree[vertex]
        # Every CSR slot of every frontier pair, and the pair it came from.
        src = np.repeat(np.arange(key.size), reach)
        slot = np.arange(src.size) + (g._indptr[vertex] - (np.cumsum(reach) - reach))[src]
        step = base[src] + g._indices[slot]
        fresh = dist[step] == UNREACHED
        src, step = src[fresh], step[fresh]
        through = np.where(avoided[vertex], 0, avoiding[key])
        np.add.at(sigma, step, sigma[key][src])
        np.add.at(avoiding, step, through[src])
        base, key = base[src], step
        # One entry per reached pair: the candidate each key last saw.
        order = np.arange(key.size)
        owner[key] = order
        unique = owner[key] == order
        key, base = key[unique], base[unique]
        vertex = key - base
        dist[key] = level
        if dtype is float and key.size and sigma[key].max() >= 2.0**53:
            return None
    shape = (b, n)
    return GeodesicCounts(dist.reshape(shape), sigma.reshape(shape), avoiding.reshape(shape))


def geodesic_counts(g: Graph, sources: Sequence[int], avoided: Iterable[int] = ()) -> Iterator[GeodesicCounts]:
    """Distances, geodesic counts and the counts avoiding ``avoided`` (as
    interior vertices) from every source, in blocks of consecutive sources.

    Blocks are sized against the memory limit, for the object route,
    before anything is allocated; BudgetExceededError if one source does
    not fit.  Counts run in float64 until a pass trips its exactness guard;
    that block and every later one then run on Python ints.
    """
    per_vertex, per_slot = _ROW_BYTES
    row_bytes = per_vertex * g.n + per_slot * g._indices.size
    left = check_memory(row_bytes, f"counting shortest paths on {g.n} vertices")
    rows = min(_SOURCE_BLOCK, 1 + left // row_bytes)
    mask = np.zeros(g.n, dtype=bool)
    mask[list(avoided)] = True
    sources = np.asarray(sources, dtype=np.intp)
    dtype = float
    for i in range(0, len(sources), rows):
        block = sources[i : i + rows]
        counts = _count_pass(g, block, mask, dtype)
        if counts is None:
            dtype = object
            counts = _count_pass(g, block, mask, dtype)
        yield counts


def load_edge_list(
    text: str,
    weighted: bool = False,
    labels: Sequence[str] | None = None,
) -> Graph:
    """Parse a line-oriented edge list into a canonical :class:`Graph`.

    Lines hold ``u v`` or ``u v w`` with a positive finite weight ``w``;
    ``#`` starts a comment.  If every endpoint token is ASCII digits the
    tokens are vertex ids and
    ``n`` is the largest id plus one.  Otherwise tokens are string names:
    they are interned in first-seen order, unless ``labels`` is given, in
    which case the label list fixes the id of every name.
    """
    raw: list[tuple[str, str, float, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3 and (weighted or len(parts) != 2):
            form = "'u v w'" if weighted else "'u v [w]'"
            raise InputError(f"line {lineno}: expected {form}, got {body!r}")
        try:
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise InputError(f"line {lineno}: bad weight {parts[2]!r}") from exc
        if not 0 < w < math.inf:
            raise InputError(f"line {lineno}: non-positive or non-finite weight {w}")
        raw.append((parts[0], parts[1], w, lineno))
    if not raw:
        raise InputError("edge list is empty")

    # str.isdigit alone also accepts Unicode digits such as "²", which int() rejects.
    all_numeric = all(t.isascii() and t.isdigit() for a, b, _, _ in raw for t in (a, b))
    name_to_id: dict[str, int] = {}
    if labels is not None:
        name_to_id = {name: i for i, name in enumerate(labels)}

    def resolve(token: str, lineno: int) -> int:
        if labels is not None and token in name_to_id:
            return name_to_id[token]
        if all_numeric and labels is None:
            return int(token)
        if labels is not None:
            raise InputError(f"line {lineno}: token {token!r} not in label file")
        if token not in name_to_id:
            name_to_id[token] = len(name_to_id)
        return name_to_id[token]

    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    seen: set[tuple[int, int]] = set()
    for a, b, w, lineno in raw:
        u, v = resolve(a, lineno), resolve(b, lineno)
        if u == v:
            raise InputError(f"line {lineno}: self-loop at {a!r}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise InputError(f"line {lineno}: duplicate edge {a!r} {b!r}")
        seen.add(key)
        edges.append(key)
        weights.append(w)

    if labels is not None:
        n = len(labels)
        final_labels: Sequence[str] | None = labels
    elif all_numeric:
        n = max(max(u, v) for u, v in edges) + 1
        final_labels = None
    else:
        n = len(name_to_id)
        final_labels = [name for name, _ in sorted(name_to_id.items(), key=lambda kv: kv[1])]
    return Graph(n, edges, weights, final_labels)


def parse_label_file(text: str) -> list[str]:
    """Parse ``index<TAB>label`` lines into a dense label list."""
    entries: dict[int, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].rstrip("\n")
        if not body.strip():
            continue
        if "\t" not in body:
            raise InputError(f"label line {lineno}: expected 'index<TAB>label'")
        idx_s, label = body.split("\t", 1)
        # int() would also take signs, spaces, underscores and Unicode digits.
        if not (idx_s.isascii() and idx_s.isdigit()):
            negative = idx_s[:1] == "-" and idx_s[1:].isascii() and idx_s[1:].isdigit()
            what = f"negative index {idx_s}" if negative else f"bad index {idx_s!r}"
            raise InputError(f"label line {lineno}: {what}")
        idx = int(idx_s)
        if idx in entries:
            raise InputError(f"label line {lineno}: duplicate index {idx}")
        entries[idx] = label.strip()
    if not entries:
        raise InputError("label file is empty")
    n = max(entries) + 1
    missing = [i for i in range(n) if i not in entries]
    if missing:
        raise InputError(f"label file missing indices {missing}")
    return [entries[i] for i in range(n)]


def format_edge_list(g: Graph, use_labels: bool = False) -> str:
    """Render a graph in the canonical edge-list format the loader accepts."""
    lines = []
    for (u, v), w in zip(g.edges, g.weights):
        a, b = (g.label(u), g.label(v)) if use_labels else (str(u), str(v))
        if a > b:
            a, b = b, a
        if w == 1.0:
            lines.append(f"{a} {b}")
        else:
            lines.append(f"{a} {b} {w!r}")
    lines.sort()
    return "\n".join(lines) + "\n"


def is_connected(g: Graph) -> bool:
    """True iff a single component spans every vertex."""
    return csgraph.breadth_first_order(g._csr, 0, return_predecessors=False).size == g.n


def multi_source_distances(g: Graph, s: VertexSet | Iterable[int]) -> DistanceField:
    """Hop distance from every vertex to the nearest member of ``s``; -1 if none is reachable.

    Weights are ignored: distances here are purely combinatorial.
    """
    vs = as_vertex_set(s)
    if vs.members[-1] >= g.n:
        raise InputError(f"vertex {vs.members[-1]} outside graph")
    dist = csgraph.dijkstra(g._csr, unweighted=True, indices=vs.members, min_only=True)
    dist[np.isinf(dist)] = UNREACHED
    return DistanceField(source=vs, dist=tuple(dist.astype(int).tolist()))


def shortest_path_counts(g: Graph, u: int) -> PathCounts:
    """Distances and exact shortest-path counts from source ``u``."""
    if not 0 <= u < g.n:
        raise InputError(f"vertex {u} outside graph")
    counts = next(geodesic_counts(g, [u]))
    sigma = tuple(map(int, counts.sigma[0].tolist()))
    return PathCounts(source=u, dist=tuple(counts.dist[0].tolist()), sigma=sigma)


def weighted_degree(g: Graph, u: int) -> float:
    """Sum of incident edge weights; equals the degree when unweighted."""
    if not 0 <= u < g.n:
        raise InputError(f"vertex {u} outside graph")
    return sum(g.neighbor_weights(u))
