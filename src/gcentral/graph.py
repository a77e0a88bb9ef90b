"""Undirected weighted simple graphs and the traversal primitives built on them.

A :class:`Graph` is immutable after construction: every operation in this
package is a pure function of (graph, arguments), so graphs can be shared
freely across threads and worker processes.  Its CSR arrays are its only
edge store: ``edges`` and ``weights``, induced subgraphs and contractions
(:func:`_renamed_edges`) are read off them.

One numpy traversal of the CSR arrays, :func:`_layers`, answers every
distance question: breadth-first layers of many rows at once, expanding
only the pairs the last layer reached.  Its distances serve
:func:`is_connected`, :func:`multi_source_distances` (a row that starts
at every member) and the closeness search's all-pairs distances
(:func:`_hop_distances`, in blocks of sources).  :func:`geodesic_counts`
counts geodesics on the same layers, all of them and those avoiding a
vertex set (group betweenness), in float64 while that is exact and on
Python ints past it; the betweenness search takes its base distances and
counts from it, once, from every vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InputError, check_memory

__all__ = [
    "Graph",
    "VertexSet",
    "GeodesicCounts",
    "as_vertex_set",
    "load_edge_list",
    "parse_label_file",
    "format_edge_list",
    "is_connected",
    "multi_source_distances",
    "geodesic_counts",
]


#: Bytes a Graph allocates per vertex and per edge once its edge list is
#: validated, with room for the sorted slots it still holds.  Tracemalloc
#: peaks after the check were 24 per vertex and at most 24 per edge (paths
#: and random graphs of 3 * 10**4 to 10**6 vertices).
_GRAPH_BYTES = (32, 96)


class Graph:
    """Simple undirected graph with strictly positive edge weights.

    Vertex ids are the integers ``0..n-1``.  Construction validates
    simplicity (no self-loops, no duplicates) and positive finite weights
    and weighted degrees, then freezes adjacency in one read-only CSR
    layout, the graph's only edge store: row pointers ``_indptr``, neighbor
    ids ``_indices`` (ascending within a row) and per-slot weights
    ``_slot_w``.  An edge has a slot in either end's row; ``edges``
    (``(u, v)`` with ``u < v``, sorted) and ``weights`` are views of the
    slots above the diagonal.
    """

    __slots__ = ("n", "labels", "_indptr", "_indices", "_slot_w")

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
        # A slot per edge in either end's row, sorted by row, then neighbor: the
        # first equal pair is the first duplicate edge's, in its smaller end's
        # row.  Ids past int64 sort as Python ints; the memory check refuses them.
        ends = np.array(edge_list, dtype=np.intp if n <= 2**63 else object).reshape(-1, 2)
        rows, cols = ends.T.ravel(), ends[:, ::-1].T.ravel()
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        same = np.flatnonzero((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1]))
        if same.size:
            raise InputError(f"duplicate edge {edge_list[order[same[0]]]}")
        bad = min(((e, w) for e, w in zip(edge_list, weight_list) if not 0 < w < math.inf), default=None)
        if bad:
            raise InputError(f"non-positive or non-finite weight {bad[1]} on edge {bad[0]}")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise InputError(f"expected {n} labels, got {len(labels)}")

        per_vertex, per_edge = _GRAPH_BYTES
        check_memory(per_vertex * n + per_edge * len(edge_list), f"a graph of {n} vertices")
        slot_w = np.tile(weight_list, 2)[order]
        # bincount adds each row's weights in slot order, as a running sum would.
        wdeg = np.bincount(rows, slot_w, minlength=n)
        overflow = np.flatnonzero(~np.isfinite(wdeg))
        if overflow.size:
            raise InputError(f"weighted degree of vertex {overflow[0]} overflows")
        with np.errstate(over="ignore"):
            total = np.cumsum(wdeg)[-1]
        if not math.isfinite(total):
            raise InputError("total weighted degree overflows")

        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        self.__setstate__((n, labels, indptr, cols, slot_w))

    def _slot_rows(self) -> np.ndarray:
        """The vertex whose row holds each CSR slot, built on each call."""
        return np.repeat(np.arange(self.n), np.diff(self._indptr))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        rows = self._slot_rows()
        upper = rows < self._indices
        return tuple(zip(rows[upper].tolist(), self._indices[upper].tolist()))

    @property
    def weights(self) -> tuple[float, ...]:
        """Weights parallel to ``edges``."""
        return tuple(self._slot_w[self._slot_rows() < self._indices].tolist())

    @property
    def m(self) -> int:
        return self._indices.size // 2

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self._indices[self._indptr[v] : self._indptr[v + 1]].tolist())

    def degree(self, v: int) -> int:
        return int(self._indptr[v + 1] - self._indptr[v])

    def is_unweighted(self) -> bool:
        return bool((self._slot_w == 1.0).all())

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

    def _key(self) -> tuple:
        # Positive finite weights are equal exactly when their bytes are.
        return (self.n, self.labels, self._indptr.tobytes(), self._indices.tobytes(), self._slot_w.tobytes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        kind = "unweighted" if self.is_unweighted() else "weighted"
        return f"Graph(n={self.n}, m={self.m}, {kind})"

    # Pickle support: __slots__ without __dict__ needs explicit state.
    def __getstate__(self):
        return (self.n, self.labels, self._indptr, self._indices, self._slot_w)

    def __setstate__(self, state):
        """Take state ``__init__`` validated and freeze its CSR arrays."""
        self.n, self.labels, self._indptr, self._indices, self._slot_w = state
        for a in (self._indptr, self._indices, self._slot_w):
            a.flags.writeable = False


def _renamed_edges(g: Graph, new_id: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ends ``u < v`` (sorted) and weights of the edges of ``g`` once each
    vertex ``x`` is renamed ``new_id[x]`` (below ``g.n``; negative drops it).
    Edges with a dropped end or two ends of one name vanish.  Edges joining
    one pair merge, their weights added in slot order as a running sum
    would: ``g.edges`` order where one vertex has the smaller name."""
    u, v = new_id[g._slot_rows()], new_id[g._indices]
    # One slot per edge: the one in the row of its smaller new end.
    keep = (0 <= u) & (u < v)
    pair, slot = np.unique(u[keep] * g.n + v[keep], return_inverse=True)
    return pair // g.n, pair % g.n, np.bincount(slot, g._slot_w[keep])


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


#: Source rows one pass takes at once, fewer if the memory limit says so.
_SOURCE_BLOCK = 256
# Bytes per source row, per vertex and per CSR slot: the dense rows (the
# distance, the two counts, the dedup scratch) with the caller's per-pair
# arrays, and one level's expansion, which can read every slot.  These are
# the object route's, which adds the counts' ints and the quotients' floats
# to the float64 route's.  Measured by tracemalloc: float64 65 per vertex
# (3,000-vertex path) and 45 per slot (3,000-leaf star); objects 220 per
# vertex (8 x 40 layered graph).
_ROW_BYTES = (240, 48)
# The same for the distance pass, by tracemalloc 12 to 16 per vertex
# (3,000-vertex path) and 59 per slot with the vertices' (3,000-leaf star).
_DISTANCE_ROW_BYTES = (16, 56)
#: Most bytes one block of the distance pass takes: without it, all-pairs
#: distances on random 3,000-vertex graphs of mean degree 3 to 22 ran 1.2 to
#: 1.8 times slower and peaked at up to 516 MiB (52 with it).
_DISTANCE_BLOCK_BYTES = 2**26


def _block_rows(g: Graph, row_bytes: tuple[int, int], held: int, what: str, budget: int | None = None) -> int:
    """Source rows one pass takes at ``row_bytes`` (per vertex, per slot)
    each: up to _SOURCE_BLOCK, within the memory limit beside ``held`` bytes
    and within ``budget``; BudgetExceededError if one row does not fit."""
    per_vertex, per_slot = row_bytes
    row = per_vertex * g.n + per_slot * g._indices.size
    left = check_memory(held + row, what)
    return min(_SOURCE_BLOCK, 1 + min(left, budget or left) // row)


def _layers(g: Graph, dist: np.ndarray, key: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """Breadth-first layers of many traversals at once.  Row r of the flat
    distances ``dist`` (-1 where unreached) is one traversal, the pair (r, v)
    the index r * n + v; ``key`` holds the pairs at level 0, already 0 in
    ``dist``.  Per level this yields the frontier's pairs and vertices and,
    per slot that reaches an unreached pair, the frontier index it leaves
    and the pair it reaches; resumed, it sets each reached pair's distance
    and makes those pairs, once each, the next frontier."""
    owner = np.empty(dist.size, dtype=np.intp)
    level = 0
    while key.size:
        level += 1
        base = key // g.n * g.n
        vertex = key - base
        start = g._indptr[vertex]
        reach = g._indptr[vertex + 1] - start
        # Every CSR slot of every frontier pair, and the pair it came from
        # (by array methods, cheaper on small frontiers than numpy's functions).
        src = np.arange(key.size).repeat(reach)
        slot = np.arange(src.size) + (start - reach.cumsum() + reach)[src]
        step = base[src] + g._indices[slot]
        fresh = dist[step] == UNREACHED
        src, step = src[fresh], step[fresh]
        yield key, vertex, src, step
        # One entry per reached pair: the candidate each key last saw.
        order = np.arange(step.size)
        owner[step] = order
        key = step[owner[step] == order]
        dist[key] = level


def _distance_pass(g: Graph, rows: int, starts: np.ndarray) -> np.ndarray:
    """Hop distances, (rows, n) int32, -1 where unreached; row r starts at
    each vertex v with r * n + v in ``starts``."""
    dist = np.full(rows * g.n, UNREACHED, dtype=np.int32)
    dist[starts] = 0
    for _ in _layers(g, dist, starts):
        pass
    return dist.reshape(rows, g.n)


def _hop_distances(g: Graph) -> np.ndarray:
    """All-pairs hop distances as int16, -1 between components, from blocks
    of consecutive sources sized beside the result."""
    n = g.n
    rows = _block_rows(g, _DISTANCE_ROW_BYTES, 2 * n * n, f"hop distances on {n} vertices", _DISTANCE_BLOCK_BYTES)
    dist = np.empty((n, n), dtype=np.int16)
    for i in range(0, n, rows):
        block = np.arange(i, min(i + rows, n))
        dist[block] = _distance_pass(g, len(block), (block - i) * n + block)
    return dist


def _count_pass(g: Graph, sources: np.ndarray, avoided: np.ndarray, dtype) -> GeodesicCounts | None:
    """Breadth-first layers from every source at once, counting geodesics.

    A pair's counts are the sums over its predecessors on the layer before.
    A vertex in ``avoided`` (a bool mask) passes on its total count but not
    its avoiding one.  In float64 the pass gives up (None) as soon as a
    count reaches 2**53, where sums could round.
    """
    n, b = g.n, len(sources)
    dist = np.full(b * n, UNREACHED, dtype=np.int32)
    sigma = np.zeros(b * n, dtype=dtype)
    avoiding = np.zeros(b * n, dtype=dtype)
    key = np.arange(b) * n + sources
    dist[key] = 0
    sigma[key] = avoiding[key] = 1
    for key, vertex, src, step in _layers(g, dist, key):
        through = np.where(avoided[vertex], 0, avoiding[key])
        np.add.at(sigma, step, sigma[key][src])
        np.add.at(avoiding, step, through[src])
        if dtype is float and step.size and sigma[step].max() >= 2.0**53:
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
    rows = _block_rows(g, _ROW_BYTES, 0, f"counting shortest paths on {g.n} vertices")
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
    tokens are vertex ids and ``n`` is the largest id plus one.  Otherwise
    tokens are string names: they are interned in first-seen order, unless
    ``labels`` is given, in which case that list of distinct labels, each
    non-empty and free of whitespace and ``#``, fixes the id of every name.
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
    for i, name in enumerate(() if labels is None else labels):
        if name.split() != [name]:  # tokens are split on whitespace
            raise InputError(f"label {name!r} contains whitespace" if name else f"empty label at index {i}")
        if "#" in name:
            raise InputError(f"label {name!r} contains '#', which starts a comment")
        if name_to_id.setdefault(name, i) != i:
            raise InputError(f"duplicate label {name!r}")

    def resolve(token: str, lineno: int) -> int:
        if token in name_to_id:
            return name_to_id[token]
        if labels is not None:
            raise InputError(f"line {lineno}: token {token!r} not in label file")
        if all_numeric:
            return int(token)
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

    if labels is None and not all_numeric:
        labels = list(name_to_id)  # the names in first-seen order, which is id order
    n = max(max(u, v) for u, v in edges) + 1 if labels is None else len(labels)
    return Graph(n, edges, weights, labels)


def parse_label_file(text: str) -> list[str]:
    """Parse ``index<TAB>label`` lines into a dense list of distinct labels,
    each non-empty and free of whitespace, as an edge-list token is."""
    entries: dict[int, str] = {}
    seen: set[str] = set()
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
        label = label.strip()
        # An edge-list token is a run of non-whitespace, so none could name these.
        if not label:
            raise InputError(f"label line {lineno}: empty label")
        if len(label.split()) > 1:
            raise InputError(f"label line {lineno}: label {label!r} contains whitespace")
        if label in seen:
            raise InputError(f"label line {lineno}: duplicate label {label!r}")
        seen.add(label)
        entries[idx] = label
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
    return bool((_distance_pass(g, 1, np.zeros(1, dtype=np.intp)) != UNREACHED).all())


def multi_source_distances(g: Graph, s: VertexSet | Iterable[int]) -> np.ndarray:
    """Hop distance from every vertex to the nearest member of ``s``, an
    (n,) int32 array; -1 if none is reachable.

    Weights are ignored: distances here are purely combinatorial.
    """
    vs = as_vertex_set(s)
    if vs.members[-1] >= g.n:
        raise InputError(f"vertex {vs.members[-1]} outside graph")
    return _distance_pass(g, 1, np.array(vs.members, dtype=np.intp))[0]
