"""Exact search for the most central size-k vertex set, by full enumeration.

Subsets are enumerated in colexicographic order and scored in blocks; a
block is a range of colex ranks, unranked at once through the combinatorial
number system (:func:`_colex_rows`).  The global optimum is returned
together with the *complete* list of tying sets, since several measures
routinely produce many co-optimal groups: one (T, k) array of sorted rows,
from the partitions' merge to the output.

Each search builds the arrays its measure reads once (:func:`_scorers`).
Degree and closeness score from the members' rows as integer numerators
over n - k, so their ties are exact equalities; betweenness and random walk
score from the complement as floats tied within a relative tolerance
(default 1e-9, passed per run as ``tie_rel``), so floating-point noise can
neither fabricate nor destroy a tie.

For k >= 2, betweenness and random walk screen the subsets in groups: those
sharing their last k - t elements, the parent, are scored together, with
t = 2 from k = 3 on (t = 1 at k = 2).  One rule builds each parent's state
for both (:func:`_by_base`): a one-vertex parent starts from itself, and a
longer one from its base, the parent less its smallest vertex, started once
per colex run of parents sharing it, then adds that vertex.  Random walk's
state is the inverse G over the complement (a base's inverse downdated on
the vertex), and each extension T scores from a Schur complement of the
t x t block G[T, T].  Betweenness builds the path-betweenness matrix PB
once per search, and its state is the path counts and PB updated one
member at a time (:func:`_remove`); each extension then scores from four
entries of the result by inclusion-exclusion, and at k = 2 from PB
itself.  What the screen leaves in the keep window is re-scored by the
block scorer, the only exact kernel, which also serves k = 1 and single
subsets; every reported value comes from it, and a reported random-walk
set with a hitting time past the steps ``centrality`` trusts is refused.
Random walk's block scorer solves each subset's absorbing system with
:func:`gcentral.randomwalk.absorbing_times`, the one kernel that ``hitting``
and ``centrality`` also solve with, and means it by the same fsum.
Betweenness takes the base path counts once per search from
:func:`gcentral.graph.geodesic_counts`, in float64 or, once a count reaches
2**53, on Python ints, and both of its scorers remove a member v by one
rule: subtract sigma(x, v) sigma(v, y) on the pairs :func:`_via` picks,
those with d(x, v) + d(v, y) = d(x, y).  The block scorer reads each
outside pair's share of geodesics avoiding the subset as the same
correctly rounded ratio of exact integers as ``centrality``, summed by its
one formula, so a value does not depend on the rest of its block.

One reduction, :func:`_absorb`, keeps the scored subsets within a window of
the best score seen; it folds each scored block into a partition's result
and folds partition results into the global one.  Parallel runs partition
the subset space by the leading (largest) element, a contiguous rank range
per partition, and since the window contains every tie of the final best,
the output depends only on the scores, so it is byte-identical for any
worker count.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import BudgetExceededError, InputError, NumericalError, check_memory
from .graph import Graph, VertexSet, _hop_distances, geodesic_counts, is_connected
from .measures import Measure, Score, betweenness_score
from .randomwalk import _TRUSTED_STEPS, absorbing_times, escape_system, hitting_time_set, transition_matrix

__all__ = [
    "OptimumResult",
    "CrossMeasureReport",
    "optimumset",
    "cross_measure_report",
    "colex_subsets",
    "score_subset",
    "check_tie_rel",
    "MEASURE_ORDER",
    "DEFAULT_BUDGET",
    "FLOAT_TIE_REL",
]

DEFAULT_BUDGET = 10_000_000

#: Default relative tolerance classifying two floating-point scores as tied.
FLOAT_TIE_REL = 1e-9
_FLOAT_TIE_ABS = 1e-12


def check_tie_rel(rel: float) -> float:
    """``rel`` if it is a usable relative tie tolerance, else InputError."""
    if not 0.0 < rel < 1.0:
        raise InputError(f"tie tolerance must lie in (0, 1); got {rel}")
    return rel


def _within(values: np.ndarray, best, rel: float, abs_tol: float) -> np.ndarray:
    """Mask of ``values`` within max(rel * max(|value|, |best|), abs_tol) of ``best``.

    Elementwise ``math.isclose``; with both tolerances 0 it is equality,
    which also serves integer targets beyond the int64 range.
    """
    if not rel and not abs_tol:
        return values == best
    scale = rel * np.maximum(np.abs(values), abs(best))
    return np.abs(values - best) <= np.maximum(scale, abs_tol)


@dataclass(frozen=True)
class _TieWindow:
    """Which scores of one search tie with its best, and which the scan keeps.

    Exact measures score as integer numerators over one denominator, so
    their window is 0.  Float measures tie within ``rel`` (``abs_tol`` near
    0); the scan keeps ten times that, so no tie of the final best can be
    dropped against a running best that is worse but close.
    """

    maximize: bool
    rel: float
    abs_tol: float

    @classmethod
    def of(cls, measure: Measure, tie_rel: float) -> "_TieWindow":
        check_tie_rel(tie_rel)
        if measure.exact:
            return cls(measure.maximize, 0.0, 0.0)
        return cls(measure.maximize, tie_rel, _FLOAT_TIE_ABS)

    def best(self, values: np.ndarray):
        return values.max() if self.maximize else values.min()

    def ties(self, values: np.ndarray, best) -> np.ndarray:
        return _within(values, best, self.rel, self.abs_tol)

    def keep(self, values: np.ndarray, best) -> np.ndarray:
        # |value - best| <= 10 * rel * max(1, |value|, |best|) whenever
        # rel >= abs_tol; the floor never drops below ten times abs_tol.
        return _within(values, best, 10.0 * self.rel, 10.0 * max(self.rel, self.abs_tol))


def _colex_rows(n: int, k: int, start: int, stop: int, rows: int) -> Iterator[np.ndarray]:
    """Ranks [start, stop) of the size-k subsets of range(n) in colex order,
    as intp arrays of at most ``rows`` rows.

    In the combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3) the subset
    c_1 < ... < c_k has colex rank C(c_1, 1) + ... + C(c_k, k), so from
    j = k down, c_j is the largest c with C(c, j) at most what is left of
    the rank: one search of a binomial column per column of a block.
    """
    # Entries past the range's end are capped at it (and at the int64
    # range): each column stays nondecreasing, and a capped entry exceeds
    # every rank, so no search lands on one.
    cap = min(stop, 2**63 - 1)
    binom = np.array([[min(math.comb(i, j), cap) for i in range(n)] for j in range(1, k + 1)], dtype=np.int64)
    for first in range(start, stop, rows):
        rank = np.arange(first, min(first + rows, stop), dtype=np.int64)
        block = np.empty((len(rank), k), dtype=np.intp)
        for j in range(k - 1, -1, -1):
            block[:, j] = binom[j].searchsorted(rank, side="right") - 1
            rank -= binom[j, block[:, j]]
        yield block


def colex_subsets(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All size-k subsets of range(n) in colexicographic order."""
    for block in _colex_rows(n, k, 0, math.comb(n, k), _BLOCK):
        yield from map(tuple, block.tolist())


# ---------------------------------------------------------------------------
# Evaluation kernels.  Dense numpy implementations of the measures in
# gcentral.measures; the reference implementations there stay the normative
# ones and the test suite pins the two together.


def _adjacency(g: Graph, dtype) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=dtype)
    a[g._slot_rows(), g._indices] = 1
    return a


def _base_counts(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs hop distances as int16 and path counts, float64 or, once a
    count reaches 2**53, Python ints in an object array."""
    dist, sigma = zip(*((block.dist, block.sigma) for block in geodesic_counts(g, range(g.n))))
    sigma = np.concatenate(sigma)
    if sigma.dtype == object:
        # Blocks counted in float64 before the switch hold exact integers.
        sigma = np.frompyfunc(int, 1, 1)(sigma)
    return np.concatenate(dist).astype(np.int16), sigma


def _via(dist: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per row r, the vertex pairs (x, y) with d(x, v[r]) + d(v[r], y) =
    d(x, y), ``dist`` the base hop distances: those whose geodesics may
    pass v[r]."""
    dv = dist[v]
    return dist[None] == dv[:, :, None] + dv[:, None, :]


def _through(dist: np.ndarray, sig: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per row r of the stacked path counts ``sig``, the x-y geodesics
    through v[r]: sig[r, x, v] sig[r, v, y] on the pairs of :func:`_via`,
    0 elsewhere.  Subtracting them removes v (Puzis, Elovici and Dolev
    2007).  Exact as long as the counts are: a masked product never
    exceeds sig[r, x, y].
    """
    s = sig[np.arange(len(v)), v]
    through = np.where(_via(dist, v), s[:, :, None], 0)
    through *= s[:, None, :]
    return through


def _complements_of(n: int, subsets: np.ndarray) -> np.ndarray:
    """Row-wise sorted complements, shape (N, n - k)."""
    big = subsets.shape[0]
    mask = np.ones((big, n), dtype=bool)
    mask[np.arange(big)[:, None], subsets] = False
    return np.nonzero(mask)[1].reshape(big, n - subsets.shape[1])


def _path_betweenness(adj: np.ndarray, dist: np.ndarray, sigma: np.ndarray, chunk: int) -> np.ndarray:
    """The path-betweenness matrix PB[x, y]: over ordered pairs (s, t), the
    share of s-t geodesics that pass x and then y, ends counted.

    PB[x, y] = sum_s [d(s,y) = d(s,x) + d(x,y)] sigma(s,x) sigma(x,y)
    delta_s(y) / sigma(s,y), with delta_s Brandes' dependency counting the
    pair (s, y) itself, and delta_s(s) = n - 1 (Puzis, Elovici and Dolev,
    Phys. Rev. E 76, 056709, 2007).  PB[x, x] is x's betweenness with ends.
    Sources are taken ``chunk`` at a time; ``dist`` and ``sigma`` are the
    base hop distances and path counts of a connected graph.
    """
    n = len(dist)
    pb = np.zeros((n, n))
    for first in range(0, n, chunk):
        d, s = dist[first : first + chunk], sigma[first : first + chunk]
        # Dependencies from the farthest layer in: a vertex on layer l gets
        # sigma(s,v) / sigma(s,w) of each successor w's, plus its own pair.
        dep = np.ones(d.shape)
        for level in range(int(d.max()) - 1, 0, -1):
            later = np.where(d == level + 1, dep / s, 0.0)
            dep = np.where(d == level, 1.0 + s * (later @ adj), dep)
        dep[np.arange(len(d)), np.arange(first, first + len(d))] = n - 1
        on = dist[None] + d[:, :, None] == d[:, None, :]
        pb += np.einsum("sx,sxy,sy->xy", s, on, dep / s)
    pb *= sigma
    return pb


def _remove(dist: np.ndarray, gb: np.ndarray, sig: np.ndarray, pb: np.ndarray, v: np.ndarray) -> None:
    """Add v[r] to row r's group, in place: its group betweenness with ends
    ``gb``, and its path counts ``sig`` and PB ``pb`` restricted to the
    geodesics that avoid the group.

    Adding v removes from sigma(x, y) the paths through v, and from
    PB[x, y] the geodesics through x, y and v in each order: x-v-y, x-y-v
    and v-x-y, each scaled by the current counts (reading the original ones
    in the third, as networkx's group_betweenness_centrality does, moves
    scores of the novice fixture at k = 4 by up to 0.017).  Entries in a
    member's row or column are left stale.
    """
    rows = np.arange(len(v))
    gb += pb[rows, v, v]
    # Counts are symmetric: s[x] = sigma(x, v), and q[x] = PB[x, v] / s[x].
    s = sig[rows, v]
    q = np.divide(pb[rows, :, v], s, out=np.zeros_like(s), where=s > 0)
    dv = dist[v]
    through = _through(dist, sig, v)
    # x-y-v, then its mirror v-x-y, both scaled by sigma(x, y).
    order = q[:, :, None] * s[:, None, :]
    order *= dv[:, :, None] == dist[None] + dv[:, None, :]
    order += order.transpose(0, 2, 1)
    order *= sig
    # x-v-y takes the same share of PB[x, y] as of sigma(x, y).
    share = np.divide(pb, sig, out=np.zeros_like(pb), where=sig > 0)
    share *= through
    pb -= share
    pb -= order
    sig -= through


def _by_base(parents: np.ndarray, start: Callable, add: Callable) -> tuple[np.ndarray, ...]:
    """Each parent's screen state, one row per parent.

    ``start`` takes an (N, m) array of vertex sets and returns a tuple of
    arrays with one row each; ``add(*state, v)`` gives each row r the
    vertex v[r] as well, in place.  A one-vertex parent starts from itself.
    Otherwise its smallest vertex lies below the rest of it, its base, and
    in colex order the parents of one base come in a run: a run starts once
    from its base, gathered per parent, and each parent then adds its
    smallest vertex.
    """
    if parents.shape[1] == 1:
        return start(parents)
    run = np.r_[True, (parents[1:, 1:] != parents[:-1, 1:]).any(axis=1)]
    state = tuple(a[np.cumsum(run) - 1] for a in start(parents[run, 1:]))
    add(*state, parents[:, 0])
    return state


_BLOCK = 512
_PARENTS = 64


class _Scorers(NamedTuple):
    """How one search scores its subsets.

    ``block`` scores a block of size-k subsets, at most ``rows`` of them,
    exactly, and each value independently of the rest of its block.
    ``screen``, where the measure has one, takes at most
    ``parents`` (k - t)-subsets P, t = ``depth`` = min(2, k - 1), and one
    row per extension: the index of its parent and t positions in that
    parent's sorted complement.  It returns a float value of each parent
    plus the vertices at those positions, off from the exact one by
    rounding only (see :func:`_scan_partitions`).
    """

    block: Callable[[np.ndarray], np.ndarray]
    rows: int
    screen: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None
    parents: int = 0
    depth: int = 1


def _scorers(g: Graph, k: int, measure: Measure) -> _Scorers:
    """The scorers of one size-k search, built once per search from the
    arrays its measure reads, with the rows a block and the parents a screen
    call may take: as many as fit under the memory limit beside the per-graph
    arrays, up to ``_BLOCK`` and ``_PARENTS``.  All are sized from their
    dtypes before anything is allocated.  Degree and closeness score as
    integer numerators over c = n - k; betweenness and random walk as floats,
    and both screen two-vertex extensions from k = 3 on.  Betweenness sizes
    its arrays once its base path counts are known to fit float64 or not,
    and its screen is off when they do not.
    """
    n, c, slots = g.n, g.n - k, g._indices.size
    if measure is Measure.BETWEENNESS and c < 2:
        # A single outside vertex leaves no outside pairs: every geodesic
        # between them is vacuously mediated, which is also what the
        # vertex-cover characterization needs (V minus one vertex always
        # covers every edge).
        return _Scorers(lambda subsets: np.ones(len(subsets)), _BLOCK)
    # Betweenness reads the base path counts, whose dtype sizes the rest, so
    # they come first, checked at their Python-int size: the blocks' counts
    # and distances and the joined copies, which peaked at 61 bytes per
    # vertex pair by tracemalloc on 3 x 36 to 4 x 80 ladders (26 in float64).
    ints = False
    if measure is Measure.BETWEENNESS:
        check_memory(64 * n * n, f"path counts on {n} vertices")
        dist, sigma = _base_counts(g)
        ints = sigma.dtype == object
    depth = min(2, k - 1)
    # A parent's complement has c + depth vertices, and at most as many
    # extensions below its smallest element as depth-subsets of them.  The
    # scan's table of extensions is per graph; per extension, 128 bytes hold
    # the gathers, the values and the window's masks (subset rows are built
    # for the keep window only).
    width, extensions = c + depth, math.comb(c + depth, depth)
    table = 8 * depth * math.comb(n, depth) if k > 1 else 0
    # Bytes per graph, per block row and per screened parent.  Closeness
    # holds the all-pairs distances as int16, 2 per vertex pair; the pass
    # that builds them sizes its blocks against the limit itself and frees
    # them before scoring (by tracemalloc it peaked at 13 to 365 bytes per
    # vertex pair at n = 300 and 2.7 to 6.1 at n = 3,000, on cycles and
    # random graphs of mean degree 3 to 22).
    graph_bytes, row_bytes, parent_bytes = {
        Measure.DEGREE: (n * n + 8 * slots, (k + 1) * n, 0),
        Measure.CLOSENESS: (2 * n * n + 8 * slots, 2 * (k + 1) * n, 0),
        # The base counts and the pairs' triangle indices; per row, its
        # counts, the paths through a member and their mask.  By tracemalloc
        # the base counts held 10 bytes per vertex pair in float64 and 39 to
        # 43 on Python ints, and a block 24 per row and vertex pair in
        # float64 at 64 rows, up to 34 at one to four (a 6 x 7 torus, a
        # 300-vertex cycle and random graphs, k = 1 to 3), and 60 to 95 on
        # Python ints (3 x 36 to 4 x 80 ladders at k = 1 and 2, counts up to
        # 4**78; 80 on rows whose first member's mask keeps half the vertex
        # pairs); a new process's whole scan peaked at 0.82 of a 280,000-byte
        # limit (the torus at k = 3).  Per parent from k = 3, its updated
        # counts and PB, its base's while they are gathered, and the
        # update's scratch: by tracemalloc a screen batch, with its gathers
        # and keep window, peaked at under 0.48 of this at k = 3 to 5 (0.56
        # when each parent replayed all its members), on a 6 x 7 torus and
        # a random 300-vertex graph, their first five and last three batches.
        Measure.BETWEENNESS: (
            (48 if ints else 10) * n * n + 9 * c * c + table,
            (128 if ints else 48) * n * n,
            (64 * n * n if k > 2 else 0) + 8 * width + 128 * extensions,
        ),
        # The transition matrix and its step table, and numpy's buffers for
        # a block's gather (130 KiB by tracemalloc).  Per row, its system
        # and the LU factors that absorbing_times holds for one system at a
        # time: by tracemalloc a block peaked at 8.3 to 9.9 c**2 bytes per
        # row at 64 to 512 rows, and under 0.97 of this from one row up (a
        # 6 x 7 torus, random 25- to 300-vertex graphs, k = 1 to 4).  Per
        # parent: the system, its inverse and the inverter's identity and
        # copy, or from k = 4 those of its base and its own downdated copy
        # and the update's product; a batch, with its gathers and keep
        # window, peaked at under 0.69 of this (0.58 on a 6 x 7 torus and
        # 0.68 on a random 300-vertex graph at k = 3 to 5, their first five
        # and last three batches).
        Measure.RANDOMWALK: (
            8 * n * n + 32 * slots + table + 2**17,
            16 * c * c,
            40 * width**2 + 128 * extensions,
        ),
    }[measure]
    left = check_memory(graph_bytes + row_bytes, f"the {measure.value} search at k={k} on {n} vertices")
    block_rows = min(_BLOCK, 1 + left // row_bytes)
    # The betweenness screen's pass, before any batch: the adjacency matrix,
    # PB, the float64 sum of each source chunk, einsum's buffers (under 2**18
    # bytes) and one source (int16 and bool masks over vertex pairs,
    # dependency rows).  By tracemalloc it peaked at under 0.9 of this on a
    # 6 x 7 torus and a 300-vertex graph.
    source_bytes = 4 * n * n + 128 * n
    pass_bytes = 24 * n * n + 8 * slots + 2**18 + source_bytes if measure is Measure.BETWEENNESS else 0
    # k = 1 has no parent to extend (and for random walk, I - P is singular).
    parents = max(0, min(_PARENTS, (left - pass_bytes) // parent_bytes)) if parent_bytes and k > 1 else 0

    if measure is Measure.DEGREE:
        touches = _adjacency(g, bool)

        def score(subsets: np.ndarray) -> np.ndarray:
            # Vertices next to a member, members cleared: the outside ones reached.
            reached = touches[subsets].any(axis=1)
            reached[np.arange(len(subsets))[:, None], subsets] = False
            return reached.sum(axis=1, dtype=np.int64)

        return _Scorers(score, block_rows)

    if measure is Measure.CLOSENESS:
        dist = _hop_distances(g)
        # A member is at distance 0, so the sum over all vertices is the outside sum.
        return _Scorers(lambda subsets: dist[subsets].min(axis=1).sum(axis=1, dtype=np.int64), block_rows)

    if measure is Measure.RANDOMWALK:
        p = transition_matrix(g)

        def score(subsets: np.ndarray) -> np.ndarray:
            a = escape_system(p, _complements_of(n, subsets))
            return np.array([math.fsum(row) / c for row in absorbing_times(a)])

        def invert(members: np.ndarray) -> tuple[np.ndarray]:
            try:
                return (np.linalg.inv(escape_system(p, _complements_of(n, members))),)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"random-walk search inverse failed: {exc}") from exc

        def downdate(inv: np.ndarray, v: np.ndarray) -> None:
            at = np.arange(len(v))
            col, row = inv[at, :, v], inv[at, v] / inv[at, v, v, None]
            inv -= col[:, :, None] * row[:, None, :]
            inv[at, v] = inv[at, :, v] = 0.0

        def screen(parents: np.ndarray, owner: np.ndarray, ext: np.ndarray) -> np.ndarray:
            # With G = (I - Q)^-1 on the parent's complement, r and c its row
            # and column sums, removing the vertices T leaves the hitting-time
            # sum sum(G) - c_T^T G[T, T]^-1 r_T (a Schur complement).  G[T, T]
            # is never singular: by Jacobi's complementary-minor identity its
            # determinant is det((I - Q) off T) / det(I - Q), a ratio of
            # principal minors of the M-matrix I - Q, so positive.
            #
            # From k = 4 each parent's G is its base's inverse M, over the
            # base's complement, downdated on the parent's smallest vertex v
            # (at position v there, below every base vertex):
            # M - M[:, v] M[v, :] / M[v, v], the Schur complement that
            # absorbs the walk at v as well, so again a walk's Green's
            # matrix, here with row and column v cleared and the positions
            # from v on one further along.  No pivoting is needed: M[v, v]
            # >= 1 counts the visits to v of a walk that starts there.  Up
            # to k = 3 the parent is one vertex, and I - P singular.
            (inv,) = _by_base(parents, invert, downdate)
            if parents.shape[1] > 1:
                ext = ext + (ext >= parents[owner, :1])
            rows, cols = inv.sum(axis=2), inv.sum(axis=1)
            # c_T^T G[T, T]^-1 r_T by elimination, x first, then for t = 2
            # y from the Schur complement e - b d / a of x's pivot a (the
            # 1 x 1 inverse, or the 2 x 2 one, without a batched solve).  No
            # pivoting is needed: G[y, x] is a walk's chance of reaching x
            # times G[x, x], so never larger.
            r, cc = rows[owner[:, None], ext], cols[owner[:, None], ext]
            x = ext[:, 0]
            a = inv[owner, x, x]
            q = cc[:, 0] * r[:, 0] / a
            if depth == 2:
                y = ext[:, 1]
                b, d, e = inv[owner, x, y], inv[owner, y, x], inv[owner, y, y]
                q += (cc[:, 1] - cc[:, 0] * b / a) * (r[:, 1] - d * r[:, 0] / a) / (e - b * d / a)
            values = (rows.sum(axis=1)[owner] - q) / c
            # Escape probabilities below float64 resolution: I - Q is
            # singular in floating point.
            if not np.isfinite(values).all():
                raise NumericalError("random-walk search screen gave non-finite hitting times")
            return values

        return _Scorers(score, block_rows, screen if parents else None, parents, depth)

    iu, iv = np.triu_indices(c, 1)

    def score(subsets: np.ndarray) -> np.ndarray:
        # Each outside pair's share of geodesics avoiding the subset: the base
        # counts less those through each member in turn, over the base ones,
        # a correctly rounded ratio of exact integers summed by one fsum
        # formula, so a score does not depend on its block.
        sig = np.broadcast_to(sigma, (len(subsets), n, n))
        if ints:
            sig = sig.copy()
        for v in subsets.T:
            if ints:
                # Python-int arithmetic costs per entry, so it runs only on
                # the pairs a geodesic through v may join (a third of them
                # over the 3 x 36 ladder's k = 2 search).
                r, x, y = np.nonzero(_via(dist, v))
                s = sig[np.arange(len(v)), v]
                sig[r, x, y] -= s[r, x] * s[r, y]
            else:
                sig = sig - _through(dist, sig, v)
        comp = _complements_of(n, subsets)
        rows, cols = comp[:, iu], comp[:, iv]
        shares = sig[np.arange(len(subsets))[:, None], rows, cols] / sigma[rows, cols]
        return np.array([betweenness_score([row], c) for row in shares.astype(float)])

    if ints or not parents:
        return _Scorers(score, block_rows)
    # Built on the first screen call, so score_subset never pays for it.
    chunk = min(_PARENTS, 1 + (left - pass_bytes) // source_bytes)
    root = cache(lambda: _path_betweenness(_adjacency(g, float), dist, sigma, chunk))
    # Ordered pairs with an end in a k-set: they count whole in GB.
    ends, noise = k * (2 * n - k - 1), 64 * np.finfo(float).eps * n * (n - 1)

    def start(members: np.ndarray) -> tuple[np.ndarray, ...]:
        # The root's counts and PB, then each member in turn.
        state = np.zeros(len(members)), *(np.repeat(a[None], len(members), axis=0) for a in (sigma, root()))
        for v in members.T:
            _remove(dist, *state, v)
        return state

    def screen(parents: np.ndarray, owner: np.ndarray, ext: np.ndarray) -> np.ndarray:
        # Each extension completes its parent's first k - 2 vertices with a
        # pair {x, y}: two vertices of the complement, or at k = 2 one and
        # the parent.  By inclusion-exclusion over the geodesics through x
        # and y that avoid those k - 2, GB(P + {x, y}) = GB(P) + PB_P[x, x]
        # + PB_P[y, y] - PB_P[x, y] - PB_P[y, x].
        comp = _complements_of(n, parents)
        x, y = np.column_stack((comp[owner[:, None], ext], parents[owner, : 2 - depth])).T
        if k > 2:
            gb, _, pb = _by_base(parents, start, partial(_remove, dist))
        else:
            gb, pb = np.zeros(len(parents)), np.broadcast_to(root(), (len(parents), n, n))
        through = gb[owner] + pb[owner, x, x] + pb[owner, y, y] - pb[owner, x, y] - pb[owner, y, x]
        # What the outside pairs add, a sum of nonnegative shares, is left
        # over from terms of up to n(n - 1) each, and rounding moves it by up
        # to 2.4 n(n - 1) eps (measured on the fixtures and small random
        # graphs): within ``noise`` of 0 it is 0, the empty sum.
        inside = through - ends
        inside[inside < noise] = 0.0
        return inside / (c * (c - 1))

    return _Scorers(score, block_rows, screen, parents, depth)


def score_subset(g: Graph, subset: tuple[int, ...], measure: Measure):
    """One subset's score as the enumerator ranks it: a Fraction for exact
    measures, else a float, bit for bit the value a search reports for it."""
    value = _scorers(g, len(subset), measure).block(np.asarray([subset], dtype=np.intp))[0]
    return Fraction(int(value), g.n - len(subset)) if measure.exact else float(value)


# ---------------------------------------------------------------------------
# Partitioned enumeration


def _blocks(k: int, leading: Sequence[int], rows: int) -> Iterator[np.ndarray]:
    """Size-k subsets with their largest element in the contiguous range
    ``leading``, in colex order, as arrays of at most ``rows`` rows: the
    ranks from C(lo, k), where the first such subset starts, to
    C(hi + 1, k), where the subsets of range(hi + 1) end."""
    lo, hi = leading[0], leading[-1]
    return _colex_rows(hi + 1, k, math.comb(lo, k), math.comb(hi + 1, k), rows)


@dataclass
class _Candidates:
    """Scored subsets (a block, or what a scan kept) and the count evaluated to get them."""

    values: np.ndarray
    subsets: np.ndarray
    evaluated: int


def _absorb(parts: Iterable[_Candidates], ties: _TieWindow) -> _Candidates:
    """What of ``parts`` lies in the keep window of their joint best, in
    order, and the count evaluated to get them.

    Parts are freshly scored blocks or partitions' candidates, so the same
    step scans a partition and merges partitions.  Each part is cut to the
    window of the best so far, and what is held is cut again only when the
    best improves.  With nonnegative values what lies outside one window
    stays outside that of any better best: the window's scale is set by the
    worse value (minimizing) or grows by 10 rel < 1 per unit of best
    (maximizing).  So what is held at the end is the final best's window,
    joined once; a cut left empty is not held.
    """
    held: list[tuple[np.ndarray, np.ndarray]] = []
    best, evaluated = None, 0

    def cut(values: np.ndarray, subsets: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        mask = ties.keep(values, best)
        if mask.all():
            return [(values, subsets)]
        return [(values[mask], subsets[mask])] if mask.any() else []

    for part in parts:
        evaluated += part.evaluated
        top = ties.best(part.values)
        if best is None or (top > best if ties.maximize else top < best):
            best = top
            held = [pair for kept in held for pair in cut(*kept)]
        held += cut(part.values, part.subsets)
    del part  # a cut part's uncut arrays are not held
    (values, subsets), *rest = held
    if rest:
        # Joining copies what is held, so it counts twice; values go first.
        check_memory(2 * sum(v.nbytes + s.nbytes for v, s in held), "the search's tie list")
        values, subsets = zip(*held)
        del held, rest
        values = np.concatenate(values)
        subsets = np.concatenate(subsets)
    return _Candidates(values, subsets, evaluated)


def _exact_scores(scorers: _Scorers, subsets: np.ndarray) -> np.ndarray:
    """The block scorer's values of ``subsets``, taken a block at a time."""
    return np.concatenate(
        [scorers.block(subsets[i : i + scorers.rows]) for i in range(0, len(subsets), scorers.rows)]
    )


def _screened_scan(scorers: _Scorers, k: int, leading: Sequence[int], ties: _TieWindow) -> _Candidates | None:
    """Windowed optimum over the subsets with the given leading elements,
    screened parent by parent and confirmed by the block scorer; None if a
    kept value moved past the tie window when confirmed.

    A group is the subsets sharing their last k - t elements, the parent P,
    t = ``scorers.depth``: they are (*T, *P) for every t-subset T below P's
    smallest element, contiguous in colex order, and T's vertices are their
    own positions in P's sorted complement.  Only a parent whose smallest
    element is at least t has any, so the parents are the (k - t)-subsets
    of range(t, hi + 1) with largest element in the partition's range
    [lo, hi], unranked a batch at a time as those of range(hi - t + 1)
    shifted up by t, which keeps colex order.  In colex order the t-subsets
    of range(m) are the first C(m, t) ranks of any longer run, so one table
    of extensions, unranked once, serves every parent.
    """
    t = scorers.depth
    extensions = math.comb(leading[-1], t)
    table = next(_colex_rows(leading[-1], t, 0, extensions, extensions))

    def batches() -> Iterator[_Candidates]:
        for parents in _blocks(k - t, [leading[0] - t, leading[-1] - t], scorers.parents):
            parents += t
            sizes = np.searchsorted(table[:, -1], parents[:, 0])
            owner = np.repeat(np.arange(len(parents)), sizes)
            ext = table[np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)]
            values = scorers.screen(parents, owner, ext)
            # Subset rows only for the batch's own keep window: the joint
            # best is at least as good, so what lies outside stays outside
            # (see :func:`_absorb`).
            kept = ties.keep(values, ties.best(values))
            subsets = np.column_stack((ext[kept], parents[owner[kept]]))
            yield _Candidates(values[kept], subsets, owner.size)

    acc = _absorb(batches(), ties)
    exact = _exact_scores(scorers, acc.subsets)
    if not ties.ties(exact, acc.values).all():
        return None
    return _absorb([_Candidates(exact, acc.subsets, acc.evaluated)], ties)


def _scan_partitions(task: tuple[Graph, int, Measure, Sequence[int], float]) -> _Candidates:
    """Windowed optimum over the subsets with the task's leading elements.

    Where the measure has a screen, the scan keeps what lies in the keep
    window of the screened values and re-scores that with the block scorer,
    so every reported value comes from the block scorer.  The screen is off
    by rounding only (measured: at most 2.1e-13 relative for random walk,
    on a 20-vertex graph with weights spanning six orders of magnitude at
    k = 4, 6.3e-14 on a 60-vertex path at k = 3 and 4 and 1.6e-15 on a
    6 x 7 torus at k = 5; and 2.4e-14 for betweenness, on the fixtures at
    k = 4, a 6 x 7 torus at k = 3 to 5, a 4 x 8 ladder with a hub at k = 3
    and 4 and a random 40-vertex graph at k = 3, with parents out of colex
    order at k = 4 and 5, where a score of 0 comes out 0), far inside
    the keep window's margin of nine tie windows; a kept value that moves
    by more than one tie window on confirmation sends the partition back
    through the block scorer.
    """
    g, k, measure, leading, tie_rel = task
    ties = _TieWindow.of(measure, tie_rel)
    scorers = _scorers(g, k, measure)
    if scorers.screen is not None:
        acc = _screened_scan(scorers, k, leading, ties)
        if acc is not None:
            return acc
    return _absorb((_Candidates(scorers.block(b), b, len(b)) for b in _blocks(k, leading, scorers.rows)), ties)


@dataclass(frozen=True, eq=False)
class OptimumResult:
    """Optimal value and the complete tie list: ``ties``, one read-only
    ``(T, k)`` intp array of sorted member rows in lexicographic order."""

    measure: Measure
    k: int
    best: Score
    ties: np.ndarray
    evaluated: int

    @property
    def optimal_sets(self) -> tuple[VertexSet, ...]:
        """The tie list as vertex sets, built on each call."""
        return tuple(VertexSet(s) for s in map(tuple, self.ties.tolist()))



def _check_enumeration_args(g: Graph, k: int, budget: int) -> int:
    if not 1 <= k < g.n:
        raise InputError(f"k must satisfy 1 <= k < n; got k={k}, n={g.n}")
    total = math.comb(g.n, k)
    if total > budget:
        raise BudgetExceededError(f"C({g.n}, {k}) = {total} subsets exceeds budget {budget}")
    if total >= 2**63:
        raise BudgetExceededError(
            f"C({g.n}, {k}) = {total} subsets is past the int64 range of the enumeration's ranks"
        )
    return total


def _leading_chunks(n: int, k: int, workers: int) -> list[list[int]]:
    """Split leading elements into contiguous chunks of similar subset mass."""
    leading = list(range(k - 1, n))
    if workers <= 1 or len(leading) == 1:
        return [leading]
    sizes = [math.comb(b, k - 1) for b in leading]
    total = sum(sizes)
    target = total / min(workers, len(leading))
    chunks: list[list[int]] = []
    cur: list[int] = []
    acc = 0
    for b, sz in zip(leading, sizes):
        cur.append(b)
        acc += sz
        if acc >= target and len(chunks) < workers - 1:
            chunks.append(cur)
            cur = []
            acc = 0
    if cur:
        chunks.append(cur)
    return chunks


def optimumset(
    g: Graph,
    k: int,
    measure: Measure,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
    pool: ProcessPoolExecutor | None = None,
    tie_rel: float = FLOAT_TIE_REL,
) -> OptimumResult:
    """Enumerate every size-k subset and return the optimum with all ties.

    Parameters
    ----------
    budget : int
        Refuse to run when C(n, k) exceeds this subset count.
    workers : int
        Partition the search across this many processes, at least 1.
        Results are byte-identical for any value.
    pool : ProcessPoolExecutor, optional
        Reuse an existing pool (its size then caps effective parallelism).
    tie_rel : float
        Relative tolerance within which betweenness and random-walk scores
        tie; in (0, 1).
    """
    if not is_connected(g):
        raise InputError("optimumset requires a connected graph")
    return _optimum(g, k, measure, budget, workers, pool, tie_rel)


def _optimum(g: Graph, k: int, measure: Measure, budget: int, workers: int, pool, tie_rel: float) -> OptimumResult:
    """:func:`optimumset` on a graph known to be connected: a report checks
    that, a breadth-first pass, once for all its cells."""
    if workers < 1:
        raise InputError(f"workers must be at least 1; got {workers}")
    total = _check_enumeration_args(g, k, budget)
    ties = _TieWindow.of(measure, tie_rel)
    tasks = [(g, k, measure, chunk, tie_rel) for chunk in _leading_chunks(g.n, k, workers)]
    with ExitStack() as stack:
        if len(tasks) > 1 and pool is None:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
        scan = pool.map if len(tasks) > 1 else map  # one worker makes one task
        # Partials are merged as they arrive, so none is held past its cut.
        merged = _absorb(scan(_scan_partitions, tasks), ties)
    assert merged.evaluated == total
    best = ties.best(merged.values)
    tied = ties.ties(merged.values, best)
    if measure is Measure.RANDOMWALK:
        # A reported set with a hitting time past the trusted steps is
        # refused, as ``centrality`` refuses it.  Hitting times are
        # nonnegative, so none passes c times its set's mean: only the sets
        # past that are solved again.
        for subset in merged.subsets[tied & (merged.values * (g.n - k) > _TRUSTED_STEPS)]:
            hitting_time_set(g, subset.tolist())
    optimal = merged.subsets
    del merged  # frees the values, and the selection the untied rows, for the sorted copy
    if not tied.all():
        optimal = optimal[tied]
    # Rows are sorted, so ordering by each column in turn orders the sets lexicographically.
    optimal = optimal[np.lexsort(optimal.T[::-1])]
    optimal.flags.writeable = False
    if measure.exact:
        score = Score.from_fraction(Fraction(int(best), g.n - k))
    else:
        score = Score(value=float(best))
    return OptimumResult(
        measure=measure,
        k=k,
        best=score,
        ties=optimal,
        evaluated=total,
    )


MEASURE_ORDER = (Measure.DEGREE, Measure.CLOSENESS, Measure.BETWEENNESS, Measure.RANDOMWALK)


@dataclass(frozen=True)
class CrossMeasureReport:
    """Optima for every (k, measure) cell plus pairwise optima overlap."""

    k_max: int
    measures: tuple[Measure, ...]
    cells: dict[tuple[int, Measure], OptimumResult]
    jaccard: dict[tuple[int, Measure, Measure], float]


def cross_measure_report(
    g: Graph,
    k_max: int,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
    pool: ProcessPoolExecutor | None = None,
    measures: Sequence[Measure] = MEASURE_ORDER,
    tie_rel: float = FLOAT_TIE_REL,
) -> CrossMeasureReport:
    """Optimal sets per size and measure, in the layout of the result tables.

    For every k in 1..k_max and every requested measure, runs
    :func:`optimumset` (with ``tie_rel``); also reports, per k, the Jaccard
    overlap between the unions of optimal-set members of every measure pair.
    """
    if not 1 <= k_max < g.n:
        raise InputError(f"k_max must satisfy 1 <= k_max < n; got {k_max}, n={g.n}")
    _check_enumeration_args(g, max(range(1, k_max + 1), key=lambda k: math.comb(g.n, k)), budget)
    if not is_connected(g):
        raise InputError("optimumset requires a connected graph")
    measures = tuple(measures)
    cells: dict[tuple[int, Measure], OptimumResult] = {}
    with ExitStack() as stack:
        if workers > 1 and pool is None:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
        for k in range(1, k_max + 1):
            for m in measures:
                cells[(k, m)] = _optimum(g, k, m, budget, workers, pool, tie_rel)
    jaccard: dict[tuple[int, Measure, Measure], float] = {}
    pairs = list(itertools.combinations(measures, 2))
    for k in range(1, k_max + 1):
        unions = {m: set(np.unique(cells[(k, m)].ties).tolist()) for m in measures} if pairs else {}
        for ma, mb in pairs:
            union = unions[ma] | unions[mb]
            inter = unions[ma] & unions[mb]
            jaccard[(k, ma, mb)] = len(inter) / len(union) if union else 1.0
    return CrossMeasureReport(
        k_max=k_max,
        measures=measures,
        cells=cells,
        jaccard=jaccard,
    )
