"""Weighted random walks: transition matrix, stationary distribution,
fundamental matrix, hitting times to vertices and sets, the group
random-walk score, a Monte-Carlo estimator, and the degree/closeness
upper bound on the group score.

A walk at vertex ``u`` moves to neighbor ``v`` with probability
``w(uv) / w(u)`` where ``w(u)`` is the weighted degree; unit weights give
the classical uniform-neighbor walk.  Hitting times to a set are computed
two independent ways, which must agree (both solve their systems with one
LU kernel, :func:`_lu_solve`):

``absorbing-solve``
    Solve ``(I - Q) h = 1`` on the transition submatrix Q over the
    complement of the target set.  The production route, and the one
    kernel (:func:`absorbing_times`) that ``hitting``, ``centrality`` and
    the random-walk search in :mod:`gcentral.optimize` all solve with.
``contraction-Z``
    Merge the target set into a single vertex (summing crossing weights),
    build that graph's fundamental matrix ``Z = (I - (P - Pinf))^-1`` and
    read hitting times to the merged vertex off :func:`hitting_time_matrix`.
    Kept as an executable statement of the contraction identity.

One CSR step table (:class:`_StepTable`) serves every walk, without an
n x n array: the transition matrix scatters its probabilities, the sampler
in :mod:`gcentral.sampling` searches its cumulative rows, and Monte Carlo
looks its keys up through a guide table (:class:`_Guide`), a constant
number of gathers per step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import InputError, NumericalError, TruncationError, check_memory
from .graph import Graph, VertexSet, as_vertex_set, multi_source_distances
from .measures import Score

__all__ = [
    "ROUTE_ABSORBING",
    "ROUTE_CONTRACTION",
    "ROUTE_MONTE_CARLO",
    "RNG_NAME",
    "transition_matrix",
    "stationary",
    "fundamental_matrix",
    "hitting_time_matrix",
    "contract",
    "ContractedGraph",
    "hitting_time_set",
    "HittingSolution",
    "group_randomwalk",
    "monte_carlo_hitting",
    "check_upper_bound",
    "BoundCheck",
]

ROUTE_ABSORBING = "absorbing-solve"
ROUTE_CONTRACTION = "contraction-Z"
ROUTE_MONTE_CARLO = "monte-carlo"

#: Identity of the random stream backing the Monte-Carlo estimator.
RNG_NAME = "numpy.random.PCG64"

_FUNDAMENTAL_RESIDUAL = 1e-8
_ABSORBING_RESIDUAL = 1e-7
# Bytes per Monte Carlo walk at the peak of a step, its int64 and float64
# arrays together (about 59 by tracemalloc on a 1,000-vertex sparse graph).
_WALK_BYTES = 64
# Bytes per CSR slot of the step table: four int64 or float64 arrays.
_SLOT_BYTES = 32
# Guide cells per CSR slot and vertex, at most: the cap on the table's size.
_GUIDE_CELLS = 8


class _StepTable(NamedTuple):
    """Per CSR slot of a graph: the owning vertex u, the step probability
    ``w / w.sum()`` over u's row, the row's cumulative sum normalised by its
    last entry (ending at exactly 1.0), and that sum shifted by ``2u``.  The
    keys ascend over the whole table, so a draw ``2u + r`` finds its slot in
    them (Monte Carlo, through :class:`_Guide`)."""

    rows: np.ndarray
    prob: np.ndarray
    cum: np.ndarray
    keys: np.ndarray


def _step_table(g: Graph) -> _StepTable:
    deg = np.diff(g._indptr)
    if not deg.all():
        raise InputError(f"vertex {int(np.argmin(deg))} is isolated; the walk is undefined")
    rows = np.repeat(np.arange(g.n), deg)
    prob, cum = np.empty(rows.size), np.empty(rows.size)
    # One degree at a time: numpy reduces each row of a 2-D block exactly as
    # it reduces that row alone, so the bits match a per-vertex loop.
    for d in np.unique(deg):
        slots = g._indptr[:-1][deg == d, None] + np.arange(d)
        w = g._slot_w[slots]
        prob[slots] = p = w / w.sum(axis=1, keepdims=True)
        c = np.cumsum(p, axis=1)
        cum[slots] = c / c[:, -1:]
    return _StepTable(rows, prob, cum, cum + 2.0 * rows)


class _Guide(NamedTuple):
    """A guide table over the step keys (Chen and Asau 1974).

    Cell ``c`` covers ``[c / scale, (c + 1) / scale)``, a power-of-two
    ``scale`` so that ``q * scale`` is exact; the ``2 * scale`` cells from
    ``2u * scale`` belong to vertex u's row.  A cell holds the first slot of
    its row whose key exceeds its lower edge, or -1 where two or more of the
    row's keys lie strictly inside it.  ``cmp`` is the keys with each row's
    last key, exactly ``2u + 1``, raised to +inf, so the last slot takes
    every draw that rounds up to ``2u + 1``.
    """

    scale: float
    cells: np.ndarray
    cmp: np.ndarray
    keys: np.ndarray


def _guide_scale(g: Graph) -> int:
    """The largest power of two that keeps ``2n * scale`` cells within
    ``_GUIDE_CELLS`` per slot and vertex (never below ``_GUIDE_CELLS``
    rounded down to a power of two, as slots >= n)."""
    return 1 << (((_GUIDE_CELLS * (g._indices.size + g.n)) // (2 * g.n)).bit_length() - 1)


def _guide(g: Graph) -> _Guide:
    keys = _step_table(g).keys
    scale = _guide_scale(g)
    bounds = np.arange(2 * g.n * scale + 1) / scale
    first = np.searchsorted(keys, bounds, side="right")
    inside = np.searchsorted(keys, bounds[1:], side="left") - first[:-1]
    last = g._indptr[1:] - 1
    # The cell at 2u + 1 has no key above its edge in u's row: the last slot.
    cells = np.minimum(first[:-1], np.repeat(last, 2 * scale))
    cells[inside > 1] = -1
    cmp = keys.copy()
    cmp[last] = np.inf
    return _Guide(float(scale), cells, cmp, keys)


def _walk_step(g: Graph, guide: _Guide, u: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Next vertices from ``u`` for draws ``r`` in [0, 1): the first slot of
    u's row whose key exceeds ``q = 2u + r``, or the row's last slot when q
    rounds up to ``2u + 1``.  One comparison against the cell's slot decides
    it, as no more than one key lies inside the cell; walks in cells with
    more search the keys."""
    q = 2.0 * u + r
    slot = guide.cells[(q * guide.scale).astype(np.intp)]
    # A -1 reads the table's last key, +inf, and stays -1.
    slot += guide.cmp[slot] <= q
    far = slot < 0
    if far.any():
        # A crowded cell lies below 2u + 1, the key that ends u's row, so
        # the search stays inside the row.
        slot[far] = np.searchsorted(guide.keys, q[far], side="right")
    return g._indices[slot]


def transition_matrix(g: Graph) -> np.ndarray:
    """Row-stochastic dense transition matrix of the weighted walk.

    Returns
    -------
    P : ndarray, shape (n, n)
        ``P[u, v] = w(uv) / w(u)`` for edges, 0 elsewhere; zero diagonal.

    Raises BudgetExceededError, before allocating, past the memory limit.
    """
    check_memory(8 * g.n * g.n + _SLOT_BYTES * g._indices.size, f"the transition matrix of {g.n} vertices")
    rows, prob, _, _ = _step_table(g)
    p = np.zeros((g.n, g.n))
    p[rows, g._indices] = prob
    return p


def stationary(g: Graph) -> np.ndarray:
    """Stationary distribution in closed form: weighted degree over total.

    No eigen-solve is involved; ``pi P = pi`` holds by reversibility.
    """
    # bincount adds each row's weights in slot order, as Graph's check does.
    wdeg = np.bincount(np.repeat(np.arange(g.n), np.diff(g._indptr)), g._slot_w, minlength=g.n)
    if np.any(wdeg == 0):
        raise InputError("isolated vertex; stationary distribution undefined")
    return wdeg / wdeg.sum()


def fundamental_matrix(g: Graph) -> np.ndarray:
    """Fundamental matrix ``Z = (I - (P - Pinf))^-1`` of the walk.

    ``Pinf`` stacks the stationary distribution in every row.  Solved by the
    absorbing route's LU kernel for the identity; raises
    :class:`~gcentral.errors.NumericalError` if ``I - P + Pinf`` is singular
    or the max-norm residual of ``(I - P + Pinf) Z - I`` is not below 1e-8
    (disconnected or degenerate input surfaces here), and
    BudgetExceededError, before allocating, past the memory limit.
    """
    n = g.n
    # Seven n x n float64 arrays at the peak (tracemalloc, n = 300 and 1,000).
    check_memory(56 * n * n + _SLOT_BYTES * g._indices.size, f"the fundamental matrix of {n} vertices")
    p = transition_matrix(g)
    m = np.eye(n) - p + np.tile(stationary(g), (n, 1))
    return _lu_solve(m, np.eye(n), _FUNDAMENTAL_RESIDUAL, "fundamental matrix", "I - P + Pinf")


def hitting_time_matrix(g: Graph) -> np.ndarray:
    """All-pairs hitting times from one fundamental matrix: ``H[u, v]``, the
    expected steps from ``u`` to first arrival at ``v``, is
    ``(Z[v, v] - Z[u, v]) / pi(v)``, and ``H[v, v] = 0``."""
    z = fundamental_matrix(g)
    pi = stationary(g)
    h = np.diag(z) - z
    h /= pi
    np.fill_diagonal(h, 0.0)
    return h


@dataclass(frozen=True)
class ContractedGraph:
    """A graph with a vertex set merged into a single absorbing stand-in.

    ``base`` keeps original weights between untouched vertices; every edge
    crossing into the merged set is folded into one edge to ``merged`` whose
    weight is the sum of the crossing weights.  Edges inside the set vanish.
    """

    base: Graph
    mapping: tuple[int, ...]
    merged: int
    boundary: VertexSet


def contract(g: Graph, s: VertexSet | Iterable[int]) -> ContractedGraph:
    """Merge the set into one vertex, summing crossing edge weights."""
    vs = as_vertex_set(s)
    vs.check_proper(g)
    inside = set(vs.members)
    comp = vs.complement(g.n)
    idmap: dict[int, int] = {v: i for i, v in enumerate(comp)}
    merged = len(comp)

    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    into_merged: dict[int, float] = {}
    boundary: set[int] = set()
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
        labels = [g.label(v) for v in comp] + [",".join(g.label(v) for v in vs.members)]
    mapping = tuple(idmap.get(v, merged) for v in range(g.n))
    base = Graph(merged + 1, edges, weights, labels)
    return ContractedGraph(base=base, mapping=mapping, merged=merged, boundary=as_vertex_set(boundary))


@dataclass(frozen=True)
class HittingSolution:
    """Expected steps from every vertex to first arrival in ``target``.

    ``h[v]`` is 0 for members of the target set.  ``route`` records how the
    numbers were produced; Monte-Carlo runs also carry per-vertex standard
    errors, truncation counts, and the seed plus generator identity.
    """

    target: VertexSet
    h: tuple[float, ...]
    route: str
    stderr: tuple[float, ...] | None = None
    walks_per_source: int | None = None
    max_steps: int | None = None
    truncated: tuple[int, ...] | None = None
    seed: int | None = None
    rng: str | None = None

    def to_json_dict(self) -> dict:
        out: dict = {
            "target": list(self.target.members),
            "route": self.route,
            "hitting_times": {str(v): self.h[v] for v in range(len(self.h))},
        }
        if self.stderr is not None:
            out["stderr"] = {str(v): self.stderr[v] for v in range(len(self.stderr))}
        if self.walks_per_source is not None:
            out["walks_per_source"] = self.walks_per_source
            out["max_steps"] = self.max_steps
            out["truncated"] = {str(v): t for v, t in enumerate(self.truncated) if t}
            out["seed"] = self.seed
            out["rng"] = self.rng
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def _lu_solve(a: np.ndarray, b: np.ndarray, limit: float, what: str, system: str) -> np.ndarray:
    """Solve ``a x = b`` for one (c, c) matrix or an (N, c, c) stack of them.

    Each system is solved by LAPACK's pivoted LU (``getrf`` and ``getrs``,
    as in scipy's lu_factor and lu_solve) with one refinement step, so its
    bits do not depend on the rest of the stack.  NumericalError on an
    exactly zero pivot or non-finite entries, and on a max-norm residual not
    below ``limit`` (a nearly singular system solves to finite but
    meaningless values).
    """
    stack = a.reshape(-1, *a.shape[-2:])
    xs = []
    for m in stack:
        lu, piv, info = dgetrf(m)
        # Refined in getrs's own (Fortran) layout, which sets the bits of m @ y.
        y = dgetrs(lu, piv, b)[0]
        if info > 0 or not np.isfinite(y).all():
            raise NumericalError(f"{what} failed: {system} is singular in floating point")
        y += dgetrs(lu, piv, b - m @ y)[0]
        xs.append(y)
    x = np.array(xs)
    # Only the stacked copy stays for the residual.
    del xs, y
    residual = np.max(np.abs(stack @ x.reshape(len(stack), len(b), -1) - b.reshape(len(b), -1)))
    if not residual < limit:
        raise NumericalError(f"{what} residual {residual:.3e} exceeds {limit:.0e}")
    return x.reshape(*a.shape[:-2], *b.shape)


def absorbing_times(a: np.ndarray) -> np.ndarray:
    """Expected steps to absorption, ``(I - Q)^-1 1``, for ``a = I - Q`` on a
    target set's complement: one (c, c) matrix or an (N, c, c) stack.  I - Q
    is singular when escape probabilities fall below float64 resolution."""
    return _lu_solve(a, np.ones(a.shape[-1]), _ABSORBING_RESIDUAL, "absorbing solve", "I - Q")


def _solve_absorbing(g: Graph, vs: VertexSet) -> np.ndarray:
    comp = vs.complement(g.n)
    # The transition matrix, then three c x c arrays: Q, I - Q and its LU factors.
    check_memory(
        8 * g.n * g.n + _SLOT_BYTES * g._indices.size + 24 * len(comp) ** 2,
        f"the absorbing solve on {g.n} vertices",
    )
    p = transition_matrix(g)
    full = np.zeros(g.n)
    full[list(comp)] = absorbing_times(np.eye(len(comp)) - p[np.ix_(comp, comp)])
    return full


def _solve_contraction(g: Graph, vs: VertexSet) -> np.ndarray:
    contracted = contract(g, vs)
    return hitting_time_matrix(contracted.base)[list(contracted.mapping), contracted.merged]


def hitting_time_set(
    g: Graph,
    s: VertexSet | Iterable[int],
    route: str = ROUTE_ABSORBING,
) -> HittingSolution:
    """Expected steps from every vertex to first arrival in the set.

    Parameters
    ----------
    route : str
        ``"absorbing-solve"`` (default) solves ``(I - Q) h = 1`` on the
        complement; ``"contraction-Z"`` merges the set and reads the
        fundamental matrix of the contracted graph.  The two agree to 1e-7
        per vertex on connected inputs.
    """
    vs = as_vertex_set(s)
    vs.check_proper(g)
    if route == ROUTE_ABSORBING:
        full = _solve_absorbing(g, vs)
    elif route == ROUTE_CONTRACTION:
        full = _solve_contraction(g, vs)
    else:
        raise InputError(f"unknown analytic route {route!r}")
    return HittingSolution(target=vs, h=tuple(float(x) for x in full), route=route)


def group_randomwalk(g: Graph, s: VertexSet | Iterable[int]) -> Score:
    """Mean hitting time to the set over all outside vertices.

    Lower is more central; the value is 1 exactly when the set is a vertex
    cover (every outside vertex is absorbed in one step).
    """
    vs = as_vertex_set(s)
    sol = hitting_time_set(g, vs, route=ROUTE_ABSORBING)
    # The search's mean, so that centrality and optimum print one value.
    return Score(value=math.fsum(sol.h) / (g.n - len(vs)))


def monte_carlo_hitting(
    g: Graph,
    s: VertexSet | Iterable[int],
    walks_per_source: int = 10_000,
    max_steps: int | None = None,
    seed: int = 0,
) -> HittingSolution:
    """Estimate hitting times to the set by simulating walks.

    Runs ``walks_per_source`` independent walks from every outside vertex,
    vectorized over all walks at once.  Walks still alive after
    ``max_steps`` (default ``100 n^2``) are excluded from the averages and
    counted per source; if more than 1% of all walks are truncated a
    :class:`~gcentral.errors.TruncationError` is raised instead of
    returning biased means; walks past the memory limit raise
    BudgetExceededError before they start.  Deterministic for a fixed seed.
    """
    vs = as_vertex_set(s)
    vs.check_proper(g)
    if walks_per_source < 1:
        raise InputError("walks_per_source must be at least 1")
    if max_steps is None:
        max_steps = 100 * g.n * g.n
    n = g.n
    comp = np.array(vs.complement(n), dtype=np.int64)
    walks = comp.size * walks_per_source
    # The step table and the guide's compare keys, and five arrays of cells
    # for the guide's build (by tracemalloc it held 35 to 37 bytes per cell
    # on a 3,001-vertex star and a 1,000-vertex sparse graph).
    cells = 2 * n * _guide_scale(g)
    check_memory(
        walks * _WALK_BYTES + (_SLOT_BYTES + 8) * g._indices.size + 40 * cells,
        f"a run of {walks} Monte Carlo walks",
    )
    guide = _guide(g)
    is_target = np.zeros(n, dtype=bool)
    is_target[list(vs.members)] = True

    # The live walks' vertices and walk numbers, compact and in walk order,
    # so each step draws for them in the order it always has.
    rng = np.random.Generator(np.random.PCG64(seed))
    at = np.repeat(comp, walks_per_source)
    live = np.arange(walks)
    steps = np.zeros(walks, dtype=np.int64)
    for step in range(1, max_steps + 1):
        at = _walk_step(g, guide, at, rng.random(at.size))
        hit = is_target[at]
        if hit.any():
            steps[live[hit]] = step
            keep = ~hit
            at, live = at[keep], live[keep]
            if at.size == 0:
                break

    per_source = steps.reshape(len(comp), walks_per_source)
    done = per_source > 0
    counts = done.sum(axis=1)
    truncated_total = int(walks - counts.sum())
    if truncated_total > 0.01 * walks:
        raise TruncationError(
            f"{truncated_total} of {walks} walks hit the {max_steps}-step cap; "
            "raise max_steps",
            truncated=truncated_total,
            total=walks,
        )

    # Row reductions give each source's mean and deviation with the bits of
    # the same reductions on that row alone; rows with truncated walks
    # average their finished walks only.
    h = np.zeros(n)
    se = np.zeros(n)
    truncated = np.zeros(n, dtype=np.int64)
    h[comp] = per_source.mean(axis=1)
    if walks_per_source > 1:
        se[comp] = per_source.std(axis=1, ddof=1) / np.sqrt(walks_per_source)
    for i in np.flatnonzero(counts < walks_per_source):
        vals = per_source[i][done[i]]
        h[comp[i]] = vals.mean()
        se[comp[i]] = vals.std(ddof=1) / np.sqrt(vals.size) if vals.size > 1 else 0.0
        truncated[comp[i]] = walks_per_source - vals.size
    return HittingSolution(
        target=vs,
        h=tuple(float(x) for x in h),
        route=ROUTE_MONTE_CARLO,
        stderr=tuple(float(x) for x in se),
        walks_per_source=walks_per_source,
        max_steps=max_steps,
        truncated=tuple(int(t) for t in truncated),
        seed=seed,
        rng=RNG_NAME,
    )


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
    dist = multi_source_distances(g, vs).dist
    sum_dist = sum(dist[v] for v in comp)
    sum_deg = sum(g.degree(v) for v in comp)
    mid = sum_dist * sum_deg / len(comp)
    return BoundCheck(lhs=lhs, mid=mid, holds=lhs <= mid + 1e-9)
