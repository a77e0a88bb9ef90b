"""Output gate: independent reference values and the checks every op passes.

The reference scores are computed here from the edge lists with plain
numpy/scipy (layered path counting, one dense solve per set), not with
gcentral.  Optimum reports on fixed inputs are compared field by field with
``golden.json``, captured from the program at the commit that added this
benchmark: exact rationals, tie lists and counts must match exactly, float
values to the program's own tie tolerance.

run.py imports this module only after its measured loop, so the reference
arrays never raise the peak RSS it reports.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.sparse

from workloads import GraphFile, Op, Workload

FLOAT_REL = 1e-9  # the program's own tie tolerance
ROUTE_REL = 1e-7  # absorbing-solve against contraction-Z
MC_SIGMAS = 4.0
#: Manifest fields compared with the golden report.  The wall time varies
#: and the version string may be bumped without changing any result.
MANIFEST_KEYS = ("command", "input_digest", "seed", "tolerances")

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def layered_counts(adj, keep: np.ndarray | None = None):
    """All-pairs hop distances and shortest-path counts by breadth layers.

    ``keep`` masks vertices out of the graph (rows and columns dropped).
    Counts ride in float64 and must stay below 2**53.
    """
    n = adj.shape[0]
    if keep is not None:
        d = scipy.sparse.diags(keep.astype(float)) if scipy.sparse.issparse(adj) else np.diag(
            keep.astype(float))
        adj = d @ adj @ d
    dist = np.full((n, n), -1, dtype=np.int32)
    np.fill_diagonal(dist, 0)
    sigma = np.eye(n)
    frontier = np.eye(n)
    t = 0
    while True:
        t += 1
        nxt = np.asarray(adj @ frontier)  # symmetric: column j is source j
        newly = (dist < 0) & (nxt > 0)
        if not newly.any():
            break
        dist[newly] = t
        sigma[newly] = nxt[newly]
        frontier = np.where(newly, nxt, 0.0)
    if sigma.max() >= 2.0**53:
        raise ValueError("path counts exceed the float64-exact range")
    return dist, sigma


class Reference:
    """Scores of vertex sets in one graph, computed without gcentral."""

    def __init__(self, gf: GraphFile):
        n = self.n = gf.n
        rows = [u for u, v in gf.edges] + [v for u, v in gf.edges]
        cols = [v for u, v in gf.edges] + [u for u, v in gf.edges]
        adj = scipy.sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        self.adj = adj.toarray() if n <= 200 else adj
        self.dense = adj.toarray()
        self.deg = self.dense.sum(axis=1)
        self.dist, self.sigma = layered_counts(self.adj)

    def scores(self, members) -> dict:
        n = self.n
        inside = np.zeros(n, dtype=bool)
        inside[list(members)] = True
        comp = np.flatnonzero(~inside)
        c = comp.size
        covered = int((self.dense[np.ix_(comp, list(members))] > 0).any(axis=1).sum())
        to_set = self.dist[np.ix_(list(members), comp)].min(axis=0)
        out = {
            "degree": Fraction(covered, c),
            "closeness": Fraction(int(to_set.sum()), c),
            "h": self.hitting(members),
        }
        out["randomwalk"] = math.fsum(out["h"][comp]) / c
        if c < 2:
            out["betweenness"] = 1.0
            return out
        d2, s2 = layered_counts(self.adj, ~inside)
        iu, iv = np.triu_indices(c, 1)
        u, v = comp[iu], comp[iv]
        avoid = np.where(d2[u, v] == self.dist[u, v], s2[u, v], 0.0) / self.sigma[u, v]
        out["betweenness"] = 2.0 * math.fsum(1.0 - avoid) / (c * (c - 1))
        return out

    def hitting(self, members) -> np.ndarray:
        inside = np.zeros(self.n, dtype=bool)
        inside[list(members)] = True
        comp = np.flatnonzero(~inside)
        p = self.dense / self.deg[:, None]
        q = p[np.ix_(comp, comp)]
        h = np.zeros(self.n)
        h[comp] = np.linalg.solve(np.eye(comp.size) - q, np.ones(comp.size))
        return h

    def optimum(self, k_max: int) -> dict:
        """Best value and complete tie list per (k, measure), by enumeration."""
        cells = {}
        for k in range(1, k_max + 1):
            scored = [(s, self.scores(s)) for s in itertools.combinations(range(self.n), k)]
            for m in ("degree", "closeness", "betweenness", "randomwalk"):
                pick = max if m in ("degree", "betweenness") else min
                best = pick(sc[m] for _, sc in scored)
                if isinstance(best, Fraction):
                    ties = [list(s) for s, sc in scored if sc[m] == best]
                else:
                    ties = [list(s) for s, sc in scored
                            if math.isclose(sc[m], best, rel_tol=FLOAT_REL, abs_tol=1e-12)]
                cells[(k, m)] = (best, ties)
        return cells


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _exact(score: dict) -> Fraction:
    num, den = score["exact"].split("/")
    return Fraction(int(num), int(den))


def golden_entry(payload: dict, work: Path) -> dict:
    """The fields of an optimum report that golden.json keeps.

    The manifest without wall time and version, with the checkout path
    stripped from the command; per row the exact rational, float value,
    evaluated count and complete tie list; the Jaccard overlaps.
    """
    man = payload["manifest"]
    manifest = {k: man.get(k) for k in MANIFEST_KEYS}
    manifest["command"] = man.get("command", "").replace(str(work) + "/", "")
    rows = [{"k": r["k"], "measure": r["measure"], "evaluated": r["evaluated"],
             "exact": r["best"].get("exact"), "value": r["best"]["value"],
             "optimal_sets": r["optimal_sets"]} for r in payload["rows"]]
    return {"manifest": manifest, "rows": rows, "jaccard": payload.get("jaccard", [])}


def compare_golden(want: dict, got: dict) -> list[str]:
    """Problems of ``got`` against ``want``, both from golden_entry()."""
    problems = [f"manifest {k} {got['manifest'][k]!r} != golden {v!r}"
                for k, v in want["manifest"].items() if got["manifest"][k] != v]
    cells = [(r["k"], r["measure"]) for r in got["rows"]]
    if cells != [(r["k"], r["measure"]) for r in want["rows"]]:
        return problems + [f"rows cover {cells}"]
    for r, w in zip(got["rows"], want["rows"]):
        tag = f"k={w['k']} {w['measure']}"
        if r["evaluated"] != w["evaluated"]:
            problems.append(f"{tag}: evaluated {r['evaluated']} != golden {w['evaluated']}")
        if r["exact"] != w["exact"]:
            problems.append(f"{tag}: exact {r['exact']} != golden {w['exact']}")
        if not _close(r["value"], w["value"], FLOAT_REL):
            problems.append(f"{tag}: value {r['value']!r} != golden {w['value']!r}")
        if r["optimal_sets"] != w["optimal_sets"]:
            problems.append(f"{tag}: tie list of {len(r['optimal_sets'])} sets differs "
                            f"from golden's {len(w['optimal_sets'])}")
    pairs = [(j["k"], j["a"], j["b"]) for j in got["jaccard"]]
    if pairs != [(j["k"], j["a"], j["b"]) for j in want["jaccard"]]:
        problems.append(f"jaccard covers {pairs}")
    elif not all(_close(a["overlap"], b["overlap"], FLOAT_REL)
                 for a, b in zip(got["jaccard"], want["jaccard"])):
        problems.append("jaccard overlaps differ from golden")
    return problems


def golden_key(wl: Workload, op: Op, toy: bool) -> str:
    return f"{wl.name}{'-toy' if toy else ''}/{op.graph}/{op.measure}/k{op.k}"


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def write_golden(golden: dict) -> None:
    """One op per line, so a re-capture diffs op by op."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(golden.items())]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


class Checker:
    """Checks the first output of each op; returns a list of problems (empty when it passes).

    The measured loop keeps each op's first output and requires every later
    output of the op to equal it apart from wall time; this class checks
    those first outputs against golden.json or the references.
    """

    def __init__(self, wl: Workload, work: Path, toy: bool):
        self.wl, self.work, self.toy = wl, work, toy
        self.golden = load_golden() if wl.golden else {}
        self.refs = {name: Reference(gf) for name, gf in wl.graphs.items()}
        self._scores: dict = {}
        self._optima: dict = {}

    def _set_scores(self, op: Op) -> dict:
        key = (op.graph, op.members)
        if key not in self._scores:
            self._scores[key] = self.refs[op.graph].scores(op.members)
        return self._scores[key]

    def check(self, op: Op, output) -> list[str]:
        """``output`` is stdout, or for ``sample`` the texts of the .edges and .map files."""
        if op.kind == "optimum" and self.wl.golden:
            want = self.golden.get(golden_key(self.wl, op, self.toy))
            if want is None:
                return ["no golden report for this op; run perfbench/golden.py"]
            return compare_golden(want, golden_entry(json.loads(output), self.work))
        if op.kind == "sample":
            return self._check_sample(op, output)
        return getattr(self, "_check_" + op.kind.split("-")[0])(op, json.loads(output))

    def _check_optimum(self, op: Op, payload: dict) -> list[str]:
        key = (op.graph, op.k)
        if key not in self._optima:
            self._optima[key] = self.refs[op.graph].optimum(op.k)
        n = self.wl.graphs[op.graph].n
        problems = []
        rows = payload["rows"]
        if [r["k"] for r in rows] != list(range(1, op.k + 1)):
            return [f"rows cover k = {[r['k'] for r in rows]}"]
        for row in rows:
            best, ties = self._optima[key][(row["k"], op.measure)]
            if row["evaluated"] != math.comb(n, row["k"]):
                problems.append(f"k={row['k']}: evaluated {row['evaluated']}")
            if isinstance(best, Fraction):
                ok = _exact(row["best"]) == best
            else:
                ok = _close(row["best"]["value"], best, FLOAT_REL)
            if not ok:
                problems.append(f"k={row['k']}: best {row['best']} != reference {best}")
            if row["optimal_sets"] != ties:
                problems.append(f"k={row['k']}: {len(row['optimal_sets'])} ties, "
                                f"reference has {len(ties)}")
        return problems

    def _check_centrality(self, op: Op, payload: dict) -> list[str]:
        ref = self._set_scores(op)
        sc = payload["scores"]
        problems = []
        for m in ("degree", "closeness"):
            if _exact(sc[m]) != ref[m]:
                problems.append(f"{m} {sc[m]['exact']} != reference {ref[m]}")
        for m, col in (("betweenness", "betweenness"), ("randomwalk", "random-walk")):
            if not _close(sc[col]["value"], ref[m], FLOAT_REL):
                problems.append(f"{m} {sc[col]['value']!r} != reference {ref[m]!r}")
        return problems

    def _check_hitting(self, op: Op, payload: dict) -> list[str]:
        """Absorbing to 1e-9 and contraction to 1e-7 of the reference solve, per vertex.

        Monte Carlo is checked on the mean over all outside vertices, within
        MC_SIGMAS pooled standard errors.  A per-vertex bound would not hold:
        with 20 walks a source's hitting times are few and right-skewed, so
        its sample standard error is often far too small, and over a
        thousand vertices the largest per-vertex z (the traced
        ``randomwalk.mc_max_z``) reaches about 8.
        """
        h_ref = self._set_scores(op)["h"]
        sol = payload["solution"]
        h = np.array([sol["hitting_times"][str(v)] for v in range(h_ref.size)])
        if op.kind != "hitting-montecarlo":
            rel = FLOAT_REL if op.kind == "hitting-absorbing" else ROUTE_REL
            gap = float(np.max(np.abs(h - h_ref) / np.maximum(1.0, h_ref)))
            return [] if gap <= rel else [f"{op.kind}: relative gap {gap:.3e} > {rel:.0e}"]
        se = np.array([sol["stderr"][str(v)] for v in range(h_ref.size)])
        outside = h_ref > 0
        c = int(outside.sum())
        mean_gap = abs(h[outside].mean() - h_ref[outside].mean())
        mean_se = math.sqrt(float((se[outside] ** 2).sum())) / c
        problems = []
        if sol["truncated"]:
            problems.append(f"truncated walks {sol['truncated']}")
        if mean_gap > MC_SIGMAS * mean_se:
            problems.append(f"Monte Carlo mean off by {mean_gap / mean_se:.1f} standard errors")
        return problems

    def _check_sample(self, op: Op, files: dict) -> list[str]:
        source = set(self.wl.graphs[op.graph].edges)
        ids = {}
        for line in files["map"].splitlines():
            sid, orig = line.split("\t")[:2]
            ids[int(sid)] = int(orig)
        if not 2 <= len(ids) <= op.nodes or sorted(ids) != list(range(len(ids))):
            return [f"sample maps {len(ids)} vertices for --nodes {op.nodes}"]
        kept = set(ids.values())
        edges = set()
        for line in files["edges"].splitlines():
            if line.startswith("#"):
                continue
            a, b = (ids[int(t)] for t in line.split()[:2])
            edges.add((min(a, b), max(a, b)))
        induced = {(u, v) for u, v in source if u in kept and v in kept}
        return [] if edges == induced else ["sample is not the induced subgraph of its vertices"]
