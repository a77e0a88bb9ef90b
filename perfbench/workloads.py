"""Workload definitions: seeded input files and the op list of one pass.

An op is one ``gcentral`` command line.  A pass issues every op of the
workload once, in order, from a single client (a closed loop).  The
program only ever sees the files written here.
"""

from __future__ import annotations

import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

MEASURES = ("degree", "closeness", "betweenness", "randomwalk")
ROUTES = ("absorbing", "contraction", "montecarlo")
WORKLOADS = ("fixture-report", "torus-ties", "single-set-sparse")

#: The sparse graph's shape is one fixed draw of its family; --seed relabels
#: it and picks the walk seeds.  A fresh draw per seed moves the Monte Carlo
#: and sampler cost by +-15% (the mean hitting time follows the set's
#: degrees), which would swamp the run-to-run spread the bounds are set on.
SPARSE_SHAPE_SEED = 2016

MC_WALKS = 20


@dataclass(frozen=True)
class Op:
    """One command line, with what the checks and metrics need to know."""

    kind: str  # optimum | centrality | hitting-<route> | sample
    graph: str  # key of Workload.graphs
    argv: tuple[str, ...]
    measure: str | None = None
    k: int | None = None
    members: tuple[int, ...] | None = None
    seed: int | None = None
    nodes: int | None = None
    out_prefix: str | None = None

    @property
    def metric(self) -> str:
        if self.kind == "optimum":
            return f"subsets_per_s.{self.measure}"
        return self.kind.replace("-", "_") + "_s"


@dataclass(frozen=True)
class GraphFile:
    path: Path
    labels: Path | None
    n: int
    edges: tuple[tuple[int, int], ...]  # vertex ids as the program assigns them


@dataclass
class Workload:
    name: str
    seed: int
    graphs: dict[str, GraphFile]
    ops: list[Op]
    golden: bool  # optimum outputs are compared with golden.json

    def subsets(self, op: Op) -> int:
        n = self.graphs[op.graph].n
        return sum(math.comb(n, k) for k in range(1, op.k + 1))


def _write_graph(path: Path, n: int, edges, labels: Path | None = None) -> GraphFile:
    edges = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
    path.write_text("".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")
    return GraphFile(path, labels, n, edges)


def _fixture(src: Path, work: Path, name: str) -> GraphFile:
    """Copy a shipped fixture; ids come from labels.tsv, as the CLI assigns them."""
    labels = work / "labels.tsv"
    shutil.copyfile(src / "labels.tsv", labels)
    path = work / f"{name}.edges"
    shutil.copyfile(src / f"{name}.edges", path)
    index = {}
    for line in labels.read_text(encoding="utf-8").splitlines():
        if line.strip():
            i, label = line.split("\t", 1)
            index[label.strip()] = int(i)
    edges = []
    for line in path.read_text(encoding="utf-8").splitlines():
        body = line.split("#", 1)[0].split()
        if body:
            edges.append((index[body[0]], index[body[1]]))
    return GraphFile(path, labels, len(index), tuple(sorted((min(e), max(e)) for e in edges)))


def torus_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    def vid(r: int, c: int) -> int:
        return (r % rows) * cols + (c % cols)

    edges = set()
    for r in range(rows):
        for c in range(cols):
            for v in (vid(r + 1, c), vid(r, c + 1)):
                u = vid(r, c)
                edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def sparse_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A random recursive spanning tree plus n/2 distinct extra edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + n // 2:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def _relabelled_sparse(n: int, set_size: int, shape_seed: int, rng: random.Random):
    shape = random.Random(shape_seed)
    edges = sparse_edges(n, shape)
    members = shape.sample(range(n), set_size)
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges], tuple(sorted(perm[v] for v in members))


def _single_set_ops(gname: str, gf: GraphFile, members, seed: int, nodes: int,
                    sample_seeds, prefix: Path, repeat: int = 1) -> list[Op]:
    """Centrality, the three hitting routes and the sampler for one set.

    Each op is issued ``repeat`` times per pass, so that ops of a few
    milliseconds still get enough samples per run for a steady median.
    """
    path = str(gf.path)
    spec = ",".join(str(v) for v in members)
    lab = ("--labels", str(gf.labels)) if gf.labels else ()
    ops = [Op("centrality", gname, ("centrality", path, *lab, "--set", spec, "--format", "json"),
              members=members)]
    for route in ROUTES:
        argv = ("hitting", path, *lab, "--set", spec, "--route", route)
        if route == "montecarlo":
            argv += ("--walks", str(MC_WALKS), "--seed", str(seed))
        ops.append(Op(f"hitting-{route}", gname, argv, members=members, seed=seed))
    for s in sample_seeds:
        out = f"{prefix}-sample-{gname}-{s}"
        ops.append(Op("sample", gname,
                      ("sample", path, *lab, "--nodes", str(nodes), "--seed", str(s),
                       "--out-prefix", out),
                      seed=s, nodes=nodes, out_prefix=out))
    return [op for op in ops for _ in range(repeat)]


def _optimum_op(gname: str, gf: GraphFile, measure: str, k: int) -> Op:
    """A serial search.  On the CLI's default pool the fixture report's
    run-to-run spread reached 0.2-0.4 (fork and cross-CPU scheduling on a
    shared host); the pool's dispatch cost is measured by a traced probe."""
    argv = ["optimum", str(gf.path)]
    if gf.labels:
        argv += ["--labels", str(gf.labels)]
    argv += ["--k", str(k), "--format", "json", "--measures", measure, "--workers", "1"]
    return Op("optimum", gname, tuple(argv), measure=measure, k=k)


def build(name: str, seed: int, work: Path, fixtures: Path, toy: bool = False) -> Workload:
    """Write the workload's inputs under ``work`` and return its op list.

    ``toy`` shrinks every input so a run takes seconds (the smoke test).
    """
    # The fixtures and the torus are fixed graphs, and so are their
    # single-set companions: a seeded set or walk seed moved the Monte Carlo
    # and sampler times by up to 25% from seed to seed, which is input
    # variance, not timing noise.  Only single-set-sparse draws from --seed.
    rng = random.Random(seed if name == "single-set-sparse" else 0)
    sample_seeds = [rng.randrange(1 << 30) for _ in range(8)]
    mc_seed = rng.randrange(1 << 30)
    graphs: dict[str, GraphFile] = {}
    ops: list[Op] = []
    if name == "fixture-report":
        # The paper's result table: every measure up to k = 4 on both
        # concept networks.  Betweenness takes most of the time.
        k = 2 if toy else 4
        for gname in ("expert", "novice"):
            graphs[gname] = _fixture(fixtures, work, gname)
        for gname, gf in graphs.items():
            ops += [_optimum_op(gname, gf, m, k) for m in MEASURES]
        for gname, gf in graphs.items():
            members = tuple(sorted(rng.sample(range(gf.n), 3)))
            ops += _single_set_ops(gname, gf, members, mc_seed, 12, sample_seeds[:1],
                                   work / "run", repeat=3)
        return Workload(name, seed, graphs, ops, golden=True)
    if name == "torus-ties":
        # A vertex-transitive grid: thousands of co-optimal degree sets,
        # ~1 MB JSON report.  Betweenness only at k = 2: the bypass workload
        # for the betweenness kernel.
        rows, cols, k = (3, 4, 3) if toy else (6, 7, 4)
        gf = graphs["torus"] = _write_graph(work / "torus.edges", rows * cols,
                                            torus_edges(rows, cols))
        ops += [_optimum_op("torus", gf, m, k) for m in ("degree", "closeness", "randomwalk")]
        ops.append(_optimum_op("torus", gf, "betweenness", 2))
        members = tuple(sorted(rng.sample(range(gf.n), 3)))
        ops += _single_set_ops("torus", gf, members, mc_seed, 6 if toy else 20,
                               sample_seeds[:2], work / "run", repeat=6)
        return Workload(name, seed, graphs, ops, golden=True)
    if name == "single-set-sparse":
        # One set on a large sparse graph: dense walk solves, pure-Python
        # BFS betweenness, the Monte Carlo step kernel and the sampler; the
        # search runs only on a 20-vertex graph of the same family.
        n, small_n, nodes, k = (60, 10, 20, 2) if toy else (1000, 20, 250, 3)
        edges, members = _relabelled_sparse(n, 5, SPARSE_SHAPE_SEED, rng)
        gf = graphs["sparse"] = _write_graph(work / "sparse.edges", n, edges)
        small_edges, _ = _relabelled_sparse(small_n, 1, SPARSE_SHAPE_SEED + 1, rng)
        small = graphs["small"] = _write_graph(work / "small.edges", small_n, small_edges)
        ops += _single_set_ops("sparse", gf, members, mc_seed, nodes, sample_seeds,
                               work / "run")
        ops += [_optimum_op("small", small, m, k) for m in MEASURES]
        return Workload(name, seed, graphs, ops, golden=False)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def warmup_ops(wl: Workload, work: Path) -> list[Op]:
    """Each subcommand once on the workload's smallest graph, optimum at k = 1."""
    gname = min(wl.graphs, key=lambda g: wl.graphs[g].n)
    gf = wl.graphs[gname]
    measures = dict.fromkeys(op.measure for op in wl.ops if op.kind == "optimum")
    ops = [_optimum_op(gname, gf, m, 1) for m in measures]
    return ops + _single_set_ops(gname, gf, (0,), wl.seed, gf.n // 2, [wl.seed], work / "warm")
