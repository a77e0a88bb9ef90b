"""Write the byte corpus: every ``gcentral`` subcommand's output on a fixed
set of inputs, one file per run.

    PYTHONPATH=src python3 tests/byte_corpus.py OUT_DIR
    PYTHONPATH=src python3 tests/byte_corpus.py --parent REF OUT_DIR

The second form compares this checkout with the commit REF: it extracts
REF by ``git archive`` into a temporary directory, writes REF's corpus by
REF's own copy of this script on REF's ``src`` to ``OUT_DIR/parent`` and
this checkout's by this copy on this ``src`` to ``OUT_DIR/change``, then
lists every file that differs or is in one corpus only, and exits 1 if
there is any.

Each file is the output less the manifest's ``wall_time_s`` and
``command``, so two checkouts' corpora compare with ``diff -r``.  JSON
reports are written as ``.json`` without those two keys; text outputs keep
every byte but those two values in the ``# manifest:`` line, written as
``null``.  The search corpus, by ``optimum --format json``
for ``--workers`` 1 and 2 and in TSV for ``--workers`` 1: both fixtures with
``labels.tsv`` at k = 4 (in TSV also with ``--use-labels``); the 6 x 7 torus
at k = 3 for every measure and at k = 4 for random walk; eight seeded
random connected graphs of 8 to 15 vertices at k = 3, the odd ones
weighted; the 8-wide, 20-layer complete-bipartite ladder at k = 1, and
betweenness alone on the 3-wide, 36-layer one at k = 1, both with path
counts past 2**53.  Searches at one k that
``optimum`` (which runs every k up to ``--k``) cannot reach alone call
``optimumset`` for ``workers`` 1 and 2 and write its result: the 70-vertex
cycle at k = 69 for degree and closeness, whose colex enumeration reads
binomials past the int64 range.  The centrality corpus scores each search
graph at {0}, at {0, n - 1} and at the first optimal set its report lists
at its largest k, in JSON and in TSV.  The hitting corpus, by seeded Monte
Carlo: both fixtures at the default 10,000 walks per source, the torus,
the eight random graphs, a weighted random graph with a vertex joined to
all four members of the set (contraction folds its four crossing weights
onto one edge), a 3,001-vertex star whose hub row spans many guide cells,
and a 1,000-vertex random tree plus 500 edges; and by the absorbing and
contraction routes at each of these but the star.  The
sample corpus writes ``sample``'s ``.edges`` and ``.map`` files for both
labelled fixtures, the torus, a weighted random graph and the 1,000-vertex
graph; the family corpus three clique/star families; the ingest corpus a
seeded triples file filtered by two predicates and by one it lacks.
Pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

from gcentral.cli import json_text, main, optimum_json
from gcentral.graph import Graph, load_edge_list, parse_label_file
from gcentral.measures import Measure
from gcentral.optimize import optimumset


def _torus(rows: int, cols: int) -> str:
    edges = set()
    for r, c in itertools.product(range(rows), range(cols)):
        u = r * cols + c
        for v in (((r + 1) % rows) * cols + c, r * cols + (c + 1) % cols):
            edges.add((min(u, v), max(u, v)))
    return "".join(f"{u} {v}\n" for u, v in sorted(edges))


def _random_graph(seed: int) -> tuple[str, bool]:
    """A random spanning tree plus extra edges on 8 to 15 vertices; odd
    seeds carry weights in [0.1, 2]."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(8, 16))
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    edges |= {(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.2}
    weighted = bool(seed % 2)
    lines = [f"{u} {v}" + (f" {rng.uniform(0.1, 2.0)!r}" if weighted else "") for u, v in sorted(edges)]
    return "\n".join(lines) + "\n", weighted


def _ladder(width: int, layers: int) -> str:
    return "".join(
        f"{layer * width + a} {(layer + 1) * width + b}\n"
        for layer in range(layers - 1)
        for a in range(width)
        for b in range(width)
    )


def _fan(seed: int) -> str:
    """The weighted random graph of ``_random_graph(seed)`` on n vertices
    plus vertex n, joined to 0, 1, 2 and 3 by weights whose sum depends on
    the order of the additions, and to 4.  Contracting {0, 1, 2, 3} folds
    the four onto one edge, whose weight shows in the walk from n."""
    text, _ = _random_graph(seed)
    n = 1 + max(int(t) for line in text.splitlines() for t in line.split()[:2])
    weights = (0.1, 0.2, 0.3, 0.4, 0.7)
    return text + "".join(f"{v} {n} {w!r}\n" for v, w in enumerate(weights))


def _sparse(n: int, seed: int) -> str:
    """A random recursive spanning tree on n vertices plus n/2 distinct extra edges."""
    rng = np.random.Generator(np.random.PCG64(seed))
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    while len(edges) < n - 1 + n // 2:
        u, v = sorted(int(x) for x in rng.choice(n, 2, replace=False))
        edges.add((u, v))
    return "".join(f"{u} {v}\n" for u, v in sorted(edges))


def cases(work: Path) -> list[tuple[str, list[str], list[str]]]:
    """(name, graph arguments, search arguments without --workers) for every
    ``optimum`` corpus entry."""
    fixtures = resources.files("gcentral").joinpath("fixtures")
    labels = str(fixtures.joinpath("labels.tsv"))
    out = []
    for name in ("novice", "expert"):
        out.append((name, [str(fixtures.joinpath(f"{name}.edges")), "--labels", labels], ["--k", "4"]))
    torus = work / "torus.edges"
    torus.write_text(_torus(6, 7))
    for measure in ("degree", "closeness", "betweenness", "randomwalk"):
        out.append((f"torus-{measure}-k3", [str(torus)], ["--k", "3", "--measures", measure]))
    out.append(("torus-randomwalk-k4", [str(torus)], ["--k", "4", "--measures", "randomwalk"]))
    for seed in range(8):
        text, weighted = _random_graph(seed)
        path = work / f"random{seed}.edges"
        path.write_text(text)
        out.append((f"random{seed}-k3", [str(path)] + ["--weighted"] * weighted, ["--k", "3"]))
    ladder = work / "ladder.edges"
    ladder.write_text(_ladder(8, 20))
    out.append(("ladder-8x20-k1", [str(ladder)], ["--k", "1"]))
    ladder = work / "ladder3.edges"
    ladder.write_text(_ladder(3, 36))
    out.append(("ladder-3x36-betweenness-k1", [str(ladder)], ["--k", "1", "--measures", "betweenness"]))
    return out


def centrality_cases(searches: list[tuple[str, list[str], dict]]) -> list[tuple[str, list[str]]]:
    """(name, centrality arguments) for each corpus graph at {0}, {0, n - 1}
    and the first optimal set of each of its searches' reports at their
    largest k, given every search's (name, graph arguments, report)."""
    out, seen = [], set()
    for name, graph, report in searches:
        labels = parse_label_file(Path(graph[2]).read_text()) if "--labels" in graph else None
        n = load_edge_list(Path(graph[0]).read_text(), weighted="--weighted" in graph, labels=labels).n
        best = report["rows"][-1]["optimal_sets"][0]
        for tag, members in (("v0", [0]), ("ends", [0, n - 1]), ("best", best)):
            spec = ",".join(map(str, members))
            if (graph[0], spec) not in seen:
                seen.add((graph[0], spec))
                out.append((f"centrality-{name}-{tag}", [*graph, "--set", spec, "--measures", "all"]))
    return out


def search_cases() -> list[tuple[str, Graph, int, Measure]]:
    """(name, graph, k, measure) for every single-k search entry."""
    cycle = Graph(70, [(i, (i + 1) % 70) for i in range(70)])
    return [(f"cycle70-{m.value}-k69", cycle, 69, m) for m in (Measure.DEGREE, Measure.CLOSENESS)]


def walk_cases(work: Path) -> list[tuple[str, list[str]]]:
    """(name, hitting arguments) for every ``hitting`` entry: seeded Monte
    Carlo at each place, and the absorbing and contraction routes at each
    but the star."""
    fixtures = resources.files("gcentral").joinpath("fixtures")
    # (place, graph and set, Monte Carlo walks, graph flags)
    places = []
    for name in ("novice", "expert"):
        places.append((name, [str(fixtures.joinpath(f"{name}.edges")), "--set", "0,5,11"], [], []))
    torus = work / "torus.edges"
    torus.write_text(_torus(6, 7))
    places.append(("torus", [str(torus), "--set", "0,17,30"], ["--walks", "1000"], []))
    for seed in range(8):
        text, weighted = _random_graph(seed)
        path = work / f"random{seed}.edges"
        path.write_text(text)
        places.append((f"random{seed}", [str(path), "--set", "0,3"], ["--walks", "2000"], ["--weighted"] * weighted))
    fan = work / "fan.edges"
    fan.write_text(_fan(3))
    places.append(("fan", [str(fan), "--set", "0,1,2,3"], ["--walks", "1000"], ["--weighted"]))
    star = work / "star.edges"
    star.write_text("".join(f"0 {v}\n" for v in range(1, 3001)))
    leaves = ",".join(str(v) for v in range(1, 51))
    places.append(("star-3001", [str(star), "--set", leaves], ["--walks", "2"], []))
    sparse = work / "sparse.edges"
    sparse.write_text(_sparse(1000, 2016))
    places.append(("sparse-1000", [str(sparse), "--set", "1,200,400,600,800"], ["--walks", "20"], []))
    out = []
    for place, graph, walks, flags in places:
        out.append((f"mc-{place}", [*graph, "--route", "montecarlo", "--seed", "7", *walks, *flags]))
        if place != "star-3001":
            out += [(f"{route}-{place}", [*graph, "--route", route, *flags]) for route in ("absorbing", "contraction")]
    return out


def sample_cases(work: Path) -> list[tuple[str, list[str]]]:
    """(name, sample arguments without --out-prefix) for every ``sample`` entry."""
    fixtures = resources.files("gcentral").joinpath("fixtures")
    labels = str(fixtures.joinpath("labels.tsv"))
    out = [
        (f"sample-{name}", [str(fixtures.joinpath(f"{name}.edges")), "--labels", labels, "--nodes", "10", "--seed", "3"])
        for name in ("novice", "expert")
    ]
    torus = work / "torus.edges"
    torus.write_text(_torus(6, 7))
    out.append(("sample-torus", [str(torus), "--nodes", "20", "--seed", "5", "--restart", "0.3"]))
    text, _ = _random_graph(1)
    path = work / "random1.edges"
    path.write_text(text)
    out.append(("sample-random1", [str(path), "--weighted", "--nodes", "6", "--seed", "9"]))
    sparse = work / "sparse.edges"
    sparse.write_text(_sparse(1000, 2016))
    out.append(("sample-sparse-1000", [str(sparse), "--nodes", "40", "--seed", "11"]))
    return out


def _triples() -> str:
    """Seeded subject-predicate-object lines over two predicates, with both
    orders of some pairs, self-loops, a comment and trailing dots."""
    rng = np.random.Generator(np.random.PCG64(5))
    lines = ["# seeded triples", ""]
    for _ in range(200):
        s, o = rng.integers(30, size=2)
        dot = " ." if rng.random() < 0.5 else ""
        lines.append(f"w{s} {('related', 'isa')[rng.integers(2)]} w{o}{dot}")
    return "\n".join(lines) + "\n"


# The manifest line's command (a JSON string) and wall time (a number).
_VARYING = re.compile(r'"(command|wall_time_s)": ("(?:[^"\\]|\\.)*"|[^,}]+)')


def _mask(text: str) -> str:
    """``text`` with its manifest line's wall time and command nulled in
    place, every other byte kept."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if line.startswith("# manifest: "):
            lines[i] = _VARYING.sub(r'"\1": null', line)
    return "\n".join(lines)


def _run(argv: list[str], name: str) -> str:
    """The standard output of one run, which must succeed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{name} exited {code}: {err.getvalue()}")
    return out.getvalue()


def _report(argv: list[str], name: str) -> dict:
    report = json.loads(_run(argv, name))
    del report["manifest"]["wall_time_s"], report["manifest"]["command"]
    return report


def write_corpus(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    texts: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        searches = cases(work)
        runs = [
            (f"{name}-w{workers}", ["optimum", *graph, *search, "--format", "json", "--workers", workers])
            for (name, graph, search), workers in itertools.product(searches, ("1", "2"))
        ]
        runs += [(name, ["hitting", *args]) for name, args in walk_cases(work)]
        reports = {name: _report(argv, name) for name, argv in runs}
        for name, graph, search in searches:
            variants = [("", [])] + [("-labels", ["--use-labels"])] * ("--labels" in graph)
            for tag, flag in variants:
                argv = ["optimum", *graph, *search, *flag, "--workers", "1"]
                texts[f"{name}{tag}-w1.tsv"] = _run(argv, name)
        scored = [(name, graph, reports[f"{name}-w1"]) for name, graph, _ in searches]
        for name, args in centrality_cases(scored):
            reports[name] = _report(["centrality", *args, "--format", "json"], name)
            texts[f"{name}.tsv"] = _run(["centrality", *args], name)
        for name, args in sample_cases(work):
            prefix = work / name
            _run(["sample", *args, "--out-prefix", str(prefix)], name)
            for suffix in (".edges", ".map"):
                texts[name + suffix] = prefix.with_suffix(suffix).read_text()
        for n, m in ((2, 1), (3, 2), (4, 3)):
            texts[f"family-n{n}-m{m}.txt"] = _run(["family", "--n", str(n), "--m", str(m)], "family")
        triples = work / "triples.nt"
        triples.write_text(_triples())
        for predicate in ("isa", "absent"):
            texts[f"ingest-{predicate}.txt"] = _run(["ingest", str(triples), "--predicate", predicate], "ingest")
        edges = work / "ingest.edges"
        _run(["ingest", str(triples), "--predicate", "related", "-o", str(edges)], "ingest")
        texts["ingest-related.txt"] = edges.read_text()
    for (name, g, k, measure), workers in itertools.product(search_cases(), (1, 2)):
        reports[f"{name}-w{workers}"] = json.loads(json_text(optimum_json(optimumset(g, k, measure, workers=workers))))
    for name, report in reports.items():
        (out_dir / f"{name}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for name, text in texts.items():
        (out_dir / name).write_text(_mask(text))


def _corpus_of(tree: Path, out_dir: Path) -> None:
    """Write the corpus of the checkout ``tree`` by its own script and package."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, str(tree / "tests" / "byte_corpus.py"), str(out_dir)], env=env, check=True)


def compare_with(ref: str, out_dir: Path) -> int:
    """Write the corpora of the commit ``ref`` and of this checkout under
    ``out_dir``, print the files that differ, and return 1 if any do."""
    here = Path(__file__).resolve().parents[1]
    for side in ("parent", "change"):
        (out_dir / side).mkdir(parents=True)  # a fresh directory each, so no old file is compared
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=here, check=True, capture_output=True)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        _corpus_of(Path(tmp), out_dir / "parent")
    _corpus_of(here, out_dir / "change")
    names = {p.name for p in (out_dir / "parent").iterdir()} | {p.name for p in (out_dir / "change").iterdir()}
    bad = 0
    for name in sorted(names):
        files = [out_dir / side / name for side in ("parent", "change")]
        missing = [f.parent.name for f in files if not f.is_file()]
        if missing or files[0].read_bytes() != files[1].read_bytes():
            bad += 1
            print(f"{name}: " + (f"missing in {missing[0]}" if missing else "differs"))
    print(f"{bad} of {len(names)} files differ")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--parent":
        sys.exit(compare_with(sys.argv[2], Path(sys.argv[3])))
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} OUT_DIR | --parent REF OUT_DIR")
    write_corpus(Path(sys.argv[1]))
