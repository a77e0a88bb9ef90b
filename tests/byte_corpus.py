"""Write the search's byte corpus: ``optimum --format json`` on a fixed set
of graphs, for ``--workers`` 1 and 2, one file per run.

    PYTHONPATH=src python3 tests/byte_corpus.py OUT_DIR

Each file is the report less the manifest's ``wall_time_s`` and
``command``, so two checkouts' corpora compare with ``diff -r``.  The
corpus: both fixtures with ``labels.tsv`` at k = 4; the 6 x 7 torus at
k = 3 for every measure and at k = 4 for random walk; eight seeded random
connected graphs of 8 to 15 vertices at k = 3, the odd ones weighted; and
the 8-wide, 20-layer complete-bipartite ladder at k = 1, where betweenness
path counts pass 2**53.  Pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

from gcentral.cli import main


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


def cases(work: Path) -> list[tuple[str, list[str]]]:
    """(name, optimum arguments without --workers) for every corpus entry."""
    fixtures = resources.files("gcentral").joinpath("fixtures")
    labels = str(fixtures.joinpath("labels.tsv"))
    out = []
    for name in ("novice", "expert"):
        out.append((name, [str(fixtures.joinpath(f"{name}.edges")), "--labels", labels, "--k", "4"]))
    torus = work / "torus.edges"
    torus.write_text(_torus(6, 7))
    for measure in ("degree", "closeness", "betweenness", "randomwalk"):
        out.append((f"torus-{measure}-k3", [str(torus), "--k", "3", "--measures", measure]))
    out.append(("torus-randomwalk-k4", [str(torus), "--k", "4", "--measures", "randomwalk"]))
    for seed in range(8):
        text, weighted = _random_graph(seed)
        path = work / f"random{seed}.edges"
        path.write_text(text)
        out.append((f"random{seed}-k3", [str(path), "--k", "3"] + ["--weighted"] * weighted))
    ladder = work / "ladder.edges"
    ladder.write_text(_ladder(8, 20))
    out.append(("ladder-8x20-k1", [str(ladder), "--k", "1"]))
    return out


def write_corpus(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for (name, args), workers in itertools.product(cases(Path(tmp)), ("1", "2")):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["optimum", *args, "--format", "json", "--workers", workers])
            if code != 0:
                raise SystemExit(f"{name} with --workers {workers} exited {code}")
            report = json.loads(buf.getvalue())
            del report["manifest"]["wall_time_s"], report["manifest"]["command"]
            (out_dir / f"{name}-w{workers}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} OUT_DIR")
    write_corpus(Path(sys.argv[1]))
