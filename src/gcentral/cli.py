"""Command-line front end.

Subcommands, and the options beside their own that each takes:

- ``centrality`` and ``optimum`` read a graph and take ``--format`` and
  ``-o``; ``optimum`` also takes ``--workers``, ``--budget`` and
  ``--tolerance``;
- ``hitting`` reads a graph and takes ``-o``, and with ``--route
  montecarlo`` also ``--walks``, ``--max-steps`` and ``--seed``;
- ``sample`` reads a graph and takes ``--seed``;
- ``family`` and ``ingest`` take ``-o``.

A graph is the positional edge-list file with ``--labels`` and
``--weighted``; ``centrality``, ``optimum`` and ``hitting`` refuse a
disconnected one.  Any other option, or a prefix of one, is a usage
error.  :func:`main` builds the parser of the subcommand that its first
argument names and no other, which prints the same help, errors and
exit codes as the parser of all six; with no argument, an option or an
unknown name first, it builds all six.

Exit codes: 0 success, 1 standard output closed early, 2 usage error, and
otherwise the ``exit_code`` of the error raised: 2 input error, 3 budget
exceeded, 4 numerical failure.  Every emitted result
embeds a run manifest (command, input digest, seed, tolerances, version,
wall time); commands without ``--tolerance`` record the default float tie
tolerance.  The output formats live here, save the edge-list format that
:mod:`gcentral.graph` both reads and writes: the result types hold data,
and one function here writes each payload.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .errors import GCentralError, InputError
from .graph import Graph, format_edge_list, is_connected, load_edge_list, parse_label_file
from .measures import Measure, Score, evaluate
from .optimize import (
    DEFAULT_BUDGET,
    FLOAT_TIE_REL,
    MEASURE_ORDER,
    CrossMeasureReport,
    OptimumResult,
    check_tie_rel,
    cross_measure_report,
)
from .randomwalk import (
    ROUTE_ABSORBING,
    ROUTE_CONTRACTION,
    HittingSolution,
    hitting_time_set,
    monte_carlo_hitting,
)
from .sampling import (
    DEFAULT_RESTART,
    DEFAULT_STEP_BUDGET,
    FamilyParams,
    SampleConfig,
    generate_family,
    random_walk_sample,
)

MEASURE_COLUMN = {
    Measure.DEGREE: "degree",
    Measure.CLOSENESS: "closeness",
    Measure.BETWEENNESS: "betweenness",
    Measure.RANDOMWALK: "random-walk",
}


def _read(path: Path, what: str) -> tuple[str, str]:
    """The UTF-8 text of the ``what`` file ``path`` and the digest of the
    bytes it was decoded from, read once; InputError if it cannot be read."""
    try:
        data = path.read_bytes()
        return data.decode("utf-8"), "sha256:" + hashlib.sha256(data).hexdigest()
    except FileNotFoundError:
        raise InputError(f"{what} file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} file {path} is not UTF-8 text: byte {exc.start} does not decode") from None
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc.strerror}") from None


def _load_graph(args, connected: bool = True) -> tuple[Graph, str]:
    """The graph of ``args.graph`` (with ``--labels`` and ``--weighted``)
    and the digest of its file; InputError if ``connected`` and it is not."""
    labels = parse_label_file(_read(Path(args.labels), "labels")[0]) if args.labels else None
    text, digest = _read(Path(args.graph), "graph")
    g = load_edge_list(text, weighted=args.weighted, labels=labels)
    if connected and not is_connected(g):
        raise InputError(f"graph is disconnected; {args.subcommand} needs a connected graph")
    return g, digest


def _parse_set(g: Graph, spec: str) -> tuple[int, ...]:
    members = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        members.append(g.vertex_by_label(token))
    if not members:
        raise InputError("empty vertex set")
    return tuple(sorted(set(members)))


def _parse_measures(spec: str | None) -> tuple[Measure, ...]:
    if not spec or spec.strip().lower() == "all":
        return MEASURE_ORDER
    out = []
    for token in spec.split(","):
        if token.strip():
            out.append(Measure.parse(token))
    if not out:
        raise InputError("no measures selected")
    return tuple(dict.fromkeys(out))


#: Tie rows per piece of :func:`json_pieces` output.
_ROWS_PER_PIECE = 4096


def _leaf(obj) -> str | None:
    """The JSON text of ``obj`` by json's own rules if it is a scalar or
    empty; None for a non-empty dict, list, tuple or array."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, float) and math.isfinite(obj):
        return float.__repr__(obj)
    if isinstance(obj, int) and not isinstance(obj, bool):
        return int.__repr__(obj)
    if isinstance(obj, (dict, list, tuple, np.ndarray)) and len(obj):
        return None
    return json.dumps(obj, default=np.ndarray.tolist)  # None, bools, NaN, infinities, empty containers


def _pieces(obj, pad: str) -> Iterator[str]:
    """The pieces of ``obj``, a non-empty dict, list, tuple or array, on a
    line indented by ``pad``; its scalar children are written inline."""
    inner = pad + "  "
    if isinstance(obj, np.ndarray):
        row = inner + "[\n" + ",\n".join([inner + "  %d"] * obj.shape[1]) + "\n" + inner + "]"
        sep = "[\n"
        for first in range(0, len(obj), _ROWS_PER_PIECE):
            rows = obj[first : first + _ROWS_PER_PIECE]
            yield sep + ",\n".join([row] * len(rows)) % tuple(rows.ravel().tolist())
            sep = ",\n"
        yield "\n" + pad + "]"
        return
    is_dict = isinstance(obj, dict)
    text = "{" if is_dict else "["
    for i, key in enumerate(sorted(obj) if is_dict else range(len(obj))):
        text += (",\n" if i else "\n") + inner + (encode_basestring_ascii(key) + ": " if is_dict else "")
        leaf = _leaf(obj[key])
        if leaf is None:
            yield text
            yield from _pieces(obj[key], inner)
            text = ""
        else:
            text += leaf
    yield text + "\n" + pad + ("}" if is_dict else "]")


def json_pieces(obj) -> Iterator[str]:
    """The text of ``json.dumps(obj, sort_keys=True, indent=2)``, in pieces,
    where ``obj`` may also hold tie lists as (T, k) integer arrays, k >= 1,
    written as lists of rows, at most ``_ROWS_PER_PIECE`` rows to a piece.
    Dict keys must be strings."""
    leaf = _leaf(obj)
    return _pieces(obj, "") if leaf is None else iter([leaf])


def json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, tie arrays as in :func:`json_pieces`."""
    return "".join(json_pieces(obj))


def _emit(pieces: Iterable[str], out: str | None) -> None:
    """Write ``pieces`` in turn to the file ``out``, or to standard output."""
    if not out:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc.strerror}") from None


def _emit_json(payload: dict, out: str | None) -> None:
    _emit(itertools.chain(json_pieces(payload), ["\n"]), out)


def _manifest(
    args, start: float, digest: str | None, seed: int | None = None, tie_rel: float = FLOAT_TIE_REL
) -> dict:
    """The run manifest embedded in every emitted result; ``digest`` is the input file's."""
    return {
        "command": " ".join(args.argv),
        "input_digest": digest,
        "seed": seed,
        "tolerances": {"float_tie_rel": tie_rel},
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - start, 6),
    }


def _manifest_line(manifest: dict) -> str:
    """The manifest as the first, comment line of a text output."""
    return f"# manifest: {json.dumps(manifest, sort_keys=True)}"


def _exact(score: Score) -> str | None:
    """The score's exact rational as ``num/den``; None if it has none."""
    return None if score.exact is None else f"{score.exact.numerator}/{score.exact.denominator}"


def cmd_centrality(args) -> int:
    start = time.perf_counter()
    g, digest = _load_graph(args)
    members = _parse_set(g, args.set)
    measures = _parse_measures(args.measures)
    scores = {m: evaluate(g, members, m) for m in measures}
    manifest = _manifest(args, start, digest)
    if args.format == "json":
        payload = {
            "kind": "centrality",
            "set": list(members),
            "set_labels": [g.label(v) for v in members] if g.labels is not None else None,
            "scores": {MEASURE_COLUMN[m]: {"value": s.value, "exact": _exact(s)} for m, s in scores.items()},
            "manifest": manifest,
        }
        _emit_json(payload, args.out)
    else:
        lines = [_manifest_line(manifest), "measure\tvalue\texact"]
        for m, s in scores.items():
            lines.append(f"{MEASURE_COLUMN[m]}\t{s.value:.6f}\t{_exact(s) or '-'}")
        _emit(["\n".join(lines) + "\n"], args.out)
    return 0


def _jaccard(report: CrossMeasureReport) -> list[tuple[int, Measure, Measure, float]]:
    """The report's overlaps as (k, a, b, overlap) rows, in the order both
    report writers list them: by k, then the two measures' names."""
    rows = [(k, a, b, j) for (k, a, b), j in report.jaccard.items()]
    return sorted(rows, key=lambda r: (r[0], r[1].value, r[2].value))


def optimum_json(result: OptimumResult) -> dict:
    """One optimum row: ``optimal_sets`` is the ``ties`` array itself, as
    :func:`json_pieces` writes it; ``best`` has ``exact`` only where the
    measure is exact."""
    best = {"value": result.best.value}
    if result.best.exact is not None:
        best["exact"] = _exact(result.best)
    return {
        "measure": result.measure.value,
        "k": result.k,
        "best": best,
        "optimal_sets": result.ties,
        "evaluated": result.evaluated,
    }


def report_json(report: CrossMeasureReport) -> dict:
    """The ``optimum --format json`` fields of a report, less kind and manifest."""
    cells = [report.cells[(k, m)] for k in range(1, report.k_max + 1) for m in report.measures]
    return {
        "k_max": report.k_max,
        "rows": [optimum_json(cell) for cell in cells],
        "jaccard": [{"k": k, "a": a.value, "b": b.value, "overlap": round(j, 9)} for k, a, b, j in _jaccard(report)],
    }


def _report_tsv(report: CrossMeasureReport, g: Graph, manifest: dict, use_labels: bool) -> str:
    """The ``optimum`` text report: per cell the first two optimal sets and
    how many more there are, then each cell's best value and the overlaps."""
    name = g.label if use_labels else str
    lines = [_manifest_line(manifest), "k\t" + "\t".join(MEASURE_COLUMN[m] for m in report.measures)]
    for k in range(1, report.k_max + 1):
        cells = []
        for m in report.measures:
            ties = report.cells[(k, m)].ties
            parts = ["{" + ", ".join(map(name, s)) + "}" for s in ties[:2].tolist()]
            if len(ties) > 2:
                parts.append(f"... ({len(ties) - 2})")
            cells.append(", ".join(parts))
        lines.append(f"{k}\t" + "\t".join(cells))
    lines.append("# best value per cell (exact rational first where available)")
    for k in range(1, report.k_max + 1):
        for m in report.measures:
            best = report.cells[(k, m)].best
            value = f"{best.value:.6f}" if best.exact is None else f"{_exact(best)} ({best.value:.6f})"
            lines.append(f"# best\t{k}\t{MEASURE_COLUMN[m]}\t{value}")
    lines.append("# pairwise Jaccard overlap of optimal-set unions")
    for k, a, b, j in _jaccard(report):
        lines.append(f"# jaccard\t{k}\t{MEASURE_COLUMN[a]}\t{MEASURE_COLUMN[b]}\t{j:.6f}")
    return "\n".join(lines) + "\n"


def cmd_optimum(args) -> int:
    start = time.perf_counter()
    check_tie_rel(args.tolerance)
    g, digest = _load_graph(args)
    measures = _parse_measures(args.measures)
    report = cross_measure_report(g, args.k, budget=args.budget, workers=args.workers,
                                  measures=measures, tie_rel=args.tolerance)
    manifest = _manifest(args, start, digest, tie_rel=args.tolerance)
    if args.format == "json":
        _emit_json({"kind": "optimum-report", "manifest": manifest, **report_json(report)}, args.out)
    else:
        _emit([_report_tsv(report, g, manifest, args.use_labels)], args.out)
    return 0


def hitting_json(solution: HittingSolution) -> dict:
    """The ``solution`` field of ``hitting``'s output: per-vertex values
    keyed by id, and a Monte Carlo run's errors, truncations and seed."""
    out: dict = {
        "target": list(solution.target.members),
        "route": solution.route,
        "hitting_times": {str(v): h for v, h in enumerate(solution.h)},
    }
    if solution.walks_per_source is not None:
        out["stderr"] = {str(v): e for v, e in enumerate(solution.stderr)}
        out["walks_per_source"] = solution.walks_per_source
        out["max_steps"] = solution.max_steps
        out["truncated"] = {str(v): t for v, t in enumerate(solution.truncated) if t}
        out["seed"] = solution.seed
        out["rng"] = solution.rng
    return out


#: ``hitting --route`` values of the analytic routes; the other is ``montecarlo``.
ANALYTIC_ROUTES = {"absorbing": ROUTE_ABSORBING, "contraction": ROUTE_CONTRACTION}


def cmd_hitting(args) -> int:
    start = time.perf_counter()
    # The Monte Carlo options given, by monte_carlo_hitting's keywords.
    walk_options = {k: getattr(args, k) for k in ("walks_per_source", "max_steps", "seed") if k in args}
    if walk_options and args.route != "montecarlo":
        raise InputError("--walks, --max-steps and --seed apply only to --route montecarlo")
    g, digest = _load_graph(args)
    members = _parse_set(g, args.set)
    if args.route == "montecarlo":
        solution = monte_carlo_hitting(g, members, **walk_options)
    else:
        solution = hitting_time_set(g, members, route=ANALYTIC_ROUTES[args.route])
    payload = {
        "kind": "hitting",
        "solution": hitting_json(solution),
        "manifest": _manifest(args, start, digest, seed=solution.seed),
    }
    _emit_json(payload, args.out)
    return 0


def cmd_sample(args) -> int:
    start = time.perf_counter()
    if os.path.basename(args.out_prefix) in ("", ".", ".."):
        raise InputError(f"--out-prefix must end in a file name; got {args.out_prefix!r}")
    edge_path, map_path = args.out_prefix + ".edges", args.out_prefix + ".map"
    g, digest = _load_graph(args, connected=False)
    cfg = SampleConfig(
        target_nodes=args.nodes,
        restart_probability=args.restart,
        seed=args.seed,
        step_budget=args.step_budget,
    )
    result = random_walk_sample(g, cfg)
    header = _manifest_line(_manifest(args, start, digest, seed=args.seed))
    _emit([header + "\n" + format_edge_list(result.graph)], edge_path)
    # A .map line per sampled vertex: its sample id, its source id and, with labels, its label.
    rows = [f"{i}\t{v}" for i, v in enumerate(result.original_ids)]
    if g.labels is not None:
        rows = [f"{row}\t{g.label(v)}" for row, v in zip(rows, result.original_ids)]
    _emit(["\n".join(rows) + "\n"], map_path)
    sys.stderr.write(
        f"sampled {result.graph.n} vertices / {result.graph.m} edges "
        f"(seed {args.seed}, rng {result.rng}) -> {edge_path}, {map_path}\n"
    )
    return 0


def cmd_family(args) -> int:
    start = time.perf_counter()
    fam = generate_family(FamilyParams(n=args.n, m=args.m))
    lines = [
        _manifest_line(_manifest(args, start, None)),
        f"# separating family: n={args.n} (gadget size), m={args.m} (gadgets per kind)",
        f"# hub {fam.hub}",
        "# clique_attach " + " ".join(str(v) for v in fam.clique_attach),
        "# star_roots " + " ".join(str(v) for v in fam.star_roots),
    ]
    body = format_edge_list(fam.graph)
    _emit(["\n".join(lines) + "\n" + body], args.out)
    return 0


def ingest_triples(text: str, predicate: str) -> tuple[list[str], dict]:
    """Filter subject-predicate-object lines into a canonical edge list.

    Returns edge lines (``a b`` with a <= b, sorted, deduplicated) and drop
    counters.  Directions are discarded: both orders of the same pair
    collapse onto one undirected edge.
    """
    edges: set[tuple[str, str]] = set()
    stats = {"matched": 0, "self_loops": 0, "duplicates": 0, "skipped_predicate": 0}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if parts and parts[-1] == ".":
            parts = parts[:-1]
        if len(parts) != 3:
            raise InputError(f"triple line {lineno}: expected 'subject predicate object'")
        s, p, o = parts
        if p != predicate:
            stats["skipped_predicate"] += 1
            continue
        stats["matched"] += 1
        if s == o:
            stats["self_loops"] += 1
            continue
        key = (s, o) if s <= o else (o, s)
        if key in edges:
            stats["duplicates"] += 1
        else:
            edges.add(key)
    return [f"{a} {b}" for a, b in sorted(edges)], stats


def cmd_ingest(args) -> int:
    start = time.perf_counter()
    text, digest = _read(Path(args.triples), "triples")
    lines, stats = ingest_triples(text, args.predicate)
    header = _manifest_line(_manifest(args, start, digest))
    _emit([header + "\n" + "\n".join(lines) + ("\n" if lines else "")], args.out)
    sys.stderr.write(
        f"kept {len(lines)} edges from {stats['matched']} matching triples "
        f"(dropped {stats['self_loops']} self-loops, {stats['duplicates']} duplicates, "
        f"{stats['skipped_predicate']} other-predicate lines)\n"
    )
    return 0


def _graph_options(p: argparse.ArgumentParser) -> None:
    """Add the options of a subcommand that reads a graph."""
    p.add_argument("graph", help="edge list file")
    p.add_argument("--labels", default=None, help="index<TAB>label file")
    p.add_argument("--weighted", action="store_true", help="edge list has weights")


def _out_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--out", default=None, help="output file (default stdout)")


def _add_centrality(add) -> None:
    p = add(help="score one vertex set")
    _graph_options(p)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    _out_option(p)
    p.add_argument("--set", required=True, help="comma-separated vertex ids or labels")
    p.add_argument("--measures", default="all")
    p.set_defaults(func=cmd_centrality)


def _add_optimum(add) -> None:
    p = add(help="optimal sets for k = 1..K")
    _graph_options(p)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    _out_option(p)
    p.add_argument("--k", type=int, required=True, help="largest set size to enumerate")
    p.add_argument("--measures", default="all")
    p.add_argument("--use-labels", action="store_true", help="print labels instead of ids")
    # The CPUs this process may run on, which can be fewer than the host's.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    p.add_argument("--workers", type=int, default=cpus, help="worker processes (default: available parallelism)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="max subsets to enumerate")
    p.add_argument(
        "--tolerance",
        type=float,
        default=FLOAT_TIE_REL,
        help="relative tie tolerance for betweenness/random-walk scores in this run",
    )
    p.set_defaults(func=cmd_optimum)


def _add_hitting(add) -> None:
    p = add(help="hitting times to a vertex set")
    _graph_options(p)
    _out_option(p)
    p.add_argument("--set", required=True)
    p.add_argument("--route", choices=(*ANALYTIC_ROUTES, "montecarlo"), default="absorbing")
    walk = p.add_argument_group("Monte Carlo only", argument_default=argparse.SUPPRESS)
    walk.add_argument("--walks", type=int, dest="walks_per_source", metavar="N",
                      help="walks per source (default 10000)")
    walk.add_argument("--max-steps", type=int, help="walk step cap (default 100 n^2)")
    walk.add_argument("--seed", type=int, help="random seed (default 0)")
    p.set_defaults(func=cmd_hitting)


def _add_sample(add) -> None:
    p = add(help="random-walk sample of a larger graph")
    _graph_options(p)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--nodes", type=int, default=40, help="distinct vertices to visit")
    p.add_argument("--restart", type=float, default=DEFAULT_RESTART)
    p.add_argument("--step-budget", type=int, default=DEFAULT_STEP_BUDGET)
    p.add_argument("--out-prefix", required=True, help="writes PREFIX.edges and PREFIX.map")
    p.set_defaults(func=cmd_sample)


def _add_family(add) -> None:
    p = add(help="generate the clique/star family")
    _out_option(p)
    p.add_argument("--n", type=int, required=True, help="gadget size")
    p.add_argument("--m", type=int, required=True, help="gadgets per kind")
    p.set_defaults(func=cmd_family)


def _add_ingest(add) -> None:
    p = add(help="triples file to edge list")
    _out_option(p)
    p.add_argument("triples")
    p.add_argument("--predicate", required=True, help="keep triples with this predicate")
    p.set_defaults(func=cmd_ingest)


#: Each subcommand's builder, in ``--help`` order; it adds the
#: subcommand's parser by ``add``, ``add_parser`` with the name bound.
_SUBCOMMANDS = {
    "centrality": _add_centrality,
    "optimum": _add_optimum,
    "hitting": _add_hitting,
    "sample": _add_sample,
    "family": _add_family,
    "ingest": _add_ingest,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``gcentral`` parser: with ``command`` a subcommand's name, it
    holds that subcommand alone and parses an argv that starts with it as
    the whole parser does; otherwise it holds all six."""
    parser = argparse.ArgumentParser(
        prog="gcentral",
        description="Group centrality, optimal central sets, and random-walk hitting times.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    one = command in _SUBCOMMANDS
    # The metavar keeps all six names in the usage line of a parser that
    # holds one.  The parser of all six lists them by itself, and must not
    # take it: its missing-subcommand and invalid-choice errors name the
    # argument by its dest, which a metavar would replace.
    metavar = "{" + ",".join(_SUBCOMMANDS) + "}" if one else None
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=metavar)
    for name in [command] if one else _SUBCOMMANDS:
        _SUBCOMMANDS[name](functools.partial(sub.add_parser, name, allow_abbrev=False))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Building all six subcommands' parsers took a third of a `centrality`
    # call on a 25-vertex graph, so only the one named is built.
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    args.argv = ["gcentral"] + argv
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed standard output early (``| head``): point it at devnull
        # so the interpreter's last flush is quiet, and exit as Python's signal docs advise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except GCentralError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
