"""Traced run: spans around the library calls the CLI makes, taken inside the real call.

During a traced op, the public names ``gcentral.cli`` imports from the
package modules (``graph``, ``measures``, ``optimize``, ``randomwalk``,
``sampling``) are swapped for wrappers that open a span named after the
module, and the CLI's ``json`` for one whose ``dumps`` opens a ``cli.emit``
span; run.py puts a ``cli.main`` span around the whole call.  The self time
of ``cli.main`` is then the CLI's own work (argument parsing, manifest,
input digest).  A span records its name, start, end, parent and op id;
spans stay in memory and are written out at the end.

Probe spans time one extra call that splits a traced call further
(precompute, pool dispatch, subset generation, contraction steps); they
are kept out of the self times and shares.
"""

from __future__ import annotations

import functools
import json
import os
import random
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from gcentral.graph import Graph, load_edge_list
from gcentral.measures import Measure
from gcentral.optimize import colex_subsets, optimumset
from gcentral.randomwalk import (
    ROUTE_ABSORBING,
    contract,
    fundamental_matrix,
    transition_matrix,
)

from workloads import MEASURES, Op, Workload

LAYERS = ("graph", "measures", "optimize", "randomwalk", "sampling", "cli")


def _optimize_span(g, k_max, *args, measures=tuple(Measure), **kwargs) -> str:
    measures = tuple(measures)
    return f"optimize.{measures[0].value}" if len(measures) == 1 else "optimize.report"


#: Names in gcentral.cli that are wrapped, and the span name of each call
#: (a string, or a function of the call's arguments).
CALLS = {
    "parse_label_file": "graph.parse_label_file",
    "load_edge_list": "graph.load_edge_list",
    "is_connected": "graph.is_connected",
    "format_edge_list": "graph.format_edge_list",
    "cross_measure_report": _optimize_span,
    "evaluate": lambda g, members, measure, *a, **kw: f"measures.{measure.value}",
    "hitting_time_set": lambda g, members, route=ROUTE_ABSORBING, *a, **kw:
        "randomwalk.absorbing" if route == ROUTE_ABSORBING else "randomwalk.contraction",
    "monte_carlo_hitting": "randomwalk.monte_carlo",
    "random_walk_sample": "sampling.random_walk_sample",
}


class Tracer:
    """In-memory span recorder.

    ``op`` is the id of the op being traced; ``results`` holds the return
    value of each wrapped call of that op by span name.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = None
        self.results: dict[str, object] = {}

    @contextmanager
    def span(self, name: str, probe: bool = False):
        rec = {"id": len(self.spans), "name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "op": self.op,
               "probe": probe}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class _TracedJson:
    """Stands in for the ``json`` module in gcentral.cli; ``dumps`` is a cli.emit span."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(json, name)

    def dumps(self, *args, **kwargs):
        with self._tracer.span("cli.emit"):
            return json.dumps(*args, **kwargs)


def _traced(tracer: Tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = name(*args, **kwargs) if callable(name) else name
        with tracer.span(span):
            result = fn(*args, **kwargs)
        tracer.results[span] = result
        return result

    return wrapper


@contextmanager
def instrument(tracer: Tracer, cli):
    """Wrap the names of CALLS in the ``gcentral.cli`` module while the block runs."""
    saved = {}
    for attr, name in CALLS.items():
        if not hasattr(cli, attr):
            print(f"# tracing: gcentral.cli has no {attr}; its layer metrics stay 0",
                  file=sys.stderr)
            continue
        saved[attr] = getattr(cli, attr)
        setattr(cli, attr, _traced(tracer, saved[attr], name))
    saved["json"] = cli.json
    cli.json = _TracedJson(tracer)
    try:
        yield
    finally:
        for attr, fn in saved.items():
            setattr(cli, attr, fn)


def dur(s: dict) -> float:
    return s["end"] - s["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span duration minus the part its children cover, summed by span name."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += dur(s)
    out = defaultdict(float)
    for s in spans:
        out[s["name"]] += dur(s) - child[s["id"]]
    return out


def op_record(tracer: Tracer, op: Op) -> dict:
    """Exact counts and route results of the traced op just run; then its probes.

    The probes split the op's walk call into steps, on the graph the op
    loaded: the transition matrix for the absorbing route, contraction and
    fundamental matrix for the contraction route.
    """
    res, out = tracer.results, {}
    if op.kind == "optimum":
        report = res.get(f"optimize.{op.measure}")
        if report is not None:
            cells = [report.cells[(k, Measure.parse(op.measure))] for k in range(1, op.k + 1)]
            out["cells"] = [(c.k, c.evaluated, len(c.optimal_sets)) for c in cells]
    elif op.kind == "hitting-montecarlo" and "randomwalk.monte_carlo" in res:
        sol = res["randomwalk.monte_carlo"]
        done = [sol.walks_per_source - t for t in sol.truncated]
        out["mc_steps"] = sum(round(h * d) for h, d in zip(sol.h, done)) + \
            sum(sol.truncated) * sol.max_steps
        out["solution"] = sol
    elif op.kind.startswith("hitting-"):
        out["solution"] = res.get("randomwalk." + op.kind.split("-")[1])
    elif op.kind == "sample" and "sampling.random_walk_sample" in res:
        out["visited"] = res["sampling.random_walk_sample"].visited
    g = res.get("graph.load_edge_list")
    if g is not None and op.kind == "hitting-absorbing":
        with tracer.span("randomwalk.transition_matrix", probe=True):
            transition_matrix(g)
    elif g is not None and op.kind == "hitting-contraction":
        with tracer.span("randomwalk.contract", probe=True):
            cg = contract(g, op.members)
        with tracer.span("randomwalk.fundamental_matrix", probe=True):
            fundamental_matrix(cg.base)
    tracer.results = {}
    return out


def probes(tr: Tracer, wl: Workload, rng: random.Random) -> dict:
    """Per-pass probes of the optimize layer on the workload's first search graph."""
    first = next(op for op in wl.ops if op.kind == "optimum")
    gf = wl.graphs[first.graph]
    g = load_edge_list(gf.path.read_text(encoding="utf-8"))
    out = {}
    big = max((op for op in wl.ops if op.kind == "optimum"), key=wl.subsets)
    n, k = wl.graphs[big.graph].n, big.k
    with tr.span("optimize.colex_subsets", probe=True) as s:
        count = sum(1 for _ in colex_subsets(n, k))
    out["colex_subsets_per_s"] = count / dur(s)

    # Pool dispatch: the same one-vertex cell on a warm pool of the CLI's
    # default size (one worker per core) and start method, and serially.
    workers = os.cpu_count() or 1
    if workers > 1:
        with ProcessPoolExecutor(workers) as pool:
            optimumset(g, 1, Measure.DEGREE, workers=workers, pool=pool)
            with tr.span("optimize.pooled_cell", probe=True) as pooled:
                optimumset(g, 1, Measure.DEGREE, workers=workers, pool=pool)
        with tr.span("optimize.serial_cell", probe=True) as serial:
            optimumset(g, 1, Measure.DEGREE, workers=1)
        out["pool_dispatch_s"] = dur(pooled) - dur(serial)
    else:
        out["pool_dispatch_s"] = 0.0

    # Precompute: first call on a graph the kernel cache has not seen, minus
    # a repeat of the same calls.
    perm = list(range(g.n))
    rng.shuffle(perm)
    fresh = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    spans = []
    for name in ("optimize.first_call", "optimize.second_call"):
        with tr.span(name, probe=True) as s:
            optimumset(fresh, 1, Measure.CLOSENESS)
            optimumset(fresh, 1, Measure.RANDOMWALK)
        spans.append(s)
    out["precompute_s"] = dur(spans[0]) - dur(spans[1])
    return out


def pass_metrics(wl: Workload, spans: list[dict], records: dict, probe: dict,
                 output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    traced = [s for s in spans if not s["probe"]]
    total = defaultdict(float)
    for s in spans:
        total[s["name"]] += dur(s)
    m: dict[str, float] = {}
    m["graph.load_edge_list_s"] = total["graph.load_edge_list"]
    m["graph.is_connected_s"] = total["graph.is_connected"]
    m["graph.edges"] = sum(len(gf.edges) for gf in wl.graphs.values())

    evaluated = defaultdict(int)
    ties = 0
    for i, rec in records.items():
        for _, ev, nt in rec.get("cells", ()):
            evaluated[wl.ops[i].measure] += ev
            ties += nt
    for meas in MEASURES:
        t = total[f"optimize.{meas}"]
        m[f"optimize.{meas}.subsets_per_s"] = evaluated[meas] / t if t else 0.0
    m["optimize.colex_subsets_per_s"] = probe["colex_subsets_per_s"]
    m["optimize.pool_dispatch_s"] = probe["pool_dispatch_s"]
    m["optimize.precompute_s"] = probe["precompute_s"]
    m["optimize.evaluated"] = sum(evaluated.values())
    m["optimize.ties"] = ties

    for meas in MEASURES:
        m[f"measures.{meas}_s"] = total[f"measures.{meas}"]
    for name in ("transition_matrix", "absorbing", "contract", "fundamental_matrix"):
        m[f"randomwalk.{name}_s"] = total[f"randomwalk.{name}"]
    steps = sum(rec.get("mc_steps", 0) for rec in records.values())
    m["randomwalk.mc_walk_steps"] = steps
    t = total["randomwalk.monte_carlo"]
    m["randomwalk.mc_steps_per_s"] = steps / t if t else 0.0
    gap, z = _route_agreement(wl, records)
    m["randomwalk.route_gap"] = gap
    m["randomwalk.mc_max_z"] = z

    m["sampling.random_walk_sample_s"] = total["sampling.random_walk_sample"]
    m["sampling.visited"] = sum(rec.get("visited", 0) for rec in records.values())

    selft = self_times(traced)
    m["cli.overhead_s"] = selft["cli.main"]
    m["cli.emit_s"] = total["cli.emit"]
    m["cli.output_bytes"] = output_bytes
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in selft.items() if k.split(".")[0] == layer)
    return m


def _route_agreement(wl: Workload, records: dict) -> tuple[float, float]:
    """Largest absorbing/contraction gap (steps) and Monte Carlo z-score."""
    by_set: dict = defaultdict(dict)
    for i, rec in records.items():
        if rec.get("solution") is not None:
            op = wl.ops[i]
            by_set[(op.graph, op.members)][op.kind] = rec["solution"]
    gap = z = 0.0
    for sols in by_set.values():
        a = sols["hitting-absorbing"].h
        gap = max(gap, max(abs(x - y) for x, y in zip(a, sols["hitting-contraction"].h)))
        mc = sols["hitting-montecarlo"]
        z = max(z, max((abs(x - y) / se for x, y, se in zip(mc.h, a, mc.stderr) if se > 0),
                       default=0.0))
    return gap, z


def layer_shares(spans: list[dict]) -> dict[str, float]:
    """Self-time share of each traced span name, largest first."""
    selft = self_times([s for s in spans if not s["probe"]])
    total = sum(selft.values()) or 1.0
    return dict(sorted(((k, v / total) for k, v in selft.items()), key=lambda kv: -kv[1]))
