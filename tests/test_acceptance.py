"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see them
inline).  Every tolerance is pinned here; nothing is deferred to
calibration.

Criterion 5 encodes the separating-family story in its strongest form and
is expected to FAIL: the claim that the clique-landmark set is the unique
global random-walk optimum is false for this construction at these sizes
(swapping a clique-attach vertex for a clique-interior vertex, or the hub
for a star root, strictly lowers the score, independently of the gadget
count).  The criterion is kept faithful rather than weakened; the half of
the separation that does hold (strict random-walk preference between the
two landmark sets, exact closeness tie) is covered green in
test_sampling.py.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from gcentral.cli import json_text, optimum_json, report_json
from gcentral.graph import Graph
from gcentral.measures import (
    Measure,
    check_upper_bound,
    group_betweenness,
    group_closeness,
    group_degree,
    group_randomwalk,
)
from gcentral.optimize import (
    MEASURE_ORDER,
    cross_measure_report,
    optimumset,
    score_subset,
)
from gcentral.randomwalk import (
    ROUTE_ABSORBING,
    ROUTE_CONTRACTION,
    hitting_time_matrix,
    hitting_time_set,
    monte_carlo_hitting,
)
from gcentral.sampling import FamilyParams, generate_family

from conftest import random_connected_graph, random_proper_subset
import oracles

FAMILY_INSTANCES = ((3, 2), (3, 3), (4, 2))


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num} [{status}] {name}{suffix}")


def test_criterion_1_contraction_equals_absorbing():
    """200 random weighted graphs: the two analytic routes agree to 1e-7."""
    rng = np.random.Generator(np.random.PCG64(101))
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(5, 31))
        density = float(rng.uniform(0.05, 0.8))
        g = random_connected_graph(rng, n, extra_edge_prob=density, weighted=True)
        s = random_proper_subset(rng, n)
        a = hitting_time_set(g, s, route=ROUTE_ABSORBING)
        c = hitting_time_set(g, s, route=ROUTE_CONTRACTION)
        gap = max(abs(x - y) for x, y in zip(a.h, c.h))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-7 and elapsed < 30.0
    report(1, "contraction-Z vs absorbing-solve on 200 graphs", ok,
           f"worst gap {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-7
    assert elapsed < 30.0


def test_criterion_2_analytic_vs_monte_carlo():
    """20 random graphs, 1e5 walks per source: analytic within 4 stderr."""
    rng = np.random.Generator(np.random.PCG64(202))
    start = time.perf_counter()
    worst_z = 0.0
    for i in range(20):
        n = int(rng.integers(5, 16))
        g = random_connected_graph(
            rng, n, extra_edge_prob=float(rng.uniform(0.1, 0.6)), weighted=bool(i % 2)
        )
        s = random_proper_subset(rng, n)
        analytic = hitting_time_set(g, s)
        mc = monte_carlo_hitting(g, s, walks_per_source=100_000, seed=5000 + i)
        for v in range(n):
            if v in s:
                continue
            gap = abs(mc.h[v] - analytic.h[v])
            assert gap <= 4.0 * mc.stderr[v] + 1e-9, (i, v, gap, mc.stderr[v])
            if mc.stderr[v] > 0:
                worst_z = max(worst_z, gap / mc.stderr[v])
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    report(2, "Z-matrix hitting times vs Monte Carlo on 20 graphs", ok,
           f"worst z {worst_z:.2f}, {elapsed:.1f}s")
    assert elapsed < 60.0


def _proper_subsets_up_to(n: int, size_cap: int):
    for size in range(1, min(size_cap, n - 1) + 1):
        yield from itertools.combinations(range(n), size)


def test_criterion_3_score_one_characterizations(corpus_n8):
    """Score-1 sets are exactly the dominating sets / vertex covers."""
    checked = 0
    for g in corpus_n8:
        for s in _proper_subsets_up_to(g.n, 3):
            dom = oracles.is_dominating(g, s)
            cover = oracles.is_vertex_cover(g, s)
            assert (group_degree(g, s).exact == 1) == dom, (g, s)
            assert (group_closeness(g, s).exact == 1) == dom, (g, s)
            if g.n - len(s) >= 2:
                bc = group_betweenness(g, s).value
            else:
                # Single outside vertex: the enumerator's vacuous convention.
                bc = score_subset(g, s, Measure.BETWEENNESS)
            assert (bc == 1.0) == cover, (g, s)
            rw = group_randomwalk(g, s).value
            assert (abs(rw - 1.0) < 1e-12) == cover, (g, s)
            checked += 1
    report(3, "dominating/vertex-cover characterizations", True,
           f"{checked} subset checks over {len(corpus_n8)} graphs, zero exceptions")


def test_criterion_4_upper_bounds():
    """Group-score bound on 1,000 instances; pair bound on 50 graphs."""
    rng = np.random.Generator(np.random.PCG64(404))
    for _ in range(1000):
        n = int(rng.integers(3, 26))
        g = random_connected_graph(rng, n, extra_edge_prob=float(rng.uniform(0.05, 0.7)))
        s = random_proper_subset(rng, n)
        bc = check_upper_bound(g, s)
        assert bc.holds, (g, s, bc)
        assert bc.lhs <= bc.mid + 1e-9
    worst_excess = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 21))
        g = random_connected_graph(rng, n, extra_edge_prob=float(rng.uniform(0.05, 0.7)))
        h = hitting_time_matrix(g)
        for u in range(n):
            dist = oracles.bfs_distances(g, u)
            for v in range(n):
                if u == v:
                    continue
                excess = h[u, v] - 2 * g.m * dist[v]
                worst_excess = max(worst_excess, excess)
                assert excess <= 1e-9, (g, u, v)
    report(4, "group bound x1000 and pair bound H <= 2m d x50", True,
           f"worst pair-bound excess {worst_excess:.2e}")


def test_criterion_5_family_separation_as_stated():
    """Stated form: unique random-walk optimum S_K, closeness tie with S_T.

    The closeness half holds; the uniqueness half is mathematically false
    for this construction (see module docstring), so this criterion is an
    expected hard failure, kept faithful rather than weakened.
    """
    start = time.perf_counter()
    failures = []
    for n, m in FAMILY_INSTANCES:
        fam = generate_family(FamilyParams(n, m))
        k = m + 1
        rw = optimumset(fam.graph, k, Measure.RANDOMWALK)
        cl = optimumset(fam.graph, k, Measure.CLOSENESS)
        rw_sets = [s.members for s in rw.optimal_sets]
        cl_sets = [s.members for s in cl.optimal_sets]
        sk, st = fam.clique_set.members, fam.star_set.members
        closeness_tie = (
            sk in cl_sets
            and st in cl_sets
            and group_closeness(fam.graph, sk).exact == group_closeness(fam.graph, st).exact
        )
        if rw_sets != [sk]:
            failures.append(
                f"(n={n}, m={m}): random-walk optima at k={k} are "
                f"{rw_sets[:2]}{'...' if len(rw_sets) > 2 else ''} with value "
                f"{rw.best.value:.6g}, not uniquely S_K={sk} "
                f"(score {group_randomwalk(fam.graph, sk).value:.6g})"
            )
        if not closeness_tie:
            failures.append(f"(n={n}, m={m}): closeness tie S_K/S_T missing")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    report(5, "family separation, stated form (unique rw optimum = S_K)", ok,
           f"{elapsed:.1f}s" if ok else failures[0])
    assert elapsed < 60.0
    if failures:
        pytest.fail(
            "stated criterion is unattainable for this construction: "
            + "; ".join(failures)
            + ".  A set swapping a clique-attach vertex for a clique-interior "
            "vertex (or the hub for a star root) strictly lowers the group "
            "random-walk score independently of m, so S_K is never the unique "
            "global optimum; the strict S_K-vs-S_T separation and the exact "
            "closeness tie do hold and are tested green in test_sampling.py."
        )


def _canonical_report_json(g: Graph, k_max: int, workers: int, pool) -> str:
    rep = cross_measure_report(g, k_max, workers=workers, pool=pool)
    return json_text(report_json(rep))


def test_criterion_6_concept_network_fixtures(novice, expert):
    """Expert k=1 optima all contain mammal; novice degree tie reported."""
    start = time.perf_counter()
    expert_report = cross_measure_report(expert, 4)
    expert_elapsed = time.perf_counter() - start
    mammal = expert.vertex_by_label("mammal")
    for m in MEASURE_ORDER:
        cell = expert_report.cells[(1, m)]
        assert any(mammal in s.members for s in cell.optimal_sets), m

    start = time.perf_counter()
    novice_report = cross_measure_report(novice, 4)
    novice_elapsed = time.perf_counter() - start
    animal = novice.vertex_by_label("animal")
    livingthing = novice.vertex_by_label("livingthing")
    degree_sets = [s.members for s in novice_report.cells[(1, Measure.DEGREE)].optimal_sets]
    assert degree_sets == [(animal,), (livingthing,)]

    rerun = cross_measure_report(novice, 4)
    deterministic = json_text(report_json(novice_report)) == json_text(report_json(rerun))
    assert deterministic
    ok = expert_elapsed < 5.0 and novice_elapsed < 5.0
    report(6, "concept-network fixtures k=1..4", ok,
           f"expert {expert_elapsed:.1f}s, novice {novice_elapsed:.1f}s, "
           f"degree tie {{animal, livingthing}} reported")
    assert expert_elapsed < 5.0
    assert novice_elapsed < 5.0


def test_criterion_7_naive_enumerator_equivalence(corpus_n7):
    """Parallel optimizer's tie lists equal a from-scratch brute force."""
    compared = 0
    for g in corpus_n7:
        for k in range(1, min(3, g.n - 1) + 1):
            for m in MEASURE_ORDER:
                mine = [s.members for s in optimumset(g, k, m).optimal_sets]
                _, naive = oracles.naive_optimumset(g, k, m)
                assert mine == naive, (g, k, m)
                compared += 1
    report(7, "optimizer vs independent brute force", True,
           f"{compared} (graph, k, measure) runs over {len(corpus_n7)} graphs")


def _digest_criterion5(workers: int, pool) -> str:
    h = hashlib.sha256()
    for n, m in FAMILY_INSTANCES:
        fam = generate_family(FamilyParams(n, m))
        for measure in (Measure.RANDOMWALK, Measure.CLOSENESS):
            r = optimumset(fam.graph, m + 1, measure, workers=workers, pool=pool)
            h.update(json_text(optimum_json(r)).encode())
    return h.hexdigest()


def _digest_criterion6(novice: Graph, expert: Graph, workers: int, pool) -> str:
    h = hashlib.sha256()
    for g in (novice, expert):
        h.update(_canonical_report_json(g, 4, workers, pool).encode())
    return h.hexdigest()


def _digest_criterion7(corpus, workers: int, pool) -> str:
    h = hashlib.sha256()
    for g in corpus:
        for k in range(1, min(3, g.n - 1) + 1):
            for m in MEASURE_ORDER:
                r = optimumset(g, k, m, workers=workers, pool=pool)
                h.update(json_text(optimum_json(r)).encode())
    return h.hexdigest()


def test_criterion_8_determinism_across_workers(novice, expert, corpus_n7):
    """Criteria 5-7 computations digest identically for 1, 2, and 8 workers."""
    digests: dict[int, tuple[str, str, str]] = {}
    start = time.perf_counter()
    for workers in (1, 2, 8):
        if workers == 1:
            digests[workers] = (
                _digest_criterion5(1, None),
                _digest_criterion6(novice, expert, 1, None),
                _digest_criterion7(corpus_n7, 1, None),
            )
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                digests[workers] = (
                    _digest_criterion5(workers, pool),
                    _digest_criterion6(novice, expert, workers, pool),
                    _digest_criterion7(corpus_n7, workers, pool),
                )
    elapsed = time.perf_counter() - start
    ok = digests[1] == digests[2] == digests[8]
    report(8, "byte-identical outputs with 1/2/8 workers", ok, f"{elapsed:.1f}s")
    assert digests[1] == digests[2], "workers=2 diverged from sequential"
    assert digests[1] == digests[8], "workers=8 diverged from sequential"
