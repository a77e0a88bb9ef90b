"""Exact enumeration: optima, ties, score-1 sets, workers, budget."""

from __future__ import annotations

import itertools
import math
import pickle
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from gcentral import errors
from gcentral.cli import json_text, optimum_json, report_json
from gcentral.errors import (
    BudgetExceededError,
    InputError,
    NumericalError,
    SamplingBudgetError,
    TruncationError,
)
from gcentral.graph import Graph
from gcentral.measures import Measure
from gcentral.optimize import (
    MEASURE_ORDER,
    colex_subsets,
    cross_measure_report,
    optimumset,
    score_subset,
)

from conftest import (
    cycle_graph,
    layered_bipartite,
    path_graph,
    random_connected_graph,
    star_graph,
    torus_graph,
)
import oracles


class TestColexOrder:
    def test_small_instance(self):
        got = list(colex_subsets(4, 2))
        assert got == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]

    def test_global_order_property(self):
        subsets = list(colex_subsets(7, 3))
        keys = [tuple(reversed(s)) for s in subsets]
        assert keys == sorted(keys)
        assert len(subsets) == 35 and len(set(subsets)) == 35

    def test_blocks_match_reference_on_every_leading_range(self):
        from gcentral.optimize import _blocks

        for n in range(1, 12):
            for k in range(1, n + 1):
                reference = oracles.colex_subsets(n, k)
                assert list(colex_subsets(n, k)) == reference
                for lo, hi in itertools.combinations_with_replacement(range(n), 2):
                    want = [s for s in reference if lo <= s[-1] <= hi]
                    for rows in (1, 3, 7, 512):
                        blocks = list(_blocks(k, range(lo, hi + 1), rows))
                        assert [tuple(r) for b in blocks for r in b.tolist()] == want, (n, k, lo, hi, rows)
                        assert all(len(b) == rows for b in blocks[:-1])
                        assert all(b.dtype == np.intp and b.shape[1] == k for b in blocks)

    def test_ranks_past_int64_unrank_lazily(self):
        # C(200, 100) is about 9e58: the binomial table is capped at the
        # int64 range, and the first ranks still come out.
        first = list(itertools.islice(colex_subsets(200, 100), 3))
        assert first == [tuple(range(100)), (*range(99), 100), (*range(98), 99, 100)]


class TestOptimumset:
    def test_path_closeness_center(self):
        r = optimumset(path_graph(3), 1, Measure.CLOSENESS)
        assert r.best.exact == 1
        assert [s.members for s in r.optimal_sets] == [(1,)]
        assert r.evaluated == 3

    def test_novice_degree_tie(self, novice):
        r = optimumset(novice, 1, Measure.DEGREE)
        names = [novice.label(s.members[0]) for s in r.optimal_sets]
        assert names == ["animal", "livingthing"]
        assert r.best.exact == Fraction(5, 24)

    def test_expert_k1_all_measures_contain_mammal(self, expert):
        mammal = expert.vertex_by_label("mammal")
        for m in MEASURE_ORDER:
            r = optimumset(expert, 1, m)
            assert any(mammal in s.members for s in r.optimal_sets), m

    def test_sets_sorted_lexicographically(self):
        g = cycle_graph(5)
        r = optimumset(g, 2, Measure.DEGREE)
        members = [s.members for s in r.optimal_sets]
        assert members == sorted(members)
        assert len(set(members)) == len(members)

    def test_k_out_of_range(self):
        with pytest.raises(InputError):
            optimumset(path_graph(3), 0, Measure.DEGREE)
        with pytest.raises(InputError):
            optimumset(path_graph(3), 3, Measure.DEGREE)

    def test_budget_refusal_mentions_count(self):
        g = cycle_graph(30)
        with pytest.raises(BudgetExceededError) as err:
            optimumset(g, 5, Measure.DEGREE, budget=1000)
        assert "= 142506 subsets" in str(err.value)

    @pytest.mark.parametrize("measure", MEASURE_ORDER)
    def test_k_next_to_n_past_int64_middle_binomials(self, measure):
        # Enumerating C(70, 69) reads binomials up to C(70, 35) ~ 1.1e20,
        # past int64; the table caps them at the range's end.
        g = cycle_graph(70)
        r = optimumset(g, 69, measure)
        assert r.evaluated == 70
        _, naive_sets = oracles.naive_optimumset(g, 69, measure)
        assert [s.members for s in r.optimal_sets] == naive_sets

    def test_k_next_to_n_screens_only_parents_with_extensions(self, monkeypatch):
        # At k = 69 a parent is 67 vertices, and only those with smallest
        # element at least 2 have a pair below them: C(68, 67) = 68 of the
        # C(70, 67) = 54,740 parents.  Only those are unranked and screened.
        from gcentral import optimize

        blocks, make, unranked, screened = optimize._blocks, optimize._scorers, [], []

        def count_blocks(k, leading, rows):
            for block in blocks(k, leading, rows):
                unranked.append((k, len(block)))
                yield block

        def spy(g, k, measure):
            scorers = make(g, k, measure)

            def screen(parents, owner, ext):
                screened.extend(map(tuple, parents.tolist()))
                return scorers.screen(parents, owner, ext)

            return scorers._replace(screen=screen)

        monkeypatch.setattr(optimize, "_blocks", count_blocks)
        monkeypatch.setattr(optimize, "_scorers", spy)
        g = cycle_graph(70)
        r = optimumset(g, 69, Measure.RANDOMWALK)
        assert r.evaluated == 70
        assert sum(rows for k, rows in unranked if k == 67) == 68
        assert len(screened) == len(set(screened)) == 68
        assert all(min(p) >= 2 for p in screened)
        _, naive_sets = oracles.naive_optimumset(g, 69, Measure.RANDOMWALK)
        assert [s.members for s in r.optimal_sets] == naive_sets

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(InputError, match="connected"):
            optimumset(g, 1, Measure.DEGREE)

    def test_random_walk_refuses_only_untrusted_reported_sets(self):
        # Vertex 2 hangs off 0 by weight w, so a walk outside the set takes
        # about 1 / w steps to cross that edge.  At w = 1e-12 every k = 1
        # set leaves about 2e12 steps, past the trusted 1.1e8, as do {0, 1}
        # and {2, 3}; the four other pairs, the k = 2 optima, absorb every
        # walk in about one step and are reported.
        def graph(w):
            return Graph(4, [(0, 1), (0, 2), (2, 3)], [1.0, w, 1.0])

        with pytest.raises(NumericalError, match=r"hitting time 2\.000e\+12 is past the 1\.126e\+08 steps trusted"):
            optimumset(graph(1e-12), 1, Measure.RANDOMWALK)
        r = optimumset(graph(1e-12), 2, Measure.RANDOMWALK)
        assert r.ties.tolist() == [[0, 2], [0, 3], [1, 2], [1, 3]] and r.best.value == 1.0
        # At w = 2e-8 the k = 1 optima {0} and {2} average 6.7e7 steps over
        # their three outside vertices, so their sums pass the trusted steps
        # and they are solved again; their largest hitting time, 1.0e8, does
        # not.  At w = 1e-8 it is 2.0e8.
        assert optimumset(graph(2e-8), 1, Measure.RANDOMWALK).ties.tolist() == [[0], [2]]
        with pytest.raises(NumericalError, match=r"hitting time 2\.000e\+08 is past"):
            optimumset(graph(1e-8), 1, Measure.RANDOMWALK)

    @pytest.mark.parametrize("workers", [0, -4])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(InputError, match="workers must be at least 1"):
            optimumset(Graph(3, [(0, 1), (1, 2)]), 1, Measure.DEGREE, workers=workers)

    def test_every_nonoptimal_strictly_worse(self):
        rng = np.random.Generator(np.random.PCG64(97))
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(4, 8)))
            k = int(rng.integers(1, 3))
            for m in MEASURE_ORDER:
                r = optimumset(g, k, m)
                optimal = {s.members for s in r.optimal_sets}
                for s in itertools.combinations(range(g.n), k):
                    value = score_subset(g, s, m)
                    if s in optimal:
                        continue
                    if m.exact:
                        worse = value < r.best.exact if m.maximize else value > r.best.exact
                    else:
                        gap = abs(value - r.best.value)
                        worse = gap > 1e-9 * max(1.0, abs(r.best.value)) and (
                            value < r.best.value if m.maximize else value > r.best.value
                        )
                    assert worse, (m, s, value, r.best)


class TestFixtureRandomWalkColumns:
    """The random-walk optimum is unique at every size on both concept
    networks, and the resulting label sequences are frozen here."""

    def test_novice_random_walk_sequence(self, novice):
        expected = [
            {"livingthing"},
            {"livingthing", "red"},
            {"animal", "bird", "plant"},
            {"animal", "livingthing", "plant", "red"},
        ]
        for k, names in enumerate(expected, start=1):
            r = optimumset(novice, k, Measure.RANDOMWALK)
            assert len(r.optimal_sets) == 1
            assert {novice.label(v) for v in r.optimal_sets[0]} == names

    def test_expert_random_walk_sequence(self, expert):
        expected = [
            {"mammal"},
            {"mammal", "plant"},
            {"bird", "mammal", "plant"},
            {"bird", "mammal", "plant", "tree"},
        ]
        for k, names in enumerate(expected, start=1):
            r = optimumset(expert, k, Measure.RANDOMWALK)
            assert len(r.optimal_sets) == 1
            assert {expert.label(v) for v in r.optimal_sets[0]} == names


class TestOverflowFallback:
    def test_wide_layered_graph_uses_big_integers(self):
        # 20 complete-bipartite layers of width 8: path counts between the
        # ends reach 8**18 = 2**54, past the float64-exact range, so the
        # search's base counts, and its betweenness scores, run on Python ints.
        width, layers = 8, 20
        g = layered_bipartite(width, layers)
        from gcentral.graph import geodesic_counts

        # 19 hops end to end with 18 freely chosen intermediate layers.
        counts = oracles.shortest_path_counts(g, 0)
        assert max(counts.sigma) == width ** (layers - 2)
        assert counts.dist[g.n - 1] == layers - 1
        base = np.concatenate([b.sigma for b in geodesic_counts(g, range(g.n))])
        assert base.dtype == object and base.max() == width ** (layers - 2)
        s = (8, 9)
        via_kernel = score_subset(g, s, Measure.BETWEENNESS)
        from gcentral.measures import group_betweenness

        assert via_kernel == group_betweenness(g, s).value
        # Closeness still runs off the distance matrix alone.
        from gcentral.measures import group_closeness

        assert score_subset(g, s, Measure.CLOSENESS) == group_closeness(g, s).exact

    def test_big_integer_route_skips_the_float_pass(self, monkeypatch):
        # 36 complete-bipartite layers of width 3: 3**34 > 2**53 paths end to
        # end, so the base counts run on Python ints, and every subset scores
        # from them without a count pass of its own.
        g = layered_bipartite(3, 36)
        from gcentral import graph
        from gcentral.measures import group_betweenness
        from gcentral.optimize import _scorers

        base = np.concatenate([b.sigma for b in graph.geodesic_counts(g, range(g.n))])
        assert base.dtype == object and base.max() == 3**34
        # The screen reads float64 counts only.
        assert _scorers(g, 2, Measure.BETWEENNESS).screen is None
        count_pass, passes = graph._count_pass, []

        def spy(g, sources, avoided, dtype):
            passes.append((len(sources), dtype))
            return count_pass(g, sources, avoided, dtype)

        monkeypatch.setattr(graph, "_count_pass", spy)
        got = optimumset(g, 1, Measure.BETWEENNESS)
        # The base pass from every source, given up in float64 and rerun.
        assert passes == [(g.n, float), (g.n, object)]
        # Each set's own counts starting on float64, as centrality runs them.
        values = [group_betweenness(g, [v]).value for v in range(g.n)]
        assert got.best.value == max(values)
        want = [(v,) for v, value in enumerate(values) if math.isclose(value, max(values), rel_tol=1e-9)]
        assert [s.members for s in got.optimal_sets] == want

    def test_big_integer_pairs_score_as_centrality(self):
        # At k = 2 the second member comes off Python-int counts already less
        # the first's geodesics; both products are taken on masked pairs only.
        from gcentral.measures import group_betweenness
        from gcentral.optimize import _scorers

        g = layered_bipartite(3, 36)
        picks = np.array([[0, 1], [50, 53], [51, 107], [105, 106]])
        got = _scorers(g, 2, Measure.BETWEENNESS).block(picks)
        assert got.tolist() == [group_betweenness(g, s).value for s in picks.tolist()]

    def test_base_counts_switching_dtype_between_blocks_stay_exact(self, monkeypatch):
        # A 3 x 36 ladder numbered from its middle layers out, counted eight
        # sources a block: the first blocks' counts stay below 2**53, so they
        # run in float64, and the later ones on Python ints.  Every count
        # reaches the scorers as a Python int.
        from gcentral import graph
        from gcentral.measures import group_betweenness
        from gcentral.optimize import _base_counts, _scorers

        ladder = layered_bipartite(3, 36)
        order = np.argsort(np.abs(np.arange(ladder.n) // 3 - 17.5), kind="stable")
        label = np.argsort(order)
        g = Graph(ladder.n, [(int(label[u]), int(label[v])) for u, v in ladder.edges])
        monkeypatch.setattr(graph, "_SOURCE_BLOCK", 8)
        dtypes = [b.sigma.dtype for b in graph.geodesic_counts(g, range(g.n))]
        assert dtypes[0] == float and dtypes[-1] == object
        sigma = _base_counts(g)[1]
        assert all(type(count) is int for count in sigma.flat) and sigma.max() == 3**34
        picks = [0, 1, g.n - 1]
        searched = _scorers(g, 1, Measure.BETWEENNESS).block(np.array(picks)[:, None])
        assert searched.tolist() == [group_betweenness(g, [v]).value for v in picks]

    def test_block_company_leaves_values_unchanged(self):
        # The hub keeps the base path counts small, but its own complement is
        # the bare ladder, whose counts pass 2**53: the hub's subset must not
        # move the scores of the other subsets in its block.
        g = layered_bipartite(8, 20, hub=True)
        from gcentral.optimize import _scorers

        block = _scorers(g, 1, Measure.BETWEENNESS).block
        picks = np.array([[0], [8], [83], [159]])
        alone = block(picks)
        together = block(np.vstack((picks, [[g.n - 1]])))
        assert alone.tobytes() == together[:-1].tobytes()


class TestMemoryGuard:
    @pytest.mark.parametrize(
        "cls, attrs",
        [
            (BudgetExceededError, {"subsets": 84}),
            (BudgetExceededError, {}),
            (TruncationError, {"truncated": 3, "total": 20}),
            (SamplingBudgetError, {"distinct_visited": 4}),
            (InputError, {}),
            (NumericalError, {}),
        ],
    )
    def test_errors_survive_pickling(self, cls, attrs):
        # What a pool worker raises reaches the parent pickled, with any
        # attributes set on it after construction.
        err = cls("the run went past its limit")
        vars(err).update(attrs)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is type(err)
        assert str(back) == str(err) and back.args == err.args
        assert vars(back) == vars(err)
        assert back.exit_code == err.exit_code

    @pytest.mark.parametrize("measure", MEASURE_ORDER)
    def test_smallest_blocks_give_the_same_result(self, novice, monkeypatch, measure):
        from gcentral.optimize import _scorers

        want = json_text(optimum_json(optimumset(novice, 3, measure)))
        limit = 1024
        monkeypatch.setattr(errors, "MEMORY_LIMIT", limit)
        while True:
            try:
                rows = _scorers(novice, 3, measure).rows
                break
            except BudgetExceededError:
                limit *= 2
                monkeypatch.setattr(errors, "MEMORY_LIMIT", limit)
        assert rows < 512
        assert json_text(optimum_json(optimumset(novice, 3, measure, workers=2))) == want
        if measure in (Measure.BETWEENNESS, Measure.RANDOMWALK):
            # The smallest limit with a screen: one parent per batch.
            low, high = limit, 1 << 30
            while high - low > 1:
                mid = (low + high) // 2
                monkeypatch.setattr(errors, "MEMORY_LIMIT", mid)
                low, high = (low, mid) if _scorers(novice, 3, measure).parents else (mid, high)
            monkeypatch.setattr(errors, "MEMORY_LIMIT", high)
            assert _scorers(novice, 3, measure).parents == 1
            assert json_text(optimum_json(optimumset(novice, 3, measure))) == want
        # Half that limit cannot hold the per-graph arrays and one row.
        monkeypatch.setattr(errors, "MEMORY_LIMIT", limit // 2)
        with pytest.raises(BudgetExceededError) as exc:
            optimumset(novice, 3, measure)
        assert f"above the {errors.MEMORY_LIMIT / 2**20:.0f} MiB memory limit" in str(exc.value)


    @staticmethod
    def rows_at(monkeypatch, g, k, measure, limit, field="rows"):
        from gcentral.optimize import _scorers

        monkeypatch.setattr(errors, "MEMORY_LIMIT", limit)
        try:
            return getattr(_scorers(g, k, measure), field)
        except BudgetExceededError:
            return 0

    def smallest_limit(self, monkeypatch, g, k, measure, rows, field="rows"):
        """The smallest memory limit at which ``_scorers`` allows ``rows``
        block rows, or screen parents with ``field="parents"``."""
        low, high = 0, 1 << 30
        while high - low > 1:
            mid = (low + high) // 2
            fits = self.rows_at(monkeypatch, g, k, measure, mid, field) >= rows
            low, high = (low, mid) if fits else (mid, high)
        return high

    def block_peak(self, monkeypatch, g, k, measure, block):
        # The guard's bytes per row are the step between the smallest limits
        # that allow two and three rows; returns the block's tracemalloc
        # peak over its rows' share.
        from gcentral.optimize import _scorers

        row_bytes = self.smallest_limit(monkeypatch, g, k, measure, 3) - self.smallest_limit(monkeypatch, g, k, measure, 2)
        assert self.rows_at(monkeypatch, g, k, measure, 1 << 30) >= len(block)
        score = _scorers(g, k, measure).block
        tracemalloc.start()
        try:
            score(block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (len(block) * row_bytes)

    def test_random_walk_block_peak_within_its_rows(self, monkeypatch):
        # A full block must peak below its rows' share.
        rng = np.random.Generator(np.random.PCG64(89))
        for g in (torus_graph(6, 7), random_connected_graph(rng, 60, extra_edge_prob=0.05, weighted=True)):
            assert self.rows_at(monkeypatch, g, 2, Measure.RANDOMWALK, 1 << 30) == 512
            block = np.array(list(itertools.islice(colex_subsets(g.n, 2), 512)), dtype=np.intp)
            share = self.block_peak(monkeypatch, g, 2, Measure.RANDOMWALK, block)
            assert share < 1, (g.n, share)

    def test_big_integer_betweenness_block_peak_within_its_rows(self, monkeypatch):
        # Python-int counts on the 3 x 36 ladder at k = 2, pairs from its
        # middle layers: about half of all vertex pairs have a geodesic
        # through the first member, so the masked products are dense.  The
        # base counts are computed once for the limit search.
        from gcentral import optimize

        g = layered_bipartite(3, 36)
        base = optimize._base_counts(g)
        assert base[1].dtype == object
        monkeypatch.setattr(optimize, "_base_counts", lambda _: base)
        dist = base[0]
        block = np.array(list(itertools.combinations(range(48, 60), 2))[:8], dtype=np.intp)
        v = block[:, 0]
        assert np.mean(dist[None] == dist[v][:, :, None] + dist[v][:, None, :]) > 0.45
        share = self.block_peak(monkeypatch, g, 2, Measure.BETWEENNESS, block)
        assert share < 1, share

    def test_betweenness_screen_batch_peak_within_its_parents(self, monkeypatch):
        # A full batch of 2-parents on the 6 x 7 torus at k = 4, whose 11
        # bases are updated by their one member, gathered per parent and
        # updated again by the parent's smallest vertex: the screen call
        # must peak below the parents' share (0.35 of it by tracemalloc,
        # 0.42 when each parent replayed both its members).  The guard's
        # bytes per parent are the step between the smallest limits that
        # allow two and three parents.
        from gcentral.optimize import _scorers

        g, k, m = torus_graph(6, 7), 4, Measure.BETWEENNESS
        parent_bytes = (self.smallest_limit(monkeypatch, g, k, m, 3, "parents")
                        - self.smallest_limit(monkeypatch, g, k, m, 2, "parents"))
        monkeypatch.setattr(errors, "MEMORY_LIMIT", 1 << 30)
        scorers = _scorers(g, k, m)
        assert scorers.parents == 64
        # The first batch: the 2-subsets of range(2, 42) ranked first, and
        # each vertex pair below a parent's smallest vertex, where a pair's
        # positions in the parent's complement are its vertices.
        parents = np.asarray(list(itertools.islice(colex_subsets(40, 2), 64)), dtype=np.intp) + 2
        below = [list(itertools.combinations(range(p), 2)) for p in parents[:, 0]]
        owner = np.repeat(np.arange(64), [len(pairs) for pairs in below])
        ext = np.concatenate(below).astype(np.intp)
        assert len(np.unique(parents[:, 1])) == 11
        scorers.screen(parents[:1], owner[:1], ext[:1])  # the search's PB, sized apart
        tracemalloc.start()
        try:
            scorers.screen(parents, owner, ext)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(parents) * parent_bytes, peak / (len(parents) * parent_bytes)

    def test_scan_holds_only_what_the_window_keeps(self, monkeypatch):
        # Betweenness on the 6 x 7 torus at k = 3 under this limit scores
        # blocks of two rows and keeps 168 of the rows: an empty cut held
        # per block once took the peak to four times the limit, and rows
        # sized from 64-row blocks to 1.17 times it.
        monkeypatch.setattr(errors, "MEMORY_LIMIT", 280_000)
        tracemalloc.start()
        try:
            result = optimumset(torus_graph(6, 7), 3, Measure.BETWEENNESS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.optimal_sets) == 168
        assert peak < 280_000

    @pytest.mark.parametrize("workers", [1, 2])
    def test_search_peak_within_tie_list_guard(self, monkeypatch, workers):
        # The 10 x 12 torus has 202,600 tied degree sets at k = 3.  The
        # search once held every partition's rows through the merge, and
        # the merged rows through the selection and the sorted copy: by
        # tracemalloc, 1.38 (one worker) and 1.88 (two) times what the
        # guard counted for the tie list's join.
        from gcentral import optimize

        counted = []

        def spy(needed, what):
            if what == "the search's tie list":
                counted.append(needed)
            return errors.check_memory(needed, what)

        monkeypatch.setattr(optimize, "check_memory", spy)
        g = torus_graph(10, 12)
        tracemalloc.start()
        try:
            result = optimumset(g, 3, Measure.DEGREE, workers=workers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.ties) == 202_600
        assert len(counted) == 1 and peak <= counted[0]

    def test_closeness_distances_fit_without_path_counts(self, monkeypatch):
        # The distances, as int16, hold 2 bytes per vertex pair, and the
        # distance pass sizes its source blocks to the room left beside them.
        # The pass with path counts that closeness once ran held 45, past
        # both limits, and an unblocked layered distance-only pass 16, past
        # the second.
        g = cycle_graph(300)
        for bytes_per_pair in (30, 13):
            monkeypatch.setattr(errors, "MEMORY_LIMIT", bytes_per_pair * 300 * 300)
            r = optimumset(g, 1, Measure.CLOSENESS)
            assert r.evaluated == 300 and len(r.optimal_sets) == 300
            assert r.best.exact == oracles.group_score_oracle(g, (0,), Measure.CLOSENESS)


class TestPrefixScreen:
    """The grouped screens of random walk and betweenness against the block scorer."""

    @staticmethod
    def screened_and_exact(g, k, measure, parents=None, step=1):
        """Screened and block-scored values of every ``step``-th extension
        of each parent, in order."""
        from gcentral.optimize import _complements_of, _scorers

        scorers = _scorers(g, k, measure)
        t = scorers.depth
        if parents is None:
            parents = np.asarray(list(colex_subsets(g.n, k - t)), dtype=np.intp)
        comp = _complements_of(g.n, parents)
        # Every parent plus every t-subset of its complement, given to the
        # screen by position in that complement.
        ext = np.asarray(list(colex_subsets(comp.shape[1], t)), dtype=np.intp)
        owner = np.repeat(np.arange(len(parents)), len(ext))
        owner, ext = owner[::step], np.tile(ext, (len(parents), 1))[::step]
        subsets = np.sort(np.column_stack((parents[owner], comp[owner[:, None], ext])), axis=1)
        exact = np.concatenate(
            [scorers.block(subsets[i : i + scorers.rows]) for i in range(0, len(subsets), scorers.rows)]
        )
        return scorers.screen(parents, owner, ext), exact

    @pytest.mark.parametrize("measure", [Measure.RANDOMWALK, Measure.BETWEENNESS])
    def test_screen_matches_block_scorer(self, measure):
        from gcentral.optimize import _scorers

        rng = np.random.Generator(np.random.PCG64(61))
        for trial in range(12):
            n = int(rng.integers(4, 11))
            g = random_connected_graph(rng, n, weighted=bool(trial % 2))
            for k in sorted({2, 3, n - 2, n - 1} - {1}):
                if measure is Measure.BETWEENNESS and k == n - 1:
                    continue  # one outside vertex: the constant score, no screen
                # Both measures extend by two vertices from k = 3 on.
                assert _scorers(g, k, measure).depth == min(2, k - 1)
                screened, exact = self.screened_and_exact(g, k, measure)
                assert screened == pytest.approx(exact, rel=1e-12, abs=1e-15), (trial, k)

    @staticmethod
    def stress_graph(case):
        if case == "path60":
            return path_graph(60)
        if case == "star30":
            return star_graph(30)
        g = random_connected_graph(np.random.Generator(np.random.PCG64(67)), 20)
        edges = [(u, v) for u in range(g.n) for v in g.neighbors(u) if u < v]
        weights = np.random.Generator(np.random.PCG64(71)).permutation(10.0 ** np.linspace(-3.0, 3.0, len(edges)))
        return Graph(g.n, edges, weights.tolist())

    @pytest.mark.parametrize(
        "case, k, parents",
        [
            ("path60", 2, None),
            # Every seventh single-vertex parent: 9 x 1,711 pairs.
            ("path60", 3, np.arange(0, 60, 7)[:, None]),
            ("star30", 2, None),
            ("star30", 3, None),
            ("weights1e6", 2, None),
            ("weights1e6", 3, None),
            ("weights1e6", 4, None),
            # From k = 4 each parent's inverse is downdated from its base's:
            # parents cutting the path at its ends, between neighbours and
            # apart, one holding vertex 0; every fifth pair of the star, six
            # with the hub; and every tenth 3-subset at k = 5.
            ("path60", 4, np.array([[0, 59], [3, 4], [12, 40], [29, 30], [31, 57], [50, 51], [57, 58]])),
            ("star30", 4, np.asarray(list(itertools.combinations(range(31), 2)))[::5]),
            ("weights1e6", 5, np.asarray(list(itertools.combinations(range(20), 3)))[::10]),
        ],
    )
    def test_random_walk_screen_stress(self, case, k, parents):
        # Long hitting times (a path), one hub (a star) and edge weights
        # spanning six orders of magnitude: the screen stays within 1e-12 of
        # the block scorer (measured: 2.1e-13 at most, with the weights at
        # k = 4; 6.3e-14 on the path).
        g = self.stress_graph(case)
        if case == "weights1e6":
            assert max(g._slot_w) / min(g._slot_w) == pytest.approx(1e6)
        screened, exact = self.screened_and_exact(g, k, Measure.RANDOMWALK, parents)
        assert screened == pytest.approx(exact, rel=1e-12, abs=1e-15)

    def test_random_walk_screen_inverts_once_per_base(self, monkeypatch):
        # From k = 4 the parents sharing all but their smallest vertex share
        # one inverse: on the 6 x 7 torus 780 parents have 39 bases, 51
        # counting those split between batches of 64 parents.
        inv, systems = np.linalg.inv, []

        def counted(a):
            systems.append(len(a))
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counted)
        result = optimumset(torus_graph(6, 7), 4, Measure.RANDOMWALK)
        assert result.ties.shape == (42, 4)
        assert sum(systems) <= 51

    def test_betweenness_screen_updates_once_per_base(self, novice, monkeypatch):
        # From k = 4 the parents sharing all but their smallest vertex start
        # from one updated base: on the novice fixture the 253 parents each
        # add one member to one of 22 bases, 25 counting those split between
        # batches of 64 parents.  Replaying both members per parent took 506.
        from gcentral import optimize

        build, through = optimize._scorers, optimize._through
        rows, blocks = [], []

        def scorers(g, k, m):
            s = build(g, k, m)

            def block(subsets):
                blocks.append(len(subsets))
                try:
                    return s.block(subsets)
                finally:
                    blocks.pop()

            return s._replace(block=block)

        def counted(dist, sig, v):
            if not blocks:  # the block scorer's own removals are not the screen's
                rows.append(len(v))
            return through(dist, sig, v)

        monkeypatch.setattr(optimize, "_scorers", scorers)
        monkeypatch.setattr(optimize, "_through", counted)
        result = optimumset(novice, 4, Measure.BETWEENNESS)
        assert result.evaluated == math.comb(25, 4)
        assert sum(rows) == 253 + 25

    @pytest.mark.parametrize("measure", [Measure.RANDOMWALK, Measure.BETWEENNESS])
    def test_moved_screen_rescans_with_block_scorer(self, novice, monkeypatch, measure):
        from gcentral import optimize

        build = optimize._scorers
        # One-vertex extensions at k = 2, two-vertex ones at k = 3.
        for k in (2, 3):
            want = json_text(optimum_json(optimumset(novice, k, measure)))
            scored = []

            def moved(g, k, m):
                s = build(g, k, m)

                def block(subsets):
                    scored.append(len(subsets))
                    return s.block(subsets)

                # Off by ten tie windows: every confirmed row moves past one.
                return s._replace(block=block, screen=lambda *extensions: s.screen(*extensions) * (1 + 1e-8))

            monkeypatch.setattr(optimize, "_scorers", moved)
            got = optimumset(novice, k, measure)
            monkeypatch.setattr(optimize, "_scorers", build)
            assert json_text(optimum_json(got)) == want
            # The confirmation, then the whole partition through the block scorer.
            assert sum(scored) > got.evaluated

    @pytest.mark.parametrize(
        "case, k, every",
        [("novice", 4, None), ("ladder-hub", 3, None), ("ladder-hub", 4, 1), ("torus", 5, 40)],
        ids=["novice-4", "ladder-hub-3", "ladder-hub-4-shuffled", "torus-5-every-40th"],
    )
    def test_betweenness_screen_stress(self, novice, case, k, every):
        # Every 2-parent of the novice fixture, where updating PB with the
        # original path counts in the v-x-y term is off by up to 8e-3, and a
        # 4-wide ladder with a hub, whose counts grow by the layer.  From
        # k = 4 a parent adds its smallest vertex to its base's state; with
        # ``every`` the screen takes every such parent, shuffled, so bases
        # recur out of run (all of the ladder's 2-subsets at k = 4, every
        # 40th 3-subset of the 6 x 7 torus at k = 5).
        g = novice if case == "novice" else torus_graph(6, 7) if case == "torus" else layered_bipartite(4, 8, hub=True)
        parents = None
        if every:
            parents = np.asarray(list(colex_subsets(g.n, k - 2)), dtype=np.intp)[::every]
            parents = np.random.Generator(np.random.PCG64(73)).permutation(parents)
        step = 13 if every else 1
        screened, exact = self.screened_and_exact(g, k, Measure.BETWEENNESS, parents, step)
        count = math.comb(g.n, k - 2) if parents is None else len(parents)
        assert len(exact) == -(-count * math.comb(g.n - k + 2, 2) // step)
        assert screened == pytest.approx(exact, rel=1e-12, abs=1e-15)

    def test_screen_near_count_guard_matches_block_scorer(self):
        # A bare 4 x 24 ladder hung off the hub of a 4 x 26 one: its 4**22
        # end-to-end paths sit in float64 just under 2**53 / (2n), where a
        # dense layered pass once gave up, so the screen is on.  Without the
        # hub the longer ladder's ends lie 25 hops apart with 4**24 paths,
        # past that bound.  The screen counts only geodesics at base distance.
        from gcentral.graph import geodesic_counts

        def edges(g, shift):
            return [(u + shift, v + shift) for u in range(g.n) for v in g.neighbors(u) if u < v]

        hubbed, bare = layered_bipartite(4, 26, hub=True), layered_bipartite(4, 24)
        hub = hubbed.n - 1
        g = Graph(hubbed.n + bare.n, edges(hubbed, 0) + edges(bare, hubbed.n) + [(hub, hubbed.n)])
        sigma = np.concatenate([b.sigma for b in geodesic_counts(g, range(g.n))])
        guard = 2.0**53 / (2 * g.n)
        assert sigma.dtype == float and guard / 2 < sigma.max() == 4.0**22 < guard
        longer = layered_bipartite(4, 26)
        sigma = np.concatenate([b.sigma for b in geodesic_counts(longer, range(longer.n))])
        assert sigma.dtype == float and guard < sigma.max() == 4.0**24 < 2.0**53
        screened, exact = self.screened_and_exact(g, 2, Measure.BETWEENNESS, np.array([[hub]]))
        assert screened == pytest.approx(exact, rel=1e-12, abs=1e-15)


class TestWorkers:
    def test_byte_identical_across_worker_counts(self, novice):
        for m in (Measure.CLOSENESS, Measure.BETWEENNESS, Measure.RANDOMWALK):
            blobs = []
            for workers in (1, 2, 8):
                r = optimumset(novice, 3, m, workers=workers)
                blobs.append(json_text(optimum_json(r)))
            assert blobs[0] == blobs[1] == blobs[2]

    def test_degree_ties_split_across_partitions(self):
        # 3,738 tied degree sets on the torus at k = 3: the partitions' rank
        # ranges cut the tie list in the middle.
        g = torus_graph(6, 7)
        blobs = {json_text(optimum_json(optimumset(g, 3, Measure.DEGREE, workers=w))) for w in (1, 2, 8)}
        assert len(blobs) == 1

    def test_external_pool_reuse(self, novice):
        with ProcessPoolExecutor(max_workers=2) as pool:
            a = optimumset(novice, 2, Measure.RANDOMWALK, workers=2, pool=pool)
            b = optimumset(novice, 2, Measure.RANDOMWALK, workers=2, pool=pool)
        c = optimumset(novice, 2, Measure.RANDOMWALK, workers=1)
        assert json_text(optimum_json(a)) == json_text(optimum_json(b)) == json_text(optimum_json(c))


class TestNaiveEquivalence:
    def test_sampled_corpus_agreement(self, corpus_n8):
        rng = np.random.Generator(np.random.PCG64(101))
        picks = rng.choice(len(corpus_n8), size=40, replace=False)
        for idx in picks:
            g = corpus_n8[int(idx)]
            for k in range(1, min(3, g.n - 1) + 1):
                for m in MEASURE_ORDER:
                    mine = optimumset(g, k, m)
                    _, naive_sets = oracles.naive_optimumset(g, k, m)
                    assert [s.members for s in mine.optimal_sets] == naive_sets, (g, k, m)


class TestDecision:
    """A size-k set scores 1 exactly when it dominates (degree, closeness) or
    covers every edge (betweenness, random walk), so the search's best is 1
    exactly when such a set exists, and its optimal sets are all of them."""

    @staticmethod
    def check(g: Graph, k: int, measure: Measure) -> None:
        dominates = measure in (Measure.DEGREE, Measure.CLOSENESS)
        sets = (oracles.dominating_sets if dominates else oracles.vertex_covers)(g, k)
        r = optimumset(g, k, measure)
        assert (r.best.value == 1) == bool(sets), (g, k, measure)
        if sets:
            assert [s.members for s in r.optimal_sets] == sets, (g, k, measure)

    def test_path_closeness_alpha_one(self):
        r = optimumset(path_graph(3), 1, Measure.CLOSENESS)
        assert r.best.exact == 1 and [s.members for s in r.optimal_sets] == [(1,)]

    def test_triangle_betweenness_k1_no_witness(self):
        self.check(cycle_graph(3), 1, Measure.BETWEENNESS)

    def test_triangle_betweenness_k2_witness(self):
        r = optimumset(cycle_graph(3), 2, Measure.BETWEENNESS)
        assert r.best.value == 1 and [s.members for s in r.optimal_sets] == [(0, 1), (0, 2), (1, 2)]

    def test_decision_alpha_one_matches_dominating_sets(self, exhaustive_corpus):
        rng = np.random.Generator(np.random.PCG64(103))
        picks = rng.choice(len(exhaustive_corpus), size=60, replace=False)
        graphs = [exhaustive_corpus[int(idx)] for idx in picks]
        # The direct enumerator stays feasible up to n = 10.
        graphs += [random_connected_graph(rng, n, extra_edge_prob=0.25) for n in (9, 10)]
        for g in graphs:
            for k in range(1, min(3, g.n - 1) + 1):
                for m in (Measure.CLOSENESS, Measure.DEGREE):
                    self.check(g, k, m)

    def test_decision_alpha_one_matches_vertex_covers(self, exhaustive_corpus, sampled_corpus):
        rng = np.random.Generator(np.random.PCG64(107))
        graphs = exhaustive_corpus + sampled_corpus
        picks = rng.choice(len(graphs), size=60, replace=False)
        for idx in picks:
            g = graphs[int(idx)]
            for k in range(1, min(3, g.n - 1) + 1):
                for m in (Measure.BETWEENNESS, Measure.RANDOMWALK):
                    self.check(g, k, m)


class TestCrossMeasureReport:
    def test_path_kmax_one_unanimous(self):
        rep = cross_measure_report(path_graph(3), 1)
        for m in MEASURE_ORDER:
            cell = rep.cells[(1, m)]
            assert [s.members for s in cell.optimal_sets] == [(1,)]
        for key, j in rep.jaccard.items():
            assert j == 1.0

    def test_row_and_jaccard_counts(self, expert):
        rep = cross_measure_report(expert, 2)
        assert len(rep.cells) == 8
        assert len(rep.jaccard) == 12
        payload = report_json(rep)
        assert len(payload["rows"]) == 8

    def test_budget_guard_reports_largest_k(self):
        g = cycle_graph(60)
        with pytest.raises(BudgetExceededError) as err:
            cross_measure_report(g, 10)
        assert "C(60, 10)" in str(err.value)
        assert "75394027566" in str(err.value)

    def test_measure_subset(self, expert):
        rep = cross_measure_report(expert, 1, measures=(Measure.DEGREE, Measure.RANDOMWALK))
        assert set(rep.cells) == {(1, Measure.DEGREE), (1, Measure.RANDOMWALK)}
        assert len(rep.jaccard) == 1
