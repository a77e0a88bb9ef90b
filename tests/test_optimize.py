"""Exact enumeration: optima, ties, score-1 sets, workers, budget."""

from __future__ import annotations

import itertools
import json
import math
import pickle
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from gcentral import errors
from gcentral.errors import (
    BudgetExceededError,
    InputError,
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
        assert "142506" in str(err.value)
        assert err.value.subsets == 142506

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
        from gcentral.graph import geodesic_counts, shortest_path_counts

        # 19 hops end to end with 18 freely chosen intermediate layers.
        counts = shortest_path_counts(g, 0)
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
        ],
    )
    def test_errors_survive_pickling(self, cls, attrs):
        # What a pool worker raises reaches the parent pickled.
        err = cls("the run went past its limit", **attrs)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is type(err)
        assert str(back) == str(err) and back.args == err.args
        assert vars(back) == vars(err)

    @pytest.mark.parametrize("measure", MEASURE_ORDER)
    def test_smallest_blocks_give_the_same_result(self, novice, monkeypatch, measure):
        from gcentral.optimize import _scorers

        want = optimumset(novice, 3, measure).to_json_dict()
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
        assert optimumset(novice, 3, measure, workers=2).to_json_dict() == want
        if measure in (Measure.BETWEENNESS, Measure.RANDOMWALK):
            # The smallest limit with a screen: one parent per batch.
            low, high = limit, 1 << 30
            while high - low > 1:
                mid = (low + high) // 2
                monkeypatch.setattr(errors, "MEMORY_LIMIT", mid)
                low, high = (low, mid) if _scorers(novice, 3, measure).parents else (mid, high)
            monkeypatch.setattr(errors, "MEMORY_LIMIT", high)
            assert _scorers(novice, 3, measure).parents == 1
            assert optimumset(novice, 3, measure).to_json_dict() == want
        # Half that limit cannot hold the per-graph arrays and one row.
        monkeypatch.setattr(errors, "MEMORY_LIMIT", limit // 2)
        with pytest.raises(BudgetExceededError, match="memory limit") as exc:
            optimumset(novice, 3, measure)
        assert exc.value.subsets is None


    def test_random_walk_block_peak_within_its_rows(self, monkeypatch):
        # The guard's bytes per row are the step between the smallest limits
        # that allow two and three rows; a full block must peak below its
        # rows' share.
        from gcentral.optimize import _scorers

        def rows_at(g, k, limit):
            monkeypatch.setattr(errors, "MEMORY_LIMIT", limit)
            try:
                return _scorers(g, k, Measure.RANDOMWALK).rows
            except BudgetExceededError:
                return 0

        def smallest_limit(g, k, rows):
            low, high = 0, 1 << 30
            while high - low > 1:
                mid = (low + high) // 2
                low, high = (low, mid) if rows_at(g, k, mid) >= rows else (mid, high)
            return high

        rng = np.random.Generator(np.random.PCG64(89))
        for g in (torus_graph(6, 7), random_connected_graph(rng, 60, extra_edge_prob=0.05, weighted=True)):
            row_bytes = smallest_limit(g, 2, 3) - smallest_limit(g, 2, 2)
            rows = rows_at(g, 2, 1 << 30)
            assert rows == 512
            block = np.array(list(itertools.islice(colex_subsets(g.n, 2), rows)), dtype=np.intp)
            score = _scorers(g, 2, Measure.RANDOMWALK).block
            tracemalloc.start()
            try:
                score(block)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < rows * row_bytes, (g.n, peak / (rows * row_bytes))

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

    def test_closeness_distances_fit_without_path_counts(self, monkeypatch):
        # csgraph's distances cast to int16 hold 10 bytes per vertex pair.
        # The pass with path counts that closeness once ran held 45, past
        # both limits, and the layered distance-only pass 16, past the second.
        g = cycle_graph(300)
        for bytes_per_pair in (30, 13):
            monkeypatch.setattr(errors, "MEMORY_LIMIT", bytes_per_pair * 300 * 300)
            r = optimumset(g, 1, Measure.CLOSENESS)
            assert r.evaluated == 300 and len(r.optimal_sets) == 300
            assert r.best.exact == oracles.group_score_oracle(g, (0,), Measure.CLOSENESS)


class TestPrefixScreen:
    """The grouped screens of random walk and betweenness against the block scorer."""

    @staticmethod
    def screened_and_exact(g, k, measure, parents=None):
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
        ext = np.tile(ext, (len(parents), 1))
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
        ],
    )
    def test_random_walk_screen_stress(self, case, k, parents):
        # Long hitting times (a path), one hub (a star) and edge weights
        # spanning six orders of magnitude: the screen stays within 1e-12 of
        # the block scorer (measured: 2.6e-14 at most, on the path).
        g = self.stress_graph(case)
        if case == "weights1e6":
            assert max(g._slot_w) / min(g._slot_w) == pytest.approx(1e6)
        screened, exact = self.screened_and_exact(g, k, Measure.RANDOMWALK, parents)
        assert screened == pytest.approx(exact, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("measure", [Measure.RANDOMWALK, Measure.BETWEENNESS])
    def test_moved_screen_rescans_with_block_scorer(self, novice, monkeypatch, measure):
        from gcentral import optimize

        build = optimize._scorers
        # One-vertex extensions at k = 2, two-vertex ones at k = 3.
        for k in (2, 3):
            want = optimumset(novice, k, measure).to_json_dict()
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
            assert got.to_json_dict() == want
            # The confirmation, then the whole partition through the block scorer.
            assert sum(scored) > got.evaluated

    @pytest.mark.parametrize("case, k", [("novice", 4), ("ladder-hub", 3)])
    def test_betweenness_screen_stress(self, novice, case, k):
        # Every 2-parent of the novice fixture, where updating PB with the
        # original path counts in the v-x-y term is off by up to 8e-3, and a
        # 4-wide ladder with a hub, whose counts grow by the layer.
        g = novice if case == "novice" else layered_bipartite(4, 8, hub=True)
        screened, exact = self.screened_and_exact(g, k, Measure.BETWEENNESS)
        assert len(exact) == math.comb(g.n, k - 2) * math.comb(g.n - k + 2, 2)
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
                blobs.append(json.dumps(r.to_json_dict(), sort_keys=True))
            assert blobs[0] == blobs[1] == blobs[2]

    def test_degree_ties_split_across_partitions(self):
        # 3,738 tied degree sets on the torus at k = 3: the partitions' rank
        # ranges cut the tie list in the middle.
        g = torus_graph(6, 7)
        blobs = {json.dumps(optimumset(g, 3, Measure.DEGREE, workers=w).to_json_dict()) for w in (1, 2, 8)}
        assert len(blobs) == 1

    def test_external_pool_reuse(self, novice):
        with ProcessPoolExecutor(max_workers=2) as pool:
            a = optimumset(novice, 2, Measure.RANDOMWALK, workers=2, pool=pool)
            b = optimumset(novice, 2, Measure.RANDOMWALK, workers=2, pool=pool)
        c = optimumset(novice, 2, Measure.RANDOMWALK, workers=1)
        assert a.to_json_dict() == b.to_json_dict() == c.to_json_dict()


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
        payload = rep.to_json_dict()
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
