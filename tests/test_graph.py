"""Graph construction, parsing, and traversal primitives."""

from __future__ import annotations

import re

import numpy as np
import pytest

from gcentral.errors import BudgetExceededError, InputError
from gcentral.graph import (
    Graph,
    VertexSet,
    as_vertex_set,
    format_edge_list,
    is_connected,
    load_edge_list,
    multi_source_distances,
    parse_label_file,
)

from conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
import oracles
from oracles import shortest_path_counts, weighted_degree


class TestLoadEdgeList:
    def test_two_edge_path(self):
        g = load_edge_list("0 1\n1 2")
        assert g.n == 3 and g.m == 2
        assert g.edges == ((0, 1), (1, 2))

    def test_novice_fixture_shape(self, novice):
        assert novice.n == 25 and novice.m == 28

    def test_expert_fixture_shape(self, expert):
        assert expert.n == 25 and expert.m == 27

    def test_self_loop_rejected(self):
        with pytest.raises(InputError, match="self-loop"):
            load_edge_list("0 0")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            load_edge_list("0 1\n1 0")

    def test_duplicate_label_rejected(self):
        # Otherwise 'a' names vertex 3 in the edges but vertex 0 by lookup.
        with pytest.raises(InputError, match="^duplicate label 'a'$"):
            load_edge_list("a b\nb c\n", labels=["a", "b", "c", "a"])

    @pytest.mark.parametrize("label, message", [("", "empty label at index 1"),
                                                ("big cat", "label 'big cat' contains whitespace"),
                                                (" a", "label ' a' contains whitespace")])
    def test_label_no_token_can_name_rejected(self, label, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_edge_list("a c\n", labels=["a", label, "c"])

    @pytest.mark.parametrize("text", ["a b\nb c#d\n", "a b\n"])
    def test_label_holding_comment_rejected(self, text):
        # '#' starts a comment, so the token 'c#d' reads as 'c', and without
        # an edge naming it the label would be an isolated vertex.
        with pytest.raises(InputError, match="^label 'c#d' contains '#', which starts a comment$"):
            load_edge_list(text, labels=["a", "b", "c#d"])

    def test_malformed_line_reports_number(self):
        with pytest.raises(InputError, match="line 3"):
            load_edge_list("0 1\n1 2\nbroken")

    def test_non_positive_weight_rejected(self):
        with pytest.raises(InputError, match="non-positive"):
            load_edge_list("0 1 0.0", weighted=True)
        with pytest.raises(InputError, match="non-positive"):
            load_edge_list("0 1 -2", weighted=True)

    @pytest.mark.parametrize("weight", ["inf", "-inf", "nan"])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(InputError, match="line 2: non-positive or non-finite"):
            load_edge_list(f"a b 1\nb c {weight}\n")

    def test_overflowing_weighted_degree_rejected(self):
        # Each weight is finite, but b's weighted degree is not.
        with pytest.raises(InputError, match="vertex 1 overflows"):
            load_edge_list("a b 1e308\nb c 1e308\n")
        # Every degree is finite, but their total is not.
        with pytest.raises(InputError, match="total weighted degree overflows"):
            load_edge_list("a b 1e308\nb c 1e-300\nc d 1e308\n")

    def test_unicode_digits_are_names(self):
        # "²".isdigit() is True, but it is not a vertex id.
        g = load_edge_list("0 ²\n")
        assert g.n == 2 and g.labels == ("0", "²")

    def test_weighted_requires_three_fields(self):
        with pytest.raises(InputError, match="line 1"):
            load_edge_list("0 1", weighted=True)

    def test_comments_and_blanks_ignored(self):
        g = load_edge_list("# header\n\n0 1  # trailing\n1 2\n")
        assert g.m == 2

    def test_string_ids_interned_first_seen(self):
        g = load_edge_list("b a\na c")
        assert g.labels == ("b", "a", "c")
        assert g.edges == ((0, 1), (1, 2))

    def test_label_file_overrides_interning(self):
        g = load_edge_list("b a\na c", labels=["a", "b", "c"])
        assert g.vertex_by_label("a") == 0
        assert g.edges == ((0, 1), (0, 2))

    def test_unknown_token_with_label_file(self):
        with pytest.raises(InputError, match="dragon"):
            load_edge_list("a dragon", labels=["a", "b"])

    def test_weights_parsed(self):
        g = load_edge_list("0 1 2.5\n1 2 0.5", weighted=True)
        assert g.weights == (2.5, 0.5)


class TestLabelFile:
    def test_parse(self):
        assert parse_label_file("0\talpha\n1\tbeta\n") == ["alpha", "beta"]

    def test_missing_index_rejected(self):
        with pytest.raises(InputError, match="missing"):
            parse_label_file("0\ta\n2\tc\n")

    def test_duplicate_index_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            parse_label_file("0\ta\n0\tb\n")

    def test_duplicate_label_rejected(self):
        with pytest.raises(InputError, match="^label line 4: duplicate label 'a'$"):
            parse_label_file("0\ta\n1\tb\n2\tc\n3\ta \n")

    @pytest.mark.parametrize("line, message", [("1\t", "empty label"), ("1\t \t", "empty label"),
                                               ("1\tbig cat", "label 'big cat' contains whitespace"),
                                               ("1\tbig\tcat ", "label 'big\\tcat' contains whitespace")])
    def test_label_no_token_can_name_rejected(self, line, message):
        # Edge-list tokens are split on whitespace, so no edge could name these.
        with pytest.raises(InputError, match=f"^label line 2: {re.escape(message)}$"):
            parse_label_file(f"0\ta\n{line}\n2\tc\n")

    def test_negative_index_rejected(self):
        with pytest.raises(InputError, match="label line 1: negative index -1"):
            parse_label_file("-1\tneg\n0\ta\n1\tb\n")

    @pytest.mark.parametrize("index", ["\u0661", "+1", " 1", "1 ", "0_1", "1_0", "-0"])
    def test_index_must_be_ascii_digits(self, index):
        # int() reads these as 1, 1, 1, 1, 1, 10 and 0.
        with pytest.raises(InputError, match="label line 2: (bad|negative) index"):
            parse_label_file(f"0\ta\n{index}\tb\n")

    def test_fixture_labels_alphabetical(self, concept_labels):
        assert concept_labels == sorted(concept_labels)
        assert concept_labels[18] == "livingthing"
        assert concept_labels[19] == "mammal"


class TestGraphInvariants:
    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 2)])

    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph(2, [(1, 1)])

    def test_rejects_non_finite_weight(self):
        with pytest.raises(InputError, match="non-finite"):
            Graph(2, [(0, 1)], [float("inf")])

    @pytest.mark.parametrize(
        "n, edges, weights, labels, error",
        [
            # Two faults at once: the first in the order self-loop or range
            # (input order), weight count, duplicate, weight value, label
            # count, memory reports.
            (3, [(0, 1), (0, 1)], [1.0, -1.0], None, "duplicate edge (0, 1)"),
            (3, [(0, 1), (1, 0)], [float("nan"), 1.0], None, "duplicate edge (0, 1)"),
            (3, [(0, 5), (1, 1)], None, None, "edge (0, 5) outside vertex range 0..2"),
            (3, [(1, 1), (0, 5)], None, None, "self-loop at vertex 1"),
            (3, [(1, 2), (0, 1), (1, 2)], [1, 2], None, "weights must parallel edges"),
            (3, [(2, 1), (0, 1)], [0.0, float("inf")], None, "non-positive or non-finite weight inf on edge (0, 1)"),
            (3, [(2, 1), (0, 1)], [1.0, float("inf")], ["a"], "non-positive or non-finite weight inf on edge (0, 1)"),
            (3, [(2, 1), (0, 1)], [1.0, 2.0], ["a"], "expected 3 labels, got 1"),
            (2, [(0, 1), (1, 0)], [1e308, 1e308], None, "duplicate edge (0, 1)"),
            (3, [(0, 1), (0, 2)], [1e308, 1e308], None, "weighted degree of vertex 0 overflows"),
            # Ids past int64, which the memory check refuses once the
            # checks before it pass.
            (10**30, [(0, 10**25), (10**25, 0)], None, None, "duplicate edge (0, 10000000000000000000000000)"),
            (10**30, [(0, 10**25), (5, 0)], [1, -2], None, "non-positive or non-finite weight -2.0 on edge (0, 5)"),
            (10**30, [(0, 10**25), (5, 0)], [1, 2], ["x"], f"expected {10**30} labels, got 1"),
        ],
    )
    def test_first_fault_reported(self, n, edges, weights, labels, error):
        with pytest.raises(InputError) as exc:
            Graph(n, edges, weights, labels)
        assert str(exc.value) == error

    @pytest.mark.parametrize("n", [10**30, 2**63 + 1])
    def test_ids_past_int64_refused_by_memory_check(self, n):
        with pytest.raises(BudgetExceededError, match=f"a graph of {n} vertices needs about"):
            Graph(n, [(0, n - 1), (n - 2, n - 1)])

    def test_vertex_by_label_rejects_unicode_digit(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.vertex_by_label("2") == 2
        with pytest.raises(InputError, match="unknown vertex"):
            g.vertex_by_label("²")

    def test_neighbors_symmetric(self):
        g = load_edge_list("0 1\n1 2")
        assert 1 in g.neighbors(0) and 0 in g.neighbors(1)

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)

    def test_pickle_roundtrip(self):
        import pickle

        g = Graph(3, [(0, 1), (1, 2)], [1.0, 2.0], ["a", "b", "c"])
        h = pickle.loads(pickle.dumps(g))
        assert g == h and h.neighbors(1) == (0, 2)

    def test_pickle_keeps_hash_and_read_only_arrays(self):
        import pickle

        g = Graph(4, [(0, 1), (1, 2), (2, 3)], [1.0, 2.0, 0.5], ["a", "b", "c", "d"])
        h = pickle.loads(pickle.dumps(g))
        assert h == g and hash(h) == hash(g)
        for name in ("_indptr", "_indices", "_slot_w"):
            assert not getattr(h, name).flags.writeable
            # The CSR arrays are the graph's only edge store.
            assert np.array_equal(getattr(h, name), getattr(g, name))
            assert getattr(h, name).dtype == getattr(g, name).dtype
        assert is_connected(h) and multi_source_distances(h, [0]).tolist() == [0, 1, 2, 3]

    def test_unpickle_skips_validation(self, monkeypatch):
        import pickle

        data = pickle.dumps(Graph(3, [(0, 1), (1, 2)], [1.0, 2.0]))

        def refuse(*args, **kwargs):
            raise AssertionError("unpickling re-ran Graph.__init__")

        monkeypatch.setattr(Graph, "__init__", refuse)
        h = pickle.loads(data)
        assert h.edges == ((0, 1), (1, 2)) and h.weights == (1.0, 2.0)
        assert weighted_degree(h, 1) == 3.0 and is_connected(h)


class TestVertexSet:
    def test_canonicalization(self):
        vs = as_vertex_set([3, 1, 3, 2])
        assert vs.members == (1, 2, 3)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            as_vertex_set([])

    def test_unsorted_rejected(self):
        with pytest.raises(InputError):
            VertexSet((2, 1))

    def test_complement(self):
        assert as_vertex_set([1]).complement(3) == (0, 2)

    def test_proper_check(self):
        g = path_graph(3)
        with pytest.raises(InputError):
            as_vertex_set([0, 1, 2]).check_proper(g)
        with pytest.raises(InputError):
            as_vertex_set([7]).check_proper(g)


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(path_graph(3))

    def test_two_disjoint_edges(self):
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))

    def test_novice_connected_vs_oracle(self, novice):
        assert is_connected(novice)
        assert len(oracles.reachable_from(novice, 0)) == novice.n

    def test_corpus_agrees_with_oracle(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(30):
            n = int(rng.integers(2, 12))
            g = random_connected_graph(rng, n)
            assert is_connected(g)
            assert len(oracles.reachable_from(g, 0)) == n


class TestMultiSourceDistances:
    def test_path_center(self):
        assert multi_source_distances(path_graph(3), [1]).tolist() == [1, 0, 1]

    def test_path_endpoints(self):
        assert multi_source_distances(path_graph(3), [0, 2]).tolist() == [0, 1, 0]

    def test_star_from_leaf(self):
        g = star_graph(4)
        dist = multi_source_distances(g, [1])
        assert dist[0] == 1
        assert all(dist[v] == 2 for v in range(2, 5))

    def test_matches_min_over_pairwise_bfs(self, novice):
        rng = np.random.Generator(np.random.PCG64(7))
        apd = oracles.all_pairs_distances(novice)
        for _ in range(12):
            k = int(rng.integers(1, 6))
            members = sorted(int(v) for v in rng.choice(novice.n, size=k, replace=False))
            dist = multi_source_distances(novice, members)
            for v in range(novice.n):
                assert dist[v] == min(apd[s][v] for s in members)

    def test_zero_iff_member(self):
        g = cycle_graph(6)
        dist = multi_source_distances(g, [2, 4])
        for v in range(6):
            assert (dist[v] == 0) == (v in (2, 4))

    def test_edge_triangle_property(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(3, 12)))
            members = [int(rng.integers(g.n))]
            dist = multi_source_distances(g, members)
            for u, v in g.edges:
                assert abs(dist[u] - dist[v]) <= 1

    def test_singleton_agrees_with_bfs(self):
        rng = np.random.Generator(np.random.PCG64(13))
        for _ in range(15):
            g = random_connected_graph(rng, int(rng.integers(2, 10)))
            v = int(rng.integers(g.n))
            assert multi_source_distances(g, [v]).tolist() == oracles.bfs_distances(g, v)


class TestShortestPathCounts:
    def test_four_cycle_two_paths(self):
        pc = shortest_path_counts(cycle_graph(4), 0)
        assert pc.sigma[2] == 2

    def test_path_counts_all_one(self):
        assert shortest_path_counts(path_graph(3), 0).sigma == (1, 1, 1)

    def test_complete_graph_single_paths(self):
        pc = shortest_path_counts(complete_graph(4), 0)
        assert all(pc.sigma[v] == 1 for v in range(1, 4))
        paths = oracles.enumerate_shortest_paths(complete_graph(4), 0, 3)
        assert len(paths) == 1

    def test_counts_match_path_enumeration(self):
        rng = np.random.Generator(np.random.PCG64(17))
        for _ in range(15):
            g = random_connected_graph(rng, int(rng.integers(3, 8)), extra_edge_prob=0.4)
            pc = shortest_path_counts(g, 0)
            for v in range(1, g.n):
                assert pc.sigma[v] == len(oracles.enumerate_shortest_paths(g, 0, v))

    def test_layer_recomputation_consistency(self):
        g = cycle_graph(8)
        pc = shortest_path_counts(g, 3)
        for v in range(g.n):
            if v == 3:
                assert pc.sigma[v] == 1
                continue
            total = sum(
                pc.sigma[u] for u in g.neighbors(v) if pc.dist[u] == pc.dist[v] - 1
            )
            assert pc.sigma[v] == total

    def test_source_invariants(self):
        pc = shortest_path_counts(path_graph(5), 2)
        assert pc.dist[2] == 0 and pc.sigma[2] == 1


class TestWeightedDegree:
    def test_star_center(self):
        assert weighted_degree(star_graph(3), 0) == 3

    def test_additivity(self):
        g = Graph(3, [(0, 1), (0, 2)], [2.5, 0.5])
        assert weighted_degree(g, 0) == 3.0

    def test_novice_livingthing(self, novice):
        assert weighted_degree(novice, novice.vertex_by_label("livingthing")) == 5

    def test_sum_equals_twice_total_weight(self):
        rng = np.random.Generator(np.random.PCG64(19))
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 10)), weighted=True)
            total = sum(weighted_degree(g, v) for v in range(g.n))
            assert total == pytest.approx(2 * sum(g.weights), rel=1e-12)


class TestFormatEdgeList:
    def test_roundtrip_ids(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], [1.0, 2.0, 1.0])
        text = format_edge_list(g)
        h = load_edge_list(text)
        assert g.edges == h.edges and g.weights == h.weights

    def test_roundtrip_labels(self, novice):
        text = format_edge_list(novice, use_labels=True)
        h = load_edge_list(text, labels=list(novice.labels))
        assert h.edges == novice.edges
