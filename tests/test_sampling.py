"""Random-walk sampling and the clique/star separating family."""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest

from gcentral.cli import main
from gcentral.errors import InputError, SamplingBudgetError
from gcentral.graph import format_edge_list, is_connected
from gcentral.measures import Measure
from gcentral.optimize import optimumset
from gcentral.measures import group_closeness, group_randomwalk
from gcentral.sampling import (
    FamilyParams,
    SampleConfig,
    _induced,
    generate_family,
    random_walk_sample,
)

from conftest import complete_graph, path_graph, random_connected_graph
import oracles


class TestSampleConfig:
    def test_defaults(self):
        cfg = SampleConfig(seed=1)
        assert cfg.target_nodes == 40
        assert cfg.restart_probability == 0.15

    def test_validation(self):
        with pytest.raises(InputError):
            SampleConfig(target_nodes=1)
        with pytest.raises(InputError):
            SampleConfig(restart_probability=0.0)
        with pytest.raises(InputError):
            SampleConfig(target_nodes=50, step_budget=10)


class TestRandomWalkSample:
    def test_complete_graph_sample_is_complete(self):
        g = complete_graph(50)
        result = random_walk_sample(g, SampleConfig(target_nodes=40, seed=4))
        assert result.graph.n == 40
        assert result.graph.m == 40 * 39 // 2
        assert is_connected(result.graph)

    def test_whole_small_graph(self):
        g = path_graph(3)
        result = random_walk_sample(g, SampleConfig(target_nodes=3, seed=1))
        assert result.graph.n == 3 and result.graph.m == 2

    def test_target_larger_than_graph_rejected(self):
        with pytest.raises(InputError):
            random_walk_sample(path_graph(3), SampleConfig(target_nodes=5, seed=1))

    def test_deterministic_given_seed(self):
        rng = np.random.Generator(np.random.PCG64(20240902))
        g = random_connected_graph(rng, 200, extra_edge_prob=0.02)
        cfg = SampleConfig(target_nodes=40, seed=99)
        a = random_walk_sample(g, cfg)
        b = random_walk_sample(g, cfg)
        assert a.graph == b.graph and a.original_ids == b.original_ids
        # Pinned on first run; a change means the sampling stream moved.
        digest = hashlib.sha256(format_edge_list(a.graph).encode()).hexdigest()
        assert digest == "529e780679a6756963748ccf038ed0439aaa2e0c1109061b39e085c064c849bb"
        assert a.original_ids[:5] == (3, 4, 18, 36, 39)

    def test_weighted_sample_pinned(self):
        # Exact output of an earlier release on a weighted graph whose
        # vertices all have degree 6 or more.
        rng = np.random.Generator(np.random.PCG64(20261019))
        g = random_connected_graph(rng, 60, extra_edge_prob=0.15, weighted=True)
        assert min(g.degree(v) for v in g.vertices()) >= 5
        result = random_walk_sample(g, SampleConfig(target_nodes=25, seed=5))
        assert result.original_ids == (
            0, 2, 4, 7, 8, 13, 14, 15, 19, 20, 21, 22, 23, 24, 25, 28, 31, 34, 40, 41,
            46, 47, 48, 49, 53,
        )
        digest = hashlib.sha256(format_edge_list(result.graph).encode()).hexdigest()
        assert digest == "3f0873af275129e54738da2127fb0a93346bc7e8b39e867e60658861f3c77c24"

    def test_different_seed_changes_sample(self):
        rng = np.random.Generator(np.random.PCG64(20240903))
        g = random_connected_graph(rng, 200, extra_edge_prob=0.02)
        a = random_walk_sample(g, SampleConfig(target_nodes=30, seed=1))
        b = random_walk_sample(g, SampleConfig(target_nodes=30, seed=2))
        assert a.original_ids != b.original_ids

    def test_budget_exhaustion_reports_progress(self):
        g = path_graph(400)
        with pytest.raises(SamplingBudgetError) as err:
            random_walk_sample(g, SampleConfig(target_nodes=300, seed=7, step_budget=400))
        visited = re.search(r"with (\d+) of 300 vertices visited", str(err.value))
        assert 0 < int(visited[1]) < 300

    def test_edges_exist_in_source(self):
        rng = np.random.Generator(np.random.PCG64(20240904))
        g = random_connected_graph(rng, 120, extra_edge_prob=0.05, weighted=True)
        result = random_walk_sample(g, SampleConfig(target_nodes=25, seed=3))
        source_edges = dict(zip(g.edges, g.weights))
        for (u, v), w in zip(result.graph.edges, result.graph.weights):
            ou, ov = result.original_ids[u], result.original_ids[v]
            key = (ou, ov) if ou < ov else (ov, ou)
            assert source_edges[key] == w

    def test_sample_keeps_every_visited_vertex_and_is_connected(self):
        # Every step leaves a visited vertex along an edge and a restart
        # returns to the start, so the visited vertices induce a connected
        # graph, sparse source graphs included.
        rng = np.random.Generator(np.random.PCG64(20240905))
        for _ in range(40):
            g = random_connected_graph(rng, 60, extra_edge_prob=0.03)
            for seed in range(10):
                result = random_walk_sample(g, SampleConfig(target_nodes=20, seed=seed))
                assert result.graph.n == result.visited == 20
                assert is_connected(result.graph)

    def test_induced_matches_edge_loop_oracle(self):
        rng = np.random.Generator(np.random.PCG64(2027))
        for i in range(60):
            g = random_connected_graph(rng, int(rng.integers(2, 30)), extra_edge_prob=0.3, weighted=True)
            if i % 3 == 0:
                g = oracles.relabel(g, [f"v{v}" for v in range(g.n)])
            ids = sorted(rng.choice(g.n, int(rng.integers(1, g.n + 1)), replace=False).tolist())
            sub, original_ids = _induced(g, ids)
            want = oracles.induced_oracle(g, ids)
            assert sub == want and sub.labels == want.labels and original_ids == tuple(ids)
            assert sub.edges == want.edges and sub.weights == want.weights

    def test_mapping_lines_with_labels(self, tmp_path, capsys):
        g = oracles.relabel(path_graph(5), ["a", "b", "c", "d", "e"])
        (tmp_path / "p5.edges").write_text(format_edge_list(g, use_labels=True))
        (tmp_path / "p5.tsv").write_text("".join(f"{v}\t{g.label(v)}\n" for v in g.vertices()))
        prefix = tmp_path / "sample"
        argv = ["sample", str(tmp_path / "p5.edges"), "--labels", str(tmp_path / "p5.tsv"),
                "--nodes", "3", "--seed", "5", "--out-prefix", str(prefix)]
        assert main(argv) == 0
        capsys.readouterr()
        result = random_walk_sample(g, SampleConfig(target_nodes=3, seed=5))
        lines = (tmp_path / "sample.map").read_text().splitlines()
        assert len(lines) == result.graph.n
        assert all(len(line.split("\t")) == 3 for line in lines)


class TestGenerateFamily:
    def test_smallest_instance(self):
        fam = generate_family(FamilyParams(2, 1))
        assert fam.graph.n == 5
        assert fam.hub == 0
        assert fam.clique_attach.members == (1,)
        assert fam.star_roots.members == (3,)

    def test_structure_checks(self):
        for n, m in [(2, 1), (3, 2), (3, 3), (4, 2), (5, 4)]:
            fam = generate_family(FamilyParams(n, m))
            g = fam.graph
            assert g.n == 1 + 2 * m * n
            assert g.degree(fam.hub) == 2 * m
            for a in fam.clique_attach:
                assert g.degree(a) == n
            for r in fam.star_roots:
                assert g.degree(r) == n
            assert is_connected(g)

    def test_three_two_hub_degree(self):
        fam = generate_family(FamilyParams(3, 2))
        assert fam.graph.n == 13
        assert fam.graph.degree(0) == 4

    def test_landmark_sets(self):
        fam = generate_family(FamilyParams(3, 2))
        assert fam.clique_set.members == (0, 1, 4)
        assert fam.star_set.members == (0, 7, 10)

    def test_invalid_params(self):
        with pytest.raises(InputError):
            FamilyParams(1, 1)
        with pytest.raises(InputError):
            FamilyParams(2, 0)


class TestSeparation:
    """The implementable half of the separating-family story.

    The random-walk score strictly prefers the clique landmarks over the
    star landmarks, while closeness cannot tell them apart (exact tie, and
    both lie among its optima).  The stronger claim that the clique set is
    the *unique global* random-walk optimum fails at these sizes; the
    acceptance suite carries that check and its analysis.
    """

    @pytest.mark.parametrize("n,m", [(3, 2), (3, 3), (4, 2)])
    def test_randomwalk_strictly_separates_landmarks(self, n, m):
        fam = generate_family(FamilyParams(n, m))
        rw_clique = group_randomwalk(fam.graph, fam.clique_set).value
        rw_star = group_randomwalk(fam.graph, fam.star_set).value
        assert rw_clique < rw_star - 1e-9

    @pytest.mark.parametrize("n,m", [(3, 2), (3, 3), (4, 2)])
    def test_closeness_ties_landmarks_exactly(self, n, m):
        fam = generate_family(FamilyParams(n, m))
        a = group_closeness(fam.graph, fam.clique_set).exact
        b = group_closeness(fam.graph, fam.star_set).exact
        assert a == b

    @pytest.mark.parametrize("n,m", [(3, 2), (4, 2)])
    def test_both_landmarks_among_closeness_optima(self, n, m):
        fam = generate_family(FamilyParams(n, m))
        r = optimumset(fam.graph, m + 1, Measure.CLOSENESS)
        members = [s.members for s in r.optimal_sets]
        assert fam.clique_set.members in members
        assert fam.star_set.members in members

    @pytest.mark.parametrize("n,m", [(3, 2), (4, 2)])
    def test_star_set_never_random_walk_optimal(self, n, m):
        fam = generate_family(FamilyParams(n, m))
        r = optimumset(fam.graph, m + 1, Measure.RANDOMWALK)
        assert fam.star_set.members not in [s.members for s in r.optimal_sets]
