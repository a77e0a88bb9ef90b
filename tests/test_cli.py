"""Command-line behavior: outputs, exit codes, schema validity, round trips."""

from __future__ import annotations

import json
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from gcentral import errors
from gcentral.cli import ingest_triples, main
from gcentral.graph import load_edge_list

# `optimum --k 4 --format json` on both fixtures with labels.tsv, as the
# program wrote it before the search's scoring layer was rebuilt, less the
# manifest's command and wall time.
PINNED_REPORTS = json.loads((Path(__file__).parent / "data" / "fixture_reports_k4.json").read_text())
# The same for the 6x7 torus, captured before the search screened subsets by
# prefix: random walk to k = 3 (84 ties at k = 3) and betweenness to k = 2
# (42 ties), where the keep window holds the most rows.  Random walk to k = 4
# (42 ties at k = 4), the first size screened mostly by vertex pairs, was
# captured before the search screened by pairs, and betweenness to k = 3
# (168 ties at k = 3) before betweenness screened by pairs.
PINNED_TORUS = json.loads((Path(__file__).parent / "data" / "torus_reports.json").read_text())


@pytest.fixture(scope="session")
def schema() -> dict:
    text = resources.files("gcentral").joinpath("schemas/output.schema.json").read_text()
    return json.loads(text)


@pytest.fixture()
def p2_file(tmp_path: Path) -> Path:
    path = tmp_path / "p2.edges"
    path.write_text("0 1\n1 2\n")
    return path


@pytest.fixture(scope="session")
def fixture_paths() -> tuple[Path, Path, Path]:
    base = resources.files("gcentral").joinpath("fixtures")
    return (
        Path(str(base.joinpath("novice.edges"))),
        Path(str(base.joinpath("expert.edges"))),
        Path(str(base.joinpath("labels.tsv"))),
    )


def run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_matches_pinned(out: str, want: dict) -> None:
    """``optimum --format json`` output equals a pinned report: every field
    exactly, except random-walk values (LAPACK solves, 1e-12 relative) and
    the manifest's command and wall time."""
    got = json.loads(out)
    del got["manifest"]["command"], got["manifest"]["wall_time_s"]
    want = json.loads(json.dumps(want))

    def walk_values(report):
        return [r["best"].pop("value") for r in report["rows"] if r["measure"] == "randomwalk"]

    assert walk_values(got) == pytest.approx(walk_values(want), rel=1e-12)
    assert got == want


class TestCentrality:
    def test_p2_center_all_measures_one(self, capsys, p2_file):
        code, out, _ = run(capsys, ["centrality", str(p2_file), "--set", "1", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        for name in ("degree", "closeness", "betweenness", "random-walk"):
            assert payload["scores"][name]["value"] == pytest.approx(1.0, abs=1e-9)
        assert payload["scores"]["degree"]["exact"] == "1/1"

    def test_novice_by_label(self, capsys, fixture_paths):
        novice, _, labels = fixture_paths
        code, out, _ = run(
            capsys,
            ["centrality", str(novice), "--labels", str(labels),
             "--set", "livingthing", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["set"] == [18]
        assert payload["set_labels"] == ["livingthing"]
        assert payload["scores"]["degree"]["exact"] == "5/24"
        assert len(payload["scores"]) == 4

    def test_unknown_label_exit_2(self, capsys, fixture_paths):
        novice, _, labels = fixture_paths
        code, _, err = run(
            capsys,
            ["centrality", str(novice), "--labels", str(labels), "--set", "dragon"],
        )
        assert code == 2
        assert "dragon" in err

    def test_disconnected_exit_2(self, capsys, tmp_path):
        path = tmp_path / "two.edges"
        path.write_text("0 1\n2 3\n")
        code, _, err = run(capsys, ["centrality", str(path), "--set", "0"])
        assert code == 2
        assert "disconnected" in err

    def test_tsv_has_manifest_comment(self, capsys, p2_file):
        code, out, _ = run(capsys, ["centrality", str(p2_file), "--set", "1"])
        assert code == 0
        assert out.startswith("# manifest: ")
        assert "measure\tvalue\texact" in out


class TestOptimum:
    def test_novice_table_layout(self, capsys, fixture_paths):
        novice, _, labels = fixture_paths
        code, out, _ = run(
            capsys,
            ["optimum", str(novice), "--labels", str(labels), "--k", "2", "--use-labels"],
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "k\tdegree\tcloseness\tbetweenness\trandom-walk"
        assert len(lines) == 3
        assert lines[1].startswith("1\t{animal}, {livingthing}\t")

    def test_overflow_marker_format(self, capsys, fixture_paths):
        novice, _, labels = fixture_paths
        code, out, _ = run(
            capsys, ["optimum", str(novice), "--labels", str(labels), "--k", "3"]
        )
        assert code == 0
        row3 = [l for l in out.splitlines() if l.startswith("3\t")][0]
        degree_cell = row3.split("\t")[1]
        # 12 tying sets: two shown, ten counted.
        assert degree_cell.count("{") == 2
        assert degree_cell.endswith("... (10)")

    def test_budget_overflow_exit_3(self, capsys, tmp_path):
        path = tmp_path / "c60.edges"
        path.write_text("\n".join(f"{i} {(i + 1) % 60}" for i in range(60)) + "\n")
        code, _, err = run(capsys, ["optimum", str(path), "--k", "10"])
        assert code == 3
        assert "C(60, 10)" in err and "75394027566" in err

    def test_ranks_past_int64_exit_3(self, capsys, tmp_path):
        # C(200, 100) ~ 9.1e58 is within a raised budget but has no int64
        # colex ranks: refused before anything is enumerated.
        path = tmp_path / "p200.edges"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(199)))
        code, out, err = run(capsys, ["optimum", str(path), "--k", "100", "--budget", str(10**60)])
        assert code == 3
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
        assert "C(200, 100)" in err and "int64" in err

    @pytest.mark.parametrize("name", ["novice.edges", "expert.edges"])
    def test_fixture_report_pinned(self, capsys, fixture_paths, name):
        novice, expert, labels = fixture_paths
        graph = {"novice.edges": novice, "expert.edges": expert}[name]
        code, out, _ = run(
            capsys,
            ["optimum", str(graph), "--labels", str(labels), "--k", "4",
             "--format", "json", "--workers", "1"],
        )
        assert code == 0
        assert_matches_pinned(out, PINNED_REPORTS[name])

    @pytest.mark.parametrize("case", ["randomwalk-k3", "randomwalk-k4", "betweenness-k2", "betweenness-k3"])
    def test_torus_report_pinned(self, capsys, tmp_path, case):
        rows, cols = 6, 7
        edges = set()
        for r in range(rows):
            for c in range(cols):
                u = r * cols + c
                for v in (((r + 1) % rows) * cols + c, r * cols + (c + 1) % cols):
                    edges.add((min(u, v), max(u, v)))
        path = tmp_path / "torus.edges"
        path.write_text("".join(f"{u} {v}\n" for u, v in sorted(edges)))
        measure, k = case.split("-k")
        code, out, _ = run(
            capsys,
            ["optimum", str(path), "--k", k, "--measures", measure,
             "--format", "json", "--workers", "1"],
        )
        assert code == 0
        assert_matches_pinned(out, PINNED_TORUS[case])

    def test_json_validates_against_schema(self, capsys, fixture_paths, schema):
        _, expert, labels = fixture_paths
        code, out, _ = run(
            capsys,
            ["optimum", str(expert), "--labels", str(labels), "--k", "1", "--format", "json"],
        )
        assert code == 0
        jsonschema.validate(json.loads(out), schema)

    def test_expert_k1_contains_mammal(self, capsys, fixture_paths):
        _, expert, labels = fixture_paths
        code, out, _ = run(
            capsys,
            ["optimum", str(expert), "--labels", str(labels), "--k", "1",
             "--use-labels"],
        )
        assert code == 0
        row = [l for l in out.splitlines() if l.startswith("1\t")][0]
        cells = row.split("\t")[1:]
        assert all("mammal" in c for c in cells)


class TestHitting:
    def test_absorbing_route_values(self, capsys, p2_file, schema):
        code, out, _ = run(
            capsys, ["hitting", str(p2_file), "--set", "2", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["solution"]["route"] == "absorbing-solve"
        assert payload["solution"]["hitting_times"]["0"] == pytest.approx(4.0, abs=1e-9)
        assert payload["solution"]["hitting_times"]["1"] == pytest.approx(3.0, abs=1e-9)

    def test_contraction_matches_absorbing(self, capsys, p2_file):
        code_a, out_a, _ = run(capsys, ["hitting", str(p2_file), "--set", "2"])
        code_c, out_c, _ = run(
            capsys, ["hitting", str(p2_file), "--set", "2", "--route", "contraction"]
        )
        assert code_a == 0 and code_c == 0
        ha = json.loads(out_a)["solution"]["hitting_times"]
        hc = json.loads(out_c)["solution"]["hitting_times"]
        for v in ha:
            assert ha[v] == pytest.approx(hc[v], abs=1e-7)

    def test_montecarlo_within_four_stderr(self, capsys, p2_file, schema):
        code, out, _ = run(
            capsys,
            ["hitting", str(p2_file), "--set", "2", "--route", "montecarlo",
             "--walks", "100000", "--seed", "7"],
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        sol = payload["solution"]
        assert sol["rng"] == "numpy.random.PCG64"
        for v, analytic in (("0", 4.0), ("1", 3.0)):
            assert abs(sol["hitting_times"][v] - analytic) <= 4 * sol["stderr"][v]

    def test_centrality_json_validates(self, capsys, p2_file, schema):
        code, out, _ = run(
            capsys, ["centrality", str(p2_file), "--set", "1", "--format", "json"]
        )
        assert code == 0
        jsonschema.validate(json.loads(out), schema)


class TestSampleCommand:
    def test_writes_edge_and_map_files(self, capsys, tmp_path):
        src = tmp_path / "grid.edges"
        edges = []
        for i in range(10):
            for j in range(10):
                v = i * 10 + j
                if j < 9:
                    edges.append(f"{v} {v + 1}")
                if i < 9:
                    edges.append(f"{v} {v + 10}")
        src.write_text("\n".join(edges) + "\n")
        prefix = tmp_path / "sample"
        code, _, err = run(
            capsys,
            ["sample", str(src), "--nodes", "20", "--seed", "5",
             "--out-prefix", str(prefix)],
        )
        assert code == 0
        g = load_edge_list((tmp_path / "sample.edges").read_text())
        mapping = (tmp_path / "sample.map").read_text().strip().splitlines()
        assert g.n <= 20
        assert len(mapping) == g.n
        assert "sampled" in err


class TestFamilyCommand:
    def test_output_loadable_with_landmarks(self, capsys):
        code, out, _ = run(capsys, ["family", "--n", "3", "--m", "2"])
        assert code == 0
        g = load_edge_list(out)
        assert g.n == 13 and g.m == 14
        assert "# hub 0" in out
        assert "# clique_attach 1 4" in out
        assert "# star_roots 7 10" in out


class TestIngest:
    def test_predicate_filter(self):
        text = "a related b\na ignored c\nb related c\n"
        lines, stats = ingest_triples(text, "related")
        assert lines == ["a b", "b c"]
        assert stats["matched"] == 2
        assert stats["skipped_predicate"] == 1

    def test_self_loop_dropped_and_logged(self):
        lines, stats = ingest_triples("x related x\nx related y\n", "related")
        assert lines == ["x y"]
        assert stats["self_loops"] == 1

    def test_duplicate_collapsed_with_count(self):
        text = "a related b\nb related a\n"
        lines, stats = ingest_triples(text, "related")
        assert lines == ["a b"]
        assert stats["duplicates"] == 1

    def test_trailing_dot_tolerated(self):
        lines, _ = ingest_triples("a related b .\n", "related")
        assert lines == ["a b"]

    def test_malformed_line_rejected(self):
        with pytest.raises(Exception, match="line 1"):
            ingest_triples("only two\n", "related")

    def test_cli_roundtrip_idempotent(self, capsys, tmp_path):
        triples = tmp_path / "dump.nt"
        triples.write_text("b linked a\nc linked a\nb linked c\nc linked b\n")
        out1 = tmp_path / "first.edges"
        code, _, _ = run(
            capsys, ["ingest", str(triples), "--predicate", "linked", "-o", str(out1)]
        )
        assert code == 0
        assert out1.read_text().startswith("# manifest: ")
        body = "".join(
            line for line in out1.read_text().splitlines(keepends=True)
            if not line.startswith("#")
        )
        g = load_edge_list(body)
        assert g.m == 3
        # Emitting the loaded canonical form reproduces the same bytes.
        from gcentral.graph import format_edge_list

        assert format_edge_list(g, use_labels=True) == body


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["centrality", "/nonexistent.edges", "--set", "0"])
        assert code == 2

    def test_numerical_exit_4_on_truncation(self, capsys, tmp_path):
        path = tmp_path / "p6.edges"
        path.write_text("\n".join(f"{i} {i + 1}" for i in range(5)) + "\n")
        code, _, err = run(
            capsys,
            ["hitting", str(path), "--set", "5", "--route", "montecarlo",
             "--walks", "500", "--max-steps", "2"],
        )
        assert code == 4
        assert "cap" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimum", "--k", "1", "--measures", "randomwalk"],
            ["centrality", "--set", "3", "--measures", "randomwalk"],
            ["hitting", "--set", "3"],
            ["hitting", "--set", "0", "--route", "contraction"],
            ["hitting", "--set", "1", "--route", "contraction"],
            ["hitting", "--set", "2", "--route", "contraction"],
        ],
    )
    def test_singular_walk_exit_4(self, capsys, tmp_path, argv):
        # Two triangles joined by an edge of weight 1e-16, and a pendant
        # vertex: the chance of crossing that edge is below float64
        # resolution, so I - Q is singular in floating point, and so is
        # I - P + Pinf once a vertex of the first triangle is merged.
        path = tmp_path / "feather.edges"
        path.write_text("0 1 1\n1 2 1\n0 2 1\n2 3 1e-16\n3 4 1\n4 5 1\n3 5 1\n5 6 1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, [argv[0], str(path), "--weighted", *argv[1:]])
        assert code == 4
        assert out == "" and not caught
        assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimum", "--k", "1", "--measures", "randomwalk"],
            ["centrality", "--set", "3", "--measures", "randomwalk"],
        ],
    )
    def test_nearly_singular_walk_exit_4(self, capsys, tmp_path, argv):
        # At bridge weight 3e-16 the solve stays finite, but its hitting
        # times (about 7e15) fail the residual check.
        path = tmp_path / "feather.edges"
        path.write_text("0 1 1\n1 2 1\n0 2 1\n2 3 3e-16\n3 4 1\n4 5 1\n3 5 1\n5 6 1\n")
        code, out, err = run(capsys, [argv[0], str(path), "--weighted", *argv[1:]])
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1 and "residual" in err and "Traceback" not in err

    def test_tolerance_flag_accepted(self, capsys, p2_file):
        code, out, _ = run(
            capsys,
            ["optimum", str(p2_file), "--k", "1", "--tolerance", "1e-9"],
        )
        assert code == 0

    @pytest.mark.parametrize("value", ["2", "nan"])
    def test_tolerance_out_of_range_exit_2(self, capsys, p2_file, value):
        code, _, err = run(
            capsys,
            ["optimum", str(p2_file), "--k", "1", "--tolerance", value],
        )
        assert code == 2
        assert "tie tolerance" in err

    def test_tolerance_applies_to_its_run_only(self, capsys, p2_file):
        argv = ["optimum", str(p2_file), "--k", "1", "--format", "json"]
        code, out, _ = run(capsys, argv + ["--tolerance", "1e-3"])
        assert code == 0
        assert json.loads(out)["manifest"]["tolerances"]["float_tie_rel"] == 1e-3
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert '"float_tie_rel": 1e-09' in out

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_search_past_memory_limit_exit_3(self, capsys, tmp_path, monkeypatch, workers):
        path = tmp_path / "c3000.edges"
        path.write_text("\n".join(f"{i} {(i + 1) % 3000}" for i in range(3000)) + "\n")
        # Degree's boolean adjacency fits; closeness's all-pairs pass does not.
        monkeypatch.setattr(errors, "MEMORY_LIMIT", 32 << 20)
        code, out, err = run(capsys, ["optimum", str(path), "--k", "1", "--workers", workers])
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: the closeness search at k=1 on 3000 vertices needs")
        assert err.endswith("above the 32 MiB memory limit\n")

    def test_monte_carlo_past_memory_limit_exit_3(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "p200.edges"
        path.write_text("\n".join(f"{i} {i + 1}" for i in range(199)) + "\n")
        monkeypatch.setattr(errors, "MEMORY_LIMIT", 1 << 20)
        code, _, err = run(
            capsys, ["hitting", str(path), "--set", "0", "--route", "montecarlo"]
        )
        assert code == 3
        assert err == (
            "error: a run of 1990000 Monte Carlo walks needs about 122 MiB, "
            "above the 1 MiB memory limit\n"
        )

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["hitting", "--set", "0", "--route", "absorbing"], "absorbing solve on"),
            (["hitting", "--set", "0", "--route", "contraction"], "fundamental matrix of"),
            (["centrality", "--set", "0", "--measures", "randomwalk"], "absorbing solve on"),
        ],
    )
    def test_dense_walk_past_memory_limit_exit_3(self, capsys, tmp_path, monkeypatch, argv, what):
        path = tmp_path / "p400.edges"
        path.write_text("\n".join(f"{i} {i + 1}" for i in range(399)) + "\n")
        # Every analytic walk route allocates several 400 x 400 float64 arrays.
        monkeypatch.setattr(errors, "MEMORY_LIMIT", 1 << 20)
        code, out, err = run(capsys, [argv[0], str(path), *argv[1:]])
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"error: the {what} 400 vertices needs about ")
        assert err.endswith("above the 1 MiB memory limit\n")

    def test_betweenness_past_work_limit_exit_3(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "p400.edges"
        path.write_text("\n".join(f"{i} {i + 1}" for i in range(399)) + "\n")
        # 399 outside vertices times 798 CSR slots.
        monkeypatch.setattr(errors, "PATH_COUNT_LIMIT", 399 * 798 - 1)
        code, out, err = run(capsys, ["centrality", str(path), "--set", "0", "--measures", "all"])
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err == (
            "error: group betweenness from 399 outside vertices over 798 CSR slots needs "
            "about 3.18e+05 path-count steps, above the limit of 3.18e+05\n"
        )

    def test_path_counts_past_memory_limit_exit_3(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "p5000.edges"
        path.write_text("\n".join(f"{i} {i + 1}" for i in range(4999)) + "\n")
        # One source's rows of the counting pass take about 1.6 MiB.
        monkeypatch.setattr(errors, "MEMORY_LIMIT", 1 << 20)
        code, out, err = run(capsys, ["centrality", str(path), "--set", "0", "--measures", "betweenness"])
        assert code == 3
        assert out == ""
        assert err == "error: counting shortest paths on 5000 vertices needs about 2 MiB, above the 1 MiB memory limit\n"

    def test_graph_past_memory_limit_exit_3(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "far.edges"
        path.write_text("0 1\n1 999999\n")
        # Two edges, but the largest id makes a graph of 10**6 vertices.
        monkeypatch.setattr(errors, "MEMORY_LIMIT", 16 << 20)
        code, out, err = run(capsys, ["centrality", str(path), "--set", "0"])
        assert code == 3
        assert out == ""
        assert err == "error: a graph of 1000000 vertices needs about 31 MiB, above the 16 MiB memory limit\n"

    @pytest.mark.parametrize("body", ["a b inf\n", "a b 1e308\nb c 1e308\n"])
    def test_unusable_weights_exit_2(self, capsys, tmp_path, body):
        path = tmp_path / "w.edges"
        path.write_text(body)
        code, _, err = run(
            capsys, ["centrality", str(path), "--weighted", "--set", "a"]
        )
        assert code == 2
        assert "non-finite" in err or "overflows" in err

    def test_total_weighted_degree_overflow_exit_2(self, capsys, tmp_path):
        # Each vertex's weighted degree is finite, their sum is not.
        path = tmp_path / "w.edges"
        path.write_text("0 1 1e308\n2 3 1e308\n1 2 1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["centrality", str(path), "--weighted", "--set", "0"])
        assert code == 2
        assert out == "" and not caught
        assert err == "error: total weighted degree overflows\n"
