"""Command-line behavior: outputs, exit codes, schema validity, round trips."""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcentral import cli, errors
from gcentral.cli import build_parser, ingest_triples, main
from gcentral.graph import format_edge_list, load_edge_list
from gcentral.measures import Measure
from gcentral.optimize import DEFAULT_BUDGET, score_subset

from conftest import torus_graph
import oracles

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

    def test_duplicate_label_exit_2(self, capsys, tmp_path):
        (tmp_path / "g.edges").write_text("a b\nb c\n")
        (tmp_path / "labels.tsv").write_text("0\ta\n1\tb\n2\tc\n3\ta\n")
        code, out, err = run(capsys, ["centrality", str(tmp_path / "g.edges"), "--labels",
                                      str(tmp_path / "labels.tsv"), "--set", "b"])
        assert code == 2 and out == ""
        assert err == "error: label line 4: duplicate label 'a'\n"

    @pytest.mark.parametrize("label, message", [("", "empty label"),
                                                ("big cat", "label 'big cat' contains whitespace")])
    def test_label_no_token_can_name_exit_2(self, capsys, tmp_path, label, message):
        # No edge could name such a vertex, so it would be isolated and the
        # graph refused as disconnected, which misnames the fault.
        (tmp_path / "g.edges").write_text("a b\nb c\n")
        (tmp_path / "labels.tsv").write_text(f"0\t{label}\n1\ta\n2\tb\n3\tc\n")
        code, out, err = run(capsys, ["centrality", str(tmp_path / "g.edges"), "--labels",
                                      str(tmp_path / "labels.tsv"), "--set", "a"])
        assert code == 2 and out == ""
        assert err == f"error: label line 1: {message}\n"

    def test_disconnected_exit_2(self, capsys, tmp_path):
        path = tmp_path / "two.edges"
        path.write_text("0 1\n2 3\n")
        code, _, err = run(capsys, ["centrality", str(path), "--set", "0"])
        assert code == 2
        assert "disconnected" in err

    def test_one_outside_vertex_betweenness_is_one(self, capsys, tmp_path):
        # The search scores {0, 1, 2} on this path at 1.0: no outside pairs
        # are left, and a set missing one vertex covers every edge.
        path = tmp_path / "p4.edges"
        path.write_text("0 1\n1 2\n2 3\n")
        for measures in ("betweenness", "all"):
            code, out, err = run(capsys, ["centrality", str(path), "--set", "0,1,2", "--measures", measures])
            assert code == 0 and err == ""
            assert "betweenness\t1.000000\t-" in out.splitlines()
        code, out, _ = run(capsys, ["centrality", str(path), "--set", "0,1,2", "--format", "json"])
        value = json.loads(out)["scores"]["betweenness"]["value"]
        assert value == score_subset(load_edge_list(path.read_text()), (0, 1, 2), Measure.BETWEENNESS) == 1.0

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
            capsys, ["hitting", str(p2_file), "--set", "2"]
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

    def test_contraction_refuses_underflowed_pi(self, capsys, tmp_path):
        # The merged vertex's pi underflows to 0: the route once divided by
        # it, warned twice and exited 0 with Infinity, which is not JSON.
        path = tmp_path / "g.edges"
        path.write_text("0 1 1e-300\n1 2 1e300\n")
        for route in ("contraction", "absorbing"):
            code, out, err = run(capsys, ["hitting", str(path), "--weighted", "--set", "0", "--route", route])
            assert code == 4
            assert out == "" and err.count("\n") == 1 and err.startswith("error: ")

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

    def test_montecarlo_default_seed_is_zero(self, capsys, p2_file):
        argv = ["hitting", str(p2_file), "--set", "2", "--route", "montecarlo", "--walks", "50"]
        code, out, _ = run(capsys, argv)
        code0, out0, _ = run(capsys, [*argv, "--seed", "0"])
        assert code == code0 == 0
        payload, payload0 = json.loads(out), json.loads(out0)
        assert payload["manifest"]["seed"] == payload["solution"]["seed"] == 0
        assert payload["solution"] == payload0["solution"]

    @pytest.mark.parametrize(
        "extra",
        [
            ["--route", "absorbing", "--walks", "5", "--max-steps", "-3", "--seed", "9"],
            ["--walks", "5"],
            ["--route", "contraction", "--max-steps", "10"],
            ["--route", "contraction", "--seed", "0"],
        ],
    )
    def test_analytic_routes_refuse_walk_options(self, capsys, p2_file, extra):
        code, out, err = run(capsys, ["hitting", str(p2_file), "--set", "2", *extra])
        assert code == 2
        assert out == "" and err == "error: --walks, --max-steps and --seed apply only to --route montecarlo\n"

    @pytest.mark.parametrize(
        "argv", [["hitting", "--set", "2"], ["centrality", "--set", "1", "--format", "json"]]
    )
    def test_json_records_default_tie_tolerance(self, capsys, p2_file, argv):
        code, out, _ = run(capsys, [argv[0], str(p2_file), *argv[1:]])
        assert code == 0
        assert '"float_tie_rel": 1e-09' in out

    def test_centrality_json_validates(self, capsys, p2_file, schema):
        code, out, _ = run(
            capsys, ["centrality", str(p2_file), "--set", "1", "--format", "json"]
        )
        assert code == 0
        jsonschema.validate(json.loads(out), schema)


@st.composite
def hitting_cases(draw) -> tuple[str, list[int]]:
    """A connected weighted edge list on 2 to 6 vertices, its weights from
    the smallest subnormal to 1e308, and a proper target set."""
    n = draw(st.integers(2, 6))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = [p for p in itertools.combinations(range(n), 2) if p not in edges]
    if extra:
        edges |= set(draw(st.lists(st.sampled_from(extra), unique=True, max_size=n)))
    weight = st.one_of(st.just(1.0), st.floats(5e-324, 1e308))
    text = "".join(f"{u} {v} {draw(weight)!r}\n" for u, v in sorted(edges))
    return text, sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(case=hitting_cases())
def test_analytic_routes_agree_or_refuse(tmp_path_factory, case):
    """Both analytic routes end without a traceback or warning, in exit 0
    with strict JSON, 2 or 4.  They answer alike, to 1e-7 of each other and
    of the exact rational hitting times, or refuse alike."""
    text, members = case
    path = tmp_path_factory.getbasetemp() / "routes.edges"
    path.write_text(text)
    answers = {}
    for route in ("absorbing", "contraction"):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["hitting", str(path), "--weighted", "--set", ",".join(map(str, members)),
                         "--route", route])
        assert not caught and "Traceback" not in err.getvalue()
        assert code in (0, 2, 4)
        if code:
            assert out.getvalue() == "" and err.getvalue().count("\n") == 1
            answers[route] = code
        else:
            times = json.loads(out.getvalue(), parse_constant=_refuse_constant)["solution"]["hitting_times"]
            answers[route] = {int(v): h for v, h in times.items()}
    absorbing, contraction = answers["absorbing"], answers["contraction"]
    if not isinstance(absorbing, dict) or not isinstance(contraction, dict):
        assert absorbing == contraction
        return
    exact = oracles.exact_hitting_times(load_edge_list(text, weighted=True), tuple(members))
    for v, h in absorbing.items():
        assert contraction[v] == pytest.approx(h, rel=1e-7)
        assert abs(Fraction(h) - exact[v]) <= Fraction(1e-7) * exact[v]


MEASURE_NAMES = st.lists(st.sampled_from([m.value for m in Measure]), min_size=1, unique=True).map(",".join)
# Tolerances and restart probabilities: inside (0, 1) half the time, else its ends and past them.
UNIT_FLOATS = st.one_of(st.floats(1e-12, 0.99), st.sampled_from([0.0, 1.0, -0.5, 1.5, math.inf, math.nan])).map(repr)


@st.composite
def cli_runs(draw) -> tuple[list[str], bytes]:
    """An argv of ``centrality``, ``optimum``, ``sample``, ``family`` or
    ``ingest``, with ``{in}`` and ``{dir}`` standing for its input file and
    a scratch directory, and the input file's bytes.  Edge lists have 2 to 8
    vertices, connected or not, weighted from the smallest subnormal to
    1.7e308 or not at all; lines end in LF or CRLF."""
    command = draw(st.sampled_from(["centrality", "optimum", "sample", "family", "ingest"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    if command == "family":
        n, m = (draw(st.one_of(st.integers(lo, 5), st.integers(-1, lo - 1))) for lo in (2, 1))
        return ["family", "--n", str(n), "--m", str(m)], b""
    if command == "ingest":
        token, predicate = st.sampled_from(["a", "b", "c", "p"]), st.sampled_from(["p", "q"])
        triple = st.builds("{} {} {}{}".format, token, predicate, token, st.sampled_from(["", " .", " # note"]))
        line = st.one_of(triple, triple, st.lists(token, max_size=4).map(" ".join), st.just("# note"))
        text = newline.join(draw(st.lists(line, max_size=8)))
        return ["ingest", "{in}", "--predicate", draw(predicate)], text.encode()
    n = draw(st.integers(2, 8))
    edges = set(draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))), min_size=1, max_size=12)))
    if draw(st.booleans()):
        edges |= {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    weight = st.one_of(st.just(1.0), st.floats(5e-324, 1.7e308))
    weighted = draw(st.booleans())
    text = "".join(f"{u} {v}" + (f" {draw(weight)!r}" if weighted else "") + newline for u, v in sorted(edges))
    argv = [command, "{in}"] + ["--weighted"] * weighted
    if command == "sample":
        nodes = draw(st.one_of(st.integers(2, n), st.integers(0, 9)))
        return argv + ["--nodes", str(nodes), "--restart", draw(UNIT_FLOATS),
                       "--step-budget", str(nodes + draw(st.integers(-1, 400))),
                       "--seed", str(draw(st.one_of(st.integers(0, 2**64), st.just(-1)))),
                       "--out-prefix", "{dir}/sample"], text.encode()
    argv += ["--measures", draw(MEASURE_NAMES), "--format", draw(st.sampled_from(["json", "tsv"]))]
    if command == "centrality":
        members = draw(st.sets(st.integers(0, n), min_size=1, max_size=n))
        return argv + ["--set", ",".join(map(str, members))], text.encode()
    k = draw(st.one_of(st.integers(1, n - 1), st.sampled_from([0, n])))
    budget = draw(st.one_of(st.just(DEFAULT_BUDGET), st.integers(0, 300)))
    return argv + ["--k", str(k), "--workers", "1", "--budget", str(budget), "--tolerance", draw(UNIT_FLOATS)], \
        text.encode()


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(case=cli_runs())
def test_commands_answer_or_refuse_cleanly(tmp_path_factory, schema, case):
    """Every command ends without a traceback or warning, in exit 0 with
    strict output, or in 2, 3 or 4 with one error line and nothing on
    standard output."""
    argv, data = case
    base = tmp_path_factory.getbasetemp() / "commands"
    base.mkdir(exist_ok=True)
    (base / "input").write_bytes(data)
    argv = [arg.format(**{"in": base / "input", "dir": base}) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert not caught and "Traceback" not in err
    assert code in (0, 2, 3, 4)
    if code:
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
        return
    if argv[0] == "sample":
        out = (base / "sample.edges").read_text()
    if "json" in argv:
        jsonschema.validate(json.loads(out, parse_constant=_refuse_constant), schema)
        return
    manifest, _, body = out.partition("\n")
    json.loads(manifest.removeprefix("# manifest: "), parse_constant=_refuse_constant)
    if argv[0] in ("centrality", "optimum"):
        assert not re.search(r"\b(inf|nan)\b", body, re.IGNORECASE)


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

    def test_prefix_keeps_its_dots(self, capsys, tmp_path, p2_file):
        prefix = tmp_path / "run.v2"
        code, _, _ = run(capsys, ["sample", str(p2_file), "--nodes", "2", "--out-prefix", str(prefix)])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p2.edges", "run.v2.edges", "run.v2.map"]

    @pytest.mark.parametrize("prefix", [".", "..", "out/"])
    def test_prefix_without_file_name_exit_2(self, capsys, monkeypatch, tmp_path, p2_file, prefix):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, ["sample", str(p2_file), "--nodes", "2", "--out-prefix", prefix])
        assert code == 2
        assert out == "" and err == f"error: --out-prefix must end in a file name; got {prefix!r}\n"


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


# The six options that some subcommands take, each with a value, and the
# ones each subcommand takes; it must refuse the rest.
SHARED_OPTIONS = {
    "--workers": "2", "--seed": "1", "--budget": "5", "--format": "tsv", "--tolerance": "1e-3", "-o": "x",
}
TAKES = {
    "optimum": {"--workers", "--budget", "--tolerance", "--format", "-o"},
    "centrality": {"--format", "-o"},
    "hitting": {"--seed", "-o"},
    "sample": {"--seed"},
    "family": {"-o"},
    "ingest": {"-o"},
}


def _base_argv(command: str, graph: Path, prefix: Path) -> list[str]:
    return {
        "optimum": ["optimum", str(graph), "--k", "1"],
        "centrality": ["centrality", str(graph), "--set", "1"],
        "hitting": ["hitting", str(graph), "--set", "2"],
        "sample": ["sample", str(graph), "--out-prefix", str(prefix)],
        "family": ["family", "--n", "2", "--m", "1"],
        "ingest": ["ingest", str(graph), "--predicate", "p"],
    }[command]


class TestOptions:
    @pytest.mark.parametrize("command", TAKES)
    def test_options_read_are_parsed(self, tmp_path, p2_file, command):
        argv = _base_argv(command, p2_file, tmp_path / "s")
        for option in TAKES[command]:
            argv += [option, SHARED_OPTIONS[option]]
        args = build_parser().parse_args(argv)
        assert args.subcommand == command

    def test_workers_default_counts_usable_cpus(self, monkeypatch):
        def workers() -> int:
            return build_parser().parse_args(["optimum", "g.edges", "--k", "1"]).workers

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert workers() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert workers() == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert workers() == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "GRAPH", "--nodes", "2", "--out", "PREFIX"],
            ["optimum", "GRAPH", "--k", "1", "--work", "3"],
            ["--vers"],
        ],
    )
    def test_abbreviated_option_is_rejected(self, capsys, tmp_path, p2_file, argv):
        prefix = tmp_path / "x"
        argv = [{"GRAPH": str(p2_file), "PREFIX": str(prefix)}.get(a, a) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not prefix.with_suffix(".edges").exists()

    @pytest.mark.parametrize(
        "command, option",
        [(c, o) for c, takes in TAKES.items() for o in SHARED_OPTIONS if o not in takes],
    )
    def test_option_not_read_is_rejected(self, capsys, tmp_path, p2_file, command, option):
        argv = _base_argv(command, p2_file, tmp_path / "s")
        with pytest.raises(SystemExit) as exc:
            main([*argv, option, SHARED_OPTIONS[option]])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "s.edges").exists()


# An option of each subcommand, abbreviated.
ABBREVIATED = {
    "optimum": "--work", "centrality": "--form", "hitting": "--rou", "sample": "--nod", "family": "--ou",
    "ingest": "--ou",
}


def _parse_failure(capsys, parse) -> tuple[str, str, int]:
    with pytest.raises(SystemExit) as exc:
        parse()
    captured = capsys.readouterr()
    return captured.out, captured.err, exc.value.code


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["--version"], ["bogus"],
    *([command, "--help"] for command in TAKES),
    *([command] for command in TAKES),
    *(_base_argv(command, Path("g.edges"), Path("s")) + extra for command in TAKES
      for extra in (["--bogus"], ["extra"], [ABBREVIATED[command], "1"])),
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_parses_as_the_whole_parser(capsys, argv):
    # main builds only the named subcommand's parser; in one process, so the
    # help text wraps at the same width, it must say what all six would.
    got = _parse_failure(capsys, lambda: main(argv))
    assert got == _parse_failure(capsys, lambda: build_parser().parse_args(argv))
    _, err, code = got
    assert code == (0 if "--help" in argv or "--version" in argv else 2)
    # The whole parser names the missing or unknown subcommand by its dest.
    if argv in ([], ["bogus"]):
        assert ("argument subcommand: invalid choice: 'bogus'" if argv
                else "the following arguments are required: subcommand") in err


PACKAGE = Path(cli.__file__).resolve().parent


def _fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    """``code`` run by a new interpreter that imports this checkout's gcentral."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ["gcentral", "gcentral.cli"])
def test_import_loads_no_scipy_sparse(module):
    # Every traversal runs on the graph's own CSR arrays, and LAPACK, the
    # only part of scipy used, loads on the first analytic solve: importing
    # loads no scipy module at all.
    done = _fresh_interpreter(f"import sys, {module}; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert done.returncode == 0 and done.stdout == "[]\n"


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_module_imports_alone(module):
    done = _fresh_interpreter("import gcentral" + ("" if module == "__init__" else f".{module}"))
    assert done.returncode == 0, done.stderr


def test_no_function_imports_the_package():
    # Modules import each other at the top, so the import order is the
    # dependency order; a function-level import would hide a cycle.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] if node.level == 0 else ["gcentral"]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if any(name.split(".")[0] == "gcentral" for name in names):
                    found.append(f"{path.stem}.{fn.name}")
    assert found == []


@pytest.mark.parametrize(
    "argv, wrapped",
    [(["centrality", "{in}", "--set", "1"], "load_edge_list"),
     (["ingest", "{in}", "--predicate", "p"], "ingest_triples")],
    ids=["graph", "triples"],
)
def test_digest_is_of_the_bytes_parsed(capsys, monkeypatch, tmp_path, argv, wrapped):
    path = tmp_path / "input"
    original = b"0 p 1\n1 p 2\n" if wrapped == "ingest_triples" else b"0 1\n1 2\n"
    path.write_bytes(original)
    parse = getattr(cli, wrapped)

    def rewrite_then_parse(*args, **kwargs):
        path.write_bytes(original + original)
        return parse(*args, **kwargs)

    monkeypatch.setattr(cli, wrapped, rewrite_then_parse)
    code, out, _ = run(capsys, [arg.format(**{"in": path}) for arg in argv])
    assert code == 0
    manifest = json.loads(out.partition("\n")[0].removeprefix("# manifest: "))
    assert manifest["input_digest"] == "sha256:" + hashlib.sha256(original).hexdigest()


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["centrality", "/nonexistent.edges", "--set", "0"])
        assert code == 2

    def test_stdout_closed_early_exits_1_quietly(self, tmp_path):
        # The 10 x 12 torus's 202,600 tied degree sets make megabytes of
        # JSON, far past what a pipe buffers, so the writer meets the closed pipe.
        path = tmp_path / "torus.edges"
        path.write_text(format_edge_list(torus_graph(10, 12)))
        argv = ["optimum", str(path), "--k", "3", "--measures", "degree", "--format", "json", "--workers", "1"]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        entry = "import sys; from gcentral.cli import main; sys.exit(main())"
        with subprocess.Popen([sys.executable, "-c", entry, *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert code == 1
        assert err == b""

    # {dir} is an existing directory, {p2} a path graph, {bad} an edge list
    # that is not UTF-8.
    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["centrality", "{p2}", "--set", "0", "--labels", "{dir}/none.tsv"],
                         "labels file not found: ", id="labels-missing"),
            pytest.param(["centrality", "{dir}", "--set", "0"], "cannot read graph file ", id="graph-dir"),
            pytest.param(["centrality", "{bad}", "--set", "0"],
                         "graph file {bad} is not UTF-8 text: byte 4 does not decode", id="graph-not-utf8"),
            pytest.param(["ingest", "{dir}", "--predicate", "p"], "cannot read triples file ", id="triples-dir"),
            pytest.param(["centrality", "{p2}", "--set", "0", "-o", "{dir}"], "cannot write ", id="out-dir"),
            pytest.param(["family", "--n", "3", "--m", "2", "-o", "{dir}/none/out"],
                         "cannot write ", id="out-in-missing-dir"),
            pytest.param(["sample", "{p2}", "--nodes", "2", "--out-prefix", "{dir}/none/s"],
                         "cannot write ", id="prefix-in-missing-dir"),
        ],
    )
    def test_unreadable_or_unwritable_file_exit_2(self, capsys, tmp_path, p2_file, argv, message):
        bad = tmp_path / "bad.edges"
        bad.write_bytes(b"0 1\n\xff 2\n")
        paths = {"dir": tmp_path, "p2": p2_file, "bad": bad}
        code, out, err = run(capsys, [arg.format(**paths) for arg in argv])
        assert code == 2
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: " + message.format(**paths))

    @pytest.mark.parametrize("steps", ["0", "-5"])
    def test_nonpositive_max_steps_exit_2(self, capsys, p2_file, steps):
        code, out, err = run(
            capsys,
            ["hitting", str(p2_file), "--set", "2", "--route", "montecarlo", "--max-steps", steps],
        )
        assert code == 2
        assert out == "" and err == "error: max_steps must be at least 1\n"

    @pytest.mark.parametrize(
        "argv",
        [["hitting", "{p2}", "--set", "2", "--route", "montecarlo", "--seed", "-1"],
         ["sample", "{p2}", "--nodes", "2", "--seed", "-1", "--out-prefix", "{p2}"]],
        ids=["hitting", "sample"],
    )
    def test_negative_seed_exit_2(self, capsys, p2_file, argv):
        code, out, err = run(capsys, [arg.format(p2=p2_file) for arg in argv])
        assert code == 2
        assert out == "" and err == "error: seed must be nonnegative\n"

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_nonpositive_workers_exit_2(self, capsys, p2_file, workers):
        code, out, err = run(capsys, ["optimum", str(p2_file), "--k", "1", "--workers", workers])
        assert code == 2
        assert out == "" and err == f"error: workers must be at least 1; got {workers}\n"

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

    def test_search_refuses_untrusted_hitting_time_exit_4(self, capsys, tmp_path):
        # Vertex 2 hangs off 0 by weight 1e-12: every k = 1 set leaves a
        # hitting time of about 2e12 steps, past the trusted 1.1e8.  The
        # search refuses its k = 1 optima as centrality refuses a set; it
        # once printed a best of 1.3e12 and exited 0.
        path = tmp_path / "g.edges"
        path.write_text("0 1 1.0\n0 2 1e-12\n2 3 1.0\n")
        for argv in (["optimum", "--k", "2"], ["centrality", "--set", "0,1"]):
            code, out, err = run(capsys, [argv[0], str(path), "--weighted", *argv[1:], "--measures", "randomwalk"])
            assert code == 4 and out == ""
            assert err.startswith("error: absorbing-solve hitting time ") and err.endswith(
                " is past the 1.126e+08 steps trusted\n"
            )

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
        # Degree's boolean adjacency (9 MB) fits; closeness's int16 all-pairs
        # distances (18 MB) do not.
        monkeypatch.setattr(errors, "MEMORY_LIMIT", 16 << 20)
        code, out, err = run(capsys, ["optimum", str(path), "--k", "1", "--workers", workers])
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: the closeness search at k=1 on 3000 vertices needs")
        assert err.endswith("above the 16 MiB memory limit\n")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_tie_list_past_memory_limit_exit_3(self, capsys, tmp_path, monkeypatch, workers):
        path = tmp_path / "torus.edges"
        path.write_text(format_edge_list(torus_graph(10, 12)))
        argv = ["optimum", str(path), "--k", "3", "--measures", "degree", "--workers", workers]
        # 202,600 tied degree sets at k = 3: 6.5 MB of rows and values,
        # which joining them copies once.
        monkeypatch.setattr(errors, "MEMORY_LIMIT", 16 << 20)
        code, out, _ = run(capsys, argv)
        assert code == 0 and "... (202598)" in out
        monkeypatch.setattr(errors, "MEMORY_LIMIT", 8 << 20)
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert err == "error: the search's tie list needs about 12 MiB, above the 8 MiB memory limit\n"

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
