import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import kcover.structures
from kcover.cli import main
from kcover.graph import MAX_VERTICES, complete_graph, serialize_graph
from kcover.structures import MAX_K

K4 = "4\n0 1 1\n0 2 1\n0 3 1\n1 2 1\n1 3 1\n2 3 1\n"
TRIANGLE = "3\n0 1 1\n0 2 1\n1 2 1\n"
SQUARE = "4\n0 1 2\n0 3 5\n1 2 3\n2 3 4\n"  # triangle-free


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(K4)
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text(TRIANGLE)
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(SQUARE)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def parse_kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


class TestCover:
    def test_improved_cycle_on_k4_certified(self, capsys, k4_file):
        code, out = run_cli(
            capsys, "cover", k4_file, "--k", "3", "--kind", "cycle", "--algorithm", "improved"
        )
        assert code == 0
        report = parse_kv(out)
        assert report["certified"] == "true"
        assert report["algorithm"] == "improved-cycle"
        assert report["ratio_bound"] == "5/2"
        assert int(report["cover_weight"]) <= 5

    def test_improved_cycle_rejects_even_k(self, capsys, k4_file):
        code, _ = run_cli(
            capsys, "cover", k4_file, "--k", "4", "--kind", "cycle", "--algorithm", "improved"
        )
        assert code == 2

    def test_triangle_free_empty_cover(self, capsys, square_file):
        code, out = run_cli(capsys, "cover", square_file, "--k", "3", "--kind", "cycle")
        assert code == 0
        report = parse_kv(out)
        assert report["cover_weight"] == "0"
        assert report["cover"] == ""
        assert report["certified"] == "true"

    def test_structured_format(self, capsys, k4_file):
        code, out = run_cli(
            capsys,
            "cover",
            k4_file,
            "--k",
            "3",
            "--kind",
            "clique",
            "--algorithm",
            "improved",
            "--format",
            "structured",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["certified"] is True
        assert doc["ratio_bound"] == "5/2"
        assert all(len(e) == 2 for e in doc["cover"])

    def test_enumeration_cap_exit_code(self, capsys, k4_file):
        code, _ = run_cli(
            capsys, "cover", k4_file, "--k", "3", "--kind", "cycle", "--max-structures", "2"
        )
        assert code == 3

    def test_missing_file(self, capsys):
        code, _ = run_cli(capsys, "cover", "/nonexistent/g.txt", "--k", "3", "--kind", "cycle")
        assert code == 2

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n0 0 1\n")
        code, _ = run_cli(capsys, "cover", str(bad), "--k", "3", "--kind", "cycle")
        assert code == 2

    def test_vertex_count_above_cap_is_usage_error(self, capsys, tmp_path):
        huge = tmp_path / "huge.txt"
        huge.write_text(f"{MAX_VERTICES + 1}\n")
        assert main(["cover", str(huge), "--k", "3", "--kind", "cycle"]) == 2
        assert "line 1: vertex count" in capsys.readouterr().err

    def test_k_below_three_is_usage_error(self, capsys, k4_file):
        code, _ = run_cli(capsys, "cover", k4_file, "--k", "2", "--kind", "cycle")
        assert code == 2

    def test_k_above_cap_is_usage_error(self, capsys, tmp_path):
        # A valid 1500-vertex cycle: without the cap the DFS would recurse
        # 1500 deep and die with RecursionError.
        n = 1500
        ring = tmp_path / "ring.txt"
        ring.write_text(f"{n}\n" + "".join(f"{v} {v + 1} 1\n" for v in range(n - 1)) + f"0 {n - 1} 1\n")
        empty = tmp_path / "empty.txt"
        empty.write_text(f"{n}\n")
        for command in (["cover"], ["exact"], ["verify", "--cover-file", str(empty)]):
            code = main([*command, str(ring), "--k", str(n), "--kind", "cycle"])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err == f"error: k must be at most {MAX_K}, got {n}\n"

    def test_env_override_max_structures(self, capsys, k4_file, monkeypatch):
        monkeypatch.setenv("KCOVER_MAX_STRUCTURES", "2")
        code, _ = run_cli(capsys, "cover", k4_file, "--k", "3", "--kind", "cycle")
        assert code == 3

    def test_flag_beats_env(self, capsys, k4_file, monkeypatch):
        monkeypatch.setenv("KCOVER_MAX_STRUCTURES", "2")
        code, _ = run_cli(
            capsys, "cover", k4_file, "--k", "3", "--kind", "cycle",
            "--max-structures", "1000",
        )
        assert code == 0


class TestExact:
    def test_k5_triangle_cover(self, capsys, tmp_path):
        path = tmp_path / "k5.txt"
        path.write_text(serialize_graph(complete_graph(5)))
        code, out = run_cli(capsys, "exact", str(path), "--k", "3", "--kind", "cycle")
        assert code == 0
        report = parse_kv(out)
        assert report["weight"] == "4"
        assert report["status"] == "optimal"

    def test_triangle(self, capsys, triangle_file):
        code, out = run_cli(capsys, "exact", triangle_file, "--k", "3", "--kind", "cycle")
        assert code == 0
        assert parse_kv(out)["weight"] == "1"

    def test_budget_exhaustion_exit_code(self, capsys, tmp_path):
        path = tmp_path / "k7.txt"
        path.write_text(serialize_graph(complete_graph(7)))
        code, out = run_cli(
            capsys, "exact", str(path), "--k", "3", "--kind", "cycle", "--node-budget", "2"
        )
        assert code == 3
        assert parse_kv(out)["status"] == "unsolved"

    def test_env_override_node_budget(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("KCOVER_NODE_BUDGET", "2")
        path = tmp_path / "k7.txt"
        path.write_text(serialize_graph(complete_graph(7)))
        code, _ = run_cli(capsys, "exact", str(path), "--k", "3", "--kind", "cycle")
        assert code == 3


class TestInputValidation:
    def usage_error(self, capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        return err

    @pytest.mark.parametrize("name", ["KCOVER_NODE_BUDGET", "KCOVER_MAX_STRUCTURES"])
    def test_non_integer_env_is_usage_error(self, capsys, k4_file, monkeypatch, name):
        monkeypatch.setenv(name, "abc")
        err = self.usage_error(capsys, "exact", k4_file, "--k", "3", "--kind", "cycle")
        assert "'abc'" in err

    def test_zero_node_budget_is_usage_error(self, capsys, k4_file):
        self.usage_error(capsys, "exact", k4_file, "--k", "3", "--kind", "cycle", "--node-budget", "0")

    def test_zero_max_structures_is_usage_error(self, capsys, k4_file):
        self.usage_error(
            capsys, "cover", k4_file, "--k", "3", "--kind", "cycle", "--max-structures", "0"
        )

    def test_bad_env_value_as_subprocess(self, k4_file):
        proc = subprocess.run(
            [sys.executable, "-m", "kcover.cli", "exact", k4_file, "--k", "3", "--kind", "cycle"],
            capture_output=True,
            text=True,
            env={**os.environ, "KCOVER_NODE_BUDGET": "abc"},
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr

    def test_failed_certificate_exits_1(self, capsys, k4_file, monkeypatch):
        import kcover.lp
        from kcover.lp import FractionalSolution

        def bogus(m, g, **kwargs):
            zeros = (0,) * g.edge_count
            return FractionalSolution(g.edges, 1, zeros, Fraction(0), m.row_count, 1, (), ())

        monkeypatch.setattr(kcover.lp, "solve_covering_lp", bogus)
        code = main(["cover", k4_file, "--k", "3", "--kind", "cycle"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: certificate check failed:")

    @pytest.mark.parametrize("command", ["cover", "exact"])
    def test_simplex_failure_exits_1(self, capsys, k4_file, monkeypatch, command):
        import kcover.lp

        def stalled(self, pivot_limit):
            raise kcover.lp.SimplexIterationError("pivot cap 7 exceeded")

        monkeypatch.setattr(kcover.lp._DualSimplex, "run", stalled)
        code = main([command, k4_file, "--k", "3", "--kind", "cycle"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: pivot cap 7 exceeded\n"

    @pytest.mark.parametrize("idx, code", [((), 1), ((0,), 0), ((0, 1), 0)])
    def test_short_incidence_row_reports(self, capsys, k4_file, monkeypatch, idx, code):
        # A row of fewer than two edges ends in a report or one error line.
        build = kcover.structures.build_incidence

        def short_row_zero(g, found):
            m = build(g, found)
            return replace(m, row_edge_indices=(idx,) + m.row_edge_indices[1:])

        monkeypatch.setattr(kcover.structures, "build_incidence", short_row_zero)
        assert main(["cover", k4_file, "--k", "3", "--kind", "cycle"]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            assert captured.err.startswith("error: dual unbounded") and captured.err.count("\n") == 1
        else:
            assert parse_kv(captured.out)["lp_objective"] == "2"


class TestPack:
    def test_k7_perfect_packing(self, capsys, tmp_path):
        path = tmp_path / "k7.txt"
        path.write_text(serialize_graph(complete_graph(7)))
        code, out = run_cli(capsys, "pack", str(path), "--k", "3")
        assert code == 0
        report = parse_kv(out)
        assert report["count"] == "7"
        assert len(report["cliques"].split(",")) == 7

    def test_k4(self, capsys, k4_file):
        code, out = run_cli(capsys, "pack", k4_file, "--k", "3")
        assert code == 0
        assert parse_kv(out)["count"] == "1"

    def test_deep_search_without_traceback(self, capsys, tmp_path):
        # 1,100 disjoint triangles: the packing search goes 1,100 levels deep.
        path = tmp_path / "triangles.txt"
        triangles = [(i, i + 1, i + 2) for i in range(0, 3300, 3)]
        lines = [f"{a} {b} 1\n{a} {c} 1\n{b} {c} 1\n" for a, b, c in triangles]
        path.write_text("3300\n" + "".join(lines))
        code = main(["pack", str(path), "--k", "3"])
        captured = capsys.readouterr()
        assert code == 0
        assert "count=1100\n" in captured.out
        assert "Traceback" not in captured.err


class TestRatioStudy:
    def test_small_table(self, capsys):
        code, out = run_cli(
            capsys, "ratio-study", "--k", "3", "--kind", "clique", "--n-range", "3:4"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n=3 tau=1 nu=1 tau_over_nu=1 tau_over_binom=1/3"
        assert lines[1] == "n=4 tau=2 nu=1 tau_over_nu=2 tau_over_binom=1/3"

    def test_k7_row_has_exact_fraction(self, capsys):
        code, out = run_cli(
            capsys, "ratio-study", "--k", "3", "--kind", "clique", "--n-range", "7:7"
        )
        assert code == 0
        assert "tau=9 nu=7 tau_over_nu=9/7" in out

    def test_unsolved_rows_marked(self, capsys):
        code, out = run_cli(
            capsys,
            "ratio-study",
            "--k",
            "3",
            "--kind",
            "clique",
            "--n-range",
            "6:7",
            "--node-budget",
            "2",
        )
        assert code == 3
        assert "status=unsolved" in out

    def test_one_enumeration_per_n(self, capsys, monkeypatch):
        calls = []
        enumerate_ = kcover.structures._enumerate

        def counted(*args):
            calls.append(args)
            return enumerate_(*args)

        monkeypatch.setattr(kcover.structures, "_enumerate", counted)
        code, _ = run_cli(capsys, "ratio-study", "--k", "3", "--kind", "clique", "--n-range", "3:6")
        assert code == 0
        assert len(calls) == 4

    @pytest.mark.parametrize("k, n_range, nus", [(4, "4:7", [1, 1, 3, 4]), (5, "5:7", [2, 2, 3])])
    def test_cycle_nu_packs_cycles(self, capsys, k, n_range, nus):
        argv = ["--k", str(k), "--kind", "cycle", "--n-range", n_range, "--format", "structured"]
        code, out = run_cli(capsys, "ratio-study", *argv)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["nu"] for row in rows] == nus
        assert all(row["nu"] <= row["tau"] <= k * row["nu"] for row in rows)

    @pytest.mark.parametrize("kind", ["clique", "cycle"])
    def test_huge_n_rejected_before_building(self, capsys, monkeypatch, kind):
        def refuse(n, weight=1):
            raise AssertionError(f"K_{n} built")

        monkeypatch.setattr("kcover.cli.complete_graph", refuse)
        code = main(["ratio-study", "--k", "3", "--kind", kind, "--n-range", "100000:100000"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: more than 1000000 3-")

    def test_cap_counts_the_largest_n(self, capsys):
        # K6 has 20 triangles and 45 4-cycles; K5 has 10 and 15.
        for kind, k, cap, code in (("clique", 3, 19, 3), ("clique", 3, 20, 0),
                                   ("cycle", 4, 44, 3), ("cycle", 4, 45, 0)):
            argv = ["--k", str(k), "--kind", kind, "--n-range", "5:6", "--max-structures", str(cap)]
            assert run_cli(capsys, "ratio-study", *argv)[0] == code

    def test_bad_range(self, capsys):
        code, _ = run_cli(capsys, "ratio-study", "--k", "3", "--kind", "clique", "--n-range", "9")
        assert code == 2

    @pytest.mark.parametrize("n_range", ["5:3", "0:4"])
    def test_empty_or_nonpositive_range(self, capsys, n_range):
        code = main(["ratio-study", "--k", "3", "--kind", "clique", "--n-range", n_range])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: invalid n range {n_range}\n"

    def test_structured(self, capsys):
        code, out = run_cli(
            capsys,
            "ratio-study",
            "--k",
            "3",
            "--kind",
            "clique",
            "--n-range",
            "3:5",
            "--format",
            "structured",
        )
        assert code == 0
        doc = json.loads(out)
        assert [row["tau"] for row in doc["rows"]] == [1, 2, 4]


class TestVerify:
    def test_triangle_single_edge_feasible(self, capsys, triangle_file, tmp_path):
        cover = tmp_path / "cover.txt"
        cover.write_text("3\n0 1\n")
        code, out = run_cli(
            capsys,
            "verify",
            triangle_file,
            "--k",
            "3",
            "--kind",
            "cycle",
            "--cover-file",
            str(cover),
        )
        assert code == 0
        assert parse_kv(out)["feasible"] == "true"

    def test_adjacent_pair_infeasible_on_k4(self, capsys, k4_file, tmp_path):
        cover = tmp_path / "cover.txt"
        cover.write_text("4\n0 1\n0 2\n")
        code, out = run_cli(
            capsys, "verify", k4_file, "--k", "3", "--kind", "cycle", "--cover-file", str(cover)
        )
        assert code == 1
        assert parse_kv(out)["feasible"] == "false"

    def test_empty_cover_feasible_without_structures(self, capsys, square_file, tmp_path):
        cover = tmp_path / "cover.txt"
        cover.write_text("4\n")
        code, out = run_cli(
            capsys, "verify", square_file, "--k", "3", "--kind", "cycle", "--cover-file", str(cover)
        )
        assert code == 0

    def test_foreign_edges_rejected(self, capsys, triangle_file, tmp_path):
        cover = tmp_path / "cover.txt"
        cover.write_text("5\n3 4\n0 1\n2 4\n")
        code = main(
            ["verify", triangle_file, "--k", "3", "--kind", "cycle", "--cover-file", str(cover)]
        )
        assert code == 2
        assert "cover contains edges not in the graph: 2-4,3-4" in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_cover_output_byte_identical(self, capsys, k4_file, fmt):
        args = [
            "cover", k4_file, "--k", "3", "--kind", "cycle",
            "--algorithm", "improved", "--format", fmt,
        ]
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_all_commands_byte_identical(self, capsys, k4_file, tmp_path):
        cover = tmp_path / "cover.txt"
        cover.write_text("4\n0 3\n1 2\n")
        commands = [
            ["cover", k4_file, "--k", "3", "--kind", "clique"],
            ["exact", k4_file, "--k", "3", "--kind", "cycle"],
            ["pack", k4_file, "--k", "3"],
            ["ratio-study", "--k", "3", "--kind", "clique", "--n-range", "3:5"],
            ["verify", k4_file, "--k", "3", "--kind", "cycle", "--cover-file", str(cover)],
        ]
        for argv in commands:
            _, first = run_cli(capsys, *argv)
            _, second = run_cli(capsys, *argv)
            assert first == second, f"nondeterministic output for {argv}"


class TestSubprocessEntry:
    def test_module_invocation_and_exit_code(self, tmp_path):
        path = tmp_path / "k4.txt"
        path.write_text(K4)
        proc = subprocess.run(
            [sys.executable, "-m", "kcover.cli", "exact", str(path), "--k", "3", "--kind", "cycle"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "weight=2" in proc.stdout

    def test_wall_time_not_on_stdout(self, tmp_path):
        path = tmp_path / "k4.txt"
        path.write_text(K4)
        proc = subprocess.run(
            [sys.executable, "-m", "kcover.cli", "cover", str(path), "--k", "3", "--kind", "cycle"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert not any(line.startswith("wall_time") for line in proc.stdout.splitlines())
        assert any(line.startswith("wall_time_seconds=") for line in proc.stderr.splitlines())

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kcover.cli", "cover"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
