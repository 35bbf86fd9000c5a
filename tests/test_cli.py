import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import neucmds
from neucmds.cli import main
from neucmds.io import (
    BINARY,
    TEXT,
    parse_table,
    read_matrix,
    read_points,
    write_matrix,
    write_points,
)
from neucmds.datasets import gen_random_simplex

from conftest import random_hollow


# the child process imports the same package as the tests, installed or not
SRC = str(Path(neucmds.__file__).resolve().parents[1])


def run_cli(*args):
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "neucmds.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    return proc


class TestMatrixIO:
    @pytest.mark.parametrize("fmt", [TEXT, BINARY])
    def test_round_trip_bitwise(self, fmt, tmp_path, rng):
        m = random_hollow(rng, 17, scale=1e6)
        path = tmp_path / f"m.{fmt}"
        write_matrix(path, m, fmt)
        np.testing.assert_array_equal(read_matrix(path), m)

    def test_binary_sniffing(self, tmp_path, rng):
        m = random_hollow(rng, 5)
        path = tmp_path / "m.bin"
        write_matrix(path, m, BINARY)
        np.testing.assert_array_equal(read_matrix(path, fmt=None), m)

    def test_parse_errors_carry_location(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_table("")
        with pytest.raises(ValueError, match="line 1"):
            parse_table("abc\n")
        with pytest.raises(ValueError, match="line 3, column 2"):
            parse_table("2\n0 1\n1 x\n")
        with pytest.raises(ValueError, match="expected 2 values"):
            parse_table("2\n0 1\n1\n")

    @pytest.mark.parametrize("square, text, line", [
        (True, "2\n0 1\n1 0\ngarbage\n", 4),
        (False, "2 1\n0.5\n1.5\n\n7\n", 5),
    ])
    def test_trailing_content_is_rejected(self, square, text, line):
        with pytest.raises(ValueError, match=rf"line {line}: unexpected content after the 2 rows"):
            parse_table(text, square=square)

    def test_trailing_blank_lines_are_allowed(self):
        np.testing.assert_array_equal(parse_table("2\n0 1\n1 0\n\n  \n"), [[0, 1], [1, 0]])

    def test_points_errors_carry_location(self, tmp_path):
        path = tmp_path / "pts.txt"
        for text, where in [("a b\n", "line 1, column 1"), ("2 x\n", "line 1, column 2"),
                            ("2 2\n1 2\n3 x\n", "line 3, column 2")]:
            path.write_text(text)
            with pytest.raises(ValueError, match=where):
                read_points(path)

    def test_truncated_binary(self, tmp_path, rng):
        path = tmp_path / "m.bin"
        write_matrix(path, random_hollow(rng, 4), BINARY)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="expected"):
            read_matrix(path)

    def test_points_round_trip(self, tmp_path, rng):
        p = rng.normal(size=(9, 4))
        path = tmp_path / "pts.txt"
        write_points(path, p)
        np.testing.assert_array_equal(read_points(path), p)


class TestCommands:
    @pytest.mark.parametrize("argv", [
        ["embed", "--k", "3"],
        ["select", "--k", "3"],
        ["sweep", "--k-list", "2:6:2"],
        ["landmark", "--k", "2", "--landmarks", "8"],
    ])
    def test_binary_input_is_detected(self, argv, tmp_path):
        inp = tmp_path / "d.bin"
        write_matrix(inp, gen_random_simplex(12, seed=5), BINARY)
        sniffed, explicit = tmp_path / "a", tmp_path / "b"
        assert main([*argv, "--input", str(inp), "--output", str(sniffed)]) == 0
        assert main([*argv, "--input", str(inp), "--format", "bin", "--output", str(explicit)]) == 0
        assert sniffed.read_bytes() == explicit.read_bytes()

    def test_rmt_has_no_format_option(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["rmt", "--n", "20", "--c-list", "0.5", "--format", "text",
                  "--output", str(tmp_path / "r.csv")])
        assert exc.value.code == 2

    def test_generate_is_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (out1, out2):
            assert main(["generate", "--kind", "simplex", "--n", "40",
                         "--seed", "9", "--output", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        np.testing.assert_array_equal(read_matrix(out1), gen_random_simplex(40, seed=9))

    def test_embed_collinear_exact(self, tmp_path):
        d = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 4.0], [9.0, 4.0, 0.0]])
        inp = tmp_path / "d.txt"
        write_matrix(inp, d, TEXT)
        out = tmp_path / "emb.txt"
        assert main(["embed", "--input", str(inp), "--k", "1",
                     "--method", "neuc", "--output", str(out)]) == 0
        report = json.loads((tmp_path / "emb.txt.report.json").read_text())
        assert report["stress_sq"] <= 1e-9
        header = out.read_text().splitlines()
        assert header[0] == "3 1"
        assert header[1] == "1"

    def test_embed_full_k_recovers(self, tmp_path, rng):
        d = random_hollow(rng, 12)
        inp = tmp_path / "d.bin"
        write_matrix(inp, d, BINARY)
        out = tmp_path / "e.txt"
        assert main(["embed", "--input", str(inp), "--k", "12", "--format", "bin",
                     "--method", "neuc", "--output", str(out)]) == 0
        report = json.loads((tmp_path / "e.txt.report.json").read_text())
        assert report["stress_sq"] <= 1e-8 * np.sum(d * d)

    def test_neuc_beats_cmds_on_simplex(self, tmp_path):
        inp = tmp_path / "d.txt"
        write_matrix(inp, gen_random_simplex(200, seed=3), TEXT)
        stresses = {}
        for method in ("cmds", "neuc"):
            out = tmp_path / f"{method}.txt"
            assert main(["embed", "--input", str(inp), "--k", "20",
                         "--method", method, "--output", str(out)]) == 0
            stresses[method] = json.loads(
                (tmp_path / f"{method}.txt.report.json").read_text())["stress_sq"]
        assert stresses["neuc"] < stresses["cmds"]

    def test_select_reports_bounds(self, tmp_path):
        inp = tmp_path / "d.txt"
        write_matrix(inp, gen_random_simplex(30, seed=1), TEXT)
        out = tmp_path / "sel.json"
        assert main(["select", "--input", str(inp), "--k", "5",
                     "--method", "neuc-plus", "--output", str(out)]) == 0
        sel = json.loads(out.read_text())
        assert sel["method"] == "neuc-plus"
        assert sel["r"] + sel["s"] == 5
        assert len(sel["chosen"]) == 5
        assert sel["objective"] == pytest.approx(sel["bound_c1"] + sel["bound_c2"])

    def test_sweep_csv(self, tmp_path):
        inp = tmp_path / "d.txt"
        write_matrix(inp, gen_random_simplex(25, seed=2), TEXT)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--input", str(inp), "--k-list", "2:10:4",
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("k,method,stress_sq,stress,c1,c2,c3")
        assert len(lines) == 1 + 3 * 3  # three k values, three methods

    def test_perturb_knn(self, tmp_path):
        pts = np.array([[0.0], [1.0], [3.0], [6.0]])
        inp = tmp_path / "pts.txt"
        write_points(inp, pts)
        out = tmp_path / "d.txt"
        assert main(["perturb", "--input", str(inp), "--kind", "knn",
                     "--k-nn", "1", "--output", str(out)]) == 0
        d = read_matrix(out)
        assert d[0, 3] == pytest.approx(36.0)

    def test_rmt_csv_matches_theory_column(self, tmp_path):
        out = tmp_path / "rmt.csv"
        assert main(["rmt", "--n", "300", "--c-list", "0.1,0.5", "--trials", "2",
                     "--method", "neuc", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "c,r,theory,empirical,rel_err"
        from neucmds.rmt import theory_error
        row = lines[1].split(",")
        assert float(row[2]) == pytest.approx(theory_error(300, 1.0, 0.1, "neuc"))
        assert abs(float(row[4])) < 0.25

    def test_landmark_command(self, tmp_path):
        inp = tmp_path / "d.txt"
        write_matrix(inp, gen_random_simplex(60, seed=4), TEXT)
        out = tmp_path / "lm.txt"
        assert main(["landmark", "--input", str(inp), "--k", "6", "--landmarks", "20",
                     "--method", "neuc", "--seed", "1", "--output", str(out)]) == 0
        report = json.loads((tmp_path / "lm.txt.report.json").read_text())
        assert report["c1"] is None
        assert report["stress_sq"] > 0
        assert out.read_text().splitlines()[0] == "60 6"


class TestExitCodes:
    def test_usage_error_is_two(self):
        assert run_cli("embed", "--k", "3").returncode == 2
        assert run_cli("bogus").returncode == 2

    def test_data_error_is_three(self, tmp_path):
        missing = tmp_path / "nope.txt"
        proc = run_cli("embed", "--input", missing, "--k", "1",
                       "--output", tmp_path / "o.txt")
        assert proc.returncode == 3
        assert "error" in proc.stderr

    def test_invalid_matrix_is_three(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n0 1\n2 0\n")  # asymmetric
        proc = run_cli("embed", "--input", bad, "--k", "1",
                       "--output", tmp_path / "o.txt")
        assert proc.returncode == 3
        assert "symmetric" in proc.stderr

    def test_non_finite_entry_is_three(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n0 nan\nnan 0\n")
        proc = run_cli("embed", "--input", bad, "--k", "1", "--output", tmp_path / "o.txt")
        assert proc.returncode == 3
        assert "non-finite entry: (0,1) is nan" in proc.stderr

    def test_text_file_read_as_binary_is_three(self, tmp_path):
        inp = tmp_path / "d.txt"
        write_matrix(inp, gen_random_simplex(5, seed=1), TEXT)
        proc = run_cli("embed", "--input", inp, "--format", "bin", "--k", "1",
                       "--output", tmp_path / "o.txt")
        assert proc.returncode == 3
        assert "missing binary magic" in proc.stderr

    def test_failure_leaves_no_partial_output(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n0 1\n")
        out = tmp_path / "out.txt"
        proc = run_cli("embed", "--input", bad, "--k", "1", "--output", out)
        assert proc.returncode == 3
        assert not out.exists()
        assert not (tmp_path / "out.txt.report.json").exists()
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
        assert leftovers == []
