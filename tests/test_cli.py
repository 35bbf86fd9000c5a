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
        header = lines[0].split(",")
        for line in lines[1:]:  # the entrywise columns are left to embed
            row = dict(zip(header, line.split(",")))
            assert row["avg_distortion"] == row["neg_dissim_count"] == ""

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

    def test_overflow_is_four(self, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text("3\n0 1e308 1e308\n1e308 0 1e308\n1e308 1e308 0\n")
        out = tmp_path / "o.txt"
        proc = run_cli("embed", "--input", big, "--k", "1", "--output", out)
        assert proc.returncode == 4
        assert "numerical error: double centering overflowed" in proc.stderr
        assert "symmetric" not in proc.stderr
        assert not out.exists()

    def test_oversized_header_is_three(self, tmp_path):
        # a PiB-scale header: the parser must reject line 2 before allocating
        pts = tmp_path / "midd.txt"
        pts.write_text("3 1000000000000000\n1 2\n1 2\n1 2\n")
        out = tmp_path / "d.txt"
        proc = run_cli("perturb", "--input", pts, "--kind", "knn", "--output", out)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            f"error: {pts}: line 2: expected 1000000000000000 values, got 2"]
        assert not out.exists()

    def test_oversized_square_header_is_a_line_2_error(self):
        n = 10 ** 15

        class Lines:  # n + 1 lines without holding them
            def __len__(self):
                return n + 1

            def __getitem__(self, i):
                return str(n) if i == 0 else "0 1"

        with pytest.raises(ValueError) as info:
            parse_table(Lines(), name="m.txt")
        assert str(info.value) == f"m.txt: line 2: expected {n} values, got 2"

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

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_rmt_without_trials_is_three(self, trials, tmp_path, capsys):
        out = tmp_path / "rmt.csv"
        assert main(["rmt", "--n", "20", "--c-list", "0.3", "--trials", trials,
                     "--output", str(out)]) == 3
        assert capsys.readouterr().err == f"error: trials must be at least 1, got {trials}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("method, c, code, message", [
        ("cmds", "0.7", 3, "error: cmds selected fraction must be in (0, 0.5], got 0.7\n"),
        # rmt offers cmds and neuc alone, so argparse rejects neuc-plus as a usage error
        ("neuc-plus", "0.3", 2, "neucmds rmt: error: argument --method: invalid choice: "
                                "'neuc-plus' (choose from 'cmds', 'neuc')\n"),
    ], ids=["cmds-0.7-cmds selected fraction", "neuc-plus-0.3-mode must be cmds or neuc"])
    def test_rmt_rejects_c_and_mode_before_sampling(self, method, c, code, message, tmp_path,
                                                    monkeypatch, capsys):
        from neucmds import rmt

        def fail(*args, **kwargs):
            raise AssertionError("sampled before checking --c-list and --method")
        monkeypatch.setattr(rmt, "_draw_upper", fail)
        out = tmp_path / "rmt.csv"
        try:
            status = main(["rmt", "--n", "20", "--c-list", c, "--method", method,
                           "--output", str(out)])
        except SystemExit as exc:  # argparse's usage error
            status = exc.code
        assert status == code
        err = capsys.readouterr().err
        assert err == message if code == 3 else err.endswith(message)  # after argparse's usage
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--methods", "cmds,cmds"], "--methods 'cmds,cmds': token 2 repeats 'cmds'"),
        (["sweep", "--methods", "neuc,plus,neuc-plus"],
         "--methods 'neuc,plus,neuc-plus': token 3 repeats 'neuc-plus'"),
        (["sweep", "--methods", ""], "--methods '': token 1 is empty"),
        (["sweep", "--methods", "cmds,"], "--methods 'cmds,': token 2 is empty"),
        (["rmt", "--c-list", "0.3,,0.4"], "--c-list '0.3,,0.4': token 2 is empty"),
        (["rmt", "--c-list", ""], "--c-list '': token 1 is empty"),
        (["rmt", "--c-list", "0.3,0.30"], "--c-list '0.3,0.30': token 2 repeats 0.3"),
    ], ids=["repeat", "alias-repeat", "sweep-empty", "sweep-trailing", "rmt-inner", "rmt-empty",
            "rmt-repeat"])
    def test_list_arguments_reject_repeats_and_empty_tokens(self, argv, message, tmp_path,
                                                            monkeypatch, capsys):
        from neucmds import cli, embedding, rmt

        def fail(*args, **kwargs):
            raise AssertionError("read or solved before checking the list argument")
        for module, name in ((cli, "read_matrix"), (embedding, "_eig_lower"), (rmt, "_draw_upper")):
            monkeypatch.setattr(module, name, fail)
        out = tmp_path / "out.csv"
        rest = (["--input", str(tmp_path / "d.txt"), "--k-list", "1:3"] if argv[0] == "sweep"
                else ["--n", "20"])
        assert main([*argv, *rest, "--output", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["rmt", "embed"])
def test_eigensolver_failure_is_four(command, tmp_path, monkeypatch, capsys):
    # LinAlgError subclasses ValueError, which is a data error (exit 3)
    from neucmds import embedding, rmt

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(rmt if command == "rmt" else embedding, "_eig_lower", fail)
    if command == "rmt":
        argv = ["rmt", "--n", "20", "--c-list", "0.3"]
    else:
        inp = tmp_path / "d.txt"
        write_matrix(inp, gen_random_simplex(9, seed=2), TEXT)
        argv = ["embed", "--input", str(inp), "--k", "2"]
    out = tmp_path / "out"
    assert main([*argv, "--output", str(out)]) == 4
    assert capsys.readouterr().err == "numerical error: Eigenvalues did not converge\n"
    assert not out.exists() and not Path(f"{out}.report.json").exists()


def test_impossible_size_is_four(tmp_path, capsys):
    # the sampler's first request, the n x n sample, exceeds any address space
    # and fails at once, before any draw
    out = tmp_path / "rmt.csv"
    assert main(["rmt", "--n", str(10**15), "--c-list", "0.3", "--output", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical error: Unable to allocate an array with shape "
                          "(1000000000000000, 1000000000000000)")
    assert err.count("\n") == 1
    assert not out.exists()


# VmHWM, not ru_maxrss: Linux carries the spawning parent's peak into the
# child's ru_maxrss across exec, and the test process may be large
RMT_PEAK = """
import sys
from neucmds.cli import main
code = main(["rmt", "--n", "100000000", "--c-list", "0.3", "--output", sys.argv[1]])
with open("/proc/self/status") as fh:
    print(code, next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def test_unallocatable_sample_fails_before_the_index_vectors(tmp_path):
    # at n = 1e8 the 71.1 PiB sample cannot be mapped; the first strip's draws
    # (95 GiB) or a boolean upper-triangle mask's index vectors (763 MiB)
    # would be filled first if they ran before it
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", RMT_PEAK, str(tmp_path / "rmt.csv")],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 4
    assert proc.stderr.startswith("numerical error: Unable to allocate 71.1 PiB")
    assert peak_kib < 100 * 1024
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sigma", ["nan", "inf"])
@pytest.mark.parametrize("command", ["rmt", "perturb"])
def test_non_finite_sigma_is_three_before_sampling(command, sigma, tmp_path, monkeypatch,
                                                    capsys):
    from neucmds import datasets, rmt

    def fail(*args, **kwargs):
        raise AssertionError("sampled with a non-finite sigma")
    monkeypatch.setattr(rmt, "_draw_upper", fail)
    monkeypatch.setattr(datasets, "_rng", fail)
    if command == "rmt":
        argv = ["rmt", "--n", "20", "--c-list", "0.3"]
    else:
        points = tmp_path / "p.txt"
        write_points(points, np.random.default_rng(0).normal(size=(6, 2)))
        argv = ["perturb", "--input", str(points), "--kind", "noise"]
    out = tmp_path / "out.txt"
    assert main([*argv, "--sigma", sigma, "--output", str(out)]) == 3
    assert capsys.readouterr().err == f"error: sigma must be positive and finite, got {sigma}\n"
    assert not out.exists()


MATRIX_COMMANDS = [
    ["embed", "--k", "2"],
    ["select", "--k", "2"],
    ["sweep", "--k-list", "1:3"],
    ["landmark", "--k", "2", "--landmarks", "5"],
]
MATRIX_COMMAND_IDS = ["embed", "select", "sweep", "landmark"]


@pytest.mark.parametrize("fmt", [TEXT, BINARY])
@pytest.mark.parametrize("argv", MATRIX_COMMANDS, ids=MATRIX_COMMAND_IDS)
def test_each_call_validates_its_input_once(argv, fmt, tmp_path, monkeypatch):
    from neucmds import cli, embedding, landmark, linalg

    n = 9
    inp = tmp_path / "d"
    write_matrix(inp, gen_random_simplex(n, seed=2), fmt)
    calls = []
    for module in (cli, embedding, landmark, linalg):
        if not hasattr(module, "check_dissimilarity"):
            continue

        def counted(d, *args, _fn=module.check_dissimilarity, **kwargs):
            if np.shape(d) == (n, n):
                calls.append(kwargs.get("name", args[0] if args else None))
            return _fn(d, *args, **kwargs)
        monkeypatch.setattr(module, "check_dissimilarity", counted)
    assert main([*argv, "--input", str(inp), "--output", str(tmp_path / "out")]) == 0
    assert calls == [str(inp)]  # once, under the name of the input file


@pytest.mark.parametrize("argv", MATRIX_COMMANDS, ids=MATRIX_COMMAND_IDS)
def test_invalid_input_is_named_by_its_path(argv, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 1 2\n1 0 3\n2 4 0\n")
    out = tmp_path / "out"
    assert main([*argv, "--input", str(bad), "--output", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: {bad} is not symmetric: entry (1,2)=3.0 but (2,1)=4.0\n")
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("argv, k", [
    (["embed", "--k", "0"], 0),
    (["embed", "--k", "10"], 10),
    (["select", "--k", "10"], 10),
    (["sweep", "--k-list", "0:300:20"], 0),
    (["sweep", "--k-list", "1:30:4"], 13),
], ids=["embed-zero", "embed-above-n", "select-above-n", "sweep-zero", "sweep-above-n"])
def test_k_is_checked_before_the_eigensolve(argv, k, tmp_path, monkeypatch, capsys):
    from neucmds import embedding

    def fail(*args, **kwargs):
        raise AssertionError("solved before checking k")
    monkeypatch.setattr(embedding, "_eig_lower", fail)
    inp = tmp_path / "d.txt"
    write_matrix(inp, gen_random_simplex(9, seed=2), TEXT)
    assert main([*argv, "--input", str(inp), "--output", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"error: k must satisfy 1 <= k <= 9, got {k}\n"
    assert list(tmp_path.iterdir()) == [inp]


SEEDED_COMMANDS = {
    "generate": ["generate", "--kind", "simplex", "--n", "5"],
    "perturb-noise": ["perturb", "--kind", "noise", "--input", "p.txt"],
    "perturb-missing": ["perturb", "--kind", "missing", "--input", "p.txt"],
    "rmt": ["rmt", "--n", "10", "--c-list", "0.3"],
    "landmark": ["landmark", "--k", "2", "--landmarks", "5", "--input", "d.txt"],
}


@pytest.mark.parametrize("argv", SEEDED_COMMANDS.values(), ids=SEEDED_COMMANDS.keys())
def test_negative_seed_is_three(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_points("p.txt", np.random.default_rng(0).normal(size=(6, 2)))
    write_matrix("d.txt", gen_random_simplex(8, seed=1), TEXT)
    assert main([*argv, "--seed", "-1", "--output", "out"]) == 3
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
    assert sorted(os.listdir(tmp_path)) == ["d.txt", "p.txt"]


@pytest.mark.parametrize("argv", [
    ["embed", "--input", "d.txt", "--k", "2"],
    ["sweep", "--input", "d.txt", "--k-list", "2"],
    ["generate", "--kind", "balls", "--n", "5"],
], ids=["embed", "sweep", "generate"])
@pytest.mark.parametrize("output", ["missing/e.txt", "taken"], ids=["missing-dir", "a-dir"])
def test_write_errors_name_the_output_path(argv, output, tmp_path, monkeypatch, capsys):
    # the temp file the write goes through is never named, and never left behind
    monkeypatch.chdir(tmp_path)
    write_matrix("d.txt", gen_random_simplex(8, seed=1), TEXT)
    os.mkdir("taken")
    assert main([*argv, "--output", output]) == 3
    reason = ("[Errno 2] No such file or directory" if output.startswith("missing")
              else "[Errno 21] Is a directory")
    assert capsys.readouterr().err == f"error: {reason}: '{output}'\n"
    assert sorted(os.listdir(tmp_path)) == ["d.txt", "taken"]
    assert os.listdir("taken") == []


@pytest.mark.parametrize("k_list", [":", "", "::", "1:", ":3", "1:2:3:4", "1,2"])
def test_k_list_without_integers_is_a_bad_k_list(k_list, tmp_path, capsys):
    inp = tmp_path / "d.txt"
    write_matrix(inp, gen_random_simplex(8, seed=1), TEXT)
    out = tmp_path / "sw.csv"
    assert main(["sweep", "--input", str(inp), "--k-list", k_list, "--output", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: bad k-list {k_list!r}; expected k, a:b or a:b:step\n")
    assert not out.exists()


def test_automatic_noise_scale_of_coincident_points_is_three(tmp_path, capsys):
    points = tmp_path / "same.txt"
    write_points(points, np.tile([[1.5, -2.0]], (3, 1)))  # three copies of one point
    out = tmp_path / "out.txt"
    assert main(["perturb", "--input", str(points), "--kind", "noise",
                 "--output", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: the automatic noise scale needs points that do not all coincide\n")
    assert not out.exists()
    # an explicit --sigma keeps its own message
    assert main(["perturb", "--input", str(points), "--kind", "noise", "--sigma", "0",
                 "--output", str(out)]) == 3
    assert capsys.readouterr().err == "error: sigma must be positive and finite, got 0.0\n"
