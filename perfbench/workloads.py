"""Workload definitions and the output checks of the neucmds benchmark.

Every workload is one CLI command run through ``neucmds.cli.main(argv)`` on
inputs generated from the benchmark seed.  The checks here use plain numpy
and the files the command wrote; they never call into ``neucmds``, so a
defect in the package cannot vouch for itself.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

MAGIC = b"NMDS"
BINARY_HEADER = 13  # magic, version byte, little-endian u64 n

IDENTITY_RTOL = 1e-8  # |stress_sq - (c1+c2+c3)| <= IDENTITY_RTOL * stress_sq
RECOMPUTE_RTOL = 1e-7  # numpy stress from the written files vs the report
REFERENCE_RTOL = 1e-8  # quality_err of the reference instance vs reference.json

METHODS = ("cmds", "neuc", "neuc-plus")
C_LIST = (0.1, 0.25, 0.5, 0.75, 0.9)


class CheckFailed(Exception):
    """An output of the command under test is wrong."""


@dataclass(frozen=True)
class Size:
    n: int
    k: int = 0
    k_list: tuple[int, int, int] | None = None  # inclusive a:b:step
    landmarks: int = 0
    trials: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # embed, sweep, landmark or rmt
    why: str
    generator: str | None  # "simplex" or "balls"; None when there is no input file
    fmt: str  # "text" or "bin"
    sizes: dict[str, Size]
    # per-layer metrics the traced run must see above zero on this workload
    layers: tuple[str, ...]

    def input_name(self) -> str | None:
        if self.generator is None:
            return None
        return "input.txt" if self.fmt == "text" else "input.bin"

    def setup_argv(self, size: str, seed: int, input_path: str | None) -> list[str] | None:
        if input_path is None:
            return None
        argv = ["generate", "--kind", self.generator, "--n", str(self.sizes[size].n),
                "--seed", str(seed), "--output", input_path]
        if self.fmt == "bin":
            argv += ["--format", "bin"]
        return argv

    def command_argv(self, size: str, seed: int, input_path: str | None, output: str) -> list[str]:
        s = self.sizes[size]
        if self.kind == "embed":
            return ["embed", "--input", input_path, "--k", str(s.k), "--method", "neuc",
                    "--output", output]
        if self.kind == "sweep":
            a, b, step = s.k_list
            return ["sweep", "--input", input_path, "--format", "bin",
                    "--k-list", f"{a}:{b}:{step}", "--output", output]
        if self.kind == "landmark":
            return ["landmark", "--input", input_path, "--format", "bin", "--k", str(s.k),
                    "--landmarks", str(s.landmarks), "--seed", "1", "--method", "neuc",
                    "--output", output]
        return ["rmt", "--n", str(s.n), "--c-list", ",".join(str(c) for c in C_LIST),
                "--trials", str(s.trials), "--method", "neuc", "--seed", str(seed),
                "--output", output]

    def output_files(self, output: str) -> list[str]:
        """Every file one invocation writes, given its --output path."""
        if self.kind in ("embed", "landmark"):
            return [output, output + ".report.json"]
        return [output]

    def check(self, size: str, output: str, d: np.ndarray | None) -> float:
        """Check one invocation's outputs; return its quality_err."""
        s = self.sizes[size]
        if self.kind == "embed":
            return check_embedding(output, d, s.k, landmark=False)
        if self.kind == "landmark":
            return check_embedding(output, d, s.k, landmark=True)
        if self.kind == "sweep":
            a, b, step = s.k_list
            return check_sweep(output, d, list(range(a, b + 1, step)))
        return check_rmt(output)


_CLI_READ = ("cli.read_s", "cli.read_bytes")
_CLI_WRITE = ("cli.write_s", "cli.write_bytes")
_SETUP = ("datasets.gen_s", "setup.cli.write_s", "setup.cli.write_bytes")
_ALWAYS = ("command_s", "cli.self_s", "linalg.eig_s", "linalg.eig_calls",
           "linalg.eig_multiple", "selection.select_s", "selection.select_calls")
_METRICS = ("metrics.report_s", "metrics.stress_s", "metrics.scaled_additive_s",
            "metrics.distortion_s", "metrics.negativity_s")

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="embed-text",
        kind="embed",
        why="default CLI path: text matrix in, embed k=100; the only workload dominated by cli reads",
        generator="simplex",
        fmt="text",
        sizes={"full": Size(n=1000, k=100), "tiny": Size(n=60, k=10)},
        layers=_ALWAYS + _CLI_READ + _CLI_WRITE + _SETUP + _METRICS + (
            "linalg.check_s", "linalg.check_calls", "linalg.center_s", "embedding.coords_s",
            "embedding.reconstruct_s", "embedding.reconstruct_calls", "metrics.decompose_s"),
    ),
    Workload(
        name="sweep-bin",
        kind="sweep",
        why="45-point k x method grid on one eigh; binary read bypasses cli parsing, reconstruct and reports dominate",
        generator="simplex",
        fmt="bin",
        sizes={"full": Size(n=1000, k_list=(20, 300, 20)), "tiny": Size(n=60, k_list=(2, 30, 2))},
        layers=_ALWAYS + _CLI_READ + _CLI_WRITE + _SETUP + _METRICS + (
            "linalg.check_s", "linalg.check_calls", "linalg.center_s", "embedding.coords_s",
            "embedding.reconstruct_s", "embedding.reconstruct_calls", "metrics.decompose_s"),
    ),
    Workload(
        name="landmark-bin",
        kind="landmark",
        why="largest n, memory-bound n^2 reconstruct and metrics on a small 500x500 eigensolve; the only landmark workload",
        generator="balls",
        fmt="bin",
        sizes={"full": Size(n=3000, k=50, landmarks=500), "tiny": Size(n=60, k=5, landmarks=20)},
        layers=_ALWAYS + _CLI_READ + _CLI_WRITE + _SETUP + _METRICS + (
            "linalg.check_s", "linalg.check_calls", "linalg.center_s", "embedding.coords_s",
            "embedding.reconstruct_s", "embedding.reconstruct_calls",
            "landmark.fit_s", "landmark.triangulate_s"),
    ),
    Workload(
        name="rmt-lab",
        kind="rmt",
        why="no input file: eight Wigner eigensolves whose vectors are discarded, selection at k up to 900",
        generator=None,
        fmt="text",
        sizes={"full": Size(n=1000, trials=8), "tiny": Size(n=60, trials=2)},
        layers=_ALWAYS + ("cli.write_s", "cli.write_bytes", "rmt.sample_s", "rmt.select_s",
                          "rmt.theory_s"),
    ),
)}


# ---------------------------------------------------------------- readers

def read_input(path: str, fmt: str) -> np.ndarray:
    """The dissimilarity matrix a workload generated, read with numpy alone."""
    if fmt == "bin":
        with open(path, "rb") as fh:
            head = fh.read(BINARY_HEADER)
        if head[:4] != MAGIC:
            raise CheckFailed(f"{path}: missing binary magic")
        n = int.from_bytes(head[5:13], "little")
        return np.fromfile(path, dtype="<f8", offset=BINARY_HEADER).reshape(n, n)
    return np.loadtxt(path, skiprows=1, ndmin=2)


def _read_embedding(path: str):
    with open(path) as fh:
        lines = fh.read().splitlines()
    n, k = (int(v) for v in lines[0].split())
    signature = np.array(lines[1].split(), dtype=np.int64)
    axis_values = np.array(lines[2].split(), dtype=np.float64)
    coords = np.array(" ".join(lines[3:]).split(), dtype=np.float64)
    if signature.shape != (k,) or axis_values.shape != (k,) or coords.size != k * n:
        raise CheckFailed(f"{path}: embedding body does not match header n={n} k={k}")
    return signature, axis_values, coords.reshape(k, n)


def _signed_dissim(g: np.ndarray) -> np.ndarray:
    y = np.diagonal(g)
    d_hat = y[:, None] + y[None, :] - 2.0 * g
    np.fill_diagonal(d_hat, 0.0)
    return d_hat


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * abs(b) + atol


def _check_identity(where: str, row: dict) -> None:
    ssq = row["stress_sq"]
    total = row["c1"] + row["c2"] + row["c3"]
    if not abs(ssq - total) <= IDENTITY_RTOL * ssq:
        raise CheckFailed(f"{where}: stress_sq {ssq!r} != c1+c2+c3 {total!r}")


def _check_stress_fields(where: str, row: dict) -> None:
    if not (math.isfinite(row["stress_sq"]) and row["stress_sq"] >= 0.0):
        raise CheckFailed(f"{where}: stress_sq {row['stress_sq']!r} is not a finite square")
    if not _close(row["stress"], math.sqrt(row["stress_sq"]), 1e-12):
        raise CheckFailed(f"{where}: stress {row['stress']!r} != sqrt(stress_sq)")


# ---------------------------------------------------------------- checks

def check_embedding(output: str, d: np.ndarray, k: int, landmark: bool) -> float:
    """embed/landmark: report identity, and stress recomputed from the files."""
    report_path = output + ".report.json"
    with open(report_path) as fh:
        report = json.load(fh)
    signature, axis_values, coords = _read_embedding(output)
    n = d.shape[0]
    if coords.shape[1] != n:
        raise CheckFailed(f"{output}: {coords.shape[1]} points, input has {n}")
    # landmark drops vanishing axes, so it may return fewer than k
    if coords.shape[0] > k or (not landmark and coords.shape[0] != k):
        raise CheckFailed(f"{output}: {coords.shape[0]} axes, asked for {k}")
    if not np.array_equal(signature, np.where(axis_values < 0.0, -1, 1)):
        raise CheckFailed(f"{output}: signature does not match the axis-value signs")
    _check_stress_fields(report_path, report)
    if landmark:
        if any(report[c] is not None for c in ("c1", "c2", "c3")):
            raise CheckFailed(f"{report_path}: landmark report must have null c1/c2/c3")
    else:
        _check_identity(report_path, report)
    if report["neg_axes_count"] != int(np.sum(signature < 0)):
        raise CheckFailed(f"{report_path}: neg_axes_count disagrees with the signature")

    d_hat = _signed_dissim(coords.T @ (signature[:, None] * coords))
    recomputed = float(np.sum((d_hat - d) ** 2))
    norm_sq = float(np.sum(d * d))
    if not _close(recomputed, report["stress_sq"], RECOMPUTE_RTOL, 1e-12 * norm_sq):
        raise CheckFailed(
            f"{report_path}: stress_sq {report['stress_sq']!r}, numpy recomputes {recomputed!r}")
    return math.sqrt(report["stress_sq"] / norm_sq)


def _cmds_stress(d: np.ndarray, k_values: list[int]) -> dict[int, float]:
    """Classical MDS stress for each k, computed independently with numpy."""
    n = d.shape[0]
    row = d.mean(axis=1, keepdims=True)
    b = -0.5 * (d - row - row.T + d.mean())
    lam, u = np.linalg.eigh(0.5 * (b + b.T))
    lam, u = lam[::-1], u[:, ::-1]
    out = {}
    for k in k_values:
        vals = np.maximum(lam[:k], 0.0)
        g = (u[:, :k] * vals) @ u[:, :k].T
        out[k] = float(np.sum((_signed_dissim(g) - d) ** 2)) if n else 0.0
    return out


def check_sweep(output: str, d: np.ndarray, k_values: list[int]) -> float:
    """sweep: the (k, method) grid, the identity per row, cmds rows vs numpy."""
    with open(output, newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = [(k, m) for k in k_values for m in METHODS]
    if len(rows) != len(expected):
        raise CheckFailed(f"{output}: {len(rows)} rows, expected {len(expected)}")
    norm = float(np.linalg.norm(d))
    cmds = _cmds_stress(d, k_values)
    rel = []
    for i, (raw, (k, method)) in enumerate(zip(rows, expected), start=2):
        where = f"{output}: line {i}"
        if int(raw["k"]) != k or raw["method"] != method:
            raise CheckFailed(f"{where}: row ({raw['k']}, {raw['method']}), expected ({k}, {method})")
        row = {key: float(raw[key]) for key in ("stress_sq", "stress", "c1", "c2", "c3")}
        _check_stress_fields(where, row)
        _check_identity(where, row)
        if method == "cmds" and not _close(row["stress_sq"], cmds[k], RECOMPUTE_RTOL, 1e-12 * norm * norm):
            raise CheckFailed(f"{where}: cmds stress_sq {row['stress_sq']!r}, numpy gives {cmds[k]!r}")
        rel.append(math.sqrt(row["stress_sq"]) / norm)
    return float(np.mean(rel))


def check_rmt(output: str) -> float:
    """rmt: one row per c, rel_err consistent; quality is mean empirical/theory."""
    with open(output, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(C_LIST):
        raise CheckFailed(f"{output}: {len(rows)} rows, expected {len(C_LIST)}")
    ratios = []
    for i, (raw, c) in enumerate(zip(rows, C_LIST), start=2):
        where = f"{output}: line {i}"
        c_out, r, theory, empirical, rel_err = (
            float(raw[key]) for key in ("c", "r", "theory", "empirical", "rel_err"))
        if c_out != c:
            raise CheckFailed(f"{where}: c={c_out!r}, expected {c!r}")
        if not (0.0 < r < 2.0 and theory > 0.0 and empirical > 0.0):
            raise CheckFailed(f"{where}: r, theory and empirical must be positive, r < 2")
        if not _close(rel_err, (empirical - theory) / theory, 1e-12, 1e-15):
            raise CheckFailed(f"{where}: rel_err {rel_err!r} != (empirical - theory) / theory")
        ratios.append(empirical / theory)
    return float(np.mean(ratios))
