"""Command-line front end: argument parsing and dispatch.

Commands: embed, select, generate, perturb, sweep, rmt, landmark.  The file
formats live in :mod:`neucmds.io`; commands that read a matrix detect the
binary format from its magic unless ``--format`` is given.

Exit codes: 0 success, 2 usage, 3 data error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from . import rmt as rmtlab
from .datasets import (
    gen_euclidean_ball,
    gen_random_simplex,
    perturb_knn,
    perturb_missing,
    perturb_noise,
)
from .embedding import embed_from_decomposition, report, sweep
from .io import (
    BINARY,
    TEXT,
    read_matrix,
    read_points,
    write_csv,
    write_embedding,
    write_json,
    write_matrix,
)
from .landmark import embed_landmark
from .linalg import check_dissimilarity, double_center, eig_sym
from .metrics import StressReport
from .selection import METHODS, NEUC, PLUS, normalize_method, select

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


# ---------------------------------------------------------------- commands

def _parse_k_list(expr: str) -> list[int]:
    """Either a single integer or an inclusive range 'a:b:step'."""
    if ":" in expr:
        parts = expr.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad k-list {expr!r}; expected a:b or a:b:step")
        a, b = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        if step < 1 or b < a:
            raise ValueError(f"bad k-list {expr!r}")
        return list(range(a, b + 1, step))
    return [int(expr)]


def cmd_embed(args) -> int:
    d = check_dissimilarity(read_matrix(args.input, args.format), name=args.input)
    dec = eig_sym(double_center(d))
    emb = embed_from_decomposition(dec, args.k, args.method)
    rep = report(d, emb, dec)
    write_embedding(args.output, emb)
    write_json(args.output + ".report.json", rep.to_dict())
    return EXIT_OK


def cmd_select(args) -> int:
    d = check_dissimilarity(read_matrix(args.input, args.format), name=args.input)
    sel = select(eig_sym(double_center(d)).eigenvalues, args.k, args.method)
    write_json(args.output, {
        "method": sel.mode,
        "k": sel.k,
        "chosen": [int(i) for i in sel.chosen],
        "r": sel.r,
        "s": sel.s,
        "bound_c1": sel.bound_c1,
        "bound_c2": sel.bound_c2,
        "objective": sel.objective,
    })
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.kind == "simplex":
        d = gen_random_simplex(args.n, seed=args.seed)
    else:
        d = gen_euclidean_ball(args.n, seed=args.seed)
    write_matrix(args.output, d, args.format)
    return EXIT_OK


def cmd_perturb(args) -> int:
    p = read_points(args.input)
    if args.kind == "knn":
        d = perturb_knn(p, args.k_nn)
    elif args.kind == "noise":
        sigma = "auto" if args.sigma is None else args.sigma
        d = perturb_noise(p, sigma=sigma, seed=args.seed)
    else:
        d = perturb_missing(p, args.keep_prob, seed=args.seed)
    write_matrix(args.output, d, args.format)
    return EXIT_OK


def cmd_sweep(args) -> int:
    d = check_dissimilarity(read_matrix(args.input, args.format), name=args.input)
    methods = [normalize_method(m) for m in args.methods.split(",")] if args.methods else list(METHODS)
    entries = sweep(d, _parse_k_list(args.k_list), methods)
    header = ["k", "method", *(f.name for f in fields(StressReport))]
    rows = [[e.k, e.method, *e.report.to_dict().values()] for e in entries]
    write_csv(args.output, header, rows)
    return EXIT_OK


def cmd_rmt(args) -> int:
    mode = normalize_method(args.method)
    if mode == PLUS:
        raise ValueError("rmt supports methods 'cmds' and 'neuc'")
    c_values = [float(tok) for tok in args.c_list.split(",") if tok]
    if not c_values:
        raise ValueError("empty c-list")
    spectra = []
    for trial in range(args.trials):
        b = rmtlab.sample_wigner(args.n, sigma=args.sigma, dist=args.dist, seed=args.seed + trial)
        spectra.append(eig_sym(b).eigenvalues)
    rows = []
    for c in c_values:
        r = rmtlab.solve_r(c, mode)
        theory = rmtlab.theory_error(args.n, args.sigma, c, mode)
        k = max(1, int(round(c * args.n)))
        empirical = float(np.mean([
            rmtlab.empirical_error_from_eigenvalues(lam, k, mode) for lam in spectra
        ]))
        rows.append([c, r, theory, empirical, (empirical - theory) / theory])
    write_csv(args.output, ["c", "r", "theory", "empirical", "rel_err"], rows)
    return EXIT_OK


def cmd_landmark(args) -> int:
    d = check_dissimilarity(read_matrix(args.input, args.format), name=args.input)
    emb = embed_landmark(d, args.landmarks, args.k, method=args.method, seed=args.seed)
    # no spectral split against the full matrix exists for a landmark embedding
    write_json(args.output + ".report.json", report(d, emb).to_dict())
    write_embedding(args.output, emb)
    return EXIT_OK


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neucmds",
        description="Dimension reduction for non-Euclidean dissimilarities "
                    "via signed eigenvalue selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def matrix_input(p):
        p.add_argument("--input", required=True)
        p.add_argument("--format", choices=[TEXT, BINARY], default=None,
                       help="input matrix format (default: bin if the file starts "
                            "with the binary magic, else text)")

    def matrix_output(p):
        p.add_argument("--format", choices=[TEXT, BINARY], default=TEXT,
                       help="output matrix format (default text)")

    def common(p, method=True, seed=True):
        p.add_argument("--output", required=True, help="output path")
        if method:
            p.add_argument("--method", choices=list(METHODS), default=NEUC)
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("embed", help="embed a dissimilarity matrix")
    matrix_input(p)
    p.add_argument("--k", type=int, required=True)
    common(p, seed=False)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("select", help="report the eigenvalue selection only")
    matrix_input(p)
    p.add_argument("--k", type=int, required=True)
    common(p, seed=False)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("generate", help="generate a synthetic dissimilarity matrix")
    p.add_argument("--kind", choices=["simplex", "balls"], required=True)
    p.add_argument("--n", type=int, required=True)
    matrix_output(p)
    common(p, method=False)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("perturb", help="dissimilarities from a perturbed point cloud")
    p.add_argument("--input", required=True, help="points file: first line 'n d'")
    p.add_argument("--kind", choices=["knn", "noise", "missing"], required=True)
    p.add_argument("--k-nn", type=int, default=2, dest="k_nn")
    p.add_argument("--sigma", type=float, default=None,
                   help="noise scale (default: max distance / 500)")
    p.add_argument("--keep-prob", type=float, default=0.5, dest="keep_prob")
    matrix_output(p)
    common(p, method=False)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("sweep", help="stress reports over a k grid")
    matrix_input(p)
    p.add_argument("--k-list", required=True, dest="k_list", help="a:b:step (inclusive)")
    p.add_argument("--methods", default=None, help="comma-separated methods (default all)")
    common(p, method=False, seed=False)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("rmt", help="random-matrix theory vs empirics grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--c-list", required=True, dest="c_list", help="comma-separated fractions k/n")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--dist", choices=[rmtlab.GAUSSIAN, rmtlab.RADEMACHER],
                   default=rmtlab.GAUSSIAN)
    common(p)
    p.set_defaults(func=cmd_rmt)

    p = sub.add_parser("landmark", help="landmark-accelerated embedding")
    matrix_input(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--landmarks", type=int, required=True, help="landmark count m")
    common(p)
    p.set_defaults(func=cmd_landmark)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
