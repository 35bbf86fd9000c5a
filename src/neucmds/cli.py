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
from .embedding import embed, report, spectrum, sweep
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
from .metrics import StressReport
from .selection import METHODS, NEUC, normalize_method, select

EXIT_OK = 0
EXIT_DATA = 3
EXIT_NUMERICAL = 4


# ---------------------------------------------------------------- commands

def _parse_k_list(expr: str) -> range:
    """Either a single integer or an inclusive range 'a:b' or 'a:b:step', as a
    range: a k-list far beyond the matrix order fails at its first bad k."""
    parts = expr.split(":")
    try:  # a part that is no integer, or more than three parts, is a ValueError
        a, b, step = (int(parts[0]), int(parts[-1]), 1) if len(parts) < 3 else map(int, parts)
    except ValueError:
        raise ValueError(f"bad k-list {expr!r}; expected k, a:b or a:b:step") from None
    if step < 1 or b < a:
        raise ValueError(f"bad k-list {expr!r}")
    return range(a, b + 1, step)


def _parse_list(expr: str, option: str, parse) -> list:
    """Parse each comma-separated token of an option value; none may be empty or repeat."""
    values = []
    for i, tok in enumerate(expr.split(","), 1):
        if not tok.strip():
            raise ValueError(f"{option} {expr!r}: token {i} is empty")
        value = parse(tok)
        if value in values:
            raise ValueError(f"{option} {expr!r}: token {i} repeats {value!r}")
        values.append(value)
    return values


def cmd_embed(args) -> None:
    d = read_matrix(args.input, args.format)
    emb = embed(d, args.k, args.method, name=args.input)
    write_embedding(args.output, emb, report(d, emb))


def cmd_select(args) -> None:
    d = read_matrix(args.input, args.format)
    dec, [(k, method)] = spectrum(d, [(args.k, args.method)], args.input, vectors=False)
    sel = select(dec.eigenvalues, k, method)
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


def cmd_generate(args) -> None:
    if args.kind == "simplex":
        d = gen_random_simplex(args.n, seed=args.seed)
    else:
        d = gen_euclidean_ball(args.n, seed=args.seed)
    write_matrix(args.output, d, args.format)


def cmd_perturb(args) -> None:
    p = read_points(args.input)
    if args.kind == "knn":
        d = perturb_knn(p, args.k_nn)
    elif args.kind == "noise":
        sigma = "auto" if args.sigma is None else args.sigma
        d = perturb_noise(p, sigma=sigma, seed=args.seed)
    else:
        d = perturb_missing(p, args.keep_prob, seed=args.seed)
    write_matrix(args.output, d, args.format)


def cmd_sweep(args) -> None:
    methods = _parse_list(args.methods, "--methods", normalize_method)
    k_list = _parse_k_list(args.k_list)
    entries = sweep(read_matrix(args.input, args.format), k_list, methods, name=args.input)
    header = ["k", "method", *(f.name for f in fields(StressReport))]
    rows = [[e.k, e.method, *e.report.to_dict().values()] for e in entries]
    write_csv(args.output, header, rows)


def cmd_rmt(args) -> None:
    rows = rmtlab.lab_table(args.n, _parse_list(args.c_list, "--c-list", float), args.method,
                            sigma=args.sigma, trials=args.trials, dist=args.dist, seed=args.seed)
    write_csv(args.output, rmtlab.LAB_COLUMNS, rows)


def cmd_landmark(args) -> None:
    d = read_matrix(args.input, args.format)
    emb = embed_landmark(d, args.landmarks, args.k, args.method, args.seed, name=args.input)
    write_embedding(args.output, emb, report(d, emb))


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
    p.add_argument("--methods", default=",".join(METHODS),
                   help="comma-separated methods (default all)")
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
        args.func(args)
    # LinAlgError subclasses ValueError, so the numerical handler comes first
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError, MemoryError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        where = f"{args.input}: " if isinstance(exc, UnicodeDecodeError) else ""  # names no file
        print(f"error: {where}{exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
