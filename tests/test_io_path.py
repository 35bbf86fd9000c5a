"""The block-at-a-time text writes and reads and the single-buffer binary
format against the reference bodies they replaced.

``format_rows`` joins the text of ``io._text_blocks``, the one generator
every text writer sends: its header lines, then each block's rows, a run
of non-empty rows formatted by the numpy ``%.17g`` kernel (``io._g17``),
which hands the values it cannot prove to ``%`` one at a time.
``parse_table`` converts a block of lines with one ``np.loadtxt`` call,
which hands a block it rejects to the per-row path (``io._parse_rows``).
The reference functions below are the per-element versions they replaced.

Formatting must match byte for byte, also on random bit patterns, every
binary exponent, the neighbours of powers of 2 and 10, decade carries,
exact ties and hypothesis floats, with each fallback taken where it must
be; parsing must match bitwise, also on random bit patterns across block
boundaries, with the per-row path taken exactly for the blocks
``np.loadtxt`` rejects and no warning raised, and every malformed table must
fail with the reference's exact message.  The text writers send the file in
blocks of rows; the file must be the reference text of the whole table.  A
writer refuses a table with a count of 0, as its reader would, before it
opens a temp file.  ``read_matrix`` decodes a text file line by line; it
must split the lines and fail exactly as a decode of the whole file does.
Both text readers decode UTF-8 whatever the locale.
"""

import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neucmds import io
from neucmds.embedding import Embedding
from neucmds.io import (
    BINARY,
    MAGIC,
    format_rows,
    parse_table,
    read_matrix,
    read_points,
    write_embedding,
    write_matrix,
    write_points,
)
from neucmds.metrics import StressReport

from conftest import random_hollow


# ---------------------------------------------------------------- references

def ref_format_rows(head, rows):
    lines = list(head)
    lines.extend(" ".join(f"{v:.17g}" for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def ref_parse_table(text, name="matrix", square=True):
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{name}: line 1: empty file")
    expected = "the matrix order" if square else "'n d'"
    head = lines[0].split()
    if len(head) != (1 if square else 2):
        raise ValueError(f"{name}: line 1: expected {expected}, got {lines[0]!r}")
    counts = []
    for j, tok in enumerate(head):
        try:
            counts.append(int(tok))
        except ValueError:
            raise ValueError(
                f"{name}: line 1, column {j + 1}: expected {expected}, got {tok!r}"
            ) from None
        if counts[-1] < 1:
            raise ValueError(f"{name}: line 1, column {j + 1}: count must be positive, got {tok}")
    n, d = (counts[0], counts[0]) if square else counts
    if len(lines) < n + 1:
        raise ValueError(f"{name}: expected {n} rows, file has {len(lines) - 1}")
    out = np.empty((n, d))
    for i in range(n):
        parts = lines[i + 1].split()
        if len(parts) != d:
            raise ValueError(f"{name}: line {i + 2}: expected {d} values, got {len(parts)}")
        for j, tok in enumerate(parts):
            try:
                out[i, j] = float(tok)
            except ValueError:
                raise ValueError(
                    f"{name}: line {i + 2}, column {j + 1}: not a number: {tok!r}"
                ) from None
    for i in range(n + 1, len(lines)):
        if lines[i].strip():
            raise ValueError(f"{name}: line {i + 1}: unexpected content after the {n} rows")
    return out


def ref_binary(m):
    m = np.ascontiguousarray(m, dtype=np.float64)
    return MAGIC + bytes([1]) + struct.pack("<Q", m.shape[0]) + m.astype("<f8").tobytes()


# ---------------------------------------------------------------- formatting

SPECIAL = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 1e308, -1e308,
    1.7976931348623157e308, -1.7976931348623157e308, np.nan, np.inf, -np.inf,
    0.1, 1.0 / 3.0, 123456789012345678.0, -2.5, 1e16, 1e-5,
])


def special_rows(rng, n, d):
    """Random rows of widely spread magnitudes with special values mixed in."""
    m = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-300, 300, size=(n, d))
    mask = rng.random((n, d)) < 0.3
    m[mask] = rng.choice(SPECIAL, size=int(mask.sum()))
    return m


@pytest.mark.parametrize("n, d", [(1, 1), (1, 19), (7, 1), (40, 40), (3, 257)])
def test_format_rows_matches_reference(n, d):
    rows = special_rows(np.random.default_rng(n * 1000 + d), n, d)
    head = [f"{n} {d}"]
    assert format_rows(head, rows) == ref_format_rows(head, rows)


def test_format_rows_every_special_value():
    rows = [SPECIAL, SPECIAL[::-1], SPECIAL[:1]]
    assert format_rows(["x"], rows) == ref_format_rows(["x"], rows)


@pytest.mark.parametrize("rows", [
    [np.empty(0)],                    # the axis-value row of a k=0 embedding
    [np.empty(0), *np.empty((0, 5))],  # ... and its zero coordinate rows
    [np.empty(0), np.array([1.5]), np.empty(0)],
    [*np.empty((3, 0)), np.array([1.5, -2.0]), np.array([3.0]), *np.empty((2, 0))],
    [],
], ids=["axis-row", "k0-embedding", "mixed", "runs", "no-rows"])
def test_format_rows_empty_rows(rows):
    head = ["5 0", ""]
    assert format_rows(head, rows) == ref_format_rows(head, rows)


def test_format_rows_embedding_rows():
    # write_embedding passes the axis-value row and the coordinate rows
    rng = np.random.default_rng(3)
    axis_values = rng.normal(size=4)
    coords = special_rows(rng, 4, 30)
    rows = [axis_values, *coords]
    assert format_rows(["30 4", "1 -1 1 -1"], rows) == ref_format_rows(["30 4", "1 -1 1 -1"], rows)


def test_format_rows_one_column_points():
    p = special_rows(np.random.default_rng(4), 25, 1)
    assert format_rows(["25 1"], p) == ref_format_rows(["25 1"], p)


def test_format_rows_round_trips_bitwise():
    m = special_rows(np.random.default_rng(5), 30, 30)
    m[np.isnan(m)] = 0.0  # a parsed nan is the canonical one
    parsed = parse_table(format_rows(["30"], m))
    assert parsed.tobytes() == m.tobytes()


# ---------------------------------------------------------------- formatting: the %.17g kernel

def assert_percent_bytes(x):
    """One row of x formats to ``%``'s text, across ``io._CHUNK`` boundaries."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    assert format_rows([], [x]) == ref_format_rows([], [x])


@pytest.fixture
def fallen(monkeypatch):
    """The values the kernel hands to ``%`` one at a time, as a list."""
    seen = []
    percent = io._percent

    def recording(values):
        seen.extend(values.tolist())
        return percent(values)

    monkeypatch.setattr(io, "_percent", recording)
    return seen


def test_kernel_on_random_bit_patterns():
    bits = np.random.default_rng(11).integers(0, 2**64, size=3 * io._CHUNK + 5, dtype=np.uint64)
    assert_percent_bytes(bits.view(np.float64))


def test_kernel_on_every_binary_exponent():
    rng = np.random.default_rng(12)
    exponent = np.repeat(np.arange(2048, dtype=np.uint64), 16)
    mantissa = rng.integers(0, 2**52, size=exponent.size, dtype=np.uint64)
    sign = rng.integers(0, 2, size=exponent.size, dtype=np.uint64)
    assert_percent_bytes((sign << 63 | exponent << 52 | mantissa).view(np.float64))


def test_kernel_next_to_powers_of_two_and_ten():
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024),
                             [10.0 ** e for e in range(-323, 309)]])
    near = [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    x = np.concatenate(near)
    assert_percent_bytes(np.concatenate([x, -x]))


def test_kernel_carries_to_the_next_decade(fallen):
    # 10.0**e a hair below 10**e: its 17 digits round up to 1 followed by zeros,
    # one decade above the exponent of the value
    carries = [v for e in range(-250, 250)
               for v in (10.0 ** e, math.nextafter(10.0 ** e, 0.0))
               if Fraction(v) < Fraction(10) ** e == Fraction("%.17g" % v)]
    assert len(carries) >= 5
    assert_percent_bytes(carries)
    assert fallen == []


def exact_ties():
    """x = m / 2**(17 - E), m odd, x in [10**E, 10**(E+1)): exactly 18
    significant digits, the last a 5, so its 17 digits are an exact tie."""
    rng = np.random.default_rng(13)
    ties = []
    for e in range(16):
        scale = 2 ** (17 - e)
        m = rng.integers(10 ** e * scale, min(10 ** (e + 1) * scale, 2 ** 53), size=8) | 1
        ties.extend((m / scale).tolist())
    return ties


def test_exact_ties_go_through_percent(fallen):
    ties = exact_ties()
    for v in ties:
        e = math.floor(math.log10(v))
        assert (Fraction(v) * 10 ** (16 - e)).denominator == 2  # an exact tie
    assert_percent_bytes(ties)
    assert fallen == ties


NEAR_TIE = 4503599627990024 / 2**52  # |x * 10**16 mod 1 - 1/2| = 5.2e-8


@pytest.mark.parametrize("v", [
    np.inf, -np.inf, np.nan, 0.0, -0.0,                        # not finite, or 0
    5e-324, 1e-300, -9.9e-281, 1.0000000000000001e281, 1e300,  # out of the tables' range
    1.7976931348623157e308, 131073 / 131072, NEAR_TIE,        # the largest; a tie; a near tie
], ids=repr)
def test_each_fallback_branch(v, fallen):
    ordinary = [0.1, -2.5, 1e-280, 1e280, 123456.789]
    assert_percent_bytes([*ordinary, v, *ordinary])
    assert fallen == [v] or (math.isnan(v) and len(fallen) == 1 and math.isnan(fallen[0]))


def test_the_near_tie_is_near():
    f = Fraction(NEAR_TIE) * 10 ** 16 % 1
    assert f != Fraction(1, 2) and abs(f - Fraction(1, 2)) <= Fraction(1, 10 ** 6)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_kernel_on_hypothesis_floats(values):
    assert_percent_bytes(values)


def test_embedding_write_holds_one_block_of_text(tmp_path):
    # the 51 rows of a 50 x 3000 embedding are one block: 3 MiB of text
    rng = np.random.default_rng(14)
    coords = rng.normal(size=(50, 3000))
    axis_values = rng.normal(size=50)
    emb = Embedding(coords=coords, signature=np.where(axis_values < 0.0, -1, 1),
                    axis_values=axis_values, axis_indices=np.arange(50))
    rep = StressReport(0.0, 0.0, None, None, None, 0.0, None, 0, 0)
    write_embedding(tmp_path / "w.txt", emb, rep)  # the kernel's tables built, untraced
    tracemalloc.start()
    try:
        write_embedding(tmp_path / "e.txt", emb, rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


# ---------------------------------------------------------------- parsing: valid

VALID_TOKENS = ["1_0", "١٢", "Infinity", "-Infinity", "inf", "-inf", "nan", "NaN", "-0",
                "+1.5", "1e400", "-1e400", "1E-400", ".5", "5.", "0000.1", "4.9e-324",
                "1.7976931348623157e308", "١٠.٥"]
SEPARATORS = [" ", "\t", "  ", " \t ", " ", "\xa0"]


def assert_same_table(text, square=True):
    got = parse_table(text, square=square)
    want = ref_parse_table(text, square=square)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_parse_valid_square(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    tokens = rng.choice(VALID_TOKENS + [repr(v) for v in rng.normal(size=20).tolist()], size=(n, n))
    lines = [f"{n}"]
    for row in tokens:
        seps = rng.choice(SEPARATORS, size=n - 1)
        line = row[0] + "".join(s + t for s, t in zip(seps, row[1:]))
        lines.append(rng.choice(["", " ", "\t"]) + line + rng.choice(["", " ", "\t"]))
    assert_same_table("\n".join(lines) + rng.choice(["", "\n", "\n\n \t\n", "\r\n"]))


@pytest.mark.parametrize("text", [
    "2\n0 1\n1 0\x0c\n",           # a form feed ends a line: a trailing blank line
    "2\r\n0\t1_0\r\n1_0\t0\r\n",
    "1\n١\n",
    "2\n Infinity  -0\n\t-Infinity\t1e-400\n\n   \n",
    "3\n" + "\n".join(" ".join(["%.17g" % v for v in r]) for r in special_rows(
        np.random.default_rng(8), 3, 3)) + "\n",
])
def test_parse_valid_square_special(text):
    assert_same_table(text)


@pytest.mark.parametrize("n, d", [(1, 1), (9, 1), (5, 3), (2, 40)])
def test_parse_valid_points(n, d):
    rng = np.random.default_rng(n + d)
    p = special_rows(rng, n, d)
    text = ref_format_rows([f"{n} {d}"], p).replace(" ", "\t")
    assert_same_table(text, square=False)


def test_parse_large_square():
    m = random_hollow(np.random.default_rng(6), 300, scale=1e6)
    assert_same_table(ref_format_rows(["300"], m))


# ---------------------------------------------------------------- parsing: malformed

BAD_TOKENS = ["x", "0x10", "1e", "True", "1__0", "_1", "1_", "infinit", "nanx",
              "١٢x", "1,5", "−1", "--1", "1.2.3", "++1"]


def assert_same_error(text, square=True):
    with pytest.raises(ValueError) as want:
        ref_parse_table(text, name="m.txt", square=square)
    with pytest.raises(ValueError) as got:
        parse_table(text, name="m.txt", square=square)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("column", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize("bad", BAD_TOKENS)
def test_bad_token_is_named(bad, column):
    rows = [["0", "1", "2", "3", "4"] for _ in range(5)]
    rows[3][column] = bad
    assert_same_error("5\n" + "\n".join(" ".join(r) for r in rows) + "\n")


@pytest.mark.parametrize("text", [
    "",
    "\n",
    "abc\n",
    "2 2\n0 1\n1 0\n",
    "0\n",
    "-1\n",
    "3\n0 1 2\n1 0 3\n",                # fewer rows than declared
    "3\n0 1 2\n\n1 0 3\n2 3 0\n",       # a blank line inside the body
    "3\n0 1 2\n1 0\n2 3 0\n",           # a short row
    "3\n0 1 2\n1 0 3 4\n2 3 0\n",       # a long row
    "2\n0 1\n1 0\ngarbage\n",           # trailing content
    "2\n0 1\n1 0\n\n\t\n7\n",           # trailing content after blank lines
    "2\n0 x y\n1 0\n",                  # wrong count and bad tokens: the count first
    "2\n0 x\ny 0\n",                    # the first bad row is reported
    "2\n0 1 x\x0c1 0\n",                # a form feed splits the row
    "2\n0 nan(1)\n1 0\n",
    # no comment character, quote or delimiter to np.loadtxt: each is part of a token
    "2\n0 1#\n1 0\n",
    "3\n0 1 2 # a comment\n1 0 3\n2 3 0\n",
    '2\n0 "1"\n1 0\n',
    "2\n0,1\n1,0\n",
])
def test_malformed_square(text):
    assert_same_error(text)


@pytest.mark.parametrize("text", [
    "",
    "3\n",
    "a 2\n",
    "2 b\n",
    "2 0\n",
    "2 2\n1 2\n3 x\n",
    "2 2\n1 2\n",
    "2 1\n0.5\n1.5\n\n7\n",
    "2 2\n1 2 3\n4 5\n",
])
def test_malformed_points(text):
    assert_same_error(text, square=False)


# ---------------------------------------------------------------- parsing: blocks of lines

def blocks_of(lines):
    """The blocks ``parse_table`` hands to ``np.loadtxt``: runs of whole lines
    of at most ``io.TEXT_BLOCK_CHARS`` characters, or one longer line."""
    blocks, size = [], 0
    for line in lines:
        if not blocks or size + len(line) > io.TEXT_BLOCK_CHARS:
            blocks.append([])
            size = 0
        blocks[-1].append(line)
        size += len(line)
    return blocks


@pytest.fixture
def paths(monkeypatch):
    """The blocks ``np.loadtxt`` is called on and the blocks the per-row path
    gets, as two lists of lists of lines."""
    loaded, fallen = [], []
    loadtxt, rows = np.loadtxt, io._parse_rows

    def load(block, *args, **kwargs):
        loaded.append(list(block))
        return loadtxt(block, *args, **kwargs)

    def per_row(out, block, start, name):
        fallen.append(list(block))
        return rows(out, block, start, name)

    monkeypatch.setattr(np, "loadtxt", load)
    monkeypatch.setattr(io, "_parse_rows", per_row)
    return loaded, fallen


@pytest.mark.parametrize("shape", [(1, 1), (3, 1), (2000, 1), (1500, 3), (150, 150), (400, 400)])
def test_written_files_take_only_the_block_path(shape, paths, tmp_path):
    n, d = shape
    m = special_rows(np.random.default_rng(n + d), n, d)
    m[np.isnan(m)] = 0.0  # a parsed nan is the canonical one
    path = tmp_path / "t.txt"
    if d == n:
        write_matrix(path, m)
        got = read_matrix(path)
    else:
        write_points(path, m)
        got = read_points(path)
    assert got.tobytes() == m.tobytes()
    loaded, fallen = paths
    assert loaded == blocks_of(path.read_text().splitlines()[1:])
    assert fallen == []
    assert len(loaded) > 1 or n <= 3


@pytest.mark.parametrize("token, falls", [("1_0", True), ("١٢", True), ("١٠.٥", True),
                                          ("\xa0", False)], ids=["underscore", "arabic-indic",
                                                                 "arabic-indic-point", "nbsp"])
def test_only_the_blocks_loadtxt_rejects_take_the_per_row_path(token, falls, paths):
    # np.loadtxt rejects underscores and non-ASCII digits, which float() accepts;
    # it splits on every character str.split splits on, NBSP included
    rng = np.random.default_rng(9)
    n, d = 900, 3
    rows = [[repr(v) for v in row] for row in rng.normal(size=(n, d)).tolist()]
    special = sorted(rng.choice(n, size=6, replace=False).tolist()) + [0, n - 1]
    for i in special:
        if token == "\xa0":
            rows[i] = ["\xa0".join(rows[i])]
        else:
            rows[i][int(rng.integers(d))] = token
    body = [" ".join(row) for row in rows]
    text = "\n".join([f"{n} {d}", *body]) + "\n"
    got = parse_table(text, square=False)
    assert got.tobytes() == ref_parse_table(text, square=False).tobytes()
    loaded, fallen = paths
    blocks = blocks_of(body)
    assert loaded == blocks
    assert fallen == ([b for b in blocks if any(body[i] in b for i in special)] if falls else [])
    assert 1 < len(fallen) < len(blocks) or not falls


@pytest.mark.parametrize("text", [
    "1\n0\n",
    "1\n0\n\n \t\n\xa0\n",                   # trailing blank and whitespace-only lines
    "3 1\n1\n2\n3\n\n\n",
    "2 3\n1 2 3\n4 5 6",
    "3\n0 1 2\n\n1 0 3\n2 3 0\n",             # a blank row inside the body
    "3\n0 1 2\n \t\n1 0 3\n2 3 0\n",         # a whitespace-only row
    "3\n\n0 1 2\n1 0 3\n",                     # a blank first row
    "500 1\n" + "1\n" * 250 + "\n" * 250,      # a block's worth of blank rows
    "400 2\n" + "1 2\n" * 399 + "\xa0\n",       # the last row whitespace-only
    # a whitespace-only row that starts a block of its own
    f"{io.TEXT_BLOCK_CHARS + 1} 1\n" + "1\n" * io.TEXT_BLOCK_CHARS + " \t\n",
])
def test_parse_raises_no_warning(text, tmp_path):
    square = len(text.split("\n", 1)[0].split()) == 1
    path = tmp_path / "t.txt"
    path.write_bytes(text.encode())
    read = read_matrix if square else read_points
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(lambda t: parse_table(t, name=str(path), square=square), text) == \
            outcome(lambda t: ref_parse_table(t, name=str(path), square=square), text)
        assert outcome(read, path) == outcome(lambda p: ref_parse_table(
            p.read_text(encoding="utf-8"), name=str(p), square=square), path)


@pytest.mark.parametrize("d, width", [(1, 2), (3, 4), (3, 1)])
def test_a_block_of_wrong_width_rows_is_named(d, width):
    # np.loadtxt parses a block of rows of one wrong width without an error,
    # and one column would broadcast into d: the shape must catch it
    tok = "0.12345678901234567"
    good, wrong = " ".join([tok] * d), " ".join([tok] * width)
    k = io.TEXT_BLOCK_CHARS // len(good)
    rows = [good] * k + [wrong] * k
    rows[0] = " " * (io.TEXT_BLOCK_CHARS - k * len(good)) + good  # the first block full
    assert blocks_of(rows)[1][0] == wrong  # the wrong rows start the second block
    assert_same_error("\n".join([f"{2 * k} {d}", *rows]) + "\n", square=False)


BIT_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, np.inf, -np.inf,
                np.nan]


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from(["points", "matrix", "column"]), size=st.integers(0, 300),
       seed=st.integers(0, 2**32 - 1), specials=st.floats(0.0, 0.5))
def test_bit_patterns_round_trip_through_blocks(shape, size, seed, specials):
    # short lines whose blocks break mid-file, long lines of one block each, d = 1
    n, d = {"points": (200 + size, 3), "matrix": (100 + size, 100 + size),
            "column": (1 + 5 * size, 1)}[shape]
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 2**64, size=(n, d), dtype=np.uint64).view(np.float64)
    mask = rng.random((n, d)) < specials
    m[mask] = rng.choice(BIT_SPECIALS, size=int(mask.sum()))
    text = format_rows([str(n)] if d == n else [f"{n} {d}"], m)
    got = parse_table(text, square=d == n)
    assert got.tobytes() == ref_parse_table(text, square=d == n).tobytes()
    m[np.isnan(m)] = np.nan  # a parsed nan is the canonical one
    assert got.tobytes() == m.tobytes()


# ---------------------------------------------------------------- text reader

LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


def ref_read_text(path):
    """The whole-file decode that read_matrix's line-by-line decode replaced."""
    with open(path, "rb") as fh:
        return ref_parse_table(fh.read().decode(), name=str(path))


def outcome(read, path):
    try:
        return "ok", read(path).tobytes()
    except ValueError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("seed", range(12))
def test_text_read_splits_lines_like_the_whole_file(seed, tmp_path):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    rows = [str(n)] + [" ".join(str(v) for v in rng.normal(size=n).tolist()) for _ in range(n)]
    rows += [""] * int(rng.integers(0, 3)) + ["7"] * int(rng.random() < 0.2)
    breaks = rng.choice(LINE_BREAKS, size=len(rows))
    text = "".join(r + str(b) for r, b in zip(rows, breaks))
    if rng.random() < 0.5:
        text = text[:-len(breaks[-1])]  # no line break at the end of the file
    path = tmp_path / "m.txt"
    path.write_bytes(text.encode())
    assert outcome(read_matrix, path) == outcome(ref_read_text, path)


@pytest.mark.parametrize("data", [
    b"2\n0 1\n1 \xff0\n",              # an undecodable byte: the file offset is named
    b"x\n0 1\n1 0\n\xe2\x82\n",         # after a header error: the decode error wins
    b"2\n0 x\n1 0\n\n\xc3",             # after a bad row: the decode error wins
    b"2\n0 1\n1 0\n\xff",               # trailing bytes only
    b"\xef\xbb\xbf2\n0 1\n1 0\n",       # a byte-order mark is part of the header
    "2\n0 1\n1 0\u2028\n".encode(),     # a multi-byte line break
])
def test_text_read_errors_are_the_whole_file_errors(data, tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    assert outcome(read_matrix, path) == outcome(ref_read_text, path)


def test_text_read_never_holds_the_file_as_one_object(tmp_path):
    n = 200
    m = random_hollow(np.random.default_rng(4), n)
    path = tmp_path / "m.txt"
    path.write_text(ref_format_rows([str(n)], m))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        got = read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == m.tobytes()
    # the lines and the result; a whole-file read holds two copies of the file at once
    assert peak < 1.5 * size + m.nbytes


def test_points_read_never_holds_the_file_as_one_object(tmp_path):
    p = np.random.default_rng(5).normal(size=(400, 50))
    path = tmp_path / "p.txt"
    path.write_text(ref_format_rows(["400 50"], p))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        got = read_points(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == p.tobytes()
    # the lines and the result; a whole-file read holds two copies of the file at once
    assert peak < 1.5 * size + p.nbytes


def test_text_read_holds_the_result_and_one_line(tmp_path):
    n = 300
    m = random_hollow(np.random.default_rng(7), n)
    path = tmp_path / "m.txt"
    path.write_text(ref_format_rows([str(n)], m))
    line = max(len(raw) for raw in path.read_bytes().splitlines())
    tracemalloc.start()
    try:
        got = read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == m.tobytes()
    # the result, and one block at a time, here one line: decoded and parsed by
    # np.loadtxt into 4-byte characters; the file is 1.8 MiB, the longest line 7 KiB
    assert peak < m.nbytes + 16 * line


def test_short_line_read_holds_the_result_and_one_block(tmp_path):
    p = np.random.default_rng(15).normal(size=(20000, 3))
    path = tmp_path / "p.txt"
    write_points(path, p)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        got = read_points(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == p.tobytes()
    # the result, and one block of about 120 lines: decoded, and parsed by
    # np.loadtxt into 4-byte characters; the file is 1.2 MB
    assert peak < p.nbytes + 8 * io.TEXT_BLOCK_CHARS < 1.5 * size + p.nbytes


# Python's UTF-8 mode and locale coercion off: the locale decodes ASCII only
ASCII_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
READ_BOTH = """
import locale, sys
from neucmds.io import read_matrix, read_points
assert locale.getpreferredencoding(False) != "UTF-8"
print(read_matrix(sys.argv[1]).tolist(), read_points(sys.argv[2]).tolist())
"""


def test_text_readers_decode_utf8_in_an_ascii_locale(tmp_path):
    # U+00A0 is whitespace to str.split and two bytes in UTF-8
    (tmp_path / "m.txt").write_bytes("2\n0\u00a01\n1 0\n".encode())
    (tmp_path / "p.txt").write_bytes("2 2\n1\u00a02\n3 4\n".encode())
    src = str(Path(io.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", READ_BOTH, str(tmp_path / "m.txt"), str(tmp_path / "p.txt")],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath, **ASCII_LOCALE))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[[0.0, 1.0], [1.0, 0.0]] [[1.0, 2.0], [3.0, 4.0]]\n"


def test_points_decode_error_names_the_file_offset(tmp_path):
    path = tmp_path / "p.txt"
    path.write_bytes(b"2 1\n1\n\xff\n")
    with pytest.raises(UnicodeDecodeError, match="in position 6:"):
        read_points(path)


# ---------------------------------------------------------------- text writers

BLOCK = io.TEXT_BLOCK_ROWS
BLOCK_SIZES = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_text_matrix_write_is_the_reference_bytes(n, tmp_path):
    m = special_rows(np.random.default_rng(n), n, n)
    path = tmp_path / "m.txt"
    write_matrix(path, m)
    assert path.read_bytes() == ref_format_rows([str(n)], m).encode()


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_points_write_is_the_reference_bytes(n, tmp_path):
    p = special_rows(np.random.default_rng(n + 1), n, 3)
    path = tmp_path / "p.txt"
    write_points(path, p)
    assert path.read_bytes() == ref_format_rows([f"{n} 3"], p).encode()


@pytest.mark.parametrize("k", [0, 1, BLOCK - 1, BLOCK, BLOCK + 5])
def test_embedding_write_is_the_reference_bytes(k, tmp_path):
    rng = np.random.default_rng(k)
    n = 20
    axis_values = special_rows(rng, 1, k)[0]
    emb = Embedding(
        coords=special_rows(rng, k, n),
        signature=np.where(axis_values < 0.0, -1, 1),
        axis_values=axis_values,
        axis_indices=np.arange(k),
    )
    path = tmp_path / "e.txt"
    write_embedding(path, emb, StressReport(0.0, 0.0, None, None, None, 0.0, None, 0, 0))
    head = [f"{n} {k}", " ".join(str(int(s)) for s in emb.signature)]
    want = ref_format_rows(head, [axis_values, *emb.coords])
    assert path.read_bytes() == want.encode()


def test_failed_text_write_leaves_the_old_file(tmp_path):
    path = tmp_path / "p.txt"
    path.write_bytes(b"old")
    p = np.zeros((2 * BLOCK + 1, 2), dtype=object)
    p[-1, 0] = "x"  # fails in the last block, after two blocks were written
    with pytest.raises(TypeError):
        write_points(path, p)
    assert [q.name for q in tmp_path.iterdir()] == ["p.txt"]
    assert path.read_bytes() == b"old"


@pytest.mark.parametrize("write, table", [
    (write_matrix, np.empty((0, 0))),
    (lambda path, m: write_matrix(path, m, BINARY), np.empty((0, 0))),
    (write_matrix, np.empty((3, 0))),
    (write_points, np.empty((0, 3))),
    (write_points, np.empty((3, 0))),
], ids=["matrix-text-n0", "matrix-bin-n0", "matrix-no-columns", "points-n0", "points-d0"])
def test_writers_refuse_a_count_their_readers_refuse(write, table, tmp_path, monkeypatch):
    # a header count of 0 fails every reader, so it fails the writer before a temp file
    def unreachable(*files):
        raise AssertionError("a temp file was opened for a table with a count of 0")

    monkeypatch.setattr(io, "_write_files", unreachable)
    path = tmp_path / "t"
    message = f"{path}: count must be positive, got shape {table.shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write(path, table)


# ---------------------------------------------------------------- binary

@pytest.mark.parametrize("n", [1, 2, 33])
def test_binary_write_is_the_reference_bytes(n, tmp_path):
    m = special_rows(np.random.default_rng(n), n, n)
    path = tmp_path / "m.bin"
    write_matrix(path, m, BINARY)
    assert path.read_bytes() == ref_binary(m)
    back = read_matrix(path)
    assert back.tobytes() == m.tobytes()
    assert back.dtype == np.float64 and back.flags.c_contiguous and back.flags.writeable


def test_binary_write_of_a_strided_view(tmp_path):
    m = special_rows(np.random.default_rng(2), 8, 8)
    view = m.T  # Fortran order: written row-major all the same
    path = tmp_path / "m.bin"
    write_matrix(path, view, BINARY)
    assert path.read_bytes() == ref_binary(view)


@pytest.mark.parametrize("mutate, message", [
    (lambda b: b[:-1], "m.bin: expected 813 bytes for n=10, got 812"),
    (lambda b: b + b"\0", "m.bin: expected 813 bytes for n=10, got 814"),
    (lambda b: b[:13], "m.bin: expected 813 bytes for n=10, got 13"),
    (lambda b: b[:12], "m.bin: truncated binary header"),
    (lambda b: b[:4], "m.bin: truncated binary header"),
    (lambda b: b[:4] + b"\x02" + b[5:], "m.bin: unsupported binary version 2"),
    (lambda b: b[:5] + struct.pack("<Q", 2 ** 40) + b[13:],
     f"m.bin: expected {13 + 8 * 2 ** 80} bytes for n={2 ** 40}, got 813"),
    (lambda b: b[:5] + bytes(8), "m.bin: count must be positive, got n=0"),
    (lambda b: b[:5] + bytes(8) + b[13:], "m.bin: count must be positive, got n=0"),
], ids=["one-byte-short", "one-byte-long", "header-only", "short-header", "magic-only",
        "version", "huge-n", "n-0", "n-0-with-entries"])
def test_malformed_binary(mutate, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_matrix("m.bin", random_hollow(np.random.default_rng(1), 10), BINARY)
    with open("m.bin", "r+b") as fh:
        blob = mutate(fh.read())
        fh.seek(0)
        fh.truncate()
        fh.write(blob)
    with pytest.raises(ValueError) as info:
        read_matrix("m.bin")
    assert str(info.value) == message


def test_missing_magic_with_forced_binary(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_matrix("m.txt", random_hollow(np.random.default_rng(1), 3))
    with pytest.raises(ValueError) as info:
        read_matrix("m.txt", BINARY)
    assert str(info.value) == "m.txt: missing binary magic"


def test_text_file_shorter_than_a_header(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1\n0\n")
    np.testing.assert_array_equal(read_matrix(path), [[0.0]])


def test_failed_write_leaves_the_old_file(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"old")
    with pytest.raises(TypeError):
        io._write_files((path, [b"head", object()]))  # fails after the first chunk
    assert [p.name for p in tmp_path.iterdir()] == ["m.bin"]
    assert path.read_bytes() == b"old"


def test_write_replaces_a_symlink_to_a_directory(tmp_path):
    # os.replace swaps the link itself, so the directory check must not follow it
    (tmp_path / "dir").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "dir")
    io.write_json(tmp_path / "link", {"a": 1})
    assert not (tmp_path / "link").is_symlink()
    assert (tmp_path / "link").read_text() == '{\n  "a": 1\n}\n'
    assert os.listdir(tmp_path / "dir") == []


MODES = """
import os
import sys
from neucmds.datasets import gen_random_simplex
from neucmds.embedding import embed, report
from neucmds.io import BINARY, write_csv, write_embedding, write_json, write_matrix, write_points
mask = int(sys.argv[1], 8)
os.umask(mask)
os.chdir(sys.argv[2])
d = gen_random_simplex(6, seed=1)
write_matrix("m.txt", d)
write_matrix("m.bin", d, BINARY)
write_points("p.txt", d)
emb = embed(d, 2)
write_embedding("e.txt", emb, report(d, emb))
write_json("j.json", {"a": 1})
write_csv("t.csv", ["a"], [[1]])
assert os.umask(0) == mask, "a writer changed the umask"
"""


@pytest.mark.parametrize("umask, mode", [("022", 0o644), ("077", 0o600)])
def test_written_files_get_the_mode_open_gives(umask, mode, tmp_path):
    src = str(Path(io.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", MODES, umask, str(tmp_path)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr
    modes = {p.name: oct(p.stat().st_mode & 0o777) for p in tmp_path.iterdir()}
    names = ["e.txt", "e.txt.report.json", "j.json", "m.bin", "m.txt", "p.txt", "t.csv"]
    assert modes == {name: oct(mode) for name in names}


def test_writers_never_touch_the_umask(tmp_path, monkeypatch):
    # setting the umask to read it would give a file another thread creates
    # meanwhile mode 0600; the kernel applies it to os.open's 0o666 instead
    def fail(*args, **kwargs):
        raise AssertionError("a writer called os.umask")
    monkeypatch.setattr(os, "umask", fail)
    d = random_hollow(np.random.default_rng(2), 4)
    emb = Embedding(coords=d[:2], signature=np.array([1, -1]), axis_values=np.array([2.0, -1.0]),
                    axis_indices=np.arange(2))
    write_embedding(tmp_path / "e.txt", emb,
                    StressReport(0.0, 0.0, None, None, None, 0.0, None, 0, 0))
    write_matrix(tmp_path / "m.txt", d)
    write_matrix(tmp_path / "m.bin", d, BINARY)
    io.write_csv(tmp_path / "t.csv", ["a"], [[1]])
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "e.txt", "e.txt.report.json", "m.bin", "m.txt", "t.csv"]
