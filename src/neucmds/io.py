"""File formats.

Matrix files are either text (first line "n", then n whitespace-separated
rows) or binary (magic "NMDS", version byte, little-endian u64 n, then n*n
little-endian float64 row-major).  Point clouds are text only: first line
"n d", then n rows of d floats.  Text tables allow only blank lines after
the declared rows.  Embeddings, JSON reports and CSV tables are written
only.  All writes go to a temp file first and are renamed into place, so
failures leave no partial output.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile

import numpy as np

MAGIC = b"NMDS"
BINARY_VERSION = 1

TEXT = "text"
BINARY = "bin"


def _atomic_write(path, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_rows(head, rows) -> str:
    """Header lines, then one line per row of 17-significant-digit values,
    so a parsed value round-trips bitwise."""
    lines = list(head)
    lines.extend(" ".join(f"{v:.17g}" for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def parse_table(text: str, name: str = "matrix", square: bool = True) -> np.ndarray:
    """Parse a text table of floats below a header line of counts.

    A square matrix has the header "n" and n rows of n values; a point cloud
    (``square=False``) has the header "n d" and n rows of d values.  Errors
    name their line, and their column where there is one.  Lines after the
    declared rows must be blank.
    """
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


def write_matrix(path, m: np.ndarray, fmt: str = TEXT) -> None:
    m = np.ascontiguousarray(m, dtype=np.float64)
    if fmt == TEXT:
        _atomic_write(path, format_rows([str(m.shape[0])], m).encode())
    elif fmt == BINARY:
        header = MAGIC + bytes([BINARY_VERSION]) + struct.pack("<Q", m.shape[0])
        _atomic_write(path, header + m.astype("<f8").tobytes())
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")


def read_matrix(path, fmt: str | None = None) -> np.ndarray:
    """Read a matrix file; sniffs the binary magic when fmt is None."""
    with open(path, "rb") as fh:
        blob = fh.read()
    is_binary = blob[:4] == MAGIC
    if fmt == BINARY or (fmt is None and is_binary):
        if not is_binary:
            raise ValueError(f"{path}: missing binary magic")
        if len(blob) < 13:
            raise ValueError(f"{path}: truncated binary header")
        version = blob[4]
        if version != BINARY_VERSION:
            raise ValueError(f"{path}: unsupported binary version {version}")
        (n,) = struct.unpack("<Q", blob[5:13])
        expected = 13 + 8 * n * n
        if len(blob) != expected:
            raise ValueError(f"{path}: expected {expected} bytes for n={n}, got {len(blob)}")
        return np.frombuffer(blob[13:], dtype="<f8").reshape(n, n).copy()
    return parse_table(blob.decode(), name=str(path))


def read_points(path) -> np.ndarray:
    with open(path) as fh:
        return parse_table(fh.read(), name=str(path), square=False)


def write_points(path, p: np.ndarray) -> None:
    _atomic_write(path, format_rows([f"{p.shape[0]} {p.shape[1]}"], p).encode())


def write_embedding(path, emb) -> None:
    """First line "n k", then the signature row, the axis-value row and the
    k x n coordinates."""
    head = [f"{emb.n} {emb.k}", " ".join(str(int(s)) for s in emb.signature)]
    _atomic_write(path, format_rows(head, [emb.axis_values, *emb.coords]).encode())


def write_json(path, obj) -> None:
    _atomic_write(path, (json.dumps(obj, indent=2) + "\n").encode())


def write_csv(path, header, rows) -> None:
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return f"{v:.17g}"
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    _atomic_write(path, ("\n".join(lines) + "\n").encode())
