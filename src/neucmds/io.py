"""File formats.

Matrix files are either text (first line "n", then n whitespace-separated
rows) or binary (magic "NMDS", version byte, little-endian u64 n, then n*n
little-endian float64 row-major).  Point clouds are text only: first line
"n d", then n rows of d floats.  Text tables allow only blank lines after
the declared rows.  Embeddings and their reports, JSON and CSV are written
only, each file to a temp file renamed into place, so a failure leaves no
partial output, nor an embedding without its report.  Text files are
formatted and written ``TEXT_BLOCK_ROWS`` rows at a time, so a write holds
one block of text, not the whole file.

Text values are written with ``%.17g``, so a parsed value round-trips
bitwise, and are parsed with the rules of Python's ``float``.  Both work
one row at a time: a row is converted by one numpy call and formatted by one
``%`` string; only a row that fails to convert is scanned token by token,
to name the failing column.  Text matrix and point files are decoded and
parsed line by line, so a read holds the result and one line.  Binary files
are read into the result array directly and written from the array's own
buffer, with no second n*n copy; they are the format for large n.
"""

from __future__ import annotations

import errno
import itertools
import json
import os
import struct

import numpy as np

MAGIC = b"NMDS"
BINARY_VERSION = 1
_HEADER_BYTES = 13  # magic, version byte, u64 n

TEXT = "text"
BINARY = "bin"

TEXT_BLOCK_ROWS = 128


def _write_files(*files) -> None:
    """Write each (path, chunks) pair's bytes-like chunks to a temp file beside
    path, and rename the temp files to the paths only once all are written and
    no path is a directory (where a rename fails): a failure leaves every path
    as it was and no temp file.  Files get the mode ``open(path, "w")`` gives:
    each temp file is opened with mode 0o666, and the kernel applies the umask."""
    tmps = []
    try:
        for path, chunks in files:
            if os.path.isdir(path) and not os.path.islink(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                               f".tmp-{os.urandom(8).hex()}~")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            tmps.append(tmp)
            with os.fdopen(fd, "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
        for tmp, (path, _) in zip(tmps, files):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if isinstance(exc, OSError):  # name path, not the temp file
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def _text_blocks(head, rows):
    """``format_rows(head, rows)`` as bytes, one block of rows at a time."""
    yield format_rows(head, []).encode()
    for start in range(0, len(rows), TEXT_BLOCK_ROWS):
        yield format_rows([], rows[start:start + TEXT_BLOCK_ROWS]).encode()


def _json(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode()


def format_rows(head, rows) -> str:
    """Header lines, then one line per row of 17-significant-digit values,
    so a parsed value round-trips bitwise."""
    lines = list(head)
    lines.extend(" ".join(["%.17g"] * len(row)) % tuple(row.tolist()) for row in rows)
    return "\n".join(lines) + "\n"


def parse_table(text, name: str = "matrix", square: bool = True) -> np.ndarray:
    """Parse a text table of floats below a header line of counts.

    ``text`` is a str or an iterable of its lines (``str.splitlines``), read
    one at a time.  A square matrix has the header "n" and n rows of n values;
    a point cloud (``square=False``) has the header "n d" and n rows of d
    values.  Errors name the first line in error, and its column where there
    is one.  Lines after the declared rows must be blank.
    """
    lines = iter(text.splitlines() if isinstance(text, str) else text)
    first = next(lines, None)
    if first is None:
        raise ValueError(f"{name}: line 1: empty file")
    expected = "the matrix order" if square else "'n d'"
    head = first.split()
    if len(head) != (1 if square else 2):
        raise ValueError(f"{name}: line 1: expected {expected}, got {first!r}")
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
    rows = 0
    for rows, line in enumerate(itertools.islice(lines, n), 1):
        parts = line.split()
        if len(parts) != d:
            raise ValueError(f"{name}: line {rows + 1}: expected {d} values, got {len(parts)}")
        if rows == 1:  # allocate once a row has shown d values: a header alone may ask any size
            out = np.empty((n, d))
        try:
            out[rows - 1] = np.array(parts, dtype=np.float64)  # float() on each token
        except ValueError:
            for j, tok in enumerate(parts):
                try:
                    float(tok)
                except ValueError:
                    raise ValueError(
                        f"{name}: line {rows + 1}, column {j + 1}: not a number: {tok!r}"
                    ) from None
            raise  # no token fails alone: keep numpy's error
    if rows < n:
        raise ValueError(f"{name}: expected {n} rows, file has {rows}")
    for i, line in enumerate(lines, n + 2):
        if line.strip():
            raise ValueError(f"{name}: line {i}: unexpected content after the {n} rows")
    return out


def _read_table(fh, name: str, square: bool = True) -> np.ndarray:
    """``parse_table`` of a binary handle's lines, each decoded as UTF-8 as it is
    read.  A decode error anywhere in the file is the error, as the whole-file
    decode it raises gives it, with the file offset."""
    fh.seek(0)
    lines = (p for raw in fh for p in raw.decode().splitlines())
    try:
        try:
            return parse_table(lines, name=name, square=square)
        except ValueError:
            for _ in lines:  # the rest of the file, after a parse error
                pass
            raise
    except UnicodeDecodeError:
        fh.seek(0)
        fh.read().decode()
        raise


def write_matrix(path, m: np.ndarray, fmt: str = TEXT) -> None:
    m = np.ascontiguousarray(m, dtype=np.float64)
    if fmt == TEXT:
        _write_files((path, _text_blocks([str(m.shape[0])], m)))
    elif fmt == BINARY:
        header = MAGIC + bytes([BINARY_VERSION]) + struct.pack("<Q", m.shape[0])
        _write_files((path, [header, m.astype("<f8", copy=False)]))  # the array's own buffer
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")


def read_matrix(path, fmt: str | None = None) -> np.ndarray:
    """Read a matrix file; sniffs the binary magic when fmt is None."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_BYTES)
        is_binary = head[:4] == MAGIC
        if not (fmt == BINARY or (fmt is None and is_binary)):
            return _read_table(fh, str(path))
        if not is_binary:
            raise ValueError(f"{path}: missing binary magic")
        if len(head) < _HEADER_BYTES:
            raise ValueError(f"{path}: truncated binary header")
        version = head[4]
        if version != BINARY_VERSION:
            raise ValueError(f"{path}: unsupported binary version {version}")
        (n,) = struct.unpack("<Q", head[5:])
        expected = _HEADER_BYTES + 8 * n * n
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ValueError(f"{path}: expected {expected} bytes for n={n}, got {size}")
        return np.fromfile(fh, dtype="<f8", count=n * n).reshape(n, n)


def read_points(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return _read_table(fh, str(path), square=False)


def write_points(path, p: np.ndarray) -> None:
    _write_files((path, _text_blocks([f"{p.shape[0]} {p.shape[1]}"], p)))


def write_embedding(path, emb, report) -> None:
    """First line "n k", then the signature row, the axis-value row and the
    k x n coordinates; ``report.to_dict()`` goes to ``<path>.report.json`` as
    JSON.  Both files are written, or neither."""
    head = [f"{emb.n} {emb.k}", " ".join(str(int(s)) for s in emb.signature)]
    _write_files((path, _text_blocks(head, [emb.axis_values, *emb.coords])),
                 (f"{path}.report.json", [_json(report.to_dict())]))


def write_json(path, obj) -> None:
    _write_files((path, [_json(obj)]))


def write_csv(path, header, rows) -> None:
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return f"{v:.17g}"
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    _write_files((path, [("\n".join(lines) + "\n").encode()]))
