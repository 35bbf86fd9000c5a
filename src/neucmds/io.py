"""File formats.

Matrix files are either text (first line "n", then n whitespace-separated
rows) or binary (magic "NMDS", version byte, little-endian u64 n, then n*n
little-endian float64 row-major).  Point clouds are text only: first line
"n d", then n rows of d floats.  Text tables allow only blank lines after
the declared rows.  Embeddings and their reports, JSON and CSV are written
only, each file to a temp file renamed into place, so a failure leaves no
partial output, nor an embedding without its report.  Every text file
comes from one generator, ``_text_blocks``, ``TEXT_BLOCK_ROWS`` rows at a
time, so a write holds one block of text, not the whole file.

Text values are written with ``%.17g``, so a parsed value round-trips
bitwise, and are parsed with the rules of Python's ``float``.  A block of
rows is formatted by whole-array numpy passes that give the bytes ``%``
gives (``_g17``); a value those passes cannot prove exact goes through ``%``
on its own.  Parsing works one block of whole lines at a time, about
``TEXT_BLOCK_CHARS`` of text or one longer line: a block is converted by one
``np.loadtxt`` call, whose C tokenizer and conversion give ``str.split``'s
tokens and ``float``'s values; a block it rejects (``1_0``, non-ASCII digits,
a bad token or count) is converted by ``float`` one token at a time, which
names the first failing line and column.  Text matrix and point files are
decoded line by line, so a read holds the result and one block.  A text file
above ``PARALLEL_BYTES`` is parsed by two processes (``_read_halves``) on
Linux, with two CPUs in the affinity mask, before Python 3.12: a forked child
parses the second half of the body into a shared anonymous map that backs the
result, holding its half of the result, one block and the pages of this
process it writes.  Any failure there, and any other case, reads the file
in this process alone, so results and errors are the serial read's.  Binary
files are read into the result array directly and written from the array's
own buffer, with no second n*n copy; they are the format for large n.
"""

from __future__ import annotations

import errno
import functools
import itertools
import json
import mmap
import os
import signal
import struct
import sys

import numpy as np

MAGIC = b"NMDS"
BINARY_VERSION = 1
_HEADER_BYTES = 13  # magic, version byte, u64 n

TEXT = "text"
BINARY = "bin"

TEXT_BLOCK_ROWS = 128
TEXT_BLOCK_CHARS = 1 << 13  # text per np.loadtxt call of a read, unless one line is longer
PARALLEL_BYTES = 3 << 19  # a larger text table is parsed by two processes (_read_halves)
_COUNT_BYTES = 1 << 16  # bytes per read while counting the newlines before the split


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
    """Header lines, then one line per row of ``%.17g`` values joined by spaces,
    as bytes, ``TEXT_BLOCK_ROWS`` rows at a time.  In a block, a run of empty rows
    is bare newlines, a run of others one array, ``_CHUNK`` values a kernel pass."""
    yield "".join(f"{line}\n" for line in head).encode()
    for start in range(0, len(rows), TEXT_BLOCK_ROWS):
        for filled, run in itertools.groupby(rows[start:start + TEXT_BLOCK_ROWS],
                                             lambda row: len(row) > 0):
            run = list(run)
            if not filled:
                yield b"\n" * len(run)
                continue
            x = np.concatenate(run, dtype=np.float64)
            sep = np.full(len(x), ord(" "), np.uint8)
            sep[np.cumsum([len(row) for row in run]) - 1] = ord("\n")
            for i in range(0, len(x), _CHUNK):
                yield _g17(x[i:i + _CHUNK], sep[i:i + _CHUNK])


def _json(obj) -> bytes:
    return (json.dumps(obj, indent=2, allow_nan=False) + "\n").encode()


# ---------------------------------------------------------------- %.17g kernel
#
# ``_g17`` makes the 17 significant digits D of |x| as an integer: with E the
# decimal exponent, D = round(|x| * 10**(16 - E)), the product taken as an
# error-free Dekker (1971) split product against a (hi, lo) double-double for
# the power of ten, so it is exact to ~1e-14 against the 0.5 a rounding needs.
# It then lays each value out in 32 fixed bytes (four little-endian words:
# sign and "0.000" prefix, 18 bytes of digits and point, exponent, separator)
# with NUL in every unused byte, and deletes the NULs.

_CHUNK = 1 << 14  # values per kernel pass, so its temporaries stay in cache
_SPLIT = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_E_MIN, _E_MAX = -283, 283  # decimal exponents the tables cover
_PROVEN = 1e-280, 1e280  # |x| the kernel formats: every product stays normal
_TIE = 1e-6  # a rounding fraction this close to 1/2 goes through ``%``
_WORD = np.uint64  # eight characters, the first in the low byte


def _split(a):
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


def _word(text: str) -> int:
    return int.from_bytes(text.encode().ljust(8, b"\0"), "little")


@functools.cache
def _tables():
    """The kernel's read-only lookup tables, built from exact integers on the
    first write.  Indexed by E - _E_MIN: the (hi, hh, hl, lo) double-double of
    10**(16 - E) with hi's split, the point position and the least count of
    digits kept in the ``%g`` layout of E, and its prefix and exponent words.
    Then the four characters and the trailing-zero count of each 0..9999, and
    the masks of the first m bytes of the 24-byte digit field, per word."""
    pow10, layout, words = [], [], []
    for e in range(_E_MIN, _E_MAX + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = num / den  # int division rounds correctly, as does lo's below
        hi_num, hi_den = hi.as_integer_ratio()
        pow10.append((hi, *_split(hi), (num * hi_den - hi_num * den) / (den * hi_den)))
        fixed = -4 <= e < 17  # %g's rule at precision 17
        # (digits before the point, digits always shown): the whole integer part
        # when fixed; one digit before an exponent; after a "0.000" prefix, which
        # holds the point, all 17 and none, so the field shows no point
        layout.append((e + 1, e + 1) if 0 <= e < 17 else (17, 0) if fixed else (1, 0))
        prefix = "0." + "0" * (-e - 1) if fixed and e < 0 else ""
        words.append((_word(prefix) << 8, 0 if fixed else _word("\0\0e%+03d" % e)))
    n = np.arange(10000, dtype=np.uint16)
    quad = np.stack([(n // 10 ** p % 10).astype(np.uint8) + ord("0") for p in (3, 2, 1, 0)], axis=1)
    zeros = np.full(10000, 4, np.uint8)
    for z in (4, 3, 2, 1):
        zeros[n % 10 ** z != 0] = z - 1
    masks = [[(1 << 8 * min(max(m - 8 * k, 0), 8)) - 1 for m in range(19)] for k in range(3)]
    tables = (np.array(pow10).T.copy(), np.array(layout, np.intp).T.copy(),
              np.array(words, _WORD).T.copy(), quad.view("<u4").ravel().astype(_WORD),
              zeros, np.array(masks, _WORD))
    for t in tables:
        t.flags.writeable = False
    return tables


def _scaled(ax, e, pow10):
    """floor(ax * 10**(16 - E)) as int64, and the fraction it drops, where e
    indexes E in the tables."""
    hi, hh, hl, lo = (np.take(p, e) for p in pow10)
    ph = ax * hi
    xh, xl = _split(ax)
    t = (xl * hl - (((ph - xh * hh) - xl * hh) - xh * hl)) + ax * lo  # ax*10**p - ph
    floor = np.floor(t)
    return ph.astype(np.int64) + floor.astype(np.int64), t - floor


def _percent(values) -> list:
    """``b'%.17g' % v`` of each value: the values ``_g17`` cannot prove."""
    return [b"%.17g" % v for v in values.tolist()]


def _g17(x, sep) -> bytes:
    """``b''.join(b'%.17g' % v + s for v, s in zip(x, sep))`` for a float64
    array x and a uint8 array of separator bytes.  Values that are not
    finite, are 0, lie outside ``_PROVEN``, or round within ``_TIE`` of a
    tie go through ``_percent``."""
    pow10, layout, words, quad, zeros, masks = _tables()
    ax = np.abs(x)
    ok = (ax >= _PROVEN[0]) & (ax <= _PROVEN[1])
    ax[~ok] = 1.0
    e = np.floor(np.log10(ax)).astype(np.intp) - _E_MIN
    d, frac = _scaled(ax, e, pow10)
    off = (d >= 10 ** 17).astype(np.intp) - (d < 10 ** 16)  # log10 missed E by one
    redo = np.flatnonzero(off)
    e[redo] += off[redo]
    d[redo], frac[redo] = _scaled(ax[redo], e[redo], pow10)
    ok &= (np.abs(frac - 0.5) > _TIE) & (d >= 10 ** 16) & (d < 10 ** 17)
    d += frac > 0.5
    carry = d == 10 ** 17  # 9.99...95 rounds up to the next decade
    d[carry] = 10 ** 16
    e += carry

    # D = a.b1b2c1c2: a leading digit, then four groups of four
    hi = d // 10 ** 8
    lo = (d - hi * 10 ** 8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    a = hi // 10 ** 8
    b = hi - a * 10 ** 8
    b1 = b // 10 ** 4
    b2 = b - b1 * 10 ** 4
    c1 = lo // 10 ** 4
    c2 = lo - c1 * 10 ** 4
    trailing = np.take(zeros, c2)
    z = np.flatnonzero(c2 == 0)
    for group in (c1, b2, b1):
        trailing[z] += zeros[group[z]]
        z = z[group[z] == 0]
    wb = np.take(quad, b1) | np.take(quad, b2) << _WORD(32)  # digits 1-8
    wc = np.take(quad, c1) | np.take(quad, c2) << _WORD(32)  # digits 9-16
    a = a.astype(_WORD) + _WORD(ord("0"))

    out = np.empty((4, len(x)), _WORD)
    field = out[1:]  # digit i at byte i, for the digits before the point
    field[0] = a | wb << _WORD(8)
    field[1] = wb >> _WORD(56) | wc << _WORD(8)
    field[2] = wc >> _WORD(56)
    after = np.empty_like(field)  # digit i at byte i + 1, for those after it
    after[0] = a << _WORD(8) | wb << _WORD(16)
    after[1] = wb >> _WORD(48) | wc << _WORD(16)
    after[2] = wc >> _WORD(48)
    point = np.take(layout[0], e)
    keep = np.maximum(17 - trailing, np.take(layout[1], e))  # digits shown
    keep += keep > point  # and the point, when a digit follows it
    for k in range(3):
        upto = np.take(masks[k], point + 1)
        after[k] &= ~upto
        after[k] |= upto & _WORD(0x2E2E2E2E2E2E2E2E)  # "." at the point
        field[k] ^= after[k]
        field[k] &= np.take(masks[k], point)
        field[k] ^= after[k]
        field[k] &= np.take(masks[k], keep)
    out[0] = np.take(words[0], e) | np.signbit(x).astype(_WORD) * _WORD(ord("-"))
    out[3] |= np.take(words[1], e) | sep.astype(_WORD) << _WORD(56)
    slow = np.flatnonzero(~ok)
    if len(slow):
        out[:3, slow] = np.array(_percent(x[slow]), "S24").view("<u8").reshape(-1, 3).T
        out[3, slow] = sep[slow].astype(_WORD) << _WORD(56)
    return out.T.astype("<u8", copy=False).tobytes().translate(None, b"\0")


def parse_table(text, name: str = "matrix", square: bool = True) -> np.ndarray:
    """Parse a text table of floats below a header line of counts.

    ``text`` is a str or an iterable of its lines (``str.splitlines``), read
    one block of lines at a time (``_parse_block``).  A square matrix has the
    header "n" and n rows of n values; a point cloud (``square=False``) has
    the header "n d" and n rows of d values.  Errors name the first line in
    error, and its column where there is one.  Lines after the declared rows
    must be blank.
    """
    lines = iter(text.splitlines() if isinstance(text, str) else text)
    n, d = _parse_head(next(lines, None), name, square)
    first = list(itertools.islice(lines, 1))
    if first:  # allocate once a row has shown d values: a header alone may ask any size
        _split_row(first[0], 0, d, name)
    return _parse_tail(np.empty((n, d)) if first else None, itertools.chain(first, lines), 0,
                       n, name)


def _parse_head(first, name: str, square: bool) -> tuple:
    """The counts (n, d) of a table's first line, ``first``, which is None in an
    empty file."""
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
    return (counts[0], counts[0]) if square else tuple(counts)


def _parse_span(out, lines, start: int, stop: int, name: str) -> int:
    """Rows ``start:stop`` of out from as many lines, a block at a time; the
    row the lines reached."""
    block, first, size, rows = [], start, 0, start
    for rows, line in enumerate(itertools.islice(lines, stop - start), start + 1):
        if block and size + len(line) > TEXT_BLOCK_CHARS:
            _parse_block(out, block, first, name)
            block, first, size = [], rows - 1, 0
        block.append(line)
        size += len(line)
        if not line or line.isspace():  # no values: np.loadtxt would skip the row, not fail it
            _parse_rows(out, block, first, name)
    if block:
        _parse_block(out, block, first, name)
    return rows


def _parse_tail(out, lines, start: int, n: int, name: str):
    """Rows ``start:n`` of out from lines, which must then hold only blank lines."""
    rows = _parse_span(out, lines, start, n, name)
    if rows < n:
        raise ValueError(f"{name}: expected {n} rows, file has {rows}")
    for i, line in enumerate(lines, n + 2):
        if line.strip():
            raise ValueError(f"{name}: line {i}: unexpected content after the {n} rows")
    return out


def _parse_block(out, block, start: int, name: str) -> None:
    """Rows ``start:start + len(block)`` of out from a block of lines: one
    ``np.loadtxt`` call, whose tokens and values are ``str.split``'s and
    ``float``'s wherever it returns one row per line; ``_parse_rows`` where it
    fails or does not."""
    try:
        values = np.loadtxt(block, ndmin=2, comments=None)
        if values.shape == (len(block), out.shape[1]):
            out[start:start + len(block)] = values
            return
    except ValueError:
        pass
    _parse_rows(out, block, start, name)


def _parse_rows(out, block, start: int, name: str) -> None:
    """``_parse_block`` one token at a time by ``float``'s rules, naming the
    first line and column that fail."""
    for i, line in enumerate(block, start):
        for j, tok in enumerate(_split_row(line, i, out.shape[1], name)):
            try:
                out[i, j] = float(tok)
            except ValueError:
                raise ValueError(
                    f"{name}: line {i + 2}, column {j + 1}: not a number: {tok!r}"
                ) from None


def _split_row(line: str, i: int, d: int, name: str) -> list:
    """The tokens of row i (file line i + 2), which must number d."""
    parts = line.split()
    if len(parts) != d:
        raise ValueError(f"{name}: line {i + 2}: expected {d} values, got {len(parts)}")
    return parts


def _decoded(raws):
    """The lines of raw lines, each decoded as UTF-8 and split as ``str.splitlines`` splits."""
    return (line for raw in raws for line in raw.decode().splitlines())


def _read_table(fh, name: str, square: bool = True) -> np.ndarray:
    """``parse_table`` of a binary handle's lines, each decoded as UTF-8 as it is
    read.  A decode error anywhere in the file is the error, as the whole-file
    decode it raises gives it, with the file offset.  A file above
    ``PARALLEL_BYTES`` is read by ``_read_halves`` where a second CPU is there
    to run it, and again serially where that fails in any way, so the result
    or error is always the serial read's."""
    size = os.fstat(fh.fileno()).st_size
    if size > PARALLEL_BYTES and _second_process_can_run():
        try:
            out = _read_halves(fh, size, name, square)
        except (ValueError, OSError):
            out = None
        if out is not None:
            return out
    fh.seek(0)
    lines = _decoded(fh)
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


def _second_process_can_run() -> bool:
    """Whether ``_read_halves`` may fork: on Linux, with two CPUs in this
    process's affinity mask, and before Python 3.12, which warns when a
    process with threads (OpenBLAS starts some) forks."""
    return (sys.version_info < (3, 12) and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def _read_halves(fh, size: int, name: str, square: bool):
    """The table of a file of ``size`` bytes parsed by two processes, or None
    (or a ``ValueError`` or ``OSError``) where the serial read must run.

    The body is split after the first newline from its middle on.  A
    forked child parses the lines after the split, from its own handle of the
    file, into rows ``r:`` of a shared anonymous map that backs the result,
    where r counts the newlines before the split; meanwhile this process
    parses rows ``:r`` from the lines before it.  The split holds only if each
    half's lines are exactly its rows (and then blank lines, in the child's),
    for ``str.splitlines`` also breaks a line at ``\\r``, ``\\x0c`` and others.
    The child makes no BLAS call and leaves by ``os._exit``, with status 0
    only when its half parsed; it is reaped on every path, and killed first
    when this half fails.
    """
    fh.seek(0)
    head = fh.readline().decode().splitlines()
    if len(head) != 1:
        return None
    n, d = _parse_head(head[0], name, square)
    body = fh.tell()
    fh.seek((body + size) // 2)
    fh.readline()
    split = fh.tell()
    if split >= size or 2 * n * d > size - body + 1:  # a value takes two bytes at least
        return None
    fh.seek(body)
    rows = 0
    while fh.tell() < split and (chunk := fh.read(min(split - fh.tell(), _COUNT_BYTES))):
        rows += chunk.count(b"\n")
    if rows >= n:
        return None
    out = np.frombuffer(mmap.mmap(-1, 8 * n * d), np.float64).reshape(n, d)
    with open(f"/proc/self/fd/{fh.fileno()}", "rb") as tail:  # an offset of its own
        tail.seek(split)
        pid = os.fork()
        if pid == 0:
            parsed = False
            try:
                _parse_tail(out, _decoded(tail), rows, n, name)
                parsed = True
            finally:
                os._exit(0 if parsed else 1)
    parsed = False
    try:
        fh.seek(body)
        lines = _decoded(itertools.islice(fh, rows))
        parsed = _parse_span(out, lines, 0, rows, name) == rows and next(lines, None) is None
    finally:
        if not parsed:
            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    return out if parsed and status == 0 else None


def _check_shape(path, a, square: bool) -> None:
    """Refuse a table its reader refuses, before any file is made."""
    if not a.size:  # a header count of 0
        raise ValueError(f"{path}: count must be positive, got shape {a.shape}")
    if a.ndim != 2 or (square and a.shape[0] != a.shape[1]):
        want = "an n x n matrix" if square else "a 2-d (n, d) point cloud"
        raise ValueError(f"{path}: expected {want}, got shape {a.shape}")


def write_matrix(path, m: np.ndarray, fmt: str = TEXT) -> None:
    m = np.ascontiguousarray(m, dtype=np.float64)
    _check_shape(path, m, square=True)
    if fmt == TEXT:
        _write_files((path, _text_blocks([str(m.shape[0])], m)))
    elif fmt == BINARY:
        header = MAGIC + bytes([BINARY_VERSION]) + struct.pack("<Q", m.shape[0])
        _write_files((path, [header, m.astype("<f8", copy=False)]))  # the array's own buffer
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")


def read_matrix(path, fmt: str | None = None) -> np.ndarray:
    """Read a matrix file; sniffs the binary magic when fmt is None."""
    if fmt not in (None, TEXT, BINARY):
        raise ValueError(f"unknown matrix format {fmt!r}")
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
        if n == 0:
            raise ValueError(f"{path}: count must be positive, got n=0")
        expected = _HEADER_BYTES + 8 * n * n
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ValueError(f"{path}: expected {expected} bytes for n={n}, got {size}")
        return np.fromfile(fh, dtype="<f8", count=n * n).reshape(n, n)


def read_points(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return _read_table(fh, str(path), square=False)


def write_points(path, p: np.ndarray) -> None:
    """First line "n d", then the n rows of the n x d array p, as ``read_points``
    reads them back bitwise.  p is any array-like; an object array's entries are
    converted as its rows are written."""
    p = np.asarray(p)
    _check_shape(path, p, square=False)
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
