"""CSV and pixmap emitters for analysis reports.

Files are written atomically (temp file then rename) and get the mode a
newly created file gets under the process umask.  CSV tables are given
column by column and written with a header row, ``\\n`` line ends and
``csv.QUOTE_MINIMAL`` quoting.  A chunk of at least ``SMALL_ROWS`` rows of
integer and S-dtype arrays, and of csv cells as the zero-padded rows of a
2-D uint8 array, is encoded in numpy as one byte matrix, a row per character
position, transposed once into lines.  Smaller chunks, floats (17 significant
digits), ``Fraction``, ``Dyadic`` (p/2^e) and text go through ``format_value``.
"""

from __future__ import annotations

import csv
import io
import os
import re
import tempfile
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: Rows formatted and written per block, which bounds the memory a table
#: takes while it is written.
CHUNK_ROWS = 1 << 16
#: Chunks of fewer rows are formatted cell by cell, faster there than numpy.
SMALL_ROWS = 128


def format_value(value) -> str:
    if isinstance(value, (float, Fraction)):
        return f"{float(value):.17g}"
    if isinstance(value, bytes):  # a cell of an S-dtype array
        return value.decode()
    return str(value)  # a Dyadic prints as p/2^e


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _atomic_write(path: str, chunks: Iterable) -> None:
    """Write the byte chunks to a temp file, then rename it over ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        # mkstemp creates the file with mode 0600; give it the mode open() would
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


#: Characters that csv.QUOTE_MINIMAL quotes a cell for, "\r" on the Python
#: versions that quote it: writerow returns the length it wrote, 2 unquoted.
_SPECIAL = ',"\n' + "\r" * (
    csv.writer(io.StringIO(), lineterminator="\n").writerow(["\r"]) > 2)
_MUST_QUOTE = re.compile(f"[{re.escape(_SPECIAL)}]")


def _cells(column) -> list[str]:
    """Cells of one column as format_value writes them, quoted for csv."""
    if isinstance(column, np.ndarray) and column.ndim == 2:  # cells encoded for csv
        return [row.tobytes().translate(None, b"\0").decode() for row in column]
    if isinstance(column, np.ndarray) and column.size:
        if column.dtype.kind in "iu":
            return list(map(str, column.tolist()))
        if column.dtype == np.float64:
            return list(map("{:.17g}".format, column.tolist()))
    texts = [v if type(v) is str else format_value(v) for v in column]
    if not _MUST_QUOTE.search("".join(texts)):  # one search decides most columns
        return texts
    return ['"' + t.replace('"', '""') + '"' if _MUST_QUOTE.search(t) else t
            for t in texts]


def _lines(cells: list[list[str]]) -> bytes:
    """CSV lines of rows given as per-column cell lists."""
    if len(cells) == 1:  # csv quotes the cell of a one-field row when it is empty
        cells = [['""' if c == "" else c for c in cells[0]]]
    return ("\n".join(map(",".join, zip(*cells))) + "\n").encode("utf-8")


def _int_field(column: np.ndarray):
    """Width and row writer (one row per character) of an integer array's cells."""
    lo, hi = int(column.min()), int(column.max())
    mag, neg = column, None
    if lo < 0:  # |v| in the unsigned type of the same width: exact at its minimum
        mag, neg = column.astype(f"u{column.itemsize}"), column < 0
        np.negative(mag, out=mag, where=neg)
    mag = mag.astype(np.min_scalar_type(top := max(hi, -lo)))

    def write(rows: np.ndarray) -> None:
        rest = mag
        for j, row in enumerate(rows[::-1]):  # units first
            tens = rest // 10
            row[...] = rest - tens * 10 + 48
            if j:  # no leading zeros
                row *= rest > 0
            rest = tens
        if lo < 0:  # the sign row has no digit
            rows[0] |= neg.view(np.uint8) * 45

    return (lo < 0) + len(str(top)), write


def _text_field(column: np.ndarray, alone: bool):
    """Width and row writer of csv cells in a zero-padded 2-D uint8 array, or of
    the csv-quoted cells of an S-dtype array without '"'."""
    if column.ndim == 2:
        return column.shape[1], lambda rows: np.copyto(rows, column.T)
    cells = np.ascontiguousarray(column).view(np.uint8).reshape(column.size, -1)
    special = np.zeros(cells.shape, bool)
    for byte in _SPECIAL.encode():  # compares, as a lookup table copies cells to intp
        special |= cells == byte
    quote = special.any(axis=1)
    if alone:
        quote |= ~cells.any(axis=1)

    def write(rows: np.ndarray) -> None:
        rows[1:-1] = cells.T
        rows[0, quote] = rows[-1, quote] = ord('"')

    return cells.shape[1] + 2, write


def _rows(columns: list) -> bytes:
    """CSV lines of one chunk: a zero-padded byte matrix, one row per character
    position so that every store is contiguous, where the columns allow."""
    if len(columns[0]) < SMALL_ROWS or not all(
            isinstance(c, np.ndarray) and (c.dtype.kind in "iu" or c.dtype.kind == "S"
                                           and b'"' not in c.tobytes()) for c in columns):
        return _lines([_cells(column) for column in columns])
    fields = [_text_field(c, len(columns) == 1) if c.dtype.kind == "S" or c.ndim == 2
              else _int_field(c) for c in columns]
    buf = np.zeros((sum(width + 1 for width, _ in fields), len(columns[0])), np.uint8)
    start = 0
    for width, write in fields:
        write(buf[start:start + width])
        buf[start + width] = ord(",")
        start += width + 1
    buf[-1] = ord("\n")
    return buf.T.tobytes().translate(None, b"\0")


def write_csv(path: str, header: Sequence[str], columns: Iterable) -> None:
    """Write a table given as one numpy array or sequence per header name.

    The bytes are those of ``csv.writer(lineterminator="\\n")`` writing
    ``format_value`` of every cell row by row; rows are formatted
    ``CHUNK_ROWS`` at a time.
    """
    columns = list(columns)
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    rows = len(columns[0]) if columns else 0
    if any(len(column) != rows for column in columns):
        raise ValueError("columns differ in length")

    def chunks():
        yield _lines([[cell] for cell in _cells(header)])
        for start in range(0, rows, CHUNK_ROWS):
            yield _rows([column[start:start + CHUNK_ROWS] for column in columns])

    _atomic_write(path, chunks())


#: Two-color palette approximating the conventional array rendering:
#: orange for coefficient 0, blue for coefficient 1.
PIXMAP_ZERO = (255, 165, 0)
PIXMAP_ONE = (30, 80, 200)
PIXMAP_BACKGROUND = (255, 255, 255)


def write_beta_pixmap(path: str, bits: np.ndarray) -> None:
    """Binary PPM of a coefficient bit matrix: row n from top, column k.

    ``bits[n-1, k]`` is beta_{n,k} (see ``BetaArray.bits``); cells with
    k > n are background.
    """
    height, width = bits.shape
    # window i of the strip starts with width - i coefficient-0 pixels; row n
    # copies the one with n+1 of them (all, once n >= width - 1)
    strip = np.repeat(np.array([PIXMAP_ZERO, PIXMAP_BACKGROUND], np.uint8), width, axis=0)
    windows = sliding_window_view(strip.ravel(), 3 * width)[::3]
    image = windows[np.maximum(width - 1 - np.arange(1, height + 1), 0)]
    lower = np.tri(height, width, 1, dtype=bool)  # k <= n
    image.reshape(-1, 3)[np.flatnonzero(np.logical_and(bits, lower))] = PIXMAP_ONE
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    _atomic_write(path, (header, image))
