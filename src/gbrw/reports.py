"""CSV and pixmap emitters for analysis reports.

Files are written atomically (temp file then rename) and get the mode a
newly created file gets under the process umask.  CSV tables are given
column by column and written with a header row, ``\\n`` line ends and
``csv.QUOTE_MINIMAL`` quoting.  Floating-point columns carry 17 significant
digits; exact dyadic values are serialized both as p/2^e strings and as
decimal doubles.
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

#: Rows formatted and written per block, which bounds the memory a table
#: takes while it is written.
CHUNK_ROWS = 1 << 16

#: Characters that make csv.QUOTE_MINIMAL quote a cell (with "\n" line ends).
_MUST_QUOTE = re.compile(r'[,"\n]')


def format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, Fraction):
        return f"{float(value):.17g}"
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


def _csv_cell(text: str) -> str:
    """``text`` quoted as csv.QUOTE_MINIMAL quotes a cell."""
    if _MUST_QUOTE.search(text):
        return '"' + text.replace('"', '""') + '"'
    if "\r" in text:  # quoted by some Python versions only: let csv decide
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow((text,))
        return buffer.getvalue()[:-1]
    return text


def _int_cells(column: np.ndarray) -> list[str]:
    """Cells of an integer array, looked up in a table of its distinct values."""
    lo, hi = int(column.min()), int(column.max())
    if hi - lo <= 2 * column.size:
        # offsets from lo, taken modulo 2**bits and read back unsigned
        index = (column - column.dtype.type(lo)).view(f"u{column.itemsize}")
        values = range(lo, hi + 1)
    else:
        values, index = np.unique(column, return_inverse=True)
        values = values.tolist()
    table = np.array([str(v) for v in values], dtype=object)
    return table[index].tolist()


def _cells(column) -> list[str]:
    """Cells of one column as format_value writes them, quoted for csv."""
    if isinstance(column, np.ndarray) and column.size:
        if column.dtype.kind in "iu":
            return _int_cells(column)
        if column.dtype == np.float64:
            return list(map("{:.17g}".format, column.tolist()))
    return [_csv_cell(v if type(v) is str else format_value(v)) for v in column]


def _lines(cells: list[list[str]]) -> bytes:
    """CSV lines of rows given as per-column cell lists."""
    if len(cells) == 1:  # csv quotes the cell of a one-field row when it is empty
        cells = [['""' if c == "" else c for c in cells[0]]]
    # one join over the cells interleaved with their separators
    stride = 2 * len(cells)
    parts = ([","] * (stride - 1) + ["\n"]) * len(cells[0]) if cells else ["\n"]
    for j, column in enumerate(cells):
        parts[2 * j::stride] = column
    return "".join(parts).encode("utf-8")


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
        yield _lines([[_csv_cell(format_value(name))] for name in header])
        for start in range(0, rows, CHUNK_ROWS):
            stop = start + CHUNK_ROWS
            yield _lines([_cells(column[start:stop]) for column in columns])

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
    above = np.arange(width) > np.arange(1, height + 1)[:, None]
    index = np.where(above, np.uint8(2), bits)
    palette = np.array([PIXMAP_ZERO, PIXMAP_ONE, PIXMAP_BACKGROUND], dtype=np.uint8)
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    # one 3-byte item per colour; plain indexing, as np.take copies the index to intp
    _atomic_write(path, (header, palette.view("V3").ravel()[index]))
