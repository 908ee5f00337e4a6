"""CSV and pixmap emitters for analysis reports.

Files are written atomically (temp file then rename) and get the mode a
newly created file gets under the process umask.  CSV tables are given
column by column and written with a header row, ``\\n`` line ends and
``csv.QUOTE_MINIMAL`` quoting.  Integer and S-dtype arrays are encoded in
numpy as zero-padded byte matrices; floats (17 significant digits),
``Fraction``, ``Dyadic`` (p/2^e) and text are formatted by ``format_value``.
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
#: The same characters as a lookup over bytes.
_QUOTED_BYTES = np.zeros(256, dtype=bool)
_QUOTED_BYTES[list(_SPECIAL.encode())] = True


def _cells(column) -> list[str]:
    """Cells of one column as format_value writes them, quoted for csv."""
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


def _int_field(column: np.ndarray) -> np.ndarray:
    """Decimal cells of an integer array, right-aligned in a zero-padded matrix."""
    mag = column.astype(np.uint64)
    np.negative(mag, out=mag, where=(neg := column < 0))  # |v| mod 2**64: exact at -2**63
    mag = mag.astype(np.min_scalar_type(top := int(mag.max())))
    out = np.zeros((column.size, int(neg.any()) + len(str(top))), np.uint8)
    for j in range(out.shape[1] - 1, -1, -1):  # units first; no leading zeros
        tens = mag // 10
        out[:, j] = (mag - tens * 10 + 48) * ((mag > 0) | (j == out.shape[1] - 1))
        mag = tens
    out[:, 0] |= neg.view(np.uint8) * 45  # the sign column has no digit
    return out


def _text_field(column: np.ndarray, alone: bool) -> np.ndarray:
    """Cells of an S-dtype array without '"', csv-quoted in a zero-padded matrix."""
    cells = np.ascontiguousarray(column).view(np.uint8).reshape(column.size, -1)
    quote = _QUOTED_BYTES[cells].any(axis=1) | (alone & ~cells.any(axis=1))
    out = np.pad(cells, ((0, 0), (1, 1)))
    out[quote, 0] = out[quote, -1] = ord('"')
    return out


def _rows(columns: list) -> bytes:
    """CSV lines of one chunk: a zero-padded byte matrix where the columns allow."""
    if not all(isinstance(c, np.ndarray) and (c.dtype.kind in "iu" or c.dtype.kind == "S"
                                              and b'"' not in c.tobytes()) for c in columns):
        return _lines([_cells(column) for column in columns])
    comma = np.full((len(columns[0]), 1), ord(","), np.uint8)
    buf = np.hstack([part for c in columns for part in (
        _text_field(c, len(columns) == 1) if c.dtype.kind == "S" else _int_field(c), comma)])
    buf[:, -1] = ord("\n")
    return buf[buf != 0].tobytes()


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
    above = np.arange(width) > np.arange(1, height + 1)[:, None]
    index = np.where(above, np.uint8(2), bits)
    palette = np.array([PIXMAP_ZERO, PIXMAP_ONE, PIXMAP_BACKGROUND], dtype=np.uint8)
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    # one 3-byte item per colour; plain indexing, as np.take copies the index to intp
    _atomic_write(path, (header, palette.view("V3").ravel()[index]))
