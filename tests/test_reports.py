import csv
import hashlib
import io
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbrw import reports
from gbrw.cli import main
from gbrw.dyadic import Dyadic
from gbrw.ergodic import BetaArray, sgn_beta_array
from gbrw.reports import format_value, write_beta_pixmap, write_csv


def reference_csv(header, columns) -> bytes:
    """The row-by-row writer: csv.writer over format_value of every cell."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([format_value(name) for name in header])
    for row in zip(*columns):
        writer.writerow([format_value(v) for v in row])
    return buffer.getvalue().encode("utf-8")


def written(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# Columns of every supported kind, drawn with a common length

INT_DTYPES = (np.int8, np.uint8, np.int16, np.int32, np.int64, np.uint64)
text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8)
special_text = st.text(alphabet=st.sampled_from(',"\r\n ab{}'), max_size=6)
finite_or_not = st.floats(allow_nan=True, allow_infinity=True)


def _int_array(dtype):
    info = np.iinfo(dtype)
    wide = st.integers(int(info.min), int(info.max))
    narrow = st.integers(max(int(info.min), -3), min(int(info.max), 3))
    return lambda size: st.lists(st.one_of(wide, narrow), min_size=size,
                                 max_size=size).map(lambda v: np.array(v, dtype=dtype))


def _listed(element):
    return lambda size: st.lists(element, min_size=size, max_size=size)


COLUMN_KINDS = [_int_array(dtype) for dtype in INT_DTYPES] + [
    _listed(st.integers(-(2 ** 70), 2 ** 70)),
    _listed(finite_or_not),
    lambda size: _listed(finite_or_not)(size).map(lambda v: np.array(v, dtype=np.float64)),
    lambda size: _listed(st.floats(width=32))(size).map(lambda v: np.array(v, dtype=np.float32)),
    _listed(st.fractions(max_denominator=10 ** 6)),
    _listed(st.builds(Dyadic, st.integers(-(2 ** 40), 2 ** 40), st.integers(0, 80))),
    _listed(st.one_of(text, special_text)),
    _listed(st.one_of(st.just(""), finite_or_not, st.fractions())),
    lambda size: _listed(st.booleans())(size).map(np.array),
    # byte cells: csv specials, UTF-8 beyond ASCII, and no NUL (the padding)
    lambda size: _listed(st.one_of(special_text, st.text(alphabet="{}1,é\u2028", max_size=5)))(
        size).map(lambda v: np.array([t.encode() for t in v], dtype="S")),
]


@st.composite
def tables(draw):
    size = draw(st.integers(0, 12))
    width = draw(st.integers(1, 4))
    header = draw(st.lists(st.one_of(text, special_text), min_size=width,
                           max_size=width))
    columns = [draw(draw(st.sampled_from(COLUMN_KINDS))(size)) for _ in range(width)]
    return header, columns


@settings(max_examples=300, deadline=None)
@given(tables(), st.sampled_from([1, 2, 5, reports.CHUNK_ROWS]),
       st.sampled_from([0, reports.SMALL_ROWS]))
def test_columnar_writer_matches_csv_module(tmp_path_factory, table, chunk_rows, small_rows):
    # small_rows 0 sends every chunk the columns allow to the byte matrix
    header, columns = table
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    saved = reports.CHUNK_ROWS, reports.SMALL_ROWS
    reports.CHUNK_ROWS, reports.SMALL_ROWS = chunk_rows, small_rows
    try:
        write_csv(str(path), header, columns)
    finally:
        reports.CHUNK_ROWS, reports.SMALL_ROWS = saved
    assert written(path) == reference_csv(header, columns)


#: Row counts past the per-cell cutoff, with the chunk size below set to
#: twice the cutoff: one chunk on the byte matrix; two of them; one, then a
#: remainder written cell by cell.
LONG_ROWS = (reports.SMALL_ROWS + 1, 3 * reports.SMALL_ROWS + 5, 2 * reports.SMALL_ROWS + 3)


@pytest.fixture
def short_chunks(monkeypatch):
    monkeypatch.setattr(reports, "CHUNK_ROWS", 2 * reports.SMALL_ROWS)


def test_one_column_empty_cells_are_quoted(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ("",), (["", "a", ""],))
    assert written(path) == b'""\n""\na\n""\n'
    assert written(path) == reference_csv(("",), (["", "a", ""],))


def test_byte_cells_are_quoted_as_csv_quotes_text(tmp_path, short_chunks):
    # cells without '"' take the byte-matrix path past the per-cell cutoff, a
    # doubled quote the per-cell one
    plain = np.array([b"", b"{1,2}", b"a\nb", b"\r", b"{3}"])
    for short in (plain, np.append(plain, b'say "hi"')):
        for cells in [short] + [np.resize(short, rows) for rows in LONG_ROWS]:
            for header, columns in ((("v",), (cells,)),
                                    (("n", "v"), (np.arange(cells.size), cells))):
                path = tmp_path / "t.csv"
                write_csv(str(path), header, columns)
                assert written(path) == reference_csv(header, columns)
    write_csv(str(path), ("v",), (plain,))
    assert written(path).startswith(b'v\n""\n"{1,2}"\n"a\nb"\n')
    write_csv(str(path), ("n", "v"), (np.arange(5), plain))
    assert written(path).startswith(b"n,v\n0,\n1,")
    assert format_value(b"{1,2}") == "{1,2}"


def test_encoded_cells_are_written_as_given(tmp_path, short_chunks):
    # csv cells as zero-padded uint8 rows, quotes included and zeros between
    # characters, on both paths and across chunks, also as a transposed view
    texts = ["{1,2}", "{3}", "{}", "a,b", "{10,11}"]
    encoded = np.zeros((len(texts), 20), np.uint8)
    for row, text in zip(encoded, texts):
        cell = f'"{text}"' if "," in text else text
        row[1:2 * len(cell):2] = np.frombuffer(cell.encode(), np.uint8)
    for rows in (len(texts), *LONG_ROWS):
        cells = np.resize(encoded, (rows, encoded.shape[1]))
        expected = reference_csv(("n", "v"), (np.arange(rows), np.resize(texts, rows)))
        for column in (cells, np.ascontiguousarray(cells.T).T):
            path = tmp_path / "t.csv"
            write_csv(str(path), ("n", "v"), (np.arange(rows), column))
            assert written(path) == expected


def test_write_csv_accepts_any_iterable_of_columns(tmp_path):
    header = ("mask", "sign", "member")
    columns = (np.arange(5), np.array([1, -1, -1, 1, -1], dtype=np.int8),
               ["{}", "{1}", "{1,2}", '"q"', "{2}"])
    path = tmp_path / "t.csv"
    write_csv(str(path), header, (column for column in columns))
    assert written(path) == reference_csv(header, columns)
    assert b'"{1,2}"' in written(path) and b'"""q"""' in written(path)


@pytest.mark.parametrize("column", [
    np.array([-(2 ** 63), 2 ** 63 - 1, 0, -1, 5], dtype=np.int64),
    np.array([0, 2 ** 64 - 1, 2 ** 63, 7, 7], dtype=np.uint64),
    np.array([-128, 127, 0, -1, 127], dtype=np.int8),
    np.array([3, 1000, -1000, 3, 3], dtype=np.int16),
])
def test_integer_columns_with_wide_ranges(tmp_path, short_chunks, column):
    path = tmp_path / "t.csv"
    for values in [column] + [np.resize(column, rows) for rows in LONG_ROWS]:
        write_csv(str(path), ("v", "w"), (values, values[::-1]))
        assert written(path) == reference_csv(("v", "w"), (values, values[::-1]))


def test_write_csv_rejects_ragged_tables(tmp_path):
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "t.csv"), ("a", "b"), (np.arange(3), np.arange(4)))
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "t.csv"), ("a",), (np.arange(3), np.arange(3)))
    assert not os.listdir(tmp_path)


# ---------------------------------------------------------------------------
# The pixmap against the per-pixel loop it replaced


def reference_pixmap(bits, size, width=None) -> bytes:
    width = size + 1 if width is None else width
    body = bytearray()
    for n in range(1, size + 1):
        for k in range(width):
            if k > n:
                body.extend(reports.PIXMAP_BACKGROUND)
            elif bits[n - 1][k]:
                body.extend(reports.PIXMAP_ONE)
            else:
                body.extend(reports.PIXMAP_ZERO)
    return f"P6\n{width} {size}\n255\n".encode("ascii") + bytes(body)


@pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 9, 64, 131])
def test_pixmap_matches_per_pixel_loop(tmp_path, size):
    array = sgn_beta_array(size)
    write_beta_pixmap(str(tmp_path / "a.ppm"), array.bits)
    assert written(tmp_path / "a.ppm") == reference_pixmap(array.bits.tolist(), size)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda size: st.tuples(st.just(size), st.lists(
        st.lists(st.integers(0, 1), min_size=size + 1, max_size=size + 1),
        min_size=size, max_size=size))))
def test_pixmap_of_arbitrary_rows(tmp_path_factory, drawn):
    size, rows = drawn
    # row n holds bits 0..n only
    bits = np.tril(np.array(rows, dtype=np.uint8), 1)
    array = BetaArray(size=size, bits=bits)
    path = tmp_path_factory.mktemp("ppm") / "a.ppm"
    write_beta_pixmap(str(path), array.bits)
    assert written(path) == reference_pixmap(rows, size)


def test_pixmap_draws_ones_above_the_diagonal_as_background(tmp_path):
    bits = np.ones((6, 7), dtype=np.uint8)
    write_beta_pixmap(str(tmp_path / "a.ppm"), bits)
    body = written(tmp_path / "a.ppm")[len(b"P6\n7 6\n255\n"):]
    pixels = np.frombuffer(body, np.uint8).reshape(6, 7, 3)
    above = np.arange(7) > np.arange(1, 7)[:, None]
    assert (pixels[above] == reports.PIXMAP_BACKGROUND).all()
    assert (pixels[~above] == reports.PIXMAP_ONE).all()
    assert written(tmp_path / "a.ppm") == reference_pixmap(bits.tolist(), 6)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.randoms(use_true_random=False))
def test_pixmap_of_any_shape(tmp_path_factory, height, width, random):
    # tall shapes too: from height >= width - 1 on, the last rows hold no background
    bits = np.array([[random.randint(0, 1) for _ in range(width)] for _ in range(height)],
                    dtype=np.uint8)
    path = tmp_path_factory.mktemp("ppm") / "a.ppm"
    write_beta_pixmap(str(path), bits)
    assert written(path) == reference_pixmap(bits.tolist(), height, width)


# ---------------------------------------------------------------------------
# Exact command outputs, digests recorded with the row-by-row writers

RECORDED = {
    ("beta-array", "--horizon", "200"): {
        "beta_array.csv": "30bf78373907197274384e2aa9fd90101bede4fde8fea1e84b94df1805acbfa8",
        "beta_array.ppm": "29c78aa503d359c9cceb8f5be11562b9096509af6c143ac2f33a0ac781d1709f",
    },
    ("convert", "--rule", "builtin:levy", "--step", "10"): {
        "truth_table.csv": "56d262d1b0ffd5615b61265320f2e3609f7ad421251641ff2c2926d04a4677fe",
        "beta_members.csv": "c548f4f4526211ee19342d361e0b819598c26f83a6aa8b67807398221eace260",
    },
    # 12,871 members each, recorded while members were printed via IndexSet;
    # the benchmark's convert tasks, whose beta_members.csv it does not hash
    ("convert", "--rule", "builtin:levy", "--step", "16"): {
        "beta_members.csv": "273fe0a9f32da6c76372e1d5f2dc4b3b9284f9ab338f31872d84495d657b60b4",
        "truth_table.csv": "ae4442b2ea3c5b70a12bf37c4ea9c802076393ba14a3f8800c157b305d18a25e",
    },
    ("convert", "--rule", "builtin:modified-levy", "--step", "16"): {
        "beta_members.csv": "273fe0a9f32da6c76372e1d5f2dc4b3b9284f9ab338f31872d84495d657b60b4",
        "truth_table.csv": "ae4442b2ea3c5b70a12bf37c4ea9c802076393ba14a3f8800c157b305d18a25e",
    },
    # the benchmark's beta-array task (500,500 rows)
    ("beta-array", "--horizon", "1000"): {
        "beta_array.csv": "65acc49c25b2d5ca982bed231a144c0db3acc28c80eebd0ddb9d9f9d811f1922",
        "beta_array.ppm": "988322c69b6dbc9e675104a2ba8498061ff2352cdf317222677b93e85a698f23",
    },
}


@pytest.mark.parametrize("argv", sorted(RECORDED))
def test_command_outputs_are_byte_identical(tmp_path, capsys, argv):
    assert main(list(argv) + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256(written(tmp_path / name)).hexdigest()
               for name in RECORDED[argv]}
    assert digests == RECORDED[argv]


# ---------------------------------------------------------------------------
# File modes


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_written_files_follow_umask(tmp_path, umask):
    previous = os.umask(umask)
    try:
        write_csv(str(tmp_path / "t.csv"), ("a",), (np.arange(3),))
        write_beta_pixmap(str(tmp_path / "a.ppm"), sgn_beta_array(4).bits)
    finally:
        os.umask(previous)
    for name in ("t.csv", "a.ppm"):
        mode = stat.S_IMODE(os.stat(tmp_path / name).st_mode)
        assert mode == 0o666 & ~umask, (name, oct(mode))
