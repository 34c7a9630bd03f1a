import csv
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bannet import ConfigError, DataError, SplitSpec, load_csv, split_dataset
from bannet.model import Dataset


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_csv_basic(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["x1", "x2", "y"], [[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 0, 2]])
    data = load_csv(str(path), 1)
    assert (data.m, data.n_features, data.n_labels) == (4, 2, 1)
    assert data.labels[1, 0] == 6.0


def test_load_csv_stock_portfolio_shape(tmp_path):
    # 6 features, 6 labels
    rng = np.random.default_rng(0)
    header = [f"x{i}" for i in range(6)] + [f"y{i}" for i in range(6)]
    rows = rng.normal(size=(10, 12)).tolist()
    path = tmp_path / "p.csv"
    write_csv(path, header, rows)
    data = load_csv(str(path), 6)
    assert (data.n_features, data.n_labels) == (6, 6)
    named = load_csv(str(path), [f"y{i}" for i in range(6)])
    assert np.array_equal(named.labels, data.labels)


def test_load_csv_blank_cell_names_position(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n1,2,3\n4,,6\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 3, column 'b'"):
        load_csv(str(path), 1)


def test_load_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,y\nfoo,1\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2, column 'a'"):
        load_csv(str(path), 1)


def test_load_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n1,2,3\n4,5\n7,8,9\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 3 has 2 cells, expected 3"):
        load_csv(str(path), 1)
    # Every row equally short: numpy parses a rectangle of the wrong width.
    path.write_text("a,b,y\n1,2\n4,5\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2 has 2 cells, expected 3"):
        load_csv(str(path), 1)


def test_load_csv_padded_and_quoted_cells_parse_like_float(tmp_path):
    cells = [" 1.5 ", "\t-2", '"3.25"', '" 4e-1 "', "0.1", "1e-310", "1_000",
             "123456789012345678901234567890", "+7.", " -0 "]
    path = tmp_path / "d.csv"
    path.write_text("a,y\n" + "".join(f"{cell},1\n" for cell in cells), encoding="utf-8")
    data = load_csv(str(path), 1)
    unquoted = [cell.replace('"', "") for cell in cells]
    want = np.array([float(cell.strip()) for cell in unquoted])
    assert np.array_equal(data.features[:, 0].view(np.int64), want.view(np.int64))


def test_load_csv_bad_cell_deep_in_large_file(tmp_path):
    rows = [[i, 0.5 * i, 1.0] for i in range(6000)]
    rows[4998][1] = "oops"  # data row 4999 sits on line 5000
    path = tmp_path / "d.csv"
    write_csv(path, ["a", "b", "y"], rows)
    with pytest.raises(DataError, match="line 5000, column 'b': non-numeric cell 'oops'"):
        load_csv(str(path), 1)


def test_load_csv_reports_errors_in_file_order(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n1,2,3\n4,x,6\n7,8\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 3, column 'b'"):
        load_csv(str(path), 1)
    path.write_text("a,b,y\n1,2,3\n4,5\n7,,9\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 3 has 2 cells"):
        load_csv(str(path), 1)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "NaN"])
def test_load_csv_rejects_non_finite(tmp_path, cell):
    path = tmp_path / "d.csv"
    path.write_text(f"a,y\n1,2\n{cell},3\n", encoding="utf-8")
    with pytest.raises(DataError, match="non-finite"):
        load_csv(str(path), 1)


def test_load_csv_duplicate_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,a,y\n1,2,3\n", encoding="utf-8")
    with pytest.raises(DataError, match="duplicate header"):
        load_csv(str(path), 1)


@pytest.mark.parametrize("labels", ["y,y", ["y", "a", "y"]])
def test_load_csv_duplicate_label_names(tmp_path, labels):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n1,2,3\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"d\.csv: duplicate label column\(s\): y$"):
        load_csv(str(path), labels)


def test_load_csv_missing_label_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(DataError, match="not found"):
        load_csv(str(path), ["z"])


def test_load_csv_label_count_bounds(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_csv(str(path), 2)  # would leave no features


@pytest.mark.parametrize("count, message", [
    (0, r"^label count 0 must be at least 1$"),
    (-1, r"^label count -1 must be at least 1$"),
    ("0", r"^label count 0 must be at least 1$"),
    (" -1 ", r"^label count -1 must be at least 1$"),
    (2, r"d\.csv: no feature columns left$"),
    ("3", r"d\.csv: no feature columns left$"),
], ids=["0", "-1", "str-0", "str-padded-minus-1", "2-of-2", "str-3-of-2"])
def test_load_csv_label_count_out_of_range(tmp_path, count, message):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(DataError, match=message):
        load_csv(str(path), count)


def test_load_csv_label_count_and_names_load_the_same_dataset(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n1,2,3\n4,5,6.5\n-0.1,7,8\n", encoding="utf-8")
    want = load_csv(str(path), 1)
    for spec in ("1", " 1 ", "y", ["y"]):
        data = load_csv(str(path), spec)
        for got, ref in ((data.features, want.features), (data.labels, want.labels)):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_split_sizes_m100():
    data = Dataset(np.arange(200.0).reshape(100, 2), np.zeros((100, 1)))
    train, val, test = split_dataset(data, SplitSpec())
    assert (train.m, val.m, test.m) == (60, 15, 25)


def test_split_sizes_m442():
    data = Dataset(np.zeros((442, 3)), np.zeros((442, 1)))
    train, val, test = split_dataset(data, SplitSpec())
    assert (train.m, val.m, test.m) == (266, 66, 110)


def test_split_deterministic_and_disjoint():
    rng = np.random.default_rng(1)
    data = Dataset(rng.normal(size=(37, 2)), rng.normal(size=(37, 1)))
    for seed in range(5):
        spec = SplitSpec(seed=seed)
        a = split_dataset(data, spec)
        b = split_dataset(data, spec)
        for part_a, part_b in zip(a, b):
            assert np.array_equal(part_a.features, part_b.features)
        rows = np.vstack([part.features for part in a])
        assert rows.shape[0] == 37
        # disjoint cover: every original row appears exactly once
        original = {tuple(r) for r in data.features}
        assert {tuple(r) for r in rows} == original


def test_split_copies_each_part_once_and_shares_nothing():
    # Each part is the source's rows in permutation order, read-only and in
    # memory of its own; the parts add about one copy of the source (plus the
    # permutation) to the traced peak, where a second copy per part would
    # push it past 1.2x.
    rng = np.random.default_rng(3)
    data = Dataset(rng.normal(size=(40_000, 8)), rng.normal(size=(40_000, 3)))
    source_bytes = data.features.nbytes + data.labels.nbytes
    spec = SplitSpec(seed=5)
    tracemalloc.start()  # traces only what the split allocates
    try:
        parts = split_dataset(data, spec)
        _, added = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    perm = np.random.default_rng(spec.seed).permutation(data.m)
    n_train, n_val = parts[0].m, parts[1].m
    rows = (perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :])
    arrays = [data.features, data.labels]
    for part, idx in zip(parts, rows):
        for got, source in ((part.features, data.features), (part.labels, data.labels)):
            assert not got.flags.writeable
            assert np.array_equal(got.view(np.int64), source[idx].view(np.int64))
            assert not any(np.shares_memory(got, other) for other in arrays)
            arrays.append(got)
    assert added <= 1.2 * source_bytes


def test_split_rejects_tiny_dataset():
    data = Dataset(np.zeros((4, 1)), np.zeros((4, 1)))
    with pytest.raises(DataError):
        split_dataset(data, SplitSpec())


def test_split_rejects_empty_parts():
    data = Dataset(np.zeros((6, 1)), np.zeros((6, 1)))
    with pytest.raises(ConfigError):
        split_dataset(data, SplitSpec(test_fraction=0.3, val_fraction=0.1))


def test_split_spec_validation():
    with pytest.raises(ConfigError):
        SplitSpec(test_fraction=0.0)
    with pytest.raises(ConfigError):
        SplitSpec(val_fraction=1.0)


# Each file either loads to these (feature, label) rows, bit for bit, or fails
# with this message after "<path>: ". The C parser reads the well-formed
# ones; the others take the cell-by-cell path.
CSV_CASES = {
    "blank line in the middle": ("a,y\n1,2\n\n3,4\n", "line 3 has 0 cells, expected 2"),
    "blank line at the end": ("a,y\n1,2\n3,4\n\n", "line 4 has 0 cells, expected 2"),
    "whitespace-only line": ("a,y\n1,2\n  \t\n3,4\n", "line 3 has 1 cells, expected 2"),
    "hash cell": ("a,y\n1,2\n#,4\n", "line 3, column 'a': non-numeric cell '#'"),
    "quoted cells": ('a,y\n"1.5",2\n" -3",4\n', [[1.5, 2.0], [-3.0, 4.0]]),
    "quoted embedded comma": ('a,y\n1,2\n"1,5",4\n', "line 3, column 'a': non-numeric cell '1,5'"),
    "digit separator": ("a,y\n1_0,2\n", [[10.0, 2.0]]),
    "non-ASCII digits": ("a,y\n١٢,３\n", [[12.0, 3.0]]),
    "CRLF endings": ("a,y\r\n1,2\r\n3,-0\r\n", [[1.0, 2.0], [3.0, -0.0]]),
    "CRLF blank line": ("a,y\r\n1,2\r\n\r\n", "line 3 has 0 cells, expected 2"),
    "no trailing newline": ("a,y\n1,2\n3,4", [[1.0, 2.0], [3.0, 4.0]]),
    "header only": ("a,y\n", "no data rows"),
    "UTF-8 BOM": ("﻿a,y\n0.1,2\n", [[0.1, 2.0]]),
    "nan": ("a,y\n1,2\nnan,3\n", "non-finite values present"),
    "inf": ("a,y\n1,2\n3,-inf\n", "non-finite values present"),
    "every row short": ("a,b,y\n1,2\n3,4\n", "line 2 has 2 cells, expected 3"),
    "CR endings": ("a,y\r1,2\r3,4\r", [[1.0, 2.0], [3.0, 4.0]]),
    "CR blank line": ("a,y\r1,2\r\r3,4\r", "line 3 has 0 cells, expected 2"),
    "header with a quoted line break": ('"a\nb",y\n1,2\n3,4\n', [[1.0, 2.0], [3.0, 4.0]]),
    "blank first data line": ("a,y\n\n1,2\n", "line 2 has 0 cells, expected 2"),
    # A row is named by the line it starts on, counting quoted line breaks.
    "empty cell after a header line break": ('"a\nb",y\n1,2\n,4\n',
                                              "line 4, column 'a\\nb': empty cell"),
    "empty cell after a row line break": ('a,y\n"1\n",2\n,4\n', "line 4, column 'a': empty cell"),
    "short row after a row line break": ('a,y\n"1\n",2\n3\n', "line 4 has 1 cells, expected 2"),
}


@pytest.mark.parametrize("text,want", CSV_CASES.values(), ids=CSV_CASES.keys())
def test_load_csv_fast_path_keeps_values_and_messages(tmp_path, text, want):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        if isinstance(want, str):
            with pytest.raises(DataError) as caught:
                load_csv(str(path), 1)
        else:
            data = load_csv(str(path), 1)
    assert [str(w.message) for w in seen] == []
    if isinstance(want, str):
        assert str(caught.value) == f"{path}: {want}"
        return
    got = np.hstack([data.features, data.labels])
    assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


@pytest.mark.parametrize("name", ["d.csv.gz", "d.csv.bz2", "d.csv.xz", "d.csv.lzma",
                                  "http://host/d.csv"])
def test_load_csv_reads_names_numpy_would_decompress_or_fetch_as_plain_files(
        tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    os.makedirs(os.path.dirname(name) or ".", exist_ok=True)
    with open(name, "w", encoding="utf-8") as handle:
        handle.write("a,y\n1,2\n3,4\n")
    data = load_csv(name, 1)
    assert np.hstack([data.features, data.labels]).tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_csv_reads_a_named_pipe_through_its_one_handle(tmp_path):
    # A pipe cannot be read again by name: what the header read buffered is
    # gone, so every row must come from the handle that read the header.
    path = tmp_path / "pipe.csv"
    os.mkfifo(path)
    loaded = []
    reader = threading.Thread(target=lambda: loaded.append(load_csv(str(path), 1)), daemon=True)
    reader.start()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("a,y\n" + "1,2\n" * 5000)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert loaded[0].m == 5000


def test_load_csv_peak_memory_stays_near_one_copy_of_the_values(tmp_path):
    # The parsed array plus the Dataset's columns is 2x the values; a copy of
    # the whole file or of a column selection would push the peak past 2.5x,
    # whether the label columns trail or sit in the middle.
    path = tmp_path / "d.csv"
    values = np.random.default_rng(0).normal(size=(100_000, 5))
    for header, labels, label_idx in (("a,b,c,d,y", 1, [4]), ("a,b,y,c,d", "y", [2])):
        np.savetxt(path, values, fmt="%.17g", delimiter=",", header=header, comments="")
        tracemalloc.start()
        try:
            data = load_csv(str(path), labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(data.labels, values[:, label_idx])
        assert np.array_equal(data.features, np.delete(values, label_idx, axis=1))
        assert peak < 2.5 * values.nbytes, header


def test_load_csv_bad_utf8_deep_in_file_gives_the_csv_reader_message(tmp_path):
    # The decoder's position is relative to its chunk, so the message must
    # come from the csv.reader handle, which decodes the chunks a fresh read
    # of the whole file decodes, not from the C parser's.
    path = tmp_path / "d.csv"
    path.write_bytes(b"a,y\n" + b"1,2\n" * 3000 + b"\xff,3\n")
    with open(path, encoding="utf-8", newline="") as handle:
        with pytest.raises(UnicodeDecodeError) as decoding:
            list(csv.reader(handle))
    with pytest.raises(DataError) as caught:
        load_csv(str(path), 1)
    assert str(caught.value) == f"{path} is not valid UTF-8: {decoding.value}"


def decimal_strings():
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return st.one_of(
        finite.map(repr),
        finite.map(lambda v: "%.17g" % v),
        st.tuples(st.integers(-10**6, 10**6), st.integers(0, 999)).map(
            lambda t: f"{t[0]}.{t[1]:03d}"),
        st.integers(-10**20, 10**20).map(str),
    )


@given(st.lists(st.tuples(decimal_strings(), decimal_strings()), min_size=1, max_size=30),
       st.booleans())
def test_load_csv_parses_decimal_strings_like_float(tmp_path_factory, rows, quoted):
    path = tmp_path_factory.getbasetemp() / "decimals.csv"
    cell = '"{}"' if quoted else "{}"
    lines = "".join(f"{cell.format(a)},{b}\n" for a, b in rows)
    path.write_text("a,y\n" + lines, encoding="utf-8")
    data = load_csv(str(path), 1)
    want = np.array([[float(a), float(b)] for a, b in rows])
    got = np.hstack([data.features, data.labels])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("body", ["1.5,2,3\n4,5.25,6\n", "1.5,2,3\n4,5_0,6\n"])
def test_load_csv_skips_a_byte_order_mark(tmp_path, body):
    # Spreadsheet exports start UTF-8 files with a byte-order mark; it must not
    # become part of the first column's name. numpy's parser rejects "5_0",
    # which ``float`` reads, so the second body takes the cell-by-cell path.
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text("a,b,y\n" + body, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for spec in ("a", "y", 1):
        want, got = load_csv(str(plain), spec), load_csv(str(marked), spec)
        assert np.array_equal(got.features, want.features)
        assert np.array_equal(got.labels, want.labels)
