"""CSV ingestion and deterministic train/validation/test splitting."""

from __future__ import annotations

import csv
import os
import stat
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .model import Dataset


@dataclass(frozen=True)
class SplitSpec:
    """Shuffle with the seed, carve the test fraction off the end, then the
    validation fraction off the end of what remains."""

    test_fraction: float = 0.25
    val_fraction: float = 0.20
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must lie in (0, 1)")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError("val_fraction must lie in (0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


def load_csv(path: str, label_columns: str | int | list[str]) -> Dataset:
    """Parse a headered, all-numeric CSV into features and labels.

    ``label_columns`` names the label columns (a list or a comma-separated
    string) or gives a count k >= 1 (an int or its string) that stands for the
    last k header names; either must leave a feature column. Missing or
    non-numeric cells are rejected with their position.
    """
    spec = label_columns
    if not isinstance(spec, (int, list)):
        text = str(spec).strip()
        if not text:
            raise DataError("empty label spec")
        try:
            spec = int(text)
        except ValueError:
            spec = [name.strip() for name in text.split(",")]
    if isinstance(spec, int) and spec < 1:
        raise DataError(f"label count {spec} must be at least 1")
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            header_lines, values = reader.line_num, None
            # The C parser opens the path again, which rereads only a regular file.
            if header is not None and stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                values = _c_parse(os.path.abspath(path), header_lines, len(header))
            if values is None:
                body = [(reader.line_num, row) for row in reader]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not valid UTF-8: {exc}") from exc
    if header is None:
        raise DataError(f"{path}: file is empty")
    header = [name.strip() for name in header]
    if len(set(header)) != len(header):
        dupes = sorted({n for n in header if header.count(n) > 1})
        raise DataError(f"{path}: duplicate header column(s): {', '.join(dupes)}")
    n_cols = len(header)

    names = header[max(n_cols - spec, 0):] if isinstance(spec, int) else spec
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise DataError(f"{path}: duplicate label column(s): {', '.join(dupes)}")
    try:
        label_idx = [header.index(name) for name in names]
    except ValueError:
        missing = [name for name in names if name not in header]
        raise DataError(f"{path}: label column(s) not found: {', '.join(missing)}")
    if len(label_idx) == n_cols:
        raise DataError(f"{path}: no feature columns left")
    feature_idx = [i for i in range(n_cols) if i not in label_idx]

    if values is None:
        values = _parse_cells(path, header, header_lines, body)
    if values.shape[0] < 1:
        raise DataError(f"{path}: no data rows")
    if not np.all(np.isfinite(values)):
        raise DataError(f"{path}: non-finite values present")

    # Indexing by a list copies the columns once, and the Dataset keeps those copies.
    return Dataset._adopt(values[:, feature_idx], values[:, label_idx])


def _c_parse(path: str, header_lines: int, n_cols: int) -> np.ndarray | None:
    """The lines after the header, parsed from the absolute ``path`` by numpy's
    C parser, which reads the file in large chunks and rounds like ``float``.

    None where it could differ from ``_parse_cells``: for a name that numpy
    would decompress, or if it raised, warned (no data) or gave another shape
    than (lines, header width), as blank lines do, since it skips them. Lines
    are counted as ``newline=""`` splits them. An absolute path has no URL
    scheme, so numpy never fetches it.
    """
    if os.path.splitext(path)[1] in (".gz", ".bz2", ".xz", ".lzma"):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(path, delimiter=",", comments=None, quotechar='"', ndmin=2,
                                skiprows=header_lines, encoding="utf-8-sig")
    except (ValueError, UserWarning):
        return None
    lines = _count_lines(path) - header_lines
    return values if values.shape == (lines, n_cols) else None


def _count_lines(path: str) -> int:
    """Lines ending in \\n, \\r or \\r\\n, plus an unterminated last line,
    counted over 256 KiB binary chunks of the file."""
    lines, last = 0, b""
    with open(path, "rb") as raw:
        for chunk in iter(lambda: raw.read(1 << 18), b""):
            # A numpy compare counts faster than bytes.count; \r is rare.
            lines += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n")))
            if b"\r" in chunk:
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            lines -= last == b"\r" and chunk[:1] == b"\n"  # a \r\n split between chunks
            last = chunk[-1:]
    return lines + (last not in (b"", b"\n", b"\r"))


def _parse_cells(path: str, header: list[str], end: int, body: list[tuple]) -> np.ndarray:
    """Cell-by-cell parse naming the first bad row or cell by the line it starts on.
    ``body`` pairs each row with its last line; the header's last line is ``end``."""
    n_cols = len(header)
    values = np.empty((len(body), n_cols))
    for i, (row_end, row) in enumerate(body):
        r, end = end + 1, row_end
        if len(row) != n_cols:
            raise DataError(f"{path}: line {r} has {len(row)} cells, expected {n_cols}")
        for c, cell in enumerate(row):
            text = cell.strip()
            if not text:
                raise DataError(f"{path}: line {r}, column {header[c]!r}: empty cell")
            try:
                values[i, c] = float(text)
            except ValueError:
                raise DataError(
                    f"{path}: line {r}, column {header[c]!r}: non-numeric cell {cell!r}"
                )
    return values


def split_dataset(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministic (train, validation, test) split per the spec fractions."""
    m = dataset.m
    if m < 5:
        raise DataError(f"need at least 5 rows to split, got {m}")
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(m)
    n_test = int(spec.test_fraction * m)
    rest = m - n_test
    n_val = int(spec.val_fraction * rest)
    n_train = rest - n_val
    if min(n_train, n_val, n_test) == 0:
        raise ConfigError(
            f"fractions leave an empty split: sizes ({n_train}, {n_val}, {n_test})"
        )
    return (
        dataset.take(perm[:n_train]),
        dataset.take(perm[n_train:rest]),
        dataset.take(perm[rest:]),
    )
