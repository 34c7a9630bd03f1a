"""CSV ingestion and deterministic train/validation/test splitting."""

from __future__ import annotations

import csv
import itertools
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


def parse_label_spec(spec: str | int | list[str]) -> int | list[str]:
    """A label spec is either a trailing-column count or a list of names."""
    if isinstance(spec, int):
        return spec
    if isinstance(spec, list):
        return list(spec)
    text = str(spec).strip()
    if not text:
        raise DataError("empty label spec")
    try:
        return int(text)
    except ValueError:
        return [name.strip() for name in text.split(",")]


def load_csv(path: str, label_columns: str | int | list[str]) -> Dataset:
    """Parse a headered, all-numeric CSV into features and labels.

    ``label_columns`` names the label columns or gives a trailing-column
    count. Missing or non-numeric cells are rejected with their position.
    """
    spec = parse_label_spec(label_columns)
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            header = next(csv.reader(handle), None)
            values = None if header is None else _c_parse(handle, len(header))
            if values is None:
                handle.seek(0)
                body = list(csv.reader(handle))[1:]
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

    if isinstance(spec, int):
        if not 1 <= spec < n_cols:
            raise DataError(
                f"{path}: trailing label count {spec} must leave at least one "
                f"feature column out of {n_cols}"
            )
        label_idx = list(range(n_cols - spec, n_cols))
    else:
        if len(set(spec)) != len(spec):
            dupes = sorted({n for n in spec if spec.count(n) > 1})
            raise DataError(f"{path}: duplicate label column(s): {', '.join(dupes)}")
        try:
            label_idx = [header.index(name) for name in spec]
        except ValueError:
            missing = [name for name in spec if name not in header]
            raise DataError(f"{path}: label column(s) not found: {', '.join(missing)}")
        if len(label_idx) == n_cols:
            raise DataError(f"{path}: no feature columns left")
    feature_idx = [i for i in range(n_cols) if i not in label_idx]

    if values is None:
        values = _parse_cells(path, header, body)
    if values.shape[0] < 1:
        raise DataError(f"{path}: no data rows")
    if not np.all(np.isfinite(values)):
        raise DataError(f"{path}: non-finite values present")

    return Dataset(values[:, feature_idx], values[:, label_idx])


def _c_parse(handle, n_cols: int) -> np.ndarray | None:
    """The remaining lines parsed by numpy's C parser, which rounds like ``float``.
    None where it could differ from ``_parse_cells``: if it raised, warned (no
    data) or gave another shape than (lines, header width), as blank lines do."""
    lines = itertools.count()  # zip stops at the handle's end: counts its lines
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt((line for line, _ in zip(handle, lines)),
                                delimiter=",", comments=None, quotechar='"', ndmin=2)
    except (ValueError, UserWarning):
        return None
    return values if values.shape == (next(lines), n_cols) else None


def _parse_cells(path: str, header: list[str], body: list[list[str]]) -> np.ndarray:
    """Cell-by-cell parse that reports the first bad row or cell in file order."""
    n_cols = len(header)
    values = np.empty((len(body), n_cols))
    for r, row in enumerate(body, start=2):
        if len(row) != n_cols:
            raise DataError(f"{path}: line {r} has {len(row)} cells, expected {n_cols}")
        for c, cell in enumerate(row):
            text = cell.strip()
            if not text:
                raise DataError(f"{path}: line {r}, column {header[c]!r}: empty cell")
            try:
                values[r - 2, c] = float(text)
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
