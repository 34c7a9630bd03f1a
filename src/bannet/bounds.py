"""Region partitions induced by hidden layers and the training-loss floors
they imply.

Each hidden layer splits the input space into the cells of a hyperplane
arrangement; grouping dataset rows by their activation pattern at depth k
yields a partition. No network sharing those layers can do better on the
training set than predicting the per-region label mean (squared error) or the
per-region majority label (0-1 error), which gives computable lower bounds.

A partition is stored as one region id per row. Rows are grouped by packing
each activation pattern into bits and sorting the packed keys once, and the
floors are per-region sums taken with ``np.bincount``, so neither step loops
over rows or regions in Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .model import BannModel, Dataset, hidden_pattern


@dataclass(frozen=True)
class RegionPartition:
    """Rows grouped by their exact activation pattern after hidden layer k.

    ``region[i]`` is the region of row i. Regions are numbered 0 to
    ``n_regions - 1`` in the order of their first row.
    """

    layer_depth: int
    region: np.ndarray
    n_regions: int

    @property
    def n_rows(self) -> int:
        return self.region.shape[0]

    @property
    def indices(self) -> tuple[np.ndarray, ...]:
        """Row indices of each region, ascending, regions in id order."""
        order = np.argsort(self.region, kind="stable")
        ends = np.cumsum(np.bincount(self.region, minlength=self.n_regions))
        return tuple(np.split(order, ends[:-1]))


def partition_regions(model: BannModel, dataset: Dataset, k: int) -> RegionPartition:
    """Group dataset rows by equality of their layer-k activation pattern.

    Exact equality is safe: activation outputs are drawn from a two-element
    set, so a pattern is fully described by which units output h2.
    """
    patterns = hidden_pattern(model, dataset.features, k)
    bits = np.packbits(patterns == model.activation.h2, axis=1)
    keys = np.ascontiguousarray(bits).view(np.dtype((np.void, bits.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty(first.shape[0], dtype=np.intp)
    rank[np.argsort(first)] = np.arange(first.shape[0])
    return RegionPartition(k, rank[inverse], int(first.shape[0]))


def _check_rows(partition: RegionPartition, m: int) -> None:
    if partition.n_rows != m:
        raise DataError(f"partition covers {partition.n_rows} rows, labels have {m}")


def regression_lower_bound(partition: RegionPartition, labels: np.ndarray) -> float:
    """Weighted sum over output coordinates and regions of the population
    variance of labels within the region (weights: region size / m). No
    squared-error training loss of a network inducing this partition can be
    lower."""
    labels = np.asarray(labels, dtype=float)
    if labels.ndim == 1:
        labels = labels[:, None]
    m = labels.shape[0]
    _check_rows(partition, m)
    region, n = partition.region, partition.n_regions
    sizes = np.bincount(region, minlength=n)
    means = np.column_stack(
        [np.bincount(region, weights=col, minlength=n) / sizes for col in labels.T]
    )
    dev = labels - means[region]
    return float(np.sum(dev * dev)) / m


def classification_lower_bound(partition: RegionPartition, labels: np.ndarray) -> float:
    """0-1-loss floor for binary labels in {-1, +1}: (1 - sum of weighted
    absolute per-region label means) / 2. Zero when every region is
    label-pure; at most 0.5."""
    labels = np.asarray(labels, dtype=float).reshape(-1)
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise DataError("classification bound requires labels exactly in {-1, +1}")
    m = labels.shape[0]
    _check_rows(partition, m)
    # A region of size n_r with label sum s_r weighs n_r/m * |s_r/n_r| = |s_r|/m.
    sums = np.bincount(partition.region, weights=labels, minlength=partition.n_regions)
    return (1.0 - float(np.sum(np.abs(sums))) / m) / 2.0


def bound_chain(model: BannModel, dataset: Dataset) -> list[tuple[int, int, float]]:
    """(depth, region count, squared-error floor) for every hidden depth."""
    rows = []
    for k in range(1, model.depth):
        part = partition_regions(model, dataset, k)
        rows.append((k, part.n_regions, regression_lower_bound(part, dataset.labels)))
    return rows
