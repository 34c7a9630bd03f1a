"""Region partitions induced by hidden layers and the training-loss floors
they imply.

Each hidden layer splits the input space into the cells of a hyperplane
arrangement; grouping dataset rows by their activation pattern at depth k
yields a partition. No network sharing those layers can do better on the
training set than predicting the per-region label mean, which gives a
computable lower bound on the squared error.

A partition is one region id per row and one layer output per region. The
rows of a depth-(k-1) region share their layer-k input, so depth k refines
depth k-1 by pushing one row per region through layer k. Patterns are grouped
by sorting their bit-packed keys once, and the floors are per-region sums by
``np.bincount``, so no step loops over rows or regions in Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .model import BannModel, Dataset, propagate, unpack_pattern


@dataclass(frozen=True)
class RegionPartition:
    """Rows grouped by their exact activation pattern after hidden layer k.

    ``region[i]`` is the region of row i. Regions are numbered 0 to
    ``n_regions - 1`` in the order of their first row. ``reps[r]`` is the
    layer-k output shared by the rows of region r.
    """

    layer_depth: int
    region: np.ndarray
    n_regions: int
    reps: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.region.shape[0]


def partition_regions(model: BannModel, dataset: Dataset, k: int,
                      coarser: RegionPartition | None = None) -> RegionPartition:
    """Group dataset rows by equality of their layer-k activation pattern.

    Exact equality is safe: outputs take two values, so a pattern is its bits
    ``z < t``. The block loop packs them into one key per row (a uint64 up to
    64 units, else whole 8-byte words). One unstable argsort brings equal keys
    together; each run of them is a region, whose first row is the least row
    index in the run. Only each region's pattern is unpacked.

    ``coarser``, a partition of the same rows at a lower depth (by default
    depth 0, each row its own region), is refined: only its representatives
    go through the remaining layers, so each distinct layer input is
    evaluated once. A row-by-row pass can round equal inputs differently next
    to a threshold; the two agree wherever pre-activations are exact.
    """
    coarser = _rows(dataset) if coarser is None else coarser
    _check_rows(coarser, dataset.m)
    bits = propagate(model, coarser.reps, k, with_output=False, start=coarser.layer_depth)
    words = bits.shape[1]
    keys = bits.view(np.uint64 if words == 8 else np.dtype((np.void, words)))[:, 0]
    rows = np.argsort(keys)
    sorted_keys = keys[rows]
    new_run = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    first = np.minimum.reduceat(rows, np.flatnonzero(new_run))
    order = np.argsort(first)  # runs in first-row order
    run_region = np.empty(len(first), np.intp)
    run_region[order] = np.arange(len(first))
    region = np.empty(len(keys), np.intp)
    region[rows] = run_region[np.cumsum(new_run) - 1]
    reps = unpack_pattern(model, bits[first[order]], k)
    return RegionPartition(k, region[coarser.region], len(first), reps)


def partition_chain(model: BannModel, dataset: Dataset) -> list[RegionPartition]:
    """Partitions at depths 0 (one region per row) to the last hidden layer."""
    chain = [_rows(dataset)]
    for k in range(1, model.depth):
        chain.append(partition_regions(model, dataset, k, chain[-1]))
    return chain


def _rows(dataset: Dataset) -> RegionPartition:
    return RegionPartition(0, np.arange(dataset.m), dataset.m, dataset.features)


def _check_rows(partition: RegionPartition, m: int) -> None:
    if partition.n_rows != m:
        raise DataError(f"partition covers {partition.n_rows} rows, the data has {m}")


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


def bound_chain(model: BannModel, dataset: Dataset) -> list[tuple[int, int, float]]:
    """(depth, region count, squared-error floor) per hidden depth, each refining the last."""
    return [(part.layer_depth, part.n_regions, regression_lower_bound(part, dataset.labels))
            for part in partition_chain(model, dataset)[1:]]
