import itertools

import numpy as np
import pytest

from bannet.bounds import (
    bound_chain,
    classification_lower_bound,
    partition_regions,
    regression_lower_bound,
)
from bannet.errors import DataError, DimensionError
from bannet.model import (
    SIGN,
    ActivationParams,
    BannModel,
    Dataset,
    LayerParams,
    hidden_pattern,
    mse,
)

from conftest import make_random_dataset, make_random_model


def exhaustive_zero_one_floor(partition, labels):
    """Minimum 0-1 error over every assignment of one +/-1 label per region."""
    best = 1.0
    for assignment in itertools.product((-1.0, 1.0), repeat=partition.n_regions):
        errors = 0
        for value, idx in zip(assignment, partition.indices):
            errors += int(np.sum(labels[idx] != value))
        best = min(best, errors / len(labels))
    return best


def reference_indices(model, dataset, k):
    """Row indices per region, grouped one row at a time by the pattern's
    bytes; regions in first-occurrence order."""
    patterns = hidden_pattern(model, dataset.features, k)
    groups = {}
    for i in range(patterns.shape[0]):
        groups.setdefault(patterns[i].tobytes(), []).append(i)
    return [np.array(rows, dtype=int) for rows in groups.values()]


def reference_regression_floor(indices, labels):
    m = labels.shape[0]
    return sum(len(idx) / m * float(np.var(labels[idx], axis=0).sum()) for idx in indices)


def reference_classification_floor(indices, labels):
    m = labels.shape[0]
    return (1.0 - sum(len(idx) / m * abs(float(labels[idx].mean())) for idx in indices)) / 2.0


def model_with_widths(rng, widths, activation):
    layers = [
        LayerParams(rng.normal(size=(widths[k + 1], widths[k])), rng.normal(size=widths[k + 1]))
        for k in range(len(widths) - 1)
    ]
    return BannModel(activation, tuple(layers[:-1]), layers[-1])


@pytest.mark.parametrize(
    "activation", [SIGN, ActivationParams(0.5, 0.0, 1.0), ActivationParams(-1.0, -2.0, 3.0)]
)
def test_partition_and_floors_match_row_loop_reference(activation):
    rng = np.random.default_rng(12)
    hidden_widths = [[65], [130], [3, 65, 2], [130, 64], [1], [8, 8, 8]]
    for hidden in hidden_widths:
        for m in (1, 2, 40, 400):
            d0, dl = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            model = model_with_widths(rng, [d0, *hidden, dl], activation)
            # Few distinct inputs, so regions hold several rows each.
            pool = rng.normal(size=(max(1, m // 4), d0))
            x = pool[rng.integers(0, pool.shape[0], m)]
            data = Dataset(x, rng.normal(size=(m, dl)))
            signs = np.where(rng.normal(size=m) < 0, -1.0, 1.0)
            for k in range(1, len(hidden) + 1):
                part = partition_regions(model, data, k)
                want = reference_indices(model, data, k)
                assert part.n_regions == len(want)
                assert part.n_rows == m
                assert all(np.array_equal(a, b) for a, b in zip(part.indices, want))
                assert regression_lower_bound(part, data.labels) == pytest.approx(
                    reference_regression_floor(want, data.labels), rel=1e-12, abs=1e-300
                )
                assert classification_lower_bound(part, signs) == pytest.approx(
                    reference_classification_floor(want, signs), rel=0, abs=1e-12
                )


def test_width_one_layer_gives_at_most_two_regions():
    rng = np.random.default_rng(0)
    model = make_random_model(rng, d0=3, n_hidden=1, dl=1, max_width=1)
    data = make_random_dataset(rng, m=50, d0=3, dl=1)
    part = partition_regions(model, data, 1)
    assert part.n_regions <= 2
    assert part.n_rows == 50


def test_constant_pattern_single_region():
    model = BannModel(
        SIGN,
        (LayerParams(np.zeros((3, 2)), np.ones(3)),),
        LayerParams(np.ones((1, 3)), np.zeros(1)),
    )
    data = Dataset(np.random.default_rng(1).normal(size=(30, 2)), np.ones((30, 1)))
    part = partition_regions(model, data, 1)
    assert part.n_regions == 1
    assert len(part.indices[0]) == 30


def test_two_two_one_architecture_at_most_four_regions():
    rng = np.random.default_rng(2)
    model = make_random_model(rng, d0=2, n_hidden=1, dl=1, max_width=2)
    while model.hidden[0].width != 2:
        model = make_random_model(rng, d0=2, n_hidden=1, dl=1, max_width=2)
    data = make_random_dataset(rng, m=200, d0=2, dl=1)
    assert partition_regions(model, data, 1).n_regions <= 4


def test_partition_depth_out_of_range():
    rng = np.random.default_rng(3)
    model = make_random_model(rng, n_hidden=1)
    data = make_random_dataset(rng, d0=model.in_width, dl=1)
    with pytest.raises(DimensionError):
        partition_regions(model, data, 2)


def test_regression_bound_zero_when_regions_pure():
    rng = np.random.default_rng(4)
    model = make_random_model(rng, d0=2, n_hidden=1, dl=1)
    data = make_random_dataset(rng, m=40, d0=2, dl=1)
    part = partition_regions(model, data, 1)
    # constant labels inside every region
    labels = np.zeros((40, 1))
    for value, idx in zip(range(part.n_regions), part.indices):
        labels[idx] = float(value)
    assert regression_lower_bound(part, labels) == pytest.approx(0.0, abs=1e-15)


def test_regression_bound_single_region_is_variance():
    model = BannModel(
        SIGN,
        (LayerParams(np.zeros((2, 1)), np.ones(2)),),
        LayerParams(np.ones((1, 2)), np.zeros(1)),
    )
    rng = np.random.default_rng(5)
    y = rng.normal(size=(25, 1))
    data = Dataset(rng.normal(size=(25, 1)), y)
    part = partition_regions(model, data, 1)
    assert part.n_regions == 1
    assert regression_lower_bound(part, y) == pytest.approx(float(np.var(y)), rel=1e-12)


def test_regression_bound_chain_and_mse_dominance():
    rng = np.random.default_rng(6)
    for _ in range(20):
        model = make_random_model(rng, n_hidden=int(rng.integers(1, 4)))
        data = make_random_dataset(rng, m=int(rng.integers(10, 80)), d0=model.in_width,
                                   dl=model.out_width)
        rows = bound_chain(model, data)
        bounds = [b for _, _, b in rows]
        total = mse(model, data)
        slack = 1e-9 * max(1.0, total)
        assert all(a <= b + slack for a, b in zip(bounds, bounds[1:]))
        assert bounds[-1] <= total + slack


def test_refinement_region_counts_non_increasing():
    rng = np.random.default_rng(7)
    for _ in range(10):
        model = make_random_model(rng, n_hidden=int(rng.integers(2, 4)))
        data = make_random_dataset(rng, m=60, d0=model.in_width, dl=model.out_width)
        counts = [n for _, n, _ in bound_chain(model, data)]
        assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_classification_bound_pure_regions():
    rng = np.random.default_rng(8)
    model = make_random_model(rng, d0=2, n_hidden=1, dl=1)
    data = make_random_dataset(rng, m=30, d0=2, dl=1)
    part = partition_regions(model, data, 1)
    labels = np.zeros(30)
    for k, idx in enumerate(part.indices):
        labels[idx] = 1.0 if k % 2 == 0 else -1.0
    assert classification_lower_bound(part, labels) == pytest.approx(0.0, abs=1e-15)


def test_classification_bound_balanced_single_region():
    model = BannModel(
        SIGN,
        (LayerParams(np.zeros((1, 1)), np.ones(1)),),
        LayerParams(np.ones((1, 1)), np.zeros(1)),
    )
    x = np.arange(4.0)[:, None]
    labels = np.array([1.0, -1.0, 1.0, -1.0])
    data = Dataset(x, labels[:, None])
    part = partition_regions(model, data, 1)
    assert classification_lower_bound(part, labels) == pytest.approx(0.5)


def test_classification_bound_two_to_one_region():
    # a lone region {+1, +1, -1}: best constant errs on exactly 1 of 3
    model = BannModel(
        SIGN,
        (LayerParams(np.zeros((1, 1)), np.ones(1)),),
        LayerParams(np.ones((1, 1)), np.zeros(1)),
    )
    data = Dataset(np.arange(3.0)[:, None], np.array([[1.0], [1.0], [-1.0]]))
    part = partition_regions(model, data, 1)
    assert classification_lower_bound(part, data.labels) == pytest.approx(1.0 / 3.0)


def test_classification_bound_matches_exhaustive_oracle():
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 50:
        model = make_random_model(rng, d0=2, n_hidden=1, dl=1, max_width=3)
        m = int(rng.integers(6, 40))
        x = rng.normal(size=(m, 2))
        labels = np.where(rng.normal(size=m) < 0, -1.0, 1.0)
        data = Dataset(x, labels[:, None])
        part = partition_regions(model, data, 1)
        if part.n_regions > 8:
            continue
        bound = classification_lower_bound(part, labels)
        assert bound == pytest.approx(exhaustive_zero_one_floor(part, labels), abs=1e-12)
        checked += 1


def test_classification_bound_rejects_non_binary_labels():
    rng = np.random.default_rng(10)
    model = make_random_model(rng, d0=1, n_hidden=1, dl=1)
    data = make_random_dataset(rng, m=10, d0=1, dl=1)
    part = partition_regions(model, data, 1)
    with pytest.raises(DataError):
        classification_lower_bound(part, np.linspace(-1, 1, 10))


def test_bound_label_size_mismatch():
    rng = np.random.default_rng(11)
    model = make_random_model(rng, d0=2, n_hidden=1, dl=1)
    data = make_random_dataset(rng, m=12, d0=2, dl=1)
    part = partition_regions(model, data, 1)
    with pytest.raises(DataError):
        regression_lower_bound(part, np.zeros((11, 1)))
