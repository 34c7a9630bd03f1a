import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bannet.bounds
from bannet.bounds import (
    bound_chain,
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
    mse,
)

from conftest import hidden_pattern, make_random_dataset, make_random_model


def region_indices(partition):
    """Row indices of each region, ascending, regions in id order."""
    order = np.argsort(partition.region, kind="stable")
    ends = np.cumsum(np.bincount(partition.region, minlength=partition.n_regions))
    return tuple(np.split(order, ends[:-1]))


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
            for k in range(1, len(hidden) + 1):
                part = partition_regions(model, data, k)
                want = reference_indices(model, data, k)
                assert part.n_regions == len(want)
                assert part.n_rows == m
                assert all(np.array_equal(a, b) for a, b in zip(region_indices(part), want))
                assert regression_lower_bound(part, data.labels) == pytest.approx(
                    reference_regression_floor(want, data.labels), rel=1e-12, abs=1e-300
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
    assert len(region_indices(part)[0]) == 30


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
    for value, idx in zip(range(part.n_regions), region_indices(part)):
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


def test_bound_label_size_mismatch():
    rng = np.random.default_rng(11)
    model = make_random_model(rng, d0=2, n_hidden=1, dl=1)
    data = make_random_dataset(rng, m=12, d0=2, dl=1)
    part = partition_regions(model, data, 1)
    with pytest.raises(DataError):
        regression_lower_bound(part, np.zeros((11, 1)))


def dyadic_model(rng, widths, activation):
    """Weights and biases on a 1/8 grid: with inputs on a 1/8 grid too, every
    pre-activation is exact, so no evaluation order can change a pattern."""
    layers = [
        LayerParams(rng.integers(-16, 17, size=(widths[k + 1], widths[k])) / 8.0,
                    rng.integers(-16, 17, size=widths[k + 1]) / 8.0)
        for k in range(len(widths) - 1)
    ]
    return BannModel(activation, tuple(layers[:-1]), layers[-1])


@given(
    seed=st.integers(0, 2**32 - 1),
    hidden=st.lists(st.sampled_from([1, 8, 9, 64, 65]), min_size=1, max_size=4),
    activation=st.sampled_from(
        [SIGN, ActivationParams(0.5, 0.0, 1.0), ActivationParams(-1.0, -2.0, 3.0)]),
    m=st.integers(1, 60),
)
def test_bound_chain_refinement_matches_row_loop_reference(seed, hidden, activation, m):
    rng = np.random.default_rng(seed)
    d0 = int(rng.integers(1, 5))
    model = dyadic_model(rng, [d0, *hidden, 1], activation)
    pool = rng.integers(-16, 17, size=(max(1, m // 3), d0)) / 8.0
    data = Dataset(pool[rng.integers(0, pool.shape[0], m)], rng.normal(size=(m, 1)))

    chained = []

    def record(*args, **kwargs):
        chained.append(partition_regions(*args, **kwargs))
        return chained[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bannet.bounds, "partition_regions", record)
        rows = bound_chain(model, data)
    assert [part.layer_depth for part in chained] == list(range(1, len(hidden) + 1))
    for (k, count, floor), part in zip(rows, chained):
        want = reference_indices(model, data, k)
        want_region = np.empty(m, dtype=int)
        for r, idx in enumerate(want):
            want_region[idx] = r
        assert count == part.n_regions == len(want)
        assert np.array_equal(part.region, want_region)
        assert floor == pytest.approx(reference_regression_floor(want, data.labels),
                                      rel=1e-12, abs=1e-300)
        patterns = hidden_pattern(model, data.features, k)
        assert np.array_equal(part.reps, patterns[[idx[0] for idx in want]])
        direct = partition_regions(model, data, k)
        assert direct.n_regions == part.n_regions
        assert np.array_equal(direct.region, part.region)
        assert np.array_equal(direct.reps, part.reps)


def test_partition_rejects_a_coarser_partition_that_does_not_fit():
    rng = np.random.default_rng(13)
    model = make_random_model(rng, d0=2, n_hidden=3, dl=1)
    data = make_random_dataset(rng, m=20, d0=2, dl=1)
    second = partition_regions(model, data, 2)
    for k in (1, 2):
        with pytest.raises(DimensionError):
            partition_regions(model, data, k, second)
    assert partition_regions(model, data, 3, second).layer_depth == 3
    fewer = Dataset(data.features[:19], data.labels[:19])
    with pytest.raises(DataError):
        partition_regions(model, fewer, 3, second)


def test_depth_one_partition_builds_no_float_pattern():
    # A [4, 46, 22, 24, 1] network whose first-layer units each cut two of the
    # four features, as in the benchmark's read path. The float pattern of
    # every row would take m x 46 x 8 bytes; the packed keys take 8 a row.
    rng = np.random.default_rng(0)
    m, widths = 50_000, [4, 46, 22, 24, 1]
    pairs = list(itertools.combinations(range(4), 2))
    layers = []
    for k in range(len(widths) - 1):
        weights = np.zeros((widths[k + 1], widths[k]))
        for j, row in enumerate(weights):
            cols = list(pairs[j % len(pairs)]) if k == 0 else rng.choice(widths[k], 4, False)
            row[cols] = rng.normal(size=len(cols))
        layers.append(LayerParams(weights, rng.normal(size=widths[k + 1])))
    model = BannModel(SIGN, tuple(layers[:-1]), layers[-1])
    data = Dataset(rng.normal(size=(m, 4)), rng.normal(size=(m, 1)))
    tracemalloc.start()
    try:
        part = partition_regions(model, data, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert part.n_rows == m and part.reps.shape == (part.n_regions, 46)
    assert peak < m * 46 * 8 / 2
