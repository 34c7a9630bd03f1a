import numpy as np
import pytest

from bannet import forward, load_model, save_model
from bannet.approx import (
    build_product_approximator,
    build_square_approximator,
    product_grid_error,
    square_grid_error,
)
from bannet.bounds import partition_regions
from bannet.model import Dataset

DUST = 1e-12  # float slack on certified bounds measured over a grid


def test_square_r1_levels_and_error():
    model = build_square_approximator(1)
    assert model.hidden[0].width == 1
    assert model.hidden[0].biases[0] == pytest.approx(-np.sqrt(0.5))
    xs = np.array([0.0, 0.5, 0.8, 1.0])
    out = forward(model, xs[:, None])[:, 0]
    assert set(np.round(out, 12)) <= {0.0, 1.0}
    err = square_grid_error(model)
    assert err <= 0.5 + DUST
    assert err >= 0.45  # the bound is tight for r = 1


def test_square_endpoints_match_for_every_r():
    for r in (1, 2, 3, 5, 7, 50, 128, 500):
        model = build_square_approximator(r)
        assert abs(forward(model, [0.0])[0]) <= 1e-15
        assert abs(forward(model, [1.0])[0] - 1.0) <= 1e-15


def test_square_certified_bound_r50():
    model = build_square_approximator(50)
    assert square_grid_error(model) <= 1.0 / 100.0 + DUST


def test_square_width_law():
    for r in (1, 4, 9, 33):
        model = build_square_approximator(r)
        assert model.hidden[0].width == r
        assert square_grid_error(model) <= 1.0 / (2 * r) + DUST


def test_square_rejects_nonpositive_r():
    with pytest.raises(ValueError):
        build_square_approximator(0)


def test_product_exact_on_axes():
    model = build_product_approximator(1.0, 0.01)
    xs = np.linspace(-1.0, 1.0, 101)
    on_x = np.column_stack([xs, np.zeros_like(xs)])
    on_y = np.column_stack([np.zeros_like(xs), xs])
    assert np.all(forward(model, on_x)[:, 0] == 0.0)
    assert np.all(forward(model, on_y)[:, 0] == 0.0)


def test_product_certified_bounds():
    for m, delta in ((1.0, 0.01), (2.0, 0.05)):
        model = build_product_approximator(m, delta)
        assert product_grid_error(model, m) <= 3 * m * m * delta + DUST


def test_product_symmetric():
    model = build_product_approximator(1.0, 0.02)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(200, 2))
    swapped = pts[:, ::-1]
    diff = forward(model, pts)[:, 0] - forward(model, swapped)[:, 0]
    assert np.max(np.abs(diff)) <= 1e-12


def test_product_parameter_validation():
    with pytest.raises(ValueError):
        build_product_approximator(0.0, 0.1)
    with pytest.raises(ValueError):
        build_product_approximator(1.0, 1.5)


def test_constructions_are_ordinary_models(tmp_path):
    # forward, serialization and region partitioning all apply unchanged
    model = build_product_approximator(1.0, 0.05)
    path = tmp_path / "prod.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(50, 2))
    assert np.array_equal(forward(model, pts), forward(loaded, pts))
    data = Dataset(pts, (pts[:, :1] * pts[:, 1:2]))
    part = partition_regions(model, data, 1)
    assert part.n_rows == 50
