import math

import numpy as np
import pytest

from bannet import (
    ConfigError,
    Dataset,
    LassoConfig,
    LayerState,
    Neuron,
    SolverError,
    TrainConfig,
    ZeroWeightVector,
    build_layer,
    build_network,
    compute_cd,
    fit_hyperplane,
    hidden_pattern,
    mse,
    optimal_bias,
)
from bannet.train import neuron_side, units_forward


def split_objective(proj, residuals, b):
    """Weighted per-side residual variance realized by bias b."""
    side = np.where(proj + b < 0, -1.0, 1.0)
    m = len(proj)
    total = 0.0
    for col in residuals.T:
        for mask in (side < 0, side > 0):
            if mask.any():
                total += mask.sum() / m * float(np.var(col[mask]))
    return total


def brute_force_best_split(w, features, residuals):
    """Independent oracle: evaluate the realized objective of every candidate
    bias (midpoints of consecutive sorted projections plus the two empty-side
    extremes) and keep the first strict minimum."""
    proj = features @ w
    sp = np.sort(proj)
    m = len(sp)
    candidates = [-(sp[0] - 1.0)]
    candidates += [-(sp[i - 1] + sp[i]) / 2.0 for i in range(1, m)]
    candidates.append(-(sp[m - 1] + 1.0))
    best_b, best_obj = None, math.inf
    for b in candidates:
        obj = split_objective(proj, residuals, b)
        if obj < best_obj:
            best_b, best_obj = b, obj
    return best_b, best_obj


def test_optimal_bias_hand_example():
    features = np.array([[0.0], [1.0], [2.0], [3.0]])
    residuals = np.array([[0.0], [0.0], [10.0], [10.0]])
    b, obj = optimal_bias(np.array([1.0]), features, residuals)
    assert b == pytest.approx(-1.5)
    assert obj == pytest.approx(0.0, abs=1e-12)


def test_optimal_bias_constant_residuals_tie_break():
    features = np.array([[0.0], [1.0], [2.0]])
    residuals = np.full((3, 1), 4.0)
    b, obj = optimal_bias(np.array([1.0]), features, residuals)
    # every split scores Var(r) = 0; first in scan order leaves the negative side empty
    assert b == pytest.approx(-(0.0 - 1.0))
    assert obj == pytest.approx(0.0, abs=1e-12)


def test_optimal_bias_matches_exhaustive_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        dl = int(rng.integers(1, 3))
        features = rng.normal(size=(m, d))
        residuals = rng.normal(size=(m, dl))
        w = rng.normal(size=d)
        b, obj = optimal_bias(w, features, residuals)
        oracle_b, oracle_obj = brute_force_best_split(w, features, residuals)
        scale = 1.0 + abs(oracle_obj)
        assert obj <= oracle_obj + 1e-9 * scale
        # the returned bias actually realizes the optimal objective
        realized = split_objective(features @ w, residuals, b)
        assert abs(realized - oracle_obj) <= 1e-9 * scale


def test_optimal_bias_rejects_zero_normal():
    with pytest.raises(ZeroWeightVector):
        optimal_bias(np.zeros(3), np.ones((4, 3)), np.ones((4, 1)))


def test_compute_cd_hand_example():
    c, d = compute_cd(np.array([[1.0], [3.0]]), np.array([1.0, -1.0]))
    assert c[0] == pytest.approx(-1.0)
    assert d[0] == pytest.approx(2.0)


def test_compute_cd_constant_residuals():
    c, d = compute_cd(np.full((5, 2), 7.0), np.array([1, -1, 1, -1, 1.0]))
    assert np.allclose(c, 0.0, atol=1e-15)
    assert np.allclose(d, 7.0, rtol=1e-15)


def test_compute_cd_empty_side_convention():
    residuals = np.array([[2.0], [4.0]])
    c, d = compute_cd(residuals, np.array([1.0, 1.0]))
    assert c[0] == 0.0
    assert d[0] == pytest.approx(3.0)


def test_compute_cd_matches_least_squares_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        m = int(rng.integers(2, 30))
        dl = int(rng.integers(1, 4))
        residuals = rng.normal(size=(m, dl))
        side = np.where(rng.normal(size=m) < 0, -1.0, 1.0)
        if np.all(side == side[0]):
            continue
        c, d = compute_cd(residuals, side)
        design = np.column_stack([side, np.ones(m)])
        for j in range(dl):
            coef, *_ = np.linalg.lstsq(design, residuals[:, j], rcond=None)
            assert abs(c[j] - coef[0]) <= 1e-9
            assert abs(d[j] - coef[1]) <= 1e-9


def test_fit_hyperplane_separates_constant_clusters():
    rng = np.random.default_rng(2)
    left = rng.normal(size=(20, 2)) * 0.1
    right = rng.normal(size=(20, 2)) * 0.1 + np.array([5.0, 0.0])
    features = np.vstack([left, right])
    residuals = np.concatenate([np.zeros(20), np.full(20, 10.0)])[:, None]
    w, b, _ = fit_hyperplane(features, residuals, LassoConfig(), 1e5)
    side = neuron_side(features, w, b)
    assert len(set(side[:20])) == 1 and len(set(side[20:])) == 1
    assert side[0] != side[-1]
    _, obj = optimal_bias(w, features, residuals)
    assert obj == pytest.approx(0.0, abs=1e-12)


def test_fit_hyperplane_duplicated_outputs_match_univariate():
    rng = np.random.default_rng(3)
    features = rng.normal(size=(30, 3))
    col = rng.normal(size=(30, 1))
    w1, b1, lam1 = fit_hyperplane(features, col, LassoConfig(), 1e5)
    w2, b2, lam2 = fit_hyperplane(features, np.hstack([col, col]), LassoConfig(), 1e5)
    assert np.allclose(w1, w2, rtol=1e-10, atol=1e-12)
    assert b1 == pytest.approx(b2, rel=1e-10)
    assert lam1 == lam2


def test_fit_hyperplane_zero_residuals_signal():
    with pytest.raises(ZeroWeightVector):
        fit_hyperplane(np.random.default_rng(4).normal(size=(10, 2)),
                       np.zeros((10, 1)), LassoConfig(max_halvings=30), 1e5)


def layer_state(features, targets, seed_lambda=1e5):
    return LayerState(features, targets, LassoConfig(), seed_lambda)


def test_fit_hyperplane_raises_on_non_converged_solve():
    rng = np.random.default_rng(40)
    features = rng.normal(size=(200, 3))
    targets = 3.0 * features[:, 0] + 3.0 * features[:, 1] + 0.1 * rng.normal(size=200)
    w, _, _ = fit_hyperplane(features, targets, LassoConfig(), 1e5)
    assert np.count_nonzero(w) >= 2
    cfg = TrainConfig(max_hidden_layers=1, lasso=LassoConfig(cd_max_iters=1))
    with pytest.raises(SolverError):
        build_layer(features, targets, None, None, cfg)


def test_add_neuron_zeroes_residual_sums():
    rng = np.random.default_rng(5)
    state = layer_state(rng.normal(size=(40, 3)), rng.normal(size=(40, 2)))
    drop, predicted, imbalance = state.add_neuron()
    assert imbalance <= 1e-9 * 40
    # total residual sum is zero once d has absorbed the side means
    assert np.max(np.abs(state.residuals.sum(axis=0))) <= 1e-9 * 40


def test_add_neuron_drop_matches_presplit_identity():
    rng = np.random.default_rng(6)
    for _ in range(20):
        m = int(rng.integers(5, 40))
        state = layer_state(rng.normal(size=(m, 2)), rng.normal(size=(m, 1)) * 3)
        pre = state.residuals.copy()
        state.add_neuron()
        unit = state.neurons[-1]
        side = neuron_side(state.features, unit.w, unit.b)
        expected = 0.0
        for col in pre.T:
            for mask in (side > 0, side < 0):
                if mask.any():
                    expected += col[mask].sum() ** 2 / mask.sum()
        expected /= m
        realized = float(np.sum(pre * pre) / m) - state.train_mse()
        assert realized == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_add_neuron_drop_equals_cd_identity_from_second_unit():
    rng = np.random.default_rng(7)
    state = layer_state(rng.normal(size=(60, 4)), rng.normal(size=(60, 2)))
    state.add_neuron()
    for _ in range(5):
        pre = state.train_mse()
        drop, predicted, _ = state.add_neuron()
        assert drop == pytest.approx(predicted, rel=1e-9, abs=1e-12)
        assert state.train_mse() < pre


def test_replace_pass_noop_with_single_unit():
    rng = np.random.default_rng(8)
    state = layer_state(rng.normal(size=(20, 2)), rng.normal(size=(20, 1)))
    state.add_neuron()
    accepted, _ = state.replace_pass(10)
    assert accepted == 0


def test_replace_pass_rejects_fixed_point_and_restores():
    # second unit contributes nothing; refitting the first reproduces it, so
    # the training error cannot strictly decrease and the pass stops
    features = np.array([[0.0], [1.0], [2.0], [3.0]])
    state = layer_state(features, np.array([[0.0], [0.0], [8.0], [8.0]]))
    state.add_neuron()
    assert state.train_mse() == pytest.approx(0.0, abs=1e-20)
    state.neurons.append(Neuron(np.array([1.0]), -0.5, np.zeros(1), np.zeros(1)))
    before = state.residuals.copy()
    accepted, _ = state.replace_pass(10)
    assert accepted == 0
    assert np.array_equal(state.residuals, before)


def test_replace_pass_improves_suboptimal_greedy_order():
    improved = 0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        x = np.sort(rng.uniform(0, 1, 50))[:, None]
        y = np.where(x < 0.31, 0.0, np.where(x < 0.67, 6.0, 1.0)) + 0.05 * rng.normal(size=(50, 1))
        state = layer_state(x, y)
        for _ in range(3):
            state.add_neuron()
        before = state.train_mse()
        state.replace_pass(10)
        after = state.train_mse()
        assert after <= before + 1e-15
        if after < before - 1e-12 * max(1.0, before):
            improved += 1
    assert improved >= 1


def planted_cube(reps=6):
    """Balanced +/-1 cube labelled by a known 3-unit network with orthogonal
    hyperplanes: y = 4*sgn(x1) + 2*sgn(x2) + sgn(x3). The shrinking penalty
    uncovers the units largest-coefficient-first, so greedy training recovers
    the network exactly."""
    corners = np.array(
        [[a, b, c] for a in (-1.0, 1.0) for b in (-1.0, 1.0) for c in (-1.0, 1.0)]
    )
    x = np.tile(corners, (reps, 1))
    y = (4 * x[:, :1] + 2 * x[:, 1:2] + x[:, 2:3])
    return x, y


def test_build_layer_recovers_planted_network():
    x, y = planted_cube()
    val_x, val_y = planted_cube(reps=2)
    cfg = TrainConfig(max_neurons_per_layer=50, max_hidden_layers=1, patience=20)
    result = build_layer(x, y, val_x, val_y, cfg)
    assert result.best_train_mse <= 1e-6
    assert result.width <= 10


def test_build_layer_patience_one_stops_at_width_one():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(40, 1))
    y = np.where(x < 0, -1.0, 1.0) + 0.02 * rng.normal(size=(40, 1))
    val_x = rng.normal(size=(20, 1))
    cfg1 = TrainConfig(max_neurons_per_layer=1, max_hidden_layers=1)
    first = build_layer(x, y, None, None, cfg1)
    # validation labels equal to the width-1 prediction: any further unit hurts
    val_y = units_forward(first.neurons, val_x)
    cfg = TrainConfig(max_neurons_per_layer=10, max_hidden_layers=1, patience=1)
    result = build_layer(x, y, val_x, val_y, cfg)
    assert result.width == 1


def test_build_layer_constant_targets_aborts_at_width_one():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(20, 3))
    y = np.full((20, 1), 5.0)
    cfg = TrainConfig(max_neurons_per_layer=10, max_hidden_layers=1)
    result = build_layer(x, y, None, None, cfg)
    assert result.aborted
    assert result.width == 1
    assert result.best_train_mse == pytest.approx(0.0, abs=1e-18)


def test_build_network_single_layer_shape():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(50, 2))
    y = (x[:, :1] > 0).astype(float) * 3 + 0.1 * rng.normal(size=(50, 1))
    ds = Dataset(x, y)
    cfg = TrainConfig(max_neurons_per_layer=8, max_hidden_layers=1, seed=5)
    model, report = build_network(ds, cfg)
    assert len(model.hidden) == 1
    assert report.architecture == model.architecture()
    assert report.architecture[0] == 2 and report.architecture[-1] == 1


def test_build_network_deep_patterns_shrink():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(200, 3))
    y = (np.sin(3 * x[:, :1]) + (x[:, 1:2] > 0)).astype(float)
    ds = Dataset(x, y)
    cfg = TrainConfig(max_neurons_per_layer=20, max_hidden_layers=3, seed=2, patience=5)
    model, report = build_network(ds, cfg)
    if len(model.hidden) > 1:
        counts = [
            len({row.tobytes() for row in hidden_pattern(model, x, k)})
            for k in range(1, model.depth)
        ]
        assert all(b <= a for a, b in zip(counts, counts[1:]))
        # second-layer inputs are sign patterns
        patterns = hidden_pattern(model, x, 1)
        assert set(np.unique(patterns)) <= {-1.0, 1.0}


def test_build_network_monotone_training_error_within_layer():
    rng = np.random.default_rng(13)
    ds = Dataset(rng.normal(size=(80, 3)), rng.normal(size=(80, 2)))
    cfg = TrainConfig(max_neurons_per_layer=12, max_hidden_layers=1, seed=3)
    _, report = build_network(ds, cfg)
    # growth rows are the t = 1, 2, ... prefix; the trailing summary row
    # restates the rolled-back model and may sit higher
    rows = [r for r in report.records if r.layer == 1]
    growth = [r for i, r in enumerate(rows) if r.t == i + 1]
    mses = [r.train_mse for r in growth]
    assert len(mses) >= 2
    assert all(b < a + 1e-12 * max(1.0, a) for a, b in zip(mses, mses[1:]))


def test_build_network_deterministic_and_consistent():
    rng = np.random.default_rng(14)
    ds = Dataset(rng.normal(size=(60, 2)), rng.normal(size=(60, 1)))
    cfg = TrainConfig(max_neurons_per_layer=6, max_hidden_layers=1, seed=9)
    model_a, report_a = build_network(ds, cfg)
    model_b, report_b = build_network(ds, cfg)
    for la, lb in zip(list(model_a.hidden) + [model_a.output], list(model_b.hidden) + [model_b.output]):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.biases, lb.biases)
    assert report_a.final_train_mse == report_b.final_train_mse
    # the reported final training error is the returned model's actual error
    rng2 = np.random.default_rng(cfg.seed)
    perm = rng2.permutation(ds.m)
    n_val = int(cfg.val_fraction * ds.m)
    train_ds = ds.take(perm[: ds.m - n_val])
    assert mse(model_a, train_ds) == pytest.approx(report_a.final_train_mse, rel=1e-12)


def test_build_network_requires_validation_for_deepening():
    # four rows at val_fraction 0.2 floor to an empty validation split
    rng = np.random.default_rng(15)
    ds = Dataset(rng.normal(size=(4, 2)), rng.normal(size=(4, 1)))
    cfg = TrainConfig(max_neurons_per_layer=5, max_hidden_layers=2, seed=1)
    with pytest.raises(ConfigError):
        build_network(ds, cfg)
    # a single hidden layer is fine without validation
    cfg1 = TrainConfig(max_neurons_per_layer=3, max_hidden_layers=1, seed=1)
    model, _ = build_network(ds, cfg1)
    assert len(model.hidden) == 1


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(max_neurons_per_layer=0)
    with pytest.raises(ConfigError):
        TrainConfig(val_fraction=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(patience=0)
