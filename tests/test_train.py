import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bannet.data import SplitSpec, split_dataset
from bannet.errors import ConfigError, SolverError, ZeroWeightVector
from bannet.model import (
    SIGN,
    BannModel,
    Dataset,
    LayerParams,
    count_nonzero_parameters,
    forward,
    hidden_pattern,
    mse,
    squared_error_sums,
)
from bannet.solvers import LassoConfig, StandardizedDesign, scheduled_lasso_fit
from bannet.train import (
    LayerState,
    Neuron,
    TrainConfig,
    build_layer,
    build_network,
    compute_cd,
    neuron_side,
    optimal_bias,
    units_forward,
    units_to_layer,
)


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
    b = optimal_bias(np.array([1.0]), features, residuals)
    assert b == pytest.approx(-1.5)
    assert split_objective(features[:, 0], residuals, b) == pytest.approx(0.0, abs=1e-12)


def test_optimal_bias_constant_residuals_tie_break():
    features = np.array([[0.0], [1.0], [2.0]])
    residuals = np.full((3, 1), 4.0)
    b = optimal_bias(np.array([1.0]), features, residuals)
    # every split scores Var(r) = 0; first in scan order leaves the negative side empty
    assert b == pytest.approx(-(0.0 - 1.0))
    assert split_objective(features[:, 0], residuals, b) == pytest.approx(0.0, abs=1e-12)


def test_optimal_bias_matches_exhaustive_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        dl = int(rng.integers(1, 3))
        features = rng.normal(size=(m, d))
        residuals = rng.normal(size=(m, dl))
        w = rng.normal(size=d)
        b = optimal_bias(w, features, residuals)
        oracle_b, oracle_obj = brute_force_best_split(w, features, residuals)
        scale = 1.0 + abs(oracle_obj)
        # the returned bias actually realizes the optimal objective
        realized = split_objective(features @ w, residuals, b)
        assert realized <= oracle_obj + 1e-9 * scale
        assert abs(realized - oracle_obj) <= 1e-9 * scale


def test_optimal_bias_rejects_zero_normal():
    with pytest.raises(ZeroWeightVector):
        optimal_bias(np.zeros(3), np.ones((4, 3)), np.ones((4, 1)))


@st.composite
def split_problems(draw, unit_design=False):
    """A normal w, features and residuals for one split search. A unit design
    has +/-1 features, so many projections tie, and integer residuals, whose
    prefix sums are exact in any row order."""
    m, d, dl = draw(st.integers(1, 30)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    w = draw(arrays(float, d, elements=st.floats(-10, 10)).filter(lambda v: np.any(v != 0)))
    if unit_design:
        features = draw(arrays(float, (m, d), elements=st.sampled_from([-1.0, 1.0])))
        values = st.integers(-1000, 1000).map(float)
    else:
        features = draw(arrays(float, (m, d), elements=st.floats(-10, 10)))
        # Magnitudes in [2^-20, 2^20] stay normal doubles under 2^+-600.
        values = st.floats(-(2.0**20), 2.0**20).filter(lambda v: v == 0 or abs(v) >= 2.0**-20)
    return w, features, draw(arrays(float, (m, dl), elements=values))


@given(split_problems(), st.integers(-600, 600))
def test_optimal_bias_invariant_under_power_of_two_label_scaling(problem, k):
    w, features, residuals = problem
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = optimal_bias(w, features, residuals)
        scaled_b = optimal_bias(w, features, np.ldexp(residuals, k))
    assert scaled_b == b


@given(split_problems(unit_design=True), st.data())
def test_optimal_bias_invariant_under_row_permutation_of_tied_designs(problem, data):
    w, features, residuals = problem
    perm = np.array(data.draw(st.permutations(range(len(features)))), dtype=int)
    b = optimal_bias(w, features, residuals)
    assert optimal_bias(w, features[perm], residuals[perm]) == b
    # Integer residuals tie often, so the oracle may pick another split of
    # equal objective; its objective is what must match.
    _, oracle_obj = brute_force_best_split(w, features, residuals)
    scale = 1.0 + abs(oracle_obj)
    assert abs(split_objective(features @ w, residuals, b) - oracle_obj) <= 1e-9 * scale


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
    w, b = LayerState(features, residuals, LassoConfig(), 1e5).fit_hyperplane()
    side = neuron_side(features, w, b)
    assert len(set(side[:20])) == 1 and len(set(side[20:])) == 1
    assert side[0] != side[-1]
    assert split_objective(features @ w, residuals, b) == pytest.approx(0.0, abs=1e-12)


def test_fit_hyperplane_duplicated_outputs_match_univariate():
    rng = np.random.default_rng(3)
    features = rng.normal(size=(30, 3))
    col = rng.normal(size=(30, 1))
    one = LayerState(features, col, LassoConfig(), 1e5)
    two = LayerState(features, np.hstack([col, col]), LassoConfig(), 1e5)
    w1, b1 = one.fit_hyperplane()
    w2, b2 = two.fit_hyperplane()
    assert np.allclose(w1, w2, rtol=1e-10, atol=1e-12)
    assert b1 == pytest.approx(b2, rel=1e-10)
    assert one.current_lambda == two.current_lambda


def test_multivariate_fit_on_row_mean_matches_tiled_design():
    # The stacked problem (design repeated once per output coordinate against
    # the residual columns laid end to end) is what the row-mean fit replaces.
    rng = np.random.default_rng(30)
    features = rng.normal(size=(300, 6))
    residuals = features[:, :3] @ rng.normal(size=(3, 3)) + rng.normal(size=(300, 3))
    tiled = StandardizedDesign(np.tile(features, (3, 1)))
    for seed_lambda in (1e5, 0.3, 0.01):
        state = LayerState(features, residuals, LassoConfig(), seed_lambda)
        w, _ = state.fit_hyperplane()
        want = scheduled_lasso_fit(tiled, residuals.T.reshape(-1), LassoConfig(), seed_lambda)
        assert state.design.n == 300
        assert state.current_lambda == want.used_lambda
        assert np.allclose(w, want.w, rtol=0, atol=1e-12)


def test_fit_hyperplane_zero_residuals_signal():
    state = LayerState(np.random.default_rng(4).normal(size=(10, 2)),
                       np.zeros((10, 1)), LassoConfig(), 1e5)
    with pytest.raises(ZeroWeightVector):
        state.fit_hyperplane()


def layer_state(features, targets, seed_lambda=1e5):
    return LayerState(features, targets, LassoConfig(), seed_lambda)


def test_fit_hyperplane_raises_on_non_converged_solve(monkeypatch):
    rng = np.random.default_rng(40)
    features = rng.normal(size=(200, 3))
    targets = 3.0 * features[:, 0] + 3.0 * features[:, 1] + 0.1 * rng.normal(size=200)
    w, _ = LayerState(features, targets, LassoConfig(), 1e5).fit_hyperplane()
    assert np.count_nonzero(w) >= 2
    monkeypatch.setattr(LassoConfig, "max_steps", 1)
    cfg = TrainConfig(max_hidden_layers=1, patience=500)
    with pytest.raises(SolverError):
        build_layer(features, targets, features, targets, cfg)


def test_add_neuron_zeroes_residual_sums():
    rng = np.random.default_rng(5)
    state = layer_state(rng.normal(size=(40, 3)), rng.normal(size=(40, 2)))
    drop, predicted, imbalance = state.add_neuron()
    assert imbalance <= 1e-9 * 40
    # total residual sum is zero once d has absorbed the side means
    assert np.max(np.abs(state.residuals.sum(axis=1))) <= 1e-9 * 40


def test_add_neuron_drop_matches_presplit_identity():
    rng = np.random.default_rng(6)
    for _ in range(20):
        m = int(rng.integers(5, 40))
        state = layer_state(rng.normal(size=(m, 2)), rng.normal(size=(m, 1)) * 3)
        pre = state.residuals.copy()  # (dl, m)
        state.add_neuron()
        unit = state.neurons[-1]
        side = neuron_side(state.features, unit.w, unit.b)
        expected = 0.0
        for col in pre:
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


def test_side_imbalance_matches_masked_sums():
    rng = np.random.default_rng(22)
    state = layer_state(rng.normal(size=(50, 3)), rng.normal(size=(50, 2)))
    for _ in range(3):
        state.add_neuron()
    sides = [neuron_side(state.features, u.w, u.b) for u in state.neurons]
    sides += [np.ones(50), -np.ones(50), np.where(rng.normal(size=50) < 0, -1.0, 1.0)]
    tol = 1e-12 * np.abs(state.residuals).sum()
    for side in sides:
        want = max(
            float(np.max(np.abs(state.residuals[:, mask].sum(axis=1))))
            for mask in (side > 0, side < 0)
            if mask.any()
        )
        assert state._side_imbalance(side) == pytest.approx(want, rel=1e-12, abs=tol)


def test_add_neuron_refuses_a_unit_that_raises_the_error(monkeypatch):
    rng = np.random.default_rng(24)
    state = layer_state(rng.normal(size=(30, 2)), rng.normal(size=(30, 1)))
    state.add_neuron()
    before = state.residuals.copy()
    # coefficients that shift every residual away from its zero mean
    monkeypatch.setattr("bannet.train.compute_cd", lambda r, side: (np.zeros(1), np.ones(1)))
    with pytest.raises(ZeroWeightVector):
        state.add_neuron()
    assert np.array_equal(state.residuals, before)
    assert len(state.neurons) == 1


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
    records = []
    result = build_layer(x, y, val_x, val_y, cfg, records=records)
    assert records[result.width - 1].train_mse <= 1e-6
    assert result.width <= 10


def test_build_layer_patience_one_stops_at_width_one():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(40, 1))
    y = np.where(x < 0, -1.0, 1.0) + 0.02 * rng.normal(size=(40, 1))
    val_x = rng.normal(size=(20, 1))
    cfg1 = TrainConfig(max_neurons_per_layer=1, max_hidden_layers=1, patience=1)
    first = build_layer(x, y, x, y, cfg1)
    # validation labels equal to the width-1 prediction: any further unit hurts
    val_y = forward(first.network, val_x)
    cfg = TrainConfig(max_neurons_per_layer=10, max_hidden_layers=1, patience=1)
    result = build_layer(x, y, val_x, val_y, cfg)
    assert result.width == 1


def test_build_layer_validation_error_matches_recompute(monkeypatch):
    # Validation predictions are updated by the units that changed; every
    # record's val_mse must agree with predicting from that step's units.
    rng = np.random.default_rng(23)
    x, val_x = rng.normal(size=(400, 4)), rng.normal(size=(200, 4))

    def labels(v):
        return np.column_stack([np.sin(2 * v[:, 0]) + 0.5 * v[:, 1] * v[:, 2], v[:, 3] - v[:, 0]])

    y = labels(x) + 0.1 * rng.normal(size=(400, 2))
    val_y = labels(val_x) + 0.1 * rng.normal(size=(200, 2))
    steps = []
    replace_pass = LayerState.replace_pass

    def recording(self, cap):
        out = replace_pass(self, cap)
        steps.append(list(self.neurons))
        return out

    monkeypatch.setattr(LayerState, "replace_pass", recording)
    records = []
    cfg = TrainConfig(max_neurons_per_layer=40, max_hidden_layers=1, patience=40)
    build_layer(x, y, val_x, val_y, cfg, records=records)
    assert len(records) == len(steps) == 40
    assert sum(r.replacements for r in records) >= 10
    for units, r in zip(steps, records):
        want = squared_error_sums(units_forward(units, val_x), val_y)[0] / 200
        assert r.val_mse == pytest.approx(want, rel=1e-12, abs=0)


def test_build_layer_constant_targets_aborts_at_width_one():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(20, 3))
    y = np.full((20, 1), 5.0)
    cfg = TrainConfig(max_neurons_per_layer=10, max_hidden_layers=1, patience=10)
    records = []
    result = build_layer(x, y, x, y, cfg, records=records)
    assert result.aborted
    assert result.width == 1
    assert records[result.width - 1].train_mse == pytest.approx(0.0, abs=1e-18)


def test_build_network_single_layer_shape():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(50, 2))
    y = (x[:, :1] > 0).astype(float) * 3 + 0.1 * rng.normal(size=(50, 1))
    ds = Dataset(x, y)
    cfg = TrainConfig(max_neurons_per_layer=8, max_hidden_layers=1, patience=8)
    model, report = build_network(ds, cfg, val_data=ds)
    assert len(model.hidden) == 1
    assert report.architecture == model.architecture()
    assert report.architecture[0] == 2 and report.architecture[-1] == 1


def test_build_network_deep_patterns_shrink():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(200, 3))
    y = (np.sin(3 * x[:, :1]) + (x[:, 1:2] > 0)).astype(float)
    train, val, _ = split_dataset(Dataset(x, y), SplitSpec(seed=2))
    cfg = TrainConfig(max_neurons_per_layer=20, max_hidden_layers=3, patience=5)
    model, report = build_network(train, cfg, val_data=val)
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
    cfg = TrainConfig(max_neurons_per_layer=12, max_hidden_layers=1, patience=12)
    _, report = build_network(ds, cfg, val_data=ds)
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
    cfg = TrainConfig(max_neurons_per_layer=6, max_hidden_layers=1, patience=6)
    model_a, report_a = build_network(ds, cfg, val_data=ds)
    model_b, report_b = build_network(ds, cfg, val_data=ds)
    for la, lb in zip(list(model_a.hidden) + [model_a.output], list(model_b.hidden) + [model_b.output]):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.biases, lb.biases)
    assert report_a.final_train_mse == report_b.final_train_mse
    # the reported final training error is the returned model's actual error
    assert mse(model_a, ds) == pytest.approx(report_a.final_train_mse, rel=1e-12)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(max_neurons_per_layer=0)
    with pytest.raises(ConfigError):
        TrainConfig(max_hidden_layers=0)
    with pytest.raises(ConfigError):
        TrainConfig(patience=0)


def test_report_nnz_counts_kept_layers_and_grown_units():
    # Append-only growth (replace_cap=0) never rewrites a unit, so regrowing
    # each layer from its starting penalty reproduces the units of every
    # growth record, and the returned model is the network of the record at
    # the kept width.
    rng = np.random.default_rng(16)
    x = rng.normal(size=(240, 3))
    y = np.sin(3 * x[:, :1]) + (x[:, 1:2] > 0) + 0.05 * rng.normal(size=(240, 1))
    train, val, _ = split_dataset(Dataset(x, y), SplitSpec(seed=4))
    cfg = TrainConfig(max_neurons_per_layer=12, max_hidden_layers=2, replace_cap=0, patience=4)
    model, report = build_network(train, cfg, val_data=val)
    growth = report.records[:-1]
    assert {r.layer for r in growth} == {1, 2}
    kept: tuple = ()
    features = train.features
    lam = cfg.lasso.lambda0
    scored = None
    for layer in (1, 2):
        rows = [r for r in growth if r.layer == layer]
        state = LayerState(features, train.labels, cfg.lasso, lam)
        for r in rows:
            state.add_neuron()
            grown, head_w, head_b = units_to_layer(state.neurons)
            partial = BannModel(SIGN, kept + (grown,), LayerParams(head_w, head_b))
            assert r.t == len(state.neurons)
            assert r.nnz == count_nonzero_parameters(partial)
            if layer == len(model.hidden) and r.t == model.hidden[-1].width:
                scored = (grown.weights, grown.biases, head_w, head_b)
        lam = rows[-1].lambda_used
        kept = (model.hidden[0],)
        features = hidden_pattern(model, train.features, 1)
    last = model.hidden[-1]
    want = (last.weights, last.biases, model.output.weights, model.output.biases)
    assert scored is not None
    for got, expected in zip(scored, want):
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(20, 150), st.integers(1, 4), st.data())
def test_training_invariant_under_power_of_two_feature_scaling(seed, m, d, data):
    # Scaling a column by 2^k is exact, so its standardization, and with it
    # every fit, split and record, is unchanged; only that column's layer-1
    # weights carry the inverse factor.
    j, k = data.draw(st.integers(0, d - 1)), data.draw(st.integers(-60, 60))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m + m // 2, d))
    y = 2.0 * (x[:, :1] > 0) + np.sin(3.0 * x[:, -1:]) + 0.1 * rng.normal(size=(len(x), 2))
    scaled = x.copy()
    scaled[:, j] = np.ldexp(x[:, j], k)
    cfg = TrainConfig(max_neurons_per_layer=10, max_hidden_layers=2, patience=3)
    model, report = build_network(Dataset(x[:m], y[:m]), cfg, Dataset(x[m:], y[m:]))
    model_s, report_s = build_network(Dataset(scaled[:m], y[:m]), cfg,
                                      Dataset(scaled[m:], y[m:]))
    assert report_s == report
    assert model_s.architecture() == model.architecture()
    first, first_s = model.hidden[0], model_s.hidden[0]
    assert np.array_equal(first_s.weights[:, j], np.ldexp(first.weights[:, j], -k))
    assert np.array_equal(np.delete(first_s.weights, j, 1), np.delete(first.weights, j, 1))
    for a, b in zip((first, *model.hidden[1:], model.output),
                    (first_s, *model_s.hidden[1:], model_s.output)):
        assert np.array_equal(b.biases, a.biases)
    for a, b in zip((*model.hidden[1:], model.output), (*model_s.hidden[1:], model_s.output)):
        assert np.array_equal(b.weights, a.weights)
