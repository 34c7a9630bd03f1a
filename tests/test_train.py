import csv
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bannet.data import SplitSpec, split_dataset
from bannet.errors import ConfigError, DimensionError, SolverError, ZeroWeightVector
from bannet.model import (
    SIGN,
    BannModel,
    Dataset,
    LayerParams,
    activate,
    count_nonzero_parameters,
    forward,
    mse,
    squared_error_sums,
)
from bannet.solvers import LassoConfig, StandardizedDesign, scheduled_lasso_fit
from bannet.train import (
    IterationRecord,
    LayerState,
    TrainConfig,
    _largest_side_sum,
    build_layer,
    build_network,
    compute_cd,
    optimal_bias,
)

from conftest import hidden_pattern


def unit_side(features, w, b):
    """Side of the hyperplane for every row: -1 below, +1 at or above."""
    return np.where(features @ w + b < 0, -1.0, 1.0)


def state_arrays(state):
    """Everything a unit change or head fit may write: residuals, units, head,
    validation prediction and the head's columns, bits included, with their factor."""
    n = len(state._linv)
    return (state.residuals, state.W, state.b, state.C, state.head_bias, state.val_pred,
            state._sides[:n], state._val_sides[:n], state._bits[:n], state._linv, state._rhs)


def poison_empty(monkeypatch):
    """Make np.empty fill what it returns with all-ones bytes (NaN floats, -1
    int8s), so code that reads an entry it never wrote shows it."""
    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.view(np.uint8).fill(0xFF)
        return out

    monkeypatch.setattr(np, "empty", poisoned)


def head_prediction(arrays, features):
    """Prediction of units (W, b) under the head (C, head bias): bias + sum_k C_k side_k(x)."""
    W, b, C, head_b = arrays
    sides = np.array([unit_side(features, w, bk) for w, bk in zip(W, b)]).reshape(len(b), -1)
    return (C @ sides).T + head_b


def capture_layer_arrays(monkeypatch):
    """Record (W, b, C, head bias) of every LayerState after each head refit,
    that is, the units and head of each growth record."""
    captured = []
    replace_pass = LayerState.replace_pass

    def recording(self):
        out = replace_pass(self)
        captured.append(tuple(a.copy() for a in (self.W, self.b, self.C, self.head_bias)))
        return out

    monkeypatch.setattr(LayerState, "replace_pass", recording)
    return captured


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


def side_split(residuals, side):
    """The split (k, P, T) of (m, dl) residuals that a +/-1 side realizes, summed
    row by row: the negative-side count, the positive-side and the total sums."""
    return int(np.count_nonzero(side < 0)), residuals[side > 0].sum(axis=0), residuals.sum(axis=0)


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
    b, _ = optimal_bias(features @ np.array([1.0]), residuals)
    assert b == pytest.approx(-1.5)
    assert split_objective(features[:, 0], residuals, b) == pytest.approx(0.0, abs=1e-12)


def test_optimal_bias_constant_residuals_tie_break():
    features = np.array([[0.0], [1.0], [2.0]])
    residuals = np.full((3, 1), 4.0)
    b, _ = optimal_bias(features @ np.array([1.0]), residuals)
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
        b, _ = optimal_bias(features @ w, residuals)
        oracle_b, oracle_obj = brute_force_best_split(w, features, residuals)
        scale = 1.0 + abs(oracle_obj)
        # the returned bias actually realizes the optimal objective
        realized = split_objective(features @ w, residuals, b)
        assert realized <= oracle_obj + 1e-9 * scale
        assert abs(realized - oracle_obj) <= 1e-9 * scale


def test_optimal_bias_constant_projection_puts_every_row_positive():
    # A constant projection, such as the zero normal's, has no split: the
    # threshold lies 1 below the projection and every row is on the positive side.
    residuals = np.random.default_rng(26).normal(size=(4, 2))
    for value in (0.0, -2.5, 7.0):
        proj = np.full(4, value)
        b, _ = optimal_bias(proj, residuals)
        assert b == -(value - 1.0)
        assert np.all(proj + b >= 0)


@pytest.mark.parametrize("lo", [-1.0, 0.0, 0.1, 1.0, 3.0, 2.0**53, 1e300])
def test_optimal_bias_realizes_split_between_adjacent_projections(lo):
    # The midpoint of two adjacent doubles can round onto the lower one; the
    # bias must still put that row on the negative side.
    hi = np.nextafter(lo, math.inf)
    proj = np.array([lo, hi, np.nextafter(hi, math.inf)])
    residuals = np.array([[0.0], [10.0], [10.0]])
    b, _ = optimal_bias(proj, residuals)
    assert np.array_equal(unit_side(proj[:, None], np.ones(1), b), [-1.0, 1.0, 1.0])
    assert split_objective(proj, residuals, b) == 0.0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_optimal_bias_midpoint_does_not_overflow_near_double_range(sign):
    # lo + hi overflows for the flanking projections; the threshold must not.
    proj = np.sort(sign * np.array([1e308, 1.5e308, 1.7e308]))
    residuals = np.array([[0.0], [10.0], [10.0]])
    b, _ = optimal_bias(proj, residuals)
    assert math.isfinite(b)
    assert np.array_equal(unit_side(proj[:, None], np.ones(1), b), [-1.0, 1.0, 1.0])


def test_optimal_bias_returns_the_split_it_realizes():
    # compute_cd reads the split, not the rows: k must count the rows the bias
    # puts on the negative side, and P and T must be the sums over the positive
    # side and over all rows, on ties, adjacent doubles, constant projections
    # and magnitudes near 1e300 alike.
    rng = np.random.default_rng(29)

    def adjacent(m):
        # Runs of equal projections, each run one double above the last.
        values = [rng.choice([-3.0, 0.0, 1.0, 2.0**53, 1e300])]
        for _ in range(m):
            values.append(np.nextafter(values[-1], math.inf))
        return np.array(values)[np.sort(rng.integers(0, m, m))]

    kinds = {
        "ties": lambda m: rng.integers(-2, 3, m).astype(float),
        "adjacent": adjacent,
        "constant": lambda m: np.full(m, rng.normal()),
        "huge": lambda m: rng.choice([-1.0, 1.0], m) * rng.uniform(1.0, 1.7, m) * 1e300,
        "normal": lambda m: rng.normal(size=m),
    }
    for kind, projections in kinds.items():
        for scale in (1e-300, 1.0, 1e300):
            for _ in range(20):
                m, dl = int(rng.integers(2, 40)), int(rng.integers(1, 4))
                proj = rng.permutation(projections(m))
                residuals = rng.normal(size=(m, dl)) * scale
                b, (k, pos, total) = optimal_bias(proj, residuals)
                side = activate(proj + b, SIGN)
                assert k == np.count_nonzero(proj + b < 0), kind
                tol = 1e-12 * np.abs(residuals).sum(axis=0)
                assert np.all(np.abs(pos - residuals[side > 0].sum(axis=0)) <= tol), kind
                assert np.all(np.abs(total - residuals.sum(axis=0)) <= tol), kind


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
        b, _ = optimal_bias(features @ w, residuals)
        scaled_b, _ = optimal_bias(features @ w, np.ldexp(residuals, k))
    assert scaled_b == b


@given(split_problems(unit_design=True), st.data())
def test_optimal_bias_invariant_under_row_permutation_of_tied_designs(problem, data):
    w, features, residuals = problem
    perm = np.array(data.draw(st.permutations(range(len(features)))), dtype=int)
    b, _ = optimal_bias(features @ w, residuals)
    assert optimal_bias(features[perm] @ w, residuals[perm])[0] == b
    # Integer residuals tie often, so the oracle may pick another split of
    # equal objective; its objective is what must match.
    _, oracle_obj = brute_force_best_split(w, features, residuals)
    scale = 1.0 + abs(oracle_obj)
    assert abs(split_objective(features @ w, residuals, b) - oracle_obj) <= 1e-9 * scale


def test_compute_cd_hand_example():
    residuals, side = np.array([[1.0], [3.0]]), np.array([1.0, -1.0])
    c, d = compute_cd(2, side_split(residuals, side))
    assert c[0] == pytest.approx(-1.0)
    assert d[0] == pytest.approx(2.0)


def test_compute_cd_constant_residuals():
    c, d = compute_cd(5, side_split(np.full((5, 2), 7.0), np.array([1, -1, 1, -1, 1.0])))
    assert np.allclose(c, 0.0, atol=1e-15)
    assert np.allclose(d, 7.0, rtol=1e-15)


def test_compute_cd_empty_side_convention():
    residuals = np.array([[2.0], [4.0]])
    c, d = compute_cd(2, side_split(residuals, np.array([1.0, 1.0])))
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
        c, d = compute_cd(m, side_split(residuals, side))
        design = np.column_stack([side, np.ones(m)])
        for j in range(dl):
            coef, *_ = np.linalg.lstsq(design, residuals[:, j], rcond=None)
            assert abs(c[j] - coef[0]) <= 1e-9
            assert abs(d[j] - coef[1]) <= 1e-9


def layer_state(features, targets, seed_lambda=1e5, max_units=10):
    """A LayerState that validates on its own training rows."""
    return LayerState(features, targets, features, targets, LassoConfig(), seed_lambda, max_units)


def test_fit_hyperplane_separates_constant_clusters():
    rng = np.random.default_rng(2)
    left = rng.normal(size=(20, 2)) * 0.1
    right = rng.normal(size=(20, 2)) * 0.1 + np.array([5.0, 0.0])
    features = np.vstack([left, right])
    residuals = np.concatenate([np.zeros(20), np.full(20, 10.0)])[:, None]
    state = layer_state(features, residuals)
    w = state.fit_hyperplane(state.residuals)
    b, _ = optimal_bias(features @ w, state.residuals.T)
    side = unit_side(features, w, b)
    assert len(set(side[:20])) == 1 and len(set(side[20:])) == 1
    assert side[0] != side[-1]
    assert split_objective(features @ w, residuals, b) == pytest.approx(0.0, abs=1e-12)


def test_fit_hyperplane_duplicated_outputs_match_univariate():
    rng = np.random.default_rng(3)
    features = rng.normal(size=(30, 3))
    col = rng.normal(size=(30, 1))
    one = layer_state(features, col)
    two = layer_state(features, np.hstack([col, col]))
    w1, w2 = one.fit_hyperplane(one.residuals), two.fit_hyperplane(two.residuals)
    b1, _ = optimal_bias(features @ w1, one.residuals.T)
    b2, _ = optimal_bias(features @ w2, two.residuals.T)
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
        state = layer_state(features, residuals, seed_lambda)
        w = state.fit_hyperplane(state.residuals)
        want = scheduled_lasso_fit(tiled, residuals.T.reshape(-1), LassoConfig(), seed_lambda)
        assert state.design.n == 300
        assert state.current_lambda == want.used_lambda
        assert np.allclose(w, want.w, rtol=0, atol=1e-12)


def test_fit_hyperplane_zero_residuals_signal():
    state = layer_state(np.random.default_rng(4).normal(size=(10, 2)), np.zeros((10, 1)))
    with pytest.raises(ZeroWeightVector):
        state.fit_hyperplane(state.residuals)


def test_fit_hyperplane_raises_on_non_converged_solve(monkeypatch):
    rng = np.random.default_rng(40)
    features = rng.normal(size=(200, 3))
    targets = 3.0 * features[:, 0] + 3.0 * features[:, 1] + 0.1 * rng.normal(size=200)
    state = layer_state(features, targets)
    w = state.fit_hyperplane(state.residuals)
    assert np.count_nonzero(w) >= 2
    monkeypatch.setattr(LassoConfig, "max_steps", 1)
    cfg = TrainConfig(max_hidden_layers=1, patience=500)
    with pytest.raises(SolverError):
        build_layer(features, targets, features, targets, cfg)


def test_add_neuron_zeroes_residual_sums():
    rng = np.random.default_rng(5)
    state = layer_state(rng.normal(size=(40, 3)), rng.normal(size=(40, 2)))
    state.add_neuron()
    _, imbalance = state.replace_pass()
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
        side = unit_side(state.features, state.W[-1], state.b[-1])
        expected = 0.0
        for col in pre:
            for mask in (side > 0, side < 0):
                if mask.any():
                    expected += col[mask].sum() ** 2 / mask.sum()
        expected /= m
        realized = float(np.sum(pre * pre) / m) - state.train_mse
        assert realized == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_add_neuron_drop_equals_cd_identity_from_second_unit():
    # The head bias keeps the residual total at zero through every head refit,
    # so the identity holds for each unit added after one.
    rng = np.random.default_rng(7)
    state = layer_state(rng.normal(size=(60, 4)), rng.normal(size=(60, 2)))
    state.add_neuron()
    state.replace_pass()
    for _ in range(5):
        pre = state.train_mse
        drop, predicted = state.add_neuron()
        assert drop == pytest.approx(predicted, rel=1e-9, abs=1e-12)
        assert state.train_mse < pre
        state.replace_pass()


def test_side_imbalance_matches_masked_sums():
    rng = np.random.default_rng(22)

    def masked(r, sides):
        return max(float(np.max(np.abs(r[:, mask].sum(axis=1))))
                   for side in sides for mask in (side > 0, side < 0) if mask.any())

    # From [1; S] R^T of arbitrary residuals and sides; the all-positive and
    # all-negative sides have the total as their one nonempty side.
    r = rng.normal(size=(2, 50))
    sides = np.vstack([np.ones(50), -np.ones(50), np.where(rng.normal(size=(3, 50)) < 0, -1.0, 1.0)])
    got = _largest_side_sum(np.vstack([np.ones(50), sides]) @ r.T)
    assert got == pytest.approx(masked(r, sides), rel=1e-12)
    # After a head refit: over the total and both sides of every grown unit.
    state = layer_state(rng.normal(size=(50, 3)), rng.normal(size=(50, 2)))
    for _ in range(3):
        state.add_neuron()
        _, imbalance = state.replace_pass()
    r = state.residuals
    unit_sides = [np.ones(50)] + [unit_side(state.features, w, b) for w, b in zip(state.W, state.b)]
    assert imbalance == pytest.approx(masked(r, unit_sides), rel=1e-12, abs=1e-12 * np.abs(r).sum())


def test_add_neuron_refuses_a_unit_that_raises_the_error(monkeypatch):
    rng = np.random.default_rng(24)
    state = layer_state(rng.normal(size=(30, 2)), rng.normal(size=(30, 1)))
    state.add_neuron()
    before = [a.copy() for a in state_arrays(state)]
    # coefficients that shift every residual away from its zero mean
    monkeypatch.setattr("bannet.train.compute_cd", lambda m, split: (np.zeros(1), np.ones(1)))
    with pytest.raises(ZeroWeightVector):
        state.add_neuron()
    for got, want in zip(state_arrays(state), before):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert len(state.b) == 1


def test_add_neuron_intercept_unit_is_the_zero_normal():
    rng = np.random.default_rng(27)
    state = layer_state(rng.normal(size=(30, 3)), rng.normal(size=(30, 2)))
    pre = state.residuals.copy()
    state.add_neuron(intercept=True)
    assert np.array_equal(state.W, np.zeros((1, 3))) and state.b[0] == 1.0
    assert np.array_equal(state.C, np.zeros((2, 1)))
    # d is the residual mean, from the total the bias scan sums for the zero normal.
    _, (k, _, total) = optimal_bias(np.zeros(30), pre.T)
    assert k == 0 and np.array_equal(state.head_bias, total / 30)
    # Its side is the head's constant column, so it adds no column.
    assert len(state._linv) == 1
    r = state.residuals
    assert state.train_mse == float(np.einsum("ij,ij->", r, r) / 30)


@pytest.mark.parametrize("kind", ["constant", "duplicate", "complement"])
def test_unit_with_side_in_the_span_is_not_kept(monkeypatch, kind):
    # Three units without head refits leave residuals whose sums on the first
    # unit's sides are not zero, so a unit on those sides would lower the error;
    # its side is in the span of the head's columns, so it is not kept.
    # At the first unit the residuals are the targets, whose mean is not zero,
    # so an all-positive side, the intercept-abort unit's, would lower the error.
    rng = np.random.default_rng(31)
    state = layer_state(rng.normal(size=(80, 3)), rng.normal(size=(80, 2)) + 1.0)
    for _ in range(0 if kind == "constant" else 3):
        state.add_neuron()
    w0, b0 = (state.W[0].copy(), state.b[0]) if len(state.b) else (np.ones(3), 0.0)
    normal, bias = {"constant": (w0, 1.0 - np.min(state.features @ w0)),
                    "duplicate": (w0, b0), "complement": (-w0, -b0)}[kind]
    side = unit_side(state.features, normal, bias)
    want = {"constant": np.ones(80), "duplicate": unit_side(state.features, w0, b0),
            "complement": -unit_side(state.features, w0, b0)}[kind]
    assert np.array_equal(side, want)
    split = side_split(state.residuals.T, side)
    c, d = compute_cd(80, split)
    left = state.residuals - (np.outer(c, side) + d[:, None])
    assert np.sum(left * left) < np.sum(state.residuals * state.residuals)
    before = [a.copy() for a in state_arrays(state)]
    pre = state.train_mse
    monkeypatch.setattr(state, "fit_hyperplane", lambda residuals: normal)
    monkeypatch.setattr("bannet.train.optimal_bias", lambda proj, residuals: (bias, split))
    with pytest.raises(ZeroWeightVector, match="span"):
        state.add_neuron()
    for got, want in zip(state_arrays(state), before):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if kind == "constant":  # build_layer's fallback, which adds no column
        state.add_neuron(intercept=True)
    gain, imbalance = state.replace_pass()
    assert state.train_mse <= pre and imbalance <= 1e-9 * 80
    assert (gain > 0) == (kind != "constant")
    assert np.all(np.isfinite(state.C)) and np.all(np.isfinite(state.val_pred))


@pytest.mark.parametrize("m", [2, 7, 8, 9, 127, 128, 129])
def test_side_bits_are_packbits_padded_to_whole_words(m):
    # Bit i of a unit's row is set exactly where its side is -1 on row i;
    # the bits past m and the constant row's bits are all zero.
    rng = np.random.default_rng(m)
    state = layer_state(rng.normal(size=(m, 2)), rng.normal(size=(m, 1)))
    side = np.where(np.arange(m) % 3 == 0, -1.0, 1.0)
    state._add_column(side, side)
    assert state._bits.dtype == np.uint64 and state._bits.shape[1] == -(-m // 64)
    bits = np.unpackbits(state._bits[:2].view(np.uint8), axis=1, bitorder="little")
    assert not bits[0].any() and not bits[1, m:].any()
    assert np.array_equal(bits[1, :m], side < 0)


@pytest.mark.parametrize("m", [63, 64, 65, 130])
def test_head_columns_stay_exact_up_to_the_unit_cap(monkeypatch, m):
    # 24 random sides fill stores sized for a cap of 24 units, allocated with
    # garbage in every entry. After each, the popcount Gram column of the
    # newest side's bits is the exact float product [1; S] side, and _linv
    # still inverts the Cholesky factor of G = [1; S] [1; S]^T.
    rng = np.random.default_rng(m)
    poison_empty(monkeypatch)
    state = layer_state(rng.normal(size=(m, 2)), rng.normal(size=(m, 2)), max_units=24)
    sides = [np.ones(m)]
    for n in range(1, 25):
        side = np.where(rng.normal(size=m) < 0, -1.0, 1.0)
        state._add_column(side, side)
        sides.append(side)
        S = np.vstack(sides)
        assert len(state._linv) == n + 1 and np.array_equal(state._sides[: n + 1], S)
        bits = state._bits[: n + 1]
        popcount = m - 2.0 * np.bitwise_count(bits[:n] ^ bits[n]).sum(axis=1)
        assert np.array_equal(popcount, S[:n] @ side)
        assert np.allclose(state._rhs, S @ state.targets.T, rtol=0, atol=1e-12 * m)
        eye = state._linv @ (S @ S.T) @ state._linv.T
        assert np.max(np.abs(eye - np.eye(n + 1))) <= 1e-9
    side = np.where(rng.normal(size=m) < 0, -1.0, 1.0)
    with pytest.raises(IndexError):  # no room past the cap
        state._add_column(side, side)


def test_intercept_unit_head_stays_finite():
    # The intercept-abort unit's side equals the constant column; the lone
    # unit's head is not refitted, so no singular solve runs.
    x = np.random.default_rng(10).normal(size=(20, 3))
    state = layer_state(x, np.full((20, 1), 5.0))
    with pytest.raises(ZeroWeightVector):
        state.add_neuron()
    state.add_neuron(intercept=True)
    pre = state.train_mse
    assert state.replace_pass() == (0.0, pytest.approx(0.0, abs=1e-9 * 20))
    assert state.train_mse == pre and np.array_equal(state.head_bias, [5.0])


def test_layer_width_is_bounded_by_distinct_rows():
    # The sides of rows that repeat span at most one dimension per distinct
    # training row, and the constant takes one, so no layer can grow past
    # the distinct rows less one (the replace pass grew 500 units here).
    rng = np.random.default_rng(0)
    x = np.repeat(rng.normal(size=(20, 3)), 10, axis=0)
    y = np.sin(x[:, :1]) + x[:, 1:2] * x[:, 2:3]
    train, val, _ = split_dataset(Dataset(x, y), SplitSpec(seed=0))
    distinct = len(np.unique(train.features, axis=0))
    _, report = build_network(train, TrainConfig(), val_data=val)
    assert max(r.t for r in report.records) <= distinct - 1


def test_train_mse_tracks_residuals_through_kept_and_rejected_replacements():
    rng = np.random.default_rng(28)
    x = np.sort(rng.uniform(0, 1, 80))[:, None]
    y = np.where(x < 0.31, 0.0, np.where(x < 0.67, 6.0, 1.0)) + 0.05 * rng.normal(size=(80, 1))
    state = layer_state(x, y)

    def assert_tracked():
        r = state.residuals
        assert state.train_mse == float(np.einsum("ij,ij->", r, r) / state.m)

    assert_tracked()
    kept = rejected = 0
    for _ in range(6):
        state.add_neuron()
        assert_tracked()
        # A wrong right-hand side makes a refit that raises the error.
        rhs, state._rhs = state._rhs, 2.0 * state._rhs
        rejected += state.replace_pass()[0] == 0.0
        state._rhs = rhs
        assert_tracked()
        kept += state.replace_pass()[0] > 0
        assert_tracked()
    assert kept >= 1 and rejected >= 1


def test_replace_pass_noop_with_single_unit():
    rng = np.random.default_rng(8)
    state = layer_state(rng.normal(size=(20, 2)), rng.normal(size=(20, 1)))
    state.add_neuron()
    before = [a.copy() for a in state_arrays(state)]
    gain, imbalance = state.replace_pass()
    assert gain == 0.0 and imbalance <= 1e-9 * 20
    for got, want in zip(state_arrays(state), before):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_replace_pass_rejects_fixed_point_and_restores():
    # On the balanced cube the greedy units are orthogonal, so the greedy head
    # already is the least-squares fit: a refit gains nothing beyond rounding.
    x, y = planted_cube()
    state = layer_state(x, y)
    state.add_neuron()
    state.add_neuron()
    assert state.train_mse == pytest.approx(1.0, rel=1e-12)
    gain, _ = state.replace_pass()
    assert 0.0 <= gain <= 1e-12
    # A refit that does not strictly lower the training error leaves every
    # array bit for bit as it was: here a wrong right-hand side forces one.
    units = [a.copy() for a in state_arrays(state)]
    rhs = state._rhs.copy()
    for wrong in (2.0 * rhs, rhs + 1.0):
        state._rhs = wrong
        assert state.replace_pass()[0] == 0.0
        state._rhs = rhs
        for got, want in zip(state_arrays(state), units):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_solver_error_after_kept_refits_changes_no_unit(monkeypatch):
    # A solve that fails while a unit is fitted after kept head refits leaves
    # the residuals, the units, the head, its columns and the validation
    # prediction bit for bit as they were.
    rng = np.random.default_rng(25)
    state = layer_state(rng.normal(size=(60, 3)), rng.normal(size=(60, 2)))
    gains = []
    for _ in range(4):
        state.add_neuron()
        gains.append(state.replace_pass()[0])
    assert sum(g > 0 for g in gains) >= 1
    before = [a.copy() for a in state_arrays(state)]

    def failing(*args):
        return dataclasses.replace(scheduled_lasso_fit(*args), converged=False)

    monkeypatch.setattr("bannet.train.scheduled_lasso_fit", failing)
    with pytest.raises(SolverError):
        state.add_neuron()
    for got, want in zip(state_arrays(state), before):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_kept_refits_leave_state_consistent():
    # After every unit and every kept head refit, the residuals and the
    # validation prediction both follow the units and the head as they are.
    def three_levels(rng, m):
        x = np.sort(rng.uniform(0, 1, m))[:, None]
        y = np.where(x < 0.31, 0.0, np.where(x < 0.67, 6.0, 1.0))
        return x, y + 0.05 * rng.normal(size=(m, 1))

    rng = np.random.default_rng(0)
    (x, y), (val_x, val_y) = three_levels(rng, 60), three_levels(rng, 30)
    state = LayerState(x, y, val_x, val_y, LassoConfig(), 1e5, 4)
    kept = 0
    for step in range(8):
        if step % 2:
            kept += state.replace_pass()[0] > 0
        else:
            state.add_neuron()
        arrays = (state.W, state.b, state.C, state.head_bias)
        val_want = head_prediction(arrays, val_x)
        assert np.max(np.abs(state.val_pred.T - val_want)) <= 1e-12 * np.max(np.abs(val_want))
        train_want = y - head_prediction(arrays, x)
        assert np.max(np.abs(state.residuals.T - train_want)) <= 1e-12 * np.max(np.abs(y))
    assert kept >= 1


def test_replace_pass_improves_suboptimal_greedy_order():
    improved = 0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        x = np.sort(rng.uniform(0, 1, 50))[:, None]
        y = np.where(x < 0.31, 0.0, np.where(x < 0.67, 6.0, 1.0)) + 0.05 * rng.normal(size=(50, 1))
        state = layer_state(x, y)
        # Greedy units on nested splits are not orthogonal, so their closed-form
        # c and d are not the least-squares head.
        for _ in range(2):
            state.add_neuron()
        before = state.train_mse
        state.replace_pass()
        after = state.train_mse
        assert after <= before + 1e-15
        if after < before - 1e-12 * max(1.0, before):
            improved += 1
    assert improved == 5


@pytest.mark.parametrize("dl", [1, 3])
def test_head_matches_least_squares_oracle(monkeypatch, dl):
    # After every growth record the head is the least-squares fit of the
    # targets on the constant and the sides of the grown units.
    captured = capture_layer_arrays(monkeypatch)
    for seed in range(4):
        rng = np.random.default_rng([32, seed])
        x, val_x = rng.normal(size=(300, 4)), rng.normal(size=(100, 4))
        mix = rng.normal(size=(4, dl))
        y = np.sin(2 * x) @ mix + x[:, :1] * x[:, 1:2] + 0.1 * rng.normal(size=(300, dl))
        val_y = np.sin(2 * val_x) @ mix + val_x[:, :1] * val_x[:, 1:2]
        captured.clear()
        cfg = TrainConfig(max_neurons_per_layer=30, max_hidden_layers=1, patience=30)
        build_layer(x, y, val_x, val_y, cfg)
        assert len(captured) >= 10
        for W, b, C, head_b in captured:
            design = np.column_stack([np.ones(300)] + [unit_side(x, w, bk) for w, bk in zip(W, b)])
            want, *_ = np.linalg.lstsq(design, y, rcond=None)
            got = np.vstack([head_b, C.T])
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


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
    # Validation predictions follow every unit and head change; every
    # record's val_mse must agree with predicting from that step's units and head.
    rng = np.random.default_rng(23)
    x, val_x = rng.normal(size=(400, 4)), rng.normal(size=(200, 4))

    def labels(v):
        return np.column_stack([np.sin(2 * v[:, 0]) + 0.5 * v[:, 1] * v[:, 2], v[:, 3] - v[:, 0]])

    y = labels(x) + 0.1 * rng.normal(size=(400, 2))
    val_y = labels(val_x) + 0.1 * rng.normal(size=(200, 2))
    steps = capture_layer_arrays(monkeypatch)
    records = []
    cfg = TrainConfig(max_neurons_per_layer=40, max_hidden_layers=1, patience=40)
    build_layer(x, y, val_x, val_y, cfg, records=records)
    assert len(records) == len(steps) == 40
    assert sum(r.refit_gain > 0 for r in records) >= 10
    for arrays, r in zip(steps, records):
        want = squared_error_sums(head_prediction(arrays, val_x), val_y)[0] / 200
        assert r.val_mse == pytest.approx(want, rel=1e-12, abs=0)


def test_build_layer_kept_network_survives_later_replacements(monkeypatch):
    # Head refits overwrite the head in place; the network kept at the best
    # validation record must be the one that record scored, bit for bit.
    rng = np.random.default_rng(2)
    x, val_x = rng.normal(size=(200, 3)), rng.normal(size=(100, 3))
    y = np.sin(2 * x[:, :1]) + 0.5 * rng.normal(size=(200, 1))
    val_y = np.sin(2 * val_x[:, :1]) + 0.5 * rng.normal(size=(100, 1))
    captured = capture_layer_arrays(monkeypatch)
    records = []
    cfg = TrainConfig(max_neurons_per_layer=30, max_hidden_layers=1, patience=8)
    result = build_layer(x, y, val_x, val_y, cfg, records=records)
    assert len(captured) == len(records)
    assert sum(r.refit_gain > 0 for r in records[result.width:]) >= 1
    last, head = result.network.hidden[-1], result.network.output
    got = (last.weights, last.biases, head.weights, head.biases)
    for a, b in zip(got, captured[result.width - 1], strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cap", [1, 16])
def test_build_layer_grows_to_the_unit_cap(monkeypatch, cap):
    # A layer that never stops early writes the last entry of every store
    # sized from its cap. Stores filled with garbage change no record and no
    # network, and the head at the cap is the least-squares fit on the
    # constant and every unit's side.
    rng = np.random.default_rng(40)
    x = rng.normal(size=(300, 3))
    y = np.sin(2 * x) @ rng.normal(size=(3, 2)) + 0.1 * rng.normal(size=(300, 2))
    cfg = TrainConfig(max_neurons_per_layer=cap, max_hidden_layers=1, patience=cap + 1)
    runs = []
    for poisoned in (False, True):
        if poisoned:
            poison_empty(monkeypatch)
        records = []
        runs.append((build_layer(x, y, x, y, cfg, records=records), records))
    (clean, records), (dirty, dirty_records) = runs
    assert [r.t for r in records] == list(range(1, cap + 1)) and clean.width == cap
    assert dirty_records == records
    for a, b in zip(clean.network.hidden + (clean.network.output,),
                    dirty.network.hidden + (dirty.network.output,), strict=True):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.biases.tobytes() == b.biases.tobytes()
    hidden, head = clean.network.hidden[0], clean.network.output
    design = np.column_stack([np.ones(300)] + [unit_side(x, w, bk)
                                               for w, bk in zip(hidden.weights, hidden.biases)])
    want, *_ = np.linalg.lstsq(design, y, rcond=None)
    got = np.vstack([head.biases, head.weights.T])
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


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
    with pytest.raises(TypeError):  # the old replace pass's cap went with the pass
        TrainConfig(replace_cap=5)


def test_report_nnz_counts_kept_layers_and_grown_units():
    # Growth is deterministic, so regrowing each layer from its starting
    # penalty, a unit and a head refit per record, reproduces the units and
    # head of every growth record, and the returned model is the network of
    # the record at the kept width.
    rng = np.random.default_rng(16)
    x = rng.normal(size=(240, 3))
    y = np.sin(3 * x[:, :1]) + (x[:, 1:2] > 0) + 0.05 * rng.normal(size=(240, 1))
    train, val, _ = split_dataset(Dataset(x, y), SplitSpec(seed=4))
    cfg = TrainConfig(max_neurons_per_layer=12, max_hidden_layers=2, patience=4)
    model, report = build_network(train, cfg, val_data=val)
    growth = report.records[:-1]
    assert {r.layer for r in growth} == {1, 2}
    kept: tuple = ()
    features = train.features
    lam = cfg.lasso.lambda0
    scored = None
    for layer in (1, 2):
        rows = [r for r in growth if r.layer == layer]
        state = LayerState(features, train.labels, features, train.labels, cfg.lasso, lam,
                           cfg.max_neurons_per_layer)
        for r in rows:
            state.add_neuron()
            state.replace_pass()
            grown, head_w, head_b = LayerParams(state.W, state.b), state.C, state.head_bias
            partial = BannModel(SIGN, kept + (grown,), LayerParams(head_w, head_b))
            assert r.t == len(state.b)
            assert r.nnz == count_nonzero_parameters(partial)
            if layer == len(model.hidden) and r.t == model.hidden[-1].width:
                scored = (grown.weights, grown.biases, head_w.copy(), head_b.copy())
        lam = rows[-1].lambda_used
        kept = (model.hidden[0],)
        features = hidden_pattern(model, train.features, 1)
    last = model.hidden[-1]
    want = (last.weights, last.biases, model.output.weights, model.output.biases)
    assert scored is not None
    for got, expected in zip(scored, want):
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_report_csv_rows_parse_back_to_their_records(tmp_path):
    # report.csv's columns are IterationRecord's fields in order and each cell
    # is its value's repr: ints read back as ints, floats as the same double.
    rng = np.random.default_rng(17)
    x = rng.normal(size=(240, 3))
    y = np.sin(3 * x[:, :1]) + (x[:, 1:2] > 0) + 0.05 * rng.normal(size=(240, 1))
    train, val, _ = split_dataset(Dataset(x, y), SplitSpec(seed=4))
    cfg = TrainConfig(max_neurons_per_layer=12, max_hidden_layers=2, patience=4)
    _, report = build_network(train, cfg, val_data=val)
    assert {r.layer for r in report.records} == {1, 2}
    assert any(r.refit_gain > 0 for r in report.records)
    path = tmp_path / "report.csv"
    report.write_csv(str(path))
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    assert header == [f.name for f in dataclasses.fields(IterationRecord)]
    assert len(rows) == len(report.records)
    for row, record in zip(rows, report.records):
        assert len(row) == len(header)
        for name, cell in zip(header, row):
            value = getattr(record, name)
            if type(value) is int:
                assert int(cell) == value and cell == str(value)
            else:
                assert type(value) is float and float(cell) == value


def test_report_nnz_and_final_row_under_replacements(monkeypatch):
    # Head refits rewrite the head in place; each growth record's nnz counts
    # the kept layers plus the units and head as they stood after that
    # record's refit, and the final row restates the kept record
    # with the returned model's errors. At this seed the kept record's
    # incrementally tracked errors differ from the re-scored ones in the last
    # bits, so the final row's exact asserts tell the two apart.
    rng = np.random.default_rng(17)
    x = rng.normal(size=(240, 3))
    y = np.sin(3 * x[:, :1]) + (x[:, 1:2] > 0) + 0.05 * rng.normal(size=(240, 1))
    train, val, _ = split_dataset(Dataset(x, y), SplitSpec(seed=4))
    captured = capture_layer_arrays(monkeypatch)
    cfg = TrainConfig(max_neurons_per_layer=12, max_hidden_layers=2, patience=4)
    model, report = build_network(train, cfg, val_data=val)
    growth, final = report.records[:-1], report.records[-1]
    assert {r.layer for r in growth} == {1, 2}
    assert len(captured) == len(growth)
    assert all(sum(r.refit_gain > 0 for r in growth if r.layer == k) >= 1 for k in (1, 2))
    for r, (w, b, c, head_b) in zip(growth, captured):
        kept = () if r.layer == 1 else (model.hidden[0],)
        partial = BannModel(SIGN, kept + (LayerParams(w, b),), LayerParams(c, head_b))
        assert r.nnz == count_nonzero_parameters(partial)
    rows = [r for r in growth if r.layer == len(model.hidden)]
    kept_record = min(rows, key=lambda r: r.val_mse)  # the first of equal minima
    assert kept_record.t == model.hidden[-1].width
    assert (final.layer, final.t, final.nnz) == (kept_record.layer, kept_record.t, kept_record.nnz)
    assert final.train_mse == mse(model, train)
    assert final.val_mse == mse(model, val)


@pytest.mark.parametrize(
    "val_features_width, val_labels_width",
    [(3, 1), (2, 2), (3, 3)],
    ids=["one_label", "two_features", "three_labels"],
)
def test_validation_data_of_another_width_raises_dimension_error(
    val_features_width, val_labels_width
):
    rng = np.random.default_rng(24)
    train = Dataset(rng.normal(size=(50, 3)), rng.normal(size=(50, 2)))
    val = Dataset(rng.normal(size=(20, val_features_width)),
                  rng.normal(size=(20, val_labels_width)))
    cfg = TrainConfig(max_neurons_per_layer=4, max_hidden_layers=2, patience=4)
    with pytest.raises(DimensionError, match=r"\(20, \d\).*\(50, \d\)"):
        build_network(train, cfg, val_data=val)
    with pytest.raises(DimensionError, match=r"\(20, \d\).*\(50, \d\)"):
        build_layer(train.features, train.labels, val.features, val.labels, cfg)


@pytest.mark.parametrize("split", ["training", "validation"])
def test_feature_and_label_rows_that_disagree_raise_dimension_error(split):
    # Dataset rejects such pairs, so only build_layer can be handed one.
    rng = np.random.default_rng(25)
    x, y = rng.normal(size=(50, 3)), rng.normal(size=(50, 1))
    val_x, val_y = rng.normal(size=(20, 3)), rng.normal(size=(20, 1))
    if split == "training":
        y, shapes = y[:49], r"\(50, 3\) and \(49, 1\)"
    else:
        val_y, shapes = val_y[:19], r"\(20, 3\) and \(19, 1\)"
    cfg = TrainConfig(max_neurons_per_layer=4, max_hidden_layers=1, patience=4)
    with pytest.raises(DimensionError, match=shapes):
        build_layer(x, y, val_x, val_y, cfg)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(20, 150), st.integers(1, 4), st.data())
def test_training_invariant_under_power_of_two_feature_scaling(seed, m, d, data):
    # Scaling a column by 2^k is exact, and standardizing divides it by a
    # power of two before squaring, so its standardization, and with it every
    # fit, split and record, is unchanged at any k that keeps it finite; only
    # that column's layer-1 weights carry the inverse factor.
    j, k = data.draw(st.integers(0, d - 1)), data.draw(st.integers(-900, 900))
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
