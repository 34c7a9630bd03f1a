from typing import NamedTuple

import numpy as np
import pytest

from bannet.errors import ConfigError
from bannet.solvers import LassoConfig, StandardizedDesign, _active_set_fit, scheduled_lasso_fit


class Fit(NamedTuple):
    w: np.ndarray
    b: float
    converged: bool = True


def lasso_fit(X, y, lam, cfg=None):
    """One lasso fit at penalty lam, through the solver that training uses,
    with the bias that centering implies."""
    design = StandardizedDesign(X)
    w, converged = _active_set_fit(design, design.correlations(y), lam, cfg or LassoConfig())
    return Fit(w, float(y.mean()) - float(w @ design.mean), converged)


def least_squares_fit(X, y):
    """Reference fit minimizing ||X w + b - y||^2; rank deficiency is handled by
    a tiny ridge jitter (1e-10 * trace/p) on the normal equations, which picks
    a solution near the minimum-norm one."""
    x = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    p = x.shape[1]
    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    xc = x - x_mean
    yc = y - y_mean
    normal = xc.T @ xc
    trace = float(np.trace(normal))
    if trace == 0.0:
        # Every column is constant (or zero); only the intercept is determined.
        return Fit(np.zeros(p), y_mean)
    w = np.linalg.solve(normal + np.eye(p) * (1e-10 * trace / p), xc.T @ yc)
    return Fit(w, y_mean - float(w @ x_mean))


def standardized(X):
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return (X - mean) / scale, mean, scale


def kkt_violation(X, y, w_raw, lam):
    """Max violation of the subgradient conditions in standardized space."""
    z, _, scale = standardized(X)
    w = w_raw * scale
    n = len(y)
    resid = (y - y.mean()) - z @ w
    corr = z.T @ resid / n
    worst = 0.0
    for j in range(len(w)):
        if w[j] == 0.0:
            worst = max(worst, abs(corr[j]) - lam)
        else:
            worst = max(worst, abs(corr[j] - lam * np.sign(w[j])))
    return worst


def test_least_squares_recovers_exact_solution():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 5))
    w0 = rng.normal(size=5)
    y = X @ w0 + 1.25
    fit = least_squares_fit(X, y)
    assert np.max(np.abs(fit.w - w0)) <= 1e-8
    assert abs(fit.b - 1.25) <= 1e-8


def test_least_squares_constant_column_gives_mean():
    y = np.array([3.0, 5.0, 10.0])
    fit = least_squares_fit(np.ones((3, 1)), y)
    assert fit.w[0] == 0.0
    assert fit.b == pytest.approx(float(y.mean()), rel=1e-15)


def test_least_squares_residual_orthogonal_to_columns():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    fit = least_squares_fit(X, y)
    resid = y - X @ fit.w - fit.b
    assert np.max(np.abs(X.T @ resid)) <= 1e-8


def test_lasso_full_shrinkage_at_large_lambda():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(25, 4))
    y = rng.normal(size=25) * 3 + 2
    z, _, _ = standardized(X)
    lam_max = float(np.max(np.abs(z.T @ (y - y.mean()) / len(y))))
    fit = lasso_fit(X, y, lam_max * 1.0001)
    assert np.all(fit.w == 0.0)
    assert fit.b == pytest.approx(float(y.mean()), rel=1e-12)


def test_lasso_zero_lambda_matches_least_squares():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 4))
    y = X @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.3 + 0.1 * rng.normal(size=30)
    ls = least_squares_fit(X, y)
    la = lasso_fit(X, y, 0.0)
    assert np.max(np.abs(ls.w - la.w)) <= 1e-6
    assert abs(ls.b - la.b) <= 1e-6


def test_lasso_univariate_soft_threshold_closed_form():
    # X = [[1], [-1]], y = [1, -1]: correlation 1, so w = 1 - lambda
    fit = lasso_fit(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]), 0.5)
    assert fit.w[0] == pytest.approx(0.5, rel=1e-12)
    assert fit.b == pytest.approx(0.0, abs=1e-12)


def test_lasso_produces_exact_zeros():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 10))
    y = 3.0 * X[:, 2] - 2.0 * X[:, 7] + 0.05 * rng.normal(size=60)
    fit = lasso_fit(X, y, 0.5)
    assert int(np.count_nonzero(fit.w)) == 2
    assert set(np.nonzero(fit.w)[0]) == {2, 7}
    assert all(v == 0.0 for v in fit.w[[0, 1, 3, 4, 5, 6, 8, 9]])


def test_lasso_kkt_conditions_random_problems():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(10, 60))
        p = int(rng.integers(1, 8))
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + rng.normal(size=n)
        lam = float(rng.uniform(0.01, 1.0))
        fit = lasso_fit(X, y, lam)
        assert fit.converged
        assert kkt_violation(X, y, fit.w, lam) <= 1e-6


def standardized_objective(z, y, w, lam):
    resid = (y - y.mean()) - z @ w
    return float(resid @ resid) / (2 * len(y)) + lam * float(np.sum(np.abs(w)))


def test_lasso_objective_minimal_along_every_coordinate():
    # The objective is convex and its nonsmooth part is separable, so a point
    # that no coordinate move improves is the global minimum.
    rng = np.random.default_rng(7)
    for _ in range(10):
        X = rng.normal(size=(40, 6))
        y = X @ rng.normal(size=6) + rng.normal(size=40)
        fit = lasso_fit(X, y, 0.05)
        z, _, scale = standardized(X)
        w = fit.w * scale
        best = standardized_objective(z, y, w, 0.05)
        for j in range(6):
            for step in (1e-6, -1e-6):
                moved = w.copy()
                moved[j] += step
                assert best <= standardized_objective(z, y, moved, 0.05)


def plus_minus_one(rng, n, p):
    return np.where(rng.normal(size=(n, p)) < 0.0, -1.0, 1.0)


def test_lasso_kkt_on_degenerate_gram_matrices():
    rng = np.random.default_rng(13)
    base = plus_minus_one(rng, 60, 5)
    y = base @ rng.normal(size=5) + rng.normal(size=60)
    problems = [
        (np.column_stack([base, base[:, 1], base[:, 1], base[:, 3]]), y),
        (np.column_stack([base, -base[:, 1], -base[:, 3]]), y),
        (np.column_stack([base[:, :2], np.full(60, 0.1), base[:, 2:]]), y),
    ]
    wide = plus_minus_one(rng, 30, 80)
    problems.append((wide, wide @ rng.normal(size=80) + rng.normal(size=30)))
    for X, targets in problems:
        for lam in (0.5, 0.05, 1e-3):
            fit = lasso_fit(X, targets, lam)
            assert fit.converged
            assert kkt_violation(X, targets, fit.w, lam) <= 1e-6


def test_lasso_constant_column_stays_zero():
    # 0.1 repeated 60 times has a rounding-level std of 4e-17
    rng = np.random.default_rng(14)
    X = np.column_stack([rng.normal(size=60), np.full(60, 0.1)])
    y = 2.0 * X[:, 0] + rng.normal(size=60)
    for lam in (0.0, 1e-3, 0.5):
        assert lasso_fit(X, y, lam).w[1] == 0.0


def test_lasso_support_nested_along_schedule():
    rng = np.random.default_rng(8)
    for _ in range(20):
        X = rng.normal(size=(50, 6))
        y = X @ rng.normal(size=6) + 0.2 * rng.normal(size=50)
        lam = float(rng.uniform(0.05, 0.8))
        hi = lasso_fit(X, y, lam)
        lo = lasso_fit(X, y, lam / 1.5)
        assert np.count_nonzero(hi.w) <= np.count_nonzero(lo.w)


def test_lasso_deterministic():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(30, 5))
    y = rng.normal(size=30)
    a = lasso_fit(X, y, 0.1)
    b = lasso_fit(X, y, 0.1)
    assert np.array_equal(a.w, b.w) and a.b == b.b


def test_schedule_divides_until_nonzero():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(40, 3))
    y = 5.0 * X[:, 0] + 0.1 * rng.normal(size=40)
    cfg = LassoConfig()
    result = scheduled_lasso_fit(StandardizedDesign(X), y, cfg, cfg.lambda0)
    assert result.has_nonzero
    # used value must sit on the divisor grid from 1e5
    k = round(np.log(cfg.lambda0 / result.used_lambda) / np.log(cfg.divisor))
    assert result.used_lambda == pytest.approx(cfg.lambda0 / cfg.divisor**k, rel=1e-12)
    assert k > 0


def test_schedule_flags_hopeless_targets():
    X = np.arange(12.0).reshape(6, 2)
    cfg = LassoConfig()
    result = scheduled_lasso_fit(StandardizedDesign(X), np.zeros(6), cfg, cfg.lambda0)
    assert not result.has_nonzero
    assert np.all(result.w == 0.0)


def test_schedule_crosses_the_activation_point():
    # univariate: weights first survive at lambda below |z . y| / n
    rng = np.random.default_rng(11)
    x = rng.normal(size=50)
    y = 2.0 * x + 0.01 * rng.normal(size=50)
    z = (x - x.mean()) / x.std()
    lam_star = float(abs(z @ (y - y.mean())) / 50)
    cfg = LassoConfig()
    result = scheduled_lasso_fit(StandardizedDesign(x[:, None]), y, cfg, cfg.lambda0)
    assert result.has_nonzero
    assert result.used_lambda < lam_star
    assert result.used_lambda * cfg.divisor >= lam_star  # first grid point below


def test_lasso_flags_non_convergence(monkeypatch):
    rng = np.random.default_rng(12)
    X = rng.normal(size=(30, 5))
    y = rng.normal(size=30)
    monkeypatch.setattr(LassoConfig, "max_steps", 1)
    monkeypatch.setattr(LassoConfig, "kkt_slack", 1e-14)
    fit = lasso_fit(X, y, 0.0, LassoConfig())
    assert not fit.converged


def test_problem_validation():
    with pytest.raises(ConfigError):
        LassoConfig(lambda0=0.0)
