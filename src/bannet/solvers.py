"""Small dense linear solvers: ordinary least squares, and L1-regularized
regression by an exact active-set method with the shrinking-penalty schedule
that weakens the regularization until some weight survives. Training calls
scheduled_lasso_fit on a cached StandardizedDesign; least_squares_fit and
lasso_fit on a RegressionProblem are the references the tests check against.

The L1 objective is (1/(2n))*||X w + b - y||^2 + lambda*||w||_1 with the bias
unpenalized. Features are standardized internally (zero mean, unit variance;
constant columns are pinned to coefficient 0) so the penalty behaves the same
across datasets; coefficients are mapped back to raw feature space on return.
On the standardized design z the objective is (1/2) w'Gw - q'w + lambda*||w||_1
plus a constant, with G = z'z/n and q = z'(y - mean(y))/n, so a fit needs only
the cached Gram matrix and one product with the targets.

The solver is the active-set method of Osborne, Presnell & Turlach (2000),
close to LARS (Efron et al. 2004). With the gradient c = q - Gw, it keeps a
support A with signs theta on which c_A = lambda*theta_A, that is
G_AA w_A = q_A - lambda*theta_A, and enters the zero coordinate whose |c_j|
exceeds lambda the most, along the direction that holds c_A fixed. If a
support coordinate would change sign first, the move stops at its zero
crossing, drops it and solves the smaller support afresh. Every step lowers
the objective, so no solved support repeats and the method ends at the
optimum, within the KKT slack of its stopping test. A column in the span
of the support (duplicated or complemented +/-1 columns, p > n) enters along
a null-space direction of z, which lowers only the penalty, until a support
coordinate crosses zero and is swapped out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError


@dataclass(frozen=True)
class RegressionProblem:
    design: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        design = np.asarray(self.design, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        if design.ndim != 2:
            raise ValueError(f"design must be 2-D, got shape {design.shape}")
        if targets.ndim != 1 or targets.shape[0] != design.shape[0]:
            raise ValueError("targets must be a vector with one entry per design row")
        if design.shape[0] < 1 or design.shape[1] < 1:
            raise ValueError("design must have at least one row and one column")
        if not (np.all(np.isfinite(design)) and np.all(np.isfinite(targets))):
            raise ValueError("design and targets must be finite")
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "targets", targets)


@dataclass(frozen=True)
class LassoConfig:
    """Penalty schedule and solver limits. ``lambda0`` is the first penalty of
    a run, divided by ``divisor`` while a fit at it would be all-zero, at most
    ``max_halvings`` times per fit. ``cd_max_iters`` caps the active-set steps
    of one fit, each entering or dropping a coordinate; a fit at the cap is
    flagged not converged. ``cd_tol`` is the KKT slack: a converged fit has
    |c_j| <= lambda + cd_tol at every zero coordinate. The names are kept so
    that recorded manifests still load."""

    lambda0: float = 1e5
    divisor: float = 1.5
    max_halvings: int = 200
    cd_max_iters: int = 10_000
    cd_tol: float = 1e-8

    def __post_init__(self):
        if self.lambda0 <= 0:
            raise ConfigError("lambda0 must be positive")
        if self.divisor <= 1:
            raise ConfigError("divisor must exceed 1")
        if self.max_halvings < 1 or self.cd_max_iters < 1:
            raise ConfigError("iteration caps must be >= 1")
        if self.cd_tol <= 0:
            raise ConfigError("cd_tol must be positive")


@dataclass
class LinearFit:
    w: np.ndarray
    b: float
    converged: bool = True
    n_steps: int = 0


@dataclass
class ScheduledFit:
    w: np.ndarray
    b: float
    used_lambda: float
    has_nonzero: bool
    converged: bool


class StandardizedDesign:
    """Standardized copy of a design matrix with its Gram matrix cached.

    Building this once and fitting many target vectors against it is the hot
    path of layer construction, where the features are fixed and only the
    regression targets change.
    """

    def __init__(self, design: np.ndarray):
        x = np.asarray(design, dtype=float)
        self.n, self.p = x.shape
        self.mean = x.mean(axis=0)
        # A constant column can have a rounding-level std (0.1 repeated 60
        # times has 4e-17), so constancy is read from the values instead.
        varies = (x != x[0]).any(axis=0)
        self.scale = np.where(varies, x.std(axis=0), 1.0)
        self.z = (x - self.mean) / self.scale
        # Zeroed, a constant column has exactly zero Gram row and correlation,
        # so no fit ever moves its weight.
        self.z[:, ~varies] = 0.0
        self.gram = self.z.T @ self.z / self.n

    def correlations(self, targets: np.ndarray) -> tuple[float, np.ndarray]:
        """Target mean and q = z'(y - mean)/n, the right-hand side of every
        lasso fit of these targets on this design."""
        y = np.asarray(targets, dtype=float)
        y_mean = float(y.mean())
        return y_mean, self.z.T @ (y - y_mean) / self.n

    def unstandardize(self, w_std: np.ndarray, target_mean: float) -> tuple[np.ndarray, float]:
        w_raw = w_std / self.scale
        return w_raw, target_mean - float(w_raw @ self.mean)


def least_squares_fit(problem: RegressionProblem) -> LinearFit:
    """Minimize ||X w + b - y||^2; rank deficiency is handled by a tiny ridge
    jitter (1e-10 * trace/p) on the normal equations, which picks a solution
    near the minimum-norm one."""
    x = problem.design
    y = problem.targets
    p = x.shape[1]
    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    xc = x - x_mean
    yc = y - y_mean
    normal = xc.T @ xc
    trace = float(np.trace(normal))
    if trace == 0.0:
        # Every column is constant (or zero); only the intercept is determined.
        return LinearFit(np.zeros(p), y_mean)
    normal = normal + np.eye(p) * (1e-10 * trace / p)
    try:
        w = np.linalg.solve(normal, xc.T @ yc)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"normal equations singular beyond jitter: {exc}") from exc
    if not np.all(np.isfinite(w)):
        raise SolverError("normal equations produced non-finite coefficients")
    return LinearFit(w, y_mean - float(w @ x_mean))


def _active_set_fit(
    design: StandardizedDesign,
    y_mean: float,
    q: np.ndarray,
    lam: float,
    cfg: LassoConfig,
) -> LinearFit:
    gram = design.gram
    w = np.zeros(design.p)
    support: list[int] = []
    idx = np.array(support, dtype=np.intp)
    solved = True  # w solves G_AA w_A = q_A - lam*theta_A on the support
    converged = False
    steps = 0
    while True:
        if solved:
            c = q - gram @ w if support else q
            excess = np.abs(c)
            excess[idx] = 0.0
            j = int(excess.argmax())
            gap = float(excess[j]) - lam
            # The empty support is kept only when it is exactly optimal, so a
            # fit is all-zero exactly when lam >= max |q_j|.
            if gap <= (cfg.cd_tol if support else 0.0):
                converged = True
                break
        if steps == cfg.cd_max_iters:
            break
        steps += 1
        if not support:
            w[j] = math.copysign(gap / gram[j, j], c[j])
            support.append(j)
            idx = np.array(support, dtype=np.intp)
            continue
        w_a = w[idx]
        # The support moves to w_a - t*rate for t in [0, end], cut short
        # where a support coordinate reaches zero.
        if solved:
            # Enter j with the sign s of its gradient, w_j = s*t. Along this
            # direction the objective has slope -gap and curvature d2, the
            # squared distance of column j from the span of the support.
            s = math.copysign(1.0, c[j])
            g = gram[idx, j]
            if idx.size == 1:
                u = g / gram[idx, idx]  # np.linalg.solve would cost more than the step
            else:
                u = np.linalg.solve(gram.take(idx, 0).take(idx, 1), g)
            d2 = gram[j, j] - float(g @ u)
            rate = u if s > 0.0 else -u
            end = gap / d2 if d2 > 0.0 else math.inf
        else:
            sub = gram.take(idx, 0).take(idx, 1)
            rate = w_a - np.linalg.solve(sub, q[idx] - lam * np.sign(w_a))
            end = 1.0
        shrink = rate / w_a  # share of each w_k removed per unit of t
        pos = int(shrink.argmax())
        crosses = float(shrink[pos]) * end >= 1.0
        if crosses:
            t = 1.0 / float(shrink[pos])
        elif math.isinf(end):
            break  # column j lies in the span, yet nothing crosses: rounding only
        else:
            t = end
        moved = w_a - t * rate
        if crosses:
            # Drop the crossing coordinate and any that rounding put at zero.
            moved[pos] = 0.0
            for k in idx[moved == 0.0].tolist():
                support.remove(k)
        w[idx] = moved
        if solved:
            w[j] = s * t
            support.append(j)
        idx = np.array(support, dtype=np.intp)
        solved = not crosses or not support
    w_raw, b = design.unstandardize(w, y_mean)
    return LinearFit(w_raw, b, converged, steps)


def lasso_fit(
    problem: RegressionProblem,
    lam: float,
    cfg: LassoConfig | None = None,
) -> LinearFit:
    """Exact L1-regularized fit by the active-set method; coordinates off the
    support are exact zeros. At lam=0 this is the least-squares solution on
    full-rank problems."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    cfg = cfg or LassoConfig()
    design = StandardizedDesign(problem.design)
    y_mean, q = design.correlations(problem.targets)
    return _active_set_fit(design, y_mean, q, lam, cfg)


def scheduled_lasso_fit(
    design: StandardizedDesign,
    targets: np.ndarray,
    cfg: LassoConfig,
    current_lambda: float,
) -> ScheduledFit:
    """Fit at the first penalty of current_lambda, current_lambda/divisor, ...
    at which some weight survives, dividing at most cfg.max_halvings times;
    when the budget runs out the zero fit is returned, flagged. A fit is
    all-zero exactly when the penalty is at least max_j |q_j|, so the
    divisions are counted without fitting and only the last penalty is
    solved."""
    if current_lambda <= 0:
        raise ValueError("current_lambda must be positive")
    y_mean, q = design.correlations(targets)
    q_max = float(np.max(np.abs(q)))
    lam = current_lambda
    halvings = 0
    while lam >= q_max and halvings < cfg.max_halvings:
        lam /= cfg.divisor
        halvings += 1
    fit = _active_set_fit(design, y_mean, q, lam, cfg)
    return ScheduledFit(fit.w, fit.b, lam, bool(np.any(fit.w != 0.0)), fit.converged)

