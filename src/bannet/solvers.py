"""L1-regularized regression by an exact active-set method, with the
shrinking-penalty schedule that weakens the regularization until some weight
survives. Training calls scheduled_lasso_fit on a cached StandardizedDesign,
one design per layer and one target vector per unit.

The L1 objective is (1/(2n))*||X w + b - y||^2 + lambda*||w||_1 with the bias
unpenalized. Features are standardized internally (zero mean, unit variance;
constant columns are pinned to coefficient 0) so the penalty behaves the same
across datasets. On the standardized design z the objective is
(1/2) w'Gw - q'w + lambda*||w||_1 plus a constant, with G = z'z/n and
q = z'(y - mean(y))/n, so a fit needs only the cached Gram matrix and one
product with the targets. Centering takes the bias out of the problem and
training keeps only the normal vector, so a fit returns raw-space weights alone.

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
from typing import ClassVar

import numpy as np


@dataclass(frozen=True)
class LassoConfig:
    """Penalty schedule and solver limits. ``lambda0`` is the first penalty of
    a run, divided by ``divisor`` while a fit at it would be all-zero, at most
    ``max_divisions`` times per fit. ``max_steps`` caps the active-set steps
    of one fit, each entering or dropping a coordinate; a fit at the cap is
    flagged not converged. A converged fit has |c_j| <= lambda + kkt_slack at
    every zero coordinate. None is a setting."""

    lambda0: ClassVar[float] = 1e5
    divisor: ClassVar[float] = 1.5
    max_divisions: ClassVar[int] = 200
    max_steps: ClassVar[int] = 10_000
    kkt_slack: ClassVar[float] = 1e-8


@dataclass
class ScheduledFit:
    w: np.ndarray
    used_lambda: float
    has_nonzero: bool
    converged: bool


class StandardizedDesign:
    """Standardized copy of a design matrix with its Gram matrix cached.

    Building this once and fitting many target vectors against it is the hot
    path of layer construction, where the features are fixed and only the
    regression targets change. A column's mean and std are taken after an
    exact division by 2^e, e the binary exponent of its largest magnitude, and
    ``scale`` is that std times 2^e. So features at any finite scale train the
    same model: times 2^k, they give the same z and raw weights times 2^-k.
    """

    def __init__(self, design: np.ndarray):
        x = np.asarray(design, dtype=float)
        self.n, self.p = x.shape
        e = np.frexp(np.maximum(x.max(axis=0), -x.min(axis=0)))[1]
        # z.std would square into a temporary; squared in place, z gives the same std.
        self.z = np.ldexp(x, -e)
        mean = self.z.mean(axis=0)
        self.z -= mean
        self.z *= self.z
        # A constant column can have a rounding-level std (0.1 repeated 60
        # times has 4e-17), so constancy is read from the values instead.
        varies = (x != x[0]).any(axis=0)
        std = np.where(varies, np.sqrt(self.z.sum(axis=0) / self.n), 1.0)
        self.mean, self.scale = np.ldexp(mean, e), np.ldexp(std, np.where(varies, e, 0))
        np.ldexp(x, -e, out=self.z)
        self.z -= mean
        self.z /= std
        # Zeroed, a constant column has exactly zero Gram row and correlation,
        # so no fit ever moves its weight.
        self.z[:, ~varies] = 0.0
        self.gram = self.z.T @ self.z / self.n

    def correlations(self, targets: np.ndarray) -> np.ndarray:
        """q = z'(y - mean(y))/n, the right-hand side of every lasso fit of
        these targets on this design."""
        y = np.asarray(targets, dtype=float)
        return self.z.T @ (y - float(y.mean())) / self.n


def _active_set_fit(
    design: StandardizedDesign, q: np.ndarray, lam: float, cfg: LassoConfig
) -> tuple[np.ndarray, bool]:
    """Raw-space weights and KKT convergence of the fit at penalty lam of the
    targets with correlations q (see correlations)."""
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
            if gap <= (cfg.kkt_slack if support else 0.0):
                converged = True
                break
        if steps == cfg.max_steps:
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
    return w / design.scale, converged


def scheduled_lasso_fit(
    design: StandardizedDesign,
    targets: np.ndarray,
    cfg: LassoConfig,
    current_lambda: float,
) -> ScheduledFit:
    """Fit at the first penalty of current_lambda, current_lambda/divisor, ...
    at which some weight survives, dividing at most cfg.max_divisions times;
    when the budget runs out the zero fit is returned, flagged. A fit is
    all-zero exactly when the penalty is at least max_j |q_j|, so the
    divisions are counted without fitting and only the last penalty is
    solved."""
    if current_lambda <= 0:
        raise ValueError("current_lambda must be positive")
    q = design.correlations(targets)
    q_max = float(np.max(np.abs(q)))
    lam = current_lambda
    divisions = 0
    while lam >= q_max and divisions < cfg.max_divisions:
        lam /= cfg.divisor
        divisions += 1
    w, converged = _active_set_fit(design, q, lam, cfg)
    return ScheduledFit(w, lam, bool(np.any(w != 0.0)), converged)

