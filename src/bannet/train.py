"""Greedy construction of binary-activated regression networks.

A hidden layer grows one unit at a time. Each unit is a hyperplane fitted to
the current residuals: a sparse linear fit supplies the normal direction (it
forms no bias), an exact sorted-split scan places the bias by minimizing
the weighted per-side residual variance, and the unit's two output
coefficients per target coordinate are the half-difference and half-sum of the
mean residuals on each side. Subtracting the unit's contribution from the
residuals makes the training error drop at every accepted addition, and from
the second unit on the realized drop equals sum_j (c_j^2 - d_j^2).

A remove-replace pass refits the oldest units against current residuals and
keeps a replacement only when the training error strictly decreases. Deeper
layers train on the +/-1 activation patterns of the frozen layers below, with
residuals reset to the original labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DimensionError, SolverError, TrainingAbort, ZeroWeightVector
from .model import (
    SIGN,
    BannModel,
    Dataset,
    LayerParams,
    activate,
    count_nonzero,
    forward,
    squared_error_sums,
    write_atomic,
)
from .solvers import LassoConfig, StandardizedDesign, scheduled_lasso_fit


@dataclass(frozen=True)
class TrainConfig:
    """Growth limits. After each added unit the replace pass refits at most
    ``replace_cap`` of the oldest units. Every field but ``replace_cap`` is a setting."""

    max_neurons_per_layer: int = 500
    max_hidden_layers: int = 3
    replace_cap: ClassVar[int] = 10
    patience: int = 20
    lasso: LassoConfig = field(default_factory=LassoConfig)

    def __post_init__(self):
        if self.max_neurons_per_layer < 1:
            raise ConfigError("max_neurons_per_layer must be >= 1")
        if self.max_hidden_layers < 1:
            raise ConfigError("max_hidden_layers must be >= 1")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")


@dataclass
class IterationRecord:
    """One row of ``report.csv``; its columns are these fields, in this order."""

    layer: int
    t: int
    train_mse: float
    val_mse: float
    drop: float
    lambda_used: float
    nnz: int
    predicted_drop: float
    replacements: int
    side_imbalance: float


@dataclass
class TrainReport:
    records: list[IterationRecord] = field(default_factory=list)
    architecture: list[int] = field(default_factory=list)
    final_train_mse: float = math.nan
    final_val_mse: float = math.nan

    def write_csv(self, path: str) -> None:
        names = [f.name for f in fields(IterationRecord)]
        rows = [names] + [[repr(getattr(r, name)) for name in names] for r in self.records]
        write_atomic(path, "".join(",".join(row) + "\n" for row in rows))


def optimal_bias(proj: np.ndarray, residuals: np.ndarray) -> float:
    """Exact search for the bias minimizing the weighted per-side residual
    variance, over the splits of the rows sorted by their projection proj.

    A split with k rows summing to s on the negative side (total T) leaves
    per-side variances of sum r^2 - gain, gain = s^2/k + (T-s)^2/(m-k), or
    T^2/m with the negative side empty; the scan maximizes the gain summed
    over outputs from one prefix sum, O(dl * m) after numpy's default
    (unstable) argsort. Equal projections are never split, so the order
    within a tie only changes the rounding of the sums. Among equal gains
    the first split wins, starting from the empty negative side. The
    threshold lies 1 below the smallest projection, or midway between the
    projections lo < hi flanking the split (lo/2 + hi/2, which cannot
    overflow), or at hi where the midpoint rounds onto lo, so lo's row stays
    negative. The residuals are divided by 2^e, e the binary exponent of
    their largest magnitude: exact at ordinary scales, and no square
    overflows or underflows.
    """
    order = np.argsort(proj)
    sp = proj[order]
    r = np.take(np.atleast_2d(residuals.T), order, axis=1)  # (dl, m), sorted rows
    e = int(np.frexp(max(r.max(), -r.min()))[1])
    np.ldexp(r, -e, out=r)

    m = r.shape[1]
    np.cumsum(r, axis=1, out=r)  # r[:, k-1]: sum over the first k rows
    total, s = r[:, -1], r[:, :-1]
    k = np.arange(1, m, dtype=float)  # negative-side counts; k[::-1] is m - k
    gain = np.empty(m)
    gain[0] = total @ total / m
    np.einsum("ij,ij->j", s, s, out=gain[1:])
    gain[1:] /= k
    s -= total[:, None]
    pos = np.einsum("ij,ij->j", s, s)
    gain[1:] += np.divide(pos, k[::-1], out=pos)
    gain[1:][sp[:-1] == sp[1:]] = -math.inf

    best = int(np.argmax(gain))
    if best == 0:
        return float(-(sp[0] - 1.0))
    mid = sp[best - 1] / 2.0 + sp[best] / 2.0
    return float(-(mid if mid > sp[best - 1] else sp[best]))


def _side_sums(r: np.ndarray, side: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive- and negative-side sums of (dl, m) residuals for +/-1 sides."""
    total, signed = r.sum(axis=1), r @ side
    return (total + signed) / 2.0, (total - signed) / 2.0


def compute_cd(residuals: np.ndarray, side: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form output coefficients: with rho+/- the mean residual on each
    side, c = (rho+ - rho-)/2 and d = (rho+ + rho-)/2 per output coordinate.
    An empty side degenerates to c = 0 with d the mean of the populated side.
    """
    r = np.atleast_2d(residuals.T)  # (dl, m)
    if r.shape[1] == 0:
        raise ValueError("empty residual set")
    n_pos = int(np.count_nonzero(side > 0))
    n_neg = r.shape[1] - n_pos
    if n_pos == 0 or n_neg == 0:
        d = r.mean(axis=1)
        return np.zeros_like(d), d
    pos, neg = _side_sums(r, side)
    rho_pos, rho_neg = pos / n_pos, neg / n_neg
    return (rho_pos - rho_neg) / 2.0, (rho_pos + rho_neg) / 2.0


def units_forward(unit: tuple, features: np.ndarray) -> np.ndarray:
    """Output-major (dl, rows) c * side(x) + d of one unit given as (w, b, c, d)."""
    w, b, c, d = unit
    out = np.outer(c, activate(features @ w + b, SIGN))
    out += d[:, None]
    return out


class LayerState:
    """Mutable bookkeeping while one hidden layer grows; nothing else changes its units.

    The regression design (the layer inputs) is fixed for the whole layer,
    so its standardization and Gram matrix are computed once up front.

    With dl output coordinates, the lasso fit of the design stacked dl times
    against the stacked residual columns has the same Gram matrix and the
    same correlations as the fit of the design against the row mean of the
    residuals, so the row mean is what gets fitted.

    ``residuals`` is output-major, (dl, m) in C order, so per-output passes
    read contiguous rows; optimal_bias and compute_cd take its transpose.
    ``train_mse`` is their mean square, set whenever they are replaced.

    The grown units live in place in four arrays, unit k at index k of each:
    ``W`` (units x p) holds one hyperplane normal per row, ``b`` one bias per
    unit, ``C`` (dl x units, C order, the layout of the output head's
    weights) the coefficients c as columns, and ``D`` (units x dl) one row
    of d per unit. The head's bias is ``D.sum(axis=0)``, summed afresh each
    time, so it rounds the same however the units came about. A unit fit
    changes nothing but the penalty schedule; an addition appends its unit,
    a kept replacement overwrites unit k, and ``val_pred``, the output-major
    prediction on the validation rows, follows every kept change at once, so
    residuals, units and ``val_pred`` agree after each one.
    """

    def __init__(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        val_features: np.ndarray,
        val_targets: np.ndarray,
        lasso_cfg: LassoConfig,
        current_lambda: float,
    ):
        self.features = np.asarray(features, dtype=float)
        self.residuals = np.array(np.atleast_2d(np.transpose(targets)), dtype=float, order="C")
        self.m = self.residuals.shape[1]
        self.train_mse = float(np.einsum("ij,ij->", self.residuals, self.residuals) / self.m)
        self.val_features = np.asarray(val_features, dtype=float)
        self.val_targets = np.asarray(val_targets, dtype=float).reshape(len(val_targets), -1)
        x, y, vx, vy = self.features, self.residuals.T, self.val_features, self.val_targets
        if (len(x) != len(y) or len(vx) != len(vy)
                or (vx.shape[1:], vy.shape[1:]) != (x.shape[1:], y.shape[1:])):
            raise DimensionError(f"validation features and labels have shapes {vx.shape} and "
                                 f"{vy.shape}, training ones {x.shape} and {y.shape}")
        self.val_pred = np.zeros_like(self.val_targets.T, order="C")
        self.lasso_cfg = lasso_cfg
        self.current_lambda = current_lambda
        self.design = StandardizedDesign(self.features)
        self.W = np.empty((0, self.features.shape[1]))
        self.b = np.empty(0)
        self.C = np.empty((self.residuals.shape[0], 0))
        self.D = np.empty((0, self.residuals.shape[0]))

    def val_mse(self) -> float:
        return squared_error_sums(self.val_pred.T, self.val_targets)[0] / self.val_targets.shape[0]

    def fit_hyperplane(self, residuals: np.ndarray) -> np.ndarray:
        """Sparse fit to (dl, m) residuals for the unit's normal only; advances
        the penalty schedule. Raises SolverError when the lasso solve hits its
        step cap, ZeroWeightVector when the schedule ends at the zero normal."""
        sched = scheduled_lasso_fit(
            self.design, residuals.mean(axis=0), self.lasso_cfg, self.current_lambda
        )
        if not sched.converged:
            raise SolverError(
                f"lasso solve at lambda {sched.used_lambda!r} did not converge within "
                f"{self.lasso_cfg.max_steps} steps"
            )
        self.current_lambda = sched.used_lambda
        if not sched.has_nonzero:
            raise ZeroWeightVector("penalty schedule exhausted with all-zero weights")
        return sched.w

    def _side_imbalance(self, side: np.ndarray) -> float:
        n_pos = int(np.count_nonzero(side > 0))
        sides = zip(_side_sums(self.residuals, side), (n_pos, self.m - n_pos))
        return max(float(np.max(np.abs(s))) for s, n in sides if n)

    def _fit_unit(self, residuals: np.ndarray, intercept: bool = False) -> tuple:
        """Fit a unit to (dl, m) residuals from one projection onto its normal, zero
        for an intercept unit; returns (w, b, c, d), row sides, leftover, its mse."""
        w = np.zeros(self.features.shape[1]) if intercept else self.fit_hyperplane(residuals)
        proj = self.features @ w
        b = optimal_bias(proj, residuals.T)
        side = activate(proj + b, SIGN)
        c, d = compute_cd(residuals.T, side)
        left = np.outer(c, side)
        left += d[:, None]
        np.subtract(residuals, left, out=left)
        return (w, b, c, d), side, left, float(np.einsum("ij,ij->", left, left) / self.m)

    def add_neuron(self, intercept: bool = False) -> tuple[float, float, float]:
        """Fit and append one unit; returns (realized drop, predicted drop,
        residual side imbalance after the update). An intercept unit, for
        when no hyperplane can be oriented, has the zero normal: the scan
        finds no split and gives b = 1, every row is on the positive side and
        d absorbs the residual means. A fitted unit that would raise the
        training error, its gain lost in round-off, is not kept:
        ZeroWeightVector, with residuals and units as before."""
        pre = self.train_mse
        (w, b, c, d), side, left, post = self._fit_unit(self.residuals, intercept)
        if post > pre and not intercept:
            raise ZeroWeightVector("no hyperplane lowers the training error")
        self.residuals, self.train_mse = left, post
        self.W = np.vstack([self.W, w])
        self.b = np.append(self.b, b)
        self.C = np.hstack([self.C, c[:, None]])
        self.D = np.vstack([self.D, d])
        self.val_pred += units_forward((w, b, c, d), self.val_features)
        return pre - post, float(np.sum(c * c - d * d)), self._side_imbalance(side)

    def replace_pass(self, cap: int) -> tuple[int, float]:
        """Refit the oldest units one by one, each against the current
        residuals with its own output added back. A refit is kept only if
        the training error strictly decreases; the first non-improving
        attempt leaves unit k as it was and ends the pass. At most
        min(t-1, cap) attempts. A kept refit moves the validation prediction
        at once, from unit k's output to the refit's."""
        accepted, worst_imbalance = 0, 0.0
        for k in range(min(len(self.b) - 1, cap)):
            # Views of unit k: read them before unit k is overwritten.
            old = (self.W[k], self.b[k], self.C[:, k], self.D[k])
            residuals = units_forward(old, self.features)
            residuals += self.residuals
            try:
                unit, side, left, post = self._fit_unit(residuals)
            except ZeroWeightVector:
                break
            if not post < self.train_mse:
                break
            self.val_pred -= units_forward(old, self.val_features)
            self.residuals, self.train_mse = left, post
            self.W[k], self.b[k], self.C[:, k], self.D[k] = unit
            self.val_pred += units_forward(unit, self.val_features)
            accepted += 1
            worst_imbalance = max(worst_imbalance, self._side_imbalance(side))
        return accepted, worst_imbalance


@dataclass
class LayerResult:
    network: BannModel
    record: IterationRecord
    aborted: bool
    current_lambda: float

    @property
    def width(self) -> int:
        return self.network.hidden[-1].width


def build_layer(
    features: np.ndarray,
    targets: np.ndarray,
    val_features: np.ndarray,
    val_targets: np.ndarray,
    cfg: TrainConfig,
    layer_index: int = 1,
    current_lambda: float | None = None,
    records: list[IterationRecord] | None = None,
    kept: tuple[LayerParams, ...] = (),
) -> LayerResult:
    """Grow one hidden layer on the given inputs, tracking validation error
    for early stopping, then roll back to the width with the best validation
    error. Validation only decides where growth stops and which width is
    kept, never which unit comes next. A record's nnz is counted from the
    layer's arrays: the frozen layers ``kept`` below this one, counted once,
    plus the grown units and their output head. The units are copied out
    only when validation improves, and the network is built once, after
    growth, from the copy at the kept width."""
    if features.shape[0] < 2:
        raise TrainingAbort("need at least 2 training rows to place a hyperplane")
    state = LayerState(features, targets, val_features, val_targets, cfg.lasso,
                       current_lambda or cfg.lasso.lambda0)
    frozen_nnz = count_nonzero(*(a for layer in kept for a in (layer.weights, layer.biases)))

    best: tuple[IterationRecord, LayerParams, LayerParams] | None = None
    bad_streak = 0
    aborted = False

    for t in range(1, cfg.max_neurons_per_layer + 1):
        try:
            drop, predicted, imbalance = state.add_neuron()
        except ZeroWeightVector:
            if t > 1:
                break
            drop, predicted, imbalance = state.add_neuron(intercept=True)
            aborted = True
        # A lone unit has nothing to replace, so an intercept unit stays.
        replacements, repl_imbalance = state.replace_pass(cfg.replace_cap)
        head_b = state.D.sum(axis=0)
        record = IterationRecord(
            layer=layer_index, t=t, train_mse=state.train_mse, val_mse=state.val_mse(),
            drop=drop, predicted_drop=predicted, replacements=replacements,
            lambda_used=state.current_lambda, side_imbalance=max(imbalance, repl_imbalance),
            nnz=frozen_nnz + count_nonzero(state.W, state.b, state.C, head_b),
        )
        if records is not None:
            records.append(record)

        if best is None or record.val_mse < best[0].val_mse:
            # LayerParams copies, so later replacements leave the kept units alone.
            best = record, LayerParams(state.W, state.b), LayerParams(state.C, head_b)
            bad_streak = 0
        else:
            bad_streak += 1
            if bad_streak >= cfg.patience:
                break
        if aborted:
            break

    record, grown, head = best
    return LayerResult(BannModel(SIGN, kept + (grown,), head), record, aborted,
                       state.current_lambda)


def build_network(
    dataset: Dataset,
    cfg: TrainConfig,
    val_data: Dataset,
) -> tuple[BannModel, TrainReport]:
    """Build the full network: grow the first hidden layer on the raw
    features, then repeatedly map all rows through the frozen layers, reset
    the residuals to the original labels, and grow another layer on the +/-1
    patterns. Validation error sets each layer's width (see build_layer), and
    a deeper layer is kept only when its best validation error improves on
    the incumbent network's; the kept layer's linear head becomes the model
    output.
    """
    report = TrainReport()
    train_x, val_x = dataset.features, val_data.features

    current_lambda = cfg.lasso.lambda0
    incumbent: LayerResult | None = None
    for depth in range(1, cfg.max_hidden_layers + 1):
        result = build_layer(
            train_x,
            dataset.labels,
            val_x,
            val_data.labels,
            cfg,
            layer_index=depth,
            current_lambda=current_lambda,
            records=report.records,
            kept=incumbent.network.hidden if incumbent else (),
        )
        current_lambda = result.current_lambda
        if depth > 1 and result.record.val_mse >= incumbent.record.val_mse:
            break
        incumbent = result
        if result.aborted or depth == cfg.max_hidden_layers:
            break
        # The new layer's +/-1 patterns, one select on x @ W.T + b as a unit's sides are.
        grown = result.network.hidden[-1]
        train_x, val_x = (activate(np.add(z, grown.biases, out=z), SIGN)
                          for z in (x @ grown.weights.T for x in (train_x, val_x)))

    model = incumbent.network

    report.architecture = model.architecture()
    report.final_train_mse, report.final_val_mse = (
        squared_error_sums(forward(model, data.features), data.labels)[0] / data.m
        for data in (dataset, val_data)
    )
    # The kept record's layer, t and nnz describe the returned model as they stand.
    report.records.append(replace(
        incumbent.record, train_mse=report.final_train_mse, val_mse=report.final_val_mse,
        drop=0.0, predicted_drop=0.0, replacements=0, lambda_used=current_lambda,
        side_imbalance=0.0,
    ))
    return model, report
