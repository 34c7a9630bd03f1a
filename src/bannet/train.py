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
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SolverError, TrainingAbort, ZeroWeightVector
from .model import (
    SIGN,
    BannModel,
    Dataset,
    LayerParams,
    activate,
    count_nonzero_parameters,
    forward,
    hidden_pattern,
    squared_error_sums,
    write_atomic,
)
from .solvers import LassoConfig, StandardizedDesign, scheduled_lasso_fit


@dataclass
class Neuron:
    """One hidden unit: hyperplane (w, b) and per-output coefficients (c, d).
    Never modified: a refit makes a new unit, so unit lists can be shared."""

    w: np.ndarray
    b: float
    c: np.ndarray
    d: np.ndarray


@dataclass(frozen=True)
class TrainConfig:
    max_neurons_per_layer: int = 500
    max_hidden_layers: int = 3
    replace_cap: int = 10
    patience: int = 20
    lasso: LassoConfig = field(default_factory=LassoConfig)

    def __post_init__(self):
        if self.max_neurons_per_layer < 1:
            raise ConfigError("max_neurons_per_layer must be >= 1")
        if self.max_hidden_layers < 1:
            raise ConfigError("max_hidden_layers must be >= 1")
        if self.replace_cap < 0:
            raise ConfigError("replace_cap must be >= 0")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")


@dataclass
class IterationRecord:
    layer: int
    t: int
    train_mse: float
    val_mse: float
    drop: float
    predicted_drop: float
    replacements: int
    lambda_used: float
    nnz: int
    side_imbalance: float


@dataclass
class TrainReport:
    records: list[IterationRecord] = field(default_factory=list)
    architecture: list[int] = field(default_factory=list)
    final_train_mse: float = math.nan
    final_val_mse: float = math.nan

    CSV_COLUMNS = ("layer", "t", "train_mse", "val_mse", "drop", "lambda", "nnz")

    def write_csv(self, path: str) -> None:
        lines = [",".join(self.CSV_COLUMNS)]
        for r in self.records:
            lines.append(
                f"{r.layer},{r.t},{r.train_mse!r},{r.val_mse!r},{r.drop!r},"
                f"{r.lambda_used!r},{r.nnz}"
            )
        write_atomic(path, "\n".join(lines) + "\n")


def neuron_side(features: np.ndarray, w: np.ndarray, b: float) -> np.ndarray:
    """Side of the hyperplane for every row: -1 below, +1 at or above."""
    return activate(features @ w + b, SIGN)


def optimal_bias(w: np.ndarray, features: np.ndarray, residuals: np.ndarray) -> float:
    """Exact search for the bias minimizing the weighted per-side residual
    variance, over the splits of the rows sorted by their projection onto w.

    A split with k rows summing to s on the negative side (total T) leaves
    per-side variances of sum r^2 - gain, gain = s^2/k + (T-s)^2/(m-k), or
    T^2/m with the negative side empty; the scan maximizes the gain summed
    over outputs from one prefix sum, O(dl * m) after numpy's default
    (unstable) argsort. Equal projections are never split, so the order
    within a tie only changes the rounding of the sums. Among equal gains
    the first split wins, starting from the empty negative side; the bias
    lands midway between the projections flanking the split, or 1 below
    the smallest. The residuals are divided by 2^e, e the binary exponent
    of their largest magnitude: exact at ordinary scales, and no square
    overflows or underflows.
    """
    w = np.asarray(w, dtype=float)
    if not np.any(w != 0.0):
        raise ZeroWeightVector("cannot place a hyperplane from an all-zero normal")
    proj = features @ w
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
    return float(-(sp[0] - 1.0) if best == 0 else -(sp[best - 1] + sp[best]) / 2.0)


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


def units_forward(neurons: list[Neuron], features: np.ndarray) -> np.ndarray:
    """Prediction of a single grown layer: sum_t c_t * side_t(x) + d_t."""
    dl = neurons[0].c.shape[0]
    pred = np.zeros((features.shape[0], dl))
    for unit in neurons:
        side = neuron_side(features, unit.w, unit.b)
        pred += side[:, None] * unit.c + unit.d
    return pred


def units_to_layer(neurons: list[Neuron]) -> tuple[LayerParams, np.ndarray, np.ndarray]:
    """Pack grown units into layer weights plus the linear head (C, sum of d)."""
    weights = np.array([unit.w for unit in neurons])
    biases = np.array([unit.b for unit in neurons])
    head_w = np.array([unit.c for unit in neurons], order="F").T  # (dl, width), C order
    head_b = np.sum([unit.d for unit in neurons], axis=0)
    return LayerParams(weights, biases), head_w, head_b


class LayerState:
    """Mutable bookkeeping while one hidden layer grows.

    The regression design (the layer inputs) is fixed for the whole layer,
    so its standardization and Gram matrix are computed once up front.

    With dl output coordinates, the lasso fit of the design stacked dl times
    against the stacked residual columns has the same Gram matrix and the
    same correlations as the fit of the design against the row mean of the
    residuals, so the row mean is what gets fitted.

    ``residuals`` is output-major, (dl, m) in C order, so per-output passes
    read contiguous rows; optimal_bias and compute_cd take its transpose.
    """

    def __init__(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        lasso_cfg: LassoConfig,
        current_lambda: float,
    ):
        self.features = np.asarray(features, dtype=float)
        self.residuals = np.array(np.atleast_2d(np.transpose(targets)), dtype=float, order="C")
        self.m = self.residuals.shape[1]
        self.lasso_cfg = lasso_cfg
        self.current_lambda = current_lambda
        self.design = StandardizedDesign(self.features)
        self.neurons: list[Neuron] = []

    def train_mse(self) -> float:
        flat = self.residuals.ravel()
        return float(flat @ flat / self.m)

    def fit_hyperplane(self) -> tuple[np.ndarray, float]:
        """Sparse fit for the normal direction, then the exact split search
        for the bias. Advances the penalty schedule.
        Raises SolverError when the lasso solve hits its step cap."""
        sched = scheduled_lasso_fit(
            self.design, self.residuals.mean(axis=0), self.lasso_cfg, self.current_lambda
        )
        if not sched.converged:
            raise SolverError(
                f"lasso solve at lambda {sched.used_lambda!r} did not converge within "
                f"{self.lasso_cfg.max_steps} steps"
            )
        self.current_lambda = sched.used_lambda
        if not sched.has_nonzero:
            raise ZeroWeightVector("penalty schedule exhausted with all-zero weights")
        return sched.w, optimal_bias(sched.w, self.features, self.residuals.T)

    def _apply(self, side: np.ndarray, c: np.ndarray, d: np.ndarray, sign: float) -> None:
        step = np.outer(sign * c, side)
        step += sign * d[:, None]
        self.residuals += step

    def _side_imbalance(self, side: np.ndarray) -> float:
        n_pos = int(np.count_nonzero(side > 0))
        sides = zip(_side_sums(self.residuals, side), (n_pos, self.m - n_pos))
        return max(float(np.max(np.abs(s))) for s, n in sides if n)

    def _fit_unit(self, intercept: bool = False) -> tuple[Neuron, np.ndarray]:
        """Fit a unit to the residuals and subtract its output; returns it and its sides."""
        if intercept:
            w, b = np.zeros(self.features.shape[1]), 1.0
        else:
            w, b = self.fit_hyperplane()
        side = neuron_side(self.features, w, b)
        c, d = compute_cd(self.residuals.T, side)
        self._apply(side, c, d, -1.0)
        return Neuron(w, float(b), c, d), side

    def add_neuron(self, intercept: bool = False) -> tuple[float, float, float]:
        """Fit and append one unit; returns (realized drop, predicted drop,
        residual side imbalance after the update). An intercept unit, for
        when no hyperplane can be oriented, has w = 0 and b = 1: every row
        is on the positive side and d absorbs the residual means. A fitted
        unit that would raise the training error, its gain lost in round-off,
        is not kept: ZeroWeightVector, with residuals and units as before."""
        pre = self.train_mse()
        saved = self.residuals.copy()
        unit, side = self._fit_unit(intercept)
        post = self.train_mse()
        if post > pre and not intercept:
            self.residuals = saved
            raise ZeroWeightVector("no hyperplane lowers the training error")
        self.neurons.append(unit)
        predicted = float(np.sum(unit.c * unit.c - unit.d * unit.d))
        return pre - post, predicted, self._side_imbalance(side)

    def replace_pass(self, cap: int) -> tuple[int, float]:
        """Refit the oldest units one by one against current residuals. Each
        replacement is kept only if the training error strictly decreases;
        the first non-improving attempt restores the original unit bit-exactly
        and ends the pass. At most min(t-1, cap) attempts."""
        accepted = 0
        worst_imbalance = 0.0
        for k in range(min(len(self.neurons) - 1, cap)):
            old = self.neurons[k]
            pre = self.train_mse()
            saved = self.residuals.copy()
            self._apply(neuron_side(self.features, old.w, old.b), old.c, old.d, +1.0)
            try:
                unit, side = self._fit_unit()
                improved = self.train_mse() < pre
            except ZeroWeightVector:
                improved = False
            if not improved:
                self.residuals = saved
                break
            self.neurons[k] = unit
            accepted += 1
            worst_imbalance = max(worst_imbalance, self._side_imbalance(side))
        return accepted, worst_imbalance


@dataclass
class LayerResult:
    network: BannModel
    best_val_mse: float
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
    kept, never which unit comes next. A record's nnz counts its network: the
    frozen layers ``kept`` below this one, the grown units and their output
    head. The returned network is the network of the record at the kept width."""
    if features.shape[0] < 2:
        raise TrainingAbort("need at least 2 training rows to place a hyperplane")
    state = LayerState(features, targets, cfg.lasso, current_lambda or cfg.lasso.lambda0)
    val_t = np.asarray(val_targets, dtype=float).reshape(len(val_targets), -1)
    val_pred = np.zeros_like(val_t)

    best: BannModel | None = None
    best_val = math.inf
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
        val_pred += units_forward(state.neurons[-1:], val_features)
        # A lone unit has nothing to replace, so an intercept unit stays.
        before = state.neurons[: cfg.replace_cap]
        replacements, repl_imbalance = state.replace_pass(cfg.replace_cap)
        if replacements:
            imbalance = max(imbalance, repl_imbalance)
            val_pred += units_forward(state.neurons[:replacements], val_features)
            val_pred -= units_forward(before[:replacements], val_features)

        val_mse = squared_error_sums(val_pred, val_t)[0] / val_t.shape[0]
        grown, head_w, head_b = units_to_layer(state.neurons)
        network = BannModel(SIGN, kept + (grown,), LayerParams(head_w, head_b))
        if records is not None:
            records.append(
                IterationRecord(
                    layer=layer_index,
                    t=t,
                    train_mse=state.train_mse(),
                    val_mse=val_mse,
                    drop=drop,
                    predicted_drop=predicted,
                    replacements=replacements,
                    lambda_used=state.current_lambda,
                    nnz=count_nonzero_parameters(network),
                    side_imbalance=imbalance,
                )
            )

        if val_mse < best_val or best is None:
            best = network
            best_val = val_mse
            bad_streak = 0
        else:
            bad_streak += 1
            if bad_streak >= cfg.patience:
                break
        if aborted:
            break

    return LayerResult(
        network=best,
        best_val_mse=best_val,
        aborted=aborted,
        current_lambda=state.current_lambda,
    )


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
        if depth > 1 and result.best_val_mse >= incumbent.best_val_mse:
            break
        incumbent = result
        if result.aborted or depth == cfg.max_hidden_layers:
            break
        train_x = hidden_pattern(result.network, train_x, depth, start=depth - 1)
        val_x = hidden_pattern(result.network, val_x, depth, start=depth - 1)

    model = incumbent.network

    report.architecture = model.architecture()
    total, _ = squared_error_sums(forward(model, dataset.features), dataset.labels)
    report.final_train_mse = total / dataset.m
    total, _ = squared_error_sums(forward(model, val_data.features), val_data.labels)
    report.final_val_mse = total / val_data.m
    report.records.append(
        IterationRecord(
            layer=len(model.hidden),
            t=incumbent.width,
            train_mse=report.final_train_mse,
            val_mse=report.final_val_mse,
            drop=0.0,
            predicted_drop=0.0,
            replacements=0,
            lambda_used=current_lambda,
            nnz=count_nonzero_parameters(model),
            side_imbalance=0.0,
        )
    )
    return model, report
