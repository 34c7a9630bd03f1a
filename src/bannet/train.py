"""Greedy construction of binary-activated regression networks.

A hidden layer grows one unit at a time. Each unit is a hyperplane fitted to
the current residuals: a sparse linear fit supplies the normal direction (its
bias is discarded), an exact sorted-split scan places the bias by minimizing
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
    write_atomic,
)
from .solvers import LassoConfig, StandardizedDesign, scheduled_lasso_fit


@dataclass
class Neuron:
    """One hidden unit: hyperplane (w, b) and per-output coefficients (c, d)."""

    w: np.ndarray
    b: float
    c: np.ndarray
    d: np.ndarray

    def copy(self) -> "Neuron":
        return Neuron(self.w.copy(), self.b, self.c.copy(), self.d.copy())


@dataclass(frozen=True)
class TrainConfig:
    max_neurons_per_layer: int = 500
    max_hidden_layers: int = 3
    replace_cap: int = 10
    patience: int = 20
    lasso: LassoConfig = field(default_factory=LassoConfig)
    val_fraction: float = 0.2
    seed: int = 0
    min_layer_gain: float = 0.0

    def __post_init__(self):
        if self.max_neurons_per_layer < 1:
            raise ConfigError("max_neurons_per_layer must be >= 1")
        if self.max_hidden_layers < 1:
            raise ConfigError("max_hidden_layers must be >= 1")
        if self.replace_cap < 0:
            raise ConfigError("replace_cap must be >= 0")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError("val_fraction must lie in (0, 1)")
        if self.min_layer_gain < 0:
            raise ConfigError("min_layer_gain must be >= 0")


@dataclass
class IterationRecord:
    layer: int
    t: int
    train_mse: float
    val_mse: float | None
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
    final_val_mse: float | None = None

    CSV_COLUMNS = ("layer", "t", "train_mse", "val_mse", "drop", "lambda", "nnz")

    def layer_records(self, layer: int) -> list[IterationRecord]:
        return [r for r in self.records if r.layer == layer]

    def write_csv(self, path: str) -> None:
        lines = [",".join(self.CSV_COLUMNS)]
        for r in self.records:
            val = "" if r.val_mse is None else repr(r.val_mse)
            lines.append(
                f"{r.layer},{r.t},{r.train_mse!r},{val},{r.drop!r},"
                f"{r.lambda_used!r},{r.nnz}"
            )
        write_atomic(path, "\n".join(lines) + "\n")


def neuron_side(features: np.ndarray, w: np.ndarray, b: float) -> np.ndarray:
    """Side of the hyperplane for every row: -1 below, +1 at or above."""
    return np.where(features @ w + b < 0.0, -1.0, 1.0)


def optimal_bias(
    w: np.ndarray, features: np.ndarray, residuals: np.ndarray
) -> tuple[float, float]:
    """Exact search for the bias minimizing the weighted per-side residual
    variance, over all m+1 splits of the rows sorted by their projection onto
    w. Uses prefix sums of the residuals and their squares, so the scan costs
    O(dl * m) after the O(m log m) sort. The bias lands at the midpoint
    between the two projections flanking the chosen split (one past the
    extremes for the empty-side splits); among ties the first split in scan
    order wins, the scan starting from the empty-negative-side split.
    """
    w = np.asarray(w, dtype=float)
    if not np.any(w != 0.0):
        raise ZeroWeightVector("cannot place a hyperplane from an all-zero normal")
    residuals = np.atleast_2d(residuals.T).T  # (m, dl)
    m = features.shape[0]
    proj = features @ w
    order = np.argsort(proj, kind="stable")
    sp = proj[order]
    r = residuals[order]

    zeros = np.zeros((1, r.shape[1]))
    s = np.concatenate([zeros, np.cumsum(r, axis=0)])          # (m+1, dl)
    ss = np.concatenate([zeros, np.cumsum(r * r, axis=0)])     # (m+1, dl)
    total = s[m]
    total_sq = ss[m]

    counts = np.arange(m + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        neg = ss - s * s / counts[:, None]
        pos = (total_sq - ss) - (total - s) ** 2 / (m - counts)[:, None]
    neg[0] = 0.0
    pos[m] = 0.0
    objective = (neg + pos).sum(axis=1) / m

    # A split between equal projections cannot be realized by any bias.
    if m > 1:
        tied = sp[:-1] == sp[1:]
        objective[1:m][tied] = math.inf

    best = int(np.argmin(objective))
    if best == 0:
        b = -(sp[0] - 1.0)
    elif best == m:
        b = -(sp[m - 1] + 1.0)
    else:
        b = -(sp[best - 1] + sp[best]) / 2.0
    return float(b), float(objective[best])


def compute_cd(residuals: np.ndarray, side: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form output coefficients: with rho+/- the mean residual on each
    side, c = (rho+ - rho-)/2 and d = (rho+ + rho-)/2 per output coordinate.
    An empty side degenerates to c = 0 with d the mean of the populated side.
    """
    residuals = np.atleast_2d(residuals.T).T
    if residuals.shape[0] == 0:
        raise ValueError("empty residual set")
    pos = side > 0
    n_pos = int(pos.sum())
    n_neg = residuals.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        d = residuals.mean(axis=0)
        return np.zeros_like(d), d
    rho_pos = residuals[pos].mean(axis=0)
    rho_neg = residuals[~pos].mean(axis=0)
    return (rho_pos - rho_neg) / 2.0, (rho_pos + rho_neg) / 2.0


def fit_hyperplane(
    features: np.ndarray,
    residuals: np.ndarray,
    cfg: LassoConfig,
    current_lambda: float,
) -> tuple[np.ndarray, float, float]:
    """One-shot hyperplane fit: sparse regression for the normal (multivariate
    residuals are stacked as one scalar-target row per output coordinate),
    then the exact bias search. Returns (w, b, lambda actually used)."""
    state = LayerState(features, residuals, cfg, current_lambda)
    w, b = state.fit_hyperplane()
    return w, b, state.current_lambda


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
    weights = np.stack([unit.w for unit in neurons])
    biases = np.array([unit.b for unit in neurons])
    head_w = np.stack([unit.c for unit in neurons], axis=1)  # (dl, width)
    head_b = np.sum([unit.d for unit in neurons], axis=0)
    return LayerParams(weights, biases), head_w, head_b


class LayerState:
    """Mutable bookkeeping while one hidden layer grows.

    The regression design (the layer inputs, duplicated once per output
    coordinate for multivariate targets) is fixed for the whole layer, so its
    standardization and Gram matrix are computed once up front.
    """

    def __init__(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        lasso_cfg: LassoConfig,
        current_lambda: float,
    ):
        self.features = np.asarray(features, dtype=float)
        self.residuals = np.array(targets, dtype=float)
        if self.residuals.ndim == 1:
            self.residuals = self.residuals[:, None]
        self.m, self.dl = self.residuals.shape
        self.lasso_cfg = lasso_cfg
        self.current_lambda = current_lambda
        stacked = self.features if self.dl == 1 else np.tile(self.features, (self.dl, 1))
        self.design = StandardizedDesign(stacked)
        self.neurons: list[Neuron] = []

    def train_mse(self) -> float:
        return float(np.sum(self.residuals * self.residuals) / self.m)

    def _stacked_targets(self) -> np.ndarray:
        if self.dl == 1:
            return self.residuals[:, 0]
        return self.residuals.T.reshape(-1)

    def fit_hyperplane(self) -> tuple[np.ndarray, float]:
        """Sparse fit for the normal direction (bias discarded), then the
        exact split search for the bias. Advances the penalty schedule.
        Raises SolverError when the lasso solve hits its step cap."""
        sched = scheduled_lasso_fit(
            self.design, self._stacked_targets(), self.lasso_cfg, self.current_lambda
        )
        if not sched.converged:
            raise SolverError(
                f"lasso solve at lambda {sched.used_lambda!r} did not converge within "
                f"{self.lasso_cfg.cd_max_iters} steps"
            )
        self.current_lambda = sched.used_lambda
        if not sched.has_nonzero:
            raise ZeroWeightVector("penalty schedule exhausted with all-zero weights")
        b, _ = optimal_bias(sched.w, self.features, self.residuals)
        return sched.w, b

    def _apply(self, side: np.ndarray, c: np.ndarray, d: np.ndarray, sign: float) -> None:
        self.residuals += sign * (side[:, None] * c + d)

    def _side_imbalance(self, side: np.ndarray) -> float:
        worst = 0.0
        for mask in (side > 0, side < 0):
            if mask.any():
                worst = max(worst, float(np.max(np.abs(self.residuals[mask].sum(axis=0)))))
        return worst

    def add_neuron(self) -> tuple[float, float, float]:
        """Fit and append one unit; returns (realized drop, predicted drop,
        residual side imbalance after the update)."""
        pre = self.train_mse()
        w, b = self.fit_hyperplane()
        side = neuron_side(self.features, w, b)
        c, d = compute_cd(self.residuals, side)
        self._apply(side, c, d, -1.0)
        self.neurons.append(Neuron(w, float(b), c, d))
        predicted = float(np.sum(c * c - d * d))
        return pre - self.train_mse(), predicted, self._side_imbalance(side)

    def add_intercept_neuron(self) -> tuple[float, float, float]:
        """Degenerate unit used when no hyperplane can be oriented: everything
        on the positive side, d absorbing the residual means."""
        pre = self.train_mse()
        side = np.ones(self.m)
        c, d = compute_cd(self.residuals, side)
        self._apply(side, c, d, -1.0)
        self.neurons.append(Neuron(np.zeros(self.features.shape[1]), 1.0, c, d))
        predicted = float(np.sum(c * c - d * d))
        return pre - self.train_mse(), predicted, self._side_imbalance(side)

    def replace_pass(self, cap: int) -> tuple[int, float]:
        """Refit the oldest units one by one against current residuals. Each
        replacement is kept only if the training error strictly decreases;
        the first non-improving attempt restores the original unit bit-exactly
        and ends the pass. At most min(t-1, cap) attempts."""
        t = len(self.neurons)
        accepted = 0
        worst_imbalance = 0.0
        if t < 2 or cap <= 0:
            return accepted, worst_imbalance
        for k in range(min(t - 1, cap)):
            old = self.neurons[k]
            pre = self.train_mse()
            saved = self.residuals.copy()
            old_side = neuron_side(self.features, old.w, old.b)
            self._apply(old_side, old.c, old.d, +1.0)
            try:
                w, b = self.fit_hyperplane()
            except ZeroWeightVector:
                self.residuals = saved
                break
            side = neuron_side(self.features, w, b)
            c, d = compute_cd(self.residuals, side)
            self._apply(side, c, d, -1.0)
            if self.train_mse() < pre:
                self.neurons[k] = Neuron(w, float(b), c, d)
                accepted += 1
                worst_imbalance = max(worst_imbalance, self._side_imbalance(side))
            else:
                self.residuals = saved
                break
        return accepted, worst_imbalance

    def snapshot(self) -> list[Neuron]:
        return [unit.copy() for unit in self.neurons]

    def nonzero_parameters(self) -> int:
        if not self.neurons:
            return 0
        count = 0
        for unit in self.neurons:
            count += int(np.count_nonzero(unit.w)) + int(unit.b != 0.0)
        count += int(np.count_nonzero(np.stack([u.c for u in self.neurons])))
        count += int(np.count_nonzero(np.sum([u.d for u in self.neurons], axis=0)))
        return count


@dataclass
class LayerResult:
    neurons: list[Neuron]
    best_train_mse: float
    best_val_mse: float | None
    aborted: bool
    current_lambda: float

    @property
    def width(self) -> int:
        return len(self.neurons)


def build_layer(
    features: np.ndarray,
    targets: np.ndarray,
    val_features: np.ndarray | None,
    val_targets: np.ndarray | None,
    cfg: TrainConfig,
    layer_index: int = 1,
    current_lambda: float | None = None,
    records: list[IterationRecord] | None = None,
    base_nnz: int = 0,
) -> LayerResult:
    """Grow one hidden layer on the given inputs, tracking validation error
    for early stopping, then roll back to the width with the best validation
    error. With no validation rows the layer grows to the unit cap."""
    if features.shape[0] < 2:
        raise TrainingAbort("need at least 2 training rows to place a hyperplane")
    state = LayerState(features, targets, cfg.lasso, current_lambda or cfg.lasso.lambda0)
    has_val = val_features is not None and val_features.shape[0] > 0
    val_t = None
    val_pred = None
    if has_val:
        val_t = np.array(val_targets, dtype=float)
        if val_t.ndim == 1:
            val_t = val_t[:, None]
        val_pred = np.zeros_like(val_t)

    best_neurons: list[Neuron] = []
    best_val = math.inf
    best_train = math.inf
    bad_streak = 0
    aborted = False

    for t in range(1, cfg.max_neurons_per_layer + 1):
        try:
            drop, predicted, imbalance = state.add_neuron()
        except ZeroWeightVector:
            if t == 1:
                drop, predicted, imbalance = state.add_intercept_neuron()
                aborted = True
            else:
                break
        replacements = 0
        if not aborted:
            new = state.neurons[-1]
            if has_val:
                side = neuron_side(val_features, new.w, new.b)
                val_pred += side[:, None] * new.c + new.d
            replacements, repl_imbalance = state.replace_pass(cfg.replace_cap)
            if replacements:
                imbalance = max(imbalance, repl_imbalance)
                if has_val:
                    val_pred = units_forward(state.neurons, val_features)
        elif has_val:
            val_pred += state.neurons[-1].d[None, :]

        train_mse = state.train_mse()
        val_mse = None
        if has_val:
            diff = val_pred - val_t
            val_mse = float(np.sum(diff * diff) / val_t.shape[0])
        if records is not None:
            records.append(
                IterationRecord(
                    layer=layer_index,
                    t=t,
                    train_mse=train_mse,
                    val_mse=val_mse,
                    drop=drop,
                    predicted_drop=predicted,
                    replacements=replacements,
                    lambda_used=state.current_lambda,
                    nnz=base_nnz + state.nonzero_parameters(),
                    side_imbalance=imbalance,
                )
            )

        if has_val:
            if val_mse < best_val * (1.0 - cfg.min_layer_gain) or not best_neurons:
                best_neurons = state.snapshot()
                best_val = val_mse
                best_train = train_mse
                bad_streak = 0
            else:
                bad_streak += 1
                if bad_streak >= cfg.patience:
                    break
        else:
            best_neurons = state.snapshot()
            best_train = train_mse
        if aborted:
            break

    return LayerResult(
        neurons=best_neurons,
        best_train_mse=best_train,
        best_val_mse=None if not has_val else best_val,
        aborted=aborted,
        current_lambda=state.current_lambda,
    )


def _split_validation(dataset: Dataset, cfg: TrainConfig) -> tuple[Dataset, Dataset | None]:
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(dataset.m)
    n_val = int(cfg.val_fraction * dataset.m)
    if n_val == 0:
        return dataset, None
    return dataset.take(perm[: dataset.m - n_val]), dataset.take(perm[dataset.m - n_val :])


def build_network(
    dataset: Dataset,
    cfg: TrainConfig,
    val_data: Dataset | None = None,
) -> tuple[BannModel, TrainReport]:
    """Build the full network: grow the first hidden layer on the raw
    features, then repeatedly map all rows through the frozen layers, reset
    the residuals to the original labels, and grow another layer on the +/-1
    patterns. A deeper layer is kept only when its best validation error
    improves on the incumbent network's; the kept layer's linear head becomes
    the model output.

    When ``val_data`` is omitted, a validation split of ``cfg.val_fraction``
    is drawn from ``dataset`` with the run seed before training.
    """
    if val_data is None:
        train_ds, val_ds = _split_validation(dataset, cfg)
    else:
        train_ds, val_ds = dataset, (val_data if val_data.m > 0 else None)
    if val_ds is None and cfg.max_hidden_layers > 1:
        raise ConfigError(
            "building more than one hidden layer requires a validation split"
        )

    report = TrainReport()
    train_x = np.asarray(train_ds.features)
    val_x = np.asarray(val_ds.features) if val_ds is not None else None
    labels = np.asarray(train_ds.labels)
    val_labels = np.asarray(val_ds.labels) if val_ds is not None else None

    current_lambda = cfg.lasso.lambda0
    kept: list[LayerParams] = []
    incumbent: LayerResult | None = None
    for depth in range(1, cfg.max_hidden_layers + 1):
        base_nnz = sum(
            int(np.count_nonzero(lp.weights)) + int(np.count_nonzero(lp.biases))
            for lp in kept
        )
        result = build_layer(
            train_x,
            labels,
            val_x,
            val_labels,
            cfg,
            layer_index=depth,
            current_lambda=current_lambda,
            records=report.records,
            base_nnz=base_nnz,
        )
        current_lambda = result.current_lambda
        if depth > 1 and result.best_val_mse >= incumbent.best_val_mse:
            break
        layer, _, _ = units_to_layer(result.neurons)
        kept.append(layer)
        incumbent = result
        if result.aborted or depth == cfg.max_hidden_layers:
            break
        train_x = activate(train_x @ layer.weights.T + layer.biases, SIGN)
        if val_x is not None:
            val_x = activate(val_x @ layer.weights.T + layer.biases, SIGN)

    _, head_w, head_b = units_to_layer(incumbent.neurons)
    model = BannModel(SIGN, tuple(kept), LayerParams(head_w, head_b))

    report.architecture = model.architecture()
    pred = forward(model, train_ds.features)
    diff = pred - train_ds.labels
    report.final_train_mse = float(np.sum(diff * diff) / train_ds.m)
    if val_ds is not None:
        vdiff = forward(model, val_ds.features) - val_ds.labels
        report.final_val_mse = float(np.sum(vdiff * vdiff) / val_ds.m)
    report.records.append(
        IterationRecord(
            layer=len(kept),
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
