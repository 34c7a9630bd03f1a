"""Greedy construction of binary-activated regression networks.

A hidden layer grows one unit at a time. Each unit is a hyperplane fitted to
the current residuals: a sparse linear fit supplies the normal direction (it
forms no bias), an exact sorted-split scan places the bias by minimizing
the weighted per-side residual variance, and the unit's two output
coefficients per target coordinate are the half-difference and half-sum of the
mean residuals on each side. Subtracting the unit's contribution from the
residuals makes the training error drop at every accepted addition, and from
the second unit on the realized drop equals sum_j (c_j^2 - d_j^2).

After each unit the layer's output head is refitted by least squares on the
constant and the +/-1 sides of all grown units (the totally corrective step of
boosting); its bias keeps the residual total at zero. Deeper layers train on
the +/-1 patterns of the frozen layers below, with residuals reset to the labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, DimensionError, SolverError, TrainingAbort, ZeroWeightVector
from .model import (
    SIGN,
    BLOCK_VALUES,
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

_LASSO = LassoConfig()


@dataclass(frozen=True)
class TrainConfig:
    """Growth limits, the only settings of training; every field is one. The
    penalty schedule and its solver limits are LassoConfig's constants."""

    max_neurons_per_layer: int = 500
    max_hidden_layers: int = 3
    patience: int = 20

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
    refit_gain: float
    side_imbalance: float


@dataclass
class TrainReport:
    """The records of a training; the last restates the returned model."""

    records: list[IterationRecord] = field(default_factory=list)

    def write_csv(self, path: str) -> None:
        names = [f.name for f in fields(IterationRecord)]
        rows = [names] + [[repr(getattr(r, name)) for name in names] for r in self.records]
        write_atomic(path, "".join(",".join(row) + "\n" for row in rows))


def optimal_bias(proj: np.ndarray, residuals: np.ndarray) -> tuple[float, tuple]:
    """Exact search for the bias minimizing the weighted per-side residual
    variance over the splits of the rows sorted by their projection proj;
    returns the bias and the split it realizes, (k, P, T): k rows on the
    negative side and, per output, the positive-side sum P and the total T.

    A split with k rows summing to s on the negative side leaves per-side
    variances of sum r^2 - gain, gain = s^2/k + (T-s)^2/(m-k), or T^2/m with
    the negative side empty; the scan maximizes the gain summed over outputs
    from one prefix sum, O(dl * m) after numpy's default (unstable) argsort.
    Equal projections are never split, so the order within a tie only
    changes the rounding of the sums. Among equal gains the first split
    wins, starting from the empty negative side. The threshold lies 1 below
    the smallest projection, or midway between the projections lo < hi
    flanking the split (lo/2 + hi/2, which cannot overflow), or at hi where
    the midpoint rounds onto lo, so lo's row stays negative. The residuals
    are divided by 2^e, e the binary exponent of their largest magnitude
    (exact at ordinary scales, and no square overflows or underflows), and
    P and T are the same prefix sums times 2^e.
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
    s -= total[:, None]  # s[:, k-1]: minus the positive side's sum
    pos = np.einsum("ij,ij->j", s, s)
    gain[1:] += np.divide(pos, k[::-1], out=pos)
    gain[1:][sp[:-1] == sp[1:]] = -math.inf

    best = int(np.argmax(gain))
    split = best, np.ldexp(-s[:, best - 1] if best else total, e), np.ldexp(total, e)
    if best == 0:
        return float(-(sp[0] - 1.0)), split
    mid = sp[best - 1] / 2.0 + sp[best] / 2.0
    return float(-(mid if mid > sp[best - 1] else sp[best])), split


def compute_cd(m: int, split: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form output coefficients of m rows split (k, P, T) as optimal_bias
    returns: with rho+ = P/(m-k) and rho- = (T-P)/k the mean residual on each
    side, c = (rho+ - rho-)/2 and d = (rho+ + rho-)/2 per output coordinate;
    k = 0, an empty negative side, gives c = 0 and d = T/m."""
    k, pos, total = split
    if k == 0:
        return np.zeros_like(total), total / m
    rho_pos, rho_neg = pos / (m - k), (total - pos) / k
    return (rho_pos - rho_neg) / 2.0, (rho_pos + rho_neg) / 2.0


def units_forward(c: np.ndarray, d: np.ndarray, side: np.ndarray) -> np.ndarray:
    """Output-major (dl, rows) c * side + d of one unit, given its +/-1 side per row."""
    out = np.outer(c, side)
    out += d[:, None]
    return out


def _side_blocks(sides: np.ndarray):
    """Column slices of int8 side rows and their float64 copies, BLOCK_VALUES at most."""
    step = max(1, BLOCK_VALUES // len(sides))
    for start in range(0, sides.shape[1], step):
        cols = slice(start, start + step)
        yield cols, sides[:, cols].astype(float)


def _largest_side_sum(sums: np.ndarray) -> float:
    """Largest absolute residual sum over all rows and either side of every unit,
    from [1; S] R^T: totals T, then signed sums P_j, so sides sum to (T +- P_j)/2."""
    total, signed = sums[0], sums[1:]
    return float(np.max(np.abs(np.vstack([total, (total + signed) / 2, (total - signed) / 2]))))


class LayerState:
    """Mutable bookkeeping while one hidden layer grows; nothing else changes its units.

    The regression design (the layer inputs) is fixed for the whole layer,
    so its standardization and Gram matrix are computed once up front.

    With dl output coordinates, the lasso fit of the design stacked dl times
    against the stacked residual columns has the same Gram matrix and the
    same correlations as the fit of the design against the row mean of the
    residuals, so the row mean is what gets fitted.

    ``residuals`` is output-major, (dl, m) in C order, so per-output passes
    read contiguous rows; optimal_bias takes its transpose, and compute_cd
    only the split that optimal_bias returns.
    ``train_mse`` is their mean square, set whenever they are replaced, and
    ``targets`` keeps the layer's targets in the same layout.

    Every per-unit store is allocated once, with ``np.empty``, for
    min(``max_units``, m) units, since [1; S] has at most m independent
    columns; a page is touched only when a unit writes it. Unit k lives at
    index k of ``W`` (one normal per row) and ``b``, and at row k + 1 of the
    head's stores. The head's columns [1; S], the constant and each
    unit's +/-1 side, are int8 rows over the training and validation rows in
    ``_sides`` and ``_val_sides`` (the next layer's inputs), and bits in
    ``_bits``, set where the side is -1 (``np.packbits`` order, padded to
    whole uint64 words). Their Gram matrix G is integer, exact in float64: a
    new side's column is m less twice the popcount of its bits xor each
    row's. ``_linv`` inverts G's lower Cholesky factor, ``_rhs`` is [1; S]
    targets^T, and the head's C-order rows [bias; C^T] are ``_head``, of
    which ``head_bias`` and ``C`` (dl x units) are views; ``val_mse`` applies
    it to the validation sides. ``W``, ``b``, ``C``, ``_linv`` and ``_rhs``
    are leading views of their stores.
    """

    def __init__(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        val_features: np.ndarray,
        val_targets: np.ndarray,
        current_lambda: float,
        max_units: int,
    ):
        self.features = np.asarray(features, dtype=float)
        self.residuals = np.array(np.atleast_2d(np.transpose(targets)), dtype=float, order="C")
        self.targets = self.residuals  # residuals are replaced, never written in place
        self.m = self.residuals.shape[1]
        self.train_mse = float(np.einsum("ij,ij->", self.residuals, self.residuals) / self.m)
        self.val_features = np.asarray(val_features, dtype=float)
        self.val_targets = np.asarray(val_targets, dtype=float).reshape(len(val_targets), -1)
        x, y, vx, vy = self.features, self.residuals.T, self.val_features, self.val_targets
        if (len(x) != len(y) or len(vx) != len(vy)
                or (vx.shape[1:], vy.shape[1:]) != (x.shape[1:], y.shape[1:])):
            raise DimensionError(f"validation features and labels have shapes {vx.shape} and "
                                 f"{vy.shape}, training ones {x.shape} and {y.shape}")
        self.current_lambda = current_lambda
        self.design = StandardizedDesign(self.features)
        units = min(max_units, self.m)
        dl, cols = len(self.residuals), units + 1  # the constant and a column per unit
        self._W, self._b = np.empty((units, x.shape[1])), np.empty(units)
        self._head = np.empty((cols, dl))
        self.W, self.b, self.C = self._W[:0], self._b[:0], self._head[1:1].T
        self._sides, self._val_sides = (np.empty((cols, n), np.int8) for n in (self.m, len(vx)))
        self._bits = np.empty((cols, -(-self.m // 64)), np.uint64)
        self._linv_store, self._rhs_store = np.empty((cols, cols)), np.empty((cols, dl))
        self._sides[0], self._val_sides[0], self._bits[0], self._head[0] = 1, 1, 0, 0.0
        self.head_bias = self._head[0]
        self._linv_store[0, 0], self._rhs_store[0] = 1.0 / math.sqrt(self.m), self.targets.sum(1)
        self._linv, self._rhs = self._linv_store[:1, :1], self._rhs_store[:1]

    def val_mse(self) -> float:
        n = len(self._linv)  # an intercept unit adds no side row; its weight is 0
        pred = np.empty_like(self.val_targets.T, order="C")
        for cols, s in _side_blocks(self._val_sides[:n]):
            pred[:, cols] = self._head[:n].T @ s
        return squared_error_sums(pred.T, self.val_targets)[0] / self.val_targets.shape[0]

    def fit_hyperplane(self, residuals: np.ndarray) -> np.ndarray:
        """Sparse fit to (dl, m) residuals for the unit's normal only; advances
        the penalty schedule. Raises SolverError when the lasso solve hits its
        step cap, ZeroWeightVector when the schedule ends at the zero normal."""
        sched = scheduled_lasso_fit(
            self.design, residuals.mean(axis=0), _LASSO, self.current_lambda
        )
        if not sched.converged:
            raise SolverError(
                f"lasso solve at lambda {sched.used_lambda!r} did not converge within "
                f"{_LASSO.max_steps} steps"
            )
        self.current_lambda = sched.used_lambda
        if not sched.has_nonzero:
            raise ZeroWeightVector("penalty schedule exhausted with all-zero weights")
        return sched.w

    def _add_column(self, side: np.ndarray, val_side: np.ndarray) -> None:
        """Append a unit's sides as a head column, or raise ZeroWeightVector,
        changing nothing, when the side lies in the span of the columns."""
        n = len(self._linv)
        bits = np.zeros_like(self._bits[0])
        packed = np.packbits(side < 0, bitorder="little")
        bits.view(np.uint8)[: len(packed)] = packed
        # Rows agree where their bits do: g_k = m - 2 * (rows where they differ), exactly.
        g = self.m - 2.0 * np.bitwise_count(self._bits[:n] ^ bits).sum(axis=1, dtype=np.int64)
        l = self._linv @ g
        pivot2 = self.m - l @ l  # the squared distance of the side from the span
        if not pivot2 > 1e-9 * self.m:  # zero up to rounding
            raise ZeroWeightVector("the unit's side lies in the span of the head's columns")
        self._sides[n], self._val_sides[n], self._bits[n] = side, val_side, bits
        self._linv_store[:n, n] = 0.0  # _linv is lower triangular
        self._linv_store[n, : n + 1] = np.append(l @ self._linv, -1.0) / -math.sqrt(pivot2)
        self._rhs_store[n] = self.targets @ side
        self._linv, self._rhs = self._linv_store[: n + 1, : n + 1], self._rhs_store[: n + 1]

    def add_neuron(self, intercept: bool = False) -> tuple[float, float]:
        """Fit a unit from one projection onto its normal and append it with its
        closed-form c and d; returns (realized drop, predicted drop). An intercept
        unit, for when no hyperplane can be oriented, has the zero normal: b = 1,
        every row is positive, d absorbs the residual means, and its side, the
        head's constant column, adds no column; build_layer adds it only as a
        lone unit. A fitted unit is not kept (ZeroWeightVector, state as before)
        when it would raise the training error, its gain lost in round-off, or
        when its side lies in the span of the head's columns (a duplicated or
        complemented side, an empty split): the residuals are orthogonal to it."""
        pre = self.train_mse
        w = np.zeros(self.features.shape[1]) if intercept else self.fit_hyperplane(self.residuals)
        proj = self.features @ w
        b, split = optimal_bias(proj, self.residuals.T)
        side = activate(proj + b, SIGN)
        c, d = compute_cd(self.m, split)
        left = units_forward(c, d, side)
        np.subtract(self.residuals, left, out=left)
        post = float(np.einsum("ij,ij->", left, left) / self.m)
        if not intercept:
            if post > pre:
                raise ZeroWeightVector("no hyperplane lowers the training error")
            self._add_column(side, activate(self.val_features @ w + b, SIGN))
        self.residuals, self.train_mse = left, post
        t = len(self.b)
        self._W[t], self._b[t], self._head[t + 1], self._head[0] = w, b, c, self.head_bias + d
        self.W, self.b, self.C = self._W[: t + 1], self._b[: t + 1], self._head[1 : t + 2].T
        return pre - post, float(np.sum(c * c - d * d))

    def replace_pass(self) -> tuple[float, float]:
        """Refit the head by least squares on [1; S], G beta = [1; S] targets^T,
        with the residuals, if that strictly lowers the training error; a lone
        unit's c and d already are that fit. Returns the gain, 0 if not kept,
        and the largest residual sum after it (see _largest_side_sum). The
        benchmark's tracer wraps this name."""
        n = len(self._linv)
        if len(self.b) > 1:
            beta = self._linv.T @ (self._linv @ self._rhs)  # (n, dl)
            left, sums = np.empty_like(self.residuals), np.zeros((n, len(self.residuals)))
            for cols, s in _side_blocks(self._sides[:n]):
                np.subtract(self.targets[:, cols], beta.T @ s, out=left[:, cols])
                sums += s @ left[:, cols].T
            post = float(np.einsum("ij,ij->", left, left) / self.m)
            if post < self.train_mse:
                gain, self.residuals, self.train_mse = self.train_mse - post, left, post
                self._head[:n] = beta
                return gain, _largest_side_sum(sums)
        sums = sum(s @ self.residuals[:, cols].T for cols, s in _side_blocks(self._sides[:n]))
        return 0.0, _largest_side_sum(sums)


@dataclass
class LayerResult:
    network: BannModel
    record: IterationRecord
    aborted: bool
    current_lambda: float
    sides: tuple[np.ndarray, np.ndarray]  # the kept units' int8 sides, training then validation

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
    current_lambda: float = LassoConfig.lambda0,
    records: list[IterationRecord] | None = None,
    kept: tuple[LayerParams, ...] = (),
) -> LayerResult:
    """Grow one hidden layer on the given inputs, tracking validation error
    for early stopping, then roll back to the width with the best validation
    error. The penalty schedule starts at ``current_lambda``: LassoConfig's
    lambda0 for the first layer, where the layer below left it for a deeper
    one. Validation only decides where growth stops and which width is
    kept, never which unit comes next. A record's nnz is counted from the
    layer's arrays: the frozen layers ``kept`` below this one, counted once,
    plus the grown units and their output head. Grown units never change, so
    only the head is copied out when validation improves, and the network is
    built once, after growth, from the units up to the kept width."""
    if features.shape[0] < 2:
        raise TrainingAbort("need at least 2 training rows to place a hyperplane")
    state = LayerState(features, targets, val_features, val_targets, current_lambda,
                       cfg.max_neurons_per_layer)
    frozen_nnz = count_nonzero(*(a for layer in kept for a in (layer.weights, layer.biases)))

    best: tuple[IterationRecord, LayerParams] | None = None
    bad_streak = 0
    aborted = False

    for t in range(1, cfg.max_neurons_per_layer + 1):
        try:
            drop, predicted = state.add_neuron()
        except ZeroWeightVector:
            if t > 1:
                break
            drop, predicted = state.add_neuron(intercept=True)
            aborted = True
        refit_gain, imbalance = state.replace_pass()
        record = IterationRecord(
            layer=layer_index, t=t, train_mse=state.train_mse, val_mse=state.val_mse(),
            drop=drop, predicted_drop=predicted, refit_gain=refit_gain,
            lambda_used=state.current_lambda, side_imbalance=imbalance,
            nnz=frozen_nnz + count_nonzero(state.W, state.b, state.C, state.head_bias),
        )
        if records is not None:
            records.append(record)

        if best is None or record.val_mse < best[0].val_mse:
            # LayerParams copies, so later head fits leave the kept head alone.
            best = record, LayerParams(state.C, state.head_bias)
            bad_streak = 0
        else:
            bad_streak += 1
            if bad_streak >= cfg.patience:
                break
        if aborted:
            break

    record, head = best
    grown = LayerParams(state.W[: record.t], state.b[: record.t])
    return LayerResult(BannModel(SIGN, kept + (grown,), head), record, aborted, state.current_lambda,
                       (state._sides[1 : record.t + 1], state._val_sides[1 : record.t + 1]))


def build_network(
    dataset: Dataset,
    cfg: TrainConfig,
    val_data: Dataset,
) -> tuple[BannModel, TrainReport]:
    """Build the full network: grow the first hidden layer on the raw
    features, then repeatedly grow another on the +/-1 sides of the last
    layer's kept units, with residuals reset to the original labels.
    Validation error sets each layer's width (see build_layer), and a deeper
    layer is kept only when its best validation error improves on the
    incumbent network's; the kept layer's linear head becomes the model
    output.
    """
    report = TrainReport()
    train_x, val_x = dataset.features, val_data.features

    current_lambda = LassoConfig.lambda0
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
        train_x, val_x = (np.array(s.T, dtype=float, order="C") for s in result.sides)

    model = incumbent.network
    train_mse, val_mse = (
        squared_error_sums(forward(model, data.features), data.labels)[0] / data.m
        for data in (dataset, val_data)
    )
    # The kept record's layer, t and nnz describe the returned model as they stand.
    report.records.append(replace(
        incumbent.record, train_mse=train_mse, val_mse=val_mse, drop=0.0, predicted_drop=0.0,
        refit_gain=0.0, lambda_used=current_lambda, side_imbalance=0.0,
    ))
    return model, report
