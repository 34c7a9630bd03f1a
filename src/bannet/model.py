"""Binary-activated network data model and exact forward semantics.

A network is a chain of affine layers. Every hidden layer is followed by a
two-valued activation; the output layer is purely affine. The activation is
parametrized by a threshold ``t`` and the two output values ``h1 < h2``, so
the default sign activation is ``(t=0, h1=-1, h2=+1)``.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, ModelFormatError

MODEL_FORMAT_VERSION = 1

# propagate works on blocks of rows whose widest layer holds
# at most this many activations (512 KiB of float64, so a block's
# temporaries stay in cache); measured faster than 2^14 or 2^18 and up.
BLOCK_VALUES = 1 << 16


def _readonly(values, ndim: int, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float, order="C")
    if arr.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ActivationParams:
    """Two-valued activation: outputs h1 below the threshold t, h2 at or above it."""

    t: float = 0.0
    h1: float = -1.0
    h2: float = 1.0

    def __post_init__(self):
        if not np.isfinite([self.t, self.h1, self.h2]).all():
            raise ValueError(f"activation values must be finite, got {self}")
        if not (self.h1 < self.h2):
            raise ValueError(f"activation requires h1 < h2, got ({self.h1}, {self.h2})")
        if not np.isfinite(float(self.h2) - float(self.h1)):
            raise ValueError(f"activation gap h2 - h1 overflows, got ({self.h1}, {self.h2})")


SIGN = ActivationParams(0.0, -1.0, 1.0)


@dataclass(frozen=True)
class LayerParams:
    """One affine layer: ``weights`` has one row per unit, ``biases`` one entry per unit."""

    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _readonly(self.weights, 2, "weights"))
        object.__setattr__(self, "biases", _readonly(self.biases, 1, "biases"))
        if self.weights.shape[0] != self.biases.shape[0]:
            raise DimensionError(
                f"layer has {self.weights.shape[0]} weight rows but {self.biases.shape[0]} biases"
            )

    @property
    def width(self) -> int:
        return self.weights.shape[0]

    @property
    def in_width(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class BannModel:
    """A full network: hidden affine+activation layers, then an affine output layer."""

    activation: ActivationParams
    hidden: tuple[LayerParams, ...]
    output: LayerParams

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))
        layers = list(self.hidden) + [self.output]
        for k in range(1, len(layers)):
            if layers[k].in_width != layers[k - 1].width:
                raise DimensionError(
                    f"layer {k + 1} expects input width {layers[k].in_width}, "
                    f"but layer {k} has width {layers[k - 1].width}"
                )

    @property
    def depth(self) -> int:
        """Number of affine layers (hidden count + 1)."""
        return len(self.hidden) + 1

    @property
    def in_width(self) -> int:
        return (self.hidden[0] if self.hidden else self.output).in_width

    @property
    def out_width(self) -> int:
        return self.output.width

    def architecture(self) -> list[int]:
        widths = [self.in_width]
        widths += [layer.width for layer in self.hidden]
        widths.append(self.output.width)
        return widths


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (m x d0) with a label matrix (m x dl), both read-only.
    The constructor copies its inputs; ``take`` and ``load_csv`` do not copy twice."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self._freeze(_readonly(self.features, 2, "features"), _readonly(self.labels, 2, "labels"))

    @classmethod
    def _adopt(cls, features: np.ndarray, labels: np.ndarray) -> "Dataset":
        """A Dataset on finite 2-d float arrays that nothing else writes, such
        as the fresh results of fancy indexing: made read-only, not copied."""
        data = object.__new__(cls)
        data._freeze(features, labels)
        return data

    def _freeze(self, features: np.ndarray, labels: np.ndarray) -> None:
        for name, values in (("features", features), ("labels", labels)):
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        if self.features.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"features have {self.features.shape[0]} rows, labels {self.labels.shape[0]}"
            )
        if self.features.shape[0] < 1:
            raise DataError("dataset is empty")

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_labels(self) -> int:
        return self.labels.shape[1]

    def take(self, indices) -> "Dataset":
        """The rows an index array selects, copied once by the indexing."""
        return Dataset._adopt(self.features[indices], self.labels[indices])


def activate(z, params: ActivationParams) -> np.ndarray:
    """Apply the two-valued activation elementwise; the threshold itself maps to h2."""
    z = np.asarray(z, dtype=float)
    return np.where(z < params.t, params.h1, params.h2)


def propagate(model: BannModel, x, upto: int, with_output: bool, start: int = 0) -> np.ndarray:
    """Push a single input vector or a batch of row vectors through hidden
    layers start+1..upto and, if asked, the output layer; otherwise end with
    layer upto's bits ``z < t``, packed little-endian into whole 8-byte words.

    Rows go through all layers a block at a time, and a block holds at most
    BLOCK_VALUES activations of the widest layer, so no temporary grows with
    the batch. BLAS may round a hidden unit differently for another row
    count, which moves a pattern only at a tie. The output layer reduces each
    row on its own (``einsum`` without ``optimize``): no output depends on
    the blocks, and applied to patterns (start = upto) it gives the outputs
    of their rows bit for bit. A block's bits go into one bool buffer of
    whole 64-bit rows, allocated once per call and zero beyond the layer's
    width, and one flat ``np.packbits`` of it gives the block's keys.
    """
    if not with_output and not 0 <= start < upto <= len(model.hidden):
        raise DimensionError(f"hidden layers {start + 1}..{upto} out of range 1..{len(model.hidden)}")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    batch = x.reshape(1, -1) if single else x
    if batch.ndim != 2:
        raise DimensionError(f"input must be a vector or a batch of rows, got shape {x.shape}")
    layers = model.hidden[start:upto] + ((model.output,) if with_output else ())
    # BannModel checked that the widths of consecutive layers agree.
    if batch.shape[1] != layers[0].in_width:
        raise DimensionError(
            f"layer {start + 1}: input width {batch.shape[1]}, expected {layers[0].in_width}"
        )
    width = layers[-1].width
    step = max(1, BLOCK_VALUES // max(layer.width for layer in layers))
    if with_output:
        out = np.empty((len(batch), width))
    else:
        words = -(-width // 64)
        out = np.empty((len(batch), 8 * words), np.uint8)
        below = np.zeros((min(step, len(batch)), 64 * words), bool)  # columns >= width stay 0
    for row in range(0, batch.shape[0], step):
        block = batch[row : row + step]
        for k, layer in enumerate(model.hidden[start:upto], start=start + 1):
            block = block @ layer.weights.T
            block += layer.biases
            block = activate(block, model.activation) if with_output or k < upto else block
        if with_output:
            out[row : row + step] = np.einsum("ij,kj->ik", block, model.output.weights)
            out[row : row + step] += model.output.biases
        else:
            n = len(block)
            np.less(block, model.activation.t, out=below[:n, :width])
            out[row : row + n] = np.packbits(below[:n], bitorder="little").reshape(n, -1)
    return out[0] if single else out


def forward(model: BannModel, x) -> np.ndarray:
    """Network output for a single input vector or a batch of row vectors."""
    return propagate(model, x, len(model.hidden), with_output=True)


def unpack_pattern(model: BannModel, bits: np.ndarray, k: int) -> np.ndarray:
    """Patterns over {h1, h2} of hidden layer k from the bits ``propagate`` packs."""
    below = np.unpackbits(bits, axis=-1, count=model.hidden[k - 1].width, bitorder="little")
    return np.where(below.view(bool), model.activation.h1, model.activation.h2)


def mse(model: BannModel, data: Dataset) -> float:
    """Mean over examples of the squared Euclidean prediction error."""
    pred = forward(model, data.features)
    if pred.shape[1] != data.n_labels:
        raise DimensionError(
            f"model outputs {pred.shape[1]} values, labels have {data.n_labels}"
        )
    total, _ = squared_error_sums(pred, data.labels)
    return total / data.m


def squared_error_sums(pred: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Sum of squared prediction errors over all entries, and per output."""
    diff = pred - labels
    sq = diff * diff
    return float(np.sum(sq)), np.sum(sq, axis=0)


def reparametrize_activation(model: BannModel, target: ActivationParams) -> BannModel:
    """Rewrite weights and biases so the network computes the same function
    under a different activation parametrization.

    With a = (h1-h2)/(h1*-h2*) and k = a*h1* - h1, the old activation values
    satisfy h = a*h* - k, so scaling deeper weights by a and absorbing the
    constant k through each unit's incoming row sum preserves every
    pre-activation sign and the final output. The first hidden layer only
    shifts its biases by the threshold change; the output layer takes the
    row-sum correction without the threshold shift. A weight scale a that
    is not a normal double is a ValueError.
    """
    src = model.activation
    if src == target:
        return model
    if not model.hidden:
        # No activations anywhere; the function is already independent of them.
        return BannModel(target, (), model.output)
    a = (src.h1 - src.h2) / (target.h1 - target.h2)
    if not np.finfo(float).tiny <= abs(a) < np.inf:
        raise ValueError(f"weight scale (h1 - h2)/(h1' - h2') = {a!r} is not a normal double")
    k_const = a * target.h1 - src.h1
    delta = target.t - src.t

    new_hidden = [LayerParams(model.hidden[0].weights, model.hidden[0].biases + delta)]
    for layer in model.hidden[1:]:
        rowsum = layer.weights.sum(axis=1)
        new_hidden.append(LayerParams(a * layer.weights, layer.biases - k_const * rowsum + delta))
    out_rowsum = model.output.weights.sum(axis=1)
    new_output = LayerParams(a * model.output.weights, model.output.biases - k_const * out_rowsum)
    return BannModel(target, tuple(new_hidden), new_output)


def count_nonzero(*arrays: np.ndarray) -> int:
    """Number of nonzero entries of the arrays. The sparse solver produces
    exact zeros, so no threshold is needed."""
    return sum(int(np.count_nonzero(a)) for a in arrays)


def count_nonzero_parameters(model: BannModel) -> int:
    """Number of nonzero weights and biases."""
    return count_nonzero(*(a for layer in model.hidden + (model.output,)
                           for a in (layer.weights, layer.biases)))


def model_to_dict(model: BannModel) -> dict:
    return {
        "version": MODEL_FORMAT_VERSION,
        "activation": {
            "t": model.activation.t,
            "h1": model.activation.h1,
            "h2": model.activation.h2,
        },
        "hidden": [
            {"weights": layer.weights.tolist(), "biases": layer.biases.tolist()}
            for layer in model.hidden
        ],
        "output": {
            "weights": model.output.weights.tolist(),
            "biases": model.output.biases.tolist(),
        },
    }


def _numbers(value):
    """``value`` itself, refused unless its every entry is a JSON number:
    float() and numpy take a string, true or false as a number, null as NaN."""
    if any(type(v) not in (int, float) for v in np.array(value, dtype=object).flat):
        raise TypeError("a value that is not a JSON number where a number belongs")
    return value


def model_from_dict(doc: dict) -> BannModel:
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    version = doc.get("version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version: {version!r}")
    try:
        act = doc["activation"]
        activation = ActivationParams(*(float(_numbers(act[k])) for k in ("t", "h1", "h2")))
        hidden = tuple(
            LayerParams(_numbers(h["weights"]), _numbers(h["biases"])) for h in doc["hidden"]
        )
        output = LayerParams(_numbers(doc["output"]["weights"]), _numbers(doc["output"]["biases"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc
    return BannModel(activation, hidden, output)


def write_atomic(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place.
    A failure of the file system is a DataError, as a failed read is."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.chmod(tmp, 0o644)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def save_model(model: BannModel, path: str) -> None:
    write_atomic(path, json.dumps(model_to_dict(model), indent=2) + "\n")


def load_model(path: str) -> BannModel:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    return model_from_dict(doc)
