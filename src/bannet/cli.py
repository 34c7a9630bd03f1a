"""Command line: train a network from a CSV, evaluate or bound a saved model,
emit the constructive demo networks, and reparametrize activations.

Exit codes: 0 success, 1 other failure (such as a lasso solve that reaches
its step cap), 2 data error, 3 configuration error (a manifest written by
another bannet version included), 4 training abort (fewer than 2 training
rows). When no unit can be placed, training keeps the one-unit intercept
model and exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, replace

from . import __version__
from .approx import (
    build_product_approximator,
    build_square_approximator,
    product_grid_error,
    square_grid_error,
)
from .bounds import bound_chain, partition_chain
from .data import SplitSpec, load_csv, split_dataset
from .errors import BannetError, ConfigError, DataError, TrainingAbort
from .model import (
    ActivationParams,
    count_nonzero_parameters,
    forward,  # unused here; perfbench/tracing.py times calls through this name
    load_model,
    mse,
    propagate,
    reparametrize_activation,
    save_model,
    squared_error_sums,
    write_atomic,
)
from .solvers import LassoConfig
from .train import TrainConfig, build_network


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are configuration errors; argparse's default exit code
    # (2) is reserved for data errors here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


@dataclass
class RunManifest:
    """Everything needed to reproduce a training run byte-for-byte."""

    dataset: str
    labels: str
    test_fraction: float = SplitSpec.test_fraction
    val_fraction: float = SplitSpec.val_fraction
    seed: int = SplitSpec.seed
    max_neurons: int = TrainConfig.max_neurons_per_layer
    max_layers: int = TrainConfig.max_hidden_layers
    patience: int = TrainConfig.patience
    lambda0: float = LassoConfig.lambda0
    out_dir: str = "."
    software_version: str = __version__

    def split_spec(self) -> SplitSpec:
        return SplitSpec(self.test_fraction, self.val_fraction, self.seed)

    def train_config(self) -> TrainConfig:
        return TrainConfig(max_neurons_per_layer=self.max_neurons,
                           max_hidden_layers=self.max_layers, patience=self.patience,
                           lasso=LassoConfig(self.lambda0))


def load_manifest(path: str) -> RunManifest:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"manifest {path} must be a JSON object")
    version = doc.get("software_version", __version__)
    if not isinstance(version, str):
        raise DataError(f"manifest {path} has fields of the wrong type: ['software_version']")
    if version != __version__:
        raise ConfigError(f"manifest {path} was written by bannet {version}; bannet "
                          f"{__version__} cannot rerun it byte-for-byte")
    fields = RunManifest.__dataclass_fields__
    unknown = set(doc) - set(fields)
    if unknown:
        raise DataError(f"manifest {path} has unknown fields: {sorted(unknown)}")
    if "dataset" not in doc or "labels" not in doc:
        raise DataError(f"manifest {path} must name a dataset and a label spec")
    # bool is a subclass of int, and an integer is a valid float.
    accepts = {"str": str, "int": int, "float": (int, float)}
    wrong = sorted(k for k, v in doc.items() if isinstance(v, bool)
                   or not isinstance(v, accepts[fields[k].type]))
    if wrong:
        raise DataError(f"manifest {path} has fields of the wrong type: {wrong}")
    return RunManifest(**doc)


def run_train(manifest: RunManifest) -> int:
    spec, cfg = manifest.split_spec(), manifest.train_config()
    # No name holds the unsplit rows, so they are freed once split.
    train, val, test = split_dataset(load_csv(manifest.dataset, manifest.labels), spec)
    out = manifest.out_dir
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write {out}: {exc}") from exc
    model, report = build_network(train, cfg, val_data=val)

    model_path = os.path.join(out, "model.json")
    report_path = os.path.join(out, "report.csv")
    save_model(model, model_path)
    report.write_csv(report_path)

    test_mse = mse(model, test)
    summary = {
        "architecture": report.architecture,
        "depth": len(model.hidden),
        "width": max(layer.width for layer in model.hidden),
        "train_mse": report.final_train_mse,
        "val_mse": report.final_val_mse,
        "test_mse": test_mse,
        "nonzero_parameters": count_nonzero_parameters(model),
        "rows": {"train": train.m, "val": val.m, "test": test.m},
    }
    write_atomic(os.path.join(out, "summary.json"), json.dumps(summary, indent=2) + "\n")
    write_atomic(os.path.join(out, "manifest.json"), json.dumps(asdict(manifest), indent=2) + "\n")

    arch = "-".join(str(w) for w in report.architecture)
    print(f"architecture: {arch} (depth {summary['depth']}, width {summary['width']})")
    print(f"train mse: {report.final_train_mse:.6g}")
    print(f"val mse:   {report.final_val_mse:.6g}")
    print(f"test mse:  {test_mse:.6g}")
    print(f"nonzero parameters: {summary['nonzero_parameters']}")
    print(f"wrote {model_path}, {report_path}")
    return 0


def _load_model_and_data(model_path: str, data_path: str, labels: str | None):
    """Load a saved model and a CSV whose feature width matches it; labels
    default to the model's trailing output count."""
    model = load_model(model_path)
    data = load_csv(data_path, labels if labels is not None else model.out_width)
    if data.n_features != model.in_width:
        raise DataError(
            f"model expects {model.in_width} features, data has {data.n_features}"
        )
    return model, data


def run_evaluate(model_path: str, data_path: str, labels: str | None) -> int:
    model, data = _load_model_and_data(model_path, data_path, labels)
    if data.n_labels != model.out_width:
        raise DataError(
            f"model outputs {model.out_width} values, data has {data.n_labels} labels"
        )
    chain, depth = partition_chain(model, data), len(model.hidden)
    pred = propagate(model, chain[-1].reps, depth, True, start=depth)  # one output per region
    total, per_output = squared_error_sums(pred[chain[-1].region], data.labels)
    print(f"mse: {total / data.m!r}")
    print("per-output mse: " + ", ".join(repr(float(v)) for v in per_output / data.m))
    for part in chain[1:]:
        print(f"regions at depth {part.layer_depth}: {part.n_regions}")
    print(f"nonzero parameters: {count_nonzero_parameters(model)}")
    return 0


def run_bounds(model_path: str, data_path: str, labels: str | None) -> int:
    model, data = _load_model_and_data(model_path, data_path, labels)
    print("k,region_count,bound")
    for k, count, bound in bound_chain(model, data):
        print(f"{k},{count},{bound!r}")
    return 0


def run_demo(args) -> int:
    try:
        model = (build_square_approximator(args.r) if args.shape == "square"
                 else build_product_approximator(args.m, args.delta))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.shape == "square":
        claimed = 1.0 / (2 * args.r)
        measured = square_grid_error(model)
        out = args.out or f"square_r{args.r}.json"
        label = f"square r={args.r}"
    else:
        claimed = 3.0 * args.m * args.m * args.delta
        measured = product_grid_error(model, args.m)
        out = args.out or f"product_m{args.m:g}_d{args.delta:g}.json"
        label = f"product m={args.m:g} delta={args.delta:g}"
    save_model(model, out)
    print(f"{label} claimed_bound={claimed!r} measured_grid_error={measured!r} model={out}")
    return 0


def run_reparam(args) -> int:
    model = load_model(args.model)
    try:
        result = reparametrize_activation(model, ActivationParams(args.t, args.h1, args.h2))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = args.out or (os.path.splitext(args.model)[0] + "_reparam.json")
    save_model(result, out)
    print(f"wrote {out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="bannet",
        description="Greedy construction of compact binary-activated regression networks.",
    )
    parser.add_argument("--version", action="version", version=f"bannet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each setting's dest is its RunManifest field. A flag left out is absent
    # from the parsed settings, so the field keeps its RunManifest default.
    train = sub.add_parser("train", help="train a network from a CSV dataset",
                           argument_default=argparse.SUPPRESS)
    settings = [
        train.add_argument("--data", dest="dataset", help="CSV file with a header row"),
        train.add_argument("--labels", help="label columns: trailing count or comma-separated names"),
        train.add_argument("--test-frac", dest="test_fraction", type=float),
        train.add_argument("--val-frac", dest="val_fraction", type=float),
        train.add_argument("--seed", type=int),
        train.add_argument("--max-layers", type=int),
        train.add_argument("--max-neurons", type=int),
        train.add_argument("--patience", type=int),
        train.add_argument("--lambda0", type=float),
        train.add_argument("--out", dest="out_dir", help="output directory"),
    ]
    train.add_argument("--from-manifest", help="rerun a recorded manifest")
    train.set_defaults(flags={a.dest: a.option_strings[0] for a in settings})

    ev = sub.add_parser("evaluate", help="evaluate a saved model on a CSV dataset")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--labels")

    bounds = sub.add_parser("bounds", help="per-depth region counts and loss floors")
    bounds.add_argument("--model", required=True)
    bounds.add_argument("--data", required=True)
    bounds.add_argument("--labels")

    demo = sub.add_parser("demo", help="emit a constructive approximator network")
    demo_sub = demo.add_subparsers(dest="shape", required=True)
    square = demo_sub.add_parser("square", help="staircase match of x^2 on [0,1]")
    square.add_argument("--r", type=int, required=True, help="hidden width / level count")
    square.add_argument("--out")
    product = demo_sub.add_parser("product", help="match of x*y on [-m,m]^2")
    product.add_argument("--m", type=float, required=True, help="input magnitude bound")
    product.add_argument("--delta", type=float, required=True, help="per-block error budget")
    product.add_argument("--out")

    reparam = sub.add_parser("reparam", help="rewrite a model for a new activation")
    reparam.add_argument("--model", required=True)
    reparam.add_argument("--t", type=float, required=True)
    reparam.add_argument("--h1", type=float, required=True)
    reparam.add_argument("--h2", type=float, required=True)
    reparam.add_argument("--out")
    return parser


def _train_manifest(args) -> RunManifest:
    # An empty value counts as a flag left out.
    settings = {k: v for k, v in vars(args).items() if k != "command" and v != ""}
    flags = settings.pop("flags")
    source = settings.pop("from_manifest", None)
    if source is not None:
        others = [flags[k] for k in settings if k != "out_dir"]
        if others:
            raise ConfigError(f"--from-manifest reruns the recorded settings and takes "
                              f"only --out; drop {', '.join(others)}")
        return replace(load_manifest(source), **settings)
    if not {"dataset", "labels", "out_dir"} <= settings.keys():
        raise ConfigError("train requires --data, --labels and --out (or --from-manifest)")
    return RunManifest(**settings)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            return run_train(_train_manifest(args))
        if args.command == "evaluate":
            return run_evaluate(args.model, args.data, args.labels)
        if args.command == "bounds":
            return run_bounds(args.model, args.data, args.labels)
        if args.command == "demo":
            return run_demo(args)
        if args.command == "reparam":
            return run_reparam(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except TrainingAbort as exc:
        print(f"training abort: {exc}", file=sys.stderr)
        return 4
    except BannetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
