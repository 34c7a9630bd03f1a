"""Workloads of the bannet benchmark.

Each workload makes its inputs from the benchmark seed, then runs cycles of
``bannet`` commands in process through ``bannet.cli.main`` and checks every
command's output. A command that raises, exits nonzero or fails a check is a
failed operation.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

import bannet.cli
from bannet.model import SIGN, BannModel, LayerParams, load_model, save_model
from bannet.model import forward as program_forward

EPS = np.finfo(float).eps


@dataclass
class Outcome:
    """What one cycle of commands did."""

    seconds: float = 0.0
    commands: int = 0
    failures: list[str] = field(default_factory=list)
    test_mse: float = math.nan
    nnz: int = 0
    architecture: list[int] | None = None
    artifacts: dict[str, bytes] = field(default_factory=dict)
    failed_commands: set[str] = field(default_factory=set)

    def fail(self, command: str, message: str) -> None:
        self.failed_commands.add(command)
        self.failures.append(f"{command}: {message}")


def run_command(argv: list[str], tracer, outcome: Outcome) -> str | None:
    """Run one CLI command in process; returns its stdout, or None if it failed."""
    buffer = io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(buffer):
            code = bannet.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a raising command is a failed operation, not a crash
        code = f"{type(exc).__name__}: {exc}"
    outcome.seconds += time.perf_counter() - start
    outcome.commands += 1
    if code != 0:
        outcome.fail(" ".join(argv[:2]), f"exit {code}")
        return None
    return buffer.getvalue()


def write_csv(path: str, header: list[str], columns: np.ndarray) -> None:
    # 17 significant digits round-trip every double, so the program parses
    # exactly the values the checks were computed from.
    np.savetxt(path, columns, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def plant_measurements(rng: np.random.Generator, m: int) -> np.ndarray:
    """Synthetic stand-in for the combined-cycle power plant data: ambient
    temperature, exhaust vacuum, pressure, humidity and the power output. With
    ``default_rng(seed)`` and 9568 rows it is the acceptance suite's dataset."""
    t = rng.uniform(2.0, 37.0, m)
    v = np.clip(25.0 + 1.3 * (t - 2.0) + rng.normal(0, 6.0, m), 25.0, 82.0)
    p = rng.normal(1013.0, 6.0, m)
    h = np.clip(rng.normal(73.0, 14.0, m), 25.0, 100.2)
    pe = (
        497.0
        - 1.75 * t
        - 0.115 * v
        + 0.065 * (p - 1000.0)
        - 0.055 * h
        + 1.5 * np.sin(t / 5.0)
        + rng.normal(0, 3.5, m)
    )
    return np.column_stack([t, v, p, h, pe])


def multi_target_rows(rng: np.random.Generator, m: int) -> np.ndarray:
    """Eight Gaussian features and three targets: a nonlinear one, a sparse
    linear one and pure noise."""
    x = rng.normal(size=(m, 8))
    noise = rng.normal(size=(m, 3))
    nonlinear = np.sin(2.0 * x[:, 0]) + 0.5 * x[:, 1] * x[:, 2] + 0.3 * noise[:, 0]
    sparse_linear = 1.5 * x[:, 3] - 2.0 * x[:, 5] + 0.3 * noise[:, 1]
    return np.column_stack([x, nonlinear, sparse_linear, noise[:, 2]])


PLANT_HEADER = ["T", "V", "AP", "RH", "PE"]
ROWS_HEADER = [f"x{j}" for j in range(8)] + ["y_nonlinear", "y_linear", "y_noise"]


class TrainWorkload:
    """Closed loop of ``bannet train`` runs over a seeded pool of datasets.

    One pass trains every dataset of the pool once. How much work the greedy
    construction does depends strongly on the particular draw, so a pool of
    many datasets keeps the per-run medians steady from seed to seed.
    """

    def __init__(self, generate, header, rows, pool, labels, options):
        self.generate = generate
        self.header = header
        self.rows = rows
        self.pool = pool
        self.labels = labels
        self.options = options
        self.paths: list[str] = []

    @property
    def pass_size(self) -> int:
        return self.pool

    def setup(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        self.seed = seed
        self.paths = []
        for i in range(self.pool):
            # With a one-dataset pool the generator is seeded exactly as the
            # acceptance suite seeds its plant data.
            rng = np.random.default_rng(seed if self.pool == 1 else [seed, i])
            path = os.path.join(workdir, f"data{i}.csv")
            write_csv(path, self.header, self.generate(rng, self.rows))
            self.paths.append(path)

    def cycle(self, k: int, probe, tracer) -> Outcome:
        outcome = Outcome()
        out_dir = os.path.join(self.workdir, f"train{k % self.pool}")
        argv = ["train", "--data", self.paths[k % self.pool], "--labels", str(self.labels),
                "--seed", str(self.seed), *self.options, "--out", out_dir]
        probe.network = None
        stdout = run_command(argv, tracer, outcome)
        if stdout is not None:
            try:
                check_training(out_dir, stdout, probe.network, outcome)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                outcome.fail("train", f"outputs unreadable: {exc}")
        return outcome


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def check_training(out_dir: str, stdout: str, network, outcome: Outcome) -> None:
    fail = functools.partial(outcome.fail, "train")
    train_data, model, report = network
    m = train_data.m
    records = report.records[:-1]  # the last record restates the kept model
    for layer in sorted({r.layer for r in records}):
        rows = [r for r in records if r.layer == layer]
        for prev, cur in zip(rows, rows[1:]):
            if not cur.train_mse <= prev.train_mse:
                fail(f"layer {layer} unit {cur.t}: training error rose")
            # The realized drop is a difference of two means of m squares;
            # each carries at most m*eps relative rounding.
            tol = 1e-9 * abs(cur.drop) + 2 * m * EPS * prev.train_mse
            if abs(cur.drop - cur.predicted_drop) > tol:
                fail(f"layer {layer} unit {cur.t}: drop {cur.drop!r} != predicted "
                     f"{cur.predicted_drop!r}")
        for r in rows:
            if r.side_imbalance > 1e-9 * m:
                fail(f"layer {layer} unit {r.t}: side imbalance {r.side_imbalance!r}")

    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as handle:
        summary = json.load(handle)
    outcome.test_mse = summary["test_mse"]
    if not math.isfinite(outcome.test_mse):
        fail(f"test mse {outcome.test_mse!r} is not finite")
    outcome.architecture = model.architecture()
    if summary["architecture"] != outcome.architecture:
        fail("summary architecture differs from the trained model")

    outcome.artifacts = {
        name: _read(os.path.join(out_dir, name)) for name in ("model.json", "report.csv")
    }
    saved = load_model(os.path.join(out_dir, "model.json"))
    x = train_data.features
    if not np.array_equal(program_forward(saved, x), program_forward(model, x)):
        fail("model.json does not round-trip to the same predictions")
    outcome.nnz = nonzero_in_model_file(outcome.artifacts["model.json"])
    printed = re.search(r"^nonzero parameters: (\d+)$", stdout, re.M)
    if printed is None or int(printed.group(1)) != outcome.nnz:
        fail("printed nonzero parameter count differs from model.json")


def nonzero_in_model_file(text: bytes) -> int:
    doc = json.loads(text)
    layers = doc["hidden"] + [doc["output"]]
    return sum(
        int(np.count_nonzero(layer["weights"])) + int(np.count_nonzero(layer["biases"]))
        for layer in layers
    )


def activate_sign(inputs: np.ndarray, layer) -> np.ndarray:
    return np.where(inputs @ layer.weights.T + layer.biases < 0.0, -1.0, 1.0)


def _grid(values: np.ndarray, steps: int) -> np.ndarray:
    """Round onto the 1/steps grid, keeping every entry nonzero."""
    rounded = np.round(values * steps)
    return np.where(rounded == 0.0, np.copysign(1.0, values), rounded) / steps


def _spread_biases(inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Biases that put the units' cuts at evenly spread quantiles of their
    projections (a golden-ratio sequence over 10%..90%), just off a data row
    so no row sits exactly on a hyperplane."""
    proj = inputs @ weights.T
    quantiles = 0.1 + 0.8 * ((np.arange(weights.shape[0]) * 0.6180339887498949) % 1.0)
    ranks = (quantiles * (len(proj) - 1)).astype(int)
    cuts = np.sort(proj, axis=0)[ranks, np.arange(weights.shape[0])]
    return -cuts + 1.0 / 1024.0


class EvalWorkload:
    """Read path: evaluate, bound and demo commands on a fixed seeded model.

    Features sit on a 1/64 grid and every weight and bias on a 1/64 or 1/1024
    grid, so every pre-activation is computed exactly in floating point and
    the region oracle below agrees with the program bit for bit, whatever
    order either sums in. Layer-1 units cut pairs of features at evenly
    spread angles and quantiles, so the region counts, which set the cost of
    the bounds, vary little from seed to seed.
    """

    ARCHITECTURE = (4, 46, 22, 24, 1)
    FAN_IN = 4  # nonzero weights per unit beyond the first hidden layer

    pass_size = 1

    def __init__(self, rows: int):
        self.rows = rows

    def setup(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        x = np.round(plant_measurements(rng, self.rows)[:, :4] * 64.0) / 64.0
        pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        width = self.ARCHITECTURE[1]
        weights = np.zeros((width, 4))
        for j in range(width):
            a, b = pairs[j % len(pairs)]
            angle = np.pi * (j // len(pairs) + rng.uniform()) / math.ceil(width / len(pairs))
            weights[j, [a, b]] = _grid(np.array([np.cos(angle), np.sin(angle)])
                                       / x[:, [a, b]].std(axis=0), 64)
        layers = [LayerParams(weights, _spread_biases(x, weights))]
        inputs = activate_sign(x, layers[0])
        for width in self.ARCHITECTURE[2:-1]:
            weights = np.zeros((width, inputs.shape[1]))
            for row in weights:
                cols = rng.choice(inputs.shape[1], size=self.FAN_IN, replace=False)
                row[cols] = _grid(rng.normal(0.0, 2.0, size=self.FAN_IN), 64)
            layers.append(LayerParams(weights, _spread_biases(inputs, weights)))
            inputs = activate_sign(inputs, layers[-1])
        head = LayerParams(
            np.round(16.0 * rng.normal(0.0, 2.0, size=(1, inputs.shape[1]))) / 16.0,
            np.array([480.0]),
        )
        self.model = BannModel(SIGN, tuple(layers), head)
        labels = program_forward(self.model, x)[:, 0] + rng.normal(0.0, 3.5, self.rows)
        self.x, self.y = x, labels
        self.data_path = os.path.join(workdir, "eval.csv")
        self.model_path = os.path.join(workdir, "model.json")
        write_csv(self.data_path, PLANT_HEADER[:4] + ["y"], np.column_stack([x, labels]))
        save_model(self.model, self.model_path)
        self.oracle = None

    def _oracle(self):
        """Independent expected outputs: MSE, region counts and floors."""
        hidden = self.x
        counts, floors = [], []
        for layer in self.model.hidden:
            hidden = activate_sign(hidden, layer)
            _, region, sizes = np.unique(hidden, axis=0, return_inverse=True, return_counts=True)
            means = np.bincount(region, weights=self.y) / sizes
            dev = self.y - means[region]
            counts.append(len(sizes))
            floors.append(float(dev @ dev) / self.rows)
        out = self.model.output
        diff = hidden @ out.weights[0] + out.biases[0] - self.y
        nnz = sum(
            int(np.count_nonzero(layer.weights)) + int(np.count_nonzero(layer.biases))
            for layer in (*self.model.hidden, out)
        )
        return float(diff @ diff) / self.rows, counts, floors, nnz

    def cycle(self, k: int, probe, tracer) -> Outcome:
        outcome = Outcome()
        common = ["--model", self.model_path, "--data", self.data_path]
        evaluated = run_command(["evaluate", *common], tracer, outcome)
        bounded = run_command(["bounds", *common], tracer, outcome)
        square = os.path.join(self.workdir, "square.json")
        product = os.path.join(self.workdir, "product.json")
        r, m, delta = 50, 1.0, 0.01
        demos = [
            (["demo", "square", "--r", str(r), "--out", square], 1.0 / (2 * r), square),
            (["demo", "product", "--m", str(m), "--delta", str(delta), "--out", product],
             3.0 * m * m * delta, product),
        ]
        demo_out = [run_command(argv, tracer, outcome) for argv, _, _ in demos]

        if self.oracle is None:
            self.oracle = self._oracle()
        want_mse, want_counts, want_floors, want_nnz = self.oracle
        if evaluated is not None:
            fail = functools.partial(outcome.fail, "evaluate")
            found = re.search(r"^mse: (\S+)$", evaluated, re.M)
            outcome.test_mse = float(found.group(1)) if found else math.nan
            if not abs(outcome.test_mse - want_mse) <= 1e-12 * want_mse:
                fail(f"mse {outcome.test_mse!r}, expected {want_mse!r}")
            counts = [int(n) for n in re.findall(r"^regions at depth \d+: (\d+)$", evaluated, re.M)]
            if counts != want_counts:
                fail(f"region counts {counts}, expected {want_counts}")
            found = re.search(r"^nonzero parameters: (\d+)$", evaluated, re.M)
            outcome.nnz = int(found.group(1)) if found else 0
            if outcome.nnz != want_nnz:
                fail(f"nonzero parameters {outcome.nnz}, expected {want_nnz}")
            outcome.artifacts["evaluate"] = evaluated.encode()
        if bounded is not None:
            fail = functools.partial(outcome.fail, "bounds")
            chain = [line.split(",") for line in bounded.strip().splitlines()[1:]]
            counts = [int(c) for _, c, _ in chain]
            floors = [float(b) for _, _, b in chain]
            if counts != want_counts:
                fail(f"region counts {counts}, expected {want_counts}")
            for got, want in zip(floors, want_floors):
                if not abs(got - want) <= 1e-9 * want:
                    fail(f"floor {got!r}, expected {want!r}")
            slack = 1e-9 * max(1.0, want_mse)
            if any(b < a - slack for a, b in zip(floors, floors[1:])):
                fail(f"floors decrease with depth: {floors}")
            if floors and floors[-1] > want_mse + slack:
                fail(f"deepest floor {floors[-1]!r} exceeds the model mse {want_mse!r}")
            outcome.artifacts["bounds"] = bounded.encode()
        for (argv, certificate, path), text in zip(demos, demo_out):
            if text is None:
                continue
            found = re.search(r"claimed_bound=(\S+) measured_grid_error=(\S+)", text)
            command = f"demo {argv[1]}"
            if found is None or float(found.group(1)) != certificate:
                outcome.fail(command, f"certificate line missing or wrong: {text.strip()}")
            elif not float(found.group(2)) <= certificate + 1e-12:
                outcome.fail(command, f"grid error {found.group(2)} above {certificate!r}")
            outcome.artifacts[argv[1]] = _read(path)
        return outcome


WORKLOADS = {
    # Solver-bound: layer 2 fits its lasso on +/-1 patterns of nearly parallel
    # layer-1 hyperplanes, where coordinate descent needs many sweeps.
    "plant_deep": lambda: TrainWorkload(
        plant_measurements, PLANT_HEADER, rows=600, pool=80, labels=1,
        options=["--max-layers", "2", "--max-neurons", "16"],
    ),
    # Bypasses the solver: continuous features make each lasso converge in a
    # few sweeps, so the bias scan and replace pass dominate; three targets
    # take the tiled-design path. Patience as long as the unit cap makes
    # every training grow exactly 120 units before it rolls back.
    "rows_multi": lambda: TrainWorkload(
        multi_target_rows, ROWS_HEADER, rows=20_000, pool=10, labels=3,
        options=["--max-layers", "1", "--max-neurons", "120", "--patience", "120"],
    ),
    # No training: CSV parsing, forward passes, region partitions and the
    # approximator grids.
    "eval_regions": lambda: EvalWorkload(rows=200_000),
    # The full 9568-row plant run at CLI defaults. One training takes 70 s
    # to minutes depending on the seed, too long for the timed loop, so it
    # is not listed in BENCHMARK.json; run it by hand to reproduce the
    # headline numbers.
    "plant_headline": lambda: TrainWorkload(
        plant_measurements, PLANT_HEADER, rows=9568, pool=1, labels=1, options=[],
    ),
}
