"""Counts and spans recorded from outside the bannet package.

Every wrapper replaces a module-level name that the package calls through,
such as ``bannet.train.scheduled_lasso_fit`` or ``LayerState.replace_pass``,
so no file of the package changes. ``Patches.restore`` puts every original
back and reports any name it could not restore.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from contextlib import contextmanager

import bannet.approx
import bannet.bounds
import bannet.cli
import bannet.model
import bannet.train


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Patches:
    """Module attributes replaced by wrappers, restored last-in first-out."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, make) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> list[str]:
        """Restore every original; returns the names still not restored."""
        saved, self._saved = self._saved, []
        first = {}
        for owner, name, original in saved:
            first.setdefault((owner, name), original)
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
        return [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for (owner, name), original in first.items()
            if getattr(owner, name) is not original
        ]


class Probe:
    """Counts scheduled lasso solves and keeps the last trained network.

    Installed on traced and untraced runs alike: the solve counts feed the
    failure fraction, and the captured report feeds the output checks.
    """

    def __init__(self):
        self.solves = 0
        self.nonconverged = 0
        self.network = None  # (training dataset, model, report) of the last train

    def install(self, patches: Patches) -> None:
        def lasso(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                fit = original(*args, **kwargs)
                self.solves += 1
                self.nonconverged += not fit.converged
                return fit

            return wrapper

        def network(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                model, report = original(*args, **kwargs)
                self.network = (_arg(args, kwargs, 0, "dataset"), model, report)
                return model, report

            return wrapper

        patches.replace(bannet.train, "scheduled_lasso_fit", lasso)
        patches.replace(bannet.cli, "build_network", network)


class Tracer:
    """In-memory spans: name, start, end, parent index, hidden layer, extras."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.layer = 0

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "layer": self.layer,
            "start": time.perf_counter(),
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _timed(self, name: str, on_result=None):
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with self.span(name) as rec:
                    out = original(*args, **kwargs)
                    if on_result is not None:
                        rec.update(on_result(args, kwargs, out))
                return out

            return wrapper

        return make

    def _layer_scope(self, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            outer = self.layer
            self.layer = _arg(args, kwargs, 5, "layer_index", 1)
            try:
                with self.span("train.build_layer") as rec:
                    result = original(*args, **kwargs)
                    rec["width"] = result.width
                return result
            finally:
                self.layer = outer

        return wrapper

    def install(self, patches: Patches) -> None:
        def lasso_result(args, kwargs, fit):
            cfg = _arg(args, kwargs, 2, "cfg")
            lam_in = _arg(args, kwargs, 3, "current_lambda")
            divisions = math.log(lam_in / fit.used_lambda) / math.log(cfg.divisor)
            return {"nonconverged": not fit.converged, "divisions": round(divisions)}

        cli, train = bannet.cli, bannet.train
        timed = self._timed
        patches.replace(cli, "load_csv", timed("data.load_csv", lambda a, k, ds: {"rows": ds.m}))
        patches.replace(cli, "split_dataset", timed("data.split"))
        patches.replace(cli, "build_network", timed("train.build_network"))
        patches.replace(cli, "save_model", timed("model.save"))
        patches.replace(cli, "load_model", timed("model.load"))
        patches.replace(cli, "bound_chain", timed("bounds.chain"))
        patches.replace(cli, "square_grid_error", timed("approx.grid_error"))
        patches.replace(cli, "product_grid_error", timed("approx.grid_error"))
        for module in (cli, bannet.model, train, bannet.approx):
            patches.replace(module, "forward", timed("model.forward"))
        patches.replace(train, "build_layer", self._layer_scope)
        patches.replace(train, "StandardizedDesign", timed("solvers.gram"))
        patches.replace(train, "scheduled_lasso_fit", timed("solvers.lasso", lasso_result))
        patches.replace(train, "optimal_bias", timed("train.bias_scan"))
        patches.replace(train, "compute_cd", timed("train.coeff"))
        patches.replace(train, "units_forward", timed("train.units_forward"))
        patches.replace(
            train.LayerState,
            "replace_pass",
            timed("train.replace", lambda a, k, out: {"accepted": out[0]}),
        )
        patches.replace(
            bannet.bounds,
            "partition_regions",
            timed(
                "bounds.partition",
                lambda a, k, part: {"depth": part.layer_depth, "regions": part.n_regions},
            ),
        )
        patches.replace(bannet.bounds, "regression_lower_bound", timed("bounds.floor"))


def layer_metrics(spans: list[dict], cycles: int) -> dict[str, float]:
    """Per-cycle means of span times and counts, keyed by per-layer metric name.

    Times are inclusive unless named ``self``; a self time is the span's
    duration minus the durations of its direct child spans. Region counts are
    per partition and the replace yield is accepted replacements over
    replacement fits attempted.
    """
    child_time = defaultdict(float)
    replace_attempts = defaultdict(int)
    for rec in spans:
        if rec["parent"] is not None:
            child_time[rec["parent"]] += rec["end"] - rec["start"]
            parent = spans[rec["parent"]]
            if rec["name"] == "solvers.lasso" and parent["name"] == "train.replace":
                replace_attempts[parent["layer"]] += 1

    replace_accepted = defaultdict(int)
    partition_calls = defaultdict(int)
    regions = defaultdict(int)
    rows = 0
    total = defaultdict(float)
    for i, rec in enumerate(spans):
        name, layer = rec["name"], rec["layer"]
        dur = rec["end"] - rec["start"]
        self_time = dur - child_time[i]
        if name == "solvers.lasso":
            total[f"solvers.lasso_s.L{layer}"] += dur
            total[f"solvers.lasso_calls.L{layer}"] += 1
            total[f"solvers.penalty_divisions.L{layer}"] += rec["divisions"]
            total[f"solvers.nonconverged.L{layer}"] += rec["nonconverged"]
        elif name == "solvers.gram":
            total["solvers.gram_s"] += dur
        elif name == "train.build_layer":
            total[f"train.build_layer_s.L{layer}"] += dur
            total[f"train.self_s.L{layer}"] += self_time
            total[f"train.width.L{layer}"] += rec["width"]
        elif name == "train.bias_scan":
            total[f"train.bias_scan_s.L{layer}"] += dur
        elif name == "train.coeff":
            total[f"train.coeff_s.L{layer}"] += dur
        elif name == "train.units_forward":
            total[f"train.units_forward_s.L{layer}"] += dur
        elif name == "train.replace":
            total[f"train.replace_s.L{layer}"] += dur
            replace_accepted[layer] += rec["accepted"]
        elif name == "train.build_network":
            total["train.network_self_s"] += self_time
        elif name == "data.load_csv":
            total["data.load_csv_s"] += dur
            rows += rec["rows"]
        elif name == "data.split":
            total["data.split_s"] += dur
        elif name == "model.forward":
            total["model.forward_s"] += dur
            total["model.forward_calls"] += 1
        elif name == "model.save":
            total["model.save_s"] += dur
        elif name == "model.load":
            total["model.load_s"] += dur
        elif name == "bounds.partition":
            total[f"bounds.partition_s.D{rec['depth']}"] += dur
            partition_calls[rec["depth"]] += 1
            regions[rec["depth"]] += rec["regions"]
        elif name == "bounds.floor":
            total["bounds.floor_s"] += dur
        elif name == "approx.grid_error":
            total["approx.grid_error_s"] += dur
        elif name.startswith("cli."):
            total[f"{name}_s"] += dur
            total["cli.self_s"] += self_time

    out = {name: value / cycles for name, value in total.items()}
    for layer, attempts in replace_attempts.items():
        out[f"train.replace_yield.L{layer}"] = replace_accepted[layer] / attempts
    for depth, calls in partition_calls.items():
        out[f"bounds.regions.D{depth}"] = regions[depth] / calls
    if total["data.load_csv_s"]:
        out["data.load_csv_rows_per_s"] = rows / total["data.load_csv_s"]
    return out
