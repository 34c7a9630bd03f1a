"""One cycle of each benchmark workload at small size, with the benchmark's own
output checks and tracing wrappers, so a check that fails in the benchmark
fails here too."""

import importlib.util
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def load_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = load_module("workloads")
tracing = load_module("tracing")

SMALL = {
    "eval_regions": lambda: workloads.EvalWorkload(rows=2000),
    "plant_deep": lambda: workloads.TrainWorkload(
        workloads.plant_measurements, workloads.PLANT_HEADER, rows=600, pool=1, labels=1,
        options=["--max-layers", "2", "--max-neurons", "16"],
    ),
    "rows_multi": lambda: workloads.TrainWorkload(
        workloads.multi_target_rows, workloads.ROWS_HEADER, rows=2000, pool=1, labels=3,
        options=["--max-layers", "1", "--max-neurons", "120", "--patience", "120"],
    ),
}


@pytest.mark.parametrize("name", SMALL)
def test_workload_cycle_passes_every_check(tmp_path, name):
    workload = SMALL[name]()
    workload.setup(0, str(tmp_path))
    patches = tracing.Patches()
    probe, tracer = tracing.Probe(), tracing.Tracer()
    try:
        probe.install(patches)
        tracer.install(patches)
        outcome = workload.cycle(0, probe, tracer)
    finally:
        unrestored = patches.restore()
    assert outcome.failures == []
    assert probe.nonconverged == 0
    assert unrestored == []
    metrics = tracing.layer_metrics(tracer.spans, 1)
    if name == "eval_regions":
        # evaluate and bounds each partition every depth once, through the
        # wrapped partition_regions, so the per-depth metrics time both.
        assert all(metrics[f"bounds.regions.D{k}"] > 0 for k in (1, 2, 3))
        depths = {"cli.evaluate": [], "cli.bounds": []}
        for rec in tracer.spans:
            if rec["name"] == "bounds.partition":
                command = rec
                while not command["name"].startswith("cli."):
                    command = tracer.spans[command["parent"]]
                depths[command["name"]].append(rec["depth"])
        assert depths == {"cli.evaluate": [1, 2, 3], "cli.bounds": [1, 2, 3]}
    else:
        assert metrics["cli.train_s"] > 0
        # The runner reports a metric nothing recorded as 0, so training that
        # calls around one of the wrapped names would zero it silently.
        traced = ["train.units_forward_s", "train.replace_s", "train.bias_scan_s",
                  "train.coeff_s", "solvers.lasso_s"]
        assert [n for n in traced if not metrics.get(f"{n}.L1", 0) > 0] == []
