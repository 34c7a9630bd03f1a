import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import bannet
from bannet import LassoConfig, SplitSpec, TrainConfig, forward, load_model, mse
from bannet.cli import RunManifest, build_parser, load_manifest, main
from bannet.data import load_csv
from bannet.model import SIGN, BannModel, LayerParams, save_model


def write_dataset(path, seed=0, m=120):
    # three-step staircase with data-free margins around the step boundaries,
    # so any threshold recovered inside a margin classifies every row alike
    rng = np.random.default_rng(seed)
    thirds = (m - 2 * (m // 3), m // 3, m // 3)
    x = np.sort(np.concatenate([
        rng.uniform(0.00, 0.28, thirds[0]),
        rng.uniform(0.32, 0.68, thirds[1]),
        rng.uniform(0.72, 1.00, thirds[2]),
    ]))
    y = np.where(x < 0.3, 0.0, np.where(x < 0.7, 5.0, 2.0)) + 0.02 * rng.normal(size=m)
    lines = ["x,y"] + [f"{float(x[i])!r},{float(y[i])!r}" for i in range(m)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_train_staircase_end_to_end(tmp_path, capsys):
    data = tmp_path / "stairs.csv"
    write_dataset(data)
    out = tmp_path / "run"
    code = main([
        "train", "--data", str(data), "--labels", "1", "--seed", "3",
        "--max-neurons", "25", "--max-layers", "2", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["depth"] >= 1
    assert summary["width"] <= 15
    assert summary["test_mse"] <= 10 * max(summary["train_mse"], 1e-4)
    assert (out / "model.json").exists() and (out / "report.csv").exists()
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header == ("layer,t,train_mse,val_mse,drop,lambda_used,nnz,"
                      "predicted_drop,refit_gain,side_imbalance")


def test_train_constant_labels(tmp_path):
    data = tmp_path / "const.csv"
    rows = ["a,b,y"] + [f"{i},{i * 2},7.5" for i in range(40)]
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "run"
    code = main(["train", "--data", str(data), "--labels", "1", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["depth"] == 1 and summary["width"] == 1
    # constant labels: test error equals the (zero) variance of the test labels
    assert summary["test_mse"] == pytest.approx(0.0, abs=1e-18)


def test_train_multivariate_labels_by_name(tmp_path):
    rng = np.random.default_rng(21)
    x = rng.normal(size=(80, 2))
    y1 = np.where(x[:, 0] > 0, 2.0, -1.0) + 0.05 * rng.normal(size=80)
    y2 = np.where(x[:, 1] > 0.2, 1.0, 4.0) + 0.05 * rng.normal(size=80)
    lines = ["a,b,y1,y2"] + [
        f"{float(x[i, 0])!r},{float(x[i, 1])!r},{float(y1[i])!r},{float(y2[i])!r}"
        for i in range(80)
    ]
    data = tmp_path / "multi.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "run"
    code = main(["train", "--data", str(data), "--labels", "y1,y2",
                 "--max-neurons", "12", "--max-layers", "1", "--out", str(out)])
    assert code == 0
    model = load_model(str(out / "model.json"))
    assert model.in_width == 2 and model.out_width == 2


def test_train_splits_projections_one_ulp_apart(tmp_path):
    # The feature's two values are adjacent doubles, so the unit's two
    # projections are too, and their midpoint rounds onto the lower one; the
    # bias must still put the lower rows on the negative side.
    data = tmp_path / "ulp.csv"
    rows = ["x,y"] + ["0.3,0" if i % 2 == 0 else "0.30000000000000004,10" for i in range(200)]
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "run"
    code = main(["train", "--data", str(data), "--labels", "1", "--max-layers", "1",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["train_mse"] == 0.0 and summary["test_mse"] == 0.0


def test_train_peak_memory_stays_near_one_copy_of_the_rows(tmp_path, capsys):
    # Shaped like the rows_multi benchmark: one layer on 8 features and 3
    # targets. The three splits hold one copy of the values, and the layer's
    # standardized design, residuals and bias scan bring the peak to about
    # 2.4x. Holding the unsplit rows through training, or a second copy of a
    # split, lands above 2.6x.
    rng = np.random.default_rng(8)
    x = rng.normal(size=(50_000, 8))
    noise = rng.normal(size=(50_000, 3))
    y = np.column_stack([np.sin(2.0 * x[:, 0]) + 0.5 * x[:, 1] * x[:, 2] + 0.3 * noise[:, 0],
                         1.5 * x[:, 3] - 2.0 * x[:, 5] + 0.3 * noise[:, 1], noise[:, 2]])
    values = np.hstack([x, y])
    data = tmp_path / "rows.csv"
    header = ",".join([f"x{j}" for j in range(8)] + ["y0", "y1", "y2"])
    np.savetxt(data, values, fmt="%.17g", delimiter=",", header=header, comments="")
    tracemalloc.start()
    try:
        code = main(["train", "--data", str(data), "--labels", "3", "--max-layers", "1",
                     "--max-neurons", "5", "--patience", "5", "--out", str(tmp_path / "run")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2.6 * values.nbytes


def test_manifest_rerun_reproduces_bytes(tmp_path):
    data = tmp_path / "d.csv"
    write_dataset(data, seed=5)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", "--data", str(data), "--labels", "1",
                 "--max-neurons", "25", "--out", str(out1)]) == 0
    assert main(["train", "--from-manifest", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == 0
    for name in ("model.json", "report.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_manifest_of_default_run_rebuilds_default_configs(tmp_path):
    data = tmp_path / "d.csv"
    write_dataset(data, m=40)
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--labels", "1", "--out", str(out)]) == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc == asdict(RunManifest(str(data), "1", out_dir=str(out)))
    manifest = load_manifest(str(out / "manifest.json"))
    assert manifest.train_config() == TrainConfig()
    assert manifest.train_config().lasso == LassoConfig()
    assert manifest.split_spec() == SplitSpec()


def test_manifest_rerun_rejects_other_settings(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_dataset(data, seed=5)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", "--data", str(data), "--labels", "1",
                 "--max-neurons", "10", "--out", str(out1)]) == 0
    capsys.readouterr()
    assert main(["train", "--from-manifest", str(out1 / "manifest.json"),
                 "--seed", "9", "--test-frac", "0.3", "--out", str(out2)]) == 3
    assert capsys.readouterr().err == (
        "config error: --from-manifest reruns the recorded settings and takes "
        "only --out; drop --seed, --test-frac\n"
    )
    assert not out2.exists()


def test_evaluate_consistent_with_report(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_dataset(data, seed=6)
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--labels", "1",
                 "--max-neurons", "20", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--model", str(out / "model.json"),
                 "--data", str(data)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("mse: ")
    reported = float(printed.splitlines()[0].split(": ")[1])
    model = load_model(str(out / "model.json"))
    assert reported == pytest.approx(mse(model, load_csv(str(data), 1)), rel=1e-12)
    assert "regions at depth 1:" in printed
    assert "nonzero parameters:" in printed


def test_evaluate_dimension_mismatch_exit_code(tmp_path):
    data = tmp_path / "d.csv"
    write_dataset(data, seed=7)
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--labels", "1",
                 "--max-neurons", "10", "--out", str(out)]) == 0
    wide = tmp_path / "wide.csv"
    rows = ["a,b,y"] + [f"{i},{i},{i}" for i in range(20)]
    wide.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(["evaluate", "--model", str(out / "model.json"),
                 "--data", str(wide)]) == 2


def test_data_error_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,y\n1,\n", encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--data", str(bad), "--labels", "1", "--out", str(out)]) == 2


@pytest.mark.parametrize("count", ["0", "-1"])
def test_label_count_below_one_is_data_error(tmp_path, capsys, count):
    data = tmp_path / "d.csv"
    data.write_text("a,b,y\n1,2,3\n", encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--labels", count, "--out", str(out)]) == 2
    assert f"label count {count} must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_config_error_exit_code(tmp_path):
    data = tmp_path / "d.csv"
    write_dataset(data)
    code = main(["train", "--data", str(data), "--labels", "1",
                 "--test-frac", "0.999", "--out", str(tmp_path / "x")])
    assert code == 3


def run_cli_process(argv, **env):
    """Run the command line in a fresh interpreter, so a traceback shows."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bannet.__file__)), **env)
    return subprocess.run([sys.executable, "-m", "bannet.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_training_bytes_do_not_depend_on_blas_threads(tmp_path):
    # Six targets on 12 000 training rows: each residual sum of squares runs
    # over far more than the 10 000 values from which OpenBLAS splits a dot
    # product across threads, and 60 units take the head's block products to
    # real widths. The second run, on sign-product targets, grows a second
    # layer of 60 units on the first layer's +/-1 outputs. The sums feed the
    # report and every accept/reject decision, so they are reduced in an
    # order no thread count changes.
    rng = np.random.default_rng(0)
    x, noise = rng.normal(size=(20_000, 8)), 0.3 * rng.normal(size=(20_000, 6))
    s = np.sign(x)
    smooth = np.column_stack([np.sin(2.0 * x[:, 0]) + 0.5 * x[:, 1] * x[:, 2],
                              1.5 * x[:, 3] - 2.0 * x[:, 5], np.zeros(len(x)),
                              np.cos(x[:, 4]) * x[:, 6], np.abs(x[:, 7]) - x[:, 1],
                              x[:, 0] * x[:, 3]])
    signs = np.column_stack([s[:, 0] * s[:, 1], s[:, 2] * s[:, 3], s[:, 4] * s[:, 5],
                             s[:, 6] * s[:, 7], s[:, 0] * s[:, 2] * s[:, 4], np.sin(2.0 * x[:, 0])])
    header = ",".join([f"x{j}" for j in range(8)] + [f"y{j}" for j in range(6)])
    for name, y, rows, layers in (("smooth", smooth, 20_000, "1"), ("signs", signs, 6000, "2")):
        data = tmp_path / f"{name}.csv"
        np.savetxt(data, np.column_stack([x, y + noise])[:rows], fmt="%.17g", delimiter=",",
                   comments="", header=header)
        outputs = []
        for threads in ("1", "2"):  # never more threads than a 2-core machine has
            out = tmp_path / f"{name}{threads}"
            done = run_cli_process(
                ["train", "--data", str(data), "--labels", "6", "--seed", "1", "--max-layers",
                 layers, "--max-neurons", "60", "--patience", "60", "--out", str(out)],
                OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            assert done.returncode == 0, done.stderr
            outputs.append({f: (out / f).read_bytes()
                            for f in ("model.json", "summary.json", "report.csv")})
        assert outputs[0] == outputs[1], name
        assert f"\n{layers},60," in outputs[0]["report.csv"].decode()


@pytest.mark.parametrize("source,field,value", [
    ("flag", "lambda0", "0"),
    ("flag", "lambda0", "nan"),
    ("flag", "lambda0", "inf"),
    ("manifest", "lambda0", math.inf),
    ("flag", "seed", "-1"),
    ("manifest", "seed", -1),
], ids=["flag", "flag-lambda0-nan", "flag-lambda0-inf", "manifest-lambda0-inf",
        "flag-seed-negative", "manifest-seed-negative"])
def test_bad_lasso_setting_is_config_error(tmp_path, source, field, value):
    # Flags and manifest fields, NaN and Infinity included (JSON carries
    # both), reach the configs before any training.
    data = tmp_path / "d.csv"
    write_dataset(data)
    out = tmp_path / "run"
    if source == "flag":
        argv = ["train", "--data", str(data), "--labels", "1",
                "--" + field.replace("_", "-"), value, "--out", str(out)]
    else:
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"dataset": str(data), "labels": "1", field: value, "out_dir": str(out)}
        ), encoding="utf-8")
        argv = ["train", "--from-manifest", str(manifest)]
    proc = run_cli_process(argv)
    assert proc.returncode == 3
    assert proc.stderr.startswith("config error:")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-out-file", "manifest-empty-out", "demo", "reparam"])
def test_unwritable_output_is_data_error(tmp_path, command):
    data = tmp_path / "d.csv"
    write_dataset(data, m=40)
    missing = tmp_path / "nodir"
    if command == "train-out-file":
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        argv = ["train", "--data", str(data), "--labels", "1", "--out", str(taken)]
    elif command == "manifest-empty-out":
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"dataset": str(data), "labels": "1", "out_dir": ""}),
                            encoding="utf-8")
        argv = ["train", "--from-manifest", str(manifest)]
    elif command == "demo":
        argv = ["demo", "square", "--r", "3", "--out", str(missing / "sq.json")]
    else:
        sq = tmp_path / "sq.json"
        assert main(["demo", "square", "--r", "3", "--out", str(sq)]) == 0
        argv = ["reparam", "--model", str(sq), "--t", "0", "--h1", "0", "--h2", "1",
                "--out", str(missing / "r.json")]
    proc = run_cli_process(argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("data error: cannot write")
    assert "Traceback" not in proc.stderr
    assert not missing.exists()


@pytest.mark.parametrize("field,value", [
    ("lambda0", "1e5"),
    ("max_layers", 2.5),
    ("patience", True),
    ("software_version", 1),
])
def test_manifest_field_of_wrong_type_is_data_error(tmp_path, field, value):
    data = tmp_path / "d.csv"
    write_dataset(data)
    out = tmp_path / "run"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(
        {"dataset": str(data), "labels": "1", "out_dir": str(out), field: value}
    ), encoding="utf-8")
    proc = run_cli_process(["train", "--from-manifest", str(manifest)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("data error:")
    assert field in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("legacy", [{}, {"divisor": 1.5, "max_halvings": 200, "cd_tol": 1e-08,
                                      "cd_max_iters": 10000, "min_layer_gain": 0.0,
                                      "replace_cap": 10}], ids=["current-fields", "legacy-fields"])
def test_manifest_of_another_version_is_config_error(tmp_path, legacy):
    # Every version before 0.2.0 called itself 0.1.0, whatever models it
    # trained, so no such manifest can be trusted to rerun byte-for-byte.
    data = tmp_path / "d.csv"
    write_dataset(data, m=40)
    out = tmp_path / "run"
    doc = dict(asdict(RunManifest(str(data), "1", out_dir=str(out))), **legacy,
               software_version="0.1.0")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_cli_process(["train", "--from-manifest", str(manifest)])
    assert proc.returncode == 3
    assert proc.stderr.startswith("config error:")
    assert "0.1.0" in proc.stderr and bannet.__version__ in proc.stderr
    assert not out.exists()


def test_manifest_with_unknown_field_is_data_error(tmp_path):
    data = tmp_path / "d.csv"
    write_dataset(data, m=40)
    out = tmp_path / "run"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(dict(asdict(RunManifest(str(data), "1", out_dir=str(out))),
                                        divisor=1.5)), encoding="utf-8")
    proc = run_cli_process(["train", "--from-manifest", str(manifest)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("data error:") and "'divisor'" in proc.stderr
    assert not out.exists()


def test_every_recorded_setting_has_a_train_flag():
    flags = build_parser().parse_args(["train"]).flags
    assert set(flags) == set(RunManifest.__dataclass_fields__) - {"software_version"}


@pytest.mark.parametrize("doc", [5, None, ["dataset", "labels"]], ids=["number", "null", "list"])
def test_manifest_that_is_not_an_object_is_data_error(tmp_path, doc):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_cli_process(["train", "--from-manifest", str(manifest)])
    assert proc.returncode == 2
    assert proc.stderr == f"data error: manifest {manifest} must be a JSON object\n"


def test_training_abort_exit_code(tmp_path):
    # 5 rows at fractions 0.7/0.5 split 1/1/3: one training row cannot anchor
    # a hyperplane, so the first layer is unconstructible
    data = tmp_path / "tiny.csv"
    rows = ["a,y"] + [f"{i},{i}" for i in range(5)]
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code = main(["train", "--data", str(data), "--labels", "1",
                 "--test-frac", "0.7", "--val-frac", "0.5",
                 "--max-layers", "1", "--out", str(tmp_path / "x")])
    assert code == 4


def test_evaluate_square_grid_file(tmp_path, capsys):
    # a saved squaring network evaluated on exact (x, x^2) pairs scores below
    # its certified pointwise bound squared
    r = 20
    sq = tmp_path / "sq.json"
    assert main(["demo", "square", "--r", str(r), "--out", str(sq)]) == 0
    xs = np.linspace(0, 1, 400)
    grid = tmp_path / "grid.csv"
    grid.write_text(
        "x,y\n" + "\n".join(f"{float(v)!r},{float(v * v)!r}" for v in xs) + "\n",
        encoding="utf-8",
    )
    capsys.readouterr()
    assert main(["evaluate", "--model", str(sq), "--data", str(grid)]) == 0
    reported = float(capsys.readouterr().out.splitlines()[0].split(": ")[1])
    assert reported <= (1.0 / (2 * r)) ** 2 + 1e-12


def test_bounds_subcommand_csv(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_dataset(data, seed=8)
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--labels", "1",
                 "--max-neurons", "10", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["bounds", "--model", str(out / "model.json"),
                 "--data", str(data)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,region_count,bound"
    k, count, bound = lines[1].split(",")
    assert int(k) == 1 and int(count) >= 1 and float(bound) >= 0.0


def test_evaluate_model_without_hidden_layers(tmp_path, capsys):
    # Every row is its own region, so the printed mse is that of forward.
    model = BannModel(SIGN, (), LayerParams(np.array([[2.0, -0.5]]), np.array([0.25])))
    save_model(model, str(tmp_path / "affine.json"))
    rng = np.random.default_rng(3)
    rows = np.column_stack([rng.normal(size=(50, 2)), rng.normal(size=50)])
    data = tmp_path / "d.csv"
    data.write_text("a,b,y\n" + "".join(f"{a!r},{b!r},{y!r}\n" for a, b, y in rows.tolist()),
                    encoding="utf-8")
    capsys.readouterr()
    assert main(["evaluate", "--model", str(tmp_path / "affine.json"), "--data", str(data)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == f"mse: {mse(model, load_csv(str(data), 1))!r}"
    assert not any(line.startswith("regions at depth") for line in printed)


def test_evaluate_mse_is_at_least_the_deepest_floor(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_dataset(data, seed=9, m=300)
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--labels", "1", "--max-layers", "2",
                 "--max-neurons", "12", "--out", str(out)]) == 0
    common = ["--model", str(out / "model.json"), "--data", str(data)]
    capsys.readouterr()
    assert main(["evaluate", *common]) == 0
    evaluated = float(capsys.readouterr().out.splitlines()[0].split(": ")[1])
    assert main(["bounds", *common]) == 0
    floor = float(capsys.readouterr().out.strip().splitlines()[-1].split(",")[2])
    assert evaluated >= floor * (1 - 1e-12)


def test_demo_square_certificate(tmp_path, capsys):
    out = tmp_path / "sq.json"
    assert main(["demo", "square", "--r", "25", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "claimed_bound=0.02" in printed
    model = load_model(str(out))
    assert model.hidden[0].width == 25


def test_demo_product_certificate(tmp_path, capsys):
    out = tmp_path / "prod.json"
    assert main(["demo", "product", "--m", "1", "--delta", "0.05",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "measured_grid_error=" in printed
    measured = float(printed.split("measured_grid_error=")[1].split()[0])
    assert measured <= 3 * 0.05 + 1e-12


@pytest.mark.parametrize("argv,name", [
    (["square", "--r", "0"], "r"),
    (["product", "--m", "1", "--delta", "2"], "delta"),
    (["product", "--m", "0", "--delta", "0.1"], "m"),
    (["product", "--m", "inf", "--delta", "0.1"], "m"),
    (["product", "--m", "nan", "--delta", "0.1"], "m"),
    (["product", "--m", "1e200", "--delta", "0.1"], "m"),
    (["product", "--m", "1e154", "--delta", "0.9"], "m"),
], ids=["square-r0", "product-delta2", "product-m0", "product-m-inf", "product-m-nan",
        "product-m-square-overflows", "product-output-sum-overflows"])
def test_demo_bad_parameter_is_config_error(tmp_path, argv, name):
    out = tmp_path / "demo.json"
    proc = run_cli_process(["demo", *argv, "--out", str(out)])
    assert proc.returncode == 3
    assert proc.stderr.startswith("config error:") and f" {name} must" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_demo_product_largest_m_keeps_certificate(tmp_path, capsys):
    # 4*m*m, the total magnitude of the output terms, is just below the
    # double range: no overflow warning, and the certificate still holds.
    out = tmp_path / "prod.json"
    assert main(["demo", "product", "--m", "6.7e153", "--delta", "0.9",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    claimed = float(printed.split("claimed_bound=")[1].split()[0])
    measured = float(printed.split("measured_grid_error=")[1].split()[0])
    assert math.isfinite(claimed) and measured <= claimed


def test_reparam_subcommand(tmp_path):
    sq = tmp_path / "sq.json"
    assert main(["demo", "square", "--r", "10", "--out", str(sq)]) == 0
    out = tmp_path / "thr.json"
    assert main(["reparam", "--model", str(sq), "--t", "0",
                 "--h1", "0", "--h2", "1", "--out", str(out)]) == 0
    a = load_model(str(sq))
    b = load_model(str(out))
    xs = np.linspace(0, 1, 101)[:, None]
    assert np.max(np.abs(forward(a, xs) - forward(b, xs))) <= 1e-9
    # degenerate target is a config error
    assert main(["reparam", "--model", str(sq), "--t", "0",
                 "--h1", "1", "--h2", "1", "--out", str(out)]) == 3


def test_reparam_non_finite_target_is_config_error(tmp_path):
    sq = tmp_path / "sq.json"
    assert main(["demo", "square", "--r", "3", "--out", str(sq)]) == 0
    out = tmp_path / "r.json"
    proc = run_cli_process(["reparam", "--model", str(sq), "--t", "nan",
                            "--h1", "0", "--h2", "1", "--out", str(out)])
    assert proc.returncode == 3
    assert proc.stderr.startswith("config error: activation values must be finite")
    assert not out.exists()


def test_reparam_overflowing_target_gap_is_config_error(tmp_path):
    sq = tmp_path / "sq.json"
    assert main(["demo", "square", "--r", "3", "--out", str(sq)]) == 0
    out = tmp_path / "r.json"
    proc = run_cli_process(["reparam", "--model", str(sq), "--t", "0",
                            "--h1=-1e308", "--h2", "1e308", "--out", str(out)])
    assert proc.returncode == 3
    assert proc.stderr.startswith("config error: activation gap h2 - h1 overflows")
    assert not out.exists()


@pytest.mark.parametrize("h2", ["1e300", "1e22"])
def test_reparam_underflowing_weight_scale_is_config_error(tmp_path, h2):
    # a = (h1 - h2)/(h1' - h2') = 2e-300/2e300 rounds to 0, which would zero
    # every deeper weight; 2e-300/2e22 is subnormal (about 1e-322), and the
    # few bits left of each scaled weight move the output by up to 0.0119.
    sq = tmp_path / "sq.json"
    tiny = tmp_path / "tiny.json"
    assert main(["demo", "square", "--r", "3", "--out", str(sq)]) == 0
    assert main(["reparam", "--model", str(sq), "--t", "0",
                 "--h1=-1e-300", "--h2", "1e-300", "--out", str(tiny)]) == 0
    out = tmp_path / "r.json"
    proc = run_cli_process(["reparam", "--model", str(tiny), "--t", "0",
                            f"--h1=-{h2}", "--h2", h2, "--out", str(out)])
    assert proc.returncode == 3
    assert proc.stderr.startswith("config error: weight scale")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("place", ["activation", "weight"])
def test_evaluate_model_with_huge_integer_is_data_error(tmp_path, place):
    sq = tmp_path / "sq.json"
    assert main(["demo", "square", "--r", "3", "--out", str(sq)]) == 0
    doc = json.loads(sq.read_text(encoding="utf-8"))
    if place == "activation":
        doc["activation"]["t"] = 10**400  # a 401-digit integer literal
    else:
        doc["output"]["weights"][0][0] = 10**400
    sq.write_text(json.dumps(doc), encoding="utf-8")
    data = tmp_path / "d.csv"
    write_dataset(data)
    proc = run_cli_process(["evaluate", "--model", str(sq), "--data", str(data),
                            "--labels", "1"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("data error: malformed model document")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("place", ["version", "bias"])
def test_evaluate_model_with_boolean_is_data_error(tmp_path, place):
    sq = tmp_path / "sq.json"
    assert main(["demo", "square", "--r", "3", "--out", str(sq)]) == 0
    doc = json.loads(sq.read_text(encoding="utf-8"))
    if place == "version":
        doc["version"] = True
    else:
        doc["output"]["biases"][0] = False
    sq.write_text(json.dumps(doc), encoding="utf-8")
    data = tmp_path / "d.csv"
    write_dataset(data)
    proc = run_cli_process(["evaluate", "--model", str(sq), "--data", str(data),
                            "--labels", "1"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("data error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("place,value", [("t", "0"), ("weight", "1.5"), ("bias", "2"),
                                         ("bias", None)])
def test_evaluate_model_with_string_or_null_number_is_data_error(tmp_path, capsys, place, value):
    sq = tmp_path / "sq.json"
    assert main(["demo", "square", "--r", "3", "--out", str(sq)]) == 0
    doc = json.loads(sq.read_text(encoding="utf-8"))
    if place == "t":
        doc["activation"]["t"] = value
    elif place == "weight":
        doc["hidden"][0]["weights"][0][0] = value
    else:
        doc["hidden"][0]["biases"][0] = value
    sq.write_text(json.dumps(doc), encoding="utf-8")
    data = tmp_path / "d.csv"
    write_dataset(data)
    capsys.readouterr()
    assert main(["evaluate", "--model", str(sq), "--data", str(data), "--labels", "1"]) == 2
    assert capsys.readouterr().err.startswith("data error: malformed model document")


def test_usage_error_exits_three():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--bogus"])
    assert exc.value.code == 3


def test_replace_cap_flag_is_usage_error(tmp_path, capsys):
    # The replace pass's cap is fixed at 10; no flag sets it.
    data = tmp_path / "d.csv"
    write_dataset(data, m=40)
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(data), "--labels", "1", "--replace-cap", "5",
              "--out", str(out)])
    assert exc.value.code == 3
    assert "--replace-cap" in capsys.readouterr().err
    assert not out.exists()
