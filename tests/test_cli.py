import json
import os
import subprocess
import sys

import numpy as np
import pytest

import bannet
from bannet import forward, load_model, mse
from bannet.cli import main
from bannet.data import load_csv


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
    assert header == "layer,t,train_mse,val_mse,drop,lambda,nnz"


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


def test_manifest_rerun_reproduces_bytes(tmp_path):
    data = tmp_path / "d.csv"
    write_dataset(data, seed=5)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", "--data", str(data), "--labels", "1",
                 "--max-neurons", "25", "--out", str(out1)]) == 0
    assert main(["train", "--from-manifest", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == 0
    assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


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


def test_config_error_exit_code(tmp_path):
    data = tmp_path / "d.csv"
    write_dataset(data)
    code = main(["train", "--data", str(data), "--labels", "1",
                 "--test-frac", "0.999", "--out", str(tmp_path / "x")])
    assert code == 3


def run_cli_process(argv):
    """Run the command line in a fresh interpreter, so a traceback shows."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bannet.__file__)))
    return subprocess.run([sys.executable, "-m", "bannet.cli", *argv],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("source", ["flag", "manifest"])
def test_bad_lasso_setting_is_config_error(tmp_path, source):
    # --lambda0 0 and a manifest divisor of 1 both reach LassoConfig
    data = tmp_path / "d.csv"
    write_dataset(data)
    out = tmp_path / "run"
    if source == "flag":
        argv = ["train", "--data", str(data), "--labels", "1", "--lambda0", "0",
                "--out", str(out)]
    else:
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"dataset": str(data), "labels": "1", "divisor": 1, "out_dir": str(out)}
        ), encoding="utf-8")
        argv = ["train", "--from-manifest", str(manifest)]
    proc = run_cli_process(argv)
    assert proc.returncode == 3
    assert proc.stderr.startswith("config error:")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("field,value", [
    ("divisor", "1.5"),
    ("max_layers", 2.5),
    ("patience", True),
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


def test_usage_error_exits_three():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--bogus"])
    assert exc.value.code == 3
