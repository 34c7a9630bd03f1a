"""The version names the models: a change to what training produces bumps
``bannet.__version__`` and the pinned results below together, so a manifest
reruns byte-for-byte under the version that wrote it or is refused."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from setuptools.config.pyprojecttoml import read_configuration

import bannet
from bannet.cli import main

from test_acceptance import _plant_measurements

# version -> {run: (architecture, nonzero parameters, test mse)}
PINNED = {
    "0.2.0": {
        "plant": ([4, 16, 12, 1], 157, 21.300702607902053),
        "three_targets": ([8, 36, 3], 215, 1.7580208361029135),
    },
    "0.3.0": {
        "plant": ([4, 16, 12, 1], 157, 21.300702607902053),
        "three_targets": ([8, 36, 3], 215, 1.7580208361029135),
    },
    "0.4.0": {
        "plant": ([4, 16, 12, 1], 157, 21.300702607902053),
        "three_targets": ([8, 36, 3], 215, 1.7580208361029135),
    },
    "0.5.0": {
        "plant": ([4, 16, 12, 1], 157, 21.300702607902053),
        "three_targets": ([8, 36, 3], 215, 1.7580208361029135),
    },
}


def three_target_rows(m):
    rng = np.random.default_rng(3)
    x, noise = rng.normal(size=(m, 8)), rng.normal(size=(m, 3))
    y = np.column_stack([np.sin(2.0 * x[:, 0]) + 0.5 * x[:, 1] * x[:, 2] + 0.3 * noise[:, 0],
                         1.5 * x[:, 3] - 2.0 * x[:, 5] + 0.3 * noise[:, 1], noise[:, 2]])
    return np.column_stack([x, y])


# setuptools 65 flags any [tool.setuptools] table as beta; later versions do not.
@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`:UserWarning")
def test_pyproject_version_is_the_package_version():
    # The version is written once, in bannet/__init__.py; setuptools reads it from
    # there, and refuses a static version that is also listed as dynamic.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = read_configuration(str(pyproject))["project"]
    assert project["dynamic"] == ["version"] and project["version"] == bannet.__version__


def test_models_are_pinned_to_the_version(tmp_path):
    plant = _plant_measurements(5, 600)  # a draw whose second layer is kept
    runs = {
        "plant": (np.column_stack([plant.features, plant.labels]), "1",
                  ["--max-layers", "2", "--max-neurons", "16"]),
        "three_targets": (three_target_rows(2000), "3",
                          ["--max-layers", "1", "--max-neurons", "40", "--patience", "40"]),
    }
    assert bannet.__version__ in PINNED, "pin this version's results"
    for name, (values, labels, options) in runs.items():
        data, out = tmp_path / f"{name}.csv", tmp_path / name
        header = ",".join(f"c{j}" for j in range(values.shape[1]))
        np.savetxt(data, values, fmt="%.17g", delimiter=",", header=header, comments="")
        assert main(["train", "--data", str(data), "--labels", labels, *options,
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        architecture, nonzero, test_mse = PINNED[bannet.__version__][name]
        assert summary["architecture"] == architecture, name
        assert summary["nonzero_parameters"] == nonzero, name
        assert math.isclose(summary["test_mse"], test_mse, rel_tol=1e-12), name
