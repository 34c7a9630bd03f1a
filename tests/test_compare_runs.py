"""tools/compare_runs.py matches report columns by header name and summarizes model quality."""

import importlib.util
import json
import math
import os
from collections import Counter

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "compare_runs.py")
spec = importlib.util.spec_from_file_location("compare_runs", TOOL)
compare_runs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_runs)


def test_report_columns_are_compared_by_name():
    parent = b"layer,t,lambda,nnz\n1,1,0.5,3\n1,2,0.25,4\n"
    change = b"layer,lambda_used,t,nnz,replacements\n1,0.5,1,3,0\n1,0.25,2,5,1\n1,0.1,3,5,1\n"
    columns, notes = {}, Counter()
    compare_runs.report_differences(parent, change, columns, notes)
    # Shared columns compare over the rows both reports have, whatever their position.
    assert columns == {"layer": [0, 2, 0.0], "t": [0, 2, 0.0], "nnz": [1, 2, 0.2]}
    assert notes == Counter({
        "row count differs": 1,
        "column lambda only in parent": 1,
        "column lambda_used only in change": 1,
        "column replacements only in change": 1,
    })
    compare_runs.report_differences(parent, parent, columns, notes)
    assert columns["nnz"] == [1, 4, 0.2] and notes["row count differs"] == 1


def test_quality_lines_give_medians_and_how_many_the_change_moves():
    pairs = [
        ({"test_mse": 2.0, "nonzero_parameters": 10}, {"test_mse": 1.5, "nonzero_parameters": 10}),
        ({"test_mse": 3.0, "nonzero_parameters": 20}, {"test_mse": 3.5, "nonzero_parameters": 8}),
        ({"test_mse": 4.0, "nonzero_parameters": 30}, {"test_mse": 1.0, "nonzero_parameters": 6}),
    ]
    assert compare_runs.quality_lines(pairs) == [
        "  test_mse: median parent 3, change 1.5; change lower in 2, higher in 1 of 3",
        "  nonzero_parameters: median parent 20, change 8; change lower in 2, higher in 0 of 3",
    ]
    assert compare_runs.quality_lines([]) == []


def test_usage_line_gives_peak_memory_and_cpu_seconds_per_training():
    line = compare_runs.usage_line("change", (44.0, 43.5, 45.25), (1.5, 0.75, 1.0))
    assert line == ("  change peak RSS: median 44.00 MB, largest 45.25 MB; "
                    "CPU: median 1.00 s per training")


def model_json(hidden, output):
    """model.json bytes of (weights, biases) pairs, in the fields compare_runs reads."""
    layer = [{"weights": w, "biases": b} for w, b in hidden + [output]]
    return json.dumps({"hidden": layer[:-1], "output": layer[-1]}).encode()


def test_model_difference_reads_apart_last_bits_from_a_changed_architecture():
    parent = model_json([([[1.0, 2.0], [0.0, -4.0]], [0.5, 0.0])], ([[3.0, 1.0]], [2.0]))
    last_bit = math.nextafter(2.0, 3.0)
    close = model_json([([[1.0, 2.0], [0.0, -4.0]], [0.5, 0.0])], ([[3.0, 1.0]], [last_bit]))
    changed = model_json([([[1.0, 2.0], [0.0, -4.5]], [0.5, 1e-300])], ([[3.0, 1.0]], [2.0]))
    wider = model_json([([[1.0, 2.0], [0.0, -4.0], [1.0, 1.0]], [0.5, 0.0, 1.0])],
                       ([[3.0, 1.0, 1.0]], [2.0]))
    deeper = model_json([([[1.0, 2.0], [0.0, -4.0]], [0.5, 0.0]), ([[1.0, 1.0]], [0.0])],
                        ([[3.0]], [2.0]))
    assert compare_runs.model_difference(parent, parent) == 0.0
    assert compare_runs.model_difference(parent, close) == (last_bit - 2.0) / last_bit
    # A weight of 4 against 4.5 differs by 1/9; a bias of 0 against anything by 1.
    assert compare_runs.model_difference(parent, changed) == 1.0
    assert compare_runs.model_difference(parent, wider) is None
    assert compare_runs.model_difference(parent, deeper) is None
    assert compare_runs.model_line([None, 1e-15, 3e-12]) == (
        "  model.json differs in 3: same architecture in 2, "
        "largest relative weight or bias difference 3e-12")
    assert compare_runs.model_line([None]) == "  model.json differs in 1: same architecture in 0"
