"""tools/compare_runs.py matches report columns by header name and summarizes model quality."""

import importlib.util
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
