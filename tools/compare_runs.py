"""Byte comparison of the trainings of two source checkouts.

    python3 tools/compare_runs.py PARENT CHANGE --seed 0

Makes the inputs of the ``plant_deep``, ``rows_multi`` and ``plant_headline``
benchmark workloads from the seed with PARENT's ``perfbench/workloads.py``,
then runs ``bannet train`` with each workload's options once per checkout,
each run in its own subprocess with ``PYTHONPATH=<checkout>/src`` and BLAS on
one thread. For each workload it prints how many trainings wrote identical
``model.json``, ``summary.json`` and ``report.csv``. Of the trainings whose
``model.json`` differs, it prints how many keep the same architecture and the
largest relative difference of any weight or bias among those, so a change
in the last bits reads apart from a changed model. It compares the reports
column by column, matched by header name, and prints for each column both
sides write that differs in how many rows and by what largest relative
difference, in how many reports a column is written by one side only, and in
how many the row counts differ. For the model quality it prints, from each
``summary.json``, the median ``test_mse`` and ``nonzero_parameters`` of each
side and in how many trainings the change lowers or raises each, so a change
that alters models by design shows what it does to them. It also prints, per
checkout, the median and the largest peak resident memory of the trainings
and their median CPU seconds (user plus system), each read from its own
process, so the figures hold the program without the benchmark harness's
setup; the CPU seconds include the interpreter's start-up on both sides.

It also makes the ``eval_regions`` inputs (a fixed model and its CSV rows)
with PARENT's workload, runs ``bannet evaluate`` and ``bannet bounds`` on
them once per checkout, each in its own subprocess, and prints whether each
command's stdout is identical.

Work files live in a directory under the system temp directory, removed at
the end; neither checkout is written to. The exit status is 1 when a training
or command fails in either checkout, else 0, whatever the differences.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter

import numpy as np

WORKLOADS = ("plant_deep", "rows_multi", "plant_headline")
FILES = ("model.json", "summary.json", "report.csv")
QUALITY = ("test_mse", "nonzero_parameters")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parent_workloads(parent: str) -> dict:
    """WORKLOADS of PARENT's perfbench/workloads.py, imported against PARENT's bannet."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    sys.path.insert(0, os.path.join(parent, "src"))
    path = os.path.join(parent, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("parent_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


def cli_env(checkout: str) -> dict:
    """Environment that runs CHECKOUT's sources with BLAS on one thread."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in BLAS_VARS})
    return env


def train(checkout: str, argv: list[str], out: str,
          workdir: str) -> tuple[str | None, float, float]:
    """Run ``bannet train`` from CHECKOUT's sources; returns an error message
    or None, the peak resident memory of its process in MB and its CPU seconds."""
    child = subprocess.Popen(
        [sys.executable, "-m", "bannet.cli", *argv, "--out", out], env=cli_env(checkout),
        cwd=workdir, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    with child.stderr:
        stderr = child.stderr.read()
    # wait4 reaps the child and returns its own resource usage (ru_maxrss in KiB on Linux).
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    peak_mb, cpu_s = usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime
    if child.returncode != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        return f"exit {child.returncode}: {last[0]}", peak_mb, cpu_s
    return None, peak_mb, cpu_s


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def report_differences(a: bytes, b: bytes, columns: dict[str, list], notes: Counter) -> None:
    """Compare two reports column by column, matched by header name. Adds to
    COLUMNS, per column both sides write, [rows that differ, rows compared,
    largest relative difference] over the rows both have, in order. Counts in
    NOTES a report whose row counts differ and each column one side lacks."""
    (head_a, *rows_a), (head_b, *rows_b) = (
        list(csv.reader(io.StringIO(text.decode()))) for text in (a, b)
    )
    if len(rows_a) != len(rows_b):
        notes["row count differs"] += 1
    for side, own, other in (("parent", head_a, head_b), ("change", head_b, head_a)):
        notes.update(f"column {name} only in {side}" for name in own if name not in other)
    for i, name in enumerate(head_a):
        if name not in head_b:
            continue
        j = head_b.index(name)
        entry = columns.setdefault(name, [0, 0, 0.0])
        for row_a, row_b in zip(rows_a, rows_b):
            entry[1] += 1
            if row_a[i] == row_b[j]:
                continue
            x, y = float(row_a[i]), float(row_b[j])
            entry[0] += 1
            rel = abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
            entry[2] = max(entry[2], math.inf if math.isnan(rel) else rel)


def model_difference(a: bytes, b: bytes) -> float | None:
    """Largest relative difference of any weight or bias of two ``model.json``
    files of the same architecture, or None when any layer's shape differs."""
    arrays = []
    for text in (a, b):
        doc = json.loads(text)
        arrays.append([np.array(layer[key], dtype=float)
                       for layer in doc["hidden"] + [doc["output"]] for key in ("weights", "biases")])
    if [x.shape for x in arrays[0]] != [y.shape for y in arrays[1]]:
        return None
    largest = 0.0
    for x, y in zip(*arrays):
        scale = np.maximum(np.abs(x), np.abs(y))
        rel = np.divide(np.abs(x - y), scale, out=np.zeros_like(scale), where=x != y)
        largest = max(largest, float(rel.max(initial=0.0)))
    return largest


def model_line(differences: list[float | None]) -> str:
    """How many of the trainings with a differing model.json keep the same
    architecture, and the largest weight or bias difference among those."""
    same = [rel for rel in differences if rel is not None]
    line = f"  model.json differs in {len(differences)}: same architecture in {len(same)}"
    return line + (f", largest relative weight or bias difference {max(same):.3g}" if same else "")


def quality_lines(pairs: list[tuple[dict, dict]]) -> list[str]:
    """For each QUALITY key of the (parent, change) summaries of the trainings
    both sides finished: each side's median, and in how many the change's value
    is lower or higher."""
    if not pairs:
        return []
    lines = []
    for key in QUALITY:
        parent, change = ([summary[key] for summary in side] for side in zip(*pairs))
        lower = sum(c < p for p, c in zip(parent, change))
        higher = sum(c > p for p, c in zip(parent, change))
        lines.append(f"  {key}: median parent {statistics.median(parent):.6g}, change "
                     f"{statistics.median(change):.6g}; change lower in {lower}, higher in "
                     f"{higher} of {len(parent)}")
    return lines


def usage_line(side: str, peaks_mb: list[float], cpu_s: list[float]) -> str:
    """SIDE's median and largest peak RSS and median CPU seconds per training."""
    return (f"  {side} peak RSS: median {statistics.median(peaks_mb):.2f} MB, largest "
            f"{max(peaks_mb):.2f} MB; CPU: median {statistics.median(cpu_s):.2f} s per training")


def compare_workload(name, workload, seed, parent, change, workdir) -> int:
    """Train every dataset of WORKLOAD in both checkouts and print the comparison."""
    data_dir = os.path.join(workdir, name)
    os.makedirs(data_dir)
    workload.setup(seed, data_dir)
    identical = dict.fromkeys(FILES, 0)
    columns: dict[str, list] = {}
    notes: Counter = Counter()
    summaries: list[tuple[dict, dict]] = []
    model_differences: list[float | None] = []
    failures = 0
    usage: tuple[list, list] = ([], [])  # per side, [peak MB, CPU s] of each training
    for path in workload.paths:
        argv = ["train", "--data", path, "--labels", str(workload.labels),
                "--seed", str(workload.seed), *workload.options]
        outs = [os.path.join(data_dir, side) for side in ("parent", "change")]
        errors = []
        for checkout, out, side_usage in zip((parent, change), outs, usage):
            error, *used = train(checkout, argv, out, workdir)
            errors.append(error)
            side_usage.append(used)
        if any(errors):
            failures += 1
            print(f"  {os.path.basename(path)}: parent {errors[0] or 'ok'}, change {errors[1] or 'ok'}")
        else:
            files = [{f: _read(os.path.join(out, f)) for f in FILES} for out in outs]
            for f in FILES:
                identical[f] += files[0][f] == files[1][f]
            if files[0]["model.json"] != files[1]["model.json"]:
                model_differences.append(
                    model_difference(files[0]["model.json"], files[1]["model.json"]))
            report_differences(files[0]["report.csv"], files[1]["report.csv"], columns, notes)
            summaries.append(tuple(json.loads(side["summary.json"]) for side in files))
        for out in outs:
            shutil.rmtree(out, ignore_errors=True)
    runs = len(workload.paths)
    print(f"{name}: {runs} trainings, seed {seed}, {failures} failed")
    for f in FILES:
        print(f"  {f} identical: {identical[f]} of {runs}")
    if model_differences:
        print(model_line(model_differences))
    for line in quality_lines(summaries):
        print(line)
    for side, side_usage in zip(("parent", "change"), usage):
        print(usage_line(side, *zip(*side_usage)))
    for note, reports in notes.items():
        print(f"  report.csv {note}: {reports} of {runs - failures} reports")
    for column, (differ, rows, rel) in columns.items():
        if differ:
            print(f"  report.csv {column}: {differ} of {rows} rows differ, "
                  f"largest relative difference {rel:.3g}")
    return failures


def compare_eval(workload, seed, parent, change, workdir) -> int:
    """Run evaluate and bounds on the eval_regions inputs in both checkouts
    and print whether each command's stdout is identical."""
    data_dir = os.path.join(workdir, "eval_regions")
    os.makedirs(data_dir)
    workload.setup(seed, data_dir)
    print(f"eval_regions: seed {seed}")
    failures = 0
    for command in ("evaluate", "bounds"):
        argv = [command, "--model", workload.model_path, "--data", workload.data_path]
        done = [
            subprocess.run([sys.executable, "-m", "bannet.cli", *argv], env=cli_env(checkout),
                           cwd=workdir, capture_output=True, check=False)
            for checkout in (parent, change)
        ]
        codes = [run.returncode for run in done]
        if any(codes):
            failures += 1
            print(f"  {command}: parent exit {codes[0]}, change exit {codes[1]}")
        else:
            same = done[0].stdout == done[1].stdout
            print(f"  {command} stdout identical: {'yes' if same else 'no'}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="source checkout to compare against")
    parser.add_argument("change", help="source checkout under test")
    parser.add_argument("--seed", type=int, required=True, help="benchmark seed of the inputs")
    args = parser.parse_args(argv)
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    factories = parent_workloads(parent)
    workdir = tempfile.mkdtemp(prefix="compare_runs-")
    try:
        failures = sum(
            compare_workload(name, factories[name](), args.seed, parent, change, workdir)
            for name in WORKLOADS
        )
        failures += compare_eval(factories["eval_regions"](), args.seed, parent, change, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
