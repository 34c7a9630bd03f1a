"""Benchmark of the bannet command line.

    python3 perfbench/run.py --workload plant_deep --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``bannet`` from its
``src`` directory. One run makes the workload's inputs from the seed, then
runs the workload's cycle of CLI commands in process, closed loop, for the
given number of seconds, checking every command's output.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it first runs one untraced reference cycle, then wraps the
package's module-level names to record spans and reports the per-layer
metrics, the tracing overhead, and checks that tracing left model and report
bytes unchanged. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. An operation is one command
or one scheduled lasso solve; a solve fails when it returns
``converged=False``.

BLAS runs single-threaded so that timings do not depend on how many cores
are idle. The exit status is 1 when a check fails and 2 when the package
cannot be imported.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported: OpenBLAS sizes its thread pool at load time.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3


def source_lines() -> dict[str, int]:
    package = os.path.join(SRC, "bannet")
    counts = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                counts[f"src_lines.{name[:-3]}"] = handle.read().count(b"\n")
    counts["src_lines.total"] = sum(counts.values())
    return counts


def provenance(seed: int) -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        import subprocess

        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or commit
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"{blas.get('name')} {blas.get('version')}, BLAS threads {BLAS_THREADS}, "
        f"nproc {os.cpu_count()}, commit {commit}, seed {seed}"
    )


def declared_metrics(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def measure(workload, probe, tracer, seconds: float, outcomes: list) -> None:
    """Closed loop of whole passes over the workload's inputs: each cycle
    starts when the previous one has finished, and no pass starts that the
    last pass's duration says cannot end in time."""
    start = time.perf_counter()
    k = 0
    while True:
        pass_start = time.perf_counter()
        for _ in range(workload.pass_size):
            # Garbage left by one cycle must not add to the next one's peak memory.
            gc.collect()
            outcomes.append(workload.cycle(k, probe, tracer))
            k += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        import tracing
        import workloads
    except ImportError as exc:
        print(f"cannot import the bannet package from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not workloads.bannet.cli.__file__.startswith(SRC + os.sep):
        print(f"bannet was imported from {workloads.bannet.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        return run(args, workloads, tracing, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workloads, tracing, workdir: str) -> int:
    workload = workloads.WORKLOADS[args.workload]()
    setup_times = []
    for i in range(1 if args.trace else SETUP_REPEATS):
        setup_dir = os.path.join(workdir, f"setup{i}")
        os.makedirs(setup_dir)
        start = time.perf_counter()
        workload.setup(args.seed, setup_dir)
        setup_times.append(time.perf_counter() - start)

    patches = tracing.Patches()
    probe = tracing.Probe()
    probe.install(patches)
    tracer = None
    outcomes: list = []
    problems: list[str] = []
    try:
        if args.trace:
            reference = workload.cycle(0, probe, None)
            tracer = tracing.Tracer()
            tracer.install(patches)
            measure(workload, probe, tracer, args.seconds, outcomes)
            if outcomes[0].artifacts != reference.artifacts:
                problems.append("tracing changed the bytes of the cycle's outputs")
            outcomes.insert(0, reference)
        else:
            measure(workload, probe, None, args.seconds, outcomes)
    finally:
        unrestored = patches.restore()
    problems += [f"wrapper not restored: {name}" for name in unrestored]

    failed_commands = sum(len(o.failed_commands) for o in outcomes)
    commands = sum(o.commands for o in outcomes)
    attempted = commands + probe.solves
    failed = failed_commands + probe.nonconverged
    for o in outcomes:
        problems += o.failures
    correct = not problems

    measured = outcomes[1:] if args.trace else outcomes
    first_pass = measured[: workload.pass_size]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(measured)} cycles, {commands} commands, {probe.solves} lasso solves "
          f"({probe.nonconverged} not converged)")
    if outcomes[0].architecture:
        print(f"first cycle: architecture {outcomes[0].architecture}, "
              f"test mse {outcomes[0].test_mse!r}, {outcomes[0].seconds:.2f} s")
    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, len(measured))
        ref = outcomes[0].seconds
        metrics["trace.overhead_frac"] = (outcomes[1].seconds - ref) / ref
        metrics.update(source_lines())
        spans_path = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as handle:
            for rec in tracer.spans:
                handle.write(json.dumps(rec) + "\n")
        print(f"spans: {spans_path}")
    else:
        seconds = sorted(o.seconds for o in measured)
        # The highest percentile with at least ten cycles beyond it.
        tail = int(100 * (len(seconds) - 10) / len(seconds))
        if tail >= 1:
            print(f"cycle seconds over {len(seconds)} cycles: median {statistics.median(seconds):.4g}, "
                  f"p{tail} {statistics.quantiles(seconds, n=100)[tail - 1]:.4g}")
        metrics = {
            "setup_s": statistics.median(setup_times),
            "cycle_s": statistics.median(seconds),
            # Models are deterministic per input, so quality is read once per input.
            "test_mse": statistics.median(o.test_mse for o in first_pass),
            "nnz_params": statistics.median(o.nnz for o in first_pass),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
    # BENCHMARK.json names the metrics; a per-layer metric that a workload
    # never reaches (a third hidden layer, say) reads zero.
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    for name in sorted(set(metrics) - set(declared)):
        print(f"warning: metric {name} is not declared in BENCHMARK.json", file=sys.stderr)
    metrics = {name: (metrics.get(name, 0.0), unit) for name, unit in declared.items()}
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"env: {provenance(args.seed)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
