"""Wall and CPU time of each op of a benchmark workload, in one process.

    python3 scripts/cpu_per_op.py WORKLOAD [-k K] [--seed N]

Builds the workload's plan with perfbench/workloads.py in a temporary
directory, runs one warm-up pass over its ops through localex.cli.main, then
K more passes (default 10), then one untimed pass under tracemalloc. Prints
each op's mean wall time and CPU time per pass, their ratio and the op's peak
of traced memory, then the same for the whole pass (its peak is its largest
op's). CPU time is the process's, so it counts every BLAS thread: on two
cores a ratio near 1 means one busy core, and near 2 that a second thread
worked or spun through the op. The traced peak counts the Python and numpy
allocations the op makes while it runs, not memory held before it started.
For remote_explain, perfbench/model_server.py serves the model from a child
process, which is stopped at the end.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PERFBENCH = os.path.join(ROOT, "perfbench")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def _served(plan: dict):
    """Serve the plan's remote model, if it has one, and point its model file
    at the server."""
    if "server_model" not in plan:
        yield
        return
    proc = subprocess.Popen([sys.executable, os.path.join(PERFBENCH, "model_server.py"),
                             plan["server_model"]], stdout=subprocess.PIPE)
    try:
        port = int(proc.stdout.readline())  # the server's first line
        with open(plan["remote_model"], encoding="utf-8") as fh:
            model = json.load(fh)
        with open(plan["remote_model"], "w", encoding="utf-8") as fh:
            json.dump({**model, "endpoint": f"http://127.0.0.1:{port}/predict"}, fh)
        yield
    finally:
        proc.terminate()
        proc.wait(timeout=30)
        proc.stdout.close()


def _run(cli, op: dict) -> None:
    rc = cli.main(op["argv"])
    if rc != 0:
        raise SystemExit(f"{op['name']} exited with code {rc}")


def _run_pass(cli, ops: list[dict], totals: dict) -> None:
    for op in ops:
        wall, cpu = time.perf_counter(), time.process_time()
        _run(cli, op)
        times = totals.setdefault(op["name"], [0.0, 0.0])
        times[0] += time.perf_counter() - wall
        times[1] += time.process_time() - cpu


def _traced_pass(cli, ops: list[dict]) -> dict:
    """Each op's peak of traced memory in MiB, over one pass under tracemalloc."""
    peaks = {}
    tracemalloc.start()
    try:
        for op in ops:
            tracemalloc.reset_peak()
            _run(cli, op)
            peaks[op["name"]] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return peaks


def main() -> int:
    workloads = _workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("-k", type=int, default=10, help="timed passes after the warm-up")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = parser.parse_args()
    if args.k < 1:
        parser.error("-k must be at least 1")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import localex.cli

    with tempfile.TemporaryDirectory() as work:
        plan = workloads.build(args.workload, args.seed, work, os.path.abspath(ROOT))
        with _served(plan):
            _run_pass(localex.cli, plan["ops"], {})
            totals = {}
            for _ in range(args.k):
                _run_pass(localex.cli, plan["ops"], totals)
            peaks = _traced_pass(localex.cli, plan["ops"])
    totals["pass"] = [sum(times[i] for times in totals.values()) for i in (0, 1)]
    peaks["pass"] = max(peaks.values())
    print(f"{args.workload}, seed {args.seed}: mean per pass over {args.k} passes "
          f"after one warm-up")
    print(f"{'op':<16}{'wall_s':>10}{'cpu_s':>10}{'cpu/wall':>10}{'peak_mib':>10}")
    for name, (wall, cpu) in totals.items():
        print(f"{name:<16}{wall / args.k:>10.4f}{cpu / args.k:>10.4f}{cpu / wall:>10.2f}"
              f"{peaks[name]:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
