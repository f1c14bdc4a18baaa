"""localex benchmark: one workload, measured in fresh worker processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The inputs are generated from --seed into a
scratch directory; each worker is a fresh interpreter that imports localex
from src/ and drives it through ``localex.cli.main``. The last stdout line is
one JSON object: correct, attempted, failed and the metrics BENCHMARK.json
lists, end-to-end ones with --trace 0 and per-layer ones with --trace 1.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 3  # fresh workers per run; setup_s is their median
TAIL_PERCENTILE = 80  # every workload gives at least 50 explanations per run
SCRATCH = ".perfbench_tmp"
TRACE_DIR = ".perfbench_out"
DIGESTS = os.path.join(HERE, "digests.json")  # output SHA-256s under the default seed


def _read_line(proc: subprocess.Popen, timeout: float) -> dict:
    """One JSON line from a child's stdout, or an error if it dies or stalls."""
    fd, buf = proc.stdout.fileno(), b""
    deadline = time.monotonic() + timeout
    while not buf.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise RuntimeError(f"no answer from {proc.args[1]} within {timeout} s")
        chunk = os.read(fd, 1 << 20)
        if not chunk:
            raise RuntimeError(f"{proc.args[1]} exited with code {proc.wait()}")
        buf += chunk
    return json.loads(buf)


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _start_server(model_path: str, procs: list) -> str:
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "model_server.py"), model_path],
                            stdout=subprocess.PIPE)
    procs.append(proc)
    port = _read_line(proc, timeout=30)
    return f"http://127.0.0.1:{port}"


def _spawn_workers(plan_path: str, env: dict, cmd: dict, procs: list):
    """setup_s of SETUPS fresh workers, their set-up splits, and the last one's run."""
    setups, splits = [], []
    for i in range(SETUPS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), plan_path],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        procs.append(proc)
        splits.append(_read_line(proc, timeout=60))
        setups.append(time.perf_counter() - start)
        last = i == SETUPS - 1
        proc.stdin.write((json.dumps(cmd if last else {"quit": True}) + "\n").encode())
        proc.stdin.close()
        result = _read_line(proc, timeout=150) if last else None
        if proc.wait(timeout=30) != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
    return setups, splits, result


def _environment(root: str) -> dict:
    """Where the numbers came from: machine, BLAS, versions and source revision."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = next((f"{var}={os.environ[var]}" for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                    if var in os.environ), f"default (nproc={os.cpu_count()})")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    pkg = os.path.join(root, "src", "localex")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
    }


def _count_failures(workload: str, seed: int, passes: list[dict]) -> tuple[int, int]:
    """(attempted, failed) CLI calls over all passes, the warm-up included.

    A call fails on a non-zero exit, a sweep row with an error, or an output
    digest that differs from the recorded one (default seed) or from the
    first pass (any other seed).
    """
    if seed == workloads.DEFAULT_SEED:
        with open(DIGESTS, encoding="utf-8") as fh:
            expected = json.load(fh).get(workload, {})
    else:
        expected = {op["name"]: op["sha256"] for op in passes[0]["ops"]}
    attempted = failed = 0
    for rec in passes:
        for op in rec["ops"]:
            attempted += 1
            if op["rc"] != 0 or op["error_rows"] or op["sha256"] != expected.get(op["name"]):
                failed += 1
                print(f"failed: {op}", file=sys.stderr)
    return attempted, failed


def _median(values) -> float:
    return float(np.median(values))


def _middle_mean(values) -> float:
    """Mean of the middle half of the values, the median below four of them.

    On a shared machine a few passes run slow; this drops them like the
    median does but averages more of the rest, so it varies less between runs.
    """
    v = sorted(values)
    k = len(v) // 4
    return float(np.mean(v[k:len(v) - k])) if k else _median(v)


def _end_to_end(setups: list[float], result: dict) -> dict:
    passes = result["passes"]
    explain_ms = np.concatenate([p["explain_s"] for p in passes]) * 1000.0
    if not len(explain_ms):
        raise RuntimeError("no explanation was timed; are tracing.EXPLAIN_SITES still there?")
    if len(explain_ms) <100 // (100 - TAIL_PERCENTILE) * 10:
        print(f"warning: {len(explain_ms)} explanations leave fewer than ten samples "
              f"beyond p{TAIL_PERCENTILE}", file=sys.stderr)
    return {
        "setup_s": _median(setups),
        "pass_s": _middle_mean([p["wall_s"] for p in passes]),
        "cpu_s": _middle_mean([p["cpu_s"] for p in passes]),
        "peak_rss_mb": result["peak_rss_mb"],
        "latency_ms_p50": float(np.percentile(explain_ms, 50)),
        "latency_ms_tail": float(np.percentile(explain_ms, TAIL_PERCENTILE)),
    }


def _per_layer(names: list[str], splits: list[dict], result: dict, fail_frac: float) -> dict:
    """Per-layer figures as means over the traced passes.

    Means add up, so the self_s values plus trace.remainder_s equal
    trace.pass_s. Untraced and traced passes alternate, so their difference
    is the tracing overhead.
    """
    traced = result["traced"]
    traced_s = float(np.mean([p["wall_s"] for p in traced]))
    out = {
        "setup.import_s": _median([s["import_s"] for s in splits]),
        "setup.load_s": _median([s["load_s"] for s in splits]),
        "trace.pass_s": traced_s,
        "trace.overhead_s": traced_s - float(np.mean([p["wall_s"] for p in result["passes"]])),
        "trace.remainder_s": traced_s - sum(
            float(np.mean([p["layers"][f"{layer}.self_s"] for p in traced]))
            for layer in tracing.LAYERS),
        "trace.missing_sites": len(result["missing_sites"]),
        "fail_frac": fail_frac,
    }
    for name in names:
        if name not in out:
            out[name] = float(np.mean([p["layers"].get(name, 0.0) for p in traced]))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="record this run's output digests as the default seed's")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "localex", "__init__.py")):
        print("error: run from the root of a localex checkout (src/localex is missing)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    os.makedirs(os.path.join(root, SCRATCH), exist_ok=True)
    os.makedirs(os.path.join(root, TRACE_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, SCRATCH))
    procs: list[subprocess.Popen] = []
    try:
        plan = workloads.build(args.workload, args.seed, work, root)
        if "server_model" in plan:
            url = _start_server(plan["server_model"], procs)
            with open(plan["remote_model"], encoding="utf-8") as fh:
                model = json.load(fh)
            with open(plan["remote_model"], "w", encoding="utf-8") as fh:
                json.dump({**model, "endpoint": f"{url}/predict"}, fh)
            plan["stats_url"] = f"{url}/stats"
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        cmd = {"seconds": args.seconds, "trace": args.trace,
               "trace_out": os.path.join(root, TRACE_DIR,
                                         f"spans-{args.workload}-{args.seed}.jsonl")}
        setups, splits, result = _spawn_workers(plan_path, env, cmd, procs)
    finally:
        for proc in reversed(procs):
            _stop(proc)
        shutil.rmtree(work, ignore_errors=True)

    passes = [result["warmup"], *result["passes"], *result.get("traced", [])]
    if args.write_digests:
        if args.seed != workloads.DEFAULT_SEED:
            print(f"error: digests are recorded under seed {workloads.DEFAULT_SEED}",
                  file=sys.stderr)
            return 2
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
        table[args.workload] = {op["name"]: op["sha256"] for op in passes[0]["ops"]}
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=2, sort_keys=True)
            fh.write("\n")
    attempted, failed = _count_failures(args.workload, args.seed, passes)
    if args.trace:
        values = _per_layer([m["name"] for m in metrics], splits, result, failed / attempted)
        if result["absent_layers"] or result["missing_sites"]:
            print("absent layers: " + json.dumps(result["absent_layers"])
                  + "; missing sites: " + json.dumps(result["missing_sites"]))
    else:
        values = _end_to_end(setups, result)
    print("env " + json.dumps(_environment(root)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
