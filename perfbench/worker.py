"""Benchmark worker: one fresh interpreter per set-up measurement.

    python3 perfbench/worker.py PLAN.json

Imports localex, parses the files the plan names and writes one JSON line to
stdout when its inputs are ready. It then reads one command line from stdin,
either {"quit": true} or {"seconds": S, "trace": 0|1, "trace_out": PATH},
runs passes over the plan's CLI calls and answers with one JSON line.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
import urllib.request

from tracing import EXPLAIN_SITES, Patches, Probe, Tracer


def _setup(plan_path: str):
    start = time.perf_counter()
    import localex  # noqa: F401  (the package import is what set-up pays for)
    import localex.cli
    import localex.harness
    import localex.models

    import_s = time.perf_counter() - start
    start = time.perf_counter()
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    load = plan["load"]
    for path in load["configs"]:
        localex.harness.load_config(path)
    for path in load["json"]:
        with open(path, encoding="utf-8") as fh:
            json.load(fh)
    for path in load["models"]:
        localex.models.load_model(path)
    for path in load["inputs"]:
        localex.harness.load_input(path)
    return localex.cli, plan, import_s, time.perf_counter() - start


def _check(op: dict, rc: int) -> dict:
    """Exit code, output digest and count of sweep rows with an error."""
    rec = {"name": op["name"], "rc": rc, "sha256": None, "error_rows": 0}
    if rc != 0:
        return rec
    try:
        with open(op["out"], "rb") as fh:
            data = fh.read()
    except OSError:
        rec["rc"] = -2  # reported success but wrote no output
        return rec
    rec["sha256"] = hashlib.sha256(data).hexdigest()
    if op["out"].endswith(".csv"):
        rows = csv.DictReader(io.StringIO(data.decode("utf-8")))
        rec["error_rows"] = sum(1 for row in rows if row.get("error"))
    return rec


def _run_pass(cli, ops: list[dict]) -> dict:
    wall, cpu = time.perf_counter(), time.process_time()
    results = []
    for op in ops:
        try:
            os.remove(op["out"])
        except FileNotFoundError:
            pass
        try:
            rc = cli.main(op["argv"])  # looked up per call so the tracer's wrapper applies
        except Exception:  # a traceback breaks the CLI's contract: count it, keep going
            traceback.print_exc()
            rc = -1
        results.append(_check(op, rc))
    return {"wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu,
            "ops": results}


def _server_stats(url: str | None) -> dict:
    if url is None:
        return {}
    with urllib.request.urlopen(url, timeout=10) as resp:
        return json.load(resp)


def _run(cli, plan: dict, cmd: dict) -> dict:
    """Untraced passes for ``seconds`` after one warm-up pass; with tracing,
    traced and untraced passes alternate so that drift hits both alike."""
    ops, stats_url = plan["ops"], plan.get("stats_url")
    result = {"warmup": _run_pass(cli, ops)}  # lazy imports and first BLAS calls
    result["passes"], result["traced"] = [], []
    start = time.perf_counter()
    if not cmd["trace"]:
        probe, patches = Probe(), Patches()
        for site in EXPLAIN_SITES:
            patches.wrap(site, probe)
        while not result["passes"] or time.perf_counter() - start < cmd["seconds"]:
            result["passes"].append(_run_pass(cli, ops))
            result["passes"][-1]["explain_s"] = probe.samples[:]
            probe.samples.clear()
        patches.undo()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return result

    tracer = Tracer()
    while not result["traced"] or time.perf_counter() - start < cmd["seconds"]:
        result["passes"].append(_run_pass(cli, ops))
        before = _server_stats(stats_url)
        tracer.install()
        try:
            rec = _run_pass(cli, ops)
        finally:
            tracer.uninstall()
        layers = rec["layers"] = tracer.pass_summary()
        after = _server_stats(stats_url)
        if after:
            layers["models.remote.round_trips"] = after["round_trips"] - before["round_trips"]
            layers["models.remote.bytes_sent"] = (after["bytes_received"]
                                                  - before["bytes_received"])
            layers["models.remote.server_s"] = after["server_s"] - before["server_s"]
            layers["models.remote.wait_s"] = (layers.get("models.evaluate.remote_s", 0.0)
                                              - layers["models.remote.server_s"])
        result["traced"].append(rec)
    tracer.write(cmd["trace_out"])
    result["absent_layers"] = tracer.absent_layers()
    result["missing_sites"] = tracer.patches.missing
    return result


def main(argv: list[str]) -> int:
    # localex writes tables to stdout when no --out is given; keep the
    # protocol channel apart from anything the package prints
    proto = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    cli, plan, import_s, load_s = _setup(argv[0])
    proto.write(json.dumps({"import_s": import_s, "load_s": load_s}) + "\n")
    proto.flush()
    line = sys.stdin.readline()
    cmd = json.loads(line) if line.strip() else {"quit": True}
    if cmd.get("quit"):
        return 0
    proto.write(json.dumps(_run(cli, plan, cmd)) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
