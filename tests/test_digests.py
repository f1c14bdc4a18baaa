"""The benchmark's recorded seed-0 output digests, checked from the tests: each
workload's plan is built in a temporary directory and run through the CLI, and
every output file is hashed as the benchmark worker hashes it. The remote
workload's model server runs in a subprocess, and its endpoint goes into the
plan's remote model file as the benchmark's runner puts it there."""
import contextlib
import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from localex import cli

ROOT = os.path.join(os.path.dirname(__file__), "..")
PERFBENCH = os.path.join(ROOT, "perfbench")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def _model_server(model_path: str):
    """The URL of perfbench's model server serving model_path, in a subprocess."""
    proc = subprocess.Popen([sys.executable, os.path.join(PERFBENCH, "model_server.py"),
                             model_path], stdout=subprocess.PIPE)
    try:
        yield f"http://127.0.0.1:{int(proc.stdout.readline())}"  # its first line: the port
    finally:
        proc.terminate()
        proc.wait(timeout=30)
        proc.stdout.close()


@pytest.mark.parametrize("workload", ["desk_sweeps", "image_fidelity", "remote_explain"])
def test_seed_zero_outputs_match_the_recorded_digests(workload, tmp_path):
    workloads = _workloads()
    with open(os.path.join(PERFBENCH, "digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)[workload]
    plan = workloads.build(workload, workloads.DEFAULT_SEED, str(tmp_path),
                           os.path.abspath(ROOT))
    digests = {}
    with contextlib.ExitStack() as stack:
        if "server_model" in plan:
            url = stack.enter_context(_model_server(plan["server_model"]))
            with open(plan["remote_model"], encoding="utf-8") as fh:
                model = json.load(fh)
            with open(plan["remote_model"], "w", encoding="utf-8") as fh:
                json.dump({**model, "endpoint": f"{url}/predict"}, fh)
        for op in plan["ops"]:
            assert cli.main(op["argv"]) == 0, op["name"]
            with open(op["out"], "rb") as fh:
                digests[op["name"]] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == recorded
