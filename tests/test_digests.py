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


def plan_digests(workload: str, work: str) -> dict:
    """SHA-256 of each output of the workload's seed-0 plan, built in work."""
    workloads = _workloads()
    plan = workloads.build(workload, workloads.DEFAULT_SEED, work, os.path.abspath(ROOT))
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
    return digests


def _recorded(workload: str) -> dict:
    with open(os.path.join(PERFBENCH, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


@pytest.mark.parametrize("workload", ["desk_sweeps", "image_fidelity", "remote_explain"])
def test_seed_zero_outputs_match_the_recorded_digests(workload, tmp_path):
    assert plan_digests(workload, str(tmp_path)) == _recorded(workload)


@pytest.mark.parametrize("threads", ["1", "4"])
@pytest.mark.parametrize("workload", ["desk_sweeps", "image_fidelity"])
def test_seed_zero_outputs_match_the_recorded_digests_at_one_and_four_blas_threads(
        workload, threads, tmp_path):
    # a fresh interpreter, since OpenBLAS reads OPENBLAS_NUM_THREADS once, when
    # numpy loads it; the fits below 64 columns still run on one thread, while
    # the image fits and the products outside the solver take the count given
    import localex

    code = ("import json, sys; import test_digests; "
            "print(json.dumps(test_digests.plan_digests(sys.argv[1], sys.argv[2])))")
    path = os.pathsep.join([os.path.dirname(os.path.abspath(__file__)),
                            os.path.dirname(os.path.dirname(localex.__file__))])
    proc = subprocess.run([sys.executable, "-c", code, workload, str(tmp_path)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads})
    assert json.loads(proc.stdout) == _recorded(workload)
