"""The benchmark's recorded seed-0 output digests, checked from the tests: each
workload's plan is built in a temporary directory and run through the CLI, and
every output file is hashed as the benchmark worker hashes it. Only the remote
workload, which needs its model server, is left to the benchmark."""
import hashlib
import importlib.util
import json
import os

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


@pytest.mark.parametrize("workload", ["desk_sweeps", "image_fidelity"])
def test_seed_zero_outputs_match_the_recorded_digests(workload, tmp_path):
    workloads = _workloads()
    with open(os.path.join(PERFBENCH, "digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)[workload]
    plan = workloads.build(workload, workloads.DEFAULT_SEED, str(tmp_path),
                           os.path.abspath(ROOT))
    digests = {}
    for op in plan["ops"]:
        assert cli.main(op["argv"]) == 0, op["name"]
        with open(op["out"], "rb") as fh:
            digests[op["name"]] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == recorded
