"""Workload definitions: the inputs each workload generates from its seed and
the CLI calls that make up one pass over it.

A plan is plain JSON so the worker process can read it without importing this
module: ``ops`` are the ``localex.cli.main`` argument lists of one pass, and
``load`` names the files the worker parses during set-up.
"""
from __future__ import annotations

import json
import os
import shutil

import numpy as np

# Under this seed the outputs are compared with the digests in digests.json;
# under any other seed they must agree across the passes of a run.
DEFAULT_SEED = 0


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def _op(name: str, argv: list[str], out: str) -> dict:
    return {"name": name, "argv": [*argv, "--out", out], "out": out}


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _desk_sweeps(seed: int, work: str, root: str) -> dict:
    rng = np.random.default_rng([1, seed])
    stab, conv, fid, lime = (str(s) for s in _seeds(rng, 4))
    # d=16 quadratic on plain vectors: exact KernelSHAP enumerates all 65534
    # interior coalitions, so this cell is one large solve and one long
    # Shapley-weight loop among many small cells
    a = rng.normal(size=(16, 16)) * 0.1
    quad = {
        "kind": "quadratic",
        "matrix": ((a + a.T) / 2.0).tolist(),
        "coefficients": (rng.normal(size=16) * 0.5).tolist(),
        "bias": float(rng.normal() * 0.1),
    }
    _write_json(os.path.join(work, "quadratic_16.json"), quad)
    _write_json(os.path.join(work, "input_16.json"),
                {"values": rng.normal(size=16).tolist(), "shape": [16]})
    shap_config = os.path.join(work, "shap_stability.json")
    _write_json(shap_config, {
        "model": "quadratic_16.json",
        "input": "input_16.json",
        # singleton segments with a mean reference would replace each
        # feature by itself; the zero reference keeps the game non-trivial
        "reference": "zero",
        "methods": [{"method": "KernelShap", "exact": True}],
        "sigmas": [1],
        "sample_sizes": [2**16 - 2],
        "lambdas": [0],
        "seeds": _seeds(rng, 4),
        "metrics": {"k": 5},
        "output": {"format": "csv"},
    })
    assets = os.path.join(root, "assets")
    bundled = {name: os.path.join(assets, f"{name}.json")
               for name in ("stability", "convergence", "fidelity", "distributions",
                            "explain_lime")}
    return {
        "ops": [
            _op("stability", ["stability", "--config", bundled["stability"], "--seed", stab],
                os.path.join(work, "stability.csv")),
            _op("converge", ["converge", "--config", bundled["convergence"], "--seed", conv],
                os.path.join(work, "converge.csv")),
            _op("fidelity", ["fidelity", "--config", bundled["fidelity"], "--seed", fid],
                os.path.join(work, "fidelity.csv")),
            _op("distributions", ["distributions", "--config", bundled["distributions"]],
                os.path.join(work, "distributions.csv")),
            _op("explain_lime", ["explain", "--config", bundled["explain_lime"], "--seed", lime],
                os.path.join(work, "explain_lime.json")),
            _op("shap_stability", ["stability", "--config", shap_config],
                os.path.join(work, "shap_stability.csv")),
        ],
        "load": {
            "configs": [bundled["stability"], bundled["convergence"], bundled["fidelity"],
                        shap_config],
            "json": [bundled["distributions"], bundled["explain_lime"]],
            "models": [os.path.join(assets, "linear_8x8.json"),
                       os.path.join(work, "quadratic_16.json")],
            "inputs": [os.path.join(assets, "input_8x8.json"),
                       os.path.join(work, "input_16.json")],
        },
    }


def _image_fidelity(seed: int, work: str, root: str) -> dict:
    rng = np.random.default_rng([2, seed])
    dim, hidden = 32 * 32 * 3, 32
    mlp = {"kind": "mlp", "layers": [
        {"weights": (rng.normal(size=(dim, hidden)) / np.sqrt(dim)).tolist(),
         "bias": (rng.normal(size=hidden) * 0.1).tolist()},
        {"weights": (rng.normal(size=(hidden, 1)) / np.sqrt(hidden)).tolist(),
         "bias": (rng.normal(size=1) * 0.1).tolist()},
    ]}
    _write_json(os.path.join(work, "mlp_image.json"), mlp)
    _write_json(os.path.join(work, "image.json"),
                {"values": rng.uniform(0.0, 1.0, size=dim).tolist(), "shape": [32, 32, 3]})
    config = os.path.join(work, "image_fidelity.json")
    # every (method, sigma) cell redraws the same (seed, epsilon) balls:
    # 24 ball draws per pass, 4 of them distinct
    _write_json(config, {
        "model": "mlp_image.json",
        "input": "image.json",
        "segmentation": {"rows": 8, "cols": 8},
        "reference": "mean",
        "methods": [{"method": "Lime"}, {"method": "GlimeBinomial"},
                    {"method": "GlimeGauss"}],
        "sigmas": [0.5, 1],
        "sample_sizes": [2048],
        "lambdas": [1],
        "seeds": _seeds(rng, 2),
        "metrics": {"epsilons": [0.25, 0.5], "norms": ["l2"], "m": 1024},
        "output": {"format": "csv"},
    })
    return {
        "ops": [_op("fidelity", ["fidelity", "--config", config],
                    os.path.join(work, "image_fidelity.csv"))],
        "load": {"configs": [config], "json": [],
                 "models": [os.path.join(work, "mlp_image.json")],
                 "inputs": [os.path.join(work, "image.json")]},
    }


def _remote_explain(seed: int, work: str, root: str) -> dict:
    rng = np.random.default_rng([3, seed])
    assets = os.path.join(root, "assets")
    shutil.copyfile(os.path.join(assets, "input_8x8.json"), os.path.join(work, "input_8x8.json"))
    # the endpoint is filled in once the model server has its port
    _write_json(os.path.join(work, "remote_linear.json"),
                {"kind": "remote", "endpoint": "", "batch_size": 64})
    ops, configs = [], []
    for method in ("GlimeBinomial", "Lime"):
        config = os.path.join(work, f"explain_{method}.json")
        configs.append(config)
        _write_json(config, {
            "model": "remote_linear.json",
            "input": "input_8x8.json",
            "segmentation": {"rows": 4, "cols": 4},
            "reference": "mean",
            "method": {"method": method, "sigma": 0.5},
            "n": 1024,
            "lambda": 1,
        })
        for i, s in enumerate(_seeds(rng, 2)):
            ops.append(_op(f"{method}_{i}", ["explain", "--config", config, "--seed", str(s)],
                           os.path.join(work, f"explain_{method}_{i}.json")))
    return {
        "ops": ops,
        "load": {"configs": [], "json": configs,
                 "models": [os.path.join(work, "remote_linear.json")],
                 "inputs": [os.path.join(work, "input_8x8.json")]},
        "server_model": os.path.join(assets, "linear_8x8.json"),
        "remote_model": os.path.join(work, "remote_linear.json"),
    }


# name -> (make, why). The why is also the workload's line in BENCHMARK.json.
WORKLOADS = {
    "desk_sweeps": (_desk_sweeps,
                    "many small d=16 and D=64 cells: per-call overhead in harness, "
                    "explain, solver and metrics, plus the exact-SHAP weight loop; "
                    "lift and evaluate do little"),
    "image_fidelity": (_image_fidelity,
                       "32x32x3 image, 8x8 grid, MLP: per-row work in sample_ball, lift "
                       "and evaluate, with balls repeated across cells"),
    "remote_explain": (_remote_explain,
                       "explains against an HTTP model: time goes to round trips and JSON "
                       "in models while lift and solve are trivial; "
                       "latency_ms_tail is p80 on every workload"),
}


def build(workload: str, seed: int, work: str, root: str) -> dict:
    make, _ = WORKLOADS[workload]
    return make(seed, work, root)
