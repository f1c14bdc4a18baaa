"""Regenerate the checked-in assets: models, inputs, and sample configs.

Everything is drawn from fixed seeds, so re-running this script reproduces the
asset files byte for byte.
"""
from __future__ import annotations

import os.path
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from localex.harness import json_dumps  # noqa: E402
from localex.models import Layer, Linear, Mlp, Quadratic, model_to_json  # noqa: E402

ASSETS = os.path.join(os.path.dirname(__file__), "..", "assets")


def write(name: str, obj) -> None:
    path = os.path.join(ASSETS, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json_dumps(obj) + "\n")
    print("wrote", os.path.relpath(path))


def main() -> None:
    os.makedirs(ASSETS, exist_ok=True)

    # linear model on 8x8x1 images; small coefficients keep responses O(1)
    rng = np.random.default_rng(2024_08_01)
    c64 = rng.normal(size=64) * 0.3
    write("linear_8x8.json", model_to_json(Linear(c64, 0.5)))

    x64 = rng.normal(size=64)
    write("input_8x8.json", {"values": x64.tolist(), "shape": [8, 8, 1]})

    # quadratic model on plain 10-vectors
    rng = np.random.default_rng(2024_08_02)
    a = rng.normal(size=(10, 10)) * 0.1
    a = (a + a.T) / 2.0
    c10 = rng.normal(size=10) * 0.5
    write("quadratic_10.json", model_to_json(Quadratic(a, c10, -0.2)))
    write("input_10.json", {"values": rng.normal(size=10).tolist(), "shape": [10]})

    # small tanh network on 8-vectors
    rng = np.random.default_rng(2024_08_03)
    w1 = rng.normal(size=(8, 16)) * 0.5
    b1 = rng.normal(size=16) * 0.1
    w2 = rng.normal(size=(16, 1)) * 0.5
    b2 = rng.normal(size=1) * 0.1
    write("mlp_small.json", model_to_json(Mlp((Layer(w1, b1), Layer(w2, b2)))))
    write("input_8.json", {"values": rng.normal(size=8).tolist(), "shape": [8]})

    # sample configs that exercise each CLI subcommand
    write(
        "stability.json",
        {
            "model": "linear_8x8.json",
            "input": "input_8x8.json",
            "segmentation": {"rows": 4, "cols": 4},
            "reference": "mean",
            "methods": [
                {"method": "Lime"},
                {"method": "Lime", "unit_weights": True},
                {"method": "GlimeBinomial"},
            ],
            "sigmas": [0.25, 0.5, 1.0, 2.0],
            "sample_sizes": [256],
            "lambdas": [1.0],
            "seeds": list(range(10)),
            "metrics": {"k": 5},
            "output": {"format": "csv"},
        },
    )
    write(
        "convergence.json",
        {
            "model": "linear_8x8.json",
            "input": "input_8x8.json",
            "segmentation": {"rows": 4, "cols": 4},
            "reference": "mean",
            "methods": [{"method": "Lime"}],
            "sigmas": [1.0],
            "sample_sizes": [64, 256, 1024, 4096],
            "lambdas": [1.0],
            "seeds": [0],
            "output": {"format": "csv"},
        },
    )
    write(
        "fidelity.json",
        {
            "model": "linear_8x8.json",
            "input": "input_8x8.json",
            "segmentation": {"rows": 4, "cols": 4},
            "reference": "mean",
            "methods": [{"method": "Lime"}, {"method": "GlimeBinomial"},
                        {"method": "GlimeGauss"}],
            "sigmas": [0.25, 0.5, 1.0, 2.0],
            "sample_sizes": [1024],
            "lambdas": [1.0],
            "seeds": list(range(5)),
            "metrics": {"epsilons": [0.25, 0.5, 1.0], "norms": ["l2"], "m": 2048},
            "output": {"format": "csv"},
        },
    )
    write(
        "explain_lime.json",
        {
            "model": "linear_8x8.json",
            "input": "input_8x8.json",
            "segmentation": {"rows": 4, "cols": 4},
            "reference": "mean",
            "method": {"method": "Lime", "sigma": 0.5},
            "n": 1024,
            "seed": 0,
            "lambda": 1.0,
        },
    )
    write("distributions.json", {"d": 16, "sigmas": [0.25, 0.5, 1.0, 2.0]})


if __name__ == "__main__":
    main()
