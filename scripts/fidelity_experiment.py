"""Fidelity sweep: how well each method's local surrogate tracks the model
inside perturbation balls of growing radius.

On the bundled linear model every method should score high at small radii;
differences emerge as the radius grows and the surrogate's reach is tested.
"""
from __future__ import annotations

import argparse
import os.path
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from localex.harness import emit, load_config, run_fidelity  # noqa: E402

ASSETS = os.path.join(os.path.dirname(__file__), "..", "assets")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=os.path.join(ASSETS, "fidelity.json"))
    parser.add_argument("--out", default="fidelity.csv")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args()

    config = load_config(args.config)
    rows = run_fidelity(config)
    emit(rows, args.format, args.out)

    print(f"wrote {args.out}")
    print(f"{'method':<16} {'sigma':>6} {'eps':>5} {'fidelity':>9} {'std':>8}")
    for row in rows:
        fid = "failed" if row["error"] else f"{row['fidelity_mean']:.4f}"
        std = "" if row["error"] else f"{row['fidelity_std']:.4f}"
        print(f"{row['method']:<16} {row['sigma']:>6} {row['epsilon']:>5} {fid:>9} {std:>8}")


if __name__ == "__main__":
    main()
