"""Convergence sweep: distance between Lime and GlimeBinomial as n grows.

The two methods share an infinite-sample limit, so their explanation MSE
should fall toward zero along the sample-size grid; the mse_monotone column
records whether the decrease was strict for each (sigma, lambda) group.
"""
from __future__ import annotations

import argparse
import os.path
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from localex.harness import emit, load_config, run_convergence  # noqa: E402

ASSETS = os.path.join(os.path.dirname(__file__), "..", "assets")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=os.path.join(ASSETS, "convergence.json"))
    parser.add_argument("--out", default="convergence.csv")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args()

    config = load_config(args.config)
    rows = run_convergence(config)
    emit(rows, args.format, args.out)

    print(f"wrote {args.out}")
    print(f"{'sigma':>6} {'n':>6} {'mse':>12} {'pearson':>9} {'monotone':>9}")
    for row in rows:
        if row["error"]:
            print(f"{row['sigma']:>6} {row['n']:>6} {'failed':>12}")
            continue
        print(
            f"{row['sigma']:>6} {row['n']:>6} {row['mse']:>12.3e}"
            f" {row['pearson']:>9.4f} {str(row['mse_monotone']):>9}"
        )


if __name__ == "__main__":
    main()
