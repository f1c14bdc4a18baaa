"""Stability sweep: top-K Jaccard against kernel width.

Expected shape of the results: Lime's overlap collapses as sigma shrinks
because the exponential kernel concentrates all weight on a handful of draws,
while the Binomial variant and the unweighted ablation stay near 1.0.
"""
from __future__ import annotations

import argparse
import os.path
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from localex.harness import emit, load_config, run_stability  # noqa: E402

ASSETS = os.path.join(os.path.dirname(__file__), "..", "assets")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=os.path.join(ASSETS, "stability.json"))
    parser.add_argument("--out", default="stability.csv")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args()

    config = load_config(args.config)
    rows = run_stability(config)
    emit(rows, args.format, args.out)

    print(f"wrote {args.out}")
    print(f"{'method':<16} {'sigma':>6} {'mean_jaccard':>13} {'std':>8}")
    for row in rows:
        jac = "failed" if row["error"] else f"{row['mean_jaccard']:.4f}"
        std = "" if row["error"] else f"{row['std']:.4f}"
        print(f"{row['method']:<16} {row['sigma']:>6} {jac:>13} {std:>8}")


if __name__ == "__main__":
    main()
