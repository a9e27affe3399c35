#!/usr/bin/env python3
"""Run the full default benchmark and write all artifacts.

Writes what ``surfbench run --outdir artifacts --scatter`` writes, then prints
the per-regime method contrast computed from the same run records. Use
--outdir/--seed/--config as with the CLI.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from surfbench.cli import run_experiment
from surfbench.config import ExperimentConfig, load_config
from surfbench.protocol import method_contrast


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="artifacts")
    parser.add_argument("--config")
    parser.add_argument("--seed", type=int)
    args = parser.parse_args()

    config = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, random_seed=args.seed)
    records = run_experiment(config, Path(args.outdir), scatter=True)

    # paired RMSE contrasts (rbf minus cubic) over runs where both are valid
    by_key = {}
    for r in records:
        key = (r.regime, r.output_index, r.fixed_axis, r.level_index, r.repeat)
        by_key.setdefault(key, {})[r.method] = r
    print("\npaired rmse contrast (rbf - cubic), mean over jointly valid runs:")
    for regime in ("noise-free", "noisy"):
        for output in (1, 2, 3):
            deltas = [
                method_contrast(pair["cubic"], pair["rbf"])
                for (g, o, *_), pair in by_key.items()
                if g == regime and o == output
            ]
            deltas = [d for d in deltas if d is not None]
            if deltas:
                print(f"  {regime:11s} output{output}: {np.mean(deltas):+.4f}  (n={len(deltas)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
