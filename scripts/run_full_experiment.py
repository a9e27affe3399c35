#!/usr/bin/env python3
"""Run the full default benchmark and write all artifacts.

Writes what ``surfbench run --outdir artifacts --scatter`` writes, then prints
the per-regime method contrast computed from the same run table. Use
--outdir/--seed/--config as with the CLI.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from surfbench.cli import run_experiment
from surfbench.config import ExperimentConfig, load_config


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="artifacts")
    parser.add_argument("--config")
    parser.add_argument("--seed", type=int)
    args = parser.parse_args()

    config = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, random_seed=args.seed)
    runs = run_experiment(config, Path(args.outdir), scatter=True)

    # paired rmse contrasts (rbf minus cubic) over splits where both runs
    # are valid; each split's cubic run is followed by its rbf run
    cubic, rbf = slice(0, None, 2), slice(1, None, 2)
    joint = runs.valid[cubic] & runs.valid[rbf]
    deltas = runs.rmse[rbf] - runs.rmse[cubic]
    print("\npaired rmse contrast (rbf - cubic), mean over jointly valid runs:")
    for regime in ("noise-free", "noisy"):
        for output in (1, 2, 3):
            keep = joint & (runs.regime[cubic] == regime) & (runs.output_index[cubic] == output)
            if keep.any():
                print(f"  {regime:11s} output{output}: {np.mean(deltas[keep]):+.4f}  (n={keep.sum()})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
