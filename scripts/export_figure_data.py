#!/usr/bin/env python3
"""Export plot-ready data for the standard diagnostic figures.

Writes, under --outdir (default figure_data/):
  surface_<method>_<regime>.csv   four grids for one representative slice
                                  (method x regime panels)
  scatter_failure_slice.csv       predicted-vs-true rows for a noisy slice
                                  where the coefficient of determination
                                  goes negative
  rmse_by_run.csv                 per-run RMSE values for boxplots
  geometry_reports.json           fill/separation/mesh ratio per slice

No rendering happens here; any plotting tool can consume the files.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from surfbench.config import ExperimentConfig
from surfbench.protocol import execute_experiment
from surfbench.report import (
    diagnose_slices,
    export_pred_vs_true,
    export_surface_grid,
    write_columns,
    write_grid_csv,
    write_json,
    write_scatter_csv,
)
from surfbench.synthdata import generate

SLICE_AXIS = "x3"
SLICE_LEVEL = 2.0
SLICE_OUTPUT = 2  # the mid-noise channel shows the contrast clearly


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="figure_data")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    config = ExperimentConfig()
    dataset = generate(noise=config.noise_spec())

    for method in ("cubic", "rbf"):
        for regime in ("noise-free", "noisy"):
            header, grid = export_surface_grid(
                dataset, SLICE_AXIS, SLICE_LEVEL, SLICE_OUTPUT, method, regime, config
            )
            name = f"surface_{method}_{regime.replace('-', '_')}.csv"
            write_grid_csv(header, grid, outdir / name)
            print(f"wrote {outdir / name}")

    runs = execute_experiment(dataset, config)

    # per-run RMSE table for distribution plots
    rmse_path = outdir / "rmse_by_run.csv"
    write_columns(rmse_path, "regime,output,method,repeat,fixed_axis,fixed_level,rmse", [
        getattr(runs, name)[runs.valid]
        for name in ("regime", "output_index", "method", "repeat", "fixed_axis", "fixed_level", "rmse")
    ])
    print(f"wrote {rmse_path}")

    # a representative noisy slice with failure behavior: most negative
    # jointly-valid r2 for the rbf method
    noisy_rbf = np.flatnonzero(runs.valid & (runs.regime == "noisy") & (runs.method == "rbf"))
    worst = int(noisy_rbf[np.argmin(runs.r2[noisy_rbf])])
    output, axis, level, repeat, r2 = (getattr(runs, name)[worst].item() for name in (
        "output_index", "fixed_axis", "fixed_level", "repeat", "r2"))
    columns = export_pred_vs_true(runs, regime="noisy", output_index=output, fixed_axis=axis,
                                  fixed_level=level, repeat=repeat)
    scatter_path = outdir / "scatter_failure_slice.csv"
    write_scatter_csv(columns, scatter_path)
    print(f"wrote {scatter_path} (slice {axis}={level:g}, output {output}, repeat {repeat}, "
          f"rbf r2 {r2:.2f})")

    geometry_path = outdir / "geometry_reports.json"
    write_json(diagnose_slices(dataset), geometry_path)
    print(f"wrote {geometry_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
