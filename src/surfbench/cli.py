"""Command line interface for the interpolation benchmark.

Subcommands:
  generate   write the factorial dataset as CSV
  run        execute the full experiment, write artifacts to --outdir and
             print the summary table and the paired RMSE contrast
  report     aggregate an existing runs.csv into the summary table
  surface    export an interpolated grid for one slice
  diagnose   per-slice geometry reports (fill/separation/mesh ratio)

``--config`` accepts a JSON object file or a settings.csv; ``--seed`` and
``--outdir`` override the config seed and the artifact directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config
from .errors import InterpolationError
from .protocol import (
    AXES, METHODS, REGIMES, RunTable, execute_experiment, rbf_condition_summary, reason_histogram,
)
from .report import (
    diagnose_slices,
    export_pred_vs_true,
    export_surface_grid,
    paired_contrast,
    read_runs_csv,
    summarize,
    write_dataset_csv,
    write_grid_csv,
    write_json,
    write_runs_csv,
    write_scatter_csv,
    write_summary_csv,
)
from .synthdata import generate

__all__ = ["cli_main", "main", "run_experiment"]

DEFAULT_OUTDIR = "artifacts"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="config file (JSON or settings.csv)")
    parser.add_argument("--seed", type=int, help="override the master random seed")
    parser.add_argument("--outdir", default=DEFAULT_OUTDIR, help="artifact directory (default: %(default)s)")


def _runs_path(args) -> Path:
    return Path(args.runs) if args.runs else Path(args.outdir) / "runs.csv"


def _resolve_config(args) -> ExperimentConfig:
    """The ``--config`` file, else for ``report`` the settings.csv next to
    its runs.csv if there is one, else the defaults; ``--seed`` overrides
    the seed of any of them."""
    path = args.config
    if path is None and args.command == "report":
        settings = _runs_path(args).parent / "settings.csv"
        path = settings if settings.exists() else None
    config = load_config(path) if path else ExperimentConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, random_seed=args.seed)
    return config


@functools.cache  # takes no inputs; parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfbench",
        description="Paired benchmark of cubic and multiquadric RBF surface interpolation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write the factorial dataset as CSV")
    _add_common(p)
    p.add_argument("--out", metavar="PATH", help="output CSV (default: <outdir>/dataset.csv)")

    p = sub.add_parser("run", help="run the full experiment and write artifacts")
    _add_common(p)
    p.add_argument("--scatter", action="store_true",
                   help="also write predicted-vs-true scatter rows for valid runs")

    p = sub.add_parser("report", help="summarize an existing runs.csv")
    _add_common(p)
    p.add_argument("--runs", metavar="PATH", help="runs.csv path (default: <outdir>/runs.csv)")

    p = sub.add_parser("surface", help="export an interpolated grid for one slice")
    _add_common(p)
    p.add_argument("--axis", required=True, choices=AXES)
    p.add_argument("--level", required=True, type=float, help="the fixed level of the sliced axis")
    p.add_argument("--output", required=True, type=int, choices=(1, 2, 3))
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--regime", default="noise-free", choices=REGIMES)
    p.add_argument("--out", metavar="PATH", help="output CSV (default: <outdir>/surface.csv)")

    p = sub.add_parser("diagnose", help="geometry reports per slice")
    _add_common(p)
    p.add_argument("--axis", choices=AXES, help="restrict to one sliced axis")
    p.add_argument("--level", type=float, help="restrict to one fixed level")
    p.add_argument("--out", metavar="PATH", help="output JSON (default: print to stdout)")
    return parser


def _cmd_generate(args, config: ExperimentConfig) -> int:
    outdir = Path(args.outdir)
    out = Path(args.out) if args.out else outdir / "dataset.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    dataset = generate(noise=config.noise_spec())
    write_dataset_csv(dataset, out)
    print(f"wrote {out} ({dataset.n_rows} rows)")
    return 0


def run_experiment(config: ExperimentConfig, outdir: Path, scatter: bool = False) -> RunTable:
    """Run the full experiment, write its artifacts into ``outdir``, print
    the summary table, the written files and the paired RMSE contrast of
    the methods (``report.paired_contrast``), and return the run table
    (what ``surfbench run`` does)."""
    started = time.perf_counter()
    outdir.mkdir(parents=True, exist_ok=True)
    dataset = generate(noise=config.noise_spec())
    runs = execute_experiment(dataset, config)
    table = summarize(runs, config)

    written = []
    write_dataset_csv(dataset, outdir / "dataset.csv")
    written.append("dataset.csv")
    write_runs_csv(runs, outdir / "runs.csv")
    written.append("runs.csv")
    write_summary_csv(table, outdir / "summary.csv")
    written.append("summary.csv")
    config.write_settings_csv(outdir / "settings.csv")
    written.append("settings.csv")
    if scatter:
        write_scatter_csv(export_pred_vs_true(runs), outdir / "scatter.csv")
        written.append("scatter.csv")

    meta = {
        "files": written,
        "config_sha256": config.sha256(),
        "runtime_seconds": time.perf_counter() - started,
        "n_records": len(runs),
        "reasons": reason_histogram(runs),
        "rbf_condition": rbf_condition_summary(runs),
    }
    write_json(meta, outdir / "meta.json")
    print(table.to_text())
    print(f"\nartifacts in {outdir}: {', '.join(written + ['meta.json'])}")
    print("\npaired rmse contrast (rbf - cubic), mean over jointly valid runs:")
    for regime, output_index, mean, n in paired_contrast(runs):
        print(f"  {regime:11s} output{output_index}: {mean:+.4f}  (n={n})")
    return runs


def _cmd_run(args, config: ExperimentConfig) -> int:
    run_experiment(config, Path(args.outdir), args.scatter)
    return 0


def _cmd_report(args, config: ExperimentConfig) -> int:
    table = summarize(read_runs_csv(_runs_path(args)), config)
    print(table.to_text())
    return 0


def _cmd_surface(args, config: ExperimentConfig) -> int:
    dataset = generate(noise=config.noise_spec())
    header, grid = export_surface_grid(
        dataset, args.axis, args.level, args.output, args.method, args.regime, config
    )
    out = Path(args.out) if args.out else Path(args.outdir) / "surface.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    write_grid_csv(header, grid, out)
    defined = int(np.count_nonzero(np.isfinite(grid[:, 2])))
    print(f"wrote {out} ({defined}/{len(grid)} cells defined)")
    return 0


def _cmd_diagnose(args, config: ExperimentConfig) -> int:
    dataset = generate(noise=config.noise_spec())
    reports = diagnose_slices(dataset, args.axis, args.level)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        write_json(reports, out)
        print(f"wrote {out} ({len(reports)} slices)")
    else:
        print(json.dumps(reports, indent=2, sort_keys=True))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "run": _cmd_run,
    "report": _cmd_report,
    "surface": _cmd_surface,
    "diagnose": _cmd_diagnose,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _resolve_config(args)
        return _COMMANDS[args.command](args, config)
    except (OSError, ValueError, InterpolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
