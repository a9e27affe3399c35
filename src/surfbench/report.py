"""Aggregation and artifact export: summary tables, CSV/JSON files, grids.

Everything written here is plot-ready data rather than rendered figures:
surface grids with explicit ``NA`` markers for undefined cells, predicted
versus true scatter rows, per-slice geometry reports, and the aggregated
summary table with bootstrap confidence intervals.

Every CSV table except settings.csv goes through ``write_csv``, whose
cells are formatted by ``_fmt`` alone. File formats are pinned:
  dataset.csv  x1,x2,x3,y1_clean,y2_clean,y3_clean,y1_noisy,y2_noisy,y3_noisy
  runs.csv     regime,output,fixed_axis,fixed_level,repeat,method,valid,
               reason,n_test,n_finite,rmse,mae,r2
  summary.csv  regime,output,method,runs,rmse_mean,rmse_ci_lo,rmse_ci_hi,
               mae_mean,r2_mean,r2_ci_lo,r2_ci_hi
  settings.csv key,value rows that round-trip into an ExperimentConfig
  meta.json    every written file, the config hash, the total runtime, the
               record count and run counts per regime, method and reason
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .config import ExperimentConfig
from .cubic import fit_cubic
from .errors import InterpolationError
from .geometry import geometry_report
from .metrics import BootstrapCI, MetricSet, bootstrap_ci
from .protocol import AXES, METHODS, REGIMES, find_slice, slice_nodes
from .rbf import eval_rbf, fit_rbf
from .synthdata import FactorialDataset

__all__ = [
    "SummaryRow",
    "SummaryTable",
    "summarize",
    "write_csv",
    "write_dataset_csv",
    "write_runs_csv",
    "read_runs_csv",
    "RunRow",
    "write_summary_csv",
    "export_surface_grid",
    "export_pred_vs_true",
    "diagnose_slices",
    "DATASET_CSV_HEADER",
    "RUNS_CSV_HEADER",
    "SUMMARY_CSV_HEADER",
    "NA_TOKEN",
]

log = logging.getLogger(__name__)

DATASET_CSV_HEADER = "x1,x2,x3,y1_clean,y2_clean,y3_clean,y1_noisy,y2_noisy,y3_noisy"
RUNS_CSV_HEADER = (
    "regime,output,fixed_axis,fixed_level,repeat,method,valid,reason,"
    "n_test,n_finite,rmse,mae,r2"
)
SUMMARY_CSV_HEADER = (
    "regime,output,method,runs,rmse_mean,rmse_ci_lo,rmse_ci_hi,"
    "mae_mean,r2_mean,r2_ci_lo,r2_ci_hi"
)
SCATTER_CSV_HEADER = "regime,output,fixed_axis,fixed_level,repeat,method,y_true,y_pred"
NA_TOKEN = "NA"

# Row tuples formatted at a time by write_csv, so a long table such as
# runs.csv never holds more than one block of formatted cells (blocks of
# 1024 rows raised the peak RSS of a default run by 0.8 MB).
CSV_BLOCK = 256

# Domain tag separating bootstrap seeding from noise (1) and splits (2).
_BOOTSTRAP_STREAM_TAG = 3


def _fmt(x) -> str:
    """One CSV cell: floats with 17 significant digits, None and non-finite
    floats as ``NA``, bools as ``true``/``false``, anything else as str."""
    if isinstance(x, float):  # most cells; a bool is never a float
        return "%.17g" % x if math.isfinite(x) else NA_TOKEN
    if isinstance(x, bool):
        return "true" if x else "false"
    return NA_TOKEN if x is None else str(x)


def _column(values):
    """The cells of one column, each as ``_fmt`` writes it.

    A float64 array is formatted once per distinct bit pattern (so -0.0,
    0.0 and each NaN payload stay apart) and the strings are mapped back to
    the rows; any other column is formatted cell by cell.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
        cells = list(map(_fmt, bits.view(np.float64).tolist()))
        return map(cells.__getitem__, inverse.tolist())
    return map(_fmt, values)


def _column_blocks(rows):
    """The columns of ``rows``, block by block: a non-empty 2-D array as one
    block, whose cells are already in memory; row tuples CSV_BLOCK at a time."""
    if isinstance(rows, np.ndarray):
        return [rows.T] if len(rows) else []
    it = iter(rows)
    return (zip(*block, strict=True) for block in iter(lambda: list(islice(it, CSV_BLOCK)), []))


def write_csv(path, header: str, rows) -> None:
    """Write ``header`` (comma-joined column names) and one line per row.

    ``rows`` is a 2-D float array or an iterable of equal-length row
    tuples; each block of it is formatted column by column (see
    ``_column``).
    """
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for columns in _column_blocks(rows):
            fh.write("\n".join(map(",".join, zip(*map(_column, columns)))) + "\n")


def write_dataset_csv(dataset: FactorialDataset, path) -> None:
    write_csv(path, DATASET_CSV_HEADER,
              np.hstack([dataset.x, dataset.y_clean, dataset.y_noisy]))


@dataclass(frozen=True)
class SummaryRow:
    regime: str
    output_index: int
    method: str
    valid_runs: int
    rmse_mean: float | None
    mae_mean: float | None
    r2_mean: float | None
    rmse_ci: BootstrapCI | None
    r2_ci: BootstrapCI | None


@dataclass(frozen=True)
class SummaryTable:
    rows: tuple[SummaryRow, ...]

    def row(self, regime: str, output_index: int, method: str) -> SummaryRow:
        for r in self.rows:
            if (r.regime, r.output_index, r.method) == (regime, output_index, method):
                return r
        raise KeyError((regime, output_index, method))

    def to_text(self) -> str:
        lines = ["regime      output  method  runs  rmse_mean  r2_mean"]
        for r in self.rows:
            rmse = "NA" if r.rmse_mean is None else f"{r.rmse_mean:.3f}"
            r2 = "NA" if r.r2_mean is None else f"{r.r2_mean:.3f}"
            lines.append(
                f"{r.regime:11s} {r.output_index:6d}  {r.method:6s} {r.valid_runs:5d}  {rmse:>9s}  {r2:>7s}"
            )
        return "\n".join(lines)


def summarize(records, config: ExperimentConfig | None = None) -> SummaryTable:
    """Aggregate run records into one row per (regime, output, method).

    ``records`` are RunRecords or RunRows: only their regime, output_index,
    method, valid and metrics are read.
    Means are taken over valid runs; bootstrap percentile intervals cover the
    mean of the run-level RMSE and R^2 values. Rows with zero valid runs are
    emitted with undefined metrics.
    """
    config = config if config is not None else ExperimentConfig()
    records = list(records)
    if not records:
        raise ValueError("no run records to summarize")
    rows = []
    for regime in REGIMES:
        for output_index in (1, 2, 3):
            for method in METHODS:
                sel = [
                    r for r in records
                    if r.valid
                    and (r.regime, r.output_index, r.method) == (regime, output_index, method)
                ]
                if not sel:
                    rows.append(SummaryRow(regime, output_index, method, 0,
                                           None, None, None, None, None))
                    continue
                rmse = np.array([r.metrics.rmse for r in sel])
                mae = np.array([r.metrics.mae for r in sel])
                r2 = np.array([r.metrics.r2 for r in sel])
                seed_base = (
                    config.random_seed,
                    _BOOTSTRAP_STREAM_TAG,
                    REGIMES.index(regime),
                    output_index,
                    METHODS.index(method),
                )
                rows.append(SummaryRow(
                    regime=regime,
                    output_index=output_index,
                    method=method,
                    valid_runs=len(sel),
                    rmse_mean=float(rmse.mean()),
                    mae_mean=float(mae.mean()),
                    r2_mean=float(r2.mean()),
                    rmse_ci=bootstrap_ci(rmse, config.bootstrap_resamples, seed=seed_base + (0,)),
                    r2_ci=bootstrap_ci(r2, config.bootstrap_resamples, seed=seed_base + (1,)),
                ))
    return SummaryTable(rows=tuple(rows))


def write_runs_csv(records, path) -> None:
    write_csv(path, RUNS_CSV_HEADER, (
        (r.regime, r.output_index, r.fixed_axis, r.fixed_level, r.repeat, r.method,
         r.valid, r.reason, r.n_test, r.n_finite,
         *((r.metrics.rmse, r.metrics.mae, r.metrics.r2) if r.metrics else (None,) * 3))
        for r in records
    ))


class RunRow(NamedTuple):
    """The part of a runs.csv row that ``summarize`` reads; ``metrics`` is
    None for an invalid run, and its ``n_points`` is the row's n_finite."""

    regime: str
    output_index: int
    method: str
    valid: bool
    metrics: MetricSet | None


def read_runs_csv(path) -> list[RunRow]:
    """Parse a runs.csv back into records that ``summarize`` accepts."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RUNS_CSV_HEADER.split(","):
            raise ValueError(f"{path}: unexpected runs.csv header {reader.fieldnames}")
        for row in reader:
            if None in row or None in row.values():
                raise ValueError(f"{path}: line {reader.line_num} does not have "
                                 f"{len(reader.fieldnames)} fields")
            if row["valid"] not in ("true", "false"):
                raise ValueError(f"{path}: line {reader.line_num}: valid must be "
                                 f"true or false, got {row['valid']!r}")
            try:
                metrics = None
                if row["valid"] == "true":
                    metrics = MetricSet(rmse=float(row["rmse"]), mae=float(row["mae"]),
                                        r2=float(row["r2"]), n_points=int(row["n_finite"]))
                records.append(RunRow(row["regime"], int(row["output"]), row["method"],
                                      metrics is not None, metrics))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return records


def write_summary_csv(table: SummaryTable, path) -> None:
    write_csv(path, SUMMARY_CSV_HEADER, (
        (r.regime, r.output_index, r.method, r.valid_runs,
         r.rmse_mean, *((r.rmse_ci.lower, r.rmse_ci.upper) if r.rmse_ci else (None,) * 2),
         r.mae_mean,
         r.r2_mean, *((r.r2_ci.lower, r.r2_ci.upper) if r.r2_ci else (None,) * 2))
        for r in table.rows
    ))


def export_surface_grid(
    dataset: FactorialDataset,
    fixed_axis: str,
    fixed_level: float,
    output_index: int,
    method: str,
    regime: str,
    config: ExperimentConfig | None = None,
) -> tuple[str, np.ndarray]:
    """Interpolated values on a uniform grid over a slice's free-axis box.

    The surface is fitted on the whole slice. Returns (csv_header, grid)
    with ``grid`` a (k, 3) float array of (u, v, value) rows, one per grid
    cell; cells outside the cubic surface's support hold NaN (written as
    ``NA``). Fit failures raise the underlying InterpolationError.
    """
    config = config if config is not None else ExperimentConfig()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    task = find_slice(dataset, regime, fixed_axis, fixed_level, output_index)
    if method == "cubic":
        surface = fit_cubic(task.points, task.values)
        predict = surface.evaluate
    else:
        surface = fit_rbf(task.points, task.values, config.rbf_config())
        predict = lambda q: eval_rbf(surface, q)  # noqa: E731
    res = config.grid_resolution
    lo = task.points.min(axis=0)
    hi = task.points.max(axis=0)
    gu, gv = np.meshgrid(
        np.linspace(lo[0], hi[0], res), np.linspace(lo[1], hi[1], res), indexing="ij"
    )
    queries = np.column_stack([gu.ravel(), gv.ravel()])
    header = f"{task.free_axes[0]},{task.free_axes[1]},value"
    return header, np.column_stack([queries, predict(queries)])


def write_grid_csv(header: str, grid: np.ndarray, path) -> None:
    write_csv(path, header, grid)


def export_pred_vs_true(records, **filters) -> list[tuple]:
    """Scatter rows (regime, output, axis, level, repeat, method, y_true, y_pred).

    Keyword filters narrow the selection (regime=..., output_index=...,
    method=..., fixed_axis=..., fixed_level=..., repeat=...). Invalid records
    are excluded and logged. Returns rows for valid records only.
    """
    allowed = {"regime", "output_index", "method", "fixed_axis", "fixed_level", "repeat"}
    unknown = set(filters) - allowed
    if unknown:
        raise ValueError(f"unknown filters: {sorted(unknown)}")
    rows = []
    skipped = 0
    for r in records:
        if any(getattr(r, key) != val for key, val in filters.items()):
            continue
        if not r.valid:
            skipped += 1
            continue
        for yt, yp in zip(r.y_true, r.y_pred):
            rows.append((
                r.regime, r.output_index, r.fixed_axis, r.fixed_level,
                r.repeat, r.method, float(yt), float(yp),
            ))
    if skipped:
        log.info("export_pred_vs_true: skipped %d invalid records", skipped)
    return rows


def write_scatter_csv(rows, path) -> None:
    write_csv(path, SCATTER_CSV_HEADER, rows)


def diagnose_slices(dataset: FactorialDataset, fixed_axis: str | None = None,
                    fixed_level: float | None = None) -> list[dict]:
    """Geometry report per slice: fill distance, separation, mesh ratio.

    Slice geometry does not depend on output or regime, so reports are
    emitted once per (axis, level).
    """
    reports = []
    for axis in AXES:
        if fixed_axis is not None and axis != fixed_axis:
            continue
        for level_index, level in enumerate(dataset.spec.axis_levels(axis)):
            if fixed_level is not None and not np.isclose(level, fixed_level, rtol=1e-12, atol=1e-12):
                continue
            entry = {"fixed_axis": axis, "fixed_level": float(level)}
            entry.update(geometry_report(slice_nodes(dataset, axis, level_index)[1]).to_dict())
            reports.append(entry)
    if not reports:
        raise ValueError(f"no slice matches {fixed_axis}={fixed_level}")
    return reports


def write_json(payload, path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
