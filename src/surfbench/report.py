"""Aggregation and artifact export: summary tables, the paired method
contrast, CSV/JSON files, grids.

Everything written here is plot-ready data rather than rendered figures:
surface grids with explicit ``NA`` markers for undefined cells, predicted
versus true scatter rows, per-slice geometry reports, and the aggregated
summary table with bootstrap confidence intervals. The CLI writes each of
them; a figure of a subset (one slice, the valid runs) selects rows of
those files.

Every CSV table except settings.csv goes through ``write_columns`` as
columns, whose cells are those ``_fmt`` writes (see ``_cells``). File
formats are pinned:
  dataset.csv  x1,x2,x3,y1_clean,y2_clean,y3_clean,y1_noisy,y2_noisy,y3_noisy
  runs.csv     regime,output,fixed_axis,fixed_level,repeat,method,valid,
               reason,n_test,n_finite,rmse,mae,r2
  summary.csv  regime,output,method,runs,rmse_mean,rmse_ci_lo,rmse_ci_hi,
               mae_mean,r2_mean,r2_ci_lo,r2_ci_hi
  scatter.csv  regime,output,fixed_axis,fixed_level,repeat,method,y_true,y_pred
  settings.csv key,value rows that round-trip into an ExperimentConfig
  meta.json    every written file, the config hash, the total runtime, the
               record count and run counts per regime, method and reason
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import ExperimentConfig
from .cubic import fit_cubic
from .errors import REASON_CODES
from .geometry import geometry_report
from .metrics import BootstrapCI, bootstrap_ci
from .protocol import AXES, METHODS, REGIMES, RunTable, _level_match, find_slice, slice_nodes
from .rbf import eval_rbf, fit_rbf
from .synthdata import FactorialDataset

__all__ = [
    "SummaryRow",
    "SummaryTable",
    "summarize",
    "paired_contrast",
    "write_columns",
    "write_dataset_csv",
    "write_runs_csv",
    "read_runs_csv",
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

# Cells formatted at a time by write_columns and parsed at a time by
# read_runs_csv, as whole rows, so a long table such as runs.csv never holds
# more than one block of cells as strings: 256 rows of runs.csv's 13 columns
# (blocks of 1024 rows raised the peak RSS of a default run by 0.8 MB;
# parsing the 5280 rows of its runs.csv at once raised that of a process by
# about 4 MB). A narrower table takes more rows per block.
CSV_BLOCK = 256 * 13

# Domain tag separating bootstrap seeding from noise (1) and splits (2).
_BOOTSTRAP_STREAM_TAG = 3


def _fmt(x) -> str:
    """One CSV cell of a ``.tolist()`` value: floats with 17 significant
    digits, non-finite floats as ``NA``, bools as ``true``/``false``, ints
    and strings as str."""
    if isinstance(x, float):  # most cells; a bool is never a float
        return "%.17g" % x if math.isfinite(x) else NA_TOKEN
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def _cells(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct cells of one column as ``_fmt`` writes them, and each
    row's index among them. Each value is formatted once (a float64 once per
    bit pattern, so -0.0, 0.0 and each NaN payload stay apart); a float64
    column's distinct values in one ``%.17g`` pass, then ``NA`` for the
    non-finite ones."""
    if values.dtype != np.float64:
        keys, inverse = np.unique(values, return_inverse=True)
        return list(map(_fmt, keys.tolist())), inverse
    keys, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    keys = keys.view(np.float64)
    cells = ("%.17g\n" * len(keys) % tuple(keys.tolist())).split("\n")[:-1]
    for k in np.flatnonzero(~np.isfinite(keys)).tolist():
        cells[k] = NA_TOKEN
    return cells, inverse


def write_columns(path, header: str, columns) -> None:
    """Write ``header`` (comma-joined column names) and one line per row of
    the equal-length ``columns``, each formatted column by column (see
    ``_cells``), as many rows at a time as fit in CSV_BLOCK cells (one row
    at least).

    Raises ValueError for a column that is not bool, int, uint, str or
    float64 once passed through ``np.asarray`` (an object column holding
    None is one), naming its index, or for columns of unequal length.
    """
    columns = [np.asarray(column) for column in columns]
    for j, column in enumerate(columns):
        if not (column.dtype.kind in "biuU" or column.dtype == np.float64):
            raise ValueError(f"column {j} has dtype {column.dtype}; "
                             "expected bool, int, uint, str or float64")
    if len({len(column) for column in columns}) > 1:
        raise ValueError(f"columns of unequal length: {[len(column) for column in columns]}")
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        cells = [_cells(column) for column in columns]
        rows = max(1, CSV_BLOCK // len(columns))
        for lo in range(0, len(columns[0]), rows):
            block = [map(cell.__getitem__, inverse[lo:lo + rows].tolist()) for cell, inverse in cells]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def write_dataset_csv(dataset: FactorialDataset, path) -> None:
    write_columns(path, DATASET_CSV_HEADER,
                  np.hstack([dataset.x, dataset.y_clean, dataset.y_noisy]).T)


@dataclass(frozen=True)
class SummaryRow:
    """One (regime, output, method) row of the summary. Its bootstrap
    intervals are drawn on first read, from ``ci_source``: the valid runs'
    RMSE and R^2 values, the resample count and the seed base (None when
    there is no valid run, and so no interval)."""

    regime: str
    output_index: int
    method: str
    valid_runs: int
    rmse_mean: float | None
    mae_mean: float | None
    r2_mean: float | None
    ci_source: tuple[np.ndarray, np.ndarray, int, tuple] | None = field(
        default=None, compare=False, repr=False)

    def _ci(self, which: int) -> BootstrapCI | None:
        if self.ci_source is None:
            return None
        resamples, seed_base = self.ci_source[2:]
        return bootstrap_ci(self.ci_source[which], resamples, seed=seed_base + (which,))

    @cached_property
    def rmse_ci(self) -> BootstrapCI | None:
        return self._ci(0)

    @cached_property
    def r2_ci(self) -> BootstrapCI | None:
        return self._ci(1)


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


def summarize(runs: RunTable, config: ExperimentConfig | None = None) -> SummaryTable:
    """Aggregate runs into one row per (regime, output, method).

    Only the regime, output_index, method, valid and metric columns of
    ``runs`` are read.
    Means are taken over valid runs; bootstrap percentile intervals cover the
    mean of the run-level RMSE and R^2 values. They are drawn on first read
    of a row's ``rmse_ci`` or ``r2_ci`` (``write_summary_csv`` reads them;
    ``SummaryTable.to_text`` does not, so ``surfbench report`` draws none).
    Rows with zero valid runs are emitted with undefined metrics.
    """
    config = config if config is not None else ExperimentConfig()
    if not len(runs):
        raise ValueError("no run records to summarize")
    rows = []
    for regime in REGIMES:
        for output_index in (1, 2, 3):
            for method in METHODS:
                sel = (runs.valid & (runs.regime == regime) & (runs.output_index == output_index)
                       & (runs.method == method))
                if not sel.any():
                    rows.append(SummaryRow(regime, output_index, method, 0, None, None, None))
                    continue
                rmse, mae, r2 = runs.rmse[sel], runs.mae[sel], runs.r2[sel]
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
                    valid_runs=int(np.count_nonzero(sel)),
                    rmse_mean=float(rmse.mean()),
                    mae_mean=float(mae.mean()),
                    r2_mean=float(r2.mean()),
                    ci_source=(rmse, r2, config.bootstrap_resamples, seed_base),
                ))
    return SummaryTable(rows=tuple(rows))


def paired_contrast(runs: RunTable) -> list[tuple[str, int, float, int]]:
    """The paired RMSE contrast of the methods: for each (regime, output)
    with a split where both runs are valid, ``(regime, output_index, mean,
    n)`` with ``mean`` the mean of RBF minus cubic RMSE over those n splits.

    Each split's cubic run is row 2i of ``runs`` and its RBF run row
    2i + 1, as ``execute_experiment`` returns them and runs.csv holds them;
    a table in another order raises ValueError.
    """
    cubic, rbf = slice(0, None, 2), slice(1, None, 2)
    if len(runs) % 2 or (runs.method[cubic] != "cubic").any() or (runs.method[rbf] != "rbf").any():
        raise ValueError("runs are not in split pairs (each cubic run followed by its rbf run)")
    joint = runs.valid[cubic] & runs.valid[rbf]
    deltas = runs.rmse[rbf] - runs.rmse[cubic]
    contrast = []
    for regime in REGIMES:
        for output_index in (1, 2, 3):
            keep = joint & (runs.regime[cubic] == regime) & (runs.output_index[cubic] == output_index)
            if keep.any():
                contrast.append((regime, output_index, float(np.mean(deltas[keep])),
                                 int(np.count_nonzero(keep))))
    return contrast


# The RunTable column of each runs.csv column.
_RUNS_CSV_COLUMNS = ("regime", "output_index", "fixed_axis", "fixed_level", "repeat", "method",
                     "valid", "reason", "n_test", "n_finite", "rmse", "mae", "r2")
# The reason of a run: ok when it is valid, else why it is not.
_REASONS = ("ok", "test_points_outside_support", "too_few_test_points", "zero_target_variance",
            *(f"fit_failed:{code}" for code in REASON_CODES.values()))


def write_runs_csv(runs: RunTable, path) -> None:
    write_columns(path, RUNS_CSV_HEADER, [getattr(runs, name) for name in _RUNS_CSV_COLUMNS])


def _run_columns(rows: list[list[str]]) -> list[np.ndarray]:
    """The RunTable columns of runs.csv rows of 13 fields, in runs.csv
    order; the metrics NaN where a run is not valid. The cells are checked
    column by column in the order a row's would be read alone: valid, the
    metrics of a valid row, n_finite, the other numbers left to right, the
    labels left to right (regime, output, fixed_axis, method: each one
    that ``summarize`` counts), then the rules a row must keep: reason is
    one of _REASONS, valid is true exactly when reason is ok, fixed_level
    is finite, repeat >= 0, n_test >= 1, n_finite is within 0 and n_test,
    a valid row has finite rmse >= 0, mae >= 0 and r2 <= 1, and an invalid
    row has NA metrics. So for a single row the first ValueError is that
    row's first bad cell in this order, and it names the column and the
    cell."""
    cells = list(zip(*rows))
    if not {"true", "false"}.issuperset(cells[6]):
        bad = next(cell for cell in cells[6] if cell not in ("true", "false"))
        raise ValueError(f"valid must be true or false, got {bad!r}")
    valid = np.array(cells[6]) == "true"
    keep = valid.tolist()
    metrics = [np.full(len(rows), math.nan) for _ in cells[10:]]
    for values, column in zip(metrics, cells[10:]):
        values[valid] = list(map(float, itertools.compress(column, keep)))
    n_finite, output, level, repeat, n_test = (
        np.array(list(map(kind, cells[j]))) for j, kind in ((9, int), (1, int), (3, float), (4, int), (8, int)))
    for name, column, allowed in (("regime", cells[0], REGIMES), ("output", output.tolist(), (1, 2, 3)),
                                  ("fixed_axis", cells[2], AXES), ("method", cells[5], METHODS)):
        if not set(allowed).issuperset(column):
            bad = next(cell for cell in column if cell not in allowed)
            raise ValueError(f"{name} must be one of {', '.join(map(str, allowed))}, got {bad!r}")
    reason = np.array(cells[7])
    finite = [np.isfinite(values) for values in metrics]
    for name, bad, rule in (
            ("reason", ~np.isin(reason, _REASONS), f"must be one of {', '.join(_REASONS)}"),
            ("valid", valid != (reason == "ok"), "must be true exactly when reason is ok"),
            ("fixed_level", ~np.isfinite(level), "must be finite"),
            ("repeat", repeat < 0, "must be >= 0"),
            ("n_test", n_test < 1, "must be >= 1"),
            ("n_finite", (n_finite < 0) | (n_finite > n_test), "must be within 0 and n_test"),
            ("rmse", valid & ~(finite[0] & (metrics[0] >= 0)), "must be finite and >= 0 on a valid row"),
            ("mae", valid & ~(finite[1] & (metrics[1] >= 0)), "must be finite and >= 0 on a valid row"),
            ("r2", valid & ~(finite[2] & (metrics[2] <= 1)), "must be finite and <= 1 on a valid row"),
            *((name, ~valid & (np.array(column) != "NA"), "must be NA on an invalid row")
              for name, column in zip(("rmse", "mae", "r2"), cells[10:]))):
        if bad.any():
            cell = cells[_RUNS_CSV_COLUMNS.index(name)][int(np.argmax(bad))]
            raise ValueError(f"{name} {rule}, got {cell!r}")
    return [np.array(cells[0]), output, np.array(cells[2]), level, repeat, np.array(cells[5]),
            valid, reason, n_test, n_finite, *metrics]


def _raise_at_first_bad_line(path) -> None:
    """Raise the ValueError, naming the path and the line, of the first
    runs.csv row without 13 fields or with a cell that ``_run_columns``
    rejects."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in filter(None, reader):
            if len(row) != len(_RUNS_CSV_COLUMNS):
                raise ValueError(f"{path}: line {reader.line_num} does not have "
                                 f"{len(_RUNS_CSV_COLUMNS)} fields")
            try:
                _run_columns([row])
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def read_runs_csv(path) -> RunTable:
    """Parse a runs.csv back into a RunTable (see its docstring for what
    runs.csv does not hold), CSV_BLOCK cells (256 rows) at a time, column
    by column.

    Raises ValueError, naming the path and the line, for a header other
    than RUNS_CSV_HEADER, a row without 13 fields, a valid cell other than
    true or false, a number that does not parse (a metric only on a valid
    row), a regime, output, fixed axis or method that is not one of the
    protocol's, or a row that contradicts itself (see ``_run_columns``: a
    reason that is not a run reason code, valid and reason that disagree,
    a fixed level that is not finite, a negative repeat, n_test below 1,
    n_finite outside 0 to n_test, a valid row's metric out of range, an
    invalid row's metric other than NA); and naming the path for a file
    with no row.
    """
    blocks = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RUNS_CSV_HEADER.split(","):
            raise ValueError(f"{path}: unexpected runs.csv header {header}")
        rows = filter(None, reader)  # a blank line is no row
        while block := list(itertools.islice(rows, max(1, CSV_BLOCK // len(_RUNS_CSV_COLUMNS)))):
            try:
                if any(len(row) != len(_RUNS_CSV_COLUMNS) for row in block):
                    raise ValueError  # found and named below
                blocks.append(_run_columns(block))
            except ValueError:
                _raise_at_first_bad_line(path)
                raise
    if not blocks:
        raise ValueError(f"{path}: no runs")
    columns = [np.concatenate(column) for column in zip(*blocks)]
    return RunTable(**dict(zip(_RUNS_CSV_COLUMNS, columns)),
                    condition_estimate=np.full(len(columns[0]), np.nan))


def write_summary_csv(table: SummaryTable, path) -> None:
    rows = table.rows
    metrics = np.array([  # NaN where a row has no value
        (r.rmse_mean, *((r.rmse_ci.lower, r.rmse_ci.upper) if r.rmse_ci else (None,) * 2),
         r.mae_mean, r.r2_mean, *((r.r2_ci.lower, r.r2_ci.upper) if r.r2_ci else (None,) * 2))
        for r in rows], dtype=float)
    write_columns(path, SUMMARY_CSV_HEADER, [
        np.array([getattr(r, name) for r in rows])
        for name in ("regime", "output_index", "method", "valid_runs")] + list(metrics.T))


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
    write_columns(path, header, grid.T)


def export_pred_vs_true(runs: RunTable) -> list[np.ndarray]:
    """Scatter columns (regime, output, axis, level, repeat, method, y_true,
    y_pred) in SCATTER_CSV_HEADER order, one entry per test point of every
    valid run. Invalid runs are excluded and logged; a table read from
    runs.csv holds no predictions and raises ValueError.
    """
    if runs.y_true is None:
        raise ValueError("the run table holds no predictions (read from runs.csv)")
    skipped = int(np.count_nonzero(~runs.valid))
    if skipped:
        log.info("export_pred_vs_true: skipped %d invalid records", skipped)
    point = np.repeat(runs.valid, runs.n_test)  # over the flat arrays
    return [np.repeat(getattr(runs, name), runs.n_test)[point] for name in (
        "regime", "output_index", "fixed_axis", "fixed_level", "repeat", "method")] + [
        runs.y_true[point], runs.y_pred[point]]


def write_scatter_csv(columns, path) -> None:
    write_columns(path, SCATTER_CSV_HEADER, columns)


def diagnose_slices(dataset: FactorialDataset, fixed_axis: str | None = None,
                    fixed_level: float | None = None) -> list[dict]:
    """Geometry report per slice: fill distance, separation, mesh ratio.

    Slice geometry does not depend on output or regime, so reports are
    emitted once per (axis, level). ``fixed_level`` names design levels as
    in ``find_slice`` (``protocol._level_match``). Slices whose nodes are
    equal bit for bit share one ``geometry_report``.
    """
    reports, by_nodes = [], {}
    for axis in AXES:
        if fixed_axis is not None and axis != fixed_axis:
            continue
        for level_index, level in enumerate(dataset.spec.axis_levels(axis)):
            if fixed_level is not None and not _level_match(level, fixed_level):
                continue
            nodes = slice_nodes(dataset, axis, level_index)[1]
            key = (nodes.shape, nodes.tobytes())
            if key not in by_nodes:
                by_nodes[key] = geometry_report(nodes)
            reports.append({"fixed_axis": axis, "fixed_level": float(level), **by_nodes[key]})
    if not reports:
        given = [f"{name}={value}" for name, value in (("axis", fixed_axis), ("level", fixed_level))
                 if value is not None]
        raise ValueError(f"no slice matches {' and '.join(given)}")
    return reports


def write_json(payload, path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
