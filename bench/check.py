"""Correctness checks for the benchmark's workloads.

Two kinds of check run on the artifacts of a pass:

* Oracle checks hold for every seed. Cubic validity is predicted by an
  independent convex-hull test (a cubic run is valid exactly when every test
  point lies in the hull of its training points, and ``n_finite`` counts the
  test points inside it); every RBF run must be valid; ``summary.csv`` must
  agree with the means of the valid rows of ``runs.csv``. Post-processing
  grids must cover the cells inside the slice hull and reproduce the data at
  the slice corners; ``diagnose`` must report the grid geometry of each slice.
* Reference checks apply to seeds recorded in ``references.json``: the reason
  histogram and per-grid defined-cell counts must match exactly, and every
  ``summary.csv`` value and grid checksum must lie within the stated
  tolerance. Noise-free grids do not depend on the seed, so they are held to
  the recorded references on every seed. Artifact digests are compared and reported; a digest mismatch
  with everything else in tolerance is a declared behaviour change, not a
  failure.

The checks take the tasks and splits from ``surfbench.protocol``: they are the
inputs the seed defines, not results under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).resolve().parent / "references.json"


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


@dataclass
class CheckResult:
    """Outcome of checking one pass's artifacts."""

    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def fingerprint(outdir) -> dict[str, str]:
    """sha256 of every artifact in a pass directory, except ``meta.json``,
    which records the run's own wall time."""
    return {
        p.name: sha256(p) for p in sorted(Path(outdir).iterdir())
        if p.is_file() and p.name != "meta.json"
    }


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _num(text: str) -> float | None:
    return None if text == "NA" else float(text)


def _close(a, b, tol) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol["abs"] + tol["rel"] * abs(b)


def _diff(a, b) -> float:
    if a is None or b is None:
        return 0.0 if a is None and b is None else math.inf
    return abs(a - b)


def hull(points: np.ndarray) -> np.ndarray:
    """Convex hull vertices, counterclockwise (Andrew's monotone chain)."""
    pts = sorted(map(tuple, np.asarray(points, dtype=float)))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return np.array(chain(pts) + chain(pts[::-1]))


def inside_hull(points, queries, rel_tol: float = 1e-9) -> np.ndarray:
    """Boolean mask of queries inside or on the convex hull of ``points``."""
    h = hull(points)
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    a, b = h, np.roll(h, -1, axis=0)
    edge = b - a
    rel = q[:, None, :] - a[None, :, :]
    cross = edge[None, :, 0] * rel[..., 1] - edge[None, :, 1] * rel[..., 0]
    extent = float(np.ptp(points, axis=0).max())
    return np.all(cross >= -rel_tol * extent * extent, axis=1)


def reason_histogram(rows) -> dict[str, dict[str, int]]:
    """Counts of runs.csv reason codes per method."""
    hist: dict[str, Counter] = {}
    for row in rows:
        hist.setdefault(row[5], Counter())[row[7]] += 1
    return {m: dict(sorted(c.items())) for m, c in sorted(hist.items())}


def _expected_runs(dataset, config):
    """(method, reason, n_test, n_finite) of every run, in runs.csv order,
    predicted from the hull of each split's training points."""
    from surfbench.protocol import REGIMES, enumerate_slices, make_splits

    out = []
    for regime in REGIMES:
        for task in enumerate_slices(dataset, regime):
            for plan in make_splits(task, config.repeats_per_slice,
                                    config.train_fraction, config.random_seed):
                test = task.points[plan.test_indices]
                y = task.values[plan.test_indices]
                n_test = len(test)
                n_in = int(inside_hull(task.points[plan.train_indices], test).sum())
                metrics_reason = ("too_few_test_points" if n_test < 2 else
                                  "zero_target_variance" if float(np.var(y)) == 0.0 else "ok")
                out.append(("cubic", "test_points_outside_support" if n_in < n_test
                            else metrics_reason, n_test, n_in))
                out.append(("rbf", metrics_reason, n_test, n_test))
    return out


def check_experiment(outdir, dataset, config, references: dict, tol: dict) -> CheckResult:
    """Check runs.csv and summary.csv of one experiment pass."""
    reference = references.get(str(config.random_seed))
    res = CheckResult()
    outdir = Path(outdir)
    _, rows = read_csv(outdir / "runs.csv")
    expected = _expected_runs(dataset, config)
    res.expect(len(rows) == len(expected), f"runs.csv has {len(rows)} rows, expected {len(expected)}")
    wrong = 0
    for row, (method, reason, n_test, n_finite) in zip(rows, expected):
        got = (row[5], row[7], int(row[8]), int(row[9]))
        if got != (method, reason, n_test, n_finite):
            wrong += 1
            continue
        if reason == "ok":
            rmse, mae, r2 = (float(x) for x in row[10:13])
            if not (rmse >= mae >= 0.0 and r2 <= 1.0):
                wrong += 1
    res.expect(wrong == 0, f"{wrong} runs.csv rows disagree with the hull oracle or metric bounds")

    hist = reason_histogram(rows)
    res.facts["histogram"] = hist
    valid: dict[tuple, list] = {}
    for row in rows:
        if row[6] == "true":
            valid.setdefault((row[0], row[1], row[5]), []).append([float(x) for x in row[10:13]])
    _, summary = read_csv(outdir / "summary.csv")
    bad = 0
    for row in summary:
        vals = valid.get((row[0], row[1], row[2]), [])
        if int(row[3]) != len(vals):
            bad += 1
            continue
        if not vals:
            continue
        rmse, mae, r2 = np.mean(vals, axis=0)
        lo, hi, r2lo, r2hi = (_num(row[i]) for i in (5, 6, 9, 10))
        got = [_num(row[i]) for i in (4, 7, 8)]
        if not (all(_close(g, float(w), tol) for g, w in zip(got, (rmse, mae, r2)))
                and lo <= got[0] <= hi and r2lo <= got[2] <= r2hi):
            bad += 1
    res.expect(bad == 0, f"{bad} summary.csv rows disagree with the runs.csv means")

    digests = {"runs.csv": sha256(outdir / "runs.csv"), "summary.csv": sha256(outdir / "summary.csv")}
    res.facts["digests"] = digests
    if reference is None:
        res.notes.append("no reference recorded for this seed: oracle checks only")
        return res
    res.expect(hist == reference["histogram"],
               f"reason histogram {hist} differs from reference {reference['histogram']}")
    largest = 0.0
    out_of_tol = 0
    for got_row, ref_row in zip(summary, reference["summary"]):
        for g, r in zip(got_row[3:], ref_row[3:]):
            largest = max(largest, _diff(_num(g), _num(r)))
            out_of_tol += not _close(_num(g), _num(r), tol)
    res.expect(len(summary) == len(reference["summary"]) and out_of_tol == 0,
               f"{out_of_tol} summary.csv values outside tolerance of the reference")
    res.facts["largest_summary_diff"] = largest
    _compare_digests(res, digests, reference["digests"])
    return res


def _compare_digests(res: CheckResult, digests: dict, ref: dict) -> None:
    same = all(digests.get(k) == v for k, v in ref.items())
    res.facts["digests_match_reference"] = same
    if same:
        res.notes.append("artifact digests match the reference")
    elif res.ok:
        res.notes.append("behaviour change: digests differ from the reference, "
                         "values within tolerance")


def grid_stats(path, rows) -> dict:
    """Defined-cell count, checksums and digest of one surface grid CSV."""
    vals = np.array([float(r[2]) for r in rows if r[2] != "NA"])
    return {
        "defined": int(vals.size),
        "sum": float(vals.sum()),
        "l2": float(np.sqrt(vals @ vals)),
        "sha256": sha256(path),
    }


def check_postprocess(outdir, dataset, config, commands, stdout: dict, prepared_summary,
                      references: dict, tol: dict) -> CheckResult:
    """Check the report text, every surface grid and the diagnose JSON."""
    from surfbench.protocol import enumerate_slices

    res = CheckResult()
    outdir = Path(outdir)
    _, summary = read_csv(prepared_summary)
    report_lines = stdout[0].splitlines()[1:]
    expect_lines = []
    for row in summary:
        rmse, r2 = (_num(row[i]) for i in (4, 8))
        expect_lines.append((row[0], row[1], row[2], row[3],
                             "NA" if rmse is None else f"{rmse:.3f}",
                             "NA" if r2 is None else f"{r2:.3f}"))
    res.expect([tuple(line.split()) for line in report_lines] == expect_lines,
               "report output disagrees with the prepared summary.csv")

    tasks = {}
    for regime in ("noise-free", "noisy"):
        for task in enumerate_slices(dataset, regime):
            tasks[(regime, task.fixed_axis, task.level_index, task.output_index)] = task
    res_n = config.grid_resolution
    grids = {}
    bad = 0
    for cmd in commands:
        if cmd.kind != "surface":
            continue
        task = tasks[cmd.key]
        path = outdir / cmd.out
        _, rows = read_csv(path)
        stats = grids[cmd.out] = grid_stats(path, rows)
        lo, hi = task.points.min(axis=0), task.points.max(axis=0)
        gu, gv = np.meshgrid(np.linspace(lo[0], hi[0], res_n),
                             np.linspace(lo[1], hi[1], res_n), indexing="ij")
        cells = np.column_stack([gu.ravel(), gv.ravel()])
        coords = np.array([[float(r[0]), float(r[1])] for r in rows])
        n_inside = int(inside_hull(task.points, cells).sum())
        corners_ok = True
        for corner in ((lo[0], lo[1]), (lo[0], hi[1]), (hi[0], lo[1]), (hi[0], hi[1])):
            node = np.nonzero(np.all(task.points == corner, axis=1))[0]
            cell = np.nonzero(np.all(coords == corner, axis=1))[0]
            if node.size and cell.size:
                corners_ok &= _close(_num(rows[cell[0]][2]), float(task.values[node[0]]), tol)
        if not (coords.shape == cells.shape and np.array_equal(coords, cells)
                and stats["defined"] == n_inside and corners_ok):
            bad += 1
    res.expect(bad == 0, f"{bad} surface grids fail the hull, coordinate or corner checks")

    diag = json.loads((outdir / "diagnose.json").read_text())
    seen = {}
    for task in enumerate_slices(dataset, "noise-free"):
        seen.setdefault((task.fixed_axis, task.fixed_level), task.points)
    diag_ok = len(diag) == len(seen)
    for entry in diag:
        pts = seen.get((entry["fixed_axis"], entry["fixed_level"]))
        if pts is None:
            diag_ok = False
            continue
        nu, nv = (len(np.unique(pts[:, k])) for k in (0, 1))
        half_spacing = min(np.diff(np.unique(pts[:, k])).min() for k in (0, 1)) / 2.0
        diag_ok &= (entry["n_nodes"] == nu * nv and entry["n_hull"] == 2 * (nu + nv) - 4
                    and _close(entry["separation_distance"], float(half_spacing), tol)
                    and _close(entry["mesh_ratio"],
                               entry["fill_distance"] / entry["separation_distance"], tol))
    res.expect(diag_ok, "diagnose.json disagrees with the slice grid geometry")

    res.facts["grids"] = len(grids)
    res.facts["defined_cells"] = sum(g["defined"] for g in grids.values())
    digests = {name: g["sha256"] for name, g in grids.items()}
    digests["diagnose.json"] = sha256(outdir / "diagnose.json")
    res.facts["grids_detail"] = grids
    res.facts["digests"] = {"diagnose.json": digests["diagnose.json"]}
    if not references:
        res.notes.append("no reference recorded: oracle checks only")
        return res
    exact = references.get(str(config.random_seed))
    if exact is None:
        # Noise-free grids and slice geometry do not depend on the seed, so
        # any recorded seed pins them.
        exact_or_any = next(iter(references.values()))
        ref_grids = {k: g for k, g in exact_or_any["grids"].items() if k.startswith("grid_noise-free_")}
        res.notes.append("no reference recorded for this seed: noisy grids get oracle checks only")
    else:
        exact_or_any = exact
        ref_grids = exact["grids"]
        res.expect(set(grids) == set(ref_grids), "grid set differs from the reference")
    res.expect(ref_grids.keys() <= grids.keys(), "grids missing that the reference has")
    common = grids.keys() & ref_grids.keys()
    count_bad = sum(grids[k]["defined"] != ref_grids[k]["defined"] for k in common)
    res.expect(count_bad == 0, f"{count_bad} grids differ from the reference in defined cells")
    largest = 0.0
    out_of_tol = 0
    for k in common:
        for stat in ("sum", "l2"):
            largest = max(largest, _diff(grids[k][stat], ref_grids[k][stat]))
            out_of_tol += not _close(grids[k][stat], ref_grids[k][stat], tol)
    res.expect(out_of_tol == 0, f"{out_of_tol} grid checksums outside tolerance of the reference")
    res.facts["grids_vs_reference"] = len(common)
    res.facts["largest_grid_diff"] = largest
    ref_digests = {k: ref_grids[k]["sha256"] for k in common}
    ref_digests["diagnose.json"] = exact_or_any["diagnose_sha256"]
    _compare_digests(res, {k: digests[k] for k in ref_digests}, ref_digests)
    return res
