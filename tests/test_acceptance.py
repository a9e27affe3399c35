"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to stream the lines.
Criteria 1-5 exercise the full default experiment (the session fixture);
criteria 6-12 are standalone property suites with independent oracles;
criterion 13 checks the claims' signs on seeds 1-20.
"""

import math
from collections import Counter

import numpy as np
import pytest

from conftest import hull, hull_area, min_separated, per_run, split_pairs, triangle_areas
from surfbench.config import ExperimentConfig
from surfbench.cubic import fit_cubic
from surfbench.errors import DegenerateGeometry
from surfbench.geometry import _fill_distance, as_points, convex_hull_polygon, geometry_report, triangulate
from surfbench.metrics import _resample_means, bootstrap_ci, compute_metrics
from surfbench.protocol import (
    METHODS, REGIMES, enumerate_slices, execute_experiment, make_splits, reason_histogram,
)
from surfbench.rbf import eval_rbf, fit_rbf
from surfbench.report import paired_contrast, write_runs_csv
from surfbench.synthdata import generate
from test_geometry import assert_delaunay
from test_rbf import naive_saddle_solve

CUBIC_NODE_TOL = 1e-12
RBF_NODE_TOL = 1e-8
AFFINE_TOL = 1e-8
ORACLE_TOL = 1e-10
METRIC_TOL = 1e-12

OUTPUT_SIGMAS = {1: 0.1, 2: 1.0, 3: 2.0}


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")


class TestQualitativeReproduction:
    def test_criterion_01_noise_free_accuracy(self, summary):
        worst_r2 = min(
            summary.row("noise-free", o, m).r2_mean for o in (1, 2, 3) for m in METHODS
        )
        worst_rmse = max(
            summary.row("noise-free", o, m).rmse_mean for o in (1, 2, 3) for m in METHODS
        )
        ok = worst_r2 >= 0.80 and worst_rmse <= 0.25
        report(
            "01 noise-free accuracy",
            ok,
            f"min mean r2 {worst_r2:.3f} >= 0.80, max mean rmse {worst_rmse:.3f} <= 0.25",
        )
        assert ok

    def test_criterion_02_noisy_robustness_ordering(self, summary):
        pairs = [
            (summary.row("noisy", o, "cubic").rmse_mean, summary.row("noisy", o, "rbf").rmse_mean)
            for o in (1, 2, 3)
        ]
        ok = all(c < r for c, r in pairs)
        detail = "; ".join(f"output{o}: {c:.3f} < {r:.3f}" for o, (c, r) in zip((1, 2, 3), pairs))
        report("02 noisy rmse cubic < rbf", ok, detail)
        assert ok

    def test_criterion_03_failure_mode_reproduction(self, summary):
        rows = {
            (o, m): summary.row("noisy", o, m).r2_mean for o in (2, 3) for m in METHODS
        }
        negative = all(v < 0 for v in rows.values())
        ordering = all(rows[(o, "rbf")] < rows[(o, "cubic")] for o in (2, 3))
        ok = negative and ordering
        report(
            "03 noisy failure modes",
            ok,
            f"r2 cubic/rbf output2 {rows[(2, 'cubic')]:.3f}/{rows[(2, 'rbf')]:.3f}, "
            f"output3 {rows[(3, 'cubic')]:.3f}/{rows[(3, 'rbf')]:.3f}",
        )
        assert ok

    def test_criterion_04_run_count_asymmetry(self, summary):
        def valid_runs(regime, output, method):
            return summary.row(regime, output, method).valid_runs

        rbf_ok = all(valid_runs(g, o, "rbf") == 440 for g in REGIMES for o in (1, 2, 3))
        cubic_ok = all(
            valid_runs(g, o, "cubic") < valid_runs(g, o, "rbf") for g in REGIMES for o in (1, 2, 3)
        )
        ok = rbf_ok and cubic_ok
        cubic_counts = [valid_runs(g, o, "cubic") for g in REGIMES for o in (1, 2, 3)]
        report("04 run-count asymmetry", ok, f"rbf all 440, cubic {cubic_counts}")
        assert ok

    def test_criterion_05_noise_scale_monotonicity(self, summary):
        ok = True
        details = []
        for m in METHODS:
            seq = [summary.row("noisy", o, m).rmse_mean for o in (1, 2, 3)]
            ok = ok and seq[0] < seq[1] < seq[2]
            details.append(f"{m}: " + " < ".join(f"{v:.3f}" for v in seq))
        report("05 noisy rmse grows with sigma", ok, "; ".join(details))
        assert ok

    def test_noise_free_bulk_sanity(self, full_run):
        # supporting property: valid noise-free runs beat the mean predictor,
        # with at most 1% slack for near-degenerate splits
        for method in METHODS:
            sel = full_run.valid & (full_run.regime == "noise-free") & (full_run.method == method)
            n, violations = np.count_nonzero(sel), np.count_nonzero(full_run.r2[sel] <= 0)
            assert violations <= 0.01 * n, (method, violations, n)

    def test_summary_valid_runs_agree_with_the_reason_histogram(self, full_run, summary):
        # two independent aggregations of validity: the valid column per
        # summary row, and the reason codes per regime and method
        hist = reason_histogram(full_run)
        totals = Counter()
        for regime in REGIMES:
            for method in METHODS:
                valid = sum(summary.row(regime, o, method).valid_runs for o in (1, 2, 3))
                assert valid == hist[regime][method]["ok"], (regime, method)
                totals[method] += valid
        assert totals == {"cubic": 402, "rbf": 2640}


# The sign of the paired RMSE contrast (RBF minus cubic, over jointly valid
# runs) the paper's claims give: the RBF is more accurate on noise-free
# outputs 1 and 2, the cubic on noise-free output 3 and on every noisy output.
CONTRAST_SIGNS = {("noise-free", 1): -1, ("noise-free", 2): -1, ("noise-free", 3): 1,
                  ("noisy", 1): 1, ("noisy", 2): 1, ("noisy", 3): 1}


def test_criterion_13_claims_hold_on_seeds_1_to_20():
    # Every sign holds on every seed. The narrowest case is seed 17, noisy
    # output 1: +4.1e-5 over 66 jointly valid runs.
    flipped = []
    for seed in range(1, 21):
        config = ExperimentConfig(random_seed=seed)
        runs = execute_experiment(generate(noise=config.noise_spec()), config)
        signs = {(regime, output): int(np.sign(mean)) for regime, output, mean, _ in paired_contrast(runs)}
        flipped += [(seed, key) for key, sign in CONTRAST_SIGNS.items() if signs.get(key) != sign]
    ok = not flipped
    report("13 paired rmse contrast signs on seeds 1-20", ok, f"flipped: {flipped or 'none'}")
    assert ok


class TestPropertySuites:
    def test_criterion_06_exact_interpolation(self):
        rng = np.random.default_rng(600)
        worst_cubic = worst_rbf = 0.0
        instances = 0
        while instances < 100:
            pts = min_separated(rng, int(rng.integers(5, 15)), 0.08)
            if len(pts) < 5:
                continue
            values = rng.normal(0.0, 2.0, len(pts))
            scale = max(1.0, np.abs(values).max())
            try:
                cubic = fit_cubic(pts, values)
            except DegenerateGeometry:
                continue
            instances += 1
            worst_cubic = max(
                worst_cubic, np.abs(cubic.evaluate(pts) - values).max() / scale
            )
            rbf = fit_rbf(pts, values)
            worst_rbf = max(worst_rbf, np.abs(eval_rbf(rbf, pts) - values).max() / scale)
        ok = worst_cubic <= CUBIC_NODE_TOL and worst_rbf <= RBF_NODE_TOL
        report(
            "06 exact interpolation",
            ok,
            f"cubic {worst_cubic:.2e} <= 1e-12, rbf {worst_rbf:.2e} <= 1e-8, 100 instances",
        )
        assert ok

    def test_criterion_07_affine_precision(self):
        rng = np.random.default_rng(700)
        worst = 0.0
        instances = 0
        while instances < 60:
            pts = min_separated(rng, int(rng.integers(5, 13)), 0.08)
            if len(pts) < 5:
                continue
            a, b, c = rng.uniform(-5.0, 5.0, 3)
            values = a + b * pts[:, 0] + c * pts[:, 1]
            try:
                cubic = fit_cubic(pts, values)
            except DegenerateGeometry:
                continue
            instances += 1
            rbf = fit_rbf(pts, values)
            queries = rng.uniform(0.0, 1.0, (50, 2))
            truth = a + b * queries[:, 0] + c * queries[:, 1]
            pred_cubic = cubic.evaluate(queries)
            inside = np.isfinite(pred_cubic)
            if inside.any():
                worst = max(worst, np.abs(pred_cubic[inside] - truth[inside]).max())
            worst = max(worst, np.abs(eval_rbf(rbf, queries) - truth).max())
        ok = worst <= AFFINE_TOL
        report("07 affine precision", ok, f"worst {worst:.2e} <= 1e-8, {instances} instances")
        assert ok

    def test_criterion_08_rbf_oracle_equivalence(self):
        rng = np.random.default_rng(800)
        worst_w = worst_pred = 0.0
        for _ in range(30):
            pts = min_separated(rng, int(rng.integers(5, 13)), 0.2)
            values = rng.uniform(-1.0, 1.0, len(pts))
            surface = fit_rbf(pts, values)
            w, c = naive_saddle_solve(pts.tolist(), values.tolist())
            worst_w = max(
                worst_w, np.abs(surface.weights - w).max() / max(1.0, np.abs(w).max())
            )
            queries = rng.uniform(0.0, 1.0, (20, 2))
            d = queries[:, None, :] - pts[None, :, :]
            k = np.sqrt(1.0 + np.hypot(d[..., 0], d[..., 1]) ** 2)
            oracle_pred = k @ w + np.column_stack([np.ones(len(queries)), queries]) @ c
            worst_pred = max(
                worst_pred, np.abs(eval_rbf(surface, queries) - oracle_pred).max()
            )
        ok = worst_w <= ORACLE_TOL and worst_pred <= ORACLE_TOL
        report(
            "08 rbf oracle equivalence",
            ok,
            f"weights {worst_w:.2e}, predictions {worst_pred:.2e} <= 1e-10",
        )
        assert ok

    def test_criterion_09_metrics_oracle(self):
        m1 = compute_metrics([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
        worked = (
            abs(m1.rmse - 0.816496580927726) <= METRIC_TOL
            and abs(m1.mae - 2.0 / 3.0) <= METRIC_TOL
            and abs(m1.r2) <= METRIC_TOL
        )
        m2 = compute_metrics([0.0, 2.0], [1.0, 1.0])
        worked = worked and m2.rmse == 1.0 and m2.mae == 1.0 and abs(m2.r2) <= METRIC_TOL
        rng = np.random.default_rng(900)
        fuzz_ok = True
        for _ in range(10_000):
            n = int(rng.integers(2, 12))
            y = rng.normal(0.0, rng.uniform(0.1, 10.0), n)
            pred = y + rng.normal(0.0, rng.uniform(0.0, 5.0), n)
            m = compute_metrics(y, pred)
            if m is not None and m.rmse < m.mae - 1e-12 * max(1.0, m.rmse):
                fuzz_ok = False
                break
        ok = worked and fuzz_ok
        report("09 metrics oracle", ok, "worked examples 1e-12; rmse >= mae over 1e4 cases")
        assert ok

    def test_criterion_10_geometry_invariants(self):
        rng = np.random.default_rng(1000)
        checked = 0
        attempts = 0
        while checked < 200 and attempts < 1000:
            attempts += 1
            if rng.random() < 0.25:  # cocircular-heavy grids, sometimes jittered
                k = int(rng.integers(2, 5))
                pts = np.array(
                    [[x + 0.3 * rng.integers(0, 2), y] for x in range(k) for y in range(k)],
                    dtype=float,
                )
                pts = pts + rng.normal(0.0, 1e-3 * rng.integers(0, 2), pts.shape)
            else:
                pts = min_separated(rng, int(rng.integers(3, 22)), 0.05)
            if len(pts) < 3:
                continue
            try:
                tri = triangulate(pts)
            except DegenerateGeometry:
                continue
            checked += 1
            assert_delaunay(tri)
            assert tri.n_triangles == 2 * tri.n_vertices - len(hull(tri)) - 2
            assert (triangle_areas(tri) > 0).all()
            assert triangle_areas(tri).sum() == pytest.approx(hull_area(pts), rel=1e-9)

        ratio_ok = True
        for _ in range(100):
            pts = min_separated(rng, int(rng.integers(4, 16)), 0.06)
            if len(pts) < 3:
                continue
            poly = convex_hull_polygon(pts)
            slack = math.hypot(np.ptp(poly[:, 0]) / 199.0, np.ptp(poly[:, 1]) / 199.0)
            desc = geometry_report(pts)
            if desc["mesh_ratio"] < 1.0 - slack / desc["separation_distance"]:
                ratio_ok = False
                break

        # brute-force fill distance over an explicit (counterclockwise) square domain
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        fill_ok = True
        for _ in range(10):
            pts = min_separated(rng, 8, 0.1)
            mine = _fill_distance(as_points(pts), square, 150)
            brute = 0.0
            k = 97
            for i in range(k):
                for j in range(k):
                    gx, gy = i / (k - 1.0), j / (k - 1.0)
                    nearest = min(math.hypot(gx - px, gy - py) for px, py in pts)
                    brute = max(brute, nearest)
            tol = max(math.sqrt(2.0) / 149.0, math.sqrt(2.0) / 96.0)
            if abs(mine - brute) > tol:
                fill_ok = False
                break

        ok = checked == 200 and ratio_ok and fill_ok
        report(
            "10 geometry invariants",
            ok,
            f"{checked} triangulations; mesh ratio >= 1 (100 configs); fill vs brute force",
        )
        assert ok

    def test_criterion_11_pairing_and_determinism(
        self, full_run, default_dataset, default_config, tmp_path
    ):
        rerun = execute_experiment(default_dataset, default_config)
        path_a = tmp_path / "runs_a.csv"
        path_b = tmp_path / "runs_b.csv"
        write_runs_csv(full_run, path_a)
        write_runs_csv(rerun, path_b)
        identical = path_a.read_bytes() == path_b.read_bytes()

        # each split's cubic and RBF runs are scored on the targets of the
        # test nodes of its make_splits plan
        cubic, rbf = split_pairs(full_run)
        targets = [
            task.values[plan.test_indices].tobytes()
            for regime in REGIMES for task in enumerate_slices(default_dataset, regime)
            for plan in make_splits(task, default_config.repeats_per_slice,
                                    default_config.train_fraction, default_config.random_seed)
        ]
        y_true = per_run(full_run, "y_true")
        paired = all(
            [a.tobytes() for a in y_true[part]] == targets for part in (cubic, rbf)
        )
        ok = identical and paired
        report(
            "11 pairing and determinism",
            ok,
            f"byte-identical runs.csv {identical}; {len(full_run) // 2} paired splits",
        )
        assert ok

    def test_criterion_12_bootstrap_properties(self):
        degenerate = bootstrap_ci([3.25] * 12, resamples=400, seed=5)
        degenerate_ok = (
            degenerate.lower == degenerate.upper
            and degenerate.lower == pytest.approx(3.25, rel=1e-15)
        )
        rng = np.random.default_rng(1200)
        bounds_ok = True
        for _ in range(40):
            samples = rng.normal(0.0, rng.uniform(0.1, 5.0), int(rng.integers(2, 60)))
            seed = int(rng.integers(0, 2**31))
            ci = bootstrap_ci(samples, resamples=300, seed=seed)
            means = _resample_means(samples, 300, seed)
            if not (means.min() <= ci.lower <= ci.upper <= means.max()):
                bounds_ok = False
                break
        a = bootstrap_ci([1.0, 2.0, 5.0], resamples=250, seed=77)
        b = bootstrap_ci([1.0, 2.0, 5.0], resamples=250, seed=77)
        deterministic = (a.lower, a.upper) == (b.lower, b.upper)
        ok = degenerate_ok and bounds_ok and deterministic
        report(
            "12 bootstrap properties",
            ok,
            "degenerate CI; bounds within resample extremes; fixed-seed determinism",
        )
        assert ok
