import dataclasses
import gc
import hashlib
import inspect
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    InvertedInCircle, concat, hull_probes, one_run, order_probe_sets, per_run, reference_csv,
    run_split, split_pairs, stage,
)
from surfbench import cubic, geometry, protocol
from surfbench.config import ExperimentConfig
from surfbench.geometry import convex_hull_polygon, hull_cover, locate, triangulate
from surfbench.metrics import compute_metrics
from surfbench.protocol import (
    _FLAT,
    AXES,
    REGIMES,
    RunTable,
    SliceTask,
    SplitPlan,
    _plan_splits,
    _run_tasks,
    _group_columns,
    enumerate_slices,
    execute_experiment,
    find_slice,
    make_splits,
    rbf_condition_summary,
    valid_run_counts,
)
from surfbench.errors import (
    DegenerateGeometry,
    DuplicateNodes,
    IllConditionedWarning,
    InsufficientNodes,
    InterpolationError,
    NonFiniteInput,
    reason_code,
)
from surfbench.rbf import eval_rbf, fit_rbf
from surfbench.report import (
    _RUNS_CSV_COLUMNS, RUNS_CSV_HEADER, summarize, write_runs_csv, write_summary_csv,
)
from surfbench.synthdata import DesignSpec, NoiseSpec, generate


def make_task(points, values, **overrides):
    defaults = dict(
        regime="noise-free",
        output_index=1,
        fixed_axis="x3",
        fixed_level=2.0,
        level_index=0,
        free_axes=("x1", "x2"),
        points=np.asarray(points, dtype=float),
        values=np.asarray(values, dtype=float),
        row_ids=np.arange(len(points)),
    )
    defaults.update(overrides)
    return SliceTask(**defaults)


class TestEnumerateSlices:
    def test_default_design_has_33_tasks_per_regime(self, default_dataset):
        tasks = enumerate_slices(default_dataset, "noise-free")
        assert len(tasks) == 33
        per_output = sum(1 for t in tasks if t.output_index == 1)
        assert per_output == 11  # 4 + 4 + 3 slices

    def test_x3_slice_has_16_points(self, default_dataset):
        task = next(
            t for t in enumerate_slices(default_dataset, "noise-free")
            if t.fixed_axis == "x3" and t.fixed_level == 2.0 and t.output_index == 1
        )
        assert task.n == 16
        assert task.free_axes == ("x1", "x2")

    def test_x1_slice_has_12_points(self, default_dataset):
        task = next(
            t for t in enumerate_slices(default_dataset, "noise-free")
            if t.fixed_axis == "x1" and t.fixed_level == 1.0 and t.output_index == 2
        )
        assert task.n == 12
        assert task.free_axes == ("x2", "x3")

    def test_all_rows_with_fixed_level_included(self, default_dataset):
        for task in enumerate_slices(default_dataset, "noisy"):
            axis_col = AXES.index(task.fixed_axis)
            expected = np.nonzero(default_dataset.x[:, axis_col] == task.fixed_level)[0]
            np.testing.assert_array_equal(task.row_ids, expected)
            assert task.n in (12, 16)

    def test_regime_selects_channel(self, default_dataset):
        clean = enumerate_slices(default_dataset, "noise-free")[0]
        noisy = enumerate_slices(default_dataset, "noisy")[0]
        np.testing.assert_array_equal(
            clean.values, default_dataset.y_clean[clean.row_ids, 0]
        )
        np.testing.assert_array_equal(
            noisy.values, default_dataset.y_noisy[noisy.row_ids, 0]
        )


    def test_find_slice_equals_the_enumerated_task(self, default_dataset):
        count = 0
        for regime in REGIMES:
            for task in enumerate_slices(default_dataset, regime):
                # the CLI passes the level back through its repr, and any
                # level within 1e-12 selects the design level
                for level in (task.fixed_level, float(repr(task.fixed_level)),
                              task.fixed_level * (1.0 + 1e-13)):
                    found = find_slice(default_dataset, regime, task.fixed_axis, level,
                                       task.output_index)
                    for field in dataclasses.fields(SliceTask):
                        a, b = getattr(found, field.name), getattr(task, field.name)
                        if isinstance(b, np.ndarray):
                            assert a.dtype == b.dtype and a.shape == b.shape, field.name
                            assert a.tobytes() == b.tobytes() and not a.flags.writeable, field.name
                        else:
                            assert type(a) is type(b) and a == b, field.name
                count += 1
        assert count == 66

    @pytest.mark.parametrize("args, message", [
        (("noise-free", "x1", 9.0, 1), "no slice with x1=9 and output 1"),
        (("noise-free", "x3", 2.0, 4), "no slice with x3=2 and output 4"),
        (("noise-free", "x4", 2.0, 1), "no slice with x4=2 and output 1"),
        (("wet", "x3", 2.0, 1), "unknown regime 'wet'"),
    ])
    def test_find_slice_rejects_what_enumerate_slices_lacks(self, default_dataset, args, message):
        with pytest.raises(ValueError, match=message):
            find_slice(default_dataset, *args)


class TestMakeSplits:
    def test_split_sizes_round_half_up(self, default_dataset):
        tasks = enumerate_slices(default_dataset, "noise-free")
        t12 = next(t for t in tasks if t.n == 12)
        t16 = next(t for t in tasks if t.n == 16)
        p12 = make_splits(t12, repeats=1, alpha=0.7, master_seed=42)[0]
        p16 = make_splits(t16, repeats=1, alpha=0.7, master_seed=42)[0]
        assert (len(p12.train_indices), len(p12.test_indices)) == (8, 4)
        assert (len(p16.train_indices), len(p16.test_indices)) == (11, 5)

    def test_partition_is_disjoint_and_complete(self, default_dataset):
        task = enumerate_slices(default_dataset, "noise-free")[0]
        for plan in make_splits(task, repeats=10, alpha=0.7, master_seed=42):
            merged = np.concatenate([plan.train_indices, plan.test_indices])
            assert sorted(merged.tolist()) == list(range(task.n))

    def test_deterministic_across_calls(self, default_dataset):
        task = enumerate_slices(default_dataset, "noisy")[5]
        a = make_splits(task, repeats=40, alpha=0.7, master_seed=42)
        b = make_splits(task, repeats=40, alpha=0.7, master_seed=42)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.train_indices, pb.train_indices)
            np.testing.assert_array_equal(pa.test_indices, pb.test_indices)

    def test_seed_changes_splits(self, default_dataset):
        task = enumerate_slices(default_dataset, "noisy")[5]
        a = make_splits(task, repeats=5, alpha=0.7, master_seed=42)
        b = make_splits(task, repeats=5, alpha=0.7, master_seed=43)
        assert any(
            not np.array_equal(pa.train_indices, pb.train_indices)
            for pa, pb in zip(a, b)
        )

    def test_too_small_slice_rejected(self):
        task = make_task(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                         np.arange(4.0))
        with pytest.raises(InsufficientNodes):
            make_splits(task, repeats=1, alpha=0.7, master_seed=42)


    def test_default_plan_is_pinned(self, full_run):
        # every train/test index array of the 2640 default splits (seed 42),
        # in run order, as little-endian int64
        digest = hashlib.sha256()
        for train, test in zip(per_run(full_run, "train_indices")[0::2],
                               per_run(full_run, "test_indices")[0::2]):
            digest.update(train.astype("<i8").tobytes())
            digest.update(test.astype("<i8").tobytes())
        assert len(full_run) == 2 * 2640
        assert digest.hexdigest() == "bafc9482ab92c7f184adf74691739c726766a978aefbcd93749d74ad8686655e"

    def test_make_splits_gives_the_rows_the_experiment_runs(self, default_dataset, default_config,
                                                            full_run):
        names = ("regime", "output_index", "fixed_axis", "fixed_level", "repeat", "method")
        keys, indices = [], {"train_indices": [], "test_indices": []}
        for regime in REGIMES:
            for task in enumerate_slices(default_dataset, regime):
                for plan in make_splits(task, default_config.repeats_per_slice,
                                        default_config.train_fraction, default_config.random_seed):
                    for method in ("cubic", "rbf"):
                        keys.append((regime, task.output_index, task.fixed_axis, task.fixed_level,
                                     plan.repeat_index, method))
                        indices["train_indices"].append(plan.train_indices)
                        indices["test_indices"].append(plan.test_indices)
        assert list(zip(*(getattr(full_run, name).tolist() for name in names))) == keys
        for name, expected in indices.items():
            got = per_run(full_run, name)
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                np.testing.assert_array_equal(a, b)


class TestRunPair:
    def test_pairing_shares_split_indices(self, default_dataset, default_config):
        task = enumerate_slices(default_dataset, "noise-free")[0]
        plan = make_splits(task, 1, 0.7, 42)[0]
        runs = run_split(task, plan, default_config.rbf_config())
        for name in ("train_indices", "test_indices"):
            cubic, rbf = per_run(runs, name)
            np.testing.assert_array_equal(cubic, rbf)

    def test_all_test_points_outside_hull(self):
        # train nodes form a small inner cluster; test nodes sit far outside
        pts = np.array([
            [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5],
            [5.0, 5.0], [6.0, 5.0], [5.0, 6.0],
        ])
        values = pts[:, 0] + pts[:, 1] ** 2
        task = make_task(pts, values)
        plan = dataclasses.replace(
            make_splits(task, 1, 0.7, 42)[0],
            train_indices=np.arange(5),
            test_indices=np.arange(5, 8),
        )
        runs = run_split(task, plan, ExperimentConfig().rbf_config())
        assert runs.method.tolist() == ["cubic", "rbf"]
        assert not runs.valid[0]
        assert runs.reason[0] == "test_points_outside_support"
        assert runs.n_finite[0] == 0
        assert runs.valid[1]
        assert runs.n_finite[1] == runs.n_test[1] == 3

    def test_partially_covered_split_skips_gradient_estimation(self, monkeypatch):
        # one of three test nodes inside the training hull; the cubic run
        # cannot score, so its gradients must never be estimated
        pts = np.array([
            [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5],
            [0.25, 0.5], [5.0, 5.0], [6.0, 5.0],
        ])
        values = pts[:, 0] + pts[:, 1] ** 2
        task = make_task(pts, values)
        calls = []
        original = cubic._vertex_gradients
        monkeypatch.setattr(cubic, "_vertex_gradients",
                            lambda *args: calls.append(args) or original(*args))
        plan = dataclasses.replace(
            make_splits(task, 1, 0.7, 42)[0],
            train_indices=np.arange(5),
            test_indices=np.arange(5, 8),
        )
        partial = run_split(task, plan, ExperimentConfig().rbf_config())
        assert partial.reason[0] == "test_points_outside_support"
        assert partial.n_finite[0] == 1
        assert np.isnan(per_run(partial, "y_pred")[0]).all()
        assert calls == []

        covered = dataclasses.replace(
            plan, train_indices=np.array([0, 1, 2, 3, 6, 7]), test_indices=np.array([4, 5])
        )
        located = []
        original_locate = cubic._locate_stack
        monkeypatch.setattr(cubic, "_locate_stack",
                            lambda *args: located.append(args) or original_locate(*args))
        full = run_split(task, covered, ExperimentConfig().rbf_config())
        assert full.valid[0] and full.n_finite[0] == 2
        assert len(calls) == 1
        points, _, values, joined = calls[0]
        assert len(points) == len(values) == 6 and not joined  # one call, holding one surface
        # coverage and evaluation share one locate: one stacked call, one pair
        assert [len(tris) for tris, _ in located] == [1]

    def test_collinear_training_subset_invalidates_both(self):
        pts = np.array([
            [0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0],
            [0.0, 1.0], [1.0, 1.0],
        ])
        values = np.arange(7.0)
        task = make_task(pts, values)
        plan = dataclasses.replace(
            make_splits(task, 1, 0.7, 42)[0],
            train_indices=np.arange(5),   # all on one line
            test_indices=np.array([5, 6]),
        )
        runs = run_split(task, plan, ExperimentConfig().rbf_config())
        assert not runs.valid.any()
        assert runs.reason.tolist() == ["fit_failed:degenerate_geometry", "fit_failed:singular_system"]

    def test_contradicting_predicates_fail_only_the_cubic_fit(self, monkeypatch):
        # a build whose in-circle and orientation answers contradict each
        # other raises DegenerateGeometry, recorded as the split's reason
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5],
                        [0.25, 0.5], [5.0, 5.0], [6.0, 5.0]])
        task = make_task(pts, pts[:, 0] + pts[:, 1] ** 2)
        plan = SplitPlan(np.array([0, 1, 2, 3, 6, 7]), np.array([4, 5]), 0)
        monkeypatch.setattr(protocol, "_Predicates", InvertedInCircle)
        runs = run_split(task, plan, ExperimentConfig().rbf_config())
        assert runs.reason.tolist() == ["fit_failed:degenerate_geometry", "ok"]

    @pytest.mark.parametrize("bad", ["coordinate", "value"])
    def test_non_finite_training_input_invalidates_both(self, bad):
        # a non-finite value fails both fits; a non-finite node fails the
        # slice's validation
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.4],
                        [0.4, 0.5], [0.6, 0.6]])
        values = pts[:, 0] + pts[:, 1] ** 2
        if bad == "coordinate":
            pts[4, 0] = np.nan
        else:
            values[4] = np.nan
        task = make_task(pts, values)
        plan = dataclasses.replace(
            make_splits(task, 1, 0.7, 42)[0],
            train_indices=np.arange(5),
            test_indices=np.array([5, 6]),
        )
        if bad == "coordinate":
            with pytest.raises(NonFiniteInput):
                run_split(task, plan, ExperimentConfig().rbf_config())
            return
        runs = run_split(task, plan, ExperimentConfig().rbf_config())
        assert runs.reason.tolist() == ["fit_failed:non_finite_input"] * 2

    def test_duplicate_slice_nodes_raise(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.4],
                        [0.4, 0.5], [0.0, 0.0]])
        task = make_task(pts, pts[:, 0] + pts[:, 1] ** 2)
        plan = SplitPlan(np.arange(5), np.array([5, 6]), 0)
        with pytest.raises(DuplicateNodes):
            run_split(task, plan, ExperimentConfig().rbf_config())

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_fewer_than_three_training_nodes_invalidate_both(self, m):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.4]])
        task = make_task(pts, pts[:, 0] + pts[:, 1] ** 2)
        plan = SplitPlan(np.arange(m), np.arange(m, 5), 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = run_split(task, plan, ExperimentConfig().rbf_config())
        assert runs.reason.tolist() == ["fit_failed:insufficient_nodes"] * 2
        assert runs.n_test.tolist() == [5 - m] * 2

    def test_valid_noise_free_run_has_high_r2(self, default_dataset, default_config):
        task = next(
            t for t in enumerate_slices(default_dataset, "noise-free")
            if t.fixed_axis == "x3" and t.output_index == 1
        )
        for plan in make_splits(task, 10, 0.7, 42):
            runs = run_split(task, plan, default_config.rbf_config())
            if runs.valid[0]:
                assert runs.r2[0] > 0.5
            assert runs.valid[1]


class TestHullCover:
    @settings(max_examples=150, deadline=None)
    @given(nodes=order_probe_sets())
    def test_cover_contains_locate_and_equals_it_outside_the_band(self, nodes):
        assume(len(nodes) >= 3 and len(convex_hull_polygon(nodes)) >= 3)
        probes, outside, band = hull_probes(nodes)
        m = len(nodes)
        covered, trusted = hull_cover(np.vstack([nodes, probes]), np.arange(m)[None],
                                      np.arange(m, m + len(probes))[None])
        assume(trusted[0])
        try:
            tri = triangulate(nodes)
        except InterpolationError:
            return  # a node within the predicate band of a hull edge
        located = locate(tri, probes)[0] >= 0
        assert not (located & ~covered[0]).any()
        far = np.abs(outside) > 1.01 * band
        np.testing.assert_array_equal(covered[0][far], located[far])

    def test_collinear_and_nearly_flat_training_sets_are_not_trusted(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]])
        row = np.column_stack([np.arange(5.0) / 3.0, np.full(5, 4.0 / 3.0)])
        # a node 1e-10 inside the bottom edge makes a flat Delaunay triangle
        # there, on which locate resolves coordinates only to about 1e-6
        turn = np.array([[0.8, -0.6], [0.6, 0.8]])
        flat = np.vstack([square, [[0.37, 1e-10]]]) @ turn.T
        # three hull vertices, yet collinear within triangulate's band
        # relative to its first two nodes
        sliver = np.array([[0.0, 0.0], [1e-3, 0.0], [1.0, 4e-10]])
        with pytest.raises(DegenerateGeometry):
            triangulate(sliver)
        for nodes, expected in ((square, True), (row, False), (flat, False), (sliver, False)):
            m = len(nodes)
            _, trusted = hull_cover(nodes, np.arange(m)[None], np.arange(m - 1, m)[None])
            assert trusted[0] == expected

    def test_a_sliver_along_the_hull_is_not_trusted_because_locate_overreaches(self):
        # A node 1e-12 inside the bottom edge of the rotated unit square
        # makes a sliver there. locate finds probes on the edge's line up to
        # about 5.6e-5 past a bottom corner, far beyond hull_cover's band:
        # at the sliver's acute corner both edge tests fall below roundoff,
        # so no per-edge tolerance bounds the cover. The flat-band case of
        # hull_cover keeps such a set untrusted, so it is triangulated and
        # locate decides its splits.
        turn = np.array([[np.cos(0.85), -np.sin(0.85)], [np.sin(0.85), np.cos(0.85)]])
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5],
                          [0.5, 1e-12]]) @ turn.T
        past = np.logspace(-9, -2.25, 28)
        probes = np.vstack([np.column_stack([-past, 0 * past]),
                            np.column_stack([1 + past, 0 * past])]) @ turn.T
        m = len(nodes)
        covered, trusted = hull_cover(np.vstack([nodes, probes]), np.arange(m)[None],
                                      np.arange(m, m + len(probes))[None])
        located = locate(triangulate(nodes), probes)[0] >= 0
        assert (located & ~covered[0]).any()
        assert not trusted[0]


def reference_record(task, plan, method, y_pred, reason=None, n_finite=0,
                     condition_estimate=np.nan):
    """One run as a one-run RunTable, scored alone by ``compute_metrics``;
    ``y_pred`` None marks a run that made no predictions."""
    y_true = task.values[plan.test_indices]
    n_test = int(y_true.size)
    metrics = None
    if y_pred is not None:
        n_finite = int(np.count_nonzero(np.isfinite(y_pred)))
        if n_finite < n_test:
            y_pred, reason = None, "test_points_outside_support"
        else:
            metrics = compute_metrics(y_true, y_pred)
            if metrics is None:
                reason = "too_few_test_points" if n_test < 2 else "zero_target_variance"
    return one_run(
        y_true, np.full(n_test, np.nan) if y_pred is None else np.asarray(y_pred, dtype=float),
        plan.train_indices, plan.test_indices,
        regime=task.regime, output_index=task.output_index, fixed_axis=task.fixed_axis,
        fixed_level=task.fixed_level, repeat=plan.repeat_index,
        method=method, valid=metrics is not None, reason="ok" if metrics is not None else reason,
        n_test=n_test, n_finite=n_finite, condition_estimate=condition_estimate,
        **{name: np.nan if metrics is None else getattr(metrics, name) for name in ("rmse", "mae", "r2")},
    )


def reference_records(task, plans, rbf_config):
    """The RunTable of each split run alone through the public per-split
    API: ``fit_cubic`` and ``evaluate``, ``fit_rbf`` and ``eval_rbf``,
    ``compute_metrics``."""
    records = []
    for plan in plans:
        train, test = task.points[plan.train_indices], task.points[plan.test_indices]
        values = task.values[plan.train_indices]
        try:
            pred = cubic.fit_cubic(train, values).evaluate(test)
            found = np.isfinite(pred)
            records.append(reference_record(task, plan, "cubic", pred) if found.all() else
                           reference_record(task, plan, "cubic", None, "test_points_outside_support",
                                            int(np.count_nonzero(found))))
        except InterpolationError as exc:
            records.append(reference_record(task, plan, "cubic", None,
                                            reason=f"fit_failed:{reason_code(exc)}"))
        try:
            surface = fit_rbf(train, values, rbf_config)
            records.append(reference_record(task, plan, "rbf", eval_rbf(surface, test),
                                            condition_estimate=surface.condition_estimate))
        except InterpolationError as exc:
            records.append(reference_record(task, plan, "rbf", None,
                                            reason=f"fit_failed:{reason_code(exc)}"))
    return concat(records)


def assert_same_records(got, expected):
    """RunTables equal run by run: string columns by value, every other
    column by dtype and bits."""
    assert len(got) == len(expected)
    for field in dataclasses.fields(RunTable):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        if a.dtype.kind == "U":
            assert a.tolist() == b.tolist(), field.name
        else:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name


def select(table, runs):
    """The RunTable of the runs of ``table`` at the indices ``runs``, in
    that order."""
    columns = {}
    for f in dataclasses.fields(RunTable):
        if f.name in _FLAT:
            pieces = per_run(table, f.name)
            columns[f.name] = np.concatenate([pieces[i] for i in runs])
        else:
            columns[f.name] = getattr(table, f.name)[runs]
    return RunTable(**columns)


class TestStage:
    @pytest.mark.parametrize("seed", [42, 1009])
    def test_staged_experiment_equals_per_split_runs(self, seed):
        config = ExperimentConfig(random_seed=seed, repeats_per_slice=3)
        dataset = generate(noise=config.noise_spec())
        per_split, reference = [], []
        for regime in REGIMES:
            for task in enumerate_slices(dataset, regime):
                plans = make_splits(task, 3, config.train_fraction, seed)
                per_split.extend(run_split(task, plan, config.rbf_config()) for plan in plans)
                reference.append(reference_records(task, plans, config.rbf_config()))
        staged = execute_experiment(dataset, config)
        assert_same_records(staged, concat(per_split))
        assert_same_records(staged, concat(reference))

    @pytest.mark.parametrize("seed", [42, 1009])
    @pytest.mark.parametrize("train_fraction", [0.1, 0.95])
    def test_artifacts_equal_those_of_per_split_rows(self, tmp_path, seed, train_fraction):
        # runs.csv and summary.csv of the table, byte for byte against those
        # of the per-split reference runs, runs.csv written cell by cell
        config = ExperimentConfig(random_seed=seed, train_fraction=train_fraction,
                                  repeats_per_slice=3)
        dataset = generate(noise=config.noise_spec())
        reference = []
        for regime in REGIMES:
            for task in enumerate_slices(dataset, regime):
                plans = make_splits(task, 3, train_fraction, seed)
                reference.append(reference_records(task, plans, config.rbf_config()))
        reference = concat(reference)
        table = execute_experiment(dataset, config)
        write_runs_csv(table, tmp_path / "runs.csv")
        (tmp_path / "runs_reference.csv").write_bytes(reference_csv(RUNS_CSV_HEADER, zip(
            *(getattr(reference, name).tolist() for name in _RUNS_CSV_COLUMNS))))
        write_summary_csv(summarize(table, config), tmp_path / "summary.csv")
        write_summary_csv(summarize(reference, config), tmp_path / "summary_reference.csv")
        for name in ("runs", "summary"):
            assert ((tmp_path / f"{name}.csv").read_bytes()
                    == (tmp_path / f"{name}_reference.csv").read_bytes()), name

    def test_faulty_splits_keep_their_reasons_and_leave_the_others_unchanged(self):
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(3.0) / 3.0, indexing="ij")
        pts = np.column_stack([xs.ravel(), ys.ravel()])  # node 3 * i + j
        values = pts[:, 0] ** 2 + pts[:, 1]
        values[7] = np.nan

        def plan(train, repeat):
            train = np.array(sorted(train))
            return SplitPlan(train, np.setdiff1d(np.arange(15), train), repeat)

        covering = plan([0, 2, 12, 14, 4], 0)  # the four corners: every test node covered
        partial = plan([0, 1, 3, 4, 6], 1)
        non_finite = plan([0, 1, 3, 4, 7], 2)  # test nodes outside too
        collinear = plan([0, 3, 6, 9, 12], 3)  # one lattice row
        plans = [covering, non_finite, partial, collinear]
        config = ExperimentConfig().rbf_config()
        task = make_task(pts, values)
        records = stage(task, plans, config)
        assert_same_records(records, reference_records(task, plans, config))
        assert records.reason.tolist() == [
            "ok", "ok",
            "fit_failed:non_finite_input", "fit_failed:non_finite_input",
            "test_points_outside_support", "ok",
            "fit_failed:degenerate_geometry", "fit_failed:singular_system",
        ]
        alone = stage(task, [covering, partial], config)
        assert_same_records(select(records, [0, 1, 4, 5]), alone)

        bad_node = make_task(np.where(np.arange(15)[:, None] == 7, np.nan, pts), pts[:, 0])
        with pytest.raises(NonFiniteInput):
            stage(bad_node, [covering, non_finite], config)

    def test_untrusted_split_with_a_test_point_outside_drops_its_predictions(self):
        # the rotated square with a node 1e-10 inside its bottom edge, which
        # hull_cover cannot vouch for: the fitted surface is located, finds
        # the inside test node only, and the run keeps no prediction
        turn = np.array([[0.8, -0.6], [0.6, 0.8]])
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5],
                        [0.37, 1e-10], [0.25, 0.6], [1.5, 0.5]]) @ turn.T
        task = make_task(pts, pts[:, 0] + pts[:, 1] ** 2)
        plans = [SplitPlan(np.arange(6), np.array([6, 7]), 0)]
        _, trusted = hull_cover(pts, plans[0].train_indices[None], plans[0].test_indices[None])
        assert not trusted[0]
        config = ExperimentConfig().rbf_config()
        records = stage(task, plans, config)
        assert records.reason[0] == "test_points_outside_support"
        assert records.n_finite[0] == 1
        assert np.isnan(per_run(records, "y_pred")[0]).all()
        assert_same_records(records, reference_records(task, plans, config))

    def test_one_ill_conditioned_warning_per_flagged_fit(self, default_dataset):
        config = ExperimentConfig(repeats_per_slice=3, rbf_epsilon=0.04)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = execute_experiment(default_dataset, config)
        warned = sum(issubclass(w.category, IllConditionedWarning) for w in caught)
        flagged = fits = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            for regime in REGIMES:
                for task in enumerate_slices(default_dataset, regime):
                    for plan in make_splits(task, 3, config.train_fraction, config.random_seed):
                        fits += 1
                        flagged += fit_rbf(task.points[plan.train_indices],
                                           task.values[plan.train_indices],
                                           config.rbf_config()).ill_conditioned
        assert 0 < flagged < fits
        assert warned == flagged
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")  # one text: shown once, not once per fit
            execute_experiment(default_dataset, config)
        assert sum(issubclass(w.category, IllConditionedWarning) for w in caught) == 1
        summary = rbf_condition_summary(records).values()
        assert sum(s["fits"] for s in summary) == fits
        assert sum(s["ill_conditioned"] for s in summary) == warned


    def test_ill_conditioned_warnings_name_the_caller(self, default_dataset):
        config = ExperimentConfig(repeats_per_slice=1, rbf_epsilon=0.04)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = inspect.currentframe().f_lineno + 1
            execute_experiment(default_dataset, config)
        ill = [w for w in caught if issubclass(w.category, IllConditionedWarning)]
        assert ill and {(w.filename, w.lineno) for w in ill} == {(__file__, line)}


def assert_same_columns(got, expected):
    """RunTables equal column by column, floats bit for bit."""
    for field in dataclasses.fields(RunTable):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        if a is None or b is None:
            assert a is b is None, field.name
            continue
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
        if a.dtype == float:
            a, b = a.view(np.uint64), b.view(np.uint64)
        np.testing.assert_array_equal(a, b, err_msg=field.name)


def lattice_task(points, values_seed=0, **overrides):
    rng = np.random.default_rng(values_seed)
    return make_task(points, rng.normal(0.0, 1.0, len(points)), **overrides)


class TestSharing:
    """Tasks on one node set share the value-free work of each training set."""

    @pytest.mark.parametrize("seed", [42, 1009])
    @pytest.mark.parametrize("train_fraction", [0.1, 0.95])
    def test_shared_table_equals_each_task_run_alone(self, seed, train_fraction):
        config = ExperimentConfig(random_seed=seed, train_fraction=train_fraction,
                                  repeats_per_slice=12)
        dataset = generate(noise=config.noise_spec())
        tasks = [task for regime in REGIMES for task in enumerate_slices(dataset, regime)]
        plans = _plan_splits(tasks, 12, train_fraction, seed)
        repeats = np.arange(12)
        alone = [_run_tasks([task], [(*plan, repeats)], config.rbf_config())
                 for task, plan in zip(tasks, plans)]
        assert_same_columns(execute_experiment(dataset, config), concat(alone))

    @pytest.mark.parametrize("perturb", ["nextafter", "negative_zero"])
    def test_nodes_differing_in_one_bit_are_not_merged(self, monkeypatch, perturb):
        xs, ys = np.meshgrid(np.arange(4.0), np.arange(3.0), indexing="ij")
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        other = pts.copy()
        if perturb == "nextafter":
            other[4, 0] = np.nextafter(other[4, 0], np.inf)
        else:
            other[0, 1] = -0.0
        assert other.tobytes() != pts.tobytes()  # -0.0 == 0.0 all the same
        train = np.array([[0, 2, 9, 11, 4, 7]])  # the four corners: every test node covered
        test = np.setdiff1d(np.arange(12), train)[None]
        plan = (train, test, np.array([0]))
        config = ExperimentConfig().rbf_config()
        built = []
        original = protocol._triangulate
        monkeypatch.setattr(protocol, "_triangulate", lambda pred, nodes: built.append(
            pred.points.tobytes()) or original(pred, nodes))
        same = [lattice_task(pts, 1), lattice_task(pts, 2, output_index=2)]
        differ = [lattice_task(pts, 1), lattice_task(other, 2, output_index=2)]
        _run_tasks(same, [plan, plan], config)
        assert len(built) == 1
        built.clear()
        shared = _run_tasks(differ, [plan, plan], config)
        assert len(built) == 2 and built[0] != built[1]
        expected = [_run_tasks([task], [plan], config) for task in differ]
        assert_same_records(shared, concat(expected))
        assert shared.valid.all()

    def test_default_run_builds_each_training_set_once(self, monkeypatch, default_dataset,
                                                      default_config):
        counts = Counter()

        def counting(name, fn, size=lambda *args: 1, module=protocol):
            def wrapper(*args):
                counts[name] += size(*args)
                return fn(*args)
            monkeypatch.setattr(module, name, wrapper)

        counting("_triangulate", protocol._triangulate)
        hull_calls = []  # the distinct sets of each call
        counting("hull_cover", protocol.hull_cover,
                 lambda points, train, test: hull_calls.append(len(train)) or len(train))
        counting("_saddle_systems", protocol._saddle_systems, lambda pts, config: len(pts))
        counting("as_points", protocol.as_points)
        # once per (triangulation, queries) pair of the 402 covered surfaces,
        # in one stacked call per group, LOCATE_BLOCK query rows per pass
        counting("_locate_stack", cubic._locate_stack, lambda tris, queries: len(tris), module=cubic)
        counting("_locate_pass", geometry._locate_pass, module=geometry)
        counting("_score", protocol._score)  # once per group and method
        table = execute_experiment(default_dataset, default_config)
        assert counts == {"_triangulate": 249, "hull_cover": 1496, "_saddle_systems": 1496,
                          "as_points": 3, "_locate_stack": 249, "_locate_pass": 5, "_score": 6}
        assert sorted(hull_calls) == [419, 423, 654]  # one call per node set
        assert Counter(zip(table.method.tolist(), table.reason.tolist())) == {
            ("cubic", "ok"): 402, ("cubic", "test_points_outside_support"): 2238,
            ("rbf", "ok"): 2640}

    def test_predicates_are_evaluated_once_per_node_set_in_each_run(self, monkeypatch, default_dataset,
                                                                   default_config):
        # 15,523 evaluations when every build evaluates each test it makes;
        # 1,934 distinct argument tuples over the three node sets. A second
        # run evaluates them all again: the signs are not kept between runs,
        # and no module-level dict grows.
        evaluated = Counter()
        for name in ("orient_sign", "incircle_sign"):
            original = getattr(geometry, name)
            monkeypatch.setattr(geometry, name,
                                lambda *args, f=original, name=name: evaluated.update([name]) or f(*args))

        def module_dicts():
            return {(module, name): len(value) for module, mod in list(sys.modules.items())
                    if module.startswith("surfbench") for name, value in vars(mod).items()
                    if isinstance(value, dict) and not name.startswith("__")}

        runs = []
        for _ in range(2):
            execute_experiment(default_dataset, default_config)
            runs.append((dict(evaluated), module_dicts()))
            evaluated.clear()
        assert runs[0] == runs[1]
        assert runs[0][0] == {"orient_sign": 968, "incircle_sign": 966}
        gc.collect()
        assert not [obj for obj in gc.get_objects() if isinstance(obj, geometry._Predicates)]

    def test_each_distinct_gradient_design_is_factored_once(self, monkeypatch, default_dataset,
                                                           default_config):
        # the 3674 least-squares fits of the default run (3642 vertex fits,
        # and the affine refits of rank-deficient quadratic ones) share 897
        # distinct design matrices
        fits, factored = [], []
        original_head, original_svd = cubic._lstsq_head, np.linalg.svd
        monkeypatch.setattr(cubic, "_lstsq_head",
                            lambda a, rhs, repeats: fits.append(len(a)) or original_head(a, rhs, repeats))
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: factored.append(len(a)) or original_svd(a, **kw))
        execute_experiment(default_dataset, default_config)
        assert (sum(fits), sum(factored), len(factored)) == (3674, 897, len(fits))

    def test_untrusted_training_sets_are_triangulated_once(self, monkeypatch):
        # two training sets the hull test cannot vouch for, each drawn by
        # three splits: one holds a NaN value, one lies on a lattice row
        xs, ys = np.meshgrid(np.arange(6.0), np.arange(3.0), indexing="ij")
        pts = np.column_stack([xs.ravel(), ys.ravel()])  # node 3 * i + j
        values = pts[:, 0] ** 2 + pts[:, 1]
        values[4] = np.nan
        sets = [np.array([0, 2, 4, 7, 15, 17]), np.arange(0, 18, 3)]
        plans = [SplitPlan(sets[r % 2], np.setdiff1d(np.arange(18), sets[r % 2]), r)
                 for r in range(6)]
        task = make_task(pts, values)
        config = ExperimentConfig().rbf_config()
        _, trusted = hull_cover(pts, np.stack(sets), np.stack([p.test_indices for p in plans[:2]]))
        assert trusted.tolist() == [True, False]  # the NaN set fails on its values
        built = []
        for module, name in ((protocol, "_triangulate"), (cubic, "triangulate")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, f=original: built.append(1) or f(*args))
        records = stage(task, plans, config)
        assert len(built) == 2
        assert records.reason.tolist() == [
            "fit_failed:non_finite_input", "fit_failed:non_finite_input",
            "fit_failed:degenerate_geometry", "fit_failed:singular_system",
        ] * 3
        monkeypatch.undo()
        assert_same_records(records, reference_records(task, plans, config))


@st.composite
def scored_stacks(draw):
    """A task, (B, k) test indices with k = 1 ... 11 and one method's
    predictions; some target rows constant, some targets and predictions
    non-finite, some runs without predictions."""
    b = draw(st.integers(1, 10))
    k = draw(st.integers(1, 11))
    n = k + 3
    pool = st.one_of(st.sampled_from([0.0, 1.0, -2.5]), st.floats(-1e3, 1e3))
    values = draw(arrays(np.float64, n, elements=st.one_of(pool, st.just(np.nan))))
    test = draw(arrays(np.int64, (b, k), elements=st.integers(3, n - 1)))
    constant = draw(arrays(np.bool_, b))
    test[constant] = test[constant, :1]
    pred = draw(arrays(np.float64, (b, k), elements=st.one_of(pool, st.just(np.nan),
                                                               st.just(np.inf))))
    made = draw(arrays(np.bool_, b))
    pred[~made] = np.nan
    n_finite = draw(arrays(np.int64, b, elements=st.integers(0, k)))
    task = make_task(np.column_stack([np.arange(n), np.arange(n) % 2]), values)
    return task, test, pred, made, n_finite


class TestScoring:
    @given(case=scored_stacks())
    @settings(max_examples=300, deadline=None)
    def test_stacked_scoring_equals_each_run_scored_alone(self, case):
        task, test, pred, made, n_finite = case
        b = len(test)
        train = np.tile(np.arange(3), (b, 1))
        repeats = np.arange(b)
        reasons = [None if m else "fit_failed:singular_system" for m in made]
        got = RunTable(**_group_columns([task], [b], train, test, repeats,
                                        [("rbf", pred, reasons, n_finite, None)]))
        expected = concat(
            reference_record(task, SplitPlan(train[i], test[i], i), "rbf",
                             *((pred[i],) if made[i] else (None, reasons[i], int(n_finite[i]))))
            for i in range(b)
        )
        assert_same_records(got, expected)
        k = test.shape[1]
        for i, (y_true, y_pred, yp) in enumerate(zip(per_run(got, "y_true"), per_run(got, "y_pred"),
                                                      pred)):
            if got.valid[i]:
                assert np.isfinite(y_pred).all()
                continue
            assert np.isnan([got.rmse[i], got.mae[i], got.r2[i]]).all()
            if got.reason[i] == "test_points_outside_support":
                assert not np.isfinite(yp).all() and np.isnan(y_pred).all()
            elif got.reason[i] == "too_few_test_points":
                assert k < 2
            elif got.reason[i] == "zero_target_variance":
                yt = y_true[np.isfinite(y_true)]
                assert k >= 2 and (yt.size < 2 or np.sum((yt - yt.mean()) ** 2) == 0.0)


@pytest.fixture(scope="module")
def small_run(default_dataset):
    config = ExperimentConfig(repeats_per_slice=4, bootstrap_resamples=50)
    return execute_experiment(default_dataset, config), config


class TestExecuteExperiment:

    def test_record_count(self, small_run):
        records, config = small_run
        assert len(records) == 2 * 33 * config.repeats_per_slice * 2

    def test_rbf_always_valid_on_default_design(self, small_run):
        records, config = small_run
        counts = valid_run_counts(records)
        expected = 11 * config.repeats_per_slice
        for regime in REGIMES:
            for output in (1, 2, 3):
                assert counts[(regime, output, "rbf")] == expected

    def test_rbf_validity_dominance(self, small_run):
        records, _ = small_run
        cubic, rbf = split_pairs(records)
        assert not (records.valid[cubic] & ~records.valid[rbf]).any()

    def test_determinism(self, default_dataset):
        config = ExperimentConfig(repeats_per_slice=2)
        a = execute_experiment(default_dataset, config)
        b = execute_experiment(default_dataset, config)
        assert len(a) == len(b)
        np.testing.assert_array_equal(a.valid, b.valid)
        assert a.reason.tolist() == b.reason.tolist()
        for name in ("rmse", "r2"):
            np.testing.assert_array_equal(getattr(a, name)[a.valid], getattr(b, name)[a.valid])

    def test_validity_accounting(self, small_run):
        records, _ = small_run
        valid = records.valid
        assert (records.n_finite <= records.n_test).all()
        assert (records.n_finite[valid] == records.n_test[valid]).all()
        for name in ("rmse", "mae", "r2"):
            metric = getattr(records, name)
            assert not np.isnan(metric[valid]).any() and np.isnan(metric[~valid]).all()

    def test_small_slice_skipped_with_log(self, caplog):
        spec = DesignSpec(x1_levels=2, x2_levels=2, x3_levels=2)
        dataset = generate(spec, NoiseSpec())
        config = ExperimentConfig(repeats_per_slice=2)
        with caplog.at_level("WARNING"):
            records = execute_experiment(dataset, config)
        assert len(records) == 0
        assert "skipping slice" in caplog.text

    def test_small_slices_skipped_in_order_with_the_same_warning(self, caplog):
        # fixing x3 leaves 2 x 2 = 4 nodes, too few to split; the x1 and x2
        # slices keep 6 and run around them
        dataset = generate(DesignSpec(x1_levels=2, x2_levels=2, x3_levels=3), NoiseSpec())
        config = ExperimentConfig(repeats_per_slice=2)
        with caplog.at_level("WARNING"):
            records = execute_experiment(dataset, config)
        expected, skipped = [], []
        for regime in REGIMES:
            for task in enumerate_slices(dataset, regime):
                if task.fixed_axis == "x3":
                    with pytest.raises(InsufficientNodes):
                        make_splits(task, 2, config.train_fraction, config.random_seed)
                    skipped.append(f"skipping slice x3={task.fixed_level:g} output "
                                   f"{task.output_index} ({regime}): slice has 4 points; need >= 5")
                    continue
                for plan in make_splits(task, 2, config.train_fraction, config.random_seed):
                    expected.append(run_split(task, plan, config.rbf_config()))
        assert len(records) == 96 and len(skipped) == 18
        assert_same_records(records, concat(expected))
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == skipped

    def test_mean_noisy_contrast_positive_for_every_output(self, full_run):
        # full-pipeline observation: on noisy data the exact RBF fit loses to
        # the cubic on paired splits, for every output channel
        cubic, rbf = split_pairs(full_run)
        joint = full_run.valid[cubic] & full_run.valid[rbf] & (full_run.regime[cubic] == "noisy")
        deltas = full_run.rmse[rbf] - full_run.rmse[cubic]
        for output in (1, 2, 3):
            keep = joint & (full_run.output_index[cubic] == output)
            assert keep.any()
            assert np.mean(deltas[keep]) > 0
