"""The paired evaluation protocol: slices, repeated splits, matched fits.

The three-input dataset is cut into 2D tasks by fixing one input at one of
its design levels (11 slices for the default 4/4/3 design), crossed with the
three outputs and the two observation regimes. Each task is split into
train/test subsets ``repeats_per_slice`` times; both interpolants are fitted
on exactly the same training nodes and scored on exactly the same test
nodes, so method contrasts isolate interpolation behavior.

Every (task, repeat) split is seeded by a hash of its identity tuple, never
by call order: results are independent of execution order and safe to
parallelize. The split of repeat r is numpy's
``Generator(Philox(SeedSequence((master_seed, 2, regime, output, axis, level,
r)))).permutation(n)``, cut at the train size; ``execute_experiment`` draws
the splits of every task up front (``_plan_splits``), all lanes of one slice
size in one ``streams.permutations`` call, and ``make_splits`` gives one
task's rows of that plan. Fit failures and undefined metrics become invalid
run records with a reason code; they never abort the experiment.

A run is valid only when its method produced a finite prediction at every
test point and the metrics are defined (at least two test points, nonzero
target variance). Interpolants with restricted support (the cubic surface is
undefined outside the training hull) therefore lose runs whenever a split
pushes any test point off their support, which is what drives the asymmetric
valid-run counts between the two methods.

The experiment runs as one stage (``_run_tasks``) per node set. Tasks
whose nodes are equal bit for bit (every slice of one axis in the full
factorial design: 3 node sets for the 66 default tasks) and whose splits
have the same sizes form a group. Each group's nodes are checked once
(``geometry.as_points`` raises NonFiniteInput or DuplicateNodes), and the
value-free work of each distinct (train, test) set of the group is done
once, however many tasks and repeats draw it:

1. One ``geometry.hull_cover`` call per group tests every test point
   against its set's training hull. The call computes the geometry of
   lines once from the group's nodes (bit-mask tables over the nodes for
   the line through every two training nodes, each chunk's temporaries
   within ``geometry.HULL_CHUNK`` elements) and reads each set's answer
   from them. The training hull is the one rule that rules a test point
   out: on a split whose training set is trusted (at least three nodes,
   not collinear as ``triangulate`` tests it) and whose training values
   are finite, a test point more than 1e-8 of the slice extent outside a
   supporting line makes the run ``test_points_outside_support`` without
   a triangulation;
   ``n_finite`` counts its hull-covered test points. Every other split
   needs its set's triangulation, built once on the already checked nodes
   and shared by the splits of the set. The
   builds of a group share one ``geometry._Predicates``, so each
   orientation or in-circle test of its nodes is evaluated once (1,934
   evaluations for the 249 builds of the default run, seed 42). A set
   that cannot be triangulated gives its failure as the reason of each of
   its splits; a split with non-finite values is then recorded as
   ``fit_failed:non_finite_input``, the order ``fit_cubic`` checks them in.
2. The RBF saddle matrix, rank test and condition estimate of each set
   are made once (``rbf._saddle_systems``). The splits are then solved and
   evaluated PLAN_CHUNK at a time, each on its own copy of its set's
   matrix (``rbf._fit_systems``, which also gives the reason of every
   split it cannot fit, and ``rbf.eval_stack``); each item equals
   ``fit_rbf``/``eval_rbf`` bit for bit.

What depends on the values stays per split: the finite-values test, the
gradients, the control nets, the RBF solve and the metrics. Every step
treats each set or split on its own, so the table equals, bit for bit,
that of each task run alone.

The fitted cubic surfaces of a group are then evaluated at their test
points as one stack (``cubic.evaluate_stack``). ``locate`` decides among
the hull-covered points (and on an untrusted, nearly collinear set): a
surface that leaves a test point undefined is recorded as
``test_points_outside_support``, with ``n_finite`` counting its finite
predictions. Each method's runs of a group are scored as one stack, its
complete runs by ``metrics.metric_stack`` (which equals
``compute_metrics`` row by row bit for bit), and each column of a group
is built once for all its tasks (``_group_columns``). The runs come back
as one columnar ``RunTable`` in task order: each run of consecutive tasks
of one group is one slice of that group's columns. Each RBF run keeps its
fit's condition estimate; ``rbf_condition_summary`` aggregates them per
regime for ``meta.json``, and ``reason_histogram`` counts the runs per
regime, method and reason code (the valid runs per output are
``report.summarize``'s ``valid_runs``).
"""

from __future__ import annotations

import itertools
import logging
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .cubic import CubicSurface, evaluate_stack
from .errors import IllConditionedWarning, InsufficientNodes, InterpolationError, reason_code
from .geometry import _Predicates, _triangulate, as_points, hull_cover
from .metrics import compute_metrics, metric_stack
from .rbf import (CONDITION_WARN_THRESHOLD, ILL_CONDITIONED_MESSAGE, RbfConfig, _fit_systems,
                  _saddle_systems, eval_stack)
from .streams import int_words, permutations
from .synthdata import FactorialDataset

__all__ = [
    "REGIMES",
    "AXES",
    "METHODS",
    "SliceTask",
    "SplitPlan",
    "RunTable",
    "enumerate_slices",
    "find_slice",
    "slice_nodes",
    "make_splits",
    "execute_experiment",
    "reason_histogram",
    "rbf_condition_summary",
]

log = logging.getLogger(__name__)

REGIMES = ("noise-free", "noisy")
AXES = ("x1", "x2", "x3")
METHODS = ("cubic", "rbf")

MIN_SLICE_SIZE = 5
MIN_TRAIN_SIZE = 3
PLAN_CHUNK = 64  # splits per stage, so stacked temporaries stay bounded

# Domain tag separating split seeding from the noise stream (tag 1).
_SPLIT_STREAM_TAG = 2


@dataclass(frozen=True)
class SliceTask:
    """One 2D interpolation problem cut from the factorial dataset. Its
    dataset rows are ``slice_nodes(dataset, fixed_axis, level_index)[0]``."""

    regime: str
    output_index: int  # 1-based, matching the output naming
    fixed_axis: str
    fixed_level: float
    level_index: int
    free_axes: tuple[str, str]
    points: np.ndarray  # (n, 2) free-axis coordinates
    values: np.ndarray  # (n,) targets from the regime's channel

    def __post_init__(self):
        for arr in (self.points, self.values):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class SplitPlan:
    """One train/test partition of a slice."""

    train_indices: np.ndarray
    test_indices: np.ndarray
    repeat_index: int

    def __post_init__(self):
        self.train_indices.setflags(write=False)
        self.test_indices.setflags(write=False)


# The types of the RunTable's label and count columns (its metric columns
# are float), and its flat columns, ``n_test`` entries per run.
_SCALARS = {"regime": str, "output_index": int, "fixed_axis": str, "fixed_level": float,
            "repeat": int, "method": str, "valid": bool, "reason": str, "n_test": int,
            "n_finite": int}
_FLAT = ("y_true", "y_pred")


@dataclass(frozen=True, eq=False)
class RunTable:
    """Every run of an experiment as read-only columns, one entry per run in
    runs.csv order; a metric is NaN where the run is invalid, and so is
    ``condition_estimate`` where it has none. Each run's targets and kept
    predictions lie flat in ``y_true`` and ``y_pred`` (offsets from
    ``n_test``). A table read from runs.csv has neither.
    """

    regime: np.ndarray
    output_index: np.ndarray
    fixed_axis: np.ndarray
    fixed_level: np.ndarray
    repeat: np.ndarray
    method: np.ndarray
    valid: np.ndarray
    reason: np.ndarray
    n_test: np.ndarray
    n_finite: np.ndarray
    rmse: np.ndarray
    mae: np.ndarray
    r2: np.ndarray
    condition_estimate: np.ndarray
    y_true: np.ndarray | None = None
    y_pred: np.ndarray | None = None

    def __post_init__(self):
        for column in vars(self).values():
            if column is not None:
                column.setflags(write=False)

    @classmethod
    def empty(cls) -> RunTable:
        return cls(**{name: np.empty(0, dtype) for name, dtype in _SCALARS.items()},
                   **{name: np.empty(0) for name in ("rmse", "mae", "r2", "condition_estimate")})

    def __len__(self) -> int:
        return len(self.regime)


def slice_nodes(dataset: FactorialDataset, fixed_axis: str, level_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices and (n, 2) free-axis coordinates of the dataset rows whose
    ``fixed_axis`` input sits at its ``level_index``-th design level."""
    level = dataset.spec.axis_levels(fixed_axis)[level_index]
    rows = np.nonzero(dataset.x[:, AXES.index(fixed_axis)] == level)[0]
    free = [i for i, a in enumerate(AXES) if a != fixed_axis]
    return rows, dataset.x[np.ix_(rows, free)]


def _slice_task(dataset: FactorialDataset, regime: str, fixed_axis: str, level_index: int,
                output_index: int) -> SliceTask:
    rows, points = slice_nodes(dataset, fixed_axis, level_index)
    return SliceTask(
        regime=regime,
        output_index=output_index,
        fixed_axis=fixed_axis,
        fixed_level=float(dataset.spec.axis_levels(fixed_axis)[level_index]),
        level_index=level_index,
        free_axes=tuple(a for a in AXES if a != fixed_axis),
        points=points,
        values=dataset.outputs(regime)[rows, output_index - 1],
    )


def enumerate_slices(dataset: FactorialDataset, regime: str) -> list[SliceTask]:
    """All slice tasks of a regime: (axis, level, output) in a fixed order.

    For the default design this is (4 + 4 + 3) slices x 3 outputs = 33 tasks.
    Targets come from the clean channel in the noise-free regime and from the
    noisy channel otherwise.
    """
    dataset.outputs(regime)  # rejects an unknown regime
    return [
        _slice_task(dataset, regime, axis, level_index, output_index)
        for axis in AXES
        for level_index in range(len(dataset.spec.axis_levels(axis)))
        for output_index in (1, 2, 3)
    ]


def _level_match(levels, fixed_level: float):
    """Which design ``levels`` a requested ``fixed_level`` names: those
    within 1e-12 of it, relative and absolute. ``find_slice`` and
    ``report.diagnose_slices`` both match levels by it."""
    return np.isclose(levels, fixed_level, rtol=1e-12, atol=1e-12)


def find_slice(dataset: FactorialDataset, regime: str, fixed_axis: str, fixed_level: float,
               output_index: int) -> SliceTask:
    """The task of ``enumerate_slices(dataset, regime)`` with this axis,
    output and the first design level that ``fixed_level`` names
    (``_level_match``), built alone. Its ``fixed_level`` is the design level.

    Raises ValueError for an unknown regime or when no task matches.
    """
    dataset.outputs(regime)  # rejects an unknown regime before any match
    if fixed_axis in AXES and output_index in (1, 2, 3):
        levels = dataset.spec.axis_levels(fixed_axis)
        match = np.nonzero(_level_match(levels, fixed_level))[0]
        if match.size:
            return _slice_task(dataset, regime, fixed_axis, int(match[0]), int(output_index))
    raise ValueError(f"no slice with {fixed_axis}={fixed_level:g} and output {output_index}")


def _train_size(n: int, alpha: float) -> int:
    size = int(np.floor(alpha * n + 0.5))  # round half up
    return min(max(size, MIN_TRAIN_SIZE), n - 1)


def _plan_splits(tasks: list[SliceTask], repeats: int, alpha: float,
                 master_seed: int) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """Sorted (repeats, m) train and (repeats, n - m) test node indices of
    every task, |train| = round(alpha * n); None for a task with fewer than
    MIN_SLICE_SIZE nodes.

    Repeat r of a task is the permutation ``Generator(Philox(SeedSequence(
    (master_seed, 2, regime, output, axis, level, r)))).permutation(n)``,
    split at m: a pure function of the split's identity, not of the order
    of generation. The permutations of all tasks of one slice size n are
    drawn in one ``streams.permutations`` call.
    """
    head = int_words(int(master_seed)) + [_SPLIT_STREAM_TAG]
    by_size: dict[int, list[int]] = {}
    for t, task in enumerate(tasks):
        if task.n >= MIN_SLICE_SIZE:
            by_size.setdefault(task.n, []).append(t)
    plans: list = [None] * len(tasks)
    for n, members in by_size.items():
        ids = [[REGIMES.index(tasks[t].regime), tasks[t].output_index,
                AXES.index(tasks[t].fixed_axis), tasks[t].level_index] for t in members]
        entropy = np.column_stack([
            np.tile(head, (len(members) * repeats, 1)),
            np.repeat(ids, repeats, axis=0),
            np.tile(np.arange(repeats), len(members)),
        ])
        perm = permutations(entropy, n).reshape(len(members), repeats, n)
        m = _train_size(n, alpha)
        train, test = np.sort(perm[..., :m], axis=-1), np.sort(perm[..., m:], axis=-1)
        train.setflags(write=False)
        test.setflags(write=False)
        for i, t in enumerate(members):
            plans[t] = (train[i], test[i])
    return plans


def _too_small(task: SliceTask) -> InsufficientNodes:
    return InsufficientNodes(f"slice has {task.n} points; need >= {MIN_SLICE_SIZE}")


def make_splits(
    task: SliceTask,
    repeats: int,
    alpha: float,
    master_seed: int,
) -> list[SplitPlan]:
    """Seeded train/test partitions of a slice, |train| = round(alpha * n).

    Each repeat draws from its own stream keyed by
    (master_seed, regime, output, axis, level, repeat), so plans do not
    depend on generation order. These are the rows ``execute_experiment``
    plans for the task (``_plan_splits``). Raises InsufficientNodes for a
    slice with fewer than 5 nodes.
    """
    plan = _plan_splits([task], repeats, alpha, master_seed)[0]
    if plan is None:
        raise _too_small(task)
    train, test = plan
    return [SplitPlan(train[r], test[r], r) for r in range(repeats)]


def _score(y_true: np.ndarray, pred: np.ndarray, reasons: list,
           n_finite: np.ndarray) -> tuple:
    """Validity, reason codes, finite counts, RMSE, MAE, R^2 and kept
    predictions of one method's runs on (B, k) targets ``y_true``.

    ``pred`` (B, k) holds each run's predictions. A run that made none has
    its reason in ``reasons`` (None for one that did), NaN predictions and
    its ``n_finite`` given. A run is valid only when its method produced a
    finite prediction at every test point: partial coverage invalidates the
    run, and drops its predictions, rather than scoring it on the covered
    subset. The complete runs are scored as one stack (``metric_stack``);
    a run whose targets are not all finite is scored alone by
    ``compute_metrics``, which drops those pairs.
    """
    n_test = y_true.shape[1]
    made = np.array([r is None for r in reasons], dtype=bool)
    n_finite = np.where(made, np.isfinite(pred).sum(axis=1), n_finite)
    complete = made & (n_finite == n_test)
    pred = np.where(complete[:, None], pred, np.nan)
    clean = complete & np.isfinite(y_true).all(axis=1)
    valid = np.zeros(len(y_true), dtype=bool)
    rmse, mae, r2 = np.full((3, len(y_true)), np.nan)
    e, a, r, ok = metric_stack(y_true[clean], pred[clean])
    rows = np.flatnonzero(clean)[ok]
    valid[rows], rmse[rows], mae[rows], r2[rows] = True, e[ok], a[ok], r[ok]
    for i in np.flatnonzero(complete & ~clean):
        m = compute_metrics(y_true[i], pred[i])
        if m is not None:
            valid[i], rmse[i], mae[i], r2[i] = True, m.rmse, m.mae, m.r2
    undefined = "too_few_test_points" if n_test < 2 else "zero_target_variance"
    reason = np.where(valid, "ok", np.where(made, np.where(
        complete, undefined, "test_points_outside_support"), [r or "" for r in reasons]))
    return valid, reason, n_finite, rmse, mae, r2, pred


def _group_columns(tasks: list[SliceTask], counts: list[int], test: np.ndarray,
                   repeats: np.ndarray, runs: list[tuple]) -> dict[str, np.ndarray]:
    """The RunTable columns of B splits of ``tasks``, with k the same for
    every task: the splits are those of each task in turn, ``counts[t]`` of
    ``tasks[t]``, split i repeat ``repeats[i]`` with (B, k) ``test`` node
    indices. For each split, one run per method in ``runs`` order, each
    scored on the split's one row of targets. Each item of ``runs`` is
    ``(method, pred, reasons, n_finite, cond)`` over the B splits, as
    ``_score`` takes them, with the condition estimates ``cond`` (NaN where
    none) or None. Each column is built once for all the tasks, and each
    method's runs are scored as one stack (``_score`` works row by row)."""
    y_true = np.concatenate([task.values[rows] for task, rows in
                             zip(tasks, np.split(test, np.cumsum(counts)[:-1]))])
    scored = [_score(y_true, pred, reasons, n_finite)
              + (np.full(len(y_true), np.nan) if cond is None else cond,)
              for _, pred, reasons, n_finite, cond in runs]

    def shared(column):  # a split's entries, once for each of its runs
        return np.repeat(column, len(runs), axis=0).ravel()

    def each(i):  # the methods' entries of a split, one after the other
        return np.stack([columns[i] for columns in scored], axis=1).ravel()

    return dict(
        **{name: shared(np.repeat([getattr(task, name) for task in tasks], counts)) for name in (
            "regime", "output_index", "fixed_axis", "fixed_level")},
        repeat=shared(repeats),
        method=np.tile([method for method, *_ in runs], len(test)),
        **dict(zip(("valid", "reason", "n_finite", "rmse", "mae", "r2", "y_pred",
                    "condition_estimate"), map(each, range(8)))),
        n_test=np.full(len(test) * len(runs), test.shape[1]),
        y_true=shared(y_true),
    )


def _cubic_runs(points: np.ndarray, sets: np.ndarray, inverse: np.ndarray, train: np.ndarray,
                test: np.ndarray, y: np.ndarray) -> tuple:
    """The cubic runs of B splits of one node set, ``points``, as
    ``_group_columns`` takes them, from (B, m) ``train`` and (B, k) ``test``
    node indices and (B, m) training values ``y``. Split i's train and test
    node indices are ``sets[inverse[i]]``, m of them then the rest.

    ``hull_cover`` tests each distinct set once, all of them in one call,
    which computes the lines of ``points`` once for the sets. A split whose
    training set is not collinear (``trusted``), with finite values and an
    uncovered test point, is recorded as outside support unfitted,
    whatever ``locate`` would find. Every other split gets its set's
    triangulation, built once and shared by every split of the set, or that
    triangulation's failure as its reason; a split with non-finite values
    is then ``fit_failed:non_finite_input``. The builds share one
    ``geometry._Predicates`` of ``points``, so each orientation or in-circle
    test of the node set is evaluated once, and it goes with the call. The
    remaining surfaces are evaluated at their test points as one stack."""
    m = train.shape[1]
    covered, trusted = (mask[inverse] for mask in hull_cover(points, sets[:, :m], sets[:, m:]))
    finite = np.isfinite(y).all(axis=1)
    outside = finite & trusted & ~covered.all(axis=1)
    reasons: list = [None] * len(train)
    fitted, surfaces, tris = [], [], {}
    signs = _Predicates(points)
    for i, s in enumerate(inverse.tolist()):
        if outside[i]:
            reasons[i] = "test_points_outside_support"
            continue
        if s not in tris:
            try:
                tris[s] = _triangulate(signs, train[i].tolist())
            except InterpolationError as exc:
                tris[s] = f"fit_failed:{reason_code(exc)}"
        if isinstance(tris[s], str):
            reasons[i] = tris[s]
        elif not finite[i]:
            reasons[i] = "fit_failed:non_finite_input"
        else:
            fitted.append(i)
            surfaces.append(CubicSurface(tris[s], y[i]))
    pred = np.full(test.shape, np.nan)
    for i, values in zip(fitted, evaluate_stack(surfaces, points[test[fitted]])):
        pred[i] = values
    return "cubic", pred, reasons, np.where(outside, np.count_nonzero(covered, axis=1), 0), None


def _rbf_runs(points: np.ndarray, sets: np.ndarray, inverse: np.ndarray, train: np.ndarray,
              test: np.ndarray, y: np.ndarray, rbf_config: RbfConfig) -> tuple:
    """The RBF runs of splits of one node set, as ``_group_columns`` takes
    them (arguments as for ``_cubic_runs``). The saddle
    system, rank test and condition estimate of each of ``sets`` are made
    once, PLAN_CHUNK sets at a time, and the splits of those sets are then
    solved and evaluated PLAN_CHUNK at a time, each on its own copy of its
    set's system; each equals ``fit_rbf``'s surface bit for bit. A split
    that cannot be fitted is recorded with ``_fit_systems``'s reason."""
    pred = np.full(test.shape, np.nan)
    fit_cond = np.full(len(train), np.nan)
    reasons: list = [None] * len(train)
    order = np.argsort(inverse, kind="stable")  # the splits, set by set
    edges = np.searchsorted(inverse[order], np.arange(0, len(sets) + PLAN_CHUNK, PLAN_CHUNK))
    for lo, first, last in zip(range(0, len(sets), PLAN_CHUNK), edges, edges[1:]):
        a, tail, cond = _saddle_systems(points[sets[lo:lo + PLAN_CHUNK, :train.shape[1]]], rbf_config)
        for start in range(first, last, PLAN_CHUNK):
            rows = order[start:min(start + PLAN_CHUNK, last)]
            s = inverse[rows] - lo
            coeffs, chunk_cond, errors = _fit_systems(a[s], tail[s], cond[s], y[rows],
                                                      np.isfinite(y[rows]).all(axis=1))
            ok = np.array([e is None for e in errors])
            fit_cond[rows] = np.where(ok, chunk_cond, np.nan)
            pred[rows[ok]] = eval_stack(points[train[rows[ok]]], coeffs[ok],
                                        points[test[rows[ok]]], rbf_config.epsilon)
            for i, e in zip(rows.tolist(), errors):
                reasons[i] = None if e is None else f"fit_failed:{reason_code(e)}"
    return "rbf", pred, reasons, np.zeros(len(train), dtype=int), fit_cond


def _run_tasks(tasks: list[SliceTask], plans: list[tuple], rbf_config: RbfConfig) -> RunTable:
    """Both runs of every split of the tasks (see the module docstring), in
    task order, cubic then RBF for each split; ``plans[t]`` holds the (B, m)
    train and (B, k) test node indices and (B,) repeats of ``tasks[t]``.

    The tasks are grouped by node set: the exact bytes of their points and
    their split sizes. Each group's nodes are validated once, in order of
    first appearance, so the first failing task raises NonFiniteInput or
    DuplicateNodes. The splits of a group are taken together, with the
    value-free work done once per distinct (train, test) set: one hull
    test, one triangulation and one RBF saddle system.
    """
    groups: dict[tuple, list[int]] = {}
    for t, (task, (train, test, _)) in enumerate(zip(tasks, plans)):
        key = (task.points.dtype.str, task.points.shape, task.points.tobytes(),
               train.shape[1], test.shape[1])
        groups.setdefault(key, []).append(t)
    for members in groups.values():
        as_points(tasks[members[0]].points)
    parts = []
    for members in groups.values():
        points = tasks[members[0]].points
        train, test, repeats = (np.concatenate([plans[t][j] for t in members]) for j in range(3))
        y = np.concatenate([tasks[t].values[plans[t][0]] for t in members])
        sets, inverse = np.unique(np.hstack([train, test]), axis=0, return_inverse=True)
        runs = [_cubic_runs(points, sets, inverse, train, test, y),
                _rbf_runs(points, sets, inverse, train, test, y, rbf_config)]
        parts.append(_group_columns([tasks[t] for t in members], [len(plans[t][0]) for t in members],
                                    test, repeats, runs))
    # A group's columns hold its tasks' rows in task order, so each run of
    # consecutive tasks of one group is one slice of them, rows ``lo`` to
    # ``hi`` of group ``g`` (6 runs for the 66 default tasks). A flat
    # column's rows have the group's ``n_test`` entries each.
    group = {t: g for g, members in enumerate(groups.values()) for t in members}
    spans, taken = [], [0] * len(parts)
    for g, run in itertools.groupby(range(len(tasks)), key=group.__getitem__):
        hi = taken[g] + sum(len(plans[t][0]) for t in run) * len(METHODS)
        spans.append((g, taken[g], hi))
        taken[g] = hi
    width = [int(part["n_test"][0]) for part in parts]
    # column by column, each dropping its parts, so the parts and the table
    # are not held whole at once
    table = {}
    for name in list(parts[0]):
        columns = [part.pop(name) for part in parts]
        w = width if name in _FLAT else [1] * len(parts)
        table[name] = np.concatenate([columns[g][lo * w[g]:hi * w[g]] for g, lo, hi in spans])
    return RunTable(**table)


def execute_experiment(dataset: FactorialDataset, config: ExperimentConfig | None = None) -> RunTable:
    """The full run table: regimes x tasks x repeats x methods.

    A pure function of (dataset, config); rerunning yields an identical
    table. Slices too small to split are skipped with a log message. Emits
    one IllConditionedWarning, naming the caller's line, per RBF run whose
    condition estimate exceeds 1e12; they share one text, so Python's
    default filter shows one per call site.
    """
    config = config if config is not None else ExperimentConfig()
    tasks = [task for regime in REGIMES for task in enumerate_slices(dataset, regime)]
    plans = _plan_splits(tasks, config.repeats_per_slice, config.train_fraction, config.random_seed)
    repeats = np.arange(config.repeats_per_slice)
    kept = []
    for task, plan in zip(tasks, plans):
        if plan is None:
            log.warning(
                "skipping slice %s=%g output %d (%s): %s",
                task.fixed_axis, task.fixed_level, task.output_index, task.regime, _too_small(task),
            )
        else:
            kept.append((task, (*plan, repeats)))
    if not kept:
        return RunTable.empty()
    table = _run_tasks(*map(list, zip(*kept)), config.rbf_config())
    for _ in range(np.count_nonzero(table.condition_estimate > CONDITION_WARN_THRESHOLD)):
        warnings.warn(ILL_CONDITIONED_MESSAGE, IllConditionedWarning, stacklevel=2)
    return table


def reason_histogram(table: RunTable) -> dict[str, dict[str, dict[str, int]]]:
    """Run counts per regime, method and reason code:
    ``hist[regime][method][reason]``."""
    hist: dict[str, dict[str, dict[str, int]]] = {}
    keys = zip(table.regime.tolist(), table.method.tolist(), table.reason.tolist())
    for (regime, method, reason), n in Counter(keys).items():
        hist.setdefault(regime, {}).setdefault(method, {})[reason] = n
    return hist


def rbf_condition_summary(table: RunTable) -> dict[str, dict[str, float | int | None]]:
    """The RBF condition estimates per regime: the number of fitted runs
    (``fits``), how many exceed the ill-conditioning threshold 1e12
    (``ill_conditioned``), and their ``min``, ``median`` and ``max`` (None
    without fits)."""
    rbf = table.method == "rbf"
    out = {}
    for regime in dict.fromkeys(table.regime[rbf].tolist()):
        cond = table.condition_estimate[rbf & (table.regime == regime)]
        cond = cond[~np.isnan(cond)]
        out[regime] = {
            "fits": int(cond.size),
            "ill_conditioned": int(np.count_nonzero(cond > CONDITION_WARN_THRESHOLD)),
            "min": float(cond.min()) if cond.size else None,
            "median": float(np.median(cond)) if cond.size else None,
            "max": float(cond.max()) if cond.size else None,
        }
    return out
