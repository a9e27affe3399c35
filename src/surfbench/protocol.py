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

All splits of a task run as one stage (``_run_task``), after one check of
the slice's nodes (``geometry.as_points`` raises NonFiniteInput or
DuplicateNodes):

1. One vectorized pass (``geometry.hull_cover``) tests every test point
   against its split's training hull. A split whose training values are
   finite and whose hull leaves a test point uncovered is recorded as
   ``test_points_outside_support`` without being triangulated; ``n_finite``
   counts its hull-covered test points. The cover is one-sided: every test
   point that ``locate`` would find is hull-covered, so the reason code is
   always right, and the count can differ from ``locate``'s only for a
   point in the band within 1e-8 of the slice extent outside the hull.
   Every other split (one the hull test cannot vouch for, one with
   non-finite values, or one with every test point covered) goes to
   ``fit_cubic``, whose error is its reason. The fitted surfaces are
   evaluated at their test points as one stack (``cubic.evaluate_stack``:
   one ``locate`` per surface, then one gradient solve, one control-net
   build and one evaluation for the task). ``locate`` is authoritative: a
   surface that leaves a test point undefined is recorded as
   ``test_points_outside_support``, with ``n_finite`` counting its finite
   predictions.
2. The RBF systems of all splits are assembled, solved and
   condition-estimated as one stack (``rbf.fit_stack``), which gives the
   reason of every split it cannot fit, and evaluated as one batch; each
   item equals ``fit_rbf``/``eval_rbf`` bit for bit.

Each method's complete runs of a chunk are scored as one stack
(``metrics.metric_stack``, which equals ``compute_metrics`` row by row bit
for bit). Each RBF record keeps its fit's condition estimate
(``condition_estimate``); ``rbf_condition_summary`` aggregates them per
regime for ``meta.json``.

``run_pair`` is this stage on a single split.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .cubic import evaluate_stack, fit_cubic
from .errors import InsufficientNodes, InterpolationError, reason_code
from .geometry import as_points, hull_cover
from .metrics import MetricSet, compute_metrics, metric_stack
from .rbf import CONDITION_WARN_THRESHOLD, RbfConfig, eval_stack, fit_stack
from .streams import int_words, permutations
from .synthdata import FactorialDataset

__all__ = [
    "REGIMES",
    "AXES",
    "METHODS",
    "SliceTask",
    "SplitPlan",
    "RunRecord",
    "enumerate_slices",
    "find_slice",
    "slice_nodes",
    "make_splits",
    "run_pair",
    "method_contrast",
    "execute_experiment",
    "valid_run_counts",
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
    """One 2D interpolation problem cut from the factorial dataset."""

    regime: str
    output_index: int  # 1-based, matching the output naming
    fixed_axis: str
    fixed_level: float
    level_index: int
    free_axes: tuple[str, str]
    points: np.ndarray  # (n, 2) free-axis coordinates
    values: np.ndarray  # (n,) targets from the regime's channel
    row_ids: np.ndarray  # (n,) row indices into the source dataset

    def __post_init__(self):
        for arr in (self.points, self.values, self.row_ids):
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


@dataclass(frozen=True)
class RunRecord:
    """One (regime, output, slice, repeat, method) evaluation."""

    regime: str
    output_index: int
    fixed_axis: str
    fixed_level: float
    level_index: int
    repeat: int
    method: str
    valid: bool
    reason: str
    n_test: int
    n_finite: int
    metrics: MetricSet | None
    y_true: np.ndarray
    y_pred: np.ndarray
    train_indices: np.ndarray
    test_indices: np.ndarray
    condition_estimate: float | None = None  # of the RBF saddle system; None for cubic and failed runs


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
        row_ids=rows,
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


def find_slice(dataset: FactorialDataset, regime: str, fixed_axis: str, fixed_level: float,
               output_index: int) -> SliceTask:
    """The task of ``enumerate_slices(dataset, regime)`` with this axis,
    output and a design level within 1e-12 of ``fixed_level`` (relative and
    absolute), built alone. Its ``fixed_level`` is the design level.

    Raises ValueError for an unknown regime or when no task matches.
    """
    dataset.outputs(regime)  # rejects an unknown regime before any match
    if fixed_axis in AXES and output_index in (1, 2, 3):
        levels = dataset.spec.axis_levels(fixed_axis)
        match = np.nonzero(np.isclose(levels, fixed_level, rtol=1e-12, atol=1e-12))[0]
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
           n_finite: np.ndarray) -> tuple[list, list, np.ndarray, np.ndarray]:
    """Metrics, reason codes, finite counts and kept predictions of one
    method's runs on (B, k) targets ``y_true``.

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
    metrics: list = [None] * len(y_true)
    rmse, mae, r2, defined = metric_stack(y_true[clean], pred[clean])
    for i, e, a, r, ok in zip(np.flatnonzero(clean), rmse, mae, r2, defined):
        if ok:
            metrics[i] = MetricSet(rmse=float(e), mae=float(a), r2=float(r), n_points=n_test)
    for i in np.flatnonzero(complete & ~clean):
        metrics[i] = compute_metrics(y_true[i], pred[i])
    undefined = "too_few_test_points" if n_test < 2 else "zero_target_variance"
    codes = ["ok" if m is not None else reason if not ok else undefined if full
             else "test_points_outside_support"
             for m, reason, ok, full in zip(metrics, reasons, made, complete)]
    return metrics, codes, n_finite, pred


def _records(task: SliceTask, train: np.ndarray, test: np.ndarray, repeats: np.ndarray,
             runs: list[tuple]) -> list[RunRecord]:
    """The records of splits with (B, m) ``train`` and (B, k) ``test`` node
    indices and (B,) ``repeats``: for each split, one record per method in
    ``runs`` order. Each item of ``runs`` is ``(method, pred, reasons,
    n_finite, cond)`` as ``_score`` takes them, with the (B,) condition
    estimates ``cond`` or None. A split's records share its index and
    target arrays."""
    y_true = task.values[test]
    scored = [(method, *_score(y_true, pred, reasons, n_finite), cond)
              for method, pred, reasons, n_finite, cond in runs]
    out = []
    for i, (targets, train_row, test_row) in enumerate(zip(y_true, train, test)):
        for method, metrics, codes, n_finite, pred, cond in scored:
            out.append(RunRecord(
                regime=task.regime,
                output_index=task.output_index,
                fixed_axis=task.fixed_axis,
                fixed_level=task.fixed_level,
                level_index=task.level_index,
                repeat=int(repeats[i]),
                method=method,
                valid=metrics[i] is not None,
                reason=codes[i],
                n_test=len(test_row),
                n_finite=int(n_finite[i]),
                metrics=metrics[i],
                y_true=targets,
                y_pred=pred[i],
                train_indices=train_row,
                test_indices=test_row,
                condition_estimate=None if cond is None else cond[i],
            ))
    return out


def _cubic_runs(task: SliceTask, train: np.ndarray, test: np.ndarray, covered: np.ndarray,
                trusted: np.ndarray) -> tuple:
    """The cubic runs of splits, given their ``hull_cover`` masks, as
    ``_records`` takes them. A trusted split with an uncovered test point is
    recorded as outside support unfitted. Every other split is fitted by
    ``fit_cubic``, so a failing split keeps its reason code, and the fitted
    surfaces are evaluated at their test points as one stack
    (``cubic.evaluate_stack``)."""
    reasons: list = [None] * len(train)
    n_finite = np.zeros(len(train), dtype=int)
    fitted, surfaces = [], []
    for i in range(len(train)):
        if trusted[i] and not covered[i].all():
            reasons[i] = "test_points_outside_support"
            n_finite[i] = np.count_nonzero(covered[i])
            continue
        try:
            surfaces.append(fit_cubic(task.points[train[i]], task.values[train[i]]))
            fitted.append(i)
        except InterpolationError as exc:
            reasons[i] = f"fit_failed:{reason_code(exc)}"
    pred = np.full(test.shape, np.nan)
    if fitted:
        pred[fitted] = evaluate_stack(surfaces, list(task.points[test[fitted]]))
    return "cubic", pred, reasons, n_finite, None


def _rbf_runs(task: SliceTask, train: np.ndarray, test: np.ndarray, rbf_config: RbfConfig) -> tuple:
    """The RBF runs of splits, as ``_records`` takes them: one
    ``fit_stack`` and one ``eval_stack`` call; a split the stack cannot fit
    is recorded with ``fit_stack``'s reason."""
    centers = task.points[train]
    coeffs, cond, errors = fit_stack(centers, task.values[train], rbf_config)
    fitted = np.array([e is None for e in errors])
    pred = np.full(test.shape, np.nan)
    pred[fitted] = eval_stack(centers[fitted], coeffs[fitted], task.points[test[fitted]],
                              rbf_config.epsilon)
    reasons = [None if e is None else f"fit_failed:{reason_code(e)}" for e in errors]
    return ("rbf", pred, reasons, np.zeros(len(train), dtype=int),
            [float(c) if e is None else None for e, c in zip(errors, cond)])


def _run_task(task: SliceTask, train: np.ndarray, test: np.ndarray, repeats: np.ndarray,
              rbf_config: RbfConfig) -> list[RunRecord]:
    """Both runs of every split of one task, as one stage (see the module
    docstring): records in row order, cubic then RBF for each split.

    ``train`` (B, m) and ``test`` (B, k) hold the splits' node indices and
    ``repeats`` (B,) their repeat indices. Validates the slice's nodes
    once, raising NonFiniteInput or DuplicateNodes. The splits are taken
    PLAN_CHUNK rows at a time, each chunk with one ``hull_cover``, one
    ``fit_stack`` and one scoring stack per method.
    """
    as_points(task.points)
    records = []
    for lo in range(0, len(train), PLAN_CHUNK):
        rows = slice(lo, lo + PLAN_CHUNK)
        covered, trusted = hull_cover(task.points, train[rows], test[rows])
        trusted &= np.isfinite(task.values[train[rows]]).all(axis=1)  # fit_cubic gives their reason
        runs = [_cubic_runs(task, train[rows], test[rows], covered, trusted),
                _rbf_runs(task, train[rows], test[rows], rbf_config)]
        records.extend(_records(task, train[rows], test[rows], repeats[rows], runs))
    return records


def run_pair(task: SliceTask, plan: SplitPlan, rbf_config: RbfConfig) -> tuple[RunRecord, RunRecord]:
    """Fit and score both methods on identical train/test geometry.

    Fit failures yield invalid records with a reason code. A cubic run with
    test points outside the training hull is recorded as
    ``test_points_outside_support`` with ``n_finite`` counting the test
    points inside, unfitted when the hull test can vouch for the split.
    Nothing raises for expected degeneracies of a split; a slice whose
    nodes fail validation raises NonFiniteInput or DuplicateNodes. This is
    ``_run_task`` on a single split.
    """
    cubic_record, rbf_record = _run_task(task, plan.train_indices[None], plan.test_indices[None],
                                         np.array([plan.repeat_index]), rbf_config)
    return cubic_record, rbf_record


def method_contrast(cubic_record: RunRecord, rbf_record: RunRecord, metric: str = "rmse") -> float | None:
    """metric(rbf) - metric(cubic) on the shared test set; None unless both valid."""
    if not (cubic_record.valid and rbf_record.valid):
        return None
    return getattr(rbf_record.metrics, metric) - getattr(cubic_record.metrics, metric)


def execute_experiment(dataset: FactorialDataset, config: ExperimentConfig | None = None) -> list[RunRecord]:
    """The full run table: regimes x tasks x repeats x methods.

    A pure function of (dataset, config); rerunning yields identical records.
    Slices too small to split are skipped with a log message.
    """
    config = config if config is not None else ExperimentConfig()
    rbf_config = config.rbf_config()
    tasks = [task for regime in REGIMES for task in enumerate_slices(dataset, regime)]
    plans = _plan_splits(tasks, config.repeats_per_slice, config.train_fraction, config.random_seed)
    repeats = np.arange(config.repeats_per_slice)
    records: list[RunRecord] = []
    for task, plan in zip(tasks, plans):
        if plan is None:
            log.warning(
                "skipping slice %s=%g output %d (%s): %s",
                task.fixed_axis, task.fixed_level, task.output_index, task.regime, _too_small(task),
            )
            continue
        records.extend(_run_task(task, *plan, repeats, rbf_config))
    return records


def valid_run_counts(records) -> dict[tuple[str, int, str], int]:
    """Valid-run count per (regime, output_index, method)."""
    counts: dict[tuple[str, int, str], int] = {}
    for regime in REGIMES:
        for output_index in (1, 2, 3):
            for method in METHODS:
                counts[(regime, output_index, method)] = 0
    for rec in records:
        if rec.valid:
            counts[(rec.regime, rec.output_index, rec.method)] += 1
    return counts


def reason_histogram(records) -> dict[str, dict[str, dict[str, int]]]:
    """Run counts per regime, method and reason code:
    ``hist[regime][method][reason]``."""
    hist: dict[str, dict[str, dict[str, int]]] = {}
    for rec in records:
        counts = hist.setdefault(rec.regime, {}).setdefault(rec.method, {})
        counts[rec.reason] = counts.get(rec.reason, 0) + 1
    return hist


def rbf_condition_summary(records) -> dict[str, dict[str, float | int | None]]:
    """The RBF condition estimates per regime: the number of fitted runs
    (``fits``), how many exceed the ill-conditioning threshold 1e12
    (``ill_conditioned``), and their ``min``, ``median`` and ``max`` (None
    without fits)."""
    estimates: dict[str, list[float]] = {}
    for rec in records:
        if rec.method == "rbf":
            found = estimates.setdefault(rec.regime, [])
            if rec.condition_estimate is not None:
                found.append(rec.condition_estimate)
    out = {}
    for regime, found in estimates.items():
        cond = np.array(found)
        out[regime] = {
            "fits": int(cond.size),
            "ill_conditioned": int(np.count_nonzero(cond > CONDITION_WARN_THRESHOLD)),
            "min": float(cond.min()) if cond.size else None,
            "median": float(np.median(cond)) if cond.size else None,
            "max": float(cond.max()) if cond.size else None,
        }
    return out
