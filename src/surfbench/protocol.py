"""The paired evaluation protocol: slices, repeated splits, matched fits.

The three-input dataset is cut into 2D tasks by fixing one input at one of
its design levels (11 slices for the default 4/4/3 design), crossed with the
three outputs and the two observation regimes. Each task is split into
train/test subsets ``repeats_per_slice`` times; both interpolants are fitted
on exactly the same training nodes and scored on exactly the same test
nodes, so method contrasts isolate interpolation behavior.

Every (task, repeat) split is seeded by a hash of its identity tuple, never
by call order: results are independent of execution order and safe to
parallelize. Fit failures and undefined metrics become invalid run records
with a reason code; they never abort the experiment.

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

Each RBF record keeps its fit's condition estimate (``condition_estimate``);
``rbf_condition_summary`` aggregates them per regime for ``meta.json``.

``run_pair`` is this stage on a single split.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .config import ExperimentConfig
from .cubic import evaluate_stack, fit_cubic
from .errors import InsufficientNodes, InterpolationError, reason_code
from .geometry import as_points, hull_cover
from .metrics import MetricSet, compute_metrics
from .rbf import CONDITION_WARN_THRESHOLD, RbfConfig, eval_stack, fit_stack
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


def make_splits(
    task: SliceTask,
    repeats: int,
    alpha: float,
    master_seed: int,
) -> list[SplitPlan]:
    """Seeded train/test partitions of a slice, |train| = round(alpha * n).

    Each repeat draws from its own stream keyed by
    (master_seed, regime, output, axis, level, repeat), so plans do not
    depend on generation order.
    """
    n = task.n
    if n < MIN_SLICE_SIZE:
        raise InsufficientNodes(f"slice has {n} points; need >= {MIN_SLICE_SIZE}")
    n_train = _train_size(n, alpha)
    plans = []
    for repeat in range(repeats):
        derivation = (
            master_seed,
            _SPLIT_STREAM_TAG,
            REGIMES.index(task.regime),
            task.output_index,
            AXES.index(task.fixed_axis),
            task.level_index,
            repeat,
        )
        rng = Generator(Philox(SeedSequence(derivation)))
        perm = rng.permutation(n)
        plans.append(SplitPlan(
            train_indices=np.sort(perm[:n_train]),
            test_indices=np.sort(perm[n_train:]),
            repeat_index=repeat,
        ))
    return plans


def _make_record(task, plan, method, y_pred, reason=None, n_finite=0, condition_estimate=None) -> RunRecord:
    """Record of one run; ``y_pred`` None marks a run that made no
    predictions, with ``reason`` and ``n_finite`` given by the caller."""
    y_true = task.values[plan.test_indices]
    n_test = int(y_true.size)
    metrics = None
    if y_pred is not None:
        n_finite = int(np.count_nonzero(np.isfinite(y_pred)))
        # A run is valid only when the method produced a finite prediction at
        # every test point; partial hull coverage invalidates the run, and
        # drops its predictions, rather than scoring it on the covered subset.
        if n_finite < n_test:
            y_pred, reason = None, "test_points_outside_support"
        else:
            metrics = compute_metrics(y_true, y_pred)
            if metrics is None and reason is None:
                reason = (
                    "too_few_test_points" if n_test < 2 else "zero_target_variance"
                )
    return RunRecord(
        regime=task.regime,
        output_index=task.output_index,
        fixed_axis=task.fixed_axis,
        fixed_level=task.fixed_level,
        level_index=task.level_index,
        repeat=plan.repeat_index,
        method=method,
        valid=metrics is not None,
        reason="ok" if metrics is not None else reason,
        n_test=n_test,
        n_finite=n_finite,
        metrics=metrics,
        y_true=y_true,
        y_pred=np.full(n_test, np.nan) if y_pred is None else np.asarray(y_pred, dtype=float),
        train_indices=plan.train_indices,
        test_indices=plan.test_indices,
        condition_estimate=condition_estimate,
    )


def _cubic_records(task: SliceTask, plans: list[SplitPlan], covered: np.ndarray,
                   trusted: np.ndarray) -> list[RunRecord]:
    """The cubic runs of splits, given their ``hull_cover`` masks. A trusted
    split with an uncovered test point is recorded as outside support
    unfitted. Every other split is fitted by ``fit_cubic``, so a failing
    split keeps its reason code, and the fitted surfaces are evaluated at
    their test points as one stack (``cubic.evaluate_stack``)."""
    records: list = [None] * len(plans)
    fitted = []
    for i, plan in enumerate(plans):
        if trusted[i] and not covered[i].all():
            records[i] = _make_record(task, plan, "cubic", None, "test_points_outside_support",
                                      int(np.count_nonzero(covered[i])))
            continue
        try:
            fitted.append((i, fit_cubic(task.points[plan.train_indices], task.values[plan.train_indices])))
        except InterpolationError as exc:
            records[i] = _make_record(task, plan, "cubic", None, reason=f"fit_failed:{reason_code(exc)}")
    preds = evaluate_stack([surface for _, surface in fitted],
                           [task.points[plans[i].test_indices] for i, _ in fitted])
    for (i, _), pred in zip(fitted, preds):
        records[i] = _make_record(task, plans[i], "cubic", pred)
    return records


def _rbf_records(task: SliceTask, plans: list[SplitPlan], train: np.ndarray, test: np.ndarray,
                 rbf_config: RbfConfig) -> list[RunRecord]:
    """The RBF runs of splits with (B, m) ``train`` and (B, k) ``test``
    node indices: one ``fit_stack`` and one ``eval_stack`` call; a split
    the stack cannot fit is recorded with ``fit_stack``'s reason."""
    centers = task.points[train]
    coeffs, cond, errors = fit_stack(centers, task.values[train], rbf_config)
    fitted = np.array([e is None for e in errors])
    pred = iter(eval_stack(centers[fitted], coeffs[fitted], task.points[test[fitted]],
                           rbf_config.epsilon))
    return [_make_record(task, plan, "rbf", next(pred), condition_estimate=float(c)) if error is None
            else _make_record(task, plan, "rbf", None, reason=f"fit_failed:{reason_code(error)}")
            for plan, error, c in zip(plans, errors, cond)]


def _run_task(task: SliceTask, plans: list[SplitPlan], rbf_config: RbfConfig) -> list[RunRecord]:
    """Both runs of every split of one task, as one stage (see the module
    docstring): records in plan order, cubic then RBF for each split.

    Validates the slice's nodes once, raising NonFiniteInput or
    DuplicateNodes. The plans share one train size, as ``make_splits``
    draws them; they are taken PLAN_CHUNK at a time, each chunk with one
    ``hull_cover`` and one ``fit_stack`` call.
    """
    as_points(task.points)
    records = []
    for lo in range(0, len(plans), PLAN_CHUNK):
        chunk = plans[lo:lo + PLAN_CHUNK]
        train = np.stack([plan.train_indices for plan in chunk])
        test = np.stack([plan.test_indices for plan in chunk])
        covered, trusted = hull_cover(task.points, train, test)
        trusted &= np.isfinite(task.values[train]).all(axis=1)  # fit_cubic gives their reason
        cubic = _cubic_records(task, chunk, covered, trusted)
        rbf = _rbf_records(task, chunk, train, test, rbf_config)
        records.extend(rec for pair in zip(cubic, rbf) for rec in pair)
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
    cubic_record, rbf_record = _run_task(task, [plan], rbf_config)
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
    records: list[RunRecord] = []
    for regime in REGIMES:
        for task in enumerate_slices(dataset, regime):
            try:
                plans = make_splits(
                    task, config.repeats_per_slice, config.train_fraction, config.random_seed
                )
            except InsufficientNodes as exc:
                log.warning(
                    "skipping slice %s=%g output %d (%s): %s",
                    task.fixed_axis, task.fixed_level, task.output_index, regime, exc,
                )
                continue
            records.extend(_run_task(task, plans, rbf_config))
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
