"""Regression error metrics and nonparametric bootstrap confidence intervals.

``metric_stack`` scores a (B, k) stack of runs at once, one row per run;
``compute_metrics`` is that kernel on one row, after dropping the prediction
pairs with a non-finite value. A result is only defined when at least two
pairs remain and the retained targets have nonzero variance. The protocol
never relies on the dropping to score partly covered runs: it marks a run
with any non-finite prediction invalid before scoring its stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

__all__ = ["MetricSet", "BootstrapCI", "metric_stack", "compute_metrics", "bootstrap_ci"]

DEFAULT_RESAMPLES = 1000
DEFAULT_LEVEL = 0.95
# Index elements per draw, max(1, RESAMPLE_ELEMENTS // n) resample rows of
# n: a block of indices and values stays in cache (64 rows at n = 440).
RESAMPLE_ELEMENTS = 64 * 440


@dataclass(frozen=True)
class MetricSet:
    """RMSE, MAE and R^2 over the retained (finite) prediction pairs."""

    rmse: float
    mae: float
    r2: float
    n_points: int


def metric_stack(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """RMSE, MAE and R^2 of each row of (B, k) stacks of finite pairs, and
    whether each row's metrics are defined: k >= 2 and nonzero target
    variance. An undefined row's R^2 (every metric when k < 2) is NaN.

    Each row's arithmetic is that of the row alone: the sums of squares are
    row reductions and ``vecdot`` (``einsum`` or ``(err * err).sum(1)`` can
    round differently).
    """
    n_rows, k = y_true.shape
    if k < 2:
        nan = np.full(n_rows, np.nan)
        return nan, nan, nan, np.zeros(n_rows, dtype=bool)
    ss_tot = np.sum((y_true - y_true.mean(axis=1, keepdims=True)) ** 2, axis=1)
    err = y_true - y_pred
    ss_res = np.vecdot(err, err)
    defined = ss_tot != 0.0
    with np.errstate(over="ignore"):  # as float division: a huge ratio is inf, silently
        r2 = 1.0 - ss_res / np.where(defined, ss_tot, np.nan)
    return np.sqrt(ss_res / k), np.mean(np.abs(err), axis=1), r2, defined


def compute_metrics(y_true, y_pred) -> MetricSet | None:
    """Error metrics over finite prediction pairs, or None when undefined.

    Undefined means fewer than 2 finite pairs remain after dropping
    non-finite predictions, or the retained targets are constant (zero
    variance, so R^2 has no meaning). This is ``metric_stack`` on one row.
    """
    yt = np.asarray(y_true, dtype=float)
    yp = np.asarray(y_pred, dtype=float)
    if yt.shape != yp.shape:
        raise ValueError(f"length mismatch: {yt.shape} vs {yp.shape}")
    keep = np.isfinite(yt) & np.isfinite(yp)
    rmse, mae, r2, defined = metric_stack(yt[keep][None], yp[keep][None])
    if not defined[0]:
        return None
    return MetricSet(rmse=float(rmse[0]), mae=float(mae[0]), r2=float(r2[0]), n_points=int(keep.sum()))


@dataclass(frozen=True)
class BootstrapCI:
    """Percentile bootstrap interval for the mean of a sample."""

    point_estimate: float
    lower: float
    upper: float
    resamples: int
    level: float


def _resample_means(samples: np.ndarray, resamples: int, seed) -> np.ndarray:
    """Means of ``resamples`` with-replacement resamples (seeded, counter-based).

    Indices are drawn about ``RESAMPLE_ELEMENTS`` at a time, in whole rows,
    from one generator, which gives the same draws as one ``(resamples, n)``
    call without allocating it.
    """
    rng = Generator(Philox(SeedSequence(seed)))
    means = np.empty(resamples)
    chunk = max(1, RESAMPLE_ELEMENTS // samples.size)
    for start in range(0, resamples, chunk):
        rows = min(chunk, resamples - start)
        idx = rng.integers(0, samples.size, size=(rows, samples.size))
        means[start:start + rows] = samples[idx].mean(axis=1)
    return means


def bootstrap_ci(
    samples,
    resamples: int = DEFAULT_RESAMPLES,
    level: float = DEFAULT_LEVEL,
    seed=0,
) -> BootstrapCI | None:
    """Percentile CI for the mean from with-replacement resampling.

    Returns None for an empty sample. Deterministic for a fixed seed; the
    seed may be an int or a tuple of ints.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        return None
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    means = _resample_means(arr, resamples, seed)
    alpha = 1.0 - level
    lower, upper = np.percentile(means, [100.0 * alpha / 2.0, 100.0 * (1.0 - alpha / 2.0)])
    return BootstrapCI(
        point_estimate=float(arr.mean()),
        lower=float(lower),
        upper=float(upper),
        resamples=int(resamples),
        level=float(level),
    )
