"""Multiquadric radial basis function interpolation with a polynomial tail.

The surface is s(x) = sum_i w_i phi(||x - x_i||) + p(x) with the multiquadric
kernel phi(r) = sqrt(1 + (eps r)^2) and a degree-1 polynomial tail
p(x) = c0 + c1 x + c2 y. The weights and tail coefficients solve the
symmetric saddle system

    [ -K + lambda I   P ] [v]   [y]
    [  P^T            0 ] [c] = [0],      w = -v

by a pivoted dense factorization. The P^T v = 0 block gives the standard
orthogonality side conditions. The ridge term lambda I is applied on the
conditionally positive definite orientation of the multiquadric block (-K);
the stored weights are negated back so evaluation uses the positive kernel
convention phi(r) = sqrt(1 + (eps r)^2) throughout. Applying lambda I to +K
directly would drive the system through singular configurations as lambda
grows, because +K is conditionally negative definite under the tail
constraints; the chosen form keeps the penalized problem convex, makes the
data residual monotone in lambda, and at lambda = 0 produces the identical
interpolant (the kernel sign is absorbed by the weights). A nonzero
``smoothing`` (lambda) relaxes exact interpolation toward a ridge-penalized
fit; lambda = 0 interpolates the data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import RbfConfig
from .errors import (
    DuplicateNodes,
    IllConditionedWarning,
    InsufficientNodes,
    NonFiniteInput,
    SingularSystem,
)
from .geometry import as_points, as_queries

__all__ = ["RbfConfig", "RbfSurface", "kernel_mq", "fit_rbf", "eval_rbf", "eval_stack"]

CONDITION_WARN_THRESHOLD = 1e12
ILL_CONDITIONED_MESSAGE = f"rbf system condition estimate exceeds {CONDITION_WARN_THRESHOLD:g}"


def kernel_mq(r, epsilon: float = 1.0):
    """Multiquadric kernel sqrt(1 + (epsilon * r)^2); equals 1 at r = 0."""
    r = np.asarray(r, dtype=float)
    out = np.sqrt(1.0 + (epsilon * r) ** 2)
    return float(out) if out.ndim == 0 else out


def _tail_matrix(pts: np.ndarray) -> np.ndarray:
    """The degree-1 tail basis [1, x, y] at each point, (..., n, 3)."""
    return np.concatenate([np.ones(pts.shape[:-1] + (1,)), pts], axis=-1)


def _kernel_matrix(a: np.ndarray, b: np.ndarray, epsilon: float) -> np.ndarray:
    """Kernel values between (..., k, 2) points ``a`` and (..., n, 2)
    centers ``b``, (..., k, n). The x and y differences are two (..., k, n)
    arrays."""
    dx = a[..., :, None, 0] - b[..., None, :, 0]
    dy = a[..., :, None, 1] - b[..., None, :, 1]
    return kernel_mq(np.hypot(dx, dy, out=dx), epsilon)


@dataclass(frozen=True)
class RbfSurface:
    """A fitted RBF surface; defined on all of R^2 (no hull restriction)."""

    centers: np.ndarray
    weights: np.ndarray
    tail_coeffs: np.ndarray
    config: RbfConfig
    condition_estimate: float
    ill_conditioned: bool


def _saddle_systems(pts: np.ndarray, config: RbfConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The value-free part of the fits on B sets of finite centers ``pts``
    (B, n, 2): the saddle matrices (B, n + 3, n + 3), whether each set's
    centers carry the degree-1 tail (B,), and the 1-norm condition estimate
    of each matrix whose centers do (B,), NaN elsewhere. Fewer than 3
    centers carry no tail. Item i depends on set i alone."""
    n_sets, n = pts.shape[:2]
    a = np.zeros((n_sets, n + 3, n + 3))
    cond = np.full(n_sets, np.nan)
    if n < 3:
        return a, np.zeros(n_sets, dtype=bool), cond
    centered = pts - pts.mean(axis=1, keepdims=True)
    tol = 1e-12 * np.maximum(1.0, np.abs(centered).max(axis=(1, 2), initial=0.0))
    tail = np.linalg.matrix_rank(centered, tol=tol) >= 2
    a[:, :n, :n] = -_kernel_matrix(pts, pts, config.epsilon) + config.smoothing * np.eye(n)
    a[:, :n, n:] = _tail_matrix(pts)
    a[:, n:, :n] = a[:, :n, n:].transpose(0, 2, 1)
    if tail.any():
        cond[tail] = np.linalg.cond(a[tail], 1)
    return a, tail, cond


def _fit_systems(a: np.ndarray, tail: np.ndarray, cond: np.ndarray, y: np.ndarray,
                 finite: np.ndarray, stacklevel: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Fit B surfaces from the value-free part of each, as
    ``_saddle_systems`` gives it (``a``, ``tail`` and ``cond``, one entry
    per item), their values ``y`` (B, n) and whether their values are all
    finite (B,).

    Returns ``(coeffs, cond, errors)``: ``coeffs`` (B, n + 3) holds each
    surface's weights (positive kernel convention) then tail coefficients,
    ``cond`` (B,) the 1-norm condition estimate of its saddle system, and
    ``errors`` the reason each item could not be fitted, else None:
    NonFiniteInput for a non-finite value, InsufficientNodes for fewer than
    3 centers, and SingularSystem for collinear centers, a singular system
    or non-finite coefficients, in that order of precedence.

    Each item's system is solved on its own matrix, all those of the fitted
    items as one stack, so each item equals its batch of one bit for bit;
    when one item is singular, the stack is solved item by item. Emits one
    IllConditionedWarning per fitted item whose estimate exceeds 1e12, all
    with the same text (``ILL_CONDITIONED_MESSAGE``), so Python's default
    filter prints one per call site; ``stacklevel`` is the level that
    ``warnings.warn`` called here takes to name that call site.
    """
    n_sets, n = y.shape
    errors: list = [None if ok else NonFiniteInput("rbf fit values must be finite")
                    for ok in finite]
    if n < 3:
        short = InsufficientNodes(f"rbf fit needs >= 3 nodes for its degree-1 tail, got {n}")
        return np.full((n_sets, n + 3), np.nan), np.full(n_sets, np.nan), [e or short for e in errors]
    for i in np.nonzero(~tail)[0]:
        errors[i] = errors[i] or SingularSystem("collinear nodes cannot carry a degree-1 tail")
    rhs = np.zeros((n_sets, n + 3, 1))
    rhs[:, :n, 0] = y
    ok = np.array([e is None for e in errors])
    coeffs = np.full((n_sets, n + 3), np.nan)
    try:
        if ok.any():
            coeffs[ok] = np.linalg.solve(a[ok], rhs[ok])[..., 0]
    except np.linalg.LinAlgError as exc:
        if ok.sum() > 1:
            cond = np.where(ok, cond, np.nan)
            for i in np.nonzero(ok)[0]:
                one = slice(i, i + 1)
                c, k, err = _fit_systems(a[one], tail[one], cond[one], y[one], ok[one], stacklevel + 1)
                coeffs[i], cond[i], errors[i] = c[0], k[0], err[0]
            return coeffs, cond, errors
        errors[int(np.argmax(ok))] = SingularSystem(f"saddle system is singular: {exc}")
        ok[:] = False
    coeffs[ok, :n] = -coeffs[ok, :n]  # back to the positive kernel convention
    for i in np.nonzero(ok & ~np.isfinite(coeffs).all(axis=1))[0]:
        errors[i] = SingularSystem("saddle system solve produced non-finite coefficients")
    cond = np.where(ok, cond, np.nan)
    for i, c in enumerate(cond):
        if errors[i] is None and c > CONDITION_WARN_THRESHOLD:
            warnings.warn(ILL_CONDITIONED_MESSAGE, IllConditionedWarning, stacklevel=stacklevel)
    return coeffs, cond, errors


def eval_stack(centers: np.ndarray, coeffs: np.ndarray, queries: np.ndarray, epsilon: float) -> np.ndarray:
    """Values of B surfaces (``_fit_systems`` coefficients on (B, n, 2)
    centers) at their own (B, k, 2) queries, (B, k)."""
    n = centers.shape[1]
    out = _kernel_matrix(queries, centers, epsilon) @ coeffs[:, :n, None]
    return (out + _tail_matrix(queries) @ coeffs[:, n:, None])[..., 0]


def fit_rbf(points, values, config: RbfConfig | None = None) -> RbfSurface:
    """Fit the multiquadric RBF surface through (points, values).

    Raises NonFiniteInput for a NaN or infinite coordinate or value,
    InsufficientNodes for fewer than 3 nodes, and SingularSystem for
    duplicate centers or collinear nodes (which cannot carry the degree-1
    tail); emits IllConditionedWarning and flags the surface when the
    condition estimate exceeds 1e12, but still returns the fit. This is
    ``_fit_systems`` on a batch of one.
    """
    config = config if config is not None else RbfConfig()
    try:
        pts = as_points(points)
    except DuplicateNodes as exc:
        raise SingularSystem(f"duplicate centers: {exc}") from exc
    y = np.asarray(values, dtype=float)
    n = pts.shape[0]
    if y.shape != (n,):
        raise ValueError(f"expected {n} values, got shape {y.shape}")
    (coeffs,), (cond,), (error,) = _fit_systems(*_saddle_systems(pts[None], config), y[None],
                                                np.isfinite(y).all(keepdims=True), stacklevel=3)
    if error is not None:
        raise error
    return RbfSurface(
        centers=pts,
        weights=coeffs[:n],
        tail_coeffs=coeffs[n:],
        config=config,
        condition_estimate=float(cond),
        ill_conditioned=bool(cond > CONDITION_WARN_THRESHOLD),
    )


def eval_rbf(surface: RbfSurface, queries) -> np.ndarray:
    """Surface values at (k, 2) query points; finite everywhere in the plane.
    This is ``eval_stack`` on a batch of one."""
    q = as_queries(queries)
    coeffs = np.concatenate([surface.weights, surface.tail_coeffs])
    return eval_stack(surface.centers[None], coeffs[None], q[None], surface.config.epsilon)[0]
