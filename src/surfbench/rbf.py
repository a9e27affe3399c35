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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateNodes,
    IllConditionedWarning,
    InsufficientNodes,
    NonFiniteInput,
    SingularSystem,
)
from .geometry import as_points

__all__ = ["RbfConfig", "RbfSurface", "kernel_mq", "fit_rbf", "eval_rbf", "smoothing_residual"]

CONDITION_WARN_THRESHOLD = 1e12


def kernel_mq(r, epsilon: float = 1.0):
    """Multiquadric kernel sqrt(1 + (epsilon * r)^2); equals 1 at r = 0."""
    r = np.asarray(r, dtype=float)
    out = np.sqrt(1.0 + (epsilon * r) ** 2)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class RbfConfig:
    """Kernel shape parameter and smoothing strength of an RBF fit."""

    epsilon: float = 1.0
    smoothing: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not 0.0 <= self.smoothing < math.inf:
            raise ValueError(f"smoothing must be finite and >= 0, got {self.smoothing}")


def _tail_matrix(pts: np.ndarray) -> np.ndarray:
    """The degree-1 tail basis [1, x, y] at each point."""
    return np.column_stack([np.ones(pts.shape[0]), pts[:, 0], pts[:, 1]])


def _kernel_matrix(a: np.ndarray, b: np.ndarray, epsilon: float) -> np.ndarray:
    d = a[:, None, :] - b[None, :, :]
    return kernel_mq(np.hypot(d[..., 0], d[..., 1]), epsilon)


@dataclass(frozen=True)
class RbfSurface:
    """A fitted RBF surface; defined on all of R^2 (no hull restriction)."""

    centers: np.ndarray
    weights: np.ndarray
    tail_coeffs: np.ndarray
    config: RbfConfig
    condition_estimate: float
    ill_conditioned: bool


def fit_rbf(points, values, config: RbfConfig | None = None) -> RbfSurface:
    """Fit the multiquadric RBF surface through (points, values).

    Raises NonFiniteInput for a NaN or infinite coordinate or value,
    InsufficientNodes for fewer than 3 nodes, and SingularSystem for
    duplicate centers or collinear nodes (which cannot carry the degree-1
    tail); emits IllConditionedWarning and flags the surface when the
    condition estimate exceeds 1e12, but still returns the fit.
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
    if not np.isfinite(y).all():
        raise NonFiniteInput("rbf fit values must be finite")
    if n < 3:
        raise InsufficientNodes(f"rbf fit needs >= 3 nodes for its degree-1 tail, got {n}")
    centered = pts - pts.mean(axis=0)
    if np.linalg.matrix_rank(centered, tol=1e-12 * max(1.0, np.abs(centered).max())) < 2:
        raise SingularSystem("collinear nodes cannot carry a degree-1 tail")
    k = _kernel_matrix(pts, pts, config.epsilon)
    p = _tail_matrix(pts)
    a = np.zeros((n + 3, n + 3))
    a[:n, :n] = -k + config.smoothing * np.eye(n)
    a[:n, n:] = p
    a[n:, :n] = p.T
    rhs = np.concatenate([y, np.zeros(3)])
    try:
        sol = np.linalg.solve(a, rhs)
        cond = float(np.linalg.cond(a, 1))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"saddle system is singular: {exc}") from exc
    sol[:n] = -sol[:n]  # back to the positive kernel convention
    if not np.all(np.isfinite(sol)):
        raise SingularSystem("saddle system solve produced non-finite coefficients")
    ill = bool(cond > CONDITION_WARN_THRESHOLD)
    if ill:
        warnings.warn(
            f"rbf system condition estimate {cond:.3g} exceeds {CONDITION_WARN_THRESHOLD:g}",
            IllConditionedWarning,
            stacklevel=2,
        )
    return RbfSurface(
        centers=pts,
        weights=sol[:n],
        tail_coeffs=sol[n:],
        config=config,
        condition_estimate=cond,
        ill_conditioned=ill,
    )


def eval_rbf(surface: RbfSurface, queries) -> np.ndarray:
    """Surface values at (k, 2) query points; finite everywhere in the plane."""
    q = np.asarray(queries, dtype=float)
    if q.ndim != 2 or q.shape[1] != 2:
        raise ValueError(f"expected (k, 2) query coordinates, got shape {q.shape}")
    out = _kernel_matrix(q, surface.centers, surface.config.epsilon) @ surface.weights
    return out + _tail_matrix(q) @ surface.tail_coeffs


def smoothing_residual(surface: RbfSurface, points, values) -> tuple[float, float]:
    """Diagnostics of the penalized objective at the fitted surface.

    Returns (data_residual, kernel_energy): the sum of squared data misfits
    sum_i (y_i - s(x_i))^2 and the roughness term w^T K w.
    """
    pts = as_points(points)
    y = np.asarray(values, dtype=float)
    resid = y - eval_rbf(surface, pts)
    k = _kernel_matrix(surface.centers, surface.centers, surface.config.epsilon)
    energy = float(surface.weights @ k @ surface.weights)
    return float(resid @ resid), energy
