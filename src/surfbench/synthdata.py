"""Controlled factorial dataset: input design, ground truth, seeded noise.

Three inputs on bounded ranges are discretized into a full factorial design
(4 x 4 x 3 = 48 points by default). Three outputs mix polynomial and
trigonometric terms; additive Gaussian noise with an output-specific scale
emulates measurement uncertainty.

Noise draws are counter-based: each draw is a pure function of
``(master_seed, row_index, output_index)``, so the dataset is deterministic
and independent of the order in which rows are produced. Draw (row, k) is
the inverse normal CDF of the top 53 bits of the first word of
``Philox(SeedSequence((master_seed, 1, row, k)))``; ``streams`` computes
those words for every key of a dataset in one vectorized call, and numpy's
own ``SeedSequence``/``Philox`` remain the test oracle. A dataset draws its
noise when its noisy channel is first read, so work that reads only the
clean channel draws none.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .streams import int_words, philox_first_words

__all__ = [
    "DesignSpec",
    "NoiseSpec",
    "FactorialDataset",
    "build_design",
    "eval_truth",
    "generate",
]

# Domain tag separating the noise stream from other seeded streams that share
# the master seed (train/test splits, bootstrap resampling).
_NOISE_STREAM_TAG = 1

_STD_NORMAL = NormalDist()


@dataclass(frozen=True)
class DesignSpec:
    """Axis ranges and level counts of the factorial input design."""

    x1_range: tuple[float, float] = (1.0, 2.0)
    x2_range: tuple[float, float] = (0.5, 1.5)
    x3_range: tuple[float, float] = (2.0, 4.0)
    x1_levels: int = 4
    x2_levels: int = 4
    x3_levels: int = 3

    def __post_init__(self):
        for name in ("x1", "x2", "x3"):
            lo, hi = getattr(self, f"{name}_range")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name}_range must have finite ends, got ({lo}, {hi})")
            if not lo < hi:
                raise ValueError(f"{name}_range must satisfy lower < upper, got ({lo}, {hi})")
            levels = getattr(self, f"{name}_levels")
            if levels < 2:
                raise ValueError(f"{name}_levels must be >= 2, got {levels}")

    @property
    def size(self) -> int:
        return self.x1_levels * self.x2_levels * self.x3_levels

    def axis_levels(self, axis: str) -> np.ndarray:
        """Evenly spaced levels for axis 'x1', 'x2' or 'x3'."""
        lo, hi = getattr(self, f"{axis}_range")
        return np.linspace(lo, hi, getattr(self, f"{axis}_levels"))


@dataclass(frozen=True)
class NoiseSpec:
    """Per-output Gaussian noise scales and the master seed."""

    sigma1: float = 0.1
    sigma2: float = 1.0
    sigma3: float = 2.0
    master_seed: int = 42

    def __post_init__(self):
        if min(self.sigma1, self.sigma2, self.sigma3) < 0:
            raise ValueError("noise sigmas must be >= 0")
        seed = self.master_seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"master_seed must be a non-negative integer, got {seed!r}")

    @property
    def sigmas(self) -> tuple[float, float, float]:
        return (self.sigma1, self.sigma2, self.sigma3)


def build_design(spec: DesignSpec) -> np.ndarray:
    """Full Cartesian product of per-axis levels, shape (size, 3).

    Rows are ordered lexicographically by (x1, x2, x3): x1 varies slowest,
    x3 fastest. This order defines the row index used to key noise draws.
    """
    g1, g2, g3 = np.meshgrid(
        spec.axis_levels("x1"),
        spec.axis_levels("x2"),
        spec.axis_levels("x3"),
        indexing="ij",
    )
    return np.column_stack([g1.ravel(), g2.ravel(), g3.ravel()])


def eval_truth(x1: float, x2: float, x3: float) -> tuple[float, float, float]:
    """Clean values of the three response functions at one design point."""
    y1 = x1 * x1 + x2 + math.sin(x3)
    y2 = x1 * x2 + x3 * x3
    y3 = math.cos(x1) + x2 * x3
    return (y1, y2, y3)


def _noise_draws(noise: NoiseSpec, rows) -> np.ndarray:
    """N(0, sigma_k^2) draws for design rows ``rows``, (len(rows), 3); each
    is a pure function of (seed, row, channel).

    The first 64-bit word of the Philox stream keyed by the identity tuple
    supplies a 53-bit uniform, mapped through the inverse normal CDF. The
    half-integer offset keeps the uniform strictly inside (0, 1). The 53
    bits are the word's top bits, which is exactly what
    ``Generator(Philox(key)).integers(0, 2**53)`` returns: for a
    power-of-two range its Lemire draw is ``x >> 11`` and never rejects.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    if rows.size and not (rows.min() >= 0 and rows.max() < 2**32):
        raise ValueError("noise row indices must be in [0, 2**32)")
    head = int_words(int(noise.master_seed)) + [_NOISE_STREAM_TAG]
    keys = np.empty((rows.size, 3, len(head) + 2), dtype=np.uint32)
    keys[..., :-2] = head
    keys[..., -2] = rows[:, None]
    keys[..., -1] = (0, 1, 2)
    raw = philox_first_words(keys.reshape(-1, keys.shape[-1])).reshape(rows.size, 3)
    u = ((raw >> 11).astype(float) + 0.5) / 2**53
    draws = np.zeros(u.shape)
    for k, sigma in enumerate(noise.sigmas):
        if sigma != 0.0:
            draws[:, k] = sigma * np.array(list(map(_STD_NORMAL.inv_cdf, u[:, k].tolist())))
    return draws


@dataclass(frozen=True)
class FactorialDataset:
    """The factorial design with clean and noisy output channels.

    The noisy channel is not stored: ``y_noisy`` is derived from ``y_clean``
    and ``noise``, row i keyed by its index i, and drawn on first read.
    Arrays are frozen (non-writeable) so a dataset can be shared across
    concurrent readers.
    """

    x: np.ndarray  # (n, 3) input triples
    y_clean: np.ndarray  # (n, 3)
    spec: DesignSpec = field(default_factory=DesignSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        for arr in (self.x, self.y_clean):
            arr.setflags(write=False)

    @cached_property
    def y_noisy(self) -> np.ndarray:
        """(n, 3) ``y_clean + _noise_draws(noise, arange(n))``, read-only."""
        y = self.y_clean + _noise_draws(self.noise, np.arange(self.n_rows))
        y.setflags(write=False)
        return y

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]

    def outputs(self, regime: str) -> np.ndarray:
        """The (n, 3) output matrix for a regime ('noise-free' or 'noisy')."""
        if regime == "noise-free":
            return self.y_clean
        if regime == "noisy":
            return self.y_noisy
        raise ValueError(f"unknown regime {regime!r}")


def generate(spec: DesignSpec | None = None, noise: NoiseSpec | None = None) -> FactorialDataset:
    """Build the dataset: design points and clean outputs; the seeded noisy
    outputs are drawn when first read (``FactorialDataset.y_noisy``).

    Pure function of (spec, noise): repeated calls return identical values.
    """
    spec = spec if spec is not None else DesignSpec()
    noise = noise if noise is not None else NoiseSpec()
    x = build_design(spec)
    y_clean = np.array([eval_truth(*row) for row in x.tolist()])
    return FactorialDataset(x=x, y_clean=y_clean, spec=spec, noise=noise)
