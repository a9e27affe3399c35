"""Experiment configuration: one flat record of every benchmark setting.

The same key set appears in three places and must stay aligned: the
``ExperimentConfig`` fields, config files passed to the CLI (JSON object or
``settings.csv`` key/value rows), and the ``settings.csv`` artifact written
next to experiment results. ``settings.csv`` round-trips: parsing it back
yields a config equal to the one used.

``RbfConfig``, the RBF part of a config, lives here too (``surfbench.rbf``
re-exports it), so building a config imports no fitting code.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path

from .synthdata import NoiseSpec

__all__ = ["ExperimentConfig", "RbfConfig", "load_config"]

CUBIC_METHOD = "clough_tocher"
RBF_KERNEL = "multiquadric"


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


@dataclass(frozen=True)
class ExperimentConfig:
    random_seed: int = 42
    repeats_per_slice: int = 40
    train_fraction: float = 0.7
    bootstrap_resamples: int = 1000
    rbf_kernel: str = RBF_KERNEL
    rbf_smoothing: float = 0.0
    rbf_epsilon: float = 1.0
    cubic_interpolator: str = CUBIC_METHOD
    noise_sigma_output1: float = 0.1
    noise_sigma_output2: float = 1.0
    noise_sigma_output3: float = 2.0
    grid_resolution: int = 50

    def __post_init__(self):
        # Numbers arrive as Python or NumPy numbers, or as strings from a
        # settings file; store each as its field's type, rejecting other
        # types (a bool, null, a list or an object from JSON), what would
        # have to be rounded, and floats that are not finite.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type not in ("int", "float"):
                continue
            kind = "an integer" if f.type == "int" else "a finite number"
            try:
                if isinstance(value, bool) or not isinstance(value, (numbers.Real, str)):
                    raise ValueError
                number = int(value) if f.type == "int" else float(value)
                if (isinstance(value, float) and number != value) or (
                        isinstance(number, float) and not math.isfinite(number)):
                    raise ValueError  # rounded, or not finite
            except (ValueError, OverflowError):
                raise ValueError(f"{f.name} must be {kind}, got {value!r}") from None
            object.__setattr__(self, f.name, number)
        if self.random_seed < 0:
            raise ValueError("random_seed must be >= 0")
        if self.repeats_per_slice < 1:
            raise ValueError("repeats_per_slice must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.bootstrap_resamples < 1:
            raise ValueError("bootstrap_resamples must be >= 1")
        if self.rbf_kernel != RBF_KERNEL:
            raise ValueError(
                f"unsupported rbf_kernel {self.rbf_kernel!r}; only {RBF_KERNEL!r} is implemented"
            )
        if self.cubic_interpolator != CUBIC_METHOD:
            raise ValueError(
                f"unsupported cubic_interpolator {self.cubic_interpolator!r}; "
                f"only {CUBIC_METHOD!r} is implemented"
            )
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be >= 2")
        # Noise sigma bounds are enforced by NoiseSpec, epsilon and
        # smoothing bounds by RbfConfig.
        self.noise_spec()
        self.rbf_config()

    def noise_spec(self) -> NoiseSpec:
        return NoiseSpec(
            sigma1=self.noise_sigma_output1,
            sigma2=self.noise_sigma_output2,
            sigma3=self.noise_sigma_output3,
            master_seed=self.random_seed,
        )

    def rbf_config(self) -> RbfConfig:
        return RbfConfig(epsilon=self.rbf_epsilon, smoothing=self.rbf_smoothing)

    def to_rows(self) -> list[tuple[str, str]]:
        """(key, value) rows in field order, with full float precision."""
        rows = []
        for f in fields(self):
            v = getattr(self, f.name)
            rows.append((f.name, "%.17g" % v if isinstance(v, float) else str(v)))
        return rows

    def sha256(self) -> str:
        text = "\n".join(f"{k}={v}" for k, v in self.to_rows())
        return hashlib.sha256(text.encode()).hexdigest()

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        for key in mapping:
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
        return cls(**mapping)

    def write_settings_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["key", "value"])
            writer.writerows(self.to_rows())

    @classmethod
    def from_settings_csv(cls, path) -> "ExperimentConfig":
        """Parse key,value rows. Raises ValueError, naming the path and the
        line, for another header, a row without 2 fields or a repeated key;
        a blank line is no row."""
        mapping = {}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["key", "value"]:
                raise ValueError(f"{path}: expected settings header 'key,value'")
            for row in filter(None, reader):
                if len(row) != 2:
                    raise ValueError(f"{path}: line {reader.line_num} does not have 2 fields")
                if row[0] in mapping:
                    raise ValueError(f"{path}: line {reader.line_num} repeats key {row[0]!r}")
                mapping[row[0]] = row[1]
        return cls.from_mapping(mapping)


def load_config(path) -> ExperimentConfig:
    """Load a config from a JSON object file or a settings.csv file. A file
    that is not JSON, or a key repeated in one JSON object, raises
    ValueError naming the path, as a repeated settings.csv key does."""
    p = Path(path)
    if p.suffix == ".csv":
        return ExperimentConfig.from_settings_csv(p)

    def unique(pairs):
        mapping = {}
        for key, value in pairs:
            if key in mapping:
                raise ValueError(f"{path}: repeats key {key!r}")
            mapping[key] = value
        return mapping

    with open(p) as fh:
        try:
            data = json.load(fh, object_pairs_hook=unique)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config file must hold a flat JSON object")
    return ExperimentConfig.from_mapping(data)
