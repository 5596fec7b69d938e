"""Recursive terrain-class inference per face via Dirichlet-Categorical conjugacy.

Per-face class evidence is a vector of accumulated pseudo-counts.  Two
accumulation modes exist: ``soft`` (default) adds the full score vector of
each measurement, preserving segmentation uncertainty; ``hard`` adds one
count to each measurement's most likely class.  Both keep the total mass
identity sum(alpha') = sum(alpha) + n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError

UPDATE_MODES = ("soft", "hard")


@dataclass(frozen=True)
class ClassCatalog:
    """Ordered terrain-class names; the position of a name is its index."""

    names: tuple

    def __post_init__(self):
        if len(self.names) < 1:
            raise ConfigurationError("catalog needs at least one class")
        if len(set(self.names)) != len(self.names):
            raise ConfigurationError("class names must be unique")

    @property
    def k(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


def _check_measurements(measurements, k):
    m = np.atleast_2d(np.asarray(measurements, dtype=float))
    if m.shape[1] != k:
        raise InputError(f"measurements have {m.shape[1]} classes, expected {k}")
    if np.any(m < 0) or np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-6):
        raise InputError("each measurement must be a normalized score vector")
    return m


def dirichlet_update(alpha, measurements, mode: str = "soft") -> np.ndarray:
    """Accumulate measurement evidence onto a class pseudo-count vector.

    ``soft`` adds score vectors elementwise; ``hard`` adds indicator counts
    of each measurement's argmax class (ties break toward the lowest index).
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha < 0) or not np.all(np.isfinite(alpha)):
        raise InputError("alpha must be non-negative and finite")
    if mode not in UPDATE_MODES:
        raise InputError(f"unknown update mode {mode!r}")
    m = _check_measurements(measurements, alpha.size)
    if mode == "soft":
        return alpha + m.sum(axis=0)
    counts = np.bincount(np.argmax(m, axis=1), minlength=alpha.size)
    return alpha + counts


def class_predictive(alpha):
    """Probability that the next measurement takes each class: alpha normalized.

    Returns ``None`` when alpha is all zero: no observation has been made
    and "unknown" is deliberately distinct from a uniform prediction.
    """
    alpha = np.asarray(alpha, dtype=float)
    total = alpha.sum()
    if total <= 0.0:
        return None
    return alpha / total


def dirichlet_pdf(theta, alpha) -> float:
    """Dirichlet density at a point of the open simplex (log-space inside)."""
    theta = np.asarray(theta, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if theta.shape != alpha.shape:
        raise InputError("theta and alpha must have matching length")
    if np.any(alpha <= 0):
        raise InputError("alpha components must be strictly positive")
    if np.any(theta <= 0) or abs(theta.sum() - 1.0) > 1e-6:
        raise InputError("theta must lie on the open probability simplex")
    log_norm = math.lgamma(alpha.sum()) - sum(map(math.lgamma, alpha.tolist()))
    return float(np.exp(log_norm + ((alpha - 1.0) * np.log(theta)).sum()))
