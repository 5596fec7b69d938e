"""Recursive terrain-class inference per face via Dirichlet-Categorical conjugacy.

Per-face class evidence is a vector of accumulated pseudo-counts.  Two
accumulation modes exist: ``soft`` (default) adds the full score vector of
each measurement, preserving segmentation uncertainty; ``hard`` adds one
count to each measurement's most likely class.  Both keep the total mass
identity sum(alpha') = sum(alpha) + n.

A run reduces each frame's measurements with :func:`face_evidence` and
estimates with :func:`face_predictive`; :func:`dirichlet_update` and
:func:`class_predictive` are their one-face calls.  :func:`non_probability_row`
is the one rule that frame scores, measurements, estimates rows and mixture
weights pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError

UPDATE_MODES = ("soft", "hard")
SCORE_TOL = 1e-4  # tolerance on the sum of each measurement's class scores


@dataclass(frozen=True)
class ClassCatalog:
    """Ordered terrain-class names; the position of a name is its index."""

    names: tuple

    def __post_init__(self):
        if len(self.names) < 1:
            raise ConfigurationError("catalog needs at least one class")
        repeated = [name for name in self.names if self.names.count(name) > 1]
        if repeated:
            raise ConfigurationError(f"duplicate class name {repeated[0]!r}")

    @property
    def k(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


def non_probability_row(vectors):
    """The first row of ``vectors.reshape(-1, K)`` that is not a probability
    vector (non-negative, summing to one within :data:`SCORE_TOL`; NaN and
    inf fail), or ``None``.  Per-row verdicts are computed only after two
    whole-array reductions fail.

    Float32 input, every bundle frame's scores, is first decided in float32:
    a float32 sum of K non-negative terms lies within (K-1) * 2**-24 of its
    exact value in any summation order, so sums within ``SCORE_TOL - 4 K
    2**-24`` of one pass the float64 rule too.  Anything else goes to the
    float64 sums below."""
    v = np.asarray(vectors)
    # a NaN entry makes the minimum NaN, and an inf entry makes its sum inf
    if v.dtype == np.float32 and v.size and v.min() >= 0:
        k = v.shape[-1]
        sums = v.reshape(-1, k) @ np.ones(k, dtype=np.float32)
        if max(float(sums.max()) - 1.0, 1.0 - float(sums.min())) <= SCORE_TOL - 4 * k * 2.0**-24:
            return None
    off = np.abs(np.einsum("...k->...", v, dtype=float) - 1.0)
    # written so that NaN fails both comparisons (a NaN entry makes the minimum NaN)
    if off.size == 0 or (off.max() <= SCORE_TOL and v.min() >= 0):
        return None
    return int(np.argmin(((off <= SCORE_TOL) & (v >= 0).all(axis=-1)).reshape(-1)))


def face_evidence(inverse, scores, num_faces: int, mode: str):
    """Per-face class evidence of one batch of measurements.

    ``inverse`` (n,) gives each measurement's face row in ``[0, m)``, where
    m is ``num_faces``, and ``scores`` is class-major (K, n).  Returns
    ``(sums, counts, evidence)``: the (m, K) score sums and (m,) measurement
    counts, each
    adding its terms in measurement order, and the evidence the update adds
    to alpha, which is ``sums`` in ``soft`` mode and, in ``hard`` mode, the
    (m, K) counts of each measurement's argmax class (ties break toward the
    lowest index).
    """
    k = scores.shape[0]
    counts = np.bincount(inverse, minlength=num_faces)
    sums = np.empty((num_faces, k))
    for j in range(k):
        sums[:, j] = np.bincount(inverse, weights=scores[j], minlength=num_faces)
    if mode == "soft":
        return sums, counts, sums
    labels = np.argmax(scores, axis=0)
    hard = np.bincount(inverse * k + labels, minlength=num_faces * k).reshape(num_faces, k)
    return sums, counts, hard


def face_predictive(alpha, out=None):
    """Per-face probability that the next measurement takes each class.

    Each row of the (F, K) evidence is normalized.  Returns ``(weights,
    known)``; a row without evidence is unknown and keeps zero weights.
    The weights are written into ``out`` when it is given, which may be
    ``alpha`` itself to normalize in place; otherwise into a new array.
    """
    totals = alpha.sum(axis=1)
    known = totals > 0
    if out is None:
        out = np.zeros_like(alpha)
    elif not known.all():
        out[~known] = 0.0
    weights = np.divide(alpha, totals[:, None], out=out, where=known[:, None])
    return weights, known


def dirichlet_update(alpha, measurements, mode: str = "soft") -> np.ndarray:
    """Accumulate measurement evidence onto a class pseudo-count vector.

    The measurements are reduced as one face by :func:`face_evidence`.
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha < 0) or not np.all(np.isfinite(alpha)):
        raise InputError("alpha must be non-negative and finite")
    if mode not in UPDATE_MODES:
        raise InputError(f"unknown update mode {mode!r}")
    m = np.atleast_2d(np.asarray(measurements, dtype=float))
    if m.shape[1] != alpha.size:
        raise InputError(f"measurements have {m.shape[1]} classes, expected {alpha.size}")
    if non_probability_row(m) is not None:
        raise InputError("each measurement must be a normalized score vector")
    _, _, evidence = face_evidence(np.zeros(m.shape[0], dtype=np.intp), m.T, 1, mode)
    return alpha + evidence[0]


def class_predictive(alpha):
    """One row of :func:`face_predictive`: alpha normalized.

    Returns ``None`` when alpha is all zero: no observation has been made
    and "unknown" is deliberately distinct from a uniform prediction.
    """
    weights, known = face_predictive(np.asarray(alpha, dtype=float).reshape(1, -1))
    return weights[0] if known[0] else None
