"""Class-conditional terrain-property models and the friction-fitting toolchain.

Each terrain class carries a unimodal Gaussian over the friction coefficient.
A face's property estimate is the mixture of these Gaussians weighted by the
face's class predictive; its weights pass the rule of estimates files,
:func:`~terramesh.semantics.non_probability_row`.  The fitting side ingests
pull-force logs from a drag-sled style device (mu = F / (m * g)), low-pass
filters them, fits three candidate families and ranks them by
Kolmogorov-Smirnov distance.

The normal CDF and density, the median, the filter and the fits are
written out here in closed form, so the package needs numpy alone at run
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateDataError,
    InputError,
    InsufficientDataError,
)
from .semantics import ClassCatalog, non_probability_row

GRAVITY = 9.81

MODEL_FILE_MAGIC = "terramesh-friction-models v1"

FIT_FAMILIES = ("gaussian", "lognormal", "weibull")
MIN_FIT_SAMPLES = 30

_SQRT_HALF = math.sqrt(0.5)


def ndtr(z):
    """Standard normal CDF, ``0.5 * erfc(-z / sqrt(2))``, elementwise."""
    z = np.asarray(z, dtype=float)
    tail = np.fromiter(map(math.erfc, (-_SQRT_HALF * z).ravel().tolist()), float, count=z.size)
    return 0.5 * tail.reshape(z.shape)


def normal_pdf(x, mu, sigma):
    """Gaussian density, elementwise over broadcast ``x``, ``mu``, ``sigma``."""
    z = (x - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def median(values) -> float:
    """``np.median`` of the flattened ``values``, from one partition: the
    middle element, or ``(a + b) / 2`` of the two middle elements, and NaN
    if any value is NaN.  ``np.median`` would import ``numpy.ma`` on its
    first call, which costs a cold process about 18 ms."""
    a = np.asarray(values, dtype=float).reshape(-1)
    if a.size == 0 or np.isnan(a).any():
        return math.nan
    half = a.size // 2
    # np.median's sum starts from +0.0, so a median of zeros reads +0.0
    if a.size % 2:
        return float(np.partition(a, half)[half] + 0.0)
    part = np.partition(a, (half - 1, half))
    return float((part[half - 1] + part[half] + 0.0) / 2)


@dataclass(frozen=True)
class PropertyModel:
    """Per-class Gaussian over a dimensionless terrain property."""

    class_name: str
    mu: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ConfigurationError(f"{self.class_name}: sigma must be positive")
        if not math.isfinite(self.mu):
            raise ConfigurationError(f"{self.class_name}: mu must be finite")


class PropertyMixture:
    """Gaussian mixture over a property; one mode per terrain class."""

    def __init__(self, weights, components):
        self.weights = np.asarray(weights, dtype=float)
        self.components = list(components)
        if self.weights.size != len(self.components):
            raise ConfigurationError("one weight per component required")
        if non_probability_row(self.weights) is not None:
            raise ConfigurationError("weights must be a probability vector")
        self._mus = np.array([c.mu for c in self.components])
        self._sigmas = np.array([c.sigma for c in self.components])

    def mean(self) -> float:
        return float(self.weights @ self._mus)

    def variance(self) -> float:
        second = self.weights @ (self._sigmas**2 + self._mus**2)
        return float(second - self.mean() ** 2)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return normal_pdf(x[..., None], self._mus, self._sigmas) @ self.weights

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x[..., None] - self._mus) / self._sigmas
        return ndtr(z) @ self.weights


# -- force-log ingestion ------------------------------------------------------


@dataclass
class ForceLog:
    """Timestamped pull-force samples plus the dragged mass."""

    times_s: np.ndarray
    forces_n: np.ndarray
    mass_kg: float

    def __post_init__(self):
        self.times_s = np.asarray(self.times_s, dtype=float)
        self.forces_n = np.asarray(self.forces_n, dtype=float)
        if self.times_s.shape != self.forces_n.shape or self.times_s.ndim != 1:
            raise InputError("times and forces must be matching 1-D arrays")
        if not np.all(np.isfinite(self.forces_n)) or not np.all(np.isfinite(self.times_s)):
            raise InputError("force log samples must be finite")
        if not (self.mass_kg > 0):
            raise InputError("device mass must be positive")


def smooth_exponential(x, alpha_coeff):
    """First-order exponential smoothing y_i = a*x_i + (1-a)*y_{i-1}, y_{-1} = x_0.

    Each step is ``(1-a)*y_prev + a*x``, the operation order of the direct
    form filter with that initial state, so results are reproducible bit for
    bit against it.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return x.copy()
    a = float(alpha_coeff)
    keep = 1.0 - a
    prev = float(x[0])
    out = []
    for xi in x.tolist():
        prev = keep * prev + a * xi
        out.append(prev)
    return np.array(out)


def friction_from_force(log: ForceLog, cutoff_hz: float = 5.0) -> np.ndarray:
    """Friction-coefficient samples: low-pass filtered force over m*g.

    The filter is first-order exponential smoothing with coefficient
    dt / (dt + 1/(2*pi*fc)), assuming a uniform sample period (the median of
    the time deltas).
    """
    if log.forces_n.size == 0:
        return np.empty(0)
    if cutoff_hz <= 0:
        raise InputError("cutoff frequency must be positive")
    forces = log.forces_n
    if log.times_s.size > 1:
        dt = median(np.diff(log.times_s))
        if dt <= 0:
            raise InputError("timestamps must be increasing")
        tau = 1.0 / (2.0 * math.pi * cutoff_hz)
        forces = smooth_exponential(forces, dt / (dt + tau))
    return forces / (log.mass_kg * GRAVITY)


# -- distribution fitting -----------------------------------------------------


# closed-form CDF of each fitted family, keyed by the names of its fit parameters
FAMILY_CDFS = {
    "gaussian": lambda v, mu, sigma: ndtr((v - mu) / sigma),
    "lognormal": lambda v, shape, scale: ndtr(np.log(v / scale) / shape),
    "weibull": lambda v, shape, scale: -np.expm1(-((v / scale) ** shape)),
}


def ks_statistic(samples, cdf) -> float:
    """Two-sided sup distance between the empirical CDF and a fitted CDF.

    For a continuous CDF the infimum over data is 1/(2n), attained when the
    CDF threads the midpoints of the empirical steps.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    return float(max((i / n - f).max(), (f - (i - 1) / n).max()))


def weibull_fit(samples) -> tuple[float, float]:
    """Maximum-likelihood Weibull ``(shape, scale)`` with the location fixed at 0.

    The shape c is the root of the profile-likelihood equation
    ``1/c + mean(ln x) - sum(x^c ln x) / sum(x^c) = 0`` (Cohen, "Maximum
    likelihood estimation in the Weibull distribution based on complete and
    on censored samples", Technometrics 1965).  Its left side falls strictly
    in c, from +inf at 0 to ``mean(ln x) - max(ln x) < 0``, so Newton steps
    kept inside the sign bracket (bisection when a step leaves it) find the
    single root.  Samples are divided by their maximum first: the equation
    is unchanged and x^c stays in (0, 1].
    """
    x = np.asarray(samples, dtype=float)
    top = float(x.max())
    logs = np.log(x / top)
    mean_log = float(logs.mean())
    lo, hi = 0.0, math.inf
    c = math.pi / (math.sqrt(6.0) * float(logs.std()))  # Menon's moment estimate
    for _ in range(200):
        w = np.exp(c * logs)
        total = float(w.sum())
        m1 = float(w @ logs) / total
        m2 = float(w @ (logs * logs)) / total
        g = 1.0 / c + mean_log - m1
        if g > 0.0:
            lo = c
        elif g < 0.0:
            hi = c
        else:
            break
        step = c - g / (-1.0 / (c * c) - (m2 - m1 * m1))
        if not lo < step < hi:
            step = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * c
        done = abs(step - c) <= 1e-14 * c
        c = step
        if done:
            break
    scale = top * float(np.mean(np.exp(c * logs))) ** (1.0 / c)
    return c, scale


@dataclass
class FitSelection:
    best_family: str
    params: dict
    ks: dict
    n: int


def fit_and_select(samples) -> FitSelection:
    """Fit Gaussian / log-normal / Weibull by ML and rank by KS distance.

    At least :data:`MIN_FIT_SAMPLES` samples are needed.  A family without
    a fit is absent from ``params`` and ``ks``: both families needing
    positive support when the data contains non-positive values, and the
    log-normal when the logs have no spread.  The family with the smallest
    KS statistic wins; ties break in the fixed family order.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < MIN_FIT_SAMPLES:
        raise InsufficientDataError(f"need at least {MIN_FIT_SAMPLES} samples, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise InputError("samples must be finite")
    if x.std() == 0.0:
        raise DegenerateDataError("samples have zero spread; fit is undefined")

    params: dict = {"gaussian": {"mu": float(x.mean()), "sigma": float(x.std())}}
    if np.all(x > 0):
        logs = np.log(x)
        shape = float(logs.std())
        if shape != 0.0:  # a zero log-spread has no log-normal fit
            params["lognormal"] = {"shape": shape, "scale": float(np.exp(logs.mean()))}
        c, w_scale = weibull_fit(x)
        params["weibull"] = {"shape": c, "scale": w_scale}
    ks = {family: ks_statistic(x, partial(FAMILY_CDFS[family], **p)) for family, p in params.items()}

    best = min(
        (family for family in FIT_FAMILIES if family in ks),
        key=lambda family: (ks[family], FIT_FAMILIES.index(family)),
    )
    return FitSelection(best_family=best, params=params, ks=ks, n=int(x.size))


# -- model file I/O -----------------------------------------------------------


def default_models_path():
    """Path of the friction-model file shipped with the package."""
    return Path(__file__).parent / "data" / "friction_models.tsv"


def load_models(path=None):
    """Read a friction-model file: ``(ClassCatalog, [PropertyModel, ...])``.

    The file is tab-separated, one class per line (name, mu, sigma), with a
    versioned magic first line.  Line order defines the class indices.
    """
    if path is None:
        path = default_models_path()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read model file {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"model file {path} is not UTF-8 text: {exc}") from exc

    lines = text.splitlines()
    if not lines or lines[0].strip() != MODEL_FILE_MAGIC:
        raise ConfigurationError(f"model file must start with {MODEL_FILE_MAGIC!r}")
    models = _read_models(lines[1:], start=2)
    return ClassCatalog(tuple(m.class_name for m in models)), models


def _read_models(lines, start: int) -> list:
    """The models of model-file ``lines``, numbered from ``start``; blank
    lines and lines starting with ``#`` are skipped."""
    models = []
    for lineno, raw in enumerate(lines, start=start):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = raw.split("\t")
        if len(parts) != 3:
            raise ConfigurationError(f"line {lineno}: expected name<TAB>mu<TAB>sigma")
        name = parts[0].strip()
        try:
            mu = float(parts[1])
            sigma = float(parts[2])
        except ValueError as exc:
            raise ConfigurationError(f"line {lineno}: bad number: {exc}") from exc
        try:
            models.append(PropertyModel(name, mu, sigma))
        except ConfigurationError as exc:
            raise ConfigurationError(f"line {lineno}: {exc}") from exc
    return models


def save_models(path, models) -> None:
    """Write a friction-model file that :func:`load_models` reads back as
    ``models``.  Each line is read back as it is made, and a class name
    that would read back otherwise, or a catalog :class:`ClassCatalog`
    refuses, raises :class:`ConfigurationError` before anything is written."""
    ClassCatalog(tuple(m.class_name for m in models))
    lines = [MODEL_FILE_MAGIC, "# class\tmu\tsigma"]
    for m in models:
        lines.append(f"{m.class_name}\t{float(m.mu)!r}\t{float(m.sigma)!r}")
        try:
            back = _read_models(lines[-1].splitlines(), start=len(lines))
        except ConfigurationError:
            back = None
        if back != [m]:
            raise ConfigurationError(f"class name {m.class_name!r} would not read back from a model file")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_default_models():
    return load_models(default_models_path())
