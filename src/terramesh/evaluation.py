"""Quantitative evaluation: KL to ground truth, precision-recall, accuracy, timing.

KL divergences between property mixtures have no closed form, so they are
computed by fixed-grid trapezoidal quadrature (4096 uniform nodes on
[-0.5, 1.5]) with a hard density floor; this is deterministic and
reproducible across runs, unlike Monte-Carlo estimates.

Every metric reads an estimate's known rows in ``ids`` order
(:class:`~terramesh.pipeline.FaceEstimates`); unknown faces enter only as counts.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .errors import EvaluationError
from .formats import write_csv
from .geometry import CameraIntrinsics, pose_from_camera
from .mesh import MeshConfig, init_mesh
from .pipeline import FaceEstimates, Mapper, PipelineConfig
from .properties import load_default_models, median, ndtr, normal_pdf
from .sim import ClassMap, Heightfield, WorldSpec, render_frame

KL_GRID_LO = -0.5
KL_GRID_HI = 1.5
KL_GRID_NODES = 4096
DENSITY_FLOOR = 1e-300
# a density is "present" on the grid above this level; used only to detect
# estimates with no mass over the truth's support
SUPPORT_LEVEL = 1e-12
# known faces per block of kl_per_face: 8 x 4096 float64 is 256 KB per working
# array.  At 16 and 32 rows a fresh process took 70-87k minor page faults per
# 5,000 faces and 0.43-0.55 s instead of 0.25 s
KL_BLOCK_ROWS = 8

LOW_FRICTION_THRESHOLD = 0.5


def _grid():
    return np.linspace(KL_GRID_LO, KL_GRID_HI, KL_GRID_NODES)


def _truth_terms(p_dens):
    """What KL needs of truth densities: floored, their log, support mask."""
    p = np.maximum(p_dens, DENSITY_FLOOR)
    return p, np.log(p), p_dens > SUPPORT_LEVEL


def _kl_on_grid(p_floor, log_p, p_support, q, spacing, scratch) -> np.ndarray:
    """KL(p || q) along the last axis by trapezoidal quadrature over the
    grid whose node spacing ``np.diff(grid)`` is ``spacing``.

    The truth terms come from :func:`_truth_terms`.  Overwrites the estimate
    densities ``q`` and ``scratch`` (one node fewer than ``q``).  The sum is
    ``np.trapezoid``'s, operation for operation, written into a buffer the
    caller reuses: in a new process, the block-sized temporaries that
    ``np.trapezoid`` allocates were page-faulted back in on every block.
    """
    no_mass = np.any(p_support & (q <= DENSITY_FLOOR), axis=-1)
    np.maximum(q, DENSITY_FLOOR, out=q)
    np.log(q, out=q)
    np.subtract(log_p, q, out=q)
    np.multiply(p_floor, q, out=q)
    np.add(q[..., 1:], q[..., :-1], out=scratch)
    np.multiply(spacing, scratch, out=scratch)
    np.divide(scratch, 2.0, out=scratch)
    kl = np.where(no_mass, np.inf, scratch.sum(axis=-1))
    # quadrature may dip a hair negative for identical inputs
    if np.any(kl[np.isfinite(kl)] < -1e-6):
        raise EvaluationError("KL quadrature produced a significantly negative value")
    return np.maximum(kl, 0.0)


def kl_mixture(p_true, q_est) -> float:
    """KL(p || q) between two property mixtures by fixed-grid quadrature."""
    grid = _grid()
    q = q_est.pdf(grid)
    return float(_kl_on_grid(*_truth_terms(p_true.pdf(grid)), q, np.diff(grid), np.empty(q.size - 1)))


def kl_per_face(estimates: FaceEstimates, truth_classes, models):
    """Per-face KL(truth || estimate); NaN where the estimate is unknown.

    Streamed through blocks of ``KL_BLOCK_ROWS`` known faces, so working
    memory does not grow with the map.  A face's truth density is one of the
    K component rows, so what KL needs of it is computed once per class.
    """
    truth_classes = np.asarray(truth_classes)
    grid = _grid()
    mus = np.array([m.mu for m in models])
    sigmas = np.array([m.sigma for m in models])
    comp = normal_pdf(grid, mus[:, None], sigmas[:, None])
    p_floor, log_p, p_support = _truth_terms(comp)
    out = np.full(truth_classes.size, np.nan)
    faces = estimates.ids
    bounds = list(range(0, faces.size, KL_BLOCK_ROWS)) + [faces.size]
    if faces.size > 1 and bounds[-1] - bounds[-2] == 1:
        # a one-row product goes through BLAS gemv, which rounds differently
        # from the gemm every other row sees: fold the lone row into the block
        del bounds[-2]
    spacing = np.diff(grid)
    scratch = np.empty((KL_BLOCK_ROWS + 1, spacing.size))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        rows = faces[start:stop]
        cls = truth_classes[rows]
        q = estimates.known_weights[start:stop] @ comp
        out[rows] = _kl_on_grid(p_floor[cls], log_p[cls], p_support[cls], q, spacing, scratch[: rows.size])
    return out


def kl_summary(estimates: FaceEstimates, truth_classes, models):
    """Mean and median KL over faces with a known estimate."""
    per_face = kl_per_face(estimates, truth_classes, models)
    vals = per_face[~np.isnan(per_face)]
    if vals.size == 0:
        raise EvaluationError("no faces carry a known estimate")
    return float(np.mean(vals)), median(vals), per_face


def low_friction_scores(estimates: FaceEstimates, models) -> np.ndarray:
    """Detector statistic for "low friction": mixture CDF mass at the
    threshold, per known face, in ``estimates.ids`` order."""
    mus = np.array([m.mu for m in models])
    sigmas = np.array([m.sigma for m in models])
    phi = ndtr((LOW_FRICTION_THRESHOLD - mus) / sigmas)
    return estimates.known_weights @ phi


def _true_low(truth_classes: np.ndarray, models) -> np.ndarray:
    """Whether each face's true class has a low-friction mean."""
    mus = np.array([m.mu for m in models])
    return mus[truth_classes] <= LOW_FRICTION_THRESHOLD


@dataclass
class PRResult:
    thresholds: np.ndarray
    recall: np.ndarray
    precision: np.ndarray
    average_precision: float


def pr_curve(estimates: FaceEstimates, truth_classes, models, positive: str = "low") -> PRResult:
    """Precision-recall for low/high-friction classification over faces.

    A face's true label derives from its true class mean; the detector score
    is the estimated probability mass on the positive side of the threshold.
    Faces without an estimate are never predicted positive but still count
    in the recall denominator (missed positives).  The decision threshold
    sweeps every distinct score in [0, 1] (the exact curve).  A class that
    no face has gets an empty curve with AP ``nan``.
    """
    truth_classes = np.asarray(truth_classes)
    if truth_classes.size == 0:
        raise EvaluationError("empty face set")
    true_low = _true_low(truth_classes, models)
    if positive == "low":
        is_positive = true_low
        scores = low_friction_scores(estimates, models)
    elif positive == "high":
        is_positive = ~true_low
        scores = 1.0 - low_friction_scores(estimates, models)
    else:
        raise EvaluationError(f"unknown positive class {positive!r}")

    total_pos = int(is_positive.sum())
    if total_pos == 0:
        empty = np.array([])
        return PRResult(empty, empty, empty, average_precision=math.nan)

    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    positives = is_positive[estimates.ids[order]]

    # one PR point per distinct score value (predict positive at score >= t)
    idx = np.flatnonzero(np.diff(scores, append=np.nan))
    thresholds = scores[idx]
    tp = np.cumsum(positives)[idx]
    recall = tp / total_pos
    precision = tp / (idx + 1)

    # anchor the curve at zero recall with the earliest precision
    r = np.concatenate([[0.0], recall])
    p = np.concatenate([precision[:1], precision])
    ap = float(np.sum(np.diff(r) * 0.5 * (p[1:] + p[:-1])))
    return PRResult(thresholds=thresholds, recall=recall, precision=precision, average_precision=ap)


def accuracy(estimates: FaceEstimates, truth_classes, models) -> float:
    """Fraction of faces whose low/high call at threshold 0.5 matches truth.

    Only known faces are called; unknown faces count as incorrect.
    """
    truth_classes = np.asarray(truth_classes)
    if truth_classes.size == 0:
        raise EvaluationError("empty face set")
    true_low = _true_low(truth_classes, models)[estimates.ids]
    correct = (low_friction_scores(estimates, models) >= 0.5) == true_low
    return float(correct.sum() / truth_classes.size)


# -- timing benchmark -------------------------------------------------------------


@dataclass
class BenchRow:
    side_length_m: float
    half_extent_m: float
    num_faces: int
    num_points: int
    trials: int
    stage: str
    mean_s: float
    std_s: float


# what a bench row times, in bench.csv order: each FrameTiming field, with
# the derived update part before the total
_BENCH_STAGES = ("project", "assign", "elevation", "semantics", "update", "total")


def bench_frame(half_extent_m: float, image_size=(424, 240), altitude: float = 1.3):
    """One noiseless frame of a flat scene whose footprint covers the window.

    The camera is pitched off vertical so pixel rows never align exactly
    with the mesh lattice (an axis-aligned straight-down view is a
    degenerate geometry no real trajectory produces).
    """
    catalog, _ = load_default_models()
    w, h = image_size
    pitch = math.radians(12.0)
    rx = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, math.cos(pitch), -math.sin(pitch)],
            [0.0, math.sin(pitch), math.cos(pitch)],
        ]
    )
    down = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    center = np.array([0.0137, -altitude * math.tan(pitch), altitude])
    pose = pose_from_camera(center, rx @ down)
    fx = 0.92 * altitude * w / (2.0 * half_extent_m)
    fy = 0.92 * altitude * h / (2.0 * half_extent_m)
    intr = CameraIntrinsics(fx=fx, fy=fy, cx=(w - 1) / 2.0, cy=(h - 1) / 2.0, width=w, height=h)
    spec = WorldSpec(
        name="bench-flat",
        heightfield=Heightfield(base=0.0),
        class_map=ClassMap(default_class=0),
        trajectory=(pose,),
        intrinsics=intr,
        num_classes=catalog.k,
        max_range_m=6.0 * altitude,
        march_steps=96,
    )
    return render_frame(spec, 0)


def bench_update(
    side_lengths,
    half_extent_m: float = 0.48,
    image_size=(424, 240),
    trials: int = 100,
    warmup: int = 3,
) -> list:
    """Time the non-projection update stages across mesh resolutions.

    Replays one rendered frame ``trials`` times per mesh configuration on a
    warmed-up process.  Trials are interleaved round-robin across
    configurations so slow load drift hits every configuration equally.
    """
    frame = bench_frame(half_extent_m, image_size)
    mappers = []
    for side in side_lengths:
        cfg = MeshConfig(side_length_m=side, half_extent_m=half_extent_m, num_classes=frame.scores.shape[2])
        mappers.append(Mapper(init_mesh(cfg), PipelineConfig()))
    for mapper in mappers:
        for _ in range(warmup):
            mapper.process(frame)
        mapper.timings.clear()
    for _ in range(trials):
        for mapper in mappers:
            mapper.process(frame)

    valid = int((np.isfinite(frame.depth) & (np.asarray(frame.depth) > 0)).sum())
    rows = []
    for side, mapper in zip(side_lengths, mappers):
        for stage in _BENCH_STAGES:
            arr = np.array([getattr(t, stage) for t in mapper.timings])
            rows.append(
                BenchRow(
                    side_length_m=side,
                    half_extent_m=half_extent_m,
                    num_faces=mapper.mesh.num_faces,
                    num_points=valid,
                    trials=trials,
                    stage=stage,
                    mean_s=float(arr.mean()),
                    std_s=float(arr.std()),
                )
            )
    return rows


def write_bench_csv(path, rows) -> None:
    """Plot-ready CSV: one row per (mesh configuration, pipeline stage)."""
    write_csv(path, [f.name for f in fields(BenchRow)], map(astuple, rows))


# -- report assembly ---------------------------------------------------------------


@dataclass
class EstimatorReport:
    estimator: str
    kl_mean: float
    kl_median: float
    ap_low: float
    ap_high: float
    accuracy: float
    faces_known: int
    faces_total: int
    pr_low: PRResult = field(repr=False, default=None)
    pr_high: PRResult = field(repr=False, default=None)


def evaluate_estimator(name: str, estimates: FaceEstimates, truth_classes, models) -> EstimatorReport:
    """KL, accuracy and both precision-recall curves of one estimator.  A
    friction class that no truth face has gets an empty curve and AP ``nan``."""
    kl_mean, kl_median, _ = kl_summary(estimates, truth_classes, models)
    pr_low = pr_curve(estimates, truth_classes, models, "low")
    pr_high = pr_curve(estimates, truth_classes, models, "high")
    return EstimatorReport(
        estimator=name,
        kl_mean=kl_mean,
        kl_median=kl_median,
        ap_low=pr_low.average_precision,
        ap_high=pr_high.average_precision,
        accuracy=accuracy(estimates, truth_classes, models),
        faces_known=int(estimates.ids.size),
        faces_total=int(np.asarray(truth_classes).size),
        pr_low=pr_low,
        pr_high=pr_high,
    )


# summary.csv columns: the report's scalar fields, without its two PR curves
_SUMMARY_COLUMNS = tuple(f.name for f in fields(EstimatorReport) if f.type != "PRResult")


def write_summary_csv(path, reports) -> None:
    write_csv(path, _SUMMARY_COLUMNS, ([getattr(r, c) for c in _SUMMARY_COLUMNS] for r in reports))


def write_pr_csv(path, pr: PRResult) -> None:
    rows = zip(pr.thresholds.tolist(), pr.recall.tolist(), pr.precision.tolist())
    write_csv(path, ["threshold", "recall", "precision"], rows)
