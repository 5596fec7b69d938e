"""Per-frame mapping pipeline plus the non-recursive baseline estimators.

One frame update runs projection, point-to-face assignment, elevation fusion
and class accumulation, in that order.  The frame's in-window points are a
value the update builds once and passes to the two estimation stages; only
the map persists between frames.  Exactly one frame update mutates a mesh
at a time (the mesh is single-writer); the stages themselves are vectorized
internally.

Projection keeps each point's flat pixel index, not its scores, and its
coordinates coordinate-major: the (n, 3) position arrays are views of
(3, n) arrays, so assignment, the height variance and the depth-noise model
each read contiguous columns.  After assignment,
:meth:`FramePoints.from_assignment` drops the points outside the window,
reads their scores once from the frame's (H*W, K) score view into
class-major (K, n) rows, and groups them by face (all timed as part of
assignment).  Height fusion and the class reduction share that grouping, so
neither sorts the points nor scans the map.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .elevation import SensorNoiseModel, update_elevation
from .errors import InputError
from .geometry import CameraIntrinsics, Pose, camera_center, check_covariance, check_image_size, project_frame_arrays
from .mesh import FramePoints, Mesh, assign_face_ids, recenter
from .semantics import UPDATE_MODES, face_evidence, face_predictive, non_probability_row


@dataclass
class FrameBundle:
    """One sensor observation: depth, per-pixel class scores, pose, intrinsics."""

    depth: np.ndarray
    scores: np.ndarray
    pose: Pose
    intrinsics: CameraIntrinsics
    frame_id: int = 0
    timestamp: float = 0.0
    valid: bool = True

    def validate(self) -> None:
        """Raise :class:`InputError` unless the frame is flagged valid and
        passes :func:`~terramesh.geometry.check_image_size` and
        :func:`~terramesh.semantics.non_probability_row`."""
        if not self.valid:
            raise InputError(f"frame {self.frame_id} is flagged invalid")
        scores = np.asarray(self.scores)
        try:
            check_image_size(np.asarray(self.depth), scores, self.intrinsics)
        except InputError as exc:
            raise InputError(f"frame {self.frame_id}: {exc}") from None
        if non_probability_row(scores) is not None:
            raise InputError(f"frame {self.frame_id}: score vectors are not normalized")


# faces per block of weights that the recursive estimate normalizes and that
# estimates files are written and read in: 16384 x 10 classes is 1.3 MB
ESTIMATE_BLOCK_ROWS = 16384


class EstimatorKind(str, Enum):
    RECURSIVE = "recursive"
    UNIMODAL_NONRECURSIVE = "unimodal_nonrecursive"
    MULTIMODAL_NONRECURSIVE = "multimodal_nonrecursive"


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of a mapping run (estimation mode, noise model, recentering).

    ``pose_cov_override``, 3 diagonal entries or a 3x3 matrix, replaces the
    per-frame pose rotation covariance from the bundle for the
    height-variance propagation; ``None`` keeps the per-frame values.
    """

    noise_model: SensorNoiseModel = field(default_factory=SensorNoiseModel)
    update_mode: str = "soft"
    accumulate_alpha: bool = True
    recenter: bool = False
    pose_cov_override: np.ndarray | None = None

    def __post_init__(self):
        if self.update_mode not in UPDATE_MODES:
            raise InputError(f"unknown update mode {self.update_mode!r}")
        if self.pose_cov_override is not None:
            cov = np.asarray(self.pose_cov_override, dtype=float)
            if cov.size == 3:
                cov = np.diag(cov.reshape(3))
            elif cov.size == 9:
                cov = cov.reshape(3, 3)
            object.__setattr__(self, "pose_cov_override", check_covariance(cov, "pose covariance override"))


@dataclass
class FrameTiming:
    """Wall-clock breakdown of one frame update, seconds."""

    project: float
    assign: float
    elevation: float
    semantics: float
    total: float

    @property
    def update(self) -> float:
        """The non-projection part: assignment + elevation + semantics."""
        return self.assign + self.elevation + self.semantics


@dataclass
class FaceScores:
    """Per-face score sums and point counts from a single frame.

    Only the observed faces are stored: ``ids`` (ascending window face ids)
    with their ``observed_sums`` (m, K) and ``observed_counts`` (m,).
    """

    ids: np.ndarray
    observed_sums: np.ndarray
    observed_counts: np.ndarray

    @classmethod
    def empty(cls, num_classes: int) -> "FaceScores":
        return cls(np.empty(0, dtype=np.int64), np.empty((0, num_classes)), np.empty(0, dtype=np.int64))



@dataclass
class FaceEstimates:
    """Per-face mixture weights of the known faces.

    Only the known faces are stored, as :class:`FaceScores` stores only the
    observed ones: ``ids`` (ascending window face ids) with their
    ``known_weights`` (m, K).  Face ``ids[i]`` has the property mixture
    ``PropertyMixture(known_weights[i], models)``; the other faces of the
    ``num_faces`` are unknown, and no dense (F,) mask of them is kept.
    """

    ids: np.ndarray
    known_weights: np.ndarray
    num_faces: int


def _run_frame(mesh: Mesh, frame: FrameBundle, config: PipelineConfig):
    """Validated frame update; returns ``(FrameTiming, FaceScores)``."""
    if config.recenter:
        recenter(mesh, camera_center(frame.pose)[:2])

    t0 = time.perf_counter()
    # the noise model holds only up to the sensor's range: farther depths are dropped
    pos_map, pos_sensor, pixels = project_frame_arrays(
        frame.depth, frame.scores, frame.intrinsics, frame.pose, config.noise_model.max_range_m
    )
    t1 = time.perf_counter()

    fids = assign_face_ids(mesh, pos_map[:, :2])
    scores = np.asarray(frame.scores)
    points = FramePoints.from_assignment(
        mesh, pos_map, pos_sensor, scores.reshape(-1, scores.shape[2]), fids, pixels
    )
    # the whole-frame arrays are freed before fusion, so that none of them
    # coexists with its temporaries (about 3 MB less peak RSS on a 424x240
    # frame)
    del pos_map, pos_sensor, fids, pixels
    t2 = time.perf_counter()

    sigma_pose = (
        config.pose_cov_override
        if config.pose_cov_override is not None
        else frame.pose.rotation_cov
    )
    update_elevation(mesh, points, frame.pose, config.noise_model, sigma_pose)
    t3 = time.perf_counter()

    observed = points.faces
    sums, counts, evidence = face_evidence(points.inverse, points.scores, observed.size, config.update_mode)
    slots = mesh.face_slots(observed)
    mesh.ring.observed[slots] = True
    if config.accumulate_alpha:
        # slots are distinct, so one gather, add and scatter adds each term
        # once, as `alpha[slots] += evidence` does, in about half its time
        rows = np.take(mesh.ring.alpha, slots, axis=0)
        rows += evidence
        mesh.ring.alpha[slots] = rows
    t4 = time.perf_counter()

    timing = FrameTiming(
        project=t1 - t0,
        assign=t2 - t1,
        elevation=t3 - t2,
        semantics=t4 - t3,
        total=t4 - t0,
    )
    return timing, FaceScores(observed, sums, counts)


class Mapper:
    """Stateful frame-stream driver: counts, timings, last-frame face scores."""

    def __init__(self, mesh: Mesh, config: PipelineConfig | None = None):
        self.mesh = mesh
        self.config = config or PipelineConfig()
        self.frames_processed = 0
        self.frames_skipped = 0
        self.timings: list[FrameTiming] = []
        # before any frame is processed, no face has a current-frame score
        self.last_scores = FaceScores.empty(mesh.cfg.num_classes)

    def process(self, frame: FrameBundle) -> bool:
        """Apply one frame; invalid frames are skipped and counted."""
        try:
            frame.validate()
        except InputError:
            self.frames_skipped += 1
            return False
        timing, face_scores = _run_frame(self.mesh, frame, self.config)
        self.frames_processed += 1
        self.timings.append(timing)
        self.last_scores = face_scores
        return True

    def run(self, frames) -> "Mapper":
        for frame in frames:
            self.process(frame)
        return self


def estimate_properties(mesh: Mesh, kind: EstimatorKind, models, current_scores: FaceScores | None = None) -> FaceEstimates:
    """Per-face mixture weights under the chosen estimator.

    The recursive estimator normalizes the accumulated class evidence of
    the faces that have any, gathering their rows from ring storage into
    the output a block of :data:`ESTIMATE_BLOCK_ROWS` faces at a time and
    normalizing each block in place.  The
    non-recursive baselines look only at the supplied single-frame face
    scores: the multimodal one keeps the full mean score vector, the
    unimodal one collapses it to its most likely class.  Neither baseline
    reads the accumulated evidence.
    """
    kind = EstimatorKind(kind)
    k = mesh.cfg.num_classes
    if len(models) != k:
        raise InputError(f"{len(models)} models supplied for {k} classes")
    if kind is EstimatorKind.RECURSIVE:
        ids = np.flatnonzero(np.concatenate([chunk.sum(axis=1) > 0 for chunk in mesh.canonical_chunks("alpha")]))
        weights = np.empty((ids.size, k))
        # a block at a time, each gathered straight into its output rows and
        # normalized there: no evidence copy, and slots for one block only
        for start in range(0, ids.size, ESTIMATE_BLOCK_ROWS):
            block = weights[start : start + ESTIMATE_BLOCK_ROWS]
            slots = mesh.face_slots(ids[start : start + ESTIMATE_BLOCK_ROWS])
            # slots lie in range, so "clip" only spares the copy of `out`
            # that the default "raise" mode writes through
            np.take(mesh.ring.alpha, slots, axis=0, out=block, mode="clip")
            face_predictive(block, out=block)
        return FaceEstimates(ids, weights, mesh.num_faces)

    if current_scores is None:
        raise InputError("non-recursive estimators need current-frame face scores")
    ids = current_scores.ids
    weights = current_scores.observed_sums / current_scores.observed_counts[:, None]
    if kind is EstimatorKind.UNIMODAL_NONRECURSIVE:
        best = np.argmax(weights, axis=1)
        weights = np.zeros_like(weights)
        weights[np.arange(ids.size), best] = 1.0
    return FaceEstimates(ids, weights, mesh.num_faces)
