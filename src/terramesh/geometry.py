"""Coordinate transforms, pinhole projection and barycentric coordinates.

All operations here are pure functions over immutable inputs and safe to call
from any number of concurrent contexts.  Point batches are handled
coordinate-major: :func:`transform_to_map` multiplies the (3, n) transpose of
a batch and :func:`project_frame_arrays` writes each sensor coordinate as
one row of a (3, n) array, so the (n, 3) arrays they return are transposed
views whose coordinate columns are contiguous.  :func:`check_image_size` and
:func:`check_covariance` are the package's one image-size and one
covariance rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSimplexError, InputError

_ORTHONORMAL_TOL = 1e-9


def _as_matrix(value, shape, name):
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise InputError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def check_covariance(cov, name) -> np.ndarray:
    """``cov`` as a float 3x3 array with finite entries, symmetric within
    1e-12 and with eigenvalues of at least -1e-12, else :class:`InputError`
    (a negative variance would make the map overconfident, not fail)."""
    m = _as_matrix(cov, (3, 3), name)
    if not (np.isfinite(m).all() and np.abs(m - m.T).max() <= 1e-12 and np.linalg.eigvalsh(m).min() >= -1e-12):
        raise InputError(f"{name} must be finite, symmetric and positive semi-definite")
    return m


@dataclass
class Pose:
    """Sensor-to-map transform state.

    ``rotation`` (3x3) and ``translation`` (3,) define the mapping of a
    sensor-frame point ``p`` into the map frame as ``rotation.T @ p -
    translation``.  ``rotation_cov`` is the covariance of the small-angle
    rotation parameters (radians^2); it feeds the height-variance
    propagation and defaults to zero (perfectly known orientation).
    """

    rotation: np.ndarray
    translation: np.ndarray
    rotation_cov: np.ndarray | None = None

    def __post_init__(self):
        self.rotation = _as_matrix(self.rotation, (3, 3), "rotation")
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)
        if self.rotation_cov is None:
            self.rotation_cov = np.zeros((3, 3))
        self.rotation_cov = check_covariance(self.rotation_cov, "rotation_cov")
        if not np.all(np.isfinite(self.rotation)) or not np.all(np.isfinite(self.translation)):
            raise InputError("pose entries must be finite")
        gram_err = np.abs(self.rotation @ self.rotation.T - np.eye(3)).max()
        if gram_err > _ORTHONORMAL_TOL:
            raise InputError(f"rotation is not orthonormal (max deviation {gram_err:.3e})")
        if abs(np.linalg.det(self.rotation) - 1.0) > _ORTHONORMAL_TOL:
            raise InputError("rotation must have determinant +1")

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))


def pose_from_camera(center, axes, rotation_cov=None) -> Pose:
    """Build a :class:`Pose` from a camera center and its axes in the map frame.

    ``axes`` columns are the camera x/y/z directions expressed in map
    coordinates, so a sensor point maps to ``axes @ p + center``.  The stored
    convention applies the transpose, hence ``rotation = axes.T`` and
    ``translation = -center``.
    """
    axes = _as_matrix(axes, (3, 3), "axes")
    center = np.asarray(center, dtype=float).reshape(3)
    return Pose(rotation=axes.T, translation=-center, rotation_cov=rotation_cov)


def camera_center(pose: Pose) -> np.ndarray:
    """Map-frame position of the sensor origin (the point mapping to p_S = 0)."""
    return -pose.translation


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole model: focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise InputError("focal lengths must be positive")
        if not (0 <= self.cx < self.width) or not (0 <= self.cy < self.height):
            raise InputError("principal point must lie inside the image")
        if self.width <= 0 or self.height <= 0:
            raise InputError("image dimensions must be positive")


def check_image_size(depth, scores, intrinsics: CameraIntrinsics) -> None:
    """Raise :class:`InputError` unless ``depth`` is (H, W), ``scores`` is
    (H, W, K) and ``intrinsics`` declare a W x H image."""
    if depth.ndim != 2 or scores.ndim != 3 or scores.shape[:2] != depth.shape:
        raise InputError(f"depth {depth.shape} and scores {scores.shape} do not share one image grid")
    h, w = depth.shape
    if (w, h) != (intrinsics.width, intrinsics.height):
        raise InputError(f"image size disagrees with intrinsics: {w}x{h}, declared {intrinsics.width}x{intrinsics.height}")


def transform_to_map(p_sensor, pose: Pose) -> np.ndarray:
    """Map sensor-frame points into the map frame: ``R^T p - t``.

    Accepts a single point ``(3,)`` or a batch ``(..., 3)`` and returns the
    same shape.  The product runs coordinate-major, on the (3, n) transpose
    of the batch, and an (n, 3) result is the transpose of a (3, n) array:
    each coordinate is one contiguous column.
    """
    p = np.asarray(p_sensor, dtype=float)
    out = pose.rotation.T @ p.reshape(-1, 3).T
    # in place and n-wide: a broadcast (n, 3) subtraction runs a 3-wide
    # inner loop n times
    out -= pose.translation[:, None]
    return out.T.reshape(p.shape)


def project_frame_arrays(depth, scores, intrinsics: CameraIntrinsics, pose: Pose, max_range_m: float = math.inf):
    """Project a depth image into the map frame.

    Returns ``(positions_map (n,3), positions_sensor (n,3), pixels (n,))``
    for the pixels with finite, positive depth no greater than
    ``max_range_m``, in row-major pixel order.  Both position arrays are
    transposed views of coordinate-major (3, n) arrays, so each coordinate
    column is contiguous.  ``pixels`` holds each point's flat index ``v *
    width + u``, its row in ``scores.reshape(-1, k)``; the scores themselves
    are not gathered here.  Depth values are metric z along the camera axis.
    """
    depth = np.asarray(depth)
    check_image_size(depth, np.asarray(scores), intrinsics)
    w = depth.shape[1]

    d = depth.astype(float, copy=False).reshape(-1)
    pixels = np.flatnonzero(np.isfinite(d) & (d > 0) & (d <= max_range_m))
    vv = pixels // w
    uu = pixels - vv * w
    # rows x, y and d of the sensor points, each written in place
    sensor = np.empty((3, pixels.size))
    x, y, z = sensor
    np.take(d, pixels, out=z)
    np.subtract(uu, intrinsics.cx, out=x)
    x *= z
    x /= intrinsics.fx
    np.subtract(vv, intrinsics.cy, out=y)
    y *= z
    y /= intrinsics.fy
    return transform_to_map(sensor.T, pose), sensor.T, pixels


def barycentric(p_xy, v1, v2, v3) -> np.ndarray:
    """Barycentric coordinates of a planar point w.r.t. a triangle.

    Solves ``[[1,1,1],[x1,x2,x3],[y1,y2,y3]] @ lam = [1, px, py]``.
    Raises :class:`DegenerateSimplexError` when the vertices are collinear.
    """
    p = np.asarray(p_xy, dtype=float).reshape(2)
    v1 = np.asarray(v1, dtype=float).reshape(2)
    v2 = np.asarray(v2, dtype=float).reshape(2)
    v3 = np.asarray(v3, dtype=float).reshape(2)
    # twice the signed triangle area; zero iff collinear
    area2 = (v2[0] - v1[0]) * (v3[1] - v1[1]) - (v3[0] - v1[0]) * (v2[1] - v1[1])
    span = max(
        1.0,
        max(abs(float(c)) for c in np.concatenate([v1, v2, v3])) ** 2,
    )
    if abs(area2) <= 1e-12 * span:
        raise DegenerateSimplexError("triangle vertices are (near-)collinear")
    m = np.array(
        [[1.0, 1.0, 1.0], [v1[0], v2[0], v3[0]], [v1[1], v2[1], v3[1]]]
    )
    return np.linalg.solve(m, np.array([1.0, p[0], p[1]]))
