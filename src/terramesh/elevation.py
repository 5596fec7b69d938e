"""Recursive elevation estimation: height-variance propagation and 1-D Kalman fusion.

Per-point height variance follows first-order error propagation of the range
sensor noise and the small-angle rotation uncertainty of the camera pose.
Vertex heights fuse their surrounding faces' interior points with a scalar
Kalman filter, applied per frame in its closed information form
(:func:`fuse_heights`, of which :func:`kalman_update` is the one-step call).
:func:`update_elevation` takes the frame's points as an argument; its
information sums run over the vertices of the faces the frame observes,
taken from the points' face grouping, so their cost follows the points, not
the map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InconsistentCertaintyError, InputError
from .geometry import check_covariance


def depth_sigma(abc, depth):
    """Depth standard deviation a + b*z + c*z^2 at depths ``depth`` (meters),
    for ``abc = (a, b, c)``: the one depth-noise formula of the sensor model
    and the simulator."""
    a, b, c = abc
    depth = np.asarray(depth, dtype=float)
    return a + b * depth + c * depth * depth


def sigma_bounds(a: float, b: float, c: float, max_range_m: float) -> tuple:
    """Smallest and largest :func:`depth_sigma` over z in [0, max_range_m]."""
    zs = [0.0, max_range_m]
    if c != 0.0 and 0.0 < -b / (2.0 * c) < max_range_m:
        zs.append(-b / (2.0 * c))
    # an overflowing sigma makes a bound inf or NaN, which the callers refuse
    with np.errstate(over="ignore", invalid="ignore"):
        sigmas = depth_sigma((a, b, c), zs)
    return float(sigmas.min()), float(sigmas.max())


@dataclass(frozen=True)
class SensorNoiseModel:
    """Depth standard deviation as a quadratic in range: a + b*z + c*z^2 (meters).

    The model maps to a diagonal sensor-frame covariance whose depth-axis
    entry is sigma^2; lateral noise is not modeled.  Defaults approximate a
    stereo depth camera's error scaling and are configurable, not normative.
    ``max_range_m`` is the sensor's range: sigma must stay positive up to it,
    with a finite variance sigma^2 and a finite precision 1/sigma^2, and the
    pipeline drops depths beyond it.
    """

    a: float = 0.001
    b: float = 0.0
    c: float = 0.0019
    max_range_m: float = 30.0

    def __post_init__(self):
        values = (self.a, self.b, self.c, self.max_range_m)
        if not all(map(math.isfinite, values)):
            raise ConfigurationError(f"depth noise a, b, c and max_range_m must be finite, not {values}")
        lo, hi = sigma_bounds(*values)
        if lo <= 0.0:
            raise ConfigurationError(
                "depth noise sigma must stay positive over the sensor range"
            )
        # an infinite variance carries no information, and an infinite
        # precision makes every height exact: either way the map is lost
        if not (math.isfinite(hi * hi) and lo * lo > 0.0 and math.isfinite(1.0 / (lo * lo))):
            raise ConfigurationError(
                f"depth noise variance sigma^2 and precision 1/sigma^2 must stay finite "
                f"over the sensor range, with sigma in [{lo!r}, {hi!r}]"
            )

    def sigma(self, depth):
        return depth_sigma((self.a, self.b, self.c), depth)

    def variance(self, depth):
        s = self.sigma(depth)
        return s * s


def height_variance(p_sensor, pose, sigma_sensor, sigma_pose):
    """Height of a sensor point in the map frame and its propagated variance.

    The height Jacobian w.r.t. the sensor point is the third row of R^T; the
    Jacobian w.r.t. small-angle rotation parameters is that row crossed with
    the sensor point.  The sensor term takes a full 3x3 covariance; the pose
    term is a one-point :func:`point_height_variances` call.  Translation
    uncertainty of the pose is deliberately not part of the propagation
    model.  Returns ``(z, var)``.
    """
    sigma_sensor = check_covariance(sigma_sensor, "sigma_sensor")
    sigma_pose = check_covariance(sigma_pose, "sigma_pose")
    p = np.asarray(p_sensor, dtype=float).reshape(1, 3)
    r3 = pose.rotation[:, 2]  # third row of rotation.T
    z = float(r3 @ p[0] - pose.translation[2])
    pose_var = point_height_variances(p, np.zeros(1), pose, sigma_pose)[0]
    return z, max(float(r3 @ sigma_sensor @ r3 + pose_var), 0.0)


def point_height_variances(pos_sensor, depth_var, pose, sigma_pose=None):
    """Vectorized variance of the map-frame height for many sensor points.

    ``depth_var`` is the per-point depth variance (the only nonzero entry of
    the diagonal sensor covariance).  This is the propagation of
    :func:`height_variance`, which calls it for its pose term.
    """
    if sigma_pose is None:
        sigma_pose = pose.rotation_cov
    sigma_pose = np.asarray(sigma_pose, dtype=float)
    r3 = pose.rotation[:, 2]
    var = (r3[2] ** 2) * np.asarray(depth_var, dtype=float)
    if np.any(sigma_pose):
        # the products of np.cross(r3, p) and of einsum("ni,ij,nj->n") in
        # their own order, so the result keeps their bits without
        # broadcasting r3 or building (n, 3) temporaries
        p0, p1, p2 = pos_sensor[:, 0], pos_sensor[:, 1], pos_sensor[:, 2]
        a0, a1, a2 = r3
        j_p = (a1 * p2 - a2 * p1, a2 * p0 - a0 * p2, a0 * p1 - a1 * p0)
        quad = np.zeros(p0.shape)
        for a in range(3):
            for b in range(3):
                quad += (j_p[a] * sigma_pose[a, b]) * j_p[b]
        var = var + quad
    return np.maximum(var, 0.0)


def _information(rows, w, zw, prior, prior_w, prior_zw):
    """Per-row precision sums: the observations' terms in observation order,
    then the prior's."""
    c = rows.shape[1]
    flat = rows.reshape(-1)
    # without observations, bincount returns integer zeros
    info = np.bincount(flat, weights=np.repeat(w, c), minlength=prior.size).astype(float, copy=False)
    info_z = np.bincount(flat, weights=np.repeat(zw, c), minlength=prior.size).astype(float, copy=False)
    info[prior] += prior_w[prior]
    info_z[prior] += prior_zw[prior]
    return info, info_z


def _pin(rows, z, prior_mean, exact_prior):
    """Rows that exact observations reach, and their heights; raises
    :class:`InconsistentCertaintyError` when two exact values disagree."""
    flat = rows.reshape(-1)
    z = np.repeat(z, rows.shape[1])
    pinned = np.zeros(exact_prior.size, dtype=bool)
    pinned[flat] = True
    pin_z = np.zeros(exact_prior.size)
    pin_z[flat] = z
    if np.any(pin_z[flat] != z) or np.any(pinned & exact_prior & (prior_mean != pin_z)):
        raise InconsistentCertaintyError("two exact heights disagree on a vertex; cannot fuse")
    return pinned, pin_z


def fuse_heights(rows, z, var, prior_mean, prior_var, touched):
    """One information-form fusion of height observations into vertex states.

    Observation ``i`` measures height ``z[i]`` with variance ``var[i]`` at
    the vertices ``rows[i]``, an (n, c) array of rows into the (h,) prior
    arrays; a row whose ``touched`` is False has no prior.  The scalar
    Kalman filter does not depend on the update order, so any number of
    updates collapse to their information form (Fankhauser et al., RA-L
    2018): per row, ``1/var' = sum 1/var_i + 1/var_prior`` and
    ``mean'/var' = sum z_i/var_i + mean_prior/var_prior``.

    A value is exact when its variance is zero or when its precision terms
    (``1/var`` and ``z/var``) are not finite.  An exact observation sets its
    rows to its height with variance zero, an exact prior keeps its state,
    and exact values that disagree raise :class:`InconsistentCertaintyError`.
    Information sums that overflow raise :class:`InputError`, and a row
    without information keeps its state.  Returns ``(mean, var, touched)``
    for the h rows; nothing is written, so a raise changes no state.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = 1.0 / var
        zw = z * w
        prior_w = 1.0 / prior_var
        prior_zw = prior_mean / prior_var
        prior = touched & np.isfinite(prior_w) & np.isfinite(prior_zw)
        info, info_z = _information(rows, w, zw, prior, prior_w, prior_zw)
        pinned = None
        if not (np.isfinite(info).all() and np.isfinite(info_z).all()):
            noisy = np.isfinite(w) & np.isfinite(zw)
            if not noisy.all():
                pinned, pin_z = _pin(rows[~noisy], z[~noisy], prior_mean, touched & ~prior)
                info, info_z = _information(rows[noisy], w[noisy], zw[noisy], prior, prior_w, prior_zw)
            if not (np.isfinite(info).all() and np.isfinite(info_z).all()):
                raise InputError("height information overflows: observation variances are too small to fuse")
        mean = info_z / info
        post_var = 1.0 / info
    keep = ~(info > 0.0) | (touched & ~prior)
    mean[keep] = prior_mean[keep]
    post_var[keep] = prior_var[keep]
    seen = touched | ~keep
    if pinned is not None:
        mean[pinned] = pin_z[pinned]
        post_var[pinned] = 0.0
        seen |= pinned
    return mean, post_var, seen


def kalman_update(z_mean, z_var, z_obs, var_obs):
    """One scalar Kalman step: :func:`fuse_heights` of one observation into
    one prior.  Returns ``(mean, var)``."""
    if z_var < 0 or var_obs < 0:
        raise InputError("variances must be non-negative")
    mean, var, _ = fuse_heights(
        np.zeros((1, 1), dtype=np.intp),
        np.array([z_obs], dtype=float),
        np.array([var_obs], dtype=float),
        np.array([z_mean], dtype=float),
        np.array([z_var], dtype=float),
        np.ones(1, dtype=bool),
    )
    return float(mean[0]), float(var[0])


def update_elevation(mesh, points, pose, noise_model: SensorNoiseModel, sigma_pose=None):
    """Fuse one frame's interior points (:class:`~terramesh.mesh.FramePoints`)
    into the vertex heights.

    A point observes the three vertices of its face, so every vertex absorbs
    the heights of all interior points of the faces incident to it (up to
    six), in one :func:`fuse_heights` call.  A vertex seen for the first
    time has no prior; its state is the frame's posterior alone.  The sums
    run over the vertices of the points' face grouping, each adding its
    terms in point order.  A raise leaves the mesh unchanged.
    """
    if points.face_ids.size == 0:
        return mesh
    if sigma_pose is None:
        sigma_pose = pose.rotation_cov

    depth = points.pos_sensor[:, 2]
    var = point_height_variances(points.pos_sensor, noise_model.variance(depth), pose, sigma_pose)
    # each point's three corners, as rows of points.vertices
    rows = np.take(points.corners, points.inverse, axis=0)
    slot = mesh.vertex_slots(points.vertices)
    ring = mesh.ring
    mean, post_var, seen = fuse_heights(
        rows, points.pos_map[:, 2], var, ring.z_mean[slot], ring.z_var[slot], ring.touched[slot]
    )
    ring.z_mean[slot] = mean
    ring.z_var[slot] = post_var
    ring.touched[slot] = seen
    return mesh
