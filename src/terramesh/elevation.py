"""Recursive elevation estimation: height-variance propagation and 1-D Kalman fusion.

Per-point height variance follows first-order error propagation of the range
sensor noise and the small-angle rotation uncertainty of the camera pose.
Vertex heights fuse their surrounding faces' interior points with a scalar
Kalman filter, applied per frame in its closed information form.  The
information sums run over the vertices of the faces the frame observes,
taken from the frame's face grouping (``Mesh.point_groups``), so their
cost follows the points, not the map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InconsistentCertaintyError, InputError


def min_sigma(a: float, b: float, c: float, max_range_m: float) -> float:
    """Smallest depth sigma a + b*z + c*z^2 over z in [0, max_range_m]."""
    zs = [0.0, max_range_m]
    if c != 0.0 and 0.0 < -b / (2.0 * c) < max_range_m:
        zs.append(-b / (2.0 * c))
    return min(a + b * z + c * z * z for z in zs)


@dataclass(frozen=True)
class SensorNoiseModel:
    """Depth standard deviation as a quadratic in range: a + b*z + c*z^2 (meters).

    The model maps to a diagonal sensor-frame covariance whose depth-axis
    entry is sigma^2; lateral noise is not modeled.  Defaults approximate a
    stereo depth camera's error scaling and are configurable, not normative.
    ``max_range_m`` is the sensor's range: sigma must stay positive up to it,
    and the pipeline drops depths beyond it.
    """

    a: float = 0.001
    b: float = 0.0
    c: float = 0.0019
    max_range_m: float = 30.0

    def __post_init__(self):
        values = (self.a, self.b, self.c, self.max_range_m)
        if not all(map(math.isfinite, values)):
            raise ConfigurationError(f"depth noise a, b, c and max_range_m must be finite, not {values}")
        if min_sigma(*values) <= 0.0:
            raise ConfigurationError(
                "depth noise sigma must stay positive over the sensor range"
            )

    def sigma(self, depth):
        depth = np.asarray(depth, dtype=float)
        return self.a + self.b * depth + self.c * depth * depth

    def variance(self, depth):
        s = self.sigma(depth)
        return s * s

    def covariance(self, depth: float) -> np.ndarray:
        cov = np.zeros((3, 3))
        cov[2, 2] = float(self.variance(depth))
        return cov


def _check_psd(m, name):
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise InputError(f"{name} must be 3x3")
    if np.abs(m - m.T).max() > 1e-9 or np.linalg.eigvalsh(m).min() < -1e-9:
        raise InputError(f"{name} must be symmetric positive semi-definite")
    return m


def height_variance(p_sensor, pose, sigma_sensor, sigma_pose):
    """Height of a sensor point in the map frame and its propagated variance.

    The height Jacobian w.r.t. the sensor point is the third row of R^T; the
    Jacobian w.r.t. small-angle rotation parameters is that row crossed with
    the sensor point.  Translation uncertainty of the pose is deliberately
    not part of the propagation model.  Returns ``(z, var)``.
    """
    sigma_sensor = _check_psd(sigma_sensor, "sigma_sensor")
    sigma_pose = _check_psd(sigma_pose, "sigma_pose")
    p = np.asarray(p_sensor, dtype=float).reshape(3)
    r3 = pose.rotation[:, 2]  # third row of rotation.T
    z = float(r3 @ p - pose.translation[2])
    j_p = np.cross(r3, p)
    var = float(r3 @ sigma_sensor @ r3 + j_p @ sigma_pose @ j_p)
    return z, max(var, 0.0)


def point_height_variances(pos_sensor, depth_var, pose, sigma_pose=None):
    """Vectorized variance of the map-frame height for many sensor points.

    ``depth_var`` is the per-point depth variance (the only nonzero entry of
    the diagonal sensor covariance).  Uses the same propagation as
    :func:`height_variance`.
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


def kalman_update(z_mean, z_var, z_obs, var_obs):
    """One scalar Kalman step: precision-weighted mean, harmonic variance."""
    if z_var < 0 or var_obs < 0:
        raise InputError("variances must be non-negative")
    denom = z_var + var_obs
    if denom == 0.0:
        if z_mean != z_obs:
            raise InconsistentCertaintyError(
                "two exact estimates disagree; cannot fuse"
            )
        return z_mean, 0.0
    mean = (z_mean * var_obs + z_obs * z_var) / denom
    var = z_var * var_obs / denom
    return mean, var


def _fuse_noisy(mesh, vertices, rows, z, var):
    """Information-form update of ``mesh`` by positive-variance observations.

    Point ``i`` observes height ``z[i]`` with variance ``var[i]`` at the
    three vertices ``vertices[rows[i]]``.  The sums run over the frame's
    vertices, not the map's, and each adds its terms in point order.
    """
    w = 1.0 / var
    rows = rows.reshape(-1)
    info = np.bincount(rows, weights=np.repeat(w, 3), minlength=vertices.size)
    info_z = np.bincount(rows, weights=np.repeat(z * w, 3), minlength=vertices.size)

    hit = info != 0.0  # vertices that only exact observations reach stay out
    if not hit.all():
        vertices, info, info_z = vertices[hit], info[hit], info_z[hit]
    slot = mesh.vertex_slots(vertices)
    ring = mesh.ring
    prior_var = ring.z_var[slot]
    touched = ring.touched[slot]
    prior = touched & (prior_var > 0.0)
    info[prior] += 1.0 / prior_var[prior]
    info_z[prior] += ring.z_mean[slot[prior]] / prior_var[prior]
    fused = prior | ~touched  # an exact prior keeps its value
    ring.z_mean[slot[fused]] = info_z[fused] / info[fused]
    ring.z_var[slot[fused]] = 1.0 / info[fused]
    ring.touched[slot] = True


def update_elevation(mesh, pose, noise_model: SensorNoiseModel, sigma_pose=None):
    """Fuse the current frame's interior points into the vertex heights.

    A point observes the three vertices of its face, so every vertex absorbs
    the heights of all interior points of the faces incident to it (up to
    six).  The scalar Kalman filter does not depend on the update order, so
    a frame's updates collapse to their information form (Fankhauser et al.,
    RA-L 2018): per vertex, ``1/var = 1/var_prior + sum 1/var_i`` and
    ``mean/var = mean_prior/var_prior + sum z_i/var_i``.  A vertex seen for
    the first time has no prior; its state is the frame's posterior alone.
    The sums run over the vertices of the frame's face grouping (built
    here by ``mesh.point_groups()``, then reused by the class reduction),
    each adding its terms in point order.

    Zero-variance observations and zero-variance priors are exact and win
    over any noisy information.  Exact values that disagree on a vertex
    raise :class:`InconsistentCertaintyError` before the mesh is modified.
    """
    pts = mesh.points
    if pts is None or pts.count == 0:
        return mesh
    if sigma_pose is None:
        sigma_pose = pose.rotation_cov

    groups = mesh.point_groups()
    depth = pts.pos_sensor[:, 2]
    var = point_height_variances(pts.pos_sensor, noise_model.variance(depth), pose, sigma_pose)
    z = pts.pos_map[:, 2]
    # each point's three corners, as rows of groups.vertices
    rows = np.take(groups.corners, groups.inverse, axis=0)

    exact = var == 0.0
    exact_v = None
    if exact.any():
        verts = groups.vertices[rows[exact].reshape(-1)]
        z_exact = np.repeat(z[exact], 3)
        exact_v, inverse = np.unique(verts, return_inverse=True)
        exact_z = np.empty(exact_v.size)
        exact_z[inverse] = z_exact
        exact_slot = mesh.vertex_slots(exact_v)
        ring = mesh.ring
        prior_exact = ring.touched[exact_slot] & (ring.z_var[exact_slot] == 0.0)
        if np.any(exact_z[inverse] != z_exact) or np.any(
            prior_exact & (ring.z_mean[exact_slot] != exact_z)
        ):
            raise InconsistentCertaintyError("two exact heights disagree on a vertex; cannot fuse")
        rows, z, var = rows[~exact], z[~exact], var[~exact]

    if var.size:
        _fuse_noisy(mesh, groups.vertices, rows, z, var)
    if exact_v is not None:
        ring.z_mean[exact_slot] = exact_z
        ring.z_var[exact_slot] = 0.0
        ring.touched[exact_slot] = True
    return mesh
