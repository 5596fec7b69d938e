"""Independent reference computations used to check the library's fast paths.

Nothing here shares code with the implementation under test: the predictive
distribution is integrated numerically over the simplex, Gaussian fusion is
the closed-form batch formula, and height variance comes from brute-force
Monte-Carlo sampling of the perturbation model.  Per-frame vertex fusion is
checked against the sequential loop below: one scalar Kalman step per point
and vertex, in point order.  Blocked per-face KL is checked against the
dense form below, which holds every known face's grid at once.  The
ring-buffer window is checked against the copying recenter below, which
rebuilds every state array on each shift.  The frame update that gathers
each point's scores once and groups the points by face once is checked
against the original update below: a point-major score gather,
``np.unique`` grouping, information sums over every vertex of the map and
the ``np.cross`` + ``einsum`` height variance.  The renderer's ray cast,
which starts each march at the terrain's height bound and marches in
blocks, is checked against the sequential cast below: one gap evaluation
per grid step for every ray still marching, from the first step on.
Estimates, which hold known faces only, are compared in the dense (F, K)
form of the estimates file through :func:`estimates_from_dense` and
:func:`dense_weights`.  The closed-form face corners are checked against the
face table the mesh once stored, built below from a meshgrid of cells.
The coordinate-major projection is checked against the row-major one
below, which stacks the sensor coordinates as (n, 3) rows and transforms
them as ``p @ R - t``.  The score rule's float32 pass is checked against
the float64 rule below, which sums every row in float64 by ``einsum``.
The precision-recall curve and the accuracy, which read the known faces'
rows, are checked against the original ones below, which score every face
of the window densely (zero on unknown faces) and index the known ones back.
"""

import math

import numpy as np

from terramesh.geometry import camera_center, check_image_size, project_frame_arrays
from terramesh.mesh import assign_face_ids, recenter
from terramesh.semantics import SCORE_TOL


def _gauss_legendre_01(n):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def predictive_by_quadrature(alpha, counts, nodes=200):
    """Posterior predictive by integrating the Bayes integral over the simplex.

    ``counts[j]`` hard-label observations of class j, Dirichlet prior
    ``alpha`` (strictly positive).  Supports k in {2, 3}.
    """
    alpha = np.asarray(alpha, dtype=float)
    counts = np.asarray(counts, dtype=float)
    k = alpha.size
    expo = alpha + counts - 1.0
    if k == 2:
        t, w = _gauss_legendre_01(nodes)
        like = t ** expo[0] * (1.0 - t) ** expo[1]
        total = w @ like
        return np.array([w @ (like * t), w @ (like * (1.0 - t))]) / total
    if k == 3:
        s, ws = _gauss_legendre_01(nodes)
        t, wt = _gauss_legendre_01(nodes)
        ss, tt = np.meshgrid(s, t, indexing="ij")
        th1 = ss
        th2 = tt * (1.0 - ss)
        th3 = (1.0 - ss) * (1.0 - tt)
        jac = 1.0 - ss
        like = th1 ** expo[0] * th2 ** expo[1] * th3 ** expo[2] * jac
        wgrid = np.outer(ws, wt)
        total = np.sum(wgrid * like)
        nums = [np.sum(wgrid * like * th) for th in (th1, th2, th3)]
        return np.array(nums) / total
    raise ValueError("quadrature oracle supports k in {2, 3}")


def dirichlet_density_integral(alpha, pdf, nodes=200):
    """Integrate a density over the simplex (k in {2, 3}) by quadrature."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.size == 2:
        t, w = _gauss_legendre_01(nodes)
        vals = np.array([pdf(np.array([ti, 1.0 - ti]), alpha) for ti in t])
        return float(w @ vals)
    if alpha.size == 3:
        s, ws = _gauss_legendre_01(nodes)
        t, wt = _gauss_legendre_01(nodes)
        total = 0.0
        for si, wsi in zip(s, ws):
            for ti, wti in zip(t, wt):
                theta = np.array([si, ti * (1.0 - si), (1.0 - si) * (1.0 - ti)])
                total += wsi * wti * (1.0 - si) * pdf(theta, alpha)
        return float(total)
    raise ValueError("simplex quadrature supports k in {2, 3}")


def batch_gaussian_fusion(obs, obs_vars, prior_mean=None, prior_var=None):
    """Closed-form fusion of independent Gaussian height observations."""
    obs = np.asarray(obs, dtype=float)
    obs_vars = np.asarray(obs_vars, dtype=float)
    precision = np.sum(1.0 / obs_vars)
    weighted = np.sum(obs / obs_vars)
    if prior_var is not None:
        precision += 1.0 / prior_var
        weighted += prior_mean / prior_var
    return weighted / precision, 1.0 / precision


def sequential_vertex_fusion(face_ids, face_vertices, obs_z, obs_var, z_mean, z_var, touched):
    """Reference per-frame vertex fusion, updating the state arrays in place.

    Sequential fusion: each point updates its face's three vertices; a
    vertex's updates therefore arrive in point order, one scalar Kalman step
    each.  Returns the index of the first inconsistent zero-variance pair,
    or -1 on success.
    """
    for i in range(face_ids.shape[0]):
        f = face_ids[i]
        z = obs_z[i]
        var = obs_var[i]
        for j in range(3):
            v = face_vertices[f, j]
            if not touched[v]:
                z_mean[v] = z
                z_var[v] = var
                touched[v] = True
            else:
                denom = z_var[v] + var
                if denom == 0.0:
                    if z != z_mean[v]:
                        return i
                else:
                    z_mean[v] = (z_mean[v] * var + z * z_var[v]) / denom
                    z_var[v] = z_var[v] * var / denom
    return -1


def sample_psd(rng, scale):
    a = rng.standard_normal((3, 3))
    return (a @ a.T) * (scale**2 / 3.0) + np.eye(3) * (0.1 * scale) ** 2


def mc_height_variance(p_sensor, rotation, sigma_sensor, sigma_pose, n, rng):
    """Monte-Carlo variance of the map-frame height of a perturbed point.

    Sensor point perturbed by N(0, sigma_sensor); rotation perturbed on the
    left by the small-angle vector delta ~ N(0, sigma_pose), i.e. the
    reported rotation R corresponds to true rotations exp([delta]x) R.
    """
    eps = rng.multivariate_normal(np.zeros(3), sigma_sensor, size=n, method="cholesky")
    delta = rng.multivariate_normal(np.zeros(3), sigma_pose, size=n, method="cholesky")
    v = p_sensor[None, :] + eps

    # w = Rot(-delta) @ v, vectorized Rodrigues
    theta = np.linalg.norm(delta, axis=1)
    safe = np.where(theta > 0, theta, 1.0)
    axis = -delta / safe[:, None]
    cos = np.cos(theta)[:, None]
    sin = np.sin(theta)[:, None]
    dot = np.sum(axis * v, axis=1, keepdims=True)
    w = v * cos + np.cross(axis, v) * sin + axis * dot * (1.0 - cos)
    w[theta == 0] = v[theta == 0]

    r3 = rotation[:, 2]
    heights = w @ r3
    return float(np.var(heights))


def gaussian_kl_reference(mu1, s1, mu2, s2):
    """KL(N1 || N2), textbook closed form."""
    return np.log(s2 / s1) + (s1**2 + (mu1 - mu2) ** 2) / (2.0 * s2**2) - 0.5


def random_rotation(rng):
    """Uniform-ish random rotation via QR with positive determinant."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def dense_kl_per_face(weights, known, truth_classes, models):
    """Per-face KL(truth || estimate) over one dense (known faces x 4096) grid.

    The original whole-map form of ``evaluation.kl_per_face``: trapezoidal
    quadrature on 4096 uniform nodes over [-0.5, 1.5], densities floored at
    1e-300, infinity where the estimate has no mass on the truth's support,
    NaN for unknown faces.
    """
    truth_classes = np.asarray(truth_classes)
    grid = np.linspace(-0.5, 1.5, 4096)
    mus = np.array([m.mu for m in models])
    sigmas = np.array([m.sigma for m in models])
    z = (grid[None, :] - mus[:, None]) / sigmas[:, None]
    comp = np.exp(-0.5 * z * z) / (sigmas[:, None] * np.sqrt(2.0 * np.pi))
    out = np.full(truth_classes.size, np.nan)
    if np.any(known):
        q_dens = weights[known] @ comp
        p_dens = comp[truth_classes[known]]
        p = np.maximum(p_dens, 1e-300)
        q = np.maximum(q_dens, 1e-300)
        kl = np.trapezoid(p * (np.log(p) - np.log(q)), grid, axis=-1)
        no_mass = np.any((p_dens > 1e-12) & (q_dens <= 1e-300), axis=-1)
        out[known] = np.maximum(np.where(no_mass, np.inf, kl), 0.0)
    return out


def lattice_face_table(n_cells):
    """(F, 3) int32 corner vertex ids of every face of an ``n_cells`` square
    lattice: the table the mesh once built and stored."""
    n_verts = n_cells + 1
    ix, iy = np.meshgrid(np.arange(n_cells), np.arange(n_cells), indexing="xy")
    v00 = iy * n_verts + ix
    v10 = v00 + 1
    v01 = v00 + n_verts
    v11 = v01 + 1
    faces = np.empty((n_cells, n_cells, 2, 3), dtype=np.int32)
    # south-east triangle, counterclockwise
    faces[iy, ix, 0, 0] = v00
    faces[iy, ix, 0, 1] = v10
    faces[iy, ix, 0, 2] = v11
    # north-west triangle, counterclockwise
    faces[iy, ix, 1, 0] = v00
    faces[iy, ix, 1, 1] = v11
    faces[iy, ix, 1, 2] = v01
    return faces.reshape(-1, 3)


def copy_recenter(mesh, new_center_xy):
    """Reference window shift: copy every surviving cell into fresh arrays.

    The original whole-map form of ``mesh.recenter``, written against the
    mesh's canonical views.
    """
    target = np.asarray(new_center_xy, dtype=float).reshape(2)
    side = mesh.cfg.side_length_m
    shift = np.trunc((target - mesh.center) / side).astype(np.int64)
    if shift[0] == 0 and shift[1] == 0:
        return mesh

    n_v = mesh.cfg.vertices_per_side
    n_c = mesh.cfg.cells_per_side
    dx, dy = int(shift[0]), int(shift[1])

    def shift_grid(arr, fill):
        out = np.full_like(arr, fill)
        src_x = slice(max(dx, 0), n_v + min(dx, 0))
        dst_x = slice(max(-dx, 0), n_v + min(-dx, 0))
        src_y = slice(max(dy, 0), n_v + min(dy, 0))
        dst_y = slice(max(-dy, 0), n_v + min(-dy, 0))
        if src_x.start < src_x.stop and src_y.start < src_y.stop:
            out[dst_y, dst_x] = arr[src_y, src_x]
        return out

    mesh.z_mean = shift_grid(mesh.z_mean.reshape(n_v, n_v), 0.0).reshape(-1)
    mesh.z_var = shift_grid(mesh.z_var.reshape(n_v, n_v), 0.0).reshape(-1)
    mesh.touched = shift_grid(mesh.touched.reshape(n_v, n_v), False).reshape(-1)

    k = mesh.cfg.num_classes
    alpha = mesh.alpha.reshape(n_c, n_c, 2 * k)
    out = np.zeros_like(alpha)
    src_x = slice(max(dx, 0), n_c + min(dx, 0))
    dst_x = slice(max(-dx, 0), n_c + min(-dx, 0))
    src_y = slice(max(dy, 0), n_c + min(dy, 0))
    dst_y = slice(max(-dy, 0), n_c + min(-dy, 0))
    if src_x.start < src_x.stop and src_y.start < src_y.stop:
        out[dst_y, dst_x] = alpha[src_y, src_x]
    mesh.alpha = out.reshape(-1, k)

    mesh.center = mesh.center + shift * side
    return mesh


def einsum_height_variances(pos_sensor, depth_var, pose, sigma_pose):
    """The original ``elevation.point_height_variances``: the Jacobian by
    ``np.cross`` against the broadcast third row of R^T, the quadratic form
    by a three-operand ``einsum``."""
    sigma_pose = np.asarray(sigma_pose, dtype=float)
    r3 = pose.rotation[:, 2]
    var = (r3[2] ** 2) * np.asarray(depth_var, dtype=float)
    if np.any(sigma_pose):
        j_p = np.cross(np.broadcast_to(r3, pos_sensor.shape), pos_sensor)
        var = var + np.einsum("ni,ij,nj->n", j_p, sigma_pose, j_p)
    return np.maximum(var, 0.0)


def unique_face_reduce(face_ids, scores, num_classes, mode):
    """The original ``pipeline._face_reduce``: ``np.unique`` groups the
    points, and the class sums read point-major (n, K) scores column by
    column."""
    observed, inverse = np.unique(face_ids, return_inverse=True)
    m = observed.size
    counts = np.bincount(inverse, minlength=m)
    sums = np.empty((m, num_classes))
    for j in range(num_classes):
        sums[:, j] = np.bincount(inverse, weights=scores[:, j], minlength=m)
    hard = None
    if mode == "hard":
        labels = np.argmax(scores, axis=1)
        hard = np.bincount(
            inverse * num_classes + labels, minlength=m * num_classes
        ).reshape(m, num_classes)
    return observed, sums, counts, hard


def dense_fuse_noisy(mesh, verts, z, var):
    """The original ``elevation._fuse_noisy``: information sums over every
    vertex of the map (``minlength=V``), then a scan for the hit ones."""
    w = 1.0 / var
    n_v = mesh.num_vertices
    info = np.bincount(verts, weights=w, minlength=n_v)
    info_z = np.bincount(verts, weights=z * w, minlength=n_v)

    hit = np.flatnonzero(info != 0.0)
    info, info_z = info[hit], info_z[hit]
    slot = mesh.vertex_slots(hit)
    ring = mesh.ring
    prior_var = ring.z_var[slot]
    touched = ring.touched[slot]
    prior = touched & (prior_var > 0.0)
    info[prior] += 1.0 / prior_var[prior]
    info_z[prior] += ring.z_mean[slot[prior]] / prior_var[prior]
    fused = prior | ~touched
    ring.z_mean[slot[fused]] = info_z[fused] / info[fused]
    ring.z_var[slot[fused]] = 1.0 / info[fused]
    ring.touched[slot] = True


def unique_frame_update(mesh, frame, config):
    """One frame update the original way; returns ``(ids, sums, counts)``.

    Recentering, projected positions, face assignment and ring addressing
    are the library's; the score gather, the grouping, the height variance,
    the fusion and the reduction are the original bodies above.  Noisy
    observations only: a zero variance raises.
    """
    if config.recenter:
        recenter(mesh, camera_center(frame.pose)[:2])
    pos_map, pos_sensor, pixels = project_frame_arrays(
        frame.depth, frame.scores, frame.intrinsics, frame.pose, config.noise_model.max_range_m
    )
    scores = np.asarray(frame.scores)
    vv, uu = np.divmod(pixels, scores.shape[1])
    point_scores = scores[vv, uu].astype(float)
    fids = assign_face_ids(mesh, pos_map[:, :2])
    keep = fids >= 0
    pos_map, pos_sensor, point_scores, fids = pos_map[keep], pos_sensor[keep], point_scores[keep], fids[keep]

    if fids.size:
        sigma_pose = config.pose_cov_override
        if sigma_pose is None:
            sigma_pose = frame.pose.rotation_cov
        depth_var = config.noise_model.variance(pos_sensor[:, 2])
        var = einsum_height_variances(pos_sensor, depth_var, frame.pose, sigma_pose)
        if np.any(var == 0.0):
            raise ValueError("the original-form replay covers noisy observations only")
        verts = mesh.face_vertex_ids[fids].reshape(-1)
        dense_fuse_noisy(mesh, verts, np.repeat(pos_map[:, 2], 3), np.repeat(var, 3))

    observed, sums, counts, hard = unique_face_reduce(
        fids, point_scores, mesh.cfg.num_classes, config.update_mode
    )
    slots = mesh.face_slots(observed)
    mesh.ring.observed[slots] = True
    if config.accumulate_alpha:
        mesh.ring.alpha[slots] += hard if config.update_mode == "hard" else sums
    return observed, sums, counts


def _surface_gap(heightfield, origin, dirs, d):
    pts = origin[None, :] + d[:, None] * dirs
    return pts[:, 2] - heightfield.height(pts[:, 0], pts[:, 1])


def sequential_raycast(heightfield, origin, dirs, d_max, steps, d_min=1e-3, bisect_iters=48):
    """First surface crossing along each ray, parameterized by sensor depth.

    Rays are marched on a uniform grid to bracket the first sign change of
    camera-height-above-terrain, then bisected; the bracket is one march
    step wide, so terrain features narrower than that can be stepped over.
    Returns NaN where no crossing exists in (d_min, d_max].
    """
    n = dirs.shape[0]
    depth = np.full(n, np.nan)
    active = _surface_gap(heightfield, origin, dirs, np.full(n, d_min)) > 0.0
    d_prev = np.full(n, d_min)
    lo = np.full(n, np.nan)
    hi = np.full(n, np.nan)
    for d in np.linspace(d_min, d_max, steps + 1)[1:]:
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        g = _surface_gap(heightfield, origin, dirs[idx], np.full(idx.size, d))
        crossed = g <= 0.0
        hit = idx[crossed]
        lo[hit] = d_prev[hit]
        hi[hit] = d
        active[hit] = False
        d_prev[idx] = d

    bracketed = np.nonzero(np.isfinite(lo))[0]
    if bracketed.size:
        blo = lo[bracketed]
        bhi = hi[bracketed]
        bdirs = dirs[bracketed]
        for _ in range(bisect_iters):
            mid = 0.5 * (blo + bhi)
            g = _surface_gap(heightfield, origin, bdirs, mid)
            above = g > 0.0
            blo = np.where(above, mid, blo)
            bhi = np.where(above, bhi, mid)
        depth[bracketed] = 0.5 * (blo + bhi)
    return depth


def estimates_from_dense(weights, known):
    """``FaceEstimates`` of a dense (F, K) weight table and its (F,) known mask."""
    from terramesh.pipeline import FaceEstimates

    ids = np.flatnonzero(known)
    return FaceEstimates(ids, np.asarray(weights, dtype=float)[ids], np.asarray(known).size)


def dense_weights(estimates):
    """The (F, K) weights an estimates file holds: the known rows, zero elsewhere."""
    out = np.zeros((estimates.num_faces, estimates.known_weights.shape[1]))
    out[estimates.ids] = estimates.known_weights
    return out


def row_major_projection(depth, scores, intrinsics, pose, max_range_m=math.inf):
    """The original ``geometry.project_frame_arrays``: the sensor
    coordinates stacked as (n, 3) rows by ``np.column_stack`` and
    transformed as ``p @ R - t``."""
    depth = np.asarray(depth)
    check_image_size(depth, np.asarray(scores), intrinsics)
    w = depth.shape[1]

    d = depth.astype(float, copy=False).reshape(-1)
    pixels = np.flatnonzero(np.isfinite(d) & (d > 0) & (d <= max_range_m))
    if pixels.size == 0:
        empty3 = np.empty((0, 3))
        return empty3, empty3.copy(), pixels

    d = d[pixels]
    vv = pixels // w
    uu = pixels - vv * w
    x = (uu - intrinsics.cx) * d / intrinsics.fx
    y = (vv - intrinsics.cy) * d / intrinsics.fy
    pos_sensor = np.column_stack([x, y, d])
    pos_map = pos_sensor @ pose.rotation - pose.translation
    return pos_map, pos_sensor, pixels


def einsum_non_probability_row(vectors):
    """The original ``semantics.non_probability_row``: every row summed in
    float64 by ``einsum``, whatever the input's dtype."""
    v = np.asarray(vectors)
    off = np.abs(np.einsum("...k->...", v, dtype=float) - 1.0)
    # written so that NaN fails both comparisons (a NaN entry makes the minimum NaN)
    if off.size == 0 or (off.max() <= SCORE_TOL and v.min() >= 0):
        return None
    return int(np.argmin(((off <= SCORE_TOL) & (v >= 0).all(axis=-1)).reshape(-1)))


def dense_low_friction_scores(estimates, models) -> np.ndarray:
    """The original ``evaluation.low_friction_scores``: an (F,) array, zero
    on unknown faces."""
    from terramesh.evaluation import LOW_FRICTION_THRESHOLD
    from terramesh.properties import ndtr

    mus = np.array([m.mu for m in models])
    sigmas = np.array([m.sigma for m in models])
    phi = ndtr((LOW_FRICTION_THRESHOLD - mus) / sigmas)
    out = np.zeros(estimates.num_faces)
    out[estimates.ids] = estimates.known_weights @ phi
    return out


def dense_pr_curve(estimates, truth_classes, models, positive: str = "low"):
    """The original ``evaluation.pr_curve``: dense scores indexed back by
    ``ids``, an empty-input branch per array, and a raise for a positive
    class that no face has."""
    from terramesh.errors import EvaluationError
    from terramesh.evaluation import PRResult, _true_low

    truth_classes = np.asarray(truth_classes)
    if truth_classes.size == 0:
        raise EvaluationError("empty face set")
    true_low = _true_low(truth_classes, models)
    if positive == "low":
        is_positive = true_low
        scores_all = dense_low_friction_scores(estimates, models)
    elif positive == "high":
        is_positive = ~true_low
        scores_all = 1.0 - dense_low_friction_scores(estimates, models)
    else:
        raise EvaluationError(f"unknown positive class {positive!r}")

    total_pos = int(is_positive.sum())
    if total_pos == 0:
        raise EvaluationError(f"no faces of positive class {positive!r}")

    scores = scores_all[estimates.ids]
    positives = is_positive[estimates.ids]
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    positives = positives[order]

    # one PR point per distinct score value (predict positive at score >= t)
    boundaries = np.nonzero(np.diff(scores))[0]
    idx = np.append(boundaries, scores.size - 1) if scores.size else np.array([], dtype=int)
    thresholds = scores[idx]
    tp = np.cumsum(positives)[idx] if idx.size else np.array([], dtype=float)
    predicted = idx + 1
    recall = tp / total_pos
    precision = tp / np.maximum(predicted, 1)

    # anchor the curve at zero recall with the earliest precision
    r = np.concatenate([[0.0], recall])
    p = np.concatenate([[precision[0] if precision.size else 1.0], precision])
    ap = float(np.sum(np.diff(r) * 0.5 * (p[1:] + p[:-1])))
    return PRResult(thresholds=thresholds, recall=recall, precision=precision, average_precision=ap)


def dense_accuracy(estimates, truth_classes, models) -> float:
    """The original ``evaluation.accuracy``: dense scores and an (F,) known
    mask, built as the removed ``FaceEstimates.known`` built it."""
    from terramesh.errors import EvaluationError
    from terramesh.evaluation import _true_low

    truth_classes = np.asarray(truth_classes)
    if truth_classes.size == 0:
        raise EvaluationError("empty face set")
    true_low = _true_low(truth_classes, models)
    scores = dense_low_friction_scores(estimates, models)
    predicted_low = scores >= 0.5
    known = np.zeros(estimates.num_faces, dtype=bool)
    known[estimates.ids] = True
    correct = known & (predicted_low == true_low)
    return float(correct.sum() / truth_classes.size)
