"""Output checks, computed apart from the program.

Nothing here imports terramesh.  Bundles, map/estimate containers, ground
truth and model files are read from their documented layouts; projection,
height variance, window recentering, face layout, class lookup and KL
quadrature are re-derived from the method.  Each ``check_*`` function
returns a list of failure messages (empty when the output is right).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BIN_MAGIC = b"TERRAMESH-BIN v1\n"


# -- readers -------------------------------------------------------------------


def read_container(path) -> tuple[dict, dict]:
    """``(header, {name: array})`` of a TERRAMESH-BIN v1 file."""
    data = Path(path).read_bytes()
    if not data.startswith(BIN_MAGIC):
        raise ValueError(f"{path}: bad magic")
    end = data.index(b"\n", len(BIN_MAGIC))
    meta = json.loads(data[len(BIN_MAGIC):end])
    offset = end + 1
    arrays = {}
    for entry in meta["arrays"]:
        dtype = np.dtype(entry["dtype"])
        count = int(np.prod(entry["shape"])) if entry["shape"] else 1
        arrays[entry["name"]] = np.frombuffer(data, dtype, count, offset).reshape(entry["shape"])
        offset += count * dtype.itemsize
    if offset != len(data):
        raise ValueError(f"{path}: size disagrees with the declared arrays")
    return meta["header"], arrays


@dataclass
class RawFrame:
    depth: np.ndarray  # (h, w) float64 from the float32 file
    scores: np.ndarray  # (h, w, k)
    rotation: np.ndarray
    translation: np.ndarray
    rotation_cov: np.ndarray
    valid: bool


def read_bundle_raw(directory):
    """``(manifest, [RawFrame])`` straight from the bundle files."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    w, h, k = manifest["width"], manifest["height"], manifest["num_classes"]
    frames = []
    for e in manifest["frames"]:
        pose = e["pose"]
        frames.append(
            RawFrame(
                depth=np.fromfile(directory / e["depth_file"], "<f4").astype(float).reshape(h, w),
                scores=np.fromfile(directory / e["scores_file"], "<f4").astype(float).reshape(h, w, k),
                rotation=np.array(pose["rotation"], dtype=float).reshape(3, 3),
                translation=np.array(pose["translation"], dtype=float),
                rotation_cov=np.array(pose["rotation_cov"], dtype=float).reshape(3, 3),
                valid=bool(e.get("valid", True)),
            )
        )
    return manifest, frames


# -- the method, re-derived ----------------------------------------------------------


@dataclass
class Points:
    xy: np.ndarray  # map-frame (n, 2)
    z: np.ndarray  # map-frame height
    info: np.ndarray  # 1 / sigma_z^2
    scores: np.ndarray  # (n, k)


def project(frame: RawFrame, intr: dict, depth_abc) -> Points:
    """Valid pixels in the map frame with the paper's height variance.

    A pixel (u, v) with depth d is ``p = d K^-1 [u, v, 1]`` in the sensor
    frame and ``R^T p - t`` in the map frame.  Its height is
    ``g . p - t_z`` with ``g = R^T e_z`` read as a row, i.e. ``R[:, 2]``;
    the variance propagates the depth noise ``sigma(d) = a + b d + c d^2``
    along the optical axis and the small-angle rotation covariance through
    the Jacobian ``g x p``.
    """
    valid = np.isfinite(frame.depth) & (frame.depth > 0)
    v, u = np.nonzero(valid)
    d = frame.depth[valid]
    p = np.column_stack([(u - intr["cx"]) / intr["fx"] * d, (v - intr["cy"]) / intr["fy"] * d, d])
    m = p @ frame.rotation - frame.translation
    g = frame.rotation[:, 2]
    a, b, c = depth_abc
    sd = a + b * d + c * d * d
    jac = np.cross(g, p)
    var = g[2] ** 2 * sd * sd + np.einsum("ni,ij,nj->n", jac, frame.rotation_cov, jac)
    return Points(xy=m[:, :2], z=m[:, 2], info=1.0 / var, scores=frame.scores[valid])


def window_offsets(centers_xy, start_xy, side: float, recenter: bool) -> np.ndarray:
    """Integer cell offset of the window for each frame (relative to the start).

    Recentering moves the window toward the camera by whole cells,
    truncating toward zero, before the frame is fused.
    """
    center = np.asarray(start_xy, dtype=float).copy()
    total = np.zeros(2, dtype=np.int64)
    out = np.zeros((len(centers_xy), 2), dtype=np.int64)
    for t, target in enumerate(centers_xy):
        if recenter:
            shift = np.trunc((np.asarray(target, dtype=float) - center) / side).astype(np.int64)
            center = center + shift * side
            total = total + shift
        out[t] = total
    return out


@dataclass
class StreamTotals:
    alpha: np.ndarray  # expected per-class sum of accumulated evidence
    info: float  # expected sum over touched vertices of 1 / z_var
    info_z: float  # expected sum over touched vertices of z_mean / z_var
    points_in_window: np.ndarray  # per processed frame


def expected_stream_totals(frames, intr, depth_abc, processed, side, half_extent, start_xy, recenter) -> StreamTotals:
    """Totals the map must hold after fusing ``frames[processed[0]], ...``.

    Every in-window point adds its score vector to its face's evidence and
    its information ``1/sigma^2`` (and ``z/sigma^2``) to each of its face's
    three vertices.  With recentering, a contribution survives only if its
    cell (for evidence) or vertex (for heights) stays inside every later
    window.
    """
    n = int(round(2 * half_extent / side))
    k = frames[0].scores.shape[2]
    cams = [-frames[i].translation[:2] for i in processed]
    offs = window_offsets(cams, start_xy, side, recenter)
    # window t covers world cells [off_t, off_t + n); a cell survives to the
    # end if it lies in every window from t on
    lo = np.maximum.accumulate(offs[::-1], axis=0)[::-1]
    hi = np.minimum.accumulate(offs[::-1], axis=0)[::-1]
    origin0 = np.asarray(start_xy, dtype=float) - half_extent

    alpha = np.zeros(k)
    info = 0.0
    info_z = 0.0
    in_window = np.zeros(len(processed), dtype=np.int64)
    groups: dict = {}
    for t, i in enumerate(processed):
        key = (i, tuple(offs[t]), tuple(lo[t]), tuple(hi[t]))
        groups.setdefault(i, {}).setdefault(key, []).append(t)
    for i, keys in groups.items():
        pts = project(frames[i], intr, depth_abc)
        for (_, off, low, high), ts in keys.items():
            off = np.array(off)
            origin = origin0 + off * side
            uv = (pts.xy - origin) / side
            inside = np.all((uv >= 0.0) & (uv <= n), axis=1)
            uv = uv[inside]
            cell = np.minimum(np.floor(uv).astype(np.int64), n - 1)
            frac = uv - cell
            upper = frac[:, 0] < frac[:, 1]  # north-west triangle of the cell
            wcell = cell + off
            keep_face = np.all((wcell >= np.array(low)) & (wcell < np.array(high) + n), axis=1)
            # the three vertices of the face, as world vertex indices
            corners = [np.zeros_like(cell), np.where(upper[:, None], [[1, 1]], [[1, 0]]), np.where(upper[:, None], [[0, 1]], [[1, 1]])]
            n_kept = np.zeros(cell.shape[0])
            for c in corners:
                wv = wcell + c
                n_kept += np.all((wv >= np.array(low)) & (wv <= np.array(high) + n), axis=1)
            reps = len(ts)
            alpha += reps * pts.scores[inside][keep_face].sum(axis=0)
            w_info = pts.info[inside] * n_kept
            info += reps * w_info.sum()
            info_z += reps * (w_info * pts.z[inside]).sum()
            in_window[ts] = int(inside.sum())
    return StreamTotals(alpha=alpha, info=info, info_z=info_z, points_in_window=in_window)


def check_map_totals(map_path, expected: StreamTotals, rtol: float = 1e-9) -> list:
    """Class evidence and height information of an exported map against the expectation."""
    _, arrays = read_container(map_path)
    issues = []
    alpha = arrays["alpha"].sum(axis=0)
    total = expected.alpha.sum()
    if total <= 0:
        issues.append("no in-window points: nothing to check")
    if not np.allclose(alpha, expected.alpha, rtol=rtol, atol=rtol * total):
        worst = np.max(np.abs(alpha - expected.alpha) / max(total, 1e-300))
        issues.append(f"class evidence per class disagrees with the in-window scores (worst {worst:.3e} of total)")
    touched = arrays["touched"].astype(bool)
    zv = arrays["z_var"][touched]
    zm = arrays["z_mean"][touched]
    if np.any(zv <= 0):
        issues.append("touched vertex with non-positive variance")
        return issues
    info = float(np.sum(1.0 / zv))
    info_z = float(np.sum(zm / zv))
    if not math.isclose(info, expected.info, rel_tol=rtol):
        issues.append(f"sum 1/z_var {info!r} != 3 sum 1/sigma^2 {expected.info!r}")
    if not math.isclose(info_z, expected.info_z, rel_tol=rtol, abs_tol=rtol * abs(expected.info)):
        issues.append(f"sum z_mean/z_var {info_z!r} != 3 sum z/sigma^2 {expected.info_z!r}")
    return issues


# -- evaluation -------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _quadrature(lo=-1.0, hi=2.0, panels=96):
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    w = (half[:, None] * _GL_W[None, :]).ravel()
    return x, w


def _log_normal_pdf(x, mu, sigma):
    z = (x[None, :] - mu[:, None]) / sigma[:, None]
    return -0.5 * z * z - np.log(sigma[:, None] * math.sqrt(2 * math.pi))


def kl_per_face(weights, truth_class, mus, sigmas, chunk=256) -> np.ndarray:
    """KL(N(mu_true, sigma_true) || sum_k w_k N(mu_k, sigma_k)) for each face.

    Gauss-Legendre quadrature (96 panels x 16 nodes on [-1, 2], where the
    Gaussians of friction in [0, 1] keep all their mass) in log space.
    """
    x, wq = _quadrature()
    logc = _log_normal_pdf(x, mus, sigmas)  # (k, m)
    out = np.empty(len(truth_class))
    for s in range(0, len(truth_class), chunk):
        wts = weights[s:s + chunk]
        logp = logc[truth_class[s:s + chunk]]
        with np.errstate(divide="ignore"):
            logq = np.log(wts)[:, :, None] + logc[None, :, :]
        mx = logq.max(axis=1)
        logq = mx + np.log(np.exp(logq - mx[:, None, :]).sum(axis=1))
        out[s:s + chunk] = (np.exp(logp) * (logp - logq)) @ wq
    return out


def face_truth_classes(header: dict, truth: dict) -> np.ndarray:
    """Ground-truth class of each face centroid, from the truth file's class map.

    Faces are numbered cell by cell, row-major from the window origin; each
    cell holds its south-east triangle (centroid at 2/3, 1/3 of the cell)
    then its north-west one (1/3, 2/3).  Regions are tested in order with
    the crossing-number rule; the first containing region wins.
    """
    side, half = header["side_length_m"], header["half_extent_m"]
    n = int(round(2 * half / side))
    ox, oy = np.asarray(header["center"], dtype=float) - half
    j, i = np.divmod(np.arange(n * n), n)
    cx = np.repeat(ox + side * i, 2) + side * np.tile([2 / 3, 1 / 3], n * n)
    cy = np.repeat(oy + side * j, 2) + side * np.tile([1 / 3, 2 / 3], n * n)
    cmap = truth["world"]["class_map"]
    out = np.full(cx.size, int(cmap["default_class"]))
    done = np.zeros(cx.size, dtype=bool)
    for region in cmap["regions"]:
        poly = np.asarray(region["polygon"], dtype=float)
        inside = np.zeros(cx.size, dtype=bool)
        for (x1, y1), (x2, y2) in zip(poly, np.roll(poly, 1, axis=0)):
            cross = (y1 > cy) != (y2 > cy)
            with np.errstate(divide="ignore", invalid="ignore"):
                xc = (x2 - x1) * (cy - y1) / (y2 - y1) + x1
            inside ^= cross & (cx < xc)
        new = inside & ~done
        out[new] = int(region["class_index"])
        done |= inside
    return out


def kl_mean(estimates_path, truth: dict) -> float:
    header, arrays = read_container(estimates_path)
    known = arrays["known"].astype(bool)
    mus = np.array([m["mu"] for m in truth["models"]])
    sigmas = np.array([m["sigma"] for m in truth["models"]])
    classes = face_truth_classes(header, truth)[known]
    return float(kl_per_face(arrays["weights"][known], classes, mus, sigmas).mean())


def unimodal_kl_mean(multimodal_path, truth: dict) -> float:
    """KL of the unimodal baseline, derived from the multimodal estimates:
    all weight on the most likely class of the last frame's mean scores."""
    header, arrays = read_container(multimodal_path)
    known = arrays["known"].astype(bool)
    w = arrays["weights"][known]
    one_hot = np.zeros_like(w)
    one_hot[np.arange(w.shape[0]), np.argmax(w, axis=1)] = 1.0
    mus = np.array([m["mu"] for m in truth["models"]])
    sigmas = np.array([m["sigma"] for m in truth["models"]])
    classes = face_truth_classes(header, truth)[known]
    return float(kl_per_face(one_hot, classes, mus, sigmas).mean())


def check_eval(summary_csv, estimates: dict, truth: dict, rtol: float = 1e-6) -> list:
    """``eval``'s kl_mean per estimator against the quadrature above, and the
    recursive estimator ahead of both baselines on KL."""
    import csv

    with open(summary_csv, newline="", encoding="utf-8") as fh:
        reported = {row["estimator"]: float(row["kl_mean"]) for row in csv.DictReader(fh)}
    issues = []
    ours = {}
    for name, path in estimates.items():
        ours[name] = kl_mean(path, truth)
        if name not in reported:
            issues.append(f"eval reports no row for {name}")
        elif not math.isclose(reported[name], ours[name], rel_tol=rtol):
            issues.append(f"{name}: eval kl_mean {reported[name]!r} != quadrature {ours[name]!r}")
    ours["unimodal_nonrecursive"] = unimodal_kl_mean(estimates["multimodal_nonrecursive"], truth)
    for base in ("multimodal_nonrecursive", "unimodal_nonrecursive"):
        if not ours["recursive"] < ours[base]:
            issues.append(f"recursive KL {ours['recursive']:.4f} does not beat {base} {ours[base]:.4f}")
    return issues


def check_frames_processed(summary_json, expected_valid: int) -> list:
    doc = json.loads(Path(summary_json).read_text(encoding="utf-8"))
    if doc["frames_processed"] != expected_valid or doc["frames_skipped"] != 0:
        return [f"run processed {doc['frames_processed']} and skipped {doc['frames_skipped']} of {expected_valid} valid frames"]
    return []


# -- friction fitting ---------------------------------------------------------------------


def smoothing_coefficient(rate_hz: float, cutoff_hz: float) -> float:
    dt = 1.0 / rate_hz
    return dt / (dt + 1.0 / (2.0 * math.pi * cutoff_hz))


def check_fitdist(model_file, classes, n: int, rate_hz: float, cutoff_hz: float, sigma_tol_se: float = 5.0) -> list:
    """Fitted Gaussians against the generating ones.

    First-order smoothing y_i = a x_i + (1-a) y_{i-1} keeps the mean, so the
    fitted mu must lie within 3 standard errors (sigma / sqrt(n)) of the
    generating mu.  It shrinks the stationary spread to
    sigma * sqrt(a / (2 - a)); the fitted sigma must match that within
    ``sigma_tol_se`` standard errors of a sample standard deviation of an
    AR(1) series with rho = 1 - a: sqrt((1 + rho^2) / (2 n (1 - rho^2))).
    """
    fitted = {}
    for line in Path(model_file).read_text(encoding="utf-8").splitlines()[1:]:
        if line and not line.startswith("#"):
            name, mu, sigma = line.split("\t")
            fitted[name] = (float(mu), float(sigma))
    a = smoothing_coefficient(rate_hz, cutoff_hz)
    rho = 1.0 - a
    rel_se = math.sqrt((1 + rho * rho) / (2 * n * (1 - rho * rho)))
    issues = []
    for name, mu, sigma in classes:
        key = name.replace("_", " ")
        if key not in fitted:
            issues.append(f"fitdist wrote no model for {key}")
            continue
        f_mu, f_sigma = fitted[key]
        if abs(f_mu - mu) > 3.0 * sigma / math.sqrt(n):
            issues.append(f"{key}: fitted mu {f_mu:.5f} is more than 3 standard errors from {mu}")
        target = sigma * math.sqrt(a / (2.0 - a))
        if abs(f_sigma / target - 1.0) > sigma_tol_se * rel_se:
            issues.append(f"{key}: fitted sigma {f_sigma:.5f} vs smoothed {target:.5f} (tolerance {sigma_tol_se * rel_se:.3%})")
    return issues
