"""Deterministic synthetic scenes: heightfield + class regions -> frame streams.

A world is an analytic heightfield (flat / ramp / sinusoid patches over a
flat base), a planar class-region map, a camera trajectory and a noise
specification.  Rendering ray-casts the pinhole camera against the
heightfield (grid march plus bisection, certified well below 1e-9), looks up
the true class per pixel, corrupts the class scores through a confusion
model and optionally the depth and the reported pose.  Each ray's march
starts at the terrain's height bound: it skips only grid steps that cannot
cross the terrain, so the bundles are byte for byte those of a march over
every step.  All randomness is
drawn from streams keyed on ``(seed, frame_id)`` in a fixed order, so a
render is reproducible regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .elevation import depth_sigma, sigma_bounds
from .errors import ConfigurationError, InputError
from .formats import _check_fields, _is_int, _is_number, _numbers, decode_intrinsics, decode_pose, encode_pose
from .geometry import CameraIntrinsics, Pose, camera_center, pose_from_camera
from .pipeline import FrameBundle
from .properties import load_default_models

_DOWN_AXES = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])

HEIGHT_KINDS = ("flat", "ramp", "sinusoid")
SCORE_MODES = ("hard", "soft", "soft_jitter")


# -- heightfield ---------------------------------------------------------------


@dataclass(frozen=True)
class HeightPatch:
    """One analytic terrain patch; ``region`` is (x0, x1, y0, y1) or None for everywhere.

    Later patches override earlier ones inside their region, so a ``flat``
    patch over a sub-region produces a step at the region border.
    """

    kind: str
    params: dict
    region: tuple | None = None

    def __post_init__(self):
        if self.kind not in HEIGHT_KINDS:
            raise ConfigurationError(f"unknown height patch kind {self.kind!r}")

    def value(self, x, y):
        p = self.params
        if self.kind == "flat":
            return np.full_like(np.asarray(x, dtype=float), p["z"])
        if self.kind == "ramp":
            return p["z0"] + p["gx"] * (x - p["x0"]) + p["gy"] * (y - p["y0"])
        return p["z0"] + p["amp"] * np.sin(
            2.0 * np.pi * (p["fx"] * x + p["fy"] * y) + p.get("phase", 0.0)
        )

    def max_value(self) -> float:
        """An upper bound on :meth:`value` inside the region (NaN or inf when there is none).

        A ramp's value is the same rounded expression as in :meth:`value`,
        and each rounding step is monotone, so over a rectangle its largest
        computed value is at one of the four corners.
        """
        p = self.params
        if self.kind == "flat":
            return p["z"]
        if self.kind == "sinusoid":
            return p["z0"] + abs(p["amp"])
        if self.region is None:
            return np.inf
        return float(np.max(self._corner_values(self.region)))

    def _corner_values(self, box) -> np.ndarray:
        """:meth:`value` at the four corners of ``box`` (x0, x1, y0, y1)."""
        x0, x1, y0, y1 = box
        return self.value(np.array([x0, x0, x1, x1], dtype=float), np.array([y0, y1, y0, y1], dtype=float))

    def finite_over(self, box) -> bool:
        """Whether every height the patch gives inside ``box`` is finite.

        Each kind is linear in x and y (a sinusoid in its phase), so its
        values inside are finite when they are at the four corners; a
        sinusoid's crest and trough, ``z0 +- |amp|``, must be finite too.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            heights = self._corner_values(box)
            if self.kind == "sinusoid":
                z0, amp = float(self.params["z0"]), abs(float(self.params["amp"]))
                heights = [*heights, z0 + amp, z0 - amp]
            return bool(np.all(np.isfinite(heights)))

    def contains(self, x, y):
        if self.region is None:
            return np.ones_like(np.asarray(x, dtype=float), dtype=bool)
        x0, x1, y0, y1 = self.region
        return (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)


@dataclass(frozen=True)
class Heightfield:
    base: float = 0.0
    patches: tuple = ()

    def height(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.full(np.broadcast(x, y).shape, self.base)
        for patch in self.patches:
            mask = patch.contains(x, y)
            if np.any(mask):
                z = np.where(mask, patch.value(x, y), z)
        return z

    def max_height(self) -> float:
        """An upper bound on every value :meth:`height` returns, ``inf`` when there is none."""
        bound = float(np.max([self.base, *(patch.max_value() for patch in self.patches)]))
        return bound if np.isfinite(bound) else np.inf


# -- class regions ---------------------------------------------------------------


def points_in_polygon(x, y, polygon) -> np.ndarray:
    """Vectorized crossing-number test for a simple polygon (m, 2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    poly = np.asarray(polygon, dtype=float)
    inside = np.zeros(np.broadcast(x, y).shape, dtype=bool)
    m = poly.shape[0]
    j = m - 1
    for i in range(m):
        xi, yi = poly[i]
        xj, yj = poly[j]
        crosses = (yi > y) != (yj > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at = (xj - xi) * (y - yi) / (yj - yi) + xi
        inside ^= crosses & (x < x_at)
        j = i
    return inside


def rect_polygon(x0, x1, y0, y1) -> np.ndarray:
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)


@dataclass(frozen=True)
class ClassRegion:
    polygon: np.ndarray
    class_index: int


@dataclass(frozen=True)
class ClassMap:
    """First-listed region wins; everything else is the default class."""

    regions: tuple = ()
    default_class: int = 0

    def classify(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.full(np.broadcast(x, y).shape, self.default_class, dtype=np.int64)
        assigned = np.zeros_like(out, dtype=bool)
        for region in self.regions:
            fresh = points_in_polygon(x, y, region.polygon) & ~assigned
            out[fresh] = region.class_index
            assigned |= fresh
        return out


# -- noise ------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSpec:
    """Sensor corruption: depth sigma(z) = a + b z + c z^2, class confusion, pose jitter.

    ``score_mode``: ``hard`` samples a one-hot class per pixel from the
    confusion row of the true class; ``soft`` emits the confusion row itself;
    ``soft_jitter`` draws the scores from a Dirichlet centered on that row
    with concentration ``jitter_kappa``.
    """

    depth_abc: tuple = (0.0, 0.0, 0.0)
    confusion: np.ndarray | None = None
    score_mode: str = "hard"
    jitter_kappa: float = 0.0
    pose_rot_cov: np.ndarray | None = None

    def __post_init__(self):
        if self.score_mode not in SCORE_MODES:
            raise ConfigurationError(f"unknown score mode {self.score_mode!r}")
        if self.confusion is not None:
            conf = np.asarray(self.confusion, dtype=float)
            if conf.ndim != 2 or conf.shape[0] != conf.shape[1]:
                raise ConfigurationError("confusion matrix must be square")
            if np.any(conf < 0) or np.abs(conf.sum(axis=1) - 1.0).max() > 1e-9:
                raise ConfigurationError("confusion rows must be probability vectors")
            object.__setattr__(self, "confusion", conf)
        if self.pose_rot_cov is not None:
            cov = np.asarray(self.pose_rot_cov, dtype=float).reshape(3, 3)
            # the jitter is drawn through a Cholesky factor
            if np.any(cov != cov.T) or cov.any() and np.linalg.eigvalsh(cov).min() <= 0.0:
                raise ConfigurationError("pose_rot_cov must be symmetric, and zero or positive definite")
            object.__setattr__(self, "pose_rot_cov", cov)

    def depth_sigma(self, depth):
        return depth_sigma(self.depth_abc, depth)


def confusion_matrix(k: int, diagonal: float, partners: dict | None = None, partner_mass: float = 0.0) -> np.ndarray:
    """Row-stochastic confusion: ``diagonal`` mass on the truth, an optional
    extra mass on a designated confusable partner, the rest spread evenly."""
    if not (0.0 < diagonal <= 1.0):
        raise ConfigurationError("diagonal mass must be in (0, 1]")
    partners = partners or {}
    conf = np.zeros((k, k))
    for i in range(k):
        conf[i, i] = diagonal
        rest = 1.0 - diagonal
        partner = partners.get(i)
        if partner is not None and partner != i:
            conf[i, partner] += partner_mass
            rest -= partner_mass
        others = [j for j in range(k) if j != i and j != partners.get(i)]
        if others:
            conf[i, others] += rest / len(others)
    conf /= conf.sum(axis=1, keepdims=True)
    return conf


# -- world spec ---------------------------------------------------------------------


@dataclass(frozen=True)
class WorldSpec:
    """Complete synthetic-scene description; hashable to JSON for provenance."""

    name: str
    heightfield: Heightfield
    class_map: ClassMap
    trajectory: tuple
    intrinsics: CameraIntrinsics
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: int = 0
    num_classes: int = 10
    max_range_m: float = 20.0
    march_steps: int = 256

    def with_seed(self, seed: int) -> "WorldSpec":
        return replace(self, seed=int(seed))


@dataclass
class GroundTruth:
    """Exact per-location scene truth plus the per-class property models."""

    world: WorldSpec
    class_names: tuple
    models: list

    def true_class_at(self, x, y) -> np.ndarray:
        return self.world.class_map.classify(x, y)

    def true_height_at(self, x, y) -> np.ndarray:
        return self.world.heightfield.height(x, y)


# -- rendering ---------------------------------------------------------------------


_BLOCK_CELLS = 1 << 16  # ray-steps per march block: 512 KiB per float64 scratch array
_D_MIN = 1e-3  # nearest depth a ray is marched from [m]
_BISECT_ITERS = 48


def _raycast(heightfield, origin, dirs, d_max, steps):
    """First surface crossing along each ray, parameterized by sensor depth.

    Rays are marched on a uniform grid to bracket the first sign change of
    camera-height-above-terrain, then bisected; the bracket is one march
    step wide, so terrain features narrower than that can be stepped over.
    Returns NaN where no crossing exists in (``_D_MIN``, d_max].

    A grid step whose ray height is above ``heightfield.max_height()`` has a
    positive gap, so it cannot be the first crossing.  Each ray's march
    therefore starts at its first step at or below that bound, and goes on
    in blocks of steps, each block twice as wide as the last and at most
    ``_BLOCK_CELLS`` ray-steps in all.  The depths are bit for bit those of
    a march over every step: every gap is the same floating-point expression.
    """
    grid = np.linspace(_D_MIN, d_max, steps + 1)
    ox, oy, oz = origin
    cols = [np.ascontiguousarray(c) for c in dirs.T]

    def gap(d, dx, dy, dz):
        # the same products and sums as origin + d * dirs, coordinate by coordinate
        return (oz + d * dz) - heightfield.height(ox + d * dx, oy + d * dy)

    depth = np.full(dirs.shape[0], np.nan)
    # a ray whose first grid point is not above the terrain has no first crossing
    rays = np.nonzero(gap(grid[0], *cols) > 0.0)[0]

    # bisect each ray's first grid step at or below the bound (steps + 1: none);
    # its height, computed as in gap(), is monotone in the step
    bound = heightfield.max_height()
    rdz = cols[2][rays]
    first = np.zeros(rays.size, dtype=np.intp)
    last = np.where(oz + grid[0] * rdz <= bound, 0, steps + 1)
    while np.any(first < last):
        open_ = first < last
        probe = (first + last) // 2
        below = oz + grid[np.minimum(probe, steps)] * rdz <= bound
        last = np.where(open_ & below, probe, last)
        first = np.where(open_ & ~below, probe + 1, first)

    start = np.maximum(first, 1)
    rays, start = rays[start <= steps], start[start <= steps]
    hit_rays, hit_steps = [rays[:0]], [start[:0]]
    width = 1
    while rays.size:
        idx = start[:, None] + np.arange(width)
        g = gap(grid[np.minimum(idx, steps)], *(c[rays, None] for c in cols))
        crossed = (g <= 0.0) & (idx <= steps)
        found = crossed.any(axis=1)
        hit_rays.append(rays[found])
        hit_steps.append(idx[found, crossed[found].argmax(axis=1)])
        start += width
        more = ~found & (start <= steps)
        rays, start = rays[more], start[more]
        width = min(2 * width, max(1, _BLOCK_CELLS // max(rays.size, 1)))

    rays, i = np.concatenate(hit_rays), np.concatenate(hit_steps)
    lo, hi = grid[i - 1], grid[i]
    dx, dy, dz = (c[rays] for c in cols)
    mid, x, y, z = (np.empty(rays.size) for _ in range(4))
    above = np.empty(rays.size, dtype=bool)
    for _ in range(_BISECT_ITERS):
        np.add(lo, hi, out=mid)
        mid *= 0.5
        np.multiply(mid, dx, out=x)
        x += ox
        np.multiply(mid, dy, out=y)
        y += oy
        np.multiply(mid, dz, out=z)
        z += oz
        z -= heightfield.height(x, y)
        np.greater(z, 0.0, out=above)
        np.copyto(lo, mid, where=above)
        np.logical_not(above, out=above)
        np.copyto(hi, mid, where=above)
    depth[rays] = 0.5 * (lo + hi)
    return depth


def _pixel_rays(intrinsics: CameraIntrinsics):
    u = np.arange(intrinsics.width)
    v = np.arange(intrinsics.height)
    uu, vv = np.meshgrid(u, v)
    rays = np.column_stack(
        [
            ((uu - intrinsics.cx) / intrinsics.fx).ravel(),
            ((vv - intrinsics.cy) / intrinsics.fy).ravel(),
            np.ones(uu.size),
        ]
    )
    return rays


def _rodrigues(delta):
    theta = float(np.linalg.norm(delta))
    if theta < 1e-15:
        return np.eye(3)
    k = np.asarray(delta, dtype=float) / theta
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + np.sin(theta) * kx + (1.0 - np.cos(theta)) * (kx @ kx)


def render_frame(spec: WorldSpec, frame_idx: int) -> FrameBundle:
    """Render one trajectory pose into a frame bundle (float64 arrays)."""
    pose_true = spec.trajectory[frame_idx]
    intr = spec.intrinsics
    k = spec.num_classes
    h, w = intr.height, intr.width
    timestamp = 0.1 * frame_idx

    origin = camera_center(pose_true)
    ground = float(spec.heightfield.height(origin[0], origin[1]))
    if origin[2] <= ground:
        # camera under the surface: no meaningful first hit exists
        return FrameBundle(
            depth=np.full((h, w), np.nan),
            scores=np.full((h, w, k), 1.0 / k),
            pose=pose_true,
            intrinsics=intr,
            frame_id=frame_idx,
            timestamp=timestamp,
            valid=False,
        )

    # sensor-z parameterization: ray point = origin + depth * (R^T ray)
    dirs = _pixel_rays(intr) @ pose_true.rotation
    depth = _raycast(spec.heightfield, origin, dirs, spec.max_range_m, spec.march_steps)

    hit = np.isfinite(depth)
    pts = origin[None, :] + depth[:, None] * dirs
    true_class = np.zeros(depth.size, dtype=np.int64)
    true_class[hit] = spec.class_map.classify(pts[hit, 0], pts[hit, 1])

    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, frame_idx)))
    noise = spec.noise
    conf = noise.confusion if noise.confusion is not None else np.eye(k)
    if conf.shape[0] != k:
        raise InputError("confusion matrix size disagrees with num_classes")

    scores = np.zeros((depth.size, k))
    if noise.score_mode == "hard":
        cdf = np.cumsum(conf, axis=1)[true_class]
        r = rng.random(depth.size)
        sampled = np.minimum((cdf <= r[:, None]).sum(axis=1), k - 1)
        scores[np.arange(depth.size), sampled] = 1.0
    elif noise.score_mode == "soft":
        scores = conf[true_class]
    else:
        gammas = rng.gamma(shape=np.maximum(noise.jitter_kappa * conf[true_class], 0.0))
        totals = gammas.sum(axis=1, keepdims=True)
        # a draw that underflows to all zeros takes the Dirichlet mean, its confusion row
        scores = np.divide(gammas, totals, out=conf[true_class], where=totals > 0.0)
    scores[~hit] = 1.0 / k

    sigma = noise.depth_sigma(depth[hit])
    if np.any(sigma > 0):
        noisy = depth.copy()
        noisy[hit] = depth[hit] + rng.standard_normal(hit.sum()) * sigma
        depth = noisy

    reported = pose_true
    if noise.pose_rot_cov is not None:
        rotation = pose_true.rotation
        if np.any(noise.pose_rot_cov):
            delta = rng.multivariate_normal(np.zeros(3), noise.pose_rot_cov, method="cholesky")
            rotation = _rodrigues(delta) @ rotation
        reported = Pose(rotation, pose_true.translation, noise.pose_rot_cov)

    return FrameBundle(
        depth=depth.reshape(h, w),
        scores=scores.reshape(h, w, k),
        pose=reported,
        intrinsics=intr,
        frame_id=frame_idx,
        timestamp=timestamp,
    )


def iter_frames(spec: WorldSpec, limit: int | None = None):
    """Check the world against the model catalog and return ``(frames,
    GroundTruth)``; ``frames`` renders and yields the trajectory's first
    ``limit`` frames (all by default) one at a time."""
    catalog, models = load_default_models()
    if catalog.k != spec.num_classes:
        raise InputError("model catalog size disagrees with the world's class count")
    count = len(spec.trajectory) if limit is None else min(limit, len(spec.trajectory))
    frames = (render_frame(spec, i) for i in range(count))
    return frames, GroundTruth(world=spec, class_names=catalog.names, models=models)


def render_frames(spec: WorldSpec, limit: int | None = None):
    """Render the whole trajectory: ``([FrameBundle, ...], GroundTruth)``."""
    frames, truth = iter_frames(spec, limit)
    return list(frames), truth


# -- scenario library ------------------------------------------------------------


def sweep_trajectory(rows, x_span, frames_per_row, altitude) -> tuple:
    """Straight-down serpentine sweep: one pass per row, alternating direction."""
    poses = []
    for i, y in enumerate(rows):
        xs = np.linspace(x_span[0], x_span[1], frames_per_row)
        if i % 2 == 1:
            xs = xs[::-1]
        for x in xs:
            poses.append(pose_from_camera(np.array([x, y, altitude]), _DOWN_AXES))
    return tuple(poses)


def _default_intrinsics() -> CameraIntrinsics:
    return CameraIntrinsics(fx=60.0, fy=60.0, cx=39.5, cy=29.5, width=80, height=60)


# confusable pairs with well-separated friction means, so segmentation
# mistakes matter for property estimates
_CONFUSION_PARTNERS = {0: 8, 8: 0, 1: 9, 9: 1, 5: 7, 7: 5, 6: 4, 4: 6, 2: 3, 3: 2}


def noisy_variant(spec: WorldSpec, diagonal: float = 0.8) -> WorldSpec:
    k = spec.num_classes
    noise = NoiseSpec(
        depth_abc=(0.001, 0.0, 0.0019),
        confusion=confusion_matrix(k, diagonal, _CONFUSION_PARTNERS, partner_mass=0.14),
        score_mode="hard",
        pose_rot_cov=np.eye(3) * (5e-4) ** 2,
    )
    return replace(spec, name=spec.name + "-noisy", noise=noise)


def scenario_library() -> dict:
    """Named worlds covering the regimes the estimators differ on."""
    catalog, _ = load_default_models()
    idx = {name: i for i, name in enumerate(catalog.names)}
    k = catalog.k
    intr = _default_intrinsics()

    flat = WorldSpec(
        name="flat-single-class",
        heightfield=Heightfield(base=0.2),
        class_map=ClassMap(default_class=idx["grass"]),
        trajectory=sweep_trajectory([-1.0, 1.0], (-2.0, 2.0), 10, 4.0),
        intrinsics=intr,
        num_classes=k,
        march_steps=128,
    )

    split = WorldSpec(
        name="two-class-split",
        heightfield=Heightfield(base=0.0),
        class_map=ClassMap(
            regions=(
                ClassRegion(rect_polygon(-2.5, 0.0, -2.5, 2.5), idx["ice"]),
            ),
            default_class=idx["concrete"],
        ),
        trajectory=sweep_trajectory([-1.2, 1.2], (-2.2, 2.2), 10, 4.0),
        intrinsics=intr,
        num_classes=k,
        march_steps=128,
    )

    ramp = WorldSpec(
        name="ramp",
        heightfield=Heightfield(
            base=0.0,
            patches=(
                HeightPatch(
                    kind="ramp",
                    params={"z0": 0.0, "gx": 0.1, "gy": 0.0, "x0": 0.0, "y0": 0.0},
                    region=(0.0, 10.0, -10.0, 10.0),
                ),
            ),
        ),
        class_map=ClassMap(default_class=idx["concrete"]),
        trajectory=sweep_trajectory([-1.2, 1.2], (-2.2, 2.2), 10, 4.0),
        intrinsics=intr,
        num_classes=k,
        march_steps=256,
    )

    imbalanced = WorldSpec(
        name="imbalanced",
        heightfield=Heightfield(base=0.0),
        class_map=ClassMap(
            regions=(
                ClassRegion(rect_polygon(-3.0, -1.0, 0.0, 3.0), idx["grass"]),
                ClassRegion(rect_polygon(1.0, 3.0, -3.0, -1.0), idx["rubber"]),
                ClassRegion(rect_polygon(-3.0, -1.5, -3.0, -1.0), idx["rug"]),
                ClassRegion(rect_polygon(-1.0, 1.0, -1.0, 1.0), idx["ice"]),
                ClassRegion(rect_polygon(1.0, 3.0, 1.0, 2.5), idx["snow"]),
                ClassRegion(rect_polygon(-1.0, 0.5, -3.0, -1.5), idx["wood"]),
            ),
            default_class=idx["concrete"],
        ),
        trajectory=sweep_trajectory([-1.4, 1.4], (-2.6, 2.6), 25, 4.0),
        intrinsics=intr,
        num_classes=k,
        march_steps=128,
    )

    library = {}
    for spec in (flat, split, ramp, imbalanced):
        library[spec.name] = spec
        library[spec.name + "-noisy"] = noisy_variant(spec)
    return library


# -- serialization ---------------------------------------------------------------


def world_to_dict(spec: WorldSpec) -> dict:
    noise = spec.noise
    return {
        "name": spec.name,
        "seed": spec.seed,
        "num_classes": spec.num_classes,
        "max_range_m": spec.max_range_m,
        "march_steps": spec.march_steps,
        "heightfield": {
            "base": spec.heightfield.base,
            "patches": [
                {
                    "kind": p.kind,
                    "params": {key: float(v) for key, v in sorted(p.params.items())},
                    "region": None if p.region is None else [float(v) for v in p.region],
                }
                for p in spec.heightfield.patches
            ],
        },
        "class_map": {
            "default_class": spec.class_map.default_class,
            "regions": [
                {"class_index": r.class_index, "polygon": np.asarray(r.polygon, dtype=float).tolist()}
                for r in spec.class_map.regions
            ],
        },
        "intrinsics": asdict(spec.intrinsics),
        "trajectory": [encode_pose(p) for p in spec.trajectory],
        "noise": {
            "depth_abc": [float(v) for v in noise.depth_abc],
            "confusion": None if noise.confusion is None else noise.confusion.tolist(),
            "score_mode": noise.score_mode,
            "jitter_kappa": noise.jitter_kappa,
            "pose_rot_cov": None if noise.pose_rot_cov is None else noise.pose_rot_cov.reshape(-1).tolist(),
        },
    }


_OBJECT = (lambda v: isinstance(v, dict), "an object")
_LIST = (lambda v: isinstance(v, list), "a list")
_WORLD_FIELDS = (
    ("name", lambda v: isinstance(v, str), "a string"),
    ("seed", lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    ("num_classes", lambda v: _is_int(v) and v > 0, "a positive integer"),
    ("max_range_m", lambda v: _is_number(v) and v > 0, "a positive finite number"),
    ("march_steps", lambda v: _is_int(v) and v > 0, "a positive integer"),
    *((key, *_OBJECT) for key in ("heightfield", "class_map", "intrinsics", "noise")),
    ("trajectory", *_LIST),
)
_PATCH_FIELDS = (
    ("kind", lambda v: v in HEIGHT_KINDS, f"one of {HEIGHT_KINDS}"),
    ("params", *_OBJECT),
    ("region", lambda v: v is None or _numbers(4)(v), "null or 4 finite numbers x0, x1, y0, y1"),
)
# the params each patch kind reads (a sinusoid's "phase" defaults to 0); any other must be a number too
_PATCH_PARAMS = {"flat": ("z",), "ramp": ("z0", "gx", "gy", "x0", "y0"), "sinusoid": ("z0", "amp", "fx", "fy")}
_POLYGON = (
    lambda v: isinstance(v, list) and len(v) >= 3 and all(map(_numbers(2), v)),
    "a list of 3 or more [x, y] pairs of finite numbers",
)


def world_from_dict(doc: dict) -> WorldSpec:
    """Inverse of :func:`world_to_dict`.  A missing field, or one outside the
    type and range the renderer assumes, raises a ``TerrameshError`` naming it.
    So does a height patch whose heights are not finite over its region or,
    without one, over the box of the camera centres widened by ``max_range_m``."""
    where = "world description"
    _check_fields(where, doc, _WORLD_FIELDS)
    k, max_range = doc["num_classes"], float(doc["max_range_m"])
    hf, cmap, noise = doc["heightfield"], doc["class_map"], doc["noise"]

    _check_fields(f"{where} heightfield", hf, (("base", _is_number, "a finite number"), ("patches", *_LIST)))
    for i, p in enumerate(hf["patches"]):
        at = f"{where} heightfield patches[{i}]"
        _check_fields(at, p, _PATCH_FIELDS)
        names = dict.fromkeys([*_PATCH_PARAMS[p["kind"]], *p["params"]])
        _check_fields(f"{at} params", p["params"], [(name, _is_number, "a finite number") for name in names])

    class_index = (lambda v: _is_int(v) and 0 <= v < k, f"a class index in [0, {k})")
    _check_fields(f"{where} class_map", cmap, (("default_class", *class_index), ("regions", *_LIST)))
    for i, r in enumerate(cmap["regions"]):
        _check_fields(f"{where} class_map regions[{i}]", r, (("class_index", *class_index), ("polygon", *_POLYGON)))

    _check_fields(f"{where} noise", noise, (
        ("depth_abc", lambda v: _numbers(3)(v) and sigma_bounds(*v, max_range)[0] >= 0.0,
         f"3 finite numbers a, b, c with a + b z + c z^2 >= 0 for z in [0, {max_range}]"),
        ("confusion", lambda v: v is None or isinstance(v, list) and len(v) == k and all(map(_numbers(k), v)),
         f"null or {k} rows of {k} finite numbers"),
        ("score_mode", lambda v: v in SCORE_MODES, f"one of {SCORE_MODES}"),
        ("jitter_kappa", lambda v: _is_number(v) and (v > 0 or noise["score_mode"] != "soft_jitter"),
         "a finite number, positive under soft_jitter"),
        ("pose_rot_cov", lambda v: v is None or _numbers(9)(v), "null or 9 finite numbers"),
    ))

    spec = WorldSpec(
        name=doc["name"],
        heightfield=Heightfield(float(hf["base"]), tuple(
            HeightPatch(p["kind"], dict(p["params"]), None if p["region"] is None else tuple(p["region"]))
            for p in hf["patches"]
        )),
        class_map=ClassMap(
            regions=tuple(ClassRegion(np.array(r["polygon"], dtype=float), r["class_index"]) for r in cmap["regions"]),
            default_class=cmap["default_class"],
        ),
        trajectory=tuple(decode_pose(f"{where} trajectory[{i}]", p) for i, p in enumerate(doc["trajectory"])),
        intrinsics=decode_intrinsics(f"{where} intrinsics", doc["intrinsics"]),
        noise=NoiseSpec(
            depth_abc=tuple(noise["depth_abc"]),
            confusion=noise["confusion"],
            score_mode=noise["score_mode"],
            jitter_kappa=float(noise["jitter_kappa"]),
            pose_rot_cov=noise["pose_rot_cov"],
        ),
        seed=doc["seed"],
        num_classes=k,
        max_range_m=max_range,
        march_steps=doc["march_steps"],
    )
    reach = None
    if spec.trajectory:
        # every ray ends within max_range_m of its camera centre
        centres = np.array([camera_center(pose)[:2] for pose in spec.trajectory])
        with np.errstate(over="ignore"):  # an infinite box is checked like any other
            lo, hi = centres.min(axis=0) - max_range, centres.max(axis=0) + max_range
        reach = (lo[0], hi[0], lo[1], hi[1])
    for i, patch in enumerate(spec.heightfield.patches):
        box = patch.region or reach
        if box is not None and not patch.finite_over(box):
            raise ConfigurationError(
                f"{where} heightfield patches[{i}] params give non-finite heights "
                f"over x0, x1, y0, y1 = {[float(v) for v in box]}"
            )
    return spec
