"""World specs and inputs of the three workloads.

The specs are defined here, not taken from ``scenario_library()``, so that
the library can change without moving the benchmark.  Frames are rendered
with ``terramesh.sim.render_frame`` and written with
``terramesh.formats.write_bundle``; the program under test only ever reads
the resulting bundle.  Every depth stays far inside the default
``SensorNoiseModel.max_range_m`` (30 m): about 1.4 m on the paper frame and
4 m on the robot-centric sweep.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEPTH_ABC = (0.001, 0.0, 0.0019)  # same as the default SensorNoiseModel
POSE_ROT_COV = np.eye(3) * (5e-4) ** 2
# confusable pairs with well-separated friction means (class order of the
# shipped friction table): concrete/ice, grass/laminated, rubber/snow, ...
PARTNERS = {0: 8, 8: 0, 1: 9, 9: 1, 5: 7, 7: 5, 6: 4, 4: 6, 2: 3, 3: 2}
DOWN = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
CACHE_KEEP = 4  # bundles kept per workload in the cache


@dataclass(frozen=True)
class StreamSetup:
    """What the mapping worker is told about a stream workload."""

    side_length_m: float
    half_extent_m: float
    recenter: bool
    order: str  # "cycle": 0..n-1 again and again; "pingpong": 0..n-1..1 (a closed path)


PAPER = StreamSetup(side_length_m=0.01, half_extent_m=0.5, recenter=False, order="cycle")
ROBOT = StreamSetup(side_length_m=0.02, half_extent_m=5.0, recenter=True, order="pingpong")
CLI_MESH = ("0.1", "2.5")  # mesh side and half extent of the walkthrough runs: 5,000 faces


def _catalog():
    from terramesh.properties import load_default_models

    catalog, _ = load_default_models()
    return {name: i for i, name in enumerate(catalog.names)}, catalog.k


def paper_spec(seed: int, frames: int = 8):
    """The paper's case: 424x240 frames over a 1 m x 1 m window at 1 cm.

    The camera is 1.3 m above a ground offset 0.15 m from zero, pitched 12
    degrees off vertical so pixel rows never align with the mesh lattice, and
    moves 2 mm per frame.  Scores are Dirichlet-jittered full vectors.
    """
    from terramesh.geometry import CameraIntrinsics, pose_from_camera
    from terramesh.sim import ClassMap, ClassRegion, HeightPatch, Heightfield, NoiseSpec, WorldSpec
    from terramesh.sim import confusion_matrix, rect_polygon

    idx, k = _catalog()
    base, alt, half = 0.15, 1.3, 0.5
    w, h = 424, 240
    pitch = math.radians(12.0)
    rx = np.array(
        [[1.0, 0.0, 0.0], [0.0, math.cos(pitch), -math.sin(pitch)], [0.0, math.sin(pitch), math.cos(pitch)]]
    )
    poses = tuple(
        pose_from_camera(np.array([0.0137 + 0.002 * i, -alt * math.tan(pitch) + 0.001 * i, base + alt]), rx @ DOWN)
        for i in range(frames)
    )
    fx = 0.92 * alt * w / (2.0 * half)
    fy = 0.92 * alt * h / (2.0 * half)
    return WorldSpec(
        name="perfbench-paper-frame",
        heightfield=Heightfield(
            base=base,
            patches=(
                HeightPatch("ramp", {"z0": base, "gx": 0.04, "gy": -0.03, "x0": 0.0, "y0": 0.0}, (-0.2, 1.0, -1.0, 1.0)),
            ),
        ),
        class_map=ClassMap(
            regions=(
                ClassRegion(rect_polygon(-1.0, -0.1, 0.05, 1.0), idx["grass"]),
                ClassRegion(rect_polygon(0.15, 1.0, -1.0, -0.2), idx["pebbles"]),
            ),
            default_class=idx["concrete"],
        ),
        trajectory=poses,
        intrinsics=CameraIntrinsics(fx=fx, fy=fy, cx=(w - 1) / 2.0, cy=(h - 1) / 2.0, width=w, height=h),
        noise=NoiseSpec(
            depth_abc=DEPTH_ABC,
            confusion=confusion_matrix(k, 0.8, PARTNERS, partner_mass=0.1),
            score_mode="soft_jitter",
            jitter_kappa=40.0,
            pose_rot_cov=POSE_ROT_COV,
        ),
        seed=int(seed),
        num_classes=k,
        max_range_m=4.0,
        march_steps=32,
    )


def _sweep(rows, x_span, per_row, altitude):
    from terramesh.geometry import pose_from_camera

    poses = []
    for i, y in enumerate(rows):
        xs = np.linspace(x_span[0], x_span[1], per_row)
        for x in xs[::-1] if i % 2 else xs:
            poses.append(pose_from_camera(np.array([x, y, altitude]), DOWN))
    return tuple(poses)


def _small_intrinsics():
    from terramesh.geometry import CameraIntrinsics

    return CameraIntrinsics(fx=60.0, fy=60.0, cx=39.5, cy=29.5, width=80, height=60)


def robot_spec(seed: int):
    """Serpentine sweep of 80x60 frames at 4 m over a multi-class, bumpy world."""
    from terramesh.sim import ClassMap, ClassRegion, HeightPatch, Heightfield, NoiseSpec, WorldSpec
    from terramesh.sim import confusion_matrix, rect_polygon

    idx, k = _catalog()
    regions = (
        ClassRegion(rect_polygon(-4.0, -1.0, 0.0, 4.0), idx["grass"]),
        ClassRegion(rect_polygon(1.0, 4.0, -4.0, -1.0), idx["rubber"]),
        ClassRegion(rect_polygon(-4.0, -1.5, -4.0, -1.0), idx["rug"]),
        ClassRegion(rect_polygon(-1.0, 1.0, -1.0, 1.0), idx["ice"]),
        ClassRegion(rect_polygon(1.0, 4.0, 1.0, 2.5), idx["snow"]),
        ClassRegion(rect_polygon(-1.0, 0.5, -4.0, -1.5), idx["wood"]),
    )
    return WorldSpec(
        name="perfbench-robot-centric",
        heightfield=Heightfield(
            base=0.0,
            patches=(HeightPatch("sinusoid", {"z0": 0.05, "amp": 0.08, "fx": 0.21, "fy": 0.13}, None),),
        ),
        class_map=ClassMap(regions=regions, default_class=idx["concrete"]),
        trajectory=_sweep([-1.5, -0.5, 0.5, 1.5], (-2.5, 2.5), 15, 4.0),
        intrinsics=_small_intrinsics(),
        noise=NoiseSpec(
            depth_abc=DEPTH_ABC,
            confusion=confusion_matrix(k, 0.8, PARTNERS, partner_mass=0.14),
            score_mode="hard",
            pose_rot_cov=POSE_ROT_COV,
        ),
        seed=int(seed),
        num_classes=k,
        max_range_m=10.0,
        march_steps=128,
    )


def walkthrough_spec(seed: int):
    """Modelled on the two-class split (ice | concrete) with noisy segmentation."""
    from terramesh.sim import ClassMap, ClassRegion, Heightfield, NoiseSpec, WorldSpec
    from terramesh.sim import confusion_matrix, rect_polygon

    idx, k = _catalog()
    return WorldSpec(
        name="perfbench-two-class-split-noisy",
        heightfield=Heightfield(base=0.0),
        class_map=ClassMap(
            regions=(ClassRegion(rect_polygon(-2.5, 0.0, -2.5, 2.5), idx["ice"]),),
            default_class=idx["concrete"],
        ),
        trajectory=_sweep([-1.2, 1.2], (-2.2, 2.2), 25, 4.0),
        intrinsics=_small_intrinsics(),
        noise=NoiseSpec(
            depth_abc=DEPTH_ABC,
            confusion=confusion_matrix(k, 0.8, PARTNERS, partner_mass=0.14),
            score_mode="hard",
            pose_rot_cov=POSE_ROT_COV,
        ),
        seed=int(seed),
        num_classes=k,
        max_range_m=10.0,
        march_steps=128,
    )


def spec_digest(spec) -> str:
    from terramesh.sim import world_to_dict

    doc = json.dumps(world_to_dict(spec), sort_keys=True).encode()
    return hashlib.sha256(doc).hexdigest()[:16]


def stream_bundle(spec, cache_root: Path) -> Path:
    """Bundle directory of ``spec``, rendered once per seed and kept in the cache.

    Rendering happens here, before any timed region.  The newest
    ``CACHE_KEEP`` bundles of a workload are kept, older ones are removed.
    """
    from terramesh.formats import write_bundle
    from terramesh.properties import load_default_models
    from terramesh.sim import render_frame

    path = cache_root / f"{spec.name}-s{spec.seed}-{spec_digest(spec)}"
    if not (path / "manifest.json").is_file():
        tmp = path.with_name(path.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        catalog, _ = load_default_models()
        frames = [render_frame(spec, i) for i in range(len(spec.trajectory))]
        write_bundle(tmp, frames, class_names=catalog.names, scenario={"name": spec.name})
        shutil.rmtree(path, ignore_errors=True)
        tmp.rename(path)
    path.touch()
    siblings = sorted(cache_root.glob(f"{spec.name}-s*"), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in siblings[CACHE_KEEP:]:
        shutil.rmtree(old, ignore_errors=True)
    return path


# -- friction force logs ---------------------------------------------------------

FORCE_CLASSES = (("bench_ice", 0.19, 0.046), ("bench_wood", 0.37, 0.055), ("bench_rubber", 0.62, 0.048))
FORCE_RATE_HZ = 100.0
FORCE_CUTOFF_HZ = 5.0  # fitdist's default --cutoff
FORCE_SAMPLES = 4000
FORCE_MASS_KG = 2.0
GRAVITY = 9.81


def write_force_logs(directory: Path, seed: int) -> None:
    """One CSV per class: Gaussian friction samples, force = mu * m * g.

    The draws are shifted and scaled to sample mean ``mu`` and sample
    standard deviation ``sigma`` exactly, so that how close ``fitdist`` gets
    to the generating values does not depend on the seed.
    """
    directory.mkdir(parents=True, exist_ok=True)
    for i, (name, mu, sigma) in enumerate(FORCE_CLASSES):
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 7919, i)))
        z = rng.standard_normal(FORCE_SAMPLES)
        friction = mu + sigma * (z - z.mean()) / z.std()
        times = np.arange(FORCE_SAMPLES) / FORCE_RATE_HZ
        lines = [f"# mass_kg={FORCE_MASS_KG!r}", "t_seconds,force_newtons"]
        lines += [f"{t!r},{f!r}" for t, f in zip(times.tolist(), (friction * FORCE_MASS_KG * GRAVITY).tolist())]
        (directory / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
