import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import terramesh as tm
from terramesh.geometry import CameraIntrinsics, camera_center, pose_from_camera, transform_to_map
from terramesh.pipeline import Mapper, PipelineConfig
from terramesh.properties import load_default_models
from terramesh.sim import (
    ClassMap,
    ClassRegion,
    Heightfield,
    HeightPatch,
    NoiseSpec,
    WorldSpec,
    _pixel_rays,
    _raycast,
    confusion_matrix,
    points_in_polygon,
    rect_polygon,
    render_frame,
    render_frames,
    scenario_library,
    sweep_trajectory,
    world_from_dict,
    world_to_dict,
)

from oracles import sequential_raycast

def polygon_area(polygon) -> float:
    """Shoelace area of a simple polygon."""
    x, y = np.asarray(polygon, dtype=float).T
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


DOWN = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])


def flat_world(z=0.0, class_index=0, noise=None, seed=0, intr=None, poses=None):
    intr = intr or CameraIntrinsics(fx=30.0, fy=30.0, cx=19.5, cy=14.5, width=40, height=30)
    poses = poses or tuple(pose_from_camera([0.3, -0.2, 3.0], DOWN) for _ in range(4))
    return WorldSpec(
        name="test-flat",
        heightfield=Heightfield(base=z),
        class_map=ClassMap(default_class=class_index),
        trajectory=tuple(poses),
        intrinsics=intr,
        noise=noise or NoiseSpec(),
        seed=seed,
        num_classes=10,
        max_range_m=10.0,
        march_steps=64,
    )


class TestGeometryPrimitives:
    def test_polygon_containment(self):
        poly = rect_polygon(0.0, 2.0, -1.0, 1.0)
        x = np.array([1.0, 3.0, -0.1, 1.9])
        y = np.array([0.0, 0.0, 0.0, 0.9])
        inside = points_in_polygon(x, y, poly)
        assert inside.tolist() == [True, False, False, True]

    def test_class_map_first_match(self):
        cmap = ClassMap(
            regions=(
                ClassRegion(rect_polygon(-1, 1, -1, 1), 5),
                ClassRegion(rect_polygon(0, 2, -1, 1), 7),
            ),
            default_class=3,
        )
        assert cmap.classify(0.5, 0.0) == 5  # overlap: first region wins
        assert cmap.classify(1.5, 0.0) == 7
        assert cmap.classify(9.0, 9.0) == 3

    def test_heightfield_patches(self):
        hf = Heightfield(
            base=0.1,
            patches=(
                HeightPatch("ramp", {"z0": 0.0, "gx": 0.5, "gy": 0.0, "x0": 0.0, "y0": 0.0}, (0, 4, -4, 4)),
                HeightPatch("flat", {"z": 2.0}, (2, 3, -1, 1)),
            ),
        )
        assert hf.height(-1.0, 0.0) == pytest.approx(0.1)      # base
        assert hf.height(1.0, 0.0) == pytest.approx(0.5)       # ramp
        assert hf.height(2.5, 0.0) == pytest.approx(2.0)       # later patch wins
        assert hf.height(2.5, 3.0) == pytest.approx(1.25)      # ramp outside step

    def test_sinusoid_patch(self):
        hf = Heightfield(
            patches=(HeightPatch("sinusoid", {"z0": 0.0, "amp": 0.2, "fx": 0.5, "fy": 0.0}),)
        )
        assert hf.height(0.5, 0.0) == pytest.approx(0.2)
        assert hf.height(1.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_confusion_matrix_rows(self):
        conf = confusion_matrix(10, 0.8, {0: 8, 8: 0}, partner_mass=0.14)
        assert np.allclose(conf.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.diag(conf), 0.8)
        assert conf[0, 8] == pytest.approx(0.14, abs=1e-12)
        assert conf[1, 0] == pytest.approx(0.2 / 9, abs=1e-12)


class TestRendering:
    def test_flat_depth_matches_ray_plane_intersection(self):
        spec = flat_world(z=0.25)
        frame = render_frame(spec, 0)
        pose = spec.trajectory[0]
        c = camera_center(pose)
        intr = spec.intrinsics
        uu, vv = np.meshgrid(np.arange(intr.width), np.arange(intr.height))
        rays = np.column_stack(
            [
                ((uu - intr.cx) / intr.fx).ravel(),
                ((vv - intr.cy) / intr.fy).ravel(),
                np.ones(uu.size),
            ]
        )
        w = rays @ pose.rotation  # map-frame directions per depth unit
        analytic = (0.25 - c[2]) / w[:, 2]
        assert np.abs(frame.depth.ravel() - analytic).max() < 1e-9

    def test_identity_confusion_one_hot(self):
        frame = render_frame(flat_world(class_index=4), 0)
        scores = frame.scores.reshape(-1, 10)
        assert np.all(scores[:, 4] == 1.0)
        assert np.all(scores.sum(axis=1) == 1.0)

    def test_confusion_sampling_accuracy(self):
        conf = confusion_matrix(10, 0.8)
        intr = CameraIntrinsics(fx=150.0, fy=150.0, cx=249.5, cy=249.5, width=500, height=500)
        spec = flat_world(
            class_index=2,
            noise=NoiseSpec(confusion=conf, score_mode="hard"),
            seed=99,
            intr=intr,
        )
        frames = [render_frame(spec, i) for i in range(4)]
        hits = sum(
            (np.argmax(f.scores.reshape(-1, 10), axis=1) == 2).sum() for f in frames
        )
        total = 4 * 500 * 500
        assert hits / total == pytest.approx(0.8, abs=0.002)

    def test_soft_mode_emits_confusion_row(self):
        conf = confusion_matrix(10, 0.7)
        spec = flat_world(class_index=3, noise=NoiseSpec(confusion=conf, score_mode="soft"))
        frame = render_frame(spec, 0)
        scores = frame.scores.reshape(-1, 10)
        assert np.allclose(scores, conf[3], atol=1e-12)

    def test_soft_jitter_centers_on_confusion_row(self):
        conf = confusion_matrix(10, 0.7)
        spec = flat_world(
            class_index=3,
            noise=NoiseSpec(confusion=conf, score_mode="soft_jitter", jitter_kappa=200.0),
            seed=13,
        )
        frame = render_frame(spec, 0)
        scores = frame.scores.reshape(-1, 10)
        assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-9)
        assert not np.allclose(scores, conf[3], atol=1e-6)  # actually jittered
        assert np.abs(scores.mean(axis=0) - conf[3]).max() < 0.01

    @pytest.mark.parametrize("kappa", [0.01, 1e-300])
    def test_soft_jitter_frames_stay_valid_at_small_kappa(self, kappa):
        # most Dirichlet draws at these concentrations underflow to all zeros
        spec = scenario_library()["two-class-split"]
        spec = replace(spec, noise=NoiseSpec(score_mode="soft_jitter", jitter_kappa=kappa))
        frames, _ = render_frames(spec, limit=4)
        assert all(frame.valid for frame in frames)
        for frame in frames:
            frame.validate()

    def test_depth_noise_magnitude(self):
        spec = flat_world(noise=NoiseSpec(depth_abc=(0.01, 0.0, 0.0)), seed=5)
        clean = render_frame(flat_world(), 0)
        noisy = render_frame(spec, 0)
        resid = noisy.depth - clean.depth
        assert 0.005 < resid.std() < 0.02
        assert abs(resid.mean()) < 0.005

    def test_seed_determinism(self):
        spec = flat_world(noise=NoiseSpec(depth_abc=(0.01, 0.0, 0.0), confusion=confusion_matrix(10, 0.8)), seed=7)
        f1 = render_frame(spec, 2)
        f2 = render_frame(spec, 2)
        assert np.array_equal(f1.depth, f2.depth)
        assert np.array_equal(f1.scores, f2.scores)
        other = render_frame(spec.with_seed(8), 2)
        assert not np.array_equal(f1.scores, other.scores)

    def test_reprojection_lands_on_surface(self):
        spec = flat_world(z=0.15)
        frame = render_frame(spec, 0)
        intr = spec.intrinsics
        uu, vv = np.meshgrid(np.arange(intr.width), np.arange(intr.height))
        d = frame.depth.ravel()
        pts_sensor = np.column_stack(
            [
                (uu.ravel() - intr.cx) * d / intr.fx,
                (vv.ravel() - intr.cy) * d / intr.fy,
                d,
            ]
        )
        pts_map = transform_to_map(pts_sensor, frame.pose)
        surface = spec.heightfield.height(pts_map[:, 0], pts_map[:, 1])
        assert np.abs(pts_map[:, 2] - surface).max() < 1e-6

    def test_ramp_reprojection(self):
        lib = scenario_library()
        spec = lib["ramp"].with_seed(0)
        frame = render_frame(spec, 5)
        intr = spec.intrinsics
        uu, vv = np.meshgrid(np.arange(intr.width), np.arange(intr.height))
        d = frame.depth.ravel()
        good = np.isfinite(d)
        pts_sensor = np.column_stack(
            [
                (uu.ravel()[good] - intr.cx) * d[good] / intr.fx,
                (vv.ravel()[good] - intr.cy) * d[good] / intr.fy,
                d[good],
            ]
        )
        pts_map = transform_to_map(pts_sensor, frame.pose)
        surface = spec.heightfield.height(pts_map[:, 0], pts_map[:, 1])
        assert np.abs(pts_map[:, 2] - surface).max() < 1e-6

    def test_camera_below_terrain_flagged_invalid(self):
        spec = flat_world(z=5.0)  # camera at 3.0 is under the surface
        frame = render_frame(spec, 0)
        assert not frame.valid
        assert np.all(np.isnan(frame.depth))
        assert np.allclose(frame.scores.sum(axis=2), 1.0)

    def test_pose_jitter_reported_with_covariance(self):
        cov = np.eye(3) * 1e-6
        spec = flat_world(noise=NoiseSpec(pose_rot_cov=cov), seed=3)
        frame = render_frame(spec, 0)
        assert np.allclose(frame.pose.rotation_cov, cov, atol=0)
        true_rot = spec.trajectory[0].rotation
        assert not np.array_equal(frame.pose.rotation, true_rot)
        # perturbation is small
        assert np.abs(frame.pose.rotation - true_rot).max() < 0.01


RAMP = {"z0": 0.5, "gx": -0.3, "gy": -0.2, "x0": 1.0, "y0": -1.0}
CAST_TERRAINS = {
    "flat": Heightfield(base=0.3),
    "regionless-ramp": Heightfield(
        patches=(HeightPatch("ramp", {"z0": 0.1, "gx": 0.2, "gy": -0.1, "x0": 0.0, "y0": 0.0}),),
    ),
    "negative-ramp": Heightfield(patches=(HeightPatch("ramp", RAMP, (-2.0, 3.0, -3.0, 2.0)),)),
    "raised-step": Heightfield(patches=(HeightPatch("flat", {"z": 1.2}, (-0.5, 0.5, -0.5, 0.5)),)),
    "negative-sinusoid": Heightfield(
        base=0.1,
        patches=(HeightPatch("sinusoid", {"z0": 0.2, "amp": -0.3, "fx": 0.7, "fy": 0.4, "phase": 1.1}),),
    ),
    "empty-region": Heightfield(patches=(HeightPatch("flat", {"z": 2.5}, (1.0, -1.0, -1.0, 1.0)),)),
}


def pitched_pose(degrees, center):
    """A camera pitched ``degrees`` off straight down; past 90 some rays point up."""
    p = math.radians(degrees)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, math.cos(p), -math.sin(p)], [0.0, math.sin(p), math.cos(p)]])
    return pose_from_camera(np.asarray(center, dtype=float), rx @ DOWN)


def both_casts(heightfield, pose, intr, d_max, steps):
    origin = camera_center(pose)
    dirs = _pixel_rays(intr) @ pose.rotation
    fast = _raycast(heightfield, origin, dirs, d_max, steps)
    return fast, sequential_raycast(heightfield, origin, dirs, d_max, steps)


class TestRaycast:
    INTR = CameraIntrinsics(fx=20.0, fy=20.0, cx=19.5, cy=14.5, width=40, height=30)
    # down, oblique, past horizontal; the 0.6 m camera is below the raised step
    POSES = [pitched_pose(0, (0.1, -0.3, 4.0)), pitched_pose(60, (0.1, -0.3, 2.0)), pitched_pose(120, (1.5, 0.4, 0.6))]

    @pytest.mark.parametrize("steps", [7, 32, 128])
    @pytest.mark.parametrize("terrain", CAST_TERRAINS)
    def test_matches_sequential_cast(self, terrain, steps):
        hits = 0
        for pose in self.POSES:
            fast, oracle = both_casts(CAST_TERRAINS[terrain], pose, self.INTR, 10.0, steps)
            assert np.array_equal(fast, oracle, equal_nan=True)
            hits += np.isfinite(fast).sum()
        assert hits > 0

    def test_some_rays_point_up_and_the_step_is_above_the_camera(self):
        pose = self.POSES[2]
        dirs = _pixel_rays(self.INTR) @ pose.rotation
        assert (dirs[:, 2] > 0).any() and (dirs[:, 2] < 0).any()
        assert camera_center(pose)[2] < CAST_TERRAINS["raised-step"].max_height()

    @pytest.mark.parametrize("terrain", CAST_TERRAINS)
    def test_max_height_bounds_every_sample(self, terrain):
        hf = CAST_TERRAINS[terrain]
        xs, ys = [np.linspace(-6.0, 6.0, 241)], [np.linspace(-6.0, 6.0, 241)]
        for patch in hf.patches:
            if patch.region is not None:
                xs.append(patch.region[:2])
                ys.append(patch.region[2:])
        x, y = np.meshgrid(np.concatenate(xs), np.concatenate(ys))
        assert np.all(hf.height(x, y) <= hf.max_height())

    def test_max_height_of_a_bounded_ramp_is_a_corner_value(self):
        hf = CAST_TERRAINS["negative-ramp"]
        assert hf.max_height() == hf.height(-2.0, -3.0)
        assert CAST_TERRAINS["regionless-ramp"].max_height() == np.inf

    @pytest.mark.parametrize(
        "hf",
        [
            Heightfield(base=float("nan")),
            # NaN only around the cameras, where each ray's first grid point lies
            Heightfield(patches=(HeightPatch("sinusoid", {"z0": 0.2, "amp": 0.3, "fx": float("nan"), "fy": 0.4},
                                             (-1.0, 2.0, -1.0, 1.0)),)),
            Heightfield(patches=(HeightPatch("flat", {"z": float("nan")}, (-1.0, 1.0, -1.0, 1.0)),)),
            Heightfield(patches=(HeightPatch("ramp", {**RAMP, "gx": float("nan")}, (-2.0, 3.0, -3.0, 2.0)),)),
        ],
        ids=["base", "sinusoid-fx", "flat-z", "ramp-gx"],
    )
    def test_nan_parameter_casts_like_the_sequential_cast(self, hf):
        for pose in self.POSES:
            fast, oracle = both_casts(hf, pose, self.INTR, 10.0, 32)
            assert np.array_equal(fast, oracle, equal_nan=True)

    def test_memory_does_not_grow_with_march_steps(self):
        # 424x240 rays: one (rays, steps) float64 array would be 26 MB at 32 steps, 417 MB at 512
        intr = CameraIntrinsics(fx=390.0, fy=220.0, cx=211.5, cy=119.5, width=424, height=240)
        pose = pitched_pose(12, (0.0, -0.3, 1.45))
        hf = Heightfield(base=0.15, patches=(HeightPatch("ramp", {**RAMP, "z0": 0.15}, (-0.2, 1.0, -1.0, 1.0)),))
        dirs = _pixel_rays(intr) @ pose.rotation
        peak = {}
        for steps in (32, 512):
            tracemalloc.start()
            try:
                depth = _raycast(hf, camera_center(pose), dirs, 4.0, steps)
                peak[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.isfinite(depth).mean() > 0.99
        assert peak[512] < 1.1 * peak[32]


class TestScenarioLibrary:
    def test_expected_names(self):
        lib = scenario_library()
        base = {"flat-single-class", "two-class-split", "ramp", "imbalanced"}
        assert base <= set(lib)
        assert {name + "-noisy" for name in base} <= set(lib)

    def test_two_class_split_layout(self):
        lib = scenario_library()
        spec = lib["two-class-split"]
        catalog, models = load_default_models()
        cmap = spec.class_map
        assert cmap.classify(-1.0, 0.0) == catalog.index("ice")
        assert cmap.classify(1.0, 0.0) == catalog.index("concrete")
        ice = models[catalog.index("ice")]
        concrete = models[catalog.index("concrete")]
        assert (ice.mu, concrete.mu) == (0.192, 0.543)

    def test_imbalanced_high_friction_share(self):
        lib = scenario_library()
        spec = lib["imbalanced"]
        catalog, models = load_default_models()
        mus = np.array([m.mu for m in models])
        bounds = 6.0 * 6.0  # observed area [-3, 3]^2
        low_area = sum(
            polygon_area(r.polygon)
            for r in spec.class_map.regions
            if mus[r.class_index] <= 0.5
        )
        assert mus[spec.class_map.default_class] > 0.5
        assert 1.0 - low_area / bounds >= 0.70

    def test_flat_zero_noise_recovers_truth_one_frame(self):
        lib = scenario_library()
        spec = lib["flat-single-class"].with_seed(1)
        frames, truth = render_frames(spec, limit=1)
        mesh = tm.init_mesh(tm.MeshConfig(0.2, 2.0, 10))
        Mapper(mesh, PipelineConfig()).process(frames[0])
        vx, vy = mesh.vertex_positions()
        touched = mesh.touched
        assert touched.any()
        expected = truth.true_height_at(vx[touched], vy[touched])
        assert np.abs(mesh.z_mean[touched] - expected).max() < 1e-6
        observed = mesh.alpha.sum(axis=1) > 0
        grass = truth.class_names.index("grass")
        predictive = mesh.alpha[observed] / mesh.alpha[observed].sum(axis=1, keepdims=True)
        assert np.all(predictive[:, grass] == 1.0)

    def test_noisy_variant_parameters(self):
        lib = scenario_library()
        spec = lib["imbalanced-noisy"]
        assert spec.noise.score_mode == "hard"
        assert np.allclose(np.diag(spec.noise.confusion), 0.8)
        assert spec.noise.depth_abc == (0.001, 0.0, 0.0019)


class TestSerialization:
    def test_world_roundtrip(self):
        lib = scenario_library()
        for name in ("flat-single-class", "imbalanced-noisy", "ramp"):
            spec = lib[name].with_seed(21)
            doc = world_to_dict(spec)
            back = world_from_dict(doc)
            assert world_to_dict(back) == doc
            f1 = render_frame(spec, 0)
            f2 = render_frame(back, 0)
            assert np.array_equal(f1.depth, f2.depth)
            assert np.array_equal(f1.scores, f2.scores)

    @pytest.mark.parametrize(
        "gx, region, accepted",
        [(1e307, None, False), (1e307, [0.0, 10.0, 0.0, 1.0], True), (4e306, None, True)],
        ids=["past-the-reach", "inside-its-region", "inside-the-reach"],
    )
    def test_patch_heights_must_be_finite_where_seen(self, gx, region, accepted):
        # the cameras of two-class-split stay within 2.2 m of the origin and
        # see 20 m, so a ramp without a region reaches |x| = 22.2 m
        doc = world_to_dict(scenario_library()["two-class-split"])
        assert doc["max_range_m"] == 20.0
        params = {"z0": 0.0, "gx": gx, "gy": 0.0, "x0": 0.0, "y0": 0.0}
        doc["heightfield"]["patches"] = [{"kind": "ramp", "params": params, "region": region}]
        if accepted:
            world_from_dict(doc)
        else:
            with pytest.raises(tm.TerrameshError, match=r"patches\[0\] params"):
                world_from_dict(doc)

    def test_trajectory_helper_shape(self):
        poses = sweep_trajectory([0.0, 1.0], (-1.0, 1.0), 5, 4.0)
        assert len(poses) == 10
        assert np.allclose(camera_center(poses[0]), [-1.0, 0.0, 4.0], atol=0)
        # second row runs in reverse
        assert np.allclose(camera_center(poses[5]), [1.0, 1.0, 4.0], atol=0)
