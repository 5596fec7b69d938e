import copy
import tracemalloc

import numpy as np
import pytest
from oracles import copy_recenter, dense_weights, sample_psd, unique_frame_update

import terramesh.pipeline as pipeline
from terramesh.elevation import SensorNoiseModel, kalman_update, point_height_variances, update_elevation
from terramesh.errors import ConfigurationError, FormatError, InputError
from terramesh.formats import load_estimates, save_estimates
from terramesh.geometry import CameraIntrinsics, Pose, pose_from_camera
from terramesh.mesh import MeshConfig, init_mesh, recenter
from terramesh.pipeline import (
    EstimatorKind,
    FaceEstimates,
    FaceScores,
    FrameBundle,
    Mapper,
    PipelineConfig,
    estimate_properties,
)
from terramesh.properties import PropertyMixture, PropertyModel, load_default_models
from terramesh.semantics import class_predictive, dirichlet_update

DOWN = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])

# two class scores and whether they make a probability vector; SCORE_TOL is 1e-4
SCORE_CELLS = [
    pytest.param([np.nan, 1.0], False, id="nan"),
    pytest.param([np.inf, 0.0], False, id="inf"),
    pytest.param([-np.inf, 1.0], False, id="minus-inf"),
    pytest.param([-0.05, 1.05], False, id="negative"),
    pytest.param([-0.0, 1.0], True, id="minus-zero"),
    pytest.param([0.5, 0.5 + 0.9e-4], True, id="sum-up-in"),
    pytest.param([0.5, 0.5 - 0.9e-4], True, id="sum-down-in"),
    pytest.param([0.5, 0.5 + 1.1e-4], False, id="sum-up-out"),
    pytest.param([0.5, 0.5 - 1.1e-4], False, id="sum-down-out"),
]


def overhead_frame(heights, class_index, k=10, frame_id=0, noise=None, rng=None):
    """Small frame looking straight down at a flat patch of one class.

    ``heights`` is an (h, w) array of surface heights under each pixel.
    """
    h, w = heights.shape
    intr = CameraIntrinsics(fx=20.0, fy=20.0, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h)
    altitude = 2.0
    pose = pose_from_camera([0.0, 0.0, altitude], DOWN)
    depth = altitude - np.asarray(heights, dtype=float)
    if rng is not None and noise:
        depth = depth + rng.normal(0.0, noise, size=depth.shape)
    scores = np.zeros((h, w, k))
    scores[..., class_index] = 1.0
    return FrameBundle(depth=depth, scores=scores, pose=pose, intrinsics=intr, frame_id=frame_id)


def scored_frame(score_rows, frame_id=0):
    """1 x n frame with explicit per-pixel score vectors over a flat floor."""
    rows = np.asarray(score_rows, dtype=float)
    n, k = rows.shape
    intr = CameraIntrinsics(fx=20.0, fy=20.0, cx=(n - 1) / 2, cy=0.0, width=n, height=1)
    pose = pose_from_camera([0.0, 0.0, 2.0], DOWN)
    depth = np.full((1, n), 2.0)
    return FrameBundle(depth=depth, scores=rows.reshape(1, n, k), pose=pose, intrinsics=intr, frame_id=frame_id)


def frame_over(xy, rng, k, size=12, fx=6.0, frame_id=0, rows=None, rotation_cov=None):
    """Downward frame centred above ``xy``: random heights and scores.

    ``size`` columns by ``rows`` rows (square by default); the pose
    rotation covariance defaults to ``1e-6 * I``.
    """
    rows = size if rows is None else rows
    if rotation_cov is None:
        rotation_cov = np.eye(3) * 1e-6
    intr = CameraIntrinsics(fx=fx, fy=fx, cx=(size - 1) / 2, cy=(rows - 1) / 2, width=size, height=rows)
    pose = pose_from_camera([xy[0], xy[1], 2.0], DOWN, rotation_cov=rotation_cov)
    depth = 2.0 - rng.uniform(0.0, 0.2, size=(rows, size))
    scores = rng.dirichlet(np.ones(k), size=(rows, size))
    return FrameBundle(depth=depth, scores=scores, pose=pose, intrinsics=intr, frame_id=frame_id)


def mesh_10():
    return init_mesh(MeshConfig(0.25, 1.0, 10))


class TestFrameValidation:
    def test_dimension_mismatch(self):
        frame = overhead_frame(np.zeros((4, 6)), 0)
        frame.scores = frame.scores[:, :5]
        with pytest.raises(InputError):
            frame.validate()

    def test_unnormalized_scores(self):
        frame = overhead_frame(np.zeros((4, 6)), 0)
        frame.scores = frame.scores * 1.5
        with pytest.raises(InputError):
            frame.validate()

    def test_invalid_flag(self):
        frame = overhead_frame(np.zeros((4, 6)), 0)
        frame.valid = False
        with pytest.raises(InputError):
            frame.validate()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cell, valid", SCORE_CELLS)
    def test_score_rule_verdicts(self, cell, valid, dtype):
        # one pixel's first two class scores replaced; SCORE_TOL is 1e-4
        frame = overhead_frame(np.zeros((4, 6)), 0)
        frame.scores = frame.scores.astype(dtype)
        frame.scores[2, 3, :2] = cell
        if valid:
            frame.validate()
        else:
            with pytest.raises(InputError, match="not normalized"):
                frame.validate()

    @pytest.mark.parametrize("cell, valid", SCORE_CELLS)
    def test_four_readers_agree(self, cell, valid, tmp_path):
        # the cell as a pixel's scores, a Dirichlet measurement, a known
        # estimates row and a mixture's weights
        mesh = init_mesh(MeshConfig(0.5, 0.5, 2))
        path = tmp_path / "estimates.bin"
        save_estimates(path, FaceEstimates(np.array([0]), np.array([cell]), mesh.num_faces), mesh, "recursive", None)
        models = [PropertyModel("a", 0.2, 0.05), PropertyModel("b", 0.6, 0.05)]
        readers = [
            (lambda: scored_frame([cell]).validate(), InputError),
            (lambda: dirichlet_update(np.ones(2), [cell]), InputError),
            (lambda: load_estimates(path), FormatError),
            (lambda: PropertyMixture(cell, models), ConfigurationError),
        ]
        verdicts = []
        for read, error in readers:
            try:
                read()
                verdicts.append(True)
            except error:
                verdicts.append(False)
        assert verdicts == [valid] * 4

    def test_mapper_skips_and_counts_nan_scores(self):
        frame = overhead_frame(np.zeros((4, 6)), 0)
        frame.scores[0, 0, 0] = np.nan
        mapper = Mapper(mesh_10())
        assert not mapper.process(frame)
        assert mapper.frames_skipped == 1
        assert mapper.frames_processed == 0
        assert not mapper.mesh.touched.any()
        assert not np.isnan(mapper.mesh.alpha).any()

    def test_mapper_skips_and_counts(self):
        frame = overhead_frame(np.zeros((4, 6)), 0)
        frame.valid = False
        mapper = Mapper(mesh_10())
        assert not mapper.process(frame)
        assert mapper.frames_skipped == 1
        assert mapper.frames_processed == 0


class TestProcessFrame:
    def test_no_valid_depth_leaves_mesh_unchanged(self):
        frame = overhead_frame(np.zeros((4, 6)), 2)
        frame.depth = np.full((4, 6), np.nan)
        mapper = Mapper(mesh_10())
        assert mapper.process(frame)
        assert mapper.frames_processed == 1
        mesh = mapper.mesh
        assert not mesh.touched.any()
        assert np.all(mesh.alpha == 0.0)

    def test_depth_beyond_sensor_range_is_dropped(self):
        # one pixel at the principal point, straight down, 1e6 m away: the
        # height it implies lies on the window's centre vertex
        frame = overhead_frame(np.zeros((5, 5)), 2)
        frame.depth = np.full((5, 5), np.nan)
        frame.depth[2, 2] = 1e6
        mapper = Mapper(mesh_10(), PipelineConfig(noise_model=SensorNoiseModel(max_range_m=20.0)))
        assert mapper.process(frame)
        assert not mapper.mesh.touched.any()
        assert np.all(mapper.mesh.alpha == 0.0)

    def test_flat_plane_one_hot_grass(self):
        catalog, _ = load_default_models()
        grass = catalog.index("grass")
        frame = overhead_frame(np.full((20, 30), 0.1), grass)
        mesh = mesh_10()
        assert Mapper(mesh).process(frame)
        observed = mesh.alpha.sum(axis=1) > 0
        assert observed.any()
        weights = mesh.alpha[observed] / mesh.alpha[observed].sum(axis=1, keepdims=True)
        assert np.all(weights[:, grass] == 1.0)
        touched = mesh.touched
        assert np.allclose(mesh.z_mean[touched], 0.1, atol=1e-12)

    def test_bit_identical_reruns(self):
        frames = [
            overhead_frame(np.full((10, 12), 0.05 * i), i % 3, frame_id=i) for i in range(4)
        ]
        states = []
        for _ in range(2):
            mapper = Mapper(mesh_10()).run(frames)
            states.append(
                (mapper.mesh.z_mean.copy(), mapper.mesh.z_var.copy(), mapper.mesh.alpha.copy())
            )
        for a, b in zip(states[0], states[1]):
            assert np.array_equal(a, b)

    def test_alpha_accumulation_is_sum_of_frame_scores(self, rng):
        # soft mode: final evidence equals the sum of per-frame score sums
        mesh = mesh_10()
        mapper = Mapper(mesh)
        expected = np.zeros_like(mesh.alpha)
        for i in range(5):
            rows = rng.dirichlet(np.ones(10), size=9)
            frame = scored_frame(rows, frame_id=i)
            mapper.process(frame)
            last = mapper.last_scores
            expected[last.ids] += last.observed_sums
        assert np.allclose(mesh.alpha, expected, atol=1e-12)

    def test_hard_mode_counts(self):
        rows = np.zeros((6, 10))
        rows[:4, 3] = 1.0
        rows[4:, 7] = 1.0
        frame = scored_frame(rows)
        mesh = mesh_10()
        assert Mapper(mesh, PipelineConfig(update_mode="hard")).process(frame)
        assert mesh.alpha.sum() == 6.0
        assert mesh.alpha[:, 3].sum() == 4.0
        assert mesh.alpha[:, 7].sum() == 2.0

    def test_timing_parts_cover_total(self):
        frame = overhead_frame(np.zeros((40, 60)), 1)
        mapper = Mapper(mesh_10())
        for _ in range(3):
            mapper.process(frame)
        t = mapper.timings[-1]
        parts = t.project + t.assign + t.elevation + t.semantics
        assert parts <= t.total + 1e-9
        assert parts >= 0.8 * t.total

    def test_recenter_option_moves_window(self):
        frame = overhead_frame(np.zeros((6, 8)), 0)
        frame.pose = pose_from_camera([3.25, 0.0, 2.0], DOWN)
        mesh = mesh_10()
        assert Mapper(mesh, PipelineConfig(recenter=True)).process(frame)
        assert np.allclose(mesh.center, [3.25, 0.0], atol=1e-12)

    def test_pose_cov_override_inflates_variance(self):
        frame = overhead_frame(np.zeros((6, 8)), 0)
        plain = mesh_10()
        assert Mapper(plain).process(frame)
        inflated = mesh_10()
        cfg = PipelineConfig(pose_cov_override=np.full(3, 1e-4))
        assert Mapper(inflated, cfg).process(frame)
        touched = plain.touched
        assert np.array_equal(touched, inflated.touched)
        # straight-down pixels off the optical axis gain rotational variance
        assert np.all(inflated.z_var[touched] >= plain.z_var[touched])
        assert inflated.z_var[touched].max() > plain.z_var[touched].max()

    def test_pose_cov_override_shape_checked(self):
        from terramesh.errors import InputError

        with pytest.raises(InputError):
            PipelineConfig(pose_cov_override=np.ones(4))

    @pytest.mark.parametrize("cov", [[-1e-4, 1e-4, 1e-4], [0.0, 1e-4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    def test_pose_cov_override_must_be_psd(self, cov):
        from terramesh.errors import InputError

        with pytest.raises(InputError, match="positive semi-definite"):
            PipelineConfig(pose_cov_override=np.array(cov))


class TestEstimators:
    def setup_method(self):
        self.catalog, self.models = load_default_models()

    def run_frames(self, frames, accumulate=True):
        mapper = Mapper(mesh_10(), PipelineConfig(accumulate_alpha=accumulate))
        mapper.run(frames)
        return mapper

    def test_single_frame_all_estimators_agree(self):
        ice = self.catalog.index("ice")
        mapper = self.run_frames([overhead_frame(np.zeros((12, 16)), ice)])
        results = {}
        for kind in EstimatorKind:
            est = estimate_properties(mapper.mesh, kind, self.models, mapper.last_scores)
            results[kind] = est
        base = results[EstimatorKind.RECURSIVE]
        for kind, est in results.items():
            assert np.array_equal(est.known, base.known)
            assert np.allclose(est.known_weights, base.known_weights, atol=1e-12)
        assert np.all(base.known_weights[:, ice] == 1.0)

    def test_conflicting_frames(self):
        ice = self.catalog.index("ice")
        concrete = self.catalog.index("concrete")
        frames = [
            overhead_frame(np.zeros((12, 16)), ice, frame_id=0),
            overhead_frame(np.zeros((12, 16)), concrete, frame_id=1),
        ]
        mapper = self.run_frames(frames)
        rec = estimate_properties(mapper.mesh, EstimatorKind.RECURSIVE, self.models)
        multi = estimate_properties(
            mapper.mesh, EstimatorKind.MULTIMODAL_NONRECURSIVE, self.models, mapper.last_scores
        )
        uni = estimate_properties(
            mapper.mesh, EstimatorKind.UNIMODAL_NONRECURSIVE, self.models, mapper.last_scores
        )
        assert np.allclose(rec.known_weights[:, ice], 0.5, atol=1e-12)
        assert np.allclose(rec.known_weights[:, concrete], 0.5, atol=1e-12)
        # non-recursive estimators only see the concrete frame
        assert np.all(multi.known_weights[:, concrete] == 1.0)
        assert np.all(uni.known_weights[:, concrete] == 1.0)

    def test_baselines_never_read_alpha(self, rng):
        rows = rng.dirichlet(np.ones(10), size=9)
        mapper = self.run_frames([scored_frame(rows)])
        mesh = mapper.mesh
        for kind in (EstimatorKind.MULTIMODAL_NONRECURSIVE, EstimatorKind.UNIMODAL_NONRECURSIVE):
            before = estimate_properties(mesh, kind, self.models, mapper.last_scores)
            saved = mesh.alpha.copy()
            mesh.alpha = rng.uniform(0, 9, mesh.alpha.shape)
            after = estimate_properties(mesh, kind, self.models, mapper.last_scores)
            mesh.alpha = saved
            assert np.array_equal(before.known_weights, after.known_weights)
            assert np.array_equal(before.ids, after.ids)

    def test_accumulate_off_leaves_alpha_zero(self):
        mapper = self.run_frames([overhead_frame(np.zeros((8, 8)), 2)], accumulate=False)
        assert np.all(mapper.mesh.alpha == 0.0)
        assert mapper.last_scores.ids.size > 0

    def test_unimodal_collapses_to_argmax(self, rng):
        rows = np.tile(np.array([0.2, 0.5, 0.3] + [0.0] * 7), (5, 1))
        mapper = self.run_frames([scored_frame(rows)])
        uni = estimate_properties(
            mapper.mesh, EstimatorKind.UNIMODAL_NONRECURSIVE, self.models, mapper.last_scores
        )
        assert np.all(uni.known_weights[:, 1] == 1.0)
        assert np.all(uni.known_weights.sum(axis=1) == 1.0)

    def test_nonrecursive_requires_scores(self):
        mesh = mesh_10()
        with pytest.raises(InputError):
            estimate_properties(mesh, EstimatorKind.MULTIMODAL_NONRECURSIVE, self.models, None)

    def test_estimates_expose_mixtures(self):
        ice = self.catalog.index("ice")
        mapper = self.run_frames([overhead_frame(np.zeros((8, 10)), ice)])
        est = estimate_properties(mapper.mesh, EstimatorKind.RECURSIVE, self.models)
        fid_unknown = int(np.nonzero(~est.known)[0][0])
        mix = PropertyMixture(est.known_weights[0], self.models)
        assert mix.mean() == pytest.approx(0.192)
        assert not est.known[fid_unknown]

    def test_recursive_convergence_vs_unimodal_flicker(self, rng):
        # a noisy stream over one face: the accumulated estimate settles on
        # the true class while the per-frame argmax keeps jumping around
        cat = self.catalog
        rug = cat.index("rug")
        others = [i for i in range(10) if i != rug]
        mesh = mesh_10()
        mapper = Mapper(mesh)
        rec_argmax = []
        uni_argmax = []
        for i in range(60):
            labels = np.where(
                rng.random(3) < 0.45, rug, rng.choice(others, size=3)
            )
            rows = np.eye(10)[labels]
            mapper.process(scored_frame(rows, frame_id=i))
            rec = estimate_properties(mesh, EstimatorKind.RECURSIVE, self.models)
            uni = estimate_properties(
                mesh, EstimatorKind.UNIMODAL_NONRECURSIVE, self.models, mapper.last_scores
            )
            face = mapper.last_scores.ids[0]
            rec_argmax.append(int(np.argmax(dense_weights(rec)[face])))
            uni_argmax.append(int(np.argmax(dense_weights(uni)[face])))
        assert all(a == rug for a in rec_argmax[-10:])
        assert len(set(uni_argmax[-10:])) > 1


class TestLifecycle:
    def test_observed_mask_accumulates(self):
        mapper = Mapper(mesh_10())
        mapper.process(overhead_frame(np.zeros((6, 8)), 1))
        first = mapper.mesh.observed.sum()
        assert first > 0
        mapper.process(overhead_frame(np.zeros((6, 8)), 1, frame_id=1))
        assert mapper.mesh.observed.sum() == first


class TestRingWindow:
    """The ring-buffer window against the copying recenter it replaced."""

    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_random_walk_matches_copy_oracle(self, mode):
        rng = np.random.default_rng(7)
        cfg = MeshConfig(0.25, 1.5, 3)  # 12 cells, 13 vertices per side
        ring, ref = init_mesh(cfg), init_mesh(cfg)
        config = PipelineConfig(update_mode=mode)
        ring_mapper, ref_mapper = Mapper(ring, config), Mapper(ref, config)
        n = cfg.cells_per_side
        # shifts wider than the window, negative and zero shifts; within the
        # first nine steps the column offset passes twice the ring length
        steps = [(3, 0), (-2, 5), (7, 7), (7, -1), (7, 0), (7, 2), (7, 0), (0, -13),
                 (n, 0), (-n - 1, n + 2), (0, 0), (7, 0)]
        steps += [tuple(rng.integers(-15, 16, size=2)) for _ in range(12)]
        assert sum(dx for dx, _ in steps[:9]) >= 2 * (n + 1)
        frame_id = 0
        for dx, dy in steps:
            d = np.array([dx, dy], dtype=float)
            target = ring.center + (d + 0.5 * np.sign(d)) * cfg.side_length_m
            recenter(ring, target)
            copy_recenter(ref, target)
            self.assert_same(ring, ref)
            for _ in range(rng.integers(1, 3)):
                xy = ring.center + rng.uniform(-0.6, 0.6, size=2)
                frame = frame_over(xy, rng, cfg.num_classes, frame_id=frame_id)
                frame_id += 1
                assert ring_mapper.process(frame)
                assert ref_mapper.process(frame)
                self.assert_same(ring, ref)
        assert np.array_equal(ring.observed, ring.alpha.sum(axis=1) > 0)

    @staticmethod
    def assert_same(ring, ref):
        # compare a copy, so the mesh under test keeps its ring offset
        view = copy.deepcopy(ring)
        for name in ("z_mean", "z_var", "touched", "alpha", "center"):
            assert np.array_equal(getattr(view, name), getattr(ref, name)), name

    def test_recentering_frame_memory_scales_with_points(self):
        rng = np.random.default_rng(3)
        mapper = Mapper(init_mesh(MeshConfig(0.02, 5.0, 10)), PipelineConfig(recenter=True))
        assert mapper.process(frame_over((0.0, 0.0), rng, 10, size=10, fx=8.0))
        frame = frame_over((0.37, -0.21), rng, 10, size=10, fx=8.0, frame_id=1)
        tracemalloc.start()
        try:
            assert mapper.process(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.allclose(mapper.mesh.center, [0.36, -0.2])
        assert peak < 8e6

    def test_frame_memory_does_not_scale_with_map(self):
        # 251,001 vertices: one (V,) float64 array is 2 MB, so a frame that
        # sums over the whole map exceeds the bound with two of them
        rng = np.random.default_rng(5)
        mapper = Mapper(init_mesh(MeshConfig(0.02, 5.0, 6)), PipelineConfig(recenter=True))
        frames = [
            frame_over((0.3 * i, -0.2 * i), rng, 6, size=80, rows=60, fx=40.0, frame_id=i)
            for i in range(4)
        ]
        for frame in frames[:3]:  # warm-up
            assert mapper.process(frame)
        before = mapper.mesh.center.copy()
        tracemalloc.start()
        try:
            assert mapper.process(frames[3])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.abs(mapper.mesh.center - before) > 0.15)  # the frame recentred
        assert mapper.last_scores.observed_counts.sum() == 4800
        assert peak < 4e6


class TestGroupedFrameUpdate:
    """The one-gather, one-grouping frame update against the original one."""

    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_noisy_stream_matches_original_update(self, mode):
        rng = np.random.default_rng(13)
        cfg = MeshConfig(0.1, 1.0, 4)
        config = PipelineConfig(update_mode=mode, recenter=True)
        mapper, ref = Mapper(init_mesh(cfg), config), init_mesh(cfg)
        xy = np.zeros(2)
        for i in range(30):
            xy = xy + rng.uniform(-0.25, 0.25, size=2)
            cov = sample_psd(rng, 2e-3)  # anisotropic, off-diagonal terms included
            frame = frame_over(xy, rng, cfg.num_classes, size=16, fx=8.0, frame_id=i, rotation_cov=cov)
            assert mapper.process(frame)
            ids, sums, counts = unique_frame_update(ref, frame, config)
            last = mapper.last_scores
            for got, want in ((last.ids, ids), (last.observed_sums, sums), (last.observed_counts, counts)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            for name in ("z_mean", "z_var", "touched", "alpha", "observed"):
                assert getattr(mapper.mesh.ring, name).tobytes() == getattr(ref.ring, name).tobytes(), name
            assert mapper.mesh._start == ref._start
        assert mapper.mesh._start != (0, 0)


class TestScalarCallsMatchRun:
    """The scalar functions the acceptance oracles judge, on one frame's
    measurements, give the state the run itself computes."""

    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_one_frame(self, mode, monkeypatch):
        rng = np.random.default_rng(31)
        mesh = init_mesh(MeshConfig(0.25, 1.0, 10))
        passed = []

        def keep_points(mesh, points, *args):
            passed.append(points)
            return update_elevation(mesh, points, *args)

        # the frame's points, as the run hands them to both stages
        monkeypatch.setattr(pipeline, "update_elevation", keep_points)
        frame = frame_over([0.1, -0.2], rng, 10, size=16, fx=8.0, rotation_cov=sample_psd(rng, 2e-3))
        config = PipelineConfig(update_mode=mode)
        assert Mapper(mesh, config).process(frame)
        (pts,) = passed
        est = estimate_properties(mesh, EstimatorKind.RECURSIVE, load_default_models()[1])

        faces = np.unique(pts.face_ids)
        assert faces.size > 20
        for f in faces:
            alpha = dirichlet_update(np.zeros(10), pts.scores[:, pts.face_ids == f].T, mode)
            assert alpha.tobytes() == mesh.alpha[f].tobytes()
            assert class_predictive(mesh.alpha[f]).tobytes() == dense_weights(est)[f].tobytes()

        z = pts.pos_map[:, 2]
        var = point_height_variances(
            pts.pos_sensor, config.noise_model.variance(pts.pos_sensor[:, 2]), frame.pose
        )
        corners = mesh.face_vertex_ids[pts.face_ids]
        for v in np.flatnonzero(mesh.touched):
            (seen,) = np.nonzero((corners == v).any(axis=1))
            mean, v_var = z[seen[0]], var[seen[0]]
            for i in seen[1:]:
                mean, v_var = kalman_update(mean, v_var, z[i], var[i])
            assert mean == pytest.approx(mesh.z_mean[v], rel=0, abs=1e-12)
            assert v_var == pytest.approx(mesh.z_var[v], rel=1e-12, abs=0)


def indexed_estimate(kind, alpha, scores):
    """Each estimator's weights built by indexing the known rows of a zeroed array."""
    weights = np.zeros_like(alpha)
    if kind is EstimatorKind.RECURSIVE:
        totals = alpha.sum(axis=1)
        known = totals > 0
        weights[known] = alpha[known] / totals[known, None]
        return weights
    known = np.zeros(alpha.shape[0], dtype=bool)
    known[scores.ids] = True
    mean = np.zeros_like(alpha)
    mean[known] = scores.observed_sums / scores.observed_counts[:, None]
    if kind is EstimatorKind.MULTIMODAL_NONRECURSIVE:
        weights[known] = mean[known]
    else:
        weights[np.nonzero(known)[0], np.argmax(mean[known], axis=1)] = 1.0
    return weights


class TestEstimatorMemory:
    """The CLI's default 0.02 m / 5 m mesh: 500,000 faces, a 40 MB (F, K)
    evidence array.  No estimator allocates more than one (F, K) array and
    two (F,) arrays."""

    @pytest.fixture(scope="class")
    def mapped(self):
        _, models = load_default_models()
        mesh = init_mesh(MeshConfig(0.02, 5.0, 10))
        rng = np.random.default_rng(8)
        ids = np.sort(rng.choice(mesh.num_faces, 150_000, replace=False))
        mesh.alpha[ids] = rng.random((ids.size, 10))
        # one frame observes a few thousand faces
        seen = ids[::30]
        scores = FaceScores(seen, rng.random((seen.size, 10)), rng.integers(1, 9, seen.size), mesh.num_faces)
        return mesh, models, scores

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_one_face_by_class_array(self, mapped, kind):
        mesh, models, scores = mapped
        tracemalloc.start()
        try:
            est = estimate_properties(mesh, kind, models, scores)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        faces, k = mesh.alpha.shape
        assert peak <= faces * k * 8 + 2 * faces * 8
        assert np.array_equal(dense_weights(est), indexed_estimate(kind, mesh.alpha, scores))
