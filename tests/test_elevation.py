import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terramesh.elevation import (
    SensorNoiseModel,
    depth_sigma,
    height_variance,
    kalman_update,
    point_height_variances,
    sigma_bounds,
    update_elevation,
)
from terramesh.errors import ConfigurationError, InconsistentCertaintyError, InputError
from terramesh.geometry import Pose
from terramesh.mesh import FramePoints, MeshConfig, assign_face_ids, init_mesh
from terramesh.sim import NoiseSpec

from oracles import (
    batch_gaussian_fusion,
    einsum_height_variances,
    mc_height_variance,
    random_rotation,
    sample_psd,
    sequential_vertex_fusion,
)


def yaw(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestNoiseModel:
    def test_quadratic_form(self):
        m = SensorNoiseModel(a=0.001, b=0.0, c=0.0019)
        assert np.isclose(m.sigma(2.0), 0.001 + 0.0019 * 4.0)
        assert np.isclose(m.variance(2.0), m.sigma(2.0) ** 2)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ConfigurationError):
            SensorNoiseModel(a=0.0, b=0.0, c=0.0)
        with pytest.raises(ConfigurationError):
            SensorNoiseModel(a=0.001, b=-0.1, c=0.0)

    @pytest.mark.parametrize(
        "field",
        [
            {"a": np.nan}, {"b": np.nan}, {"c": np.nan}, {"c": np.inf}, {"max_range_m": np.nan},
            {"c": 1e200}, {"a": 1e-160}, {"b": -1e308, "c": 1e308},
        ],
        ids=[
            "nan-a", "nan-b", "nan-c", "inf-c", "nan-range",
            "overflowing-variance", "infinite-precision", "nan-sigma-at-range",
        ],
    )
    def test_rejects_non_finite_coefficients(self, field):
        with pytest.raises(ConfigurationError, match="finite"):
            SensorNoiseModel(**field)

    @pytest.mark.parametrize("abc", [(0.002, 0.0005, 0.0019), (0.02, -0.002, 0.0001)], ids=["rising", "dipping"])
    def test_one_depth_noise_formula(self, abc):
        # the sensor model, the simulator and the range bounds share it bit for bit
        depth = np.linspace(0.0, 30.0, 301)
        ref = depth_sigma(abc, depth)
        assert np.array_equal(SensorNoiseModel(*abc).sigma(depth), ref)
        assert np.array_equal(NoiseSpec(depth_abc=abc).depth_sigma(depth), ref)
        a, b, c = abc
        ends = [0.0, 30.0] + ([-b / (2.0 * c)] if b < 0 else [])
        expected = [float(depth_sigma(abc, z)) for z in ends]
        assert sigma_bounds(a, b, c, 30.0) == (min(expected), max(expected))


class TestHeightVariance:
    def test_identity_rotation_picks_depth_entry(self):
        sigma_s = np.diag([0.0, 0.0, 0.04])
        z, var = height_variance([1.0, 2.0, 3.0], Pose.identity(), sigma_s, np.zeros((3, 3)))
        assert z == pytest.approx(3.0)
        assert var == pytest.approx(0.04)

    def test_zero_covariances_zero_variance(self, rng):
        pose = Pose(random_rotation(rng), rng.standard_normal(3))
        z, var = height_variance(rng.standard_normal(3), pose, np.zeros((3, 3)), np.zeros((3, 3)))
        assert var == 0.0

    def test_matches_monte_carlo(self, rng):
        for _ in range(3):
            rot = random_rotation(rng)
            pose = Pose(rot, np.zeros(3))
            p = rng.uniform(-2, 2, size=3) + np.array([0, 0, 3.0])
            sigma_s = sample_psd(rng, 2e-3)
            sigma_p = sample_psd(rng, 1e-3)
            _, var = height_variance(p, pose, sigma_s, sigma_p)
            mc = mc_height_variance(p, rot, sigma_s, sigma_p, n=200_000, rng=rng)
            assert var == pytest.approx(mc, rel=0.08)

    def test_invariant_under_map_z_rotation(self, rng):
        # horizontal-isotropic sensor noise and isotropic pose noise
        sigma_s = np.diag([1e-4, 1e-4, 9e-4])
        sigma_p = np.eye(3) * 4e-6
        rot = random_rotation(rng)
        p = rng.standard_normal(3)
        _, var0 = height_variance(p, Pose(rot, np.zeros(3)), sigma_s, sigma_p)
        for angle in (0.3, 1.2, 2.9):
            rotated = Pose(rot @ yaw(angle), np.zeros(3))
            _, var1 = height_variance(p, rotated, sigma_s, sigma_p)
            assert var1 == pytest.approx(var0, rel=1e-9)

    def test_rejects_non_psd(self):
        with pytest.raises(InputError):
            height_variance([0, 0, 1], Pose.identity(), np.diag([1, 1, -1.0]), np.zeros((3, 3)))

    def test_vectorized_matches_scalar(self, rng):
        rot = random_rotation(rng)
        sigma_p = sample_psd(rng, 1e-3)
        pose = Pose(rot, rng.standard_normal(3), rotation_cov=sigma_p)
        model = SensorNoiseModel()
        pts = rng.uniform(0.5, 4.0, size=(50, 3))
        depth_var = model.variance(pts[:, 2])
        vec = point_height_variances(pts, depth_var, pose, sigma_p)
        for i in range(50):
            sigma_s = np.diag([0.0, 0.0, float(model.variance(pts[i, 2]))])
            _, expected = height_variance(pts[i], pose, sigma_s, sigma_p)
            assert vec[i] == pytest.approx(expected, rel=1e-12, abs=1e-18)

    @pytest.mark.parametrize("scale", [0.0, 1e-4, 1e-2, 0.5])
    def test_vectorized_matches_cross_einsum_form(self, rng, scale):
        # anisotropic SPD covariances, and a zero one that skips the pose term
        model = SensorNoiseModel()
        for _ in range(20):
            pose = Pose(random_rotation(rng), rng.standard_normal(3))
            sigma_p = sample_psd(rng, scale) if scale else np.zeros((3, 3))
            pts = rng.uniform(-3.0, 3.0, size=(int(rng.integers(1, 800)), 3))
            depth_var = model.variance(pts[:, 2])
            assert np.array_equal(
                point_height_variances(pts, depth_var, pose, sigma_p),
                einsum_height_variances(pts, depth_var, pose, sigma_p),
            )


class TestKalmanUpdate:
    def test_equal_precision_average(self):
        mean, var = kalman_update(0.0, 1.0, 1.0, 1.0)
        assert mean == pytest.approx(0.5)
        assert var == pytest.approx(0.5)

    def test_zero_prior_variance_dominates(self):
        mean, var = kalman_update(0.3, 0.0, 9.9, 2.0)
        assert mean == 0.3 and var == 0.0

    def test_zero_observation_variance_dominates(self):
        mean, var = kalman_update(0.3, 2.0, 9.9, 0.0)
        assert mean == 9.9 and var == 0.0

    def test_both_zero_equal_means_ok(self):
        assert kalman_update(1.5, 0.0, 1.5, 0.0) == (1.5, 0.0)

    def test_both_zero_disagreeing_raises(self):
        with pytest.raises(InconsistentCertaintyError):
            kalman_update(1.0, 0.0, 2.0, 0.0)

    @pytest.mark.parametrize(
        "prior",
        [(0.5, 5e-324), (5.0, 2.2250738585072014e-308)],
        ids=["infinite-precision", "overflowing-weighted-mean"],
    )
    def test_prior_with_non_finite_precision_terms_is_exact(self, prior):
        assert kalman_update(*prior, -5.0, 1e-9) == prior

    def test_observation_with_non_finite_precision_terms_is_exact(self):
        assert kalman_update(0.3, 2.0, 9.9, 5e-324) == (9.9, 0.0)

    def test_negative_variance_rejected(self):
        with pytest.raises(InputError):
            kalman_update(0.0, -1.0, 0.0, 1.0)

    def test_sequence_matches_batch_fusion(self, rng):
        prior = (0.7, 2.0)
        obs = rng.normal(0.5, 0.1, size=100)
        obs_vars = rng.uniform(0.01, 2.0, size=100)
        mean, var = prior
        for z, s in zip(obs, obs_vars):
            mean, var = kalman_update(mean, var, z, s)
        exp_mean, exp_var = batch_gaussian_fusion(obs, obs_vars, *prior)
        assert mean == pytest.approx(exp_mean, abs=1e-9)
        assert var == pytest.approx(exp_var, abs=1e-9)

    def test_order_independent(self, rng):
        obs = rng.normal(0.0, 1.0, size=60)
        obs_vars = rng.uniform(0.05, 5.0, size=60)
        results = []
        for order in (np.arange(60), rng.permutation(60)):
            mean, var = 0.0, 10.0
            for i in order:
                mean, var = kalman_update(mean, var, obs[i], obs_vars[i])
            results.append((mean, var))
        assert results[0][0] == pytest.approx(results[1][0], abs=1e-9)
        assert results[0][1] == pytest.approx(results[1][1], abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    z_var=st.floats(0.0, 10.0),
    obs_var=st.floats(1e-9, 10.0),
    z_mean=st.floats(-5.0, 5.0),
    z_obs=st.floats(-5.0, 5.0),
)
def test_kalman_properties(z_var, obs_var, z_mean, z_obs):
    mean, var = kalman_update(z_mean, z_var, z_obs, obs_var)
    assert var <= min(z_var, obs_var) + 1e-15
    lo, hi = min(z_mean, z_obs), max(z_mean, z_obs)
    assert lo - 1e-12 <= mean <= hi + 1e-12


class ExactSensor:
    """Noise model of a perfect range sensor: every depth has zero variance."""

    def variance(self, depth):
        return np.zeros_like(depth, dtype=float)


def make_frame_points(mesh, pos_map, scores=None):
    k = mesh.cfg.num_classes
    if scores is None:
        scores = np.full((pos_map.shape[0], k), 1.0 / k)
    fids = assign_face_ids(mesh, pos_map[:, :2])
    return FramePoints.from_assignment(mesh, pos_map, pos_map.copy(), scores, fids, np.arange(fids.size))


class TestUpdateElevation:
    def test_no_points_no_change(self):
        mesh = init_mesh(MeshConfig(0.5, 1.0, 2))
        before = mesh.z_mean.copy(), mesh.z_var.copy()
        points = make_frame_points(mesh, np.empty((0, 3)))
        assert points.inverse.size == 0
        # the general path, with and without the pose term, writes nothing
        for sigma_pose in (None, np.eye(3) * 1e-4):
            update_elevation(mesh, points, Pose.identity(), SensorNoiseModel(), sigma_pose)
            assert np.array_equal(mesh.z_mean, before[0]) and np.array_equal(mesh.z_var, before[1])
            assert not mesh.touched.any()

    def test_first_touch_adopts_observation(self):
        mesh = init_mesh(MeshConfig(1.0, 1.0, 2))
        pos = np.array([[0.5, 0.25, 0.8]])
        points = make_frame_points(mesh, pos)
        update_elevation(mesh, points, Pose.identity(), SensorNoiseModel(a=0.05, b=0.0, c=0.0))
        touched = np.nonzero(mesh.touched)[0]
        assert touched.size == 3  # the owning face's three vertices
        assert np.allclose(mesh.z_mean[touched], 0.8, atol=0)
        assert np.allclose(mesh.z_var[touched], 0.05**2, atol=1e-15)

    def test_repeated_identical_points_converge(self):
        mesh = init_mesh(MeshConfig(1.0, 1.0, 2))
        model = SensorNoiseModel(a=0.05, b=0.0, c=0.0)
        for _ in range(10):
            pos = np.tile([[0.5, 0.25, 0.8]], (5, 1))
            points = make_frame_points(mesh, pos)
            update_elevation(mesh, points, Pose.identity(), model)
        touched = np.nonzero(mesh.touched)[0]
        assert np.allclose(mesh.z_mean[touched], 0.8, atol=1e-12)
        assert np.all(mesh.z_var[touched] < 1e-4)

    def test_noisy_points_match_batch_posterior(self, rng):
        # 100 observations of a 0.3 m surface with 5 cm noise over 10 frames
        mesh = init_mesh(MeshConfig(1.0, 1.0, 2))
        model = SensorNoiseModel(a=0.05, b=0.0, c=0.0)
        heights = rng.normal(0.3, 0.05, size=100)
        for chunk in heights.reshape(10, 10):
            pos = np.column_stack(
                [np.full(10, 0.5), np.full(10, 0.25), chunk]
            )
            points = make_frame_points(mesh, pos)
            update_elevation(mesh, points, Pose.identity(), model)
        exp_mean, exp_var = batch_gaussian_fusion(heights, np.full(100, 0.05**2))
        touched = np.nonzero(mesh.touched)[0]
        for v in touched:
            assert mesh.z_mean[v] == pytest.approx(exp_mean, abs=1e-9)
            assert mesh.z_var[v] == pytest.approx(exp_var, abs=1e-12)
        assert abs(mesh.z_mean[touched[0]] - 0.3) < 0.02
        assert mesh.z_var[touched[0]] < 2.5e-4

    def test_point_order_independent(self, rng):
        cfg = MeshConfig(0.5, 1.0, 2)
        model = SensorNoiseModel()
        pos = np.column_stack(
            [rng.uniform(-1, 1, 300), rng.uniform(-1, 1, 300), rng.normal(0.2, 0.1, 300)]
        )
        results = []
        for order in (np.arange(300), rng.permutation(300)):
            mesh = init_mesh(cfg)
            points = make_frame_points(mesh, pos[order])
            update_elevation(mesh, points, Pose.identity(), model)
            results.append((mesh.z_mean.copy(), mesh.z_var.copy()))
        assert np.allclose(results[0][0], results[1][0], atol=1e-9)
        assert np.allclose(results[0][1], results[1][1], atol=1e-9)

    def test_vertex_sees_all_incident_faces(self, rng):
        # a point updates exactly the three vertices of its face, so a vertex
        # accumulates points from every face incident to it
        mesh = init_mesh(MeshConfig(0.5, 1.0, 2))
        vid = 2 * mesh.cfg.vertices_per_side + 2
        faces = np.flatnonzero((mesh.face_vertex_ids == vid).any(axis=1))
        assert faces.size == 6
        cents = mesh.face_centroids()[faces]
        pos = np.column_stack([cents, np.full(6, 0.4)])
        points = make_frame_points(mesh, pos)
        update_elevation(mesh, points, Pose.identity(), SensorNoiseModel(a=0.1, b=0.0, c=0.0))
        # six identical observations fused: variance shrinks by 6
        assert mesh.z_var[vid] == pytest.approx(0.1**2 / 6, rel=1e-9)
        assert mesh.z_mean[vid] == pytest.approx(0.4)

    def test_matches_sequential_oracle(self, rng):
        # four frames over shifting windows: later frames meet vertices that
        # already carry a prior as well as fresh ones
        mesh = init_mesh(MeshConfig(0.25, 1.0, 2))
        model = SensorNoiseModel()
        z_mean, z_var, touched = mesh.z_mean.copy(), mesh.z_var.copy(), mesh.touched.copy()
        for lo in (-1.0, -0.8, -0.6, -1.0):
            n = 400
            pos = np.column_stack(
                [rng.uniform(lo, lo + 1.2, n), rng.uniform(-1, 1, n), rng.normal(0.0, 0.2, n)]
            )
            pos_sensor = np.column_stack(
                [rng.uniform(-1, 1, n), rng.uniform(-1, 1, n), rng.uniform(0.5, 4.0, n)]
            )
            pose = Pose(random_rotation(rng), rng.standard_normal(3), sample_psd(rng, 1e-3))
            fids = assign_face_ids(mesh, pos[:, :2])
            pts = FramePoints.from_assignment(mesh, pos, pos_sensor, np.full((n, 2), 0.5), fids, np.arange(n))
            var = point_height_variances(
                pts.pos_sensor, model.variance(pts.pos_sensor[:, 2]), pose, pose.rotation_cov
            )
            bad = sequential_vertex_fusion(
                pts.faces[pts.inverse], mesh.face_vertex_ids, pts.z, var, z_mean, z_var, touched
            )
            assert bad == -1
            update_elevation(mesh, pts, pose, model)
            assert np.array_equal(mesh.touched, touched)
            np.testing.assert_allclose(mesh.z_mean, z_mean, rtol=0, atol=1e-12)
            np.testing.assert_allclose(mesh.z_var, z_var, rtol=1e-12, atol=0)
        assert 0 < touched.sum() < touched.size

    def test_exact_observation_overrides_noisy_prior(self):
        mesh = init_mesh(MeshConfig(1.0, 1.0, 2))
        pos = np.array([[0.5, 0.25, 0.2]])
        points = make_frame_points(mesh, pos)
        update_elevation(mesh, points, Pose.identity(), SensorNoiseModel(a=0.05, b=0.0, c=0.0))
        verts = np.nonzero(mesh.touched)[0]
        for z in (0.5, 0.9):  # the exact frame, then a noisy one
            model = ExactSensor() if z == 0.5 else SensorNoiseModel(a=0.05, b=0.0, c=0.0)
            points = make_frame_points(mesh, np.array([[0.5, 0.25, z]]))
            update_elevation(mesh, points, Pose.identity(), model)
            assert np.all(mesh.z_mean[verts] == 0.5)
            assert np.all(mesh.z_var[verts] == 0.0)
        assert mesh.touched.sum() == verts.size

    def test_overflowing_information_leaves_mesh_unchanged(self):
        mesh = init_mesh(MeshConfig(1.0, 1.0, 2))
        points = make_frame_points(mesh, np.tile([[0.5, 0.25, 0.1]], (3, 1)))
        before = (mesh.z_mean.tobytes(), mesh.z_var.tobytes(), mesh.touched.tobytes())
        # each point's precision, 1e308, is finite; their sum is not
        with pytest.raises(InputError, match="overflows"):
            update_elevation(mesh, points, Pose.identity(), SensorNoiseModel(a=1e-154, b=0.0, c=0.0))
        assert (mesh.z_mean.tobytes(), mesh.z_var.tobytes(), mesh.touched.tobytes()) == before

    def test_disagreeing_exact_observations_leave_mesh_unchanged(self, rng):
        mesh = init_mesh(MeshConfig(0.5, 1.0, 2))
        pos = np.column_stack(
            [rng.uniform(-1, 1, 200), rng.uniform(-1, 1, 200), rng.normal(0.2, 0.1, 200)]
        )
        points = make_frame_points(mesh, pos)
        update_elevation(mesh, points, Pose.identity(), SensorNoiseModel())
        # faces 0 and 1 split one cell and share an edge
        shared = np.intersect1d(mesh.face_vertex_ids[0], mesh.face_vertex_ids[1])
        assert shared.size == 2
        cents = mesh.face_centroids()[[0, 1]]
        points = make_frame_points(mesh, np.column_stack([cents, [0.1, 0.2]]))
        before = (mesh.z_mean.tobytes(), mesh.z_var.tobytes(), mesh.touched.tobytes())
        with pytest.raises(InconsistentCertaintyError):
            update_elevation(mesh, points, Pose.identity(), ExactSensor())
        assert (mesh.z_mean.tobytes(), mesh.z_var.tobytes(), mesh.touched.tobytes()) == before
