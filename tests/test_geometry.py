import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terramesh.elevation import height_variance
from terramesh.errors import DegenerateSimplexError, InputError
from terramesh.geometry import (
    CameraIntrinsics,
    Pose,
    barycentric,
    camera_center,
    pose_from_camera,
    project_frame_arrays,
    transform_to_map,
)
from terramesh.pipeline import PipelineConfig

from oracles import random_rotation


def yaw(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestTransform:
    def test_identity(self):
        p = transform_to_map(np.array([1.0, 2.0, 3.0]), Pose.identity())
        assert np.allclose(p, [1, 2, 3], atol=0)

    def test_pure_translation_sign(self):
        pose = Pose(np.eye(3), [0.0, 0.0, 1.0])
        assert np.allclose(transform_to_map(np.zeros(3), pose), [0, 0, -1], atol=0)

    def test_yaw_matches_dense_oracle(self, rng):
        rot = yaw(np.pi / 2)
        t = rng.standard_normal(3)
        pose = Pose(rot, t)
        for _ in range(20):
            p = rng.standard_normal(3)
            expected = rot.T @ p - t
            assert np.allclose(transform_to_map(p, pose), expected, atol=1e-15)

    def test_random_rotation_matches_oracle(self, rng):
        for _ in range(10):
            rot = random_rotation(rng)
            t = rng.standard_normal(3)
            pose = Pose(rot, t)
            p = rng.standard_normal(3)
            assert np.allclose(transform_to_map(p, pose), rot.T @ p - t, atol=1e-14)

    def test_batch_matches_scalar(self, rng):
        pose = Pose(random_rotation(rng), rng.standard_normal(3))
        pts = rng.standard_normal((17, 3))
        batch = transform_to_map(pts, pose)
        for i in range(17):
            assert np.array_equal(batch[i], transform_to_map(pts[i], pose))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(InputError):
            Pose(np.eye(3) * 1.01, np.zeros(3))
        with pytest.raises(InputError):
            Pose(-np.eye(3), np.zeros(3))  # determinant -1


class TestPoseHelpers:
    def test_camera_roundtrip(self, rng):
        axes = random_rotation(rng)
        center = rng.standard_normal(3)
        pose = pose_from_camera(center, axes)
        assert np.allclose(camera_center(pose), center, atol=0)
        # a point one unit along the camera z axis lands at center + axes_z
        p = transform_to_map(np.array([0.0, 0.0, 1.0]), pose)
        assert np.allclose(p, center + axes[:, 2], atol=1e-15)

    def test_rotation_cov_validation(self):
        with pytest.raises(InputError):
            Pose(np.eye(3), np.zeros(3), rotation_cov=np.diag([1.0, 1.0, -1.0]))


ASYMMETRIC = np.eye(3) * 1e-4
ASYMMETRIC[0, 1] += 1e-10


@pytest.mark.parametrize(
    "cov, valid",
    [
        (np.eye(3) * 1e-4, True),
        (np.zeros((3, 3)), True),
        (ASYMMETRIC, False),
        (np.diag([-1e-4, 1e-4, 1e-4]), False),
        (np.diag([np.inf, 1.0, 1.0]), False),
        (np.full((3, 3), np.nan), False),
    ],
    ids=["psd", "zero", "asymmetric-1e-10", "negative", "inf", "nan"],
)
def test_one_covariance_rule(cov, valid):
    # a pose's rotation covariance, the run's override of it, and both
    # covariances of height_variance
    readers = [
        lambda: Pose(np.eye(3), np.zeros(3), rotation_cov=cov),
        lambda: PipelineConfig(pose_cov_override=cov),
        lambda: height_variance([0.0, 0.0, 1.0], Pose.identity(), np.eye(3) * 1e-6, cov),
        lambda: height_variance([0.0, 0.0, 1.0], Pose.identity(), cov, np.zeros((3, 3))),
    ]
    verdicts = []
    for read in readers:
        try:
            read()
            verdicts.append(True)
        except InputError:
            verdicts.append(False)
    assert verdicts == [valid] * 4


class TestProjection:
    def intr(self):
        return CameraIntrinsics(fx=100.0, fy=100.0, cx=2.0, cy=1.0, width=5, height=3)

    def test_principal_point_ray(self):
        intr = CameraIntrinsics(fx=50.0, fy=50.0, cx=1.0, cy=1.0, width=3, height=3)
        depth = np.full((3, 3), np.nan)
        depth[1, 1] = 2.0
        scores = np.zeros((3, 3, 2))
        scores[..., 0] = 1.0
        pos, _, pixels = project_frame_arrays(depth, scores, intr, Pose.identity())
        assert len(pos) == 1
        assert np.allclose(pos[0], [0, 0, 2], atol=0)
        assert np.array_equal(pixels, [4])  # row 1, column 1 of a 3-wide image

    def test_all_nan_depth_empty(self):
        depth = np.full((3, 5), np.nan)
        scores = np.full((3, 5, 4), 0.25)
        pos, sensor, pixels = project_frame_arrays(depth, scores, self.intr(), Pose.identity())
        assert pos.shape == sensor.shape == (0, 3)
        assert pixels.size == 0

    def test_four_pixel_hand_computation(self):
        # fx = fy = 1, cx = cy = 0: position is (u*d, v*d, d)
        intr = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=2, height=2)
        depth = np.array([[1.0, 2.0], [3.0, 4.0]])
        scores = np.zeros((2, 2, 2))
        scores[..., 1] = 1.0
        pos, sensor, pixels = project_frame_arrays(depth, scores, intr, Pose.identity())
        expected = np.array([[0, 0, 1], [2, 0, 2], [0, 3, 3], [4, 4, 4]], dtype=float)
        assert np.allclose(pos, expected, atol=0)
        assert np.array_equal(pos, sensor)
        assert np.array_equal(pixels, [0, 1, 2, 3])
        assert np.all(scores.reshape(-1, 2)[pixels, 1] == 1.0)

    def test_output_count_equals_valid_pixels(self, rng):
        intr = CameraIntrinsics(fx=40.0, fy=40.0, cx=9.5, cy=7.5, width=20, height=16)
        depth = rng.uniform(0.5, 5.0, size=(16, 20))
        bad = rng.random((16, 20)) < 0.3
        depth[bad] = np.nan
        depth[0, 0] = -1.0
        depth[0, 1] = 0.0
        scores = np.full((16, 20, 3), 1.0 / 3.0)
        pos, _, _ = project_frame_arrays(depth, scores, intr, Pose.identity())
        assert pos.shape[0] == int((np.isfinite(depth) & (depth > 0)).sum())

    def test_dimension_mismatch_raises(self):
        depth = np.ones((3, 5))
        with pytest.raises(InputError):
            project_frame_arrays(depth, np.ones((4, 5, 2)), self.intr(), Pose.identity())
        with pytest.raises(InputError):
            project_frame_arrays(np.ones((4, 4)), np.ones((4, 4, 2)), self.intr(), Pose.identity())

    def test_nonpositive_depth_skipped(self):
        depth = np.array([[0.0, -2.0, np.inf, 1.5, 2.5]])
        intr = CameraIntrinsics(fx=10.0, fy=10.0, cx=2.0, cy=0.0, width=5, height=1)
        scores = np.full((1, 5, 2), 0.5)
        pos, _, _ = project_frame_arrays(depth, scores, intr, Pose.identity())
        assert pos.shape[0] == 2


    def test_depth_beyond_range_dropped(self):
        depth = np.array([[1.5, 1e6, 30.0, 2.5, np.nan]])
        intr = CameraIntrinsics(fx=10.0, fy=10.0, cx=2.0, cy=0.0, width=5, height=1)
        scores = np.full((1, 5, 2), 0.5)
        pos, _, _ = project_frame_arrays(depth, scores, intr, Pose.identity(), max_range_m=30.0)
        assert np.array_equal(pos[:, 2], [1.5, 30.0, 2.5])


class TestBarycentric:
    def test_centroid(self):
        lam = barycentric((1 / 3, 1 / 3), (0, 0), (1, 0), (0, 1))
        assert np.allclose(lam, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_vertex_case(self):
        lam = barycentric((0, 0), (0, 0), (1, 0), (0, 1))
        assert np.allclose(lam, [1, 0, 0], atol=1e-12)

    def test_collinear_raises(self):
        with pytest.raises(DegenerateSimplexError):
            barycentric((0.5, 0.5), (0, 0), (1, 1), (2, 2))

    def test_reconstruction_random(self, rng):
        for _ in range(200):
            verts = rng.uniform(-10, 10, size=(3, 2))
            e1 = verts[1] - verts[0]
            e2 = verts[2] - verts[0]
            area2 = e1[0] * e2[1] - e1[1] * e2[0]
            if abs(area2) < 1e-3:
                continue
            lam_true = rng.dirichlet(np.ones(3))
            p = lam_true @ verts
            lam = barycentric(p, *verts)
            assert abs(lam.sum() - 1.0) < 1e-9
            assert np.linalg.norm(lam @ verts - p) < 1e-9


@settings(max_examples=200, deadline=None)
@given(
    data=st.tuples(
        st.lists(st.floats(-50, 50), min_size=6, max_size=6),
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
    )
)
def test_barycentric_roundtrip_property(data):
    coords, a, b = data
    verts = np.array(coords).reshape(3, 2)
    e1 = verts[1] - verts[0]
    e2 = verts[2] - verts[0]
    if abs(e1[0] * e2[1] - e1[1] * e2[0]) < 1e-2:
        return
    lam_true = np.array([a, b * (1 - a), (1 - a) * (1 - b)])
    p = lam_true @ verts
    lam = barycentric(p, *verts)
    assert np.linalg.norm(lam @ verts - p) < 1e-9
    assert abs(lam.sum() - 1.0) < 1e-9
