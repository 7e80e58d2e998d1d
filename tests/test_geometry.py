import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvreg import (
    DegenerateMatrix,
    PointCloud,
    RigidMotion,
    Rotation3,
    apply,
    compose,
    geodesic_angle,
    invert,
    project_to_so3,
    relative_from_absolute,
    rotation_about_z,
    transform_points,
)
from mvreg.geometry import motion_stack, rotation_stack
from mvreg.synthetic import random_motion, random_rotation


def rot_z(deg):
    return rotation_about_z(np.radians(deg))


class TestRotation3:
    def test_identity(self):
        assert np.array_equal(Rotation3.identity().m, np.eye(3))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Rotation3(np.eye(3) * 2.0)

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            Rotation3(np.diag([1.0, 1.0, -1.0]))

    def test_rejects_non_finite(self):
        m = np.eye(3)
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            Rotation3(m)

    def test_matrix_is_read_only(self):
        r = rot_z(30)
        with pytest.raises(ValueError):
            r.m[0, 0] = 5.0


class TestRotationStack:
    def test_matches_single_construction(self):
        rng = np.random.default_rng(3)
        stack = np.stack([random_rotation(rng).m for _ in range(7)])
        rotations = rotation_stack(stack)
        assert len(rotations) == 7
        for r, m in zip(rotations, stack):
            assert isinstance(r, Rotation3)
            assert np.array_equal(r.m, Rotation3(m).m)

    def test_copies_and_freezes(self):
        stack = np.stack([np.eye(3), rot_z(40).m])
        rotations = rotation_stack(stack)
        stack[0, 0, 0] = 5.0
        assert rotations[0].m[0, 0] == 1.0
        with pytest.raises(ValueError):
            rotations[1].m[0, 0] = 5.0

    def test_empty_stack(self):
        assert rotation_stack(np.zeros((0, 3, 3))) == []

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.eye(3) * 2.0, "not orthonormal"),
            (np.diag([1.0, 1.0, -1.0]), "determinant"),
            (np.full((3, 3), np.nan), "finite"),
            (np.diag([np.inf, 1.0, 1.0]), "finite"),
        ],
    )
    def test_one_bad_matrix_raises_its_error(self, bad, message):
        rng = np.random.default_rng(4)
        stack = np.stack([random_rotation(rng).m for _ in range(6)])
        stack[4] = bad
        with pytest.raises(ValueError, match=message):
            rotation_stack(stack)
        with pytest.raises(ValueError, match=message):
            Rotation3(bad)

    def test_first_bad_matrix_decides(self):
        stack = np.stack([np.eye(3), np.diag([1.0, 1.0, -1.0]), np.eye(3) * 2.0])
        with pytest.raises(ValueError, match="determinant"):
            rotation_stack(stack)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            rotation_stack(np.eye(3))


class TestMotionStack:
    def test_matches_single_construction(self):
        rng = np.random.default_rng(5)
        rotations = np.stack([random_rotation(rng).m for _ in range(5)])
        translations = rng.normal(size=(5, 3))
        motions = motion_stack(rotations, translations)
        assert len(motions) == 5
        for m, r, t in zip(motions, rotations, translations):
            assert isinstance(m, RigidMotion)
            assert np.array_equal(m.matrix, RigidMotion(Rotation3(r), t).matrix)

    def test_copies_and_freezes(self):
        translations = np.ones((2, 3))
        motions = motion_stack(np.stack([np.eye(3)] * 2), translations)
        translations[0, 0] = 5.0
        assert motions[0].translation[0] == 1.0
        with pytest.raises(ValueError):
            motions[1].translation[0] = 5.0

    def test_empty_stack(self):
        assert motion_stack(np.zeros((0, 3, 3)), np.zeros((0, 3))) == []

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.array([np.nan, 0.0, 0.0]), "finite"),
            (np.array([0.0, np.inf, 0.0]), "finite"),
            (np.zeros(4), "shape"),
            (np.zeros((3, 1)), "shape"),
        ],
    )
    def test_one_bad_translation_raises_its_error(self, bad, message):
        rng = np.random.default_rng(6)
        rotations = np.stack([random_rotation(rng).m for _ in range(6)])
        translations = list(rng.normal(size=(6, 3)))
        translations[4] = bad
        with pytest.raises(ValueError, match=message):
            motion_stack(rotations, translations)
        with pytest.raises(ValueError, match=message):
            RigidMotion(Rotation3(rotations[4]), bad)

    def test_bad_rotation_raises_its_error(self):
        rotations = np.stack([np.eye(3), np.diag([1.0, 1.0, -1.0])])
        with pytest.raises(ValueError, match="determinant"):
            motion_stack(rotations, np.zeros((2, 3)))

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError, match="translations"):
            motion_stack(np.stack([np.eye(3)] * 2), np.zeros((3, 3)))


class TestRigidMotion:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        m = random_motion(rng)
        again = RigidMotion.from_matrix(m.matrix)
        assert np.allclose(again.matrix, m.matrix, atol=1e-15)

    def test_from_matrix_rejects_bad_bottom_row(self):
        mat = np.eye(4)
        mat[3, 0] = 1e-3
        with pytest.raises(ValueError):
            RigidMotion.from_matrix(mat)

    def test_identity(self):
        assert np.array_equal(RigidMotion.identity().matrix, np.eye(4))


class TestPointCloud:
    def test_requires_n_by_3(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((4, 2)))

    def test_requires_at_least_one_point(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((0, 3)))

    def test_features_length_must_match(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((4, 3)), np.zeros((3, 8)))

    def test_len(self):
        assert len(PointCloud(np.zeros((7, 3)))) == 7


class TestCompose:
    def test_identity_neutral(self):
        rng = np.random.default_rng(1)
        m = random_motion(rng)
        assert np.allclose(compose(RigidMotion.identity(), m).matrix, m.matrix, atol=1e-15)

    def test_inverse_gives_identity(self):
        rng = np.random.default_rng(2)
        m = random_motion(rng)
        assert np.linalg.norm(compose(m, invert(m)).matrix - np.eye(4)) < 1e-12

    def test_z_rotations_add(self):
        a = RigidMotion(rot_z(30), np.array([0.1, 0.0, 0.0]))
        b = RigidMotion(rot_z(60), np.array([0.0, 0.2, 0.0]))
        out = compose(a, b)
        assert np.allclose(out.rotation.m, rot_z(90).m, atol=1e-12)
        # oracle: brute-force 4x4 homogeneous product
        assert np.allclose(out.matrix, a.matrix @ b.matrix, atol=1e-12)

    def test_matches_matrix_product_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = random_motion(rng), random_motion(rng)
            assert np.allclose(compose(a, b).matrix, a.matrix @ b.matrix, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_closure_random_chain(self, seed):
        rng = np.random.default_rng(seed)
        acc = RigidMotion.identity()
        for _ in range(20):
            acc = compose(acc, random_motion(rng))
        r = acc.rotation.m
        assert np.linalg.norm(r.T @ r - np.eye(3)) < 1e-9
        assert abs(np.linalg.det(r) - 1.0) < 1e-9


class TestApply:
    def test_identity(self):
        rng = np.random.default_rng(4)
        cloud = PointCloud(rng.normal(size=(10, 3)))
        assert np.allclose(apply(RigidMotion.identity(), cloud).points, cloud.points)

    def test_pure_translation_on_origin(self):
        cloud = PointCloud(np.zeros((1, 3)))
        m = RigidMotion(Rotation3.identity(), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(apply(m, cloud).points, [[1.0, 2.0, 3.0]], atol=1e-15)

    def test_z_rotation_of_x_axis(self):
        cloud = PointCloud(np.array([[1.0, 0.0, 0.0]]))
        m = RigidMotion(rot_z(90), np.zeros(3))
        assert np.allclose(apply(m, cloud).points, [[0.0, 1.0, 0.0]], atol=1e-12)

    def test_features_ride_along(self):
        rng = np.random.default_rng(5)
        cloud = PointCloud(rng.normal(size=(6, 3)), rng.normal(size=(6, 4)))
        moved = apply(random_motion(rng), cloud)
        assert np.array_equal(moved.features, cloud.features)

    def test_transform_points_matches_homogeneous(self):
        rng = np.random.default_rng(6)
        m = random_motion(rng)
        pts = rng.normal(size=(20, 3))
        hom = np.column_stack([pts, np.ones(20)]) @ m.matrix.T
        assert np.allclose(transform_points(m, pts), hom[:, :3], atol=1e-12)


class TestProjectToSo3:
    def test_fixed_point_on_rotations(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            r = random_rotation(rng)
            assert np.linalg.norm(project_to_so3(r.m).m - r.m) < 1e-12

    def test_negative_identity_gives_proper_rotation(self):
        out = project_to_so3(-np.eye(3))
        assert abs(np.linalg.det(out.m) - 1.0) < 1e-12
        assert not np.allclose(out.m, -np.eye(3))

    def test_frobenius_nearest_against_sampled_candidates(self):
        # oracle: no sampled rotation may beat the projection
        rng = np.random.default_rng(8)
        for _ in range(10):
            r = random_rotation(rng)
            noisy = r.m + 0.01 * rng.normal(size=(3, 3))
            proj = project_to_so3(noisy)
            best = np.linalg.norm(proj.m - noisy)
            for _ in range(100):
                cand = random_rotation(rng)
                assert np.linalg.norm(cand.m - noisy) >= best - 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = rng.normal(size=(3, 3))
            once = project_to_so3(m).m
            twice = project_to_so3(once).m
            assert np.linalg.norm(once - twice) < 1e-12

    def test_rank_deficient_raises(self):
        outer = np.outer([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(DegenerateMatrix):
            project_to_so3(outer)
        with pytest.raises(DegenerateMatrix):
            project_to_so3(np.zeros((3, 3)))

    def test_non_finite_raises(self):
        m = np.eye(3)
        m[1, 1] = np.inf
        with pytest.raises(DegenerateMatrix):
            project_to_so3(m)


class TestRelativeFromAbsolute:
    def test_equal_absolutes_give_identity(self):
        rng = np.random.default_rng(10)
        m = random_motion(rng)
        rel = relative_from_absolute(m, m)
        assert np.linalg.norm(rel.matrix - np.eye(4)) < 1e-12

    def test_identity_target_returns_source(self):
        rng = np.random.default_rng(11)
        m = random_motion(rng)
        rel = relative_from_absolute(m, RigidMotion.identity())
        assert np.allclose(rel.matrix, m.matrix, atol=1e-12)

    def test_matrix_product_oracle(self):
        rng = np.random.default_rng(12)
        mi, mj = random_motion(rng), random_motion(rng)
        rel = relative_from_absolute(mi, mj)
        assert np.allclose(rel.matrix, np.linalg.inv(mj.matrix) @ mi.matrix, atol=1e-12)

    def test_frame_convention_on_points(self):
        # a world point seen in frame i, pushed through M_ij, lands at its
        # frame-j coordinates
        rng = np.random.default_rng(13)
        mi, mj = random_motion(rng), random_motion(rng)
        world = rng.normal(size=(15, 3))
        in_i = transform_points(invert(mi), world)
        in_j = transform_points(invert(mj), world)
        rel = relative_from_absolute(mi, mj)
        assert np.allclose(transform_points(rel, in_i), in_j, atol=1e-9)


class TestGeodesicAngle:
    def test_zero_for_equal(self):
        rng = np.random.default_rng(14)
        r = random_rotation(rng)
        assert geodesic_angle(r, r) == 0.0

    def test_antipodal(self):
        assert abs(geodesic_angle(Rotation3.identity(), rot_z(180)) - np.pi) < 1e-9

    def test_antipodal_conjugated(self):
        # arccos conditioning near -1 turns 1e-16 trace noise into ~1e-8
        # angle noise, so the conjugated form gets a looser tolerance
        rng = np.random.default_rng(15)
        a = random_rotation(rng)
        b = Rotation3(a.m @ rot_z(180).m)
        assert abs(geodesic_angle(a, b) - np.pi) < 1e-6

    def test_axis_angle_construction(self):
        rng = np.random.default_rng(16)
        a = random_rotation(rng)
        b = Rotation3(a.m @ rot_z(10).m)
        assert abs(geodesic_angle(a, b) - np.radians(10)) < 1e-9

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a, b, c = (random_rotation(rng) for _ in range(3))
            assert abs(geodesic_angle(a, b) - geodesic_angle(b, a)) < 1e-9
            assert geodesic_angle(a, c) <= geodesic_angle(a, b) + geodesic_angle(b, c) + 1e-9

    def test_accepts_raw_matrices(self):
        assert abs(geodesic_angle(np.eye(3), rot_z(90).m) - np.pi / 2) < 1e-12
