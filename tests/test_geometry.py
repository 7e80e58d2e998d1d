import numpy as np
import pytest

from mvreg import (
    DegenerateMatrix,
    PointCloud,
    RigidMotion,
    Rotation3,
    invert,
    transform_points,
)
import mvreg.pipeline as pipeline_mod
from mvreg import PoseGraph, pairwise_chain_absolute, transf_sync
from mvreg.geometry import motion_stack, nearest_rotations, non_rotations, relative_motions
from mvreg.metrics import motion_errors
from mvreg.synthetic import random_motion, random_rotation, rotation_about_axis


def rot_z(deg):
    return rotation_about_axis((0, 0, 1), np.radians(deg))


class TestRotation3:
    def test_identity(self):
        assert np.array_equal(Rotation3.identity().m, np.eye(3))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            Rotation3(np.eye(3) * 2.0)

    def test_rejects_reflection(self):
        with pytest.raises(ValueError, match="determinant"):
            Rotation3(np.diag([1.0, 1.0, -1.0]))

    def test_rejects_non_finite(self):
        m = np.eye(3)
        m[0, 0] = np.nan
        for bad in (m, np.full((3, 3), np.nan), np.diag([np.inf, 1.0, 1.0])):
            with pytest.raises(ValueError, match="finite"):
                Rotation3(bad)

    def test_matrix_is_read_only(self):
        r = rot_z(30)
        with pytest.raises(ValueError):
            r.m[0, 0] = 5.0


def motion_rows(rotations, translations):
    """(k, 4, 4) homogeneous stack of k rotations and k translations."""
    stack = np.tile(np.eye(4), (len(rotations), 1, 1))
    stack[:, :3, :3] = rotations
    stack[:, :3, 3] = translations
    return stack


class TestMotionStack:
    def test_matches_single_construction(self):
        rng = np.random.default_rng(5)
        rotations = np.stack([random_rotation(rng).m for _ in range(5)])
        translations = rng.normal(size=(5, 3))
        motions = motion_stack(motion_rows(rotations, translations))
        assert len(motions) == 5
        for m, r, t in zip(motions, rotations, translations):
            assert isinstance(m, RigidMotion) and isinstance(m.rotation, Rotation3)
            assert np.array_equal(m.rotation.m, Rotation3(r).m)
            assert np.array_equal(m.matrix, RigidMotion(Rotation3(r), t).matrix)

    def test_copies_and_freezes(self):
        stack = motion_rows(np.stack([np.eye(3), rot_z(40).m]), np.ones((2, 3)))
        motions = motion_stack(stack)
        stack[0, 0, 0] = 5.0
        stack[0, 0, 3] = 5.0
        assert motions[0].rotation.m[0, 0] == 1.0
        assert motions[0].translation[0] == 1.0
        with pytest.raises(ValueError):
            motions[1].rotation.m[0, 0] = 5.0
        with pytest.raises(ValueError):
            motions[1].translation[0] = 5.0

    def test_empty_stack(self):
        assert motion_stack(np.zeros((0, 4, 4))) == []

    def test_package_records_match_their_arrays(self, monkeypatch):
        # PoseGraph.edges, SyncResult.absolute and pairwise_chain_absolute
        # view arrays the package checked: each record is that array's row
        rng = np.random.default_rng(8)
        truth = np.stack([random_motion(rng).matrix for _ in range(5)])
        pairs = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)]
        graph = PoseGraph(5, pairs, relative_motions(truth, pairs), np.ones(len(pairs)))
        result = transf_sync(graph, rounds=2)
        chained = []

        def recording(poses):
            chained.append(poses)
            return motion_stack(poses)

        monkeypatch.setattr(pipeline_mod, "motion_stack", recording)
        chain = pairwise_chain_absolute(graph)
        for records, rows in ((graph.edges, graph.motions), (result.absolute, result.poses),
                              (chain, chained[0])):
            matrices = np.stack([getattr(r, "motion", r).matrix for r in records])
            assert matrices.tobytes() == np.ascontiguousarray(rows).tobytes()
            for mat in matrices:
                RigidMotion.from_matrix(mat)  # a checked record of the same matrix exists


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

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.array([np.nan, 0.0, 0.0]), "finite"),
            (np.array([0.0, np.inf, 0.0]), "finite"),
            (np.zeros(4), "shape"),
            (np.zeros((3, 1)), "shape"),
        ],
    )
    def test_rejects_bad_translation(self, bad, message):
        with pytest.raises(ValueError, match=message):
            RigidMotion(rot_z(20), bad)


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

    def test_features_need_at_least_one_column(self):
        with pytest.raises(ValueError, match="features"):
            PointCloud(np.zeros((4, 3)), np.zeros((4, 0)))

    def test_len(self):
        assert len(PointCloud(np.zeros((7, 3)))) == 7


class TestInvert:
    def test_inverse_gives_identity(self):
        rng = np.random.default_rng(2)
        m = random_motion(rng)
        assert np.linalg.norm(m.matrix @ invert(m).matrix - np.eye(4)) < 1e-12


class TestTransformPoints:
    def test_identity(self):
        rng = np.random.default_rng(4)
        cloud = PointCloud(rng.normal(size=(10, 3)))
        assert np.allclose(transform_points(RigidMotion.identity(), cloud.points), cloud.points)

    def test_pure_translation_on_origin(self):
        m = RigidMotion(Rotation3.identity(), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(transform_points(m, np.zeros((1, 3))), [[1.0, 2.0, 3.0]], atol=1e-15)

    def test_z_rotation_of_x_axis(self):
        m = RigidMotion(rot_z(90), np.zeros(3))
        assert np.allclose(transform_points(m, [[1.0, 0.0, 0.0]]), [[0.0, 1.0, 0.0]], atol=1e-12)

    def test_transform_points_matches_homogeneous(self):
        rng = np.random.default_rng(6)
        m = random_motion(rng)
        pts = rng.normal(size=(20, 3))
        hom = np.column_stack([pts, np.ones(20)]) @ m.matrix.T
        assert np.allclose(transform_points(m, pts), hom[:, :3], atol=1e-12)


class TestNearestRotations:
    def test_fixed_point_on_rotations(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            r = random_rotation(rng)
            assert np.linalg.norm(nearest_rotations(r.m) - r.m) < 1e-12

    def test_negative_identity_gives_proper_rotation(self):
        out = nearest_rotations(-np.eye(3))
        assert abs(np.linalg.det(out) - 1.0) < 1e-12
        assert not np.allclose(out, -np.eye(3))

    def test_frobenius_nearest_against_sampled_candidates(self):
        # oracle: no sampled rotation may beat the projection
        rng = np.random.default_rng(8)
        for _ in range(10):
            r = random_rotation(rng)
            noisy = r.m + 0.01 * rng.normal(size=(3, 3))
            proj = nearest_rotations(noisy)
            best = np.linalg.norm(proj - noisy)
            for _ in range(100):
                cand = random_rotation(rng)
                assert np.linalg.norm(cand.m - noisy) >= best - 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = rng.normal(size=(3, 3))
            once = nearest_rotations(m)
            twice = nearest_rotations(once)
            assert np.linalg.norm(once - twice) < 1e-12

    def test_rank_deficient_raises(self):
        outer = np.outer([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(DegenerateMatrix):
            nearest_rotations(outer)
        with pytest.raises(DegenerateMatrix):
            nearest_rotations(np.zeros((3, 3)))

    def test_non_finite_raises(self):
        m = np.eye(3)
        m[1, 1] = np.inf
        with pytest.raises(DegenerateMatrix):
            nearest_rotations(m)

    def test_stack_matches_each_block(self):
        rng = np.random.default_rng(30)
        stack = rng.normal(size=(2, 4, 3, 3))
        out = nearest_rotations(stack)
        assert out.shape == stack.shape
        for idx in np.ndindex(2, 4):
            assert np.allclose(out[idx], nearest_rotations(stack[idx]), atol=1e-12)
        assert not non_rotations(out.reshape(-1, 3, 3)).any()

    def test_one_degenerate_block_fails_the_stack(self):
        rng = np.random.default_rng(31)
        stack = np.stack([random_rotation(rng).m for _ in range(4)])
        stack[2] = np.outer([0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(DegenerateMatrix):
            nearest_rotations(stack)


class TestNonRotations:
    def test_rotations_pass(self):
        rng = np.random.default_rng(32)
        stack = np.stack([random_rotation(rng).m for _ in range(10)] + [np.eye(3)])
        assert not non_rotations(stack).any()

    @pytest.mark.parametrize(
        "bad",
        [np.diag([1.0, 1.0, -1.0]), 2.0 * np.eye(3), np.full((3, 3), np.nan),
         np.diag([np.inf, 1.0, 1.0])],
        ids=["reflection", "scaled", "nan", "inf"],
    )
    def test_flags_exactly_the_blocks_rotation3_rejects(self, bad):
        rng = np.random.default_rng(33)
        stack = np.stack([random_rotation(rng).m, bad, np.eye(3)])
        assert non_rotations(stack).tolist() == [False, True, False]
        with pytest.raises(ValueError):
            Rotation3(bad)


def relative(mi: RigidMotion, mj: RigidMotion) -> np.ndarray:
    """M_j^-1 M_i through the stack form, as one 4x4 matrix."""
    return relative_motions(np.stack([mi.matrix, mj.matrix]), [(0, 1)])[0]


class TestRelativeMotions:
    def test_equal_absolutes_give_identity(self):
        rng = np.random.default_rng(10)
        m = random_motion(rng)
        rel = relative(m, m)
        assert np.linalg.norm(rel - np.eye(4)) < 1e-12

    def test_identity_target_returns_source(self):
        rng = np.random.default_rng(11)
        m = random_motion(rng)
        rel = relative(m, RigidMotion.identity())
        assert np.allclose(rel, m.matrix, atol=1e-12)

    def test_matrix_product_oracle(self):
        rng = np.random.default_rng(12)
        mi, mj = random_motion(rng), random_motion(rng)
        rel = relative(mi, mj)
        assert np.allclose(rel, np.linalg.inv(mj.matrix) @ mi.matrix, atol=1e-12)

    def test_frame_convention_on_points(self):
        # a world point seen in frame i, pushed through M_ij, lands at its
        # frame-j coordinates
        rng = np.random.default_rng(13)
        mi, mj = random_motion(rng), random_motion(rng)
        world = rng.normal(size=(15, 3))
        in_i = transform_points(invert(mi), world)
        in_j = transform_points(invert(mj), world)
        rel = RigidMotion.from_matrix(relative(mi, mj))
        assert np.allclose(transform_points(rel, in_i), in_j, atol=1e-9)

    def test_batch_matches_matrix_product_on_random_pairs(self):
        rng = np.random.default_rng(18)
        absolute = np.stack([random_motion(rng).matrix for _ in range(6)])
        pairs = rng.integers(0, 6, size=(25, 2))
        rel = relative_motions(absolute, pairs)
        assert rel.shape == (25, 4, 4)
        for (i, j), r in zip(pairs, rel):
            assert np.allclose(r, np.linalg.inv(absolute[j]) @ absolute[i], atol=1e-12)

    def test_chain_closes(self):
        # M_jk M_ij = M_ik along any chain i -> j -> k
        rng = np.random.default_rng(19)
        absolute = np.stack([random_motion(rng).matrix for _ in range(8)])
        order = rng.permutation(8)
        steps = relative_motions(absolute, np.column_stack([order[:-1], order[1:]]))
        chained = np.eye(4)
        for step in steps:
            chained = step @ chained
        direct = relative_motions(absolute, [(order[0], order[-1])])[0]
        assert np.allclose(chained, direct, atol=1e-12)

    def test_z_rotations_subtract(self):
        stack = np.stack([RigidMotion(rot_z(deg), np.zeros(3)).matrix for deg in (70.0, 25.0)])
        rel = relative_motions(stack, [(0, 1), (1, 0)])
        assert np.allclose(rel[0, :3, :3], rot_z(45.0).m, atol=1e-12)
        assert np.allclose(rel[1, :3, :3], rot_z(-45.0).m, atol=1e-12)

    def test_gauge_invariance(self):
        # one world motion applied to every absolute leaves the relatives alone
        rng = np.random.default_rng(20)
        absolute = np.stack([random_motion(rng).matrix for _ in range(5)])
        pairs = [(0, 1), (1, 2), (4, 2), (3, 0)]
        moved = random_motion(rng, translation_scale=10.0).matrix @ absolute
        assert np.allclose(relative_motions(moved, pairs), relative_motions(absolute, pairs),
                           atol=1e-11)


def geodesic_angle(a, b) -> float:
    """Angle of the rotation a^T b in radians, through metrics.motion_errors."""
    ma = a.m if isinstance(a, Rotation3) else a
    mb = b.m if isinstance(b, Rotation3) else b
    rot, _ = motion_errors(motion_rows([ma], np.zeros((1, 3))), motion_rows([mb], np.zeros((1, 3))))
    return float(np.radians(rot[0]))


class TestMotionErrorsAngle:
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

    def test_quarter_turn_of_raw_matrices(self):
        assert abs(geodesic_angle(np.eye(3), rot_z(90).m) - np.pi / 2) < 1e-12
