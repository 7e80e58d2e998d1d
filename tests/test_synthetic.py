import hashlib
import math

import numpy as np
import pytest

import mvreg.synthetic as synthetic_mod
from mvreg import (
    PipelineConfig,
    build_correspondences,
    invert,
    register_correspondences,
    transform_points,
)
from mvreg.geometry import RigidMotion, Rotation3, relative_motions
from mvreg.synthetic import (
    BOX_EXTENTS,
    MIN_OVERLAP,
    VISIBILITY_HORIZON,
    _box_surface_points,
    _circular_distance,
    generate_scene,
    scene_correspondences,
)

from conftest import rotation_gap_deg


def true_relative(scene, i, j):
    """The ground-truth relative motion M_j^-1 M_i of scans i and j, 4 x 4."""
    truth = np.stack([m.matrix for m in scene.ground_truth])
    return relative_motions(truth, [(i, j)])[0]


def assert_scenes_equal(a, b):
    assert a.edges == b.edges
    assert np.array_equal(a.base_points, b.base_points)
    assert len(a.base_indices) == len(b.base_indices)
    for ia, ib in zip(a.base_indices, b.base_indices):
        assert np.array_equal(ia, ib)
    for ca, cb in zip(a.clouds, b.clouds):
        assert np.array_equal(ca.points, cb.points)
        assert np.array_equal(ca.features, cb.features)
    for ma, mb in zip(a.ground_truth, b.ground_truth):
        assert np.array_equal(ma.matrix, mb.matrix)
    assert set(a.corruptions) == set(b.corruptions)
    for pair in a.corruptions:
        assert np.array_equal(a.corruptions[pair].matrix, b.corruptions[pair].matrix)


class TestGenerateScene:
    def test_same_seed_reproduces_scene(self):
        kwargs = dict(n_scans=5, pts_per_scan=100, noise_sigma=0.01,
                      outlier_edge_fraction=0.25, seed=11)
        assert_scenes_equal(generate_scene(**kwargs), generate_scene(**kwargs))

    def test_different_seeds_differ(self):
        a = generate_scene(4, 80, 0.01, 0.0, seed=1)
        b = generate_scene(4, 80, 0.01, 0.0, seed=2)
        assert not np.array_equal(a.clouds[0].points, b.clouds[0].points)

    def test_shapes_and_labels(self):
        scene = generate_scene(6, 120, 0.01, 0.3, seed=5)
        assert len(scene.clouds) == 6
        assert len(scene.ground_truth) == 6
        for cloud in scene.clouds:
            assert cloud.points.shape == (120, 3)
            assert cloud.features.shape == (120, 3)
        # the corrupted edges, in edge order
        assert list(scene.corruptions) == [p for p in scene.edges if p in scene.corruptions]
        assert scene.corruptions

    def test_outlier_fraction_is_respected(self):
        scene = generate_scene(8, 100, 0.01, 0.25, seed=9)
        n_out = len(scene.corruptions)
        assert n_out == round(0.25 * len(scene.edges))

    def test_all_edges_corrupted_at_fraction_one(self):
        scene = generate_scene(3, 50, 0.0, 1.0, seed=2)
        assert len(scene.edges) >= 2
        assert list(scene.corruptions) == list(scene.edges)

    def test_corruption_motions_are_large(self):
        scene = generate_scene(6, 100, 0.01, 0.5, seed=21)
        for motion in scene.corruptions.values():
            angle = rotation_gap_deg(motion.rotation, np.eye(3))
            assert angle >= 89.0
            assert np.linalg.norm(motion.translation) >= 0.5

    def test_edges_connect_neighbors(self):
        scene = generate_scene(8, 200, 0.01, 0.0, seed=3)
        pairs = set(scene.edges)
        for k in range(7):
            assert (k, k + 1) in pairs

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_scene(2, 100, 0.01, 0.0, seed=0)
        with pytest.raises(ValueError):
            generate_scene(4, 2, 0.01, 0.0, seed=0)
        with pytest.raises(ValueError):
            generate_scene(4, 100, 0.01, 1.5, seed=0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(n_scans=30.0), "n_scans must be an integer"),
        (dict(n_scans=True), "n_scans must be an integer"),
        (dict(pts_per_scan=64.0), "pts_per_scan must be an integer"),
        (dict(pts_per_scan=np.float64(64)), "pts_per_scan must be an integer"),
        (dict(noise_sigma=-0.01), "noise_sigma must be finite and >= 0"),
        (dict(noise_sigma=np.nan), "noise_sigma must be finite and >= 0"),
        (dict(noise_sigma=np.inf), "noise_sigma must be finite and >= 0"),
        (dict(descriptor_noise=-0.01), "descriptor_noise must be finite and >= 0"),
        (dict(descriptor_noise=np.inf), "descriptor_noise must be finite and >= 0"),
    ])
    def test_bad_arguments_raise_before_any_draw(self, monkeypatch, kwargs, message):
        def no_draws(*args, **kw):
            raise AssertionError("generate_scene drew before checking its arguments")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        args = dict(n_scans=6, pts_per_scan=64, noise_sigma=0.01,
                    outlier_edge_fraction=0.2, seed=0) | kwargs
        with pytest.raises(ValueError, match=message):
            generate_scene(**args)

    def test_numpy_integer_sizes_are_accepted(self):
        a = generate_scene(np.int64(6), np.int32(64), 0.0, 0.2, seed=4, descriptor_noise=0.0)
        assert_scenes_equal(a, generate_scene(6, 64, 0.0, 0.2, seed=4, descriptor_noise=0.0))


def reference_circular_distance(a, b):
    """The remainder form of the wedge distance that generate_scene used
    before its in-place rewrite, kept here as the oracle."""
    d = np.abs(a - b) % (2.0 * math.pi)
    return np.minimum(d, 2.0 * math.pi - d)


def reference_box_surface_points(rng, count):
    """The per-face mask loop that generate_scene used before its single
    scatter, kept here as the oracle."""
    ex, ey, ez = BOX_EXTENTS
    areas = np.array([ey * ez, ey * ez, ex * ez, ex * ez, ex * ey, ex * ey])
    faces = rng.choice(6, size=count, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=count)
    v = rng.uniform(-0.5, 0.5, size=count)
    pts = np.empty((count, 3))
    for face in range(6):
        mask = faces == face
        axis = face // 2
        sign = 1.0 if face % 2 == 0 else -1.0
        extents = np.array(BOX_EXTENTS)
        coords = np.zeros((int(mask.sum()), 3))
        others = [a for a in range(3) if a != axis]
        coords[:, axis] = sign * extents[axis] / 2.0
        coords[:, others[0]] = u[mask] * extents[others[0]]
        coords[:, others[1]] = v[mask] * extents[others[1]]
        pts[mask] = coords
    return pts


def same_bits(a, b):
    """Equal shapes and float64 bit patterns, so -0.0 and +0.0 differ."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestSceneHelpers:
    @pytest.mark.parametrize("n", [3, 7, 30, 400])
    def test_circular_distance_equals_remainder_form(self, n):
        xy = np.random.default_rng(n).normal(size=(4096, 2))
        special = np.array([-math.pi, -0.0, 0.0, math.pi])
        centres = 2.0 * math.pi * np.arange(n) / n
        azimuths = np.concatenate([
            np.arctan2(xy[:, 1], xy[:, 0]),
            special,
            np.nextafter(special, np.inf),
            np.nextafter(special, -np.inf),
            # |a - b| is exactly 2 pi at these (Sterbenz: b in [pi, 2 pi))
            centres[centres >= math.pi] - 2.0 * math.pi,
        ])
        exact_turns = 0
        for i in range(n):
            centre = 2.0 * math.pi * i / n
            exact_turns += np.count_nonzero(np.abs(azimuths - centre) == 2.0 * math.pi)
            got = _circular_distance(azimuths, centre)
            assert same_bits(got, reference_circular_distance(azimuths, centre))
        assert exact_turns >= n // 2

    @pytest.mark.parametrize("seed", [0, 1, 5])
    # at 1, 2 and 7 points some faces get none; 13824 is the 30 x 2048 size
    @pytest.mark.parametrize("count", [1, 2, 7, 13824])
    def test_box_surface_points_equal_per_face_loop(self, seed, count):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _box_surface_points(rng, count)
        assert same_bits(got, reference_box_surface_points(ref_rng, count))
        # the same draws in the same sizes leave both streams in one state
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("n, pts, sigma, fraction, seed, descriptor_noise", [
        (3, 50, 0.0, 1.0, 0, 0.0),
        (6, 100, 0.01, 0.5, 3, 0.01),
        (8, 200, 0.01, 0.25, 1, 0.0),
        (30, 32, 0.01, 0.2, 1, 0.01),  # TOP_UP: undersampled wedges
        (30, 32, 0.0, 0.2, 1, 0.0),
        (30, 2048, 0.01, 0.2, 7, 0.0),
        (200, 64, 0.01, 0.2, 2, 0.01),
    ])
    def test_scene_equals_scene_from_reference_helpers(
        self, monkeypatch, n, pts, sigma, fraction, seed, descriptor_noise
    ):
        args = (n, pts, sigma, fraction, seed, descriptor_noise)
        scene = generate_scene(*args)
        monkeypatch.setattr(synthetic_mod, "_circular_distance", reference_circular_distance)
        monkeypatch.setattr(synthetic_mod, "_box_surface_points", reference_box_surface_points)
        assert_scenes_equal(scene, generate_scene(*args))

    def test_noise_free_local_points_equal_the_inverse_transform(self):
        scene = generate_scene(8, 200, 0.0, 0.25, seed=3)
        for i, cloud in enumerate(scene.clouds):
            world = scene.base_points[scene.base_indices[i]]
            expected = transform_points(invert(scene.ground_truth[i]), world)
            assert np.array_equal(cloud.points, expected)

    def test_records_are_built_only_for_the_returned_motions(self, monkeypatch):
        built = {Rotation3: 0, RigidMotion: 0}
        for cls in built:
            def counting(self, cls=cls, check=cls.__post_init__):
                built[cls] += 1
                check(self)
            monkeypatch.setattr(cls, "__post_init__", counting)
        scene = generate_scene(30, 256, 0.01, 0.2, seed=2)
        n_outliers = len(scene.corruptions)
        assert n_outliers > 0
        assert built == {Rotation3: 30 + n_outliers, RigidMotion: 30 + n_outliers}


def set_intersection_edges(scene, pts_per_scan):
    """The pair loop generate_scene used before its membership masks: one
    Python set intersection per scan pair, kept here as the oracle."""
    edges = []
    n = len(scene.base_indices)
    for i in range(n):
        set_i = set(scene.base_indices[i].tolist())
        for j in range(i + 1, n):
            shared = len(set_i.intersection(scene.base_indices[j].tolist()))
            if shared / pts_per_scan >= MIN_OVERLAP:
                edges.append((i, j))
    return tuple(edges)


def outside_wedge_scans(scene):
    """Scans holding a base point outside their visibility wedge, which only
    the undersampled-wedge top-up adds."""
    n = len(scene.clouds)
    wedge = min(2.0 * math.pi * VISIBILITY_HORIZON / n, 2.0 * math.pi)
    azimuths = np.arctan2(scene.base_points[:, 1], scene.base_points[:, 0])
    out = []
    for i, chosen in enumerate(scene.base_indices):
        if np.any(reference_circular_distance(azimuths[chosen], 2.0 * math.pi * i / n) > wedge / 2.0):
            out.append(i)
    return out


def scene_digest(scene):
    """sha256 over the clouds, ground truth, edges and corruption motions."""
    h = hashlib.sha256()
    for cloud in scene.clouds:
        h.update(np.ascontiguousarray(cloud.points, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(cloud.features, dtype="<f8").tobytes())
    for m in scene.ground_truth:
        h.update(np.ascontiguousarray(m.matrix, dtype="<f8").tobytes())
    h.update(np.asarray(scene.edges, dtype="<i8").tobytes())
    for pair in scene.edges:
        if pair in scene.corruptions:
            h.update(np.ascontiguousarray(scene.corruptions[pair].matrix, dtype="<f8").tobytes())
    return h.hexdigest()


# 30 x 32 at seed 1 undersamples the wedges of scans 0-3, so it takes the
# top-up branch; the other sizes draw every scan from inside its wedge
TOP_UP = (30, 32, 1)


class TestSceneEdges:
    @pytest.mark.parametrize("n, pts, seed", [
        (3, 100, 0), (4, 100, 1), (5, 100, 2), (6, 100, 3),  # wedge covers the ring
        (8, 200, 0), (60, 256, 0),
        (30, 2048, 0), (30, 2048, 1), (30, 2048, 2),
        (200, 64, 0),
        (20, 100, 0),  # scans 9 and 12 share exactly MIN_OVERLAP of their points
        TOP_UP,
    ])
    def test_edges_equal_set_intersection_oracle(self, n, pts, seed):
        scene = generate_scene(n, pts, 0.01, 0.2, seed=seed)
        assert scene.edges == set_intersection_edges(scene, pts)
        assert all(type(i) is int and type(j) is int for i, j in scene.edges)
        assert len(scene.edges) >= n - 1

    def test_overlap_at_threshold_is_an_edge(self):
        scene = generate_scene(20, 100, 0.01, 0.2, seed=0)
        b = scene.base_indices
        assert np.intersect1d(b[9], b[12]).size / 100 == MIN_OVERLAP
        assert (9, 12) in scene.edges

    def test_top_up_configuration_takes_the_branch(self):
        n, pts, seed = TOP_UP
        scene = generate_scene(n, pts, 0.01, 0.2, seed=seed)
        assert outside_wedge_scans(scene) == [0, 1, 2, 3]
        for chosen in scene.base_indices:
            assert chosen.size == pts and np.unique(chosen).size == pts

    # Both digests were computed before the edge count moved from set
    # intersections to membership masks: they pin every random draw, the
    # top-up order and the edge list. They were taken with numpy 2.4's
    # OpenBLAS on x86-64; another BLAS may round transform_points differently.
    @pytest.mark.parametrize("n, pts, seed, digest", [
        (30, 2048, 5, "113937ac987c453eb16a292a0d277a300a384a756e6016470543c243640a73c5"),
        (*TOP_UP, "79260bdb90d4be9e518ad6092ea8146b13054ab511adc06cb7abb38e001b3aba"),
    ])
    def test_golden_scene_digest(self, n, pts, seed, digest):
        assert scene_digest(generate_scene(n, pts, 0.01, 0.2, seed=seed)) == digest


# Exact recovery at sigma = 0 needs pure weight replacement (blend = 1):
# points outside the shared overlap match a nearby wrong point, and any
# blending keeps their weights floored at (1 - blend)^rounds instead of
# letting the scale collapse wipe them out.
EXACT_CFG = PipelineConfig(temperature=1e-6, blend=1.0)


class TestSceneCorrespondences:
    def test_noise_free_pair_recovers_relative_motion(self):
        scene = generate_scene(
            4, 200, noise_sigma=0.0, outlier_edge_fraction=0.0, seed=13,
            descriptor_noise=0.0,
        )
        corr = scene_correspondences(scene, temperature=1e-6)
        for (i, j), c in corr.items():
            truth = true_relative(scene, i, j)
            result = register_correspondences(c, EXACT_CFG)
            assert rotation_gap_deg(result.motion.rotation, truth[:3, :3]) < 1e-6
            assert np.linalg.norm(result.motion.translation - truth[:3, 3]) < 1e-9

    def test_noise_free_measurements_compose_around_cycles(self):
        scene = generate_scene(
            5, 200, noise_sigma=0.0, outlier_edge_fraction=0.0, seed=17,
            descriptor_noise=0.0,
        )
        corr = scene_correspondences(scene, temperature=1e-6)
        fits = {
            pair: register_correspondences(c, EXACT_CFG).motion for pair, c in corr.items()
        }
        pairs = set(fits)
        for a in range(5):
            for b in range(a + 1, 5):
                for c in range(b + 1, 5):
                    if {(a, b), (b, c), (a, c)} <= pairs:
                        loop = invert(fits[(a, c)]).matrix @ fits[(b, c)].matrix @ fits[(a, b)].matrix
                        assert np.linalg.norm(loop - np.eye(4)) < 1e-9

    def test_corrupted_edge_fits_to_wrong_motion(self):
        scene = generate_scene(
            6, 150, noise_sigma=0.0, outlier_edge_fraction=0.5, seed=29,
            descriptor_noise=0.0,
        )
        corr = scene_correspondences(scene, temperature=1e-6)
        for pair in scene.edges:
            truth = true_relative(scene, *pair)
            result = register_correspondences(corr[pair], EXACT_CFG)
            angle = rotation_gap_deg(result.motion.rotation, truth[:3, :3])
            if pair not in scene.corruptions:
                assert angle < 1e-6
            else:
                assert angle > 5.0
                assert result.local_confidence < 0.5

    def test_clouds_stay_clean_under_corruption(self):
        # corruption lives in scene_correspondences only: the sets that
        # build_correspondences makes from the scans fit every edge exactly
        scene = generate_scene(
            5, 100, noise_sigma=0.0, outlier_edge_fraction=0.5, seed=31,
            descriptor_noise=0.0,
        )
        for i, j in scene.edges:
            clean = build_correspondences(scene.clouds[i], scene.clouds[j], temperature=1e-6)
            result = register_correspondences(clean, EXACT_CFG)
            assert rotation_gap_deg(result.motion.rotation, true_relative(scene, i, j)[:3, :3]) < 1e-6

    def test_correspondences_deterministic(self):
        scene = generate_scene(4, 100, 0.01, 0.3, seed=37)
        a = scene_correspondences(scene, temperature=0.02)
        b = scene_correspondences(scene, temperature=0.02)
        assert set(a) == set(b)
        for pair in a:
            assert np.array_equal(a[pair].source_pts, b[pair].source_pts)
            assert np.array_equal(a[pair].target_pts, b[pair].target_pts)
