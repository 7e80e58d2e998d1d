import numpy as np
import pytest

from mvreg import PipelineConfig, build_correspondences, invert, register_correspondences
from mvreg.geometry import relative_motions
from mvreg.synthetic import generate_scene, scene_correspondences

from conftest import rotation_gap_deg


def true_relative(scene, i, j):
    """The ground-truth relative motion M_j^-1 M_i of scans i and j, 4 x 4."""
    truth = np.stack([m.matrix for m in scene.ground_truth])
    return relative_motions(truth, [(i, j)])[0]


def assert_scenes_equal(a, b):
    assert a.edges == b.edges
    assert a.edge_labels == b.edge_labels
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
        assert set(scene.edge_labels) == set(scene.edges)
        assert set(scene.edge_labels.values()) <= {"inlier", "outlier"}
        assert set(scene.corruptions) == {
            p for p, label in scene.edge_labels.items() if label == "outlier"
        }

    def test_outlier_fraction_is_respected(self):
        scene = generate_scene(8, 100, 0.01, 0.25, seed=9)
        n_out = sum(1 for v in scene.edge_labels.values() if v == "outlier")
        assert n_out == round(0.25 * len(scene.edges))

    def test_all_edges_corrupted_at_fraction_one(self):
        scene = generate_scene(3, 50, 0.0, 1.0, seed=2)
        assert len(scene.edges) >= 2
        assert all(v == "outlier" for v in scene.edge_labels.values())

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
        for pair, label in scene.edge_labels.items():
            truth = true_relative(scene, *pair)
            result = register_correspondences(corr[pair], EXACT_CFG)
            angle = rotation_gap_deg(result.motion.rotation, truth[:3, :3])
            if label == "inlier":
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
