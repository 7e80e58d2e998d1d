import types

import numpy as np
import pytest

import mvreg
import mvreg.graph as graph_mod
import mvreg.pipeline as pipeline_mod
import mvreg.sync as sync_mod
from mvreg import (
    CorrespondenceSet,
    DegenerateConfiguration,
    DisconnectedInput,
    DuplicateEdge,
    IndexOutOfRange,
    PipelineConfig,
    PointCloud,
    PoseGraph,
    RigidMotion,
    TooFewClouds,
    ZeroWeightSum,
    build_graph,
    invert,
    pairwise_chain_absolute,
    run_multiview,
    run_multiview_from_correspondences,
    transf_sync,
    transform_points,
)
from mvreg.geometry import motion_stack, relative_motions
from mvreg.metrics import motion_errors
from mvreg.pairwise import build_correspondences, register_batch
from mvreg.synthetic import generate_scene, random_motion, scene_correspondences

from conftest import rotation_gap_deg


def shared_scene_clouds(rng, n, points=60):
    """Scans of one shared point set, each expressed in its own frame.

    Features carry the shared coordinates, so cross-scan matching is exact
    and the true motion mapping scan i into scan j is M_j^-1 . M_i.
    """
    base = rng.uniform(-1.0, 1.0, size=(points, 3))
    truth = [random_motion(rng) for _ in range(n)]
    clouds = [
        PointCloud(transform_points(invert(m), base), base.copy()) for m in truth
    ]
    return clouds, truth


def edge_errors(motions, scene, pairs):
    """Rotation and translation errors of each pair's motion against the
    scene's true relative motion."""
    truth = relative_motions(np.stack([m.matrix for m in scene.ground_truth]), pairs)
    return motion_errors(motions, truth)


def gauge_fixed(truth):
    """The (n, 4, 4) poses M_0^-1 M_i: truth in the gauge with pose 0 the identity."""
    g0 = invert(truth[0]).matrix
    return np.stack([g0 @ m.matrix for m in truth])


def chain_graph(truth):
    """Graph of the consistent relatives along the chain 0-1-...-(n-1)."""
    k = len(truth) - 1
    pairs = [(v, v + 1) for v in range(k)]
    motions = relative_motions(np.stack([m.matrix for m in truth]), pairs)
    return PoseGraph(k + 1, pairs, motions, [0.9] * k)


class TestPairwiseChain:
    def test_consistent_chain_recovers_truth(self):
        rng = np.random.default_rng(3)
        truth = [random_motion(rng) for _ in range(5)]
        absolute = pairwise_chain_absolute(chain_graph(truth))
        expected = gauge_fixed(truth)
        for a, e in zip(absolute, expected):
            assert np.linalg.norm(a.matrix - e) < 1e-9

    def test_anchor_is_identity(self):
        rng = np.random.default_rng(4)
        truth = [random_motion(rng) for _ in range(4)]
        absolute = pairwise_chain_absolute(chain_graph(truth))
        assert np.array_equal(absolute[0].matrix, np.eye(4))

    def test_matches_object_chain_with_tree_edges_in_both_directions(self):
        # independent random motions, so every cycle is inconsistent and the
        # result depends on which tree is chained. Edge (0, 1) is inactive and
        # (1, 4) closes a cycle; the tree from node 0 is 0-3, 0-2, 3-1, 2-4,
        # and its edge 3-1 runs against the stored (1, 3) direction
        rng = np.random.default_rng(6)
        pairs = ((0, 1), (0, 3), (1, 3), (0, 2), (2, 4), (1, 4))
        motions = {pair: random_motion(rng) for pair in pairs}
        expected = [np.eye(4)] * 5
        for v, u in ((3, 0), (2, 0), (1, 3), (4, 2)):
            # measured u -> v, so M_v = M_u . M_uv^-1
            uv = motions[u, v] if u < v else invert(motions[v, u])
            expected[v] = expected[u] @ invert(uv).matrix
        graph = PoseGraph(5, pairs, [m.matrix for m in motions.values()], [0.9] * 6,
                          active=[pair != (0, 1) for pair in pairs])
        absolute = pairwise_chain_absolute(graph)
        assert all(isinstance(m, RigidMotion) for m in absolute)
        for a, e in zip(absolute, expected, strict=True):
            assert np.abs(a.matrix - e).max() <= 1e-12

    def test_disconnected_raises(self):
        rng = np.random.default_rng(5)
        m = random_motion(rng)
        g = PoseGraph(4, [(0, 1), (2, 3)], [m.matrix] * 2, [0.9, 0.9])
        with pytest.raises(DisconnectedInput):
            pairwise_chain_absolute(g)


class TestRunMultiviewBasics:
    def test_three_identical_clouds_register_to_identity(self):
        rng = np.random.default_rng(6)
        base = rng.uniform(-1, 1, size=(40, 3))
        clouds = [PointCloud(base.copy(), base.copy()) for _ in range(3)]
        result, trace = run_multiview(clouds, PipelineConfig(temperature=1e-6))
        for m in result.absolute:
            assert np.linalg.norm(m.matrix - np.eye(4)) < 1e-9
        assert not result.disconnected
        # nothing to prune, so the loop stops after its first iteration
        assert len(trace.iterations) == 1 and trace.stop_reason == "converged"

    def test_readme_example_anchor_is_exactly_the_identity(self):
        # the README's library example, line for line
        rng = np.random.default_rng(0)
        base = rng.uniform(-1.0, 1.0, size=(500, 3))
        truth = [RigidMotion.identity()] + [random_motion(rng) for _ in range(2)]
        clouds = [PointCloud(transform_points(invert(m), base), base.copy()) for m in truth]
        result, trace = run_multiview(clouds, PipelineConfig(temperature=1e-6, blend=1.0))
        assert np.array_equal(result.poses[0], np.eye(4))
        assert not result.disconnected
        assert trace.stop_reason == "converged"
        for it in trace.iterations:
            assert np.array_equal(it.poses[0], np.eye(4))

    def test_noise_free_scans_recover_truth(self):
        rng = np.random.default_rng(7)
        clouds, truth = shared_scene_clouds(rng, 4)
        result, _ = run_multiview(clouds, PipelineConfig(temperature=1e-6))
        expected = gauge_fixed(truth)
        for a, e in zip(result.absolute, expected):
            assert rotation_gap_deg(a.rotation, e[:3, :3]) < np.degrees(1e-6)
            assert np.linalg.norm(a.translation - e[:3, 3]) < 1e-6

    def test_too_few_clouds(self):
        rng = np.random.default_rng(8)
        clouds, _ = shared_scene_clouds(rng, 2)
        with pytest.raises(TooFewClouds):
            run_multiview(clouds)

    def test_connectivity_out_of_range(self):
        rng = np.random.default_rng(9)
        clouds, _ = shared_scene_clouds(rng, 4)
        cfg = PipelineConfig(connectivity=((0, 1), (1, 2), (2, 3), (0, 5)))
        with pytest.raises(IndexOutOfRange):
            run_multiview(clouds, cfg)

    def test_disconnected_connectivity(self):
        rng = np.random.default_rng(10)
        clouds, _ = shared_scene_clouds(rng, 4)
        cfg = PipelineConfig(temperature=1e-6, connectivity=((0, 1), (2, 3)))
        with pytest.raises(DisconnectedInput):
            run_multiview(clouds, cfg)

    def test_correspondence_keys_validated(self):
        rng = np.random.default_rng(11)
        c = CorrespondenceSet(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)), np.ones(5), np.zeros(5))
        with pytest.raises(IndexOutOfRange):
            run_multiview_from_correspondences({(2, 1): c}, 3)
        with pytest.raises(TooFewClouds):
            run_multiview_from_correspondences({(0, 1): c}, 2)

    @pytest.mark.parametrize(
        "key, n, error",
        [*((key, 3, IndexOutOfRange) for key in [(0, 1.5), (0.0, 1), (0, 1, 2), "01", (False, True)]),
         ((0, 1), 6.0, ValueError), ((0, 1), np.float64(6), ValueError)],
    )
    def test_non_integer_key_fails_before_any_fit(self, monkeypatch, key, n, error):
        rng = np.random.default_rng(12)
        c = CorrespondenceSet(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)), np.ones(5), np.zeros(5))
        calls = []
        monkeypatch.setattr(pipeline_mod, "register_batch", lambda *args: calls.append(args))
        with pytest.raises(error):
            run_multiview_from_correspondences({(0, 2): c, key: c, (1, 2): c}, n)
        assert calls == []

    @pytest.mark.parametrize(
        "bad, error",
        [({(0, 2): "collinear", (1, 2): "zero"}, DegenerateConfiguration),
         ({(0, 2): "zero", (1, 2): "collinear"}, ZeroWeightSum)],
    )
    def test_first_failing_pair_in_sorted_order_raises(self, bad, error):
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(10, 3))
        line = np.outer(np.linspace(0.0, 1.0, 10), [1.0, 1.0, 0.0])
        kinds = {
            "collinear": CorrespondenceSet(line, line + 0.1, np.ones(10), np.zeros(10)),
            "zero": CorrespondenceSet(pts, pts, np.zeros(10), np.zeros(10)),
        }
        # keys in reverse order: the sorted pair order decides, not the dict's
        corr = {key: kinds[kind] for key, kind in sorted(bad.items(), reverse=True)}
        corr[(0, 1)] = CorrespondenceSet(pts, pts + 0.1, np.ones(10), np.zeros(10))
        with pytest.raises(error) as info:
            run_multiview_from_correspondences(corr, 3)
        assert type(info.value) is error

    def test_repeated_connectivity_pair_fails_before_any_correspondences(self, monkeypatch):
        rng = np.random.default_rng(9)
        clouds, _ = shared_scene_clouds(rng, 4)
        calls = []

        def counting(*args):
            calls.append(args)
            return build_correspondences(*args)

        monkeypatch.setattr(pipeline_mod, "build_correspondences", counting)
        cfg = PipelineConfig(connectivity=((0, 1), (1, 2), (2, 3), (1, 0)))
        with pytest.raises(DuplicateEdge):
            run_multiview(clouds, cfg)
        assert calls == []

    def test_solve_builds_no_pose_records_until_absolute_is_read(self, monkeypatch):
        scene = generate_scene(6, 64, 0.01, 0.0, 3)
        calls = []

        def counting(*args):
            calls.append(args)
            return motion_stack(*args)

        monkeypatch.setattr(sync_mod, "motion_stack", counting)
        correspondences = scene_correspondences(scene, PipelineConfig().temperature)
        result, _ = run_multiview_from_correspondences(correspondences, 6)
        assert calls == []
        absolute = result.absolute
        assert len(calls) == 1 and result.absolute is absolute

    def test_solve_checks_the_measured_motions_once(self, monkeypatch):
        # the constructor checks the measured motions; the syncs and prunings
        # of every iteration are the solver's own updates and are not checked
        # again. Iteration 1 prunes the scene's 2 corrupted edges of 10
        scene = generate_scene(5, 150, 0.01, 0.2, 3)
        cfg = PipelineConfig(connectivity=scene.edges)
        sets = scene_correspondences(scene, cfg.temperature)
        checked = []
        check = graph_mod.non_rotations

        def counting(stack):
            checked.append(len(stack))
            return check(stack)

        monkeypatch.setattr(graph_mod, "non_rotations", counting)
        result, trace = run_multiview_from_correspondences(sets, 5, cfg)
        assert [s.active_edges for s in trace.iterations] == [8, 8]
        assert trace.stop_reason == "converged" and not result.disconnected
        assert checked == [10]


@pytest.fixture(scope="module")
def seed0_run():
    """test_07's seed-0 scene and its default run."""
    scene = generate_scene(
        n_scans=30, pts_per_scan=2048, noise_sigma=0.01,
        outlier_edge_fraction=0.2, seed=0,
    )
    cfg = PipelineConfig(connectivity=scene.edges)
    corr = scene_correspondences(scene, cfg.temperature)
    return (scene, *run_multiview_from_correspondences(corr, 30, cfg))


class TestRefinementQuality:
    def test_ten_scan_scene_improves_over_pairwise(self):
        scene = generate_scene(
            n_scans=10, pts_per_scan=400, noise_sigma=0.01,
            outlier_edge_fraction=0.2, seed=42,
        )
        cfg = PipelineConfig(connectivity=scene.edges)
        corr = scene_correspondences(scene, cfg.temperature)
        result, trace = run_multiview_from_correspondences(corr, 10, cfg)
        pairwise, _ = edge_errors(trace.motions, scene, trace.pairs)
        final, _ = edge_errors(
            relative_motions(trace.iterations[-1].poses, trace.pairs), scene, trace.pairs
        )
        assert final.mean() <= np.mean(pairwise)
        assert final.mean() < 5.0

    def test_default_run_ends_connected_and_better_than_its_first_sync(self, seed0_run):
        # the outer loop must keep the graph connected and end with a lower
        # mean rotation error than its first sync
        scene, result, trace = seed0_run
        assert not result.disconnected
        first, last = (
            edge_errors(relative_motions(s.poses, trace.pairs), scene, trace.pairs)[0]
            for s in (trace.iterations[0], trace.iterations[-1])
        )
        assert last.mean() < first.mean()

    def test_default_run_prunes_exactly_the_corrupted_edges(self, seed0_run):
        scene, result, trace = seed0_run
        inactive = [pair for pair, active in zip(trace.pairs, result.graph.active) if not active]
        assert sorted(inactive) == sorted(scene.corruptions)
        assert trace.stop_reason == "converged"

    def test_clean_scene_converges_on_its_first_sync(self):
        # nothing to prune: the loop stops after one iteration, and its poses
        # are those of one synchronization of the first fits, bit for bit
        scene = generate_scene(
            n_scans=8, pts_per_scan=200, noise_sigma=0.01,
            outlier_edge_fraction=0.0, seed=4,
        )
        cfg = PipelineConfig(connectivity=scene.edges)
        corr = scene_correspondences(scene, cfg.temperature)
        result, trace = run_multiview_from_correspondences(corr, 8, cfg)
        pairs = tuple(sorted(corr))
        graph = build_graph(8, pairs, register_batch([corr[p] for p in pairs], cfg))
        assert trace.stop_reason == "converged" and len(trace.iterations) == 1
        assert result.graph.active.all() and not result.disconnected
        assert result.poses.tobytes() == transf_sync(graph).poses.tobytes()

    def test_last_iteration_that_prunes_completes(self, monkeypatch):
        # one outer iteration that prunes the scene's 2 corrupted edges: the
        # loop runs out, and the result is that sync with the pruned graph
        monkeypatch.setattr(pipeline_mod, "OUTER_ITERATIONS", 1)
        scene = generate_scene(5, 150, 0.01, 0.2, 3)
        cfg = PipelineConfig(connectivity=scene.edges)
        result, trace = run_multiview_from_correspondences(
            scene_correspondences(scene, cfg.temperature), 5, cfg)
        assert trace.stop_reason == "completed" and not result.disconnected
        assert int(result.graph.active.sum()) == trace.iterations[0].active_edges == 8
        assert trace.iterations[0].poses is result.poses

    def test_iteration_stats_are_recorded(self):
        scene = generate_scene(
            n_scans=6, pts_per_scan=200, noise_sigma=0.005,
            outlier_edge_fraction=0.0, seed=7,
        )
        cfg = PipelineConfig(connectivity=scene.edges)
        corr = scene_correspondences(scene, cfg.temperature)
        result, trace = run_multiview_from_correspondences(corr, 6, cfg)
        # the trace keeps the measured pairwise motions, read-only, which no
        # iteration changes
        pairs = tuple(sorted(corr))
        measured = build_graph(6, pairs, register_batch([corr[p] for p in pairs], cfg)).motions
        assert trace.pairs == pairs
        assert trace.motions.tobytes() == measured.tobytes()
        assert not trace.motions.flags.writeable
        assert np.array_equal(trace.motions, result.graph.motions)
        assert [s.iteration for s in trace.iterations] == list(range(1, len(trace.iterations) + 1))
        actives = [s.active_edges for s in trace.iterations]
        assert all(a >= b for a, b in zip(actives, actives[1:]))
        for s in trace.iterations:
            assert s.poses.shape == (6, 4, 4)
            rot, _ = edge_errors(relative_motions(s.poses, trace.pairs), scene, trace.pairs)
            assert np.isfinite(rot.mean())

    def test_aggressive_pruning_reports_last_valid_poses(self, monkeypatch):
        # a ring with a pruning ratio of 1, which prunes the half of its noisy
        # edges below the median: pruning disconnects the graph immediately
        # and the first synchronization is reported with the flag set
        monkeypatch.setattr(graph_mod, "PRUNE_RATIO", 1.0)
        rng = np.random.default_rng(13)
        clouds, _ = shared_scene_clouds(rng, 6)
        noisy = [
            PointCloud(c.points + 5e-3 * rng.normal(size=c.points.shape), c.features)
            for c in clouds
        ]
        ring = tuple((k, (k + 1) % 6) for k in range(6))
        strict = PipelineConfig(temperature=1e-6, connectivity=ring)
        result, trace = run_multiview(noisy, strict)
        assert result.disconnected
        assert trace.stop_reason == "pruning_collapse"
        assert len(trace.iterations) == 1
        # the last iteration's poses are the result's, the same read-only array
        assert trace.iterations[-1].poses.tobytes() == result.poses.tobytes()
        assert not trace.iterations[-1].poses.flags.writeable
        monkeypatch.setattr(pipeline_mod, "OUTER_ITERATIONS", 1)
        result_one, _ = run_multiview(noisy, strict)
        for a, b in zip(result.absolute, result_one.absolute):
            assert np.array_equal(a.matrix, b.matrix)

    def test_noise_free_ring_survives_aggressive_pruning(self, monkeypatch):
        # with exact measurements every global confidence stays near 1, so
        # even a 0.99 ratio prunes nothing and the ring converges intact
        monkeypatch.setattr(graph_mod, "PRUNE_RATIO", 0.99)
        rng = np.random.default_rng(14)
        clouds, _ = shared_scene_clouds(rng, 5)
        ring = tuple((k, (k + 1) % 5) for k in range(5))
        cfg = PipelineConfig(temperature=1e-6, connectivity=ring)
        result, trace = run_multiview(clouds, cfg)
        assert not result.disconnected
        assert trace.stop_reason == "converged" and len(trace.iterations) == 1
        assert trace.iterations[-1].active_edges == 5
        assert trace.iterations[-1].poses.tobytes() == result.poses.tobytes()
        monkeypatch.setattr(pipeline_mod, "OUTER_ITERATIONS", 1)
        one, _ = run_multiview(clouds, cfg)
        assert trace.iterations[0].poses.tobytes() == one.poses.tobytes()


class TestPipelineInvariances:
    def test_determinism(self):
        scene = generate_scene(
            n_scans=5, pts_per_scan=150, noise_sigma=0.01,
            outlier_edge_fraction=0.2, seed=3,
        )
        cfg = PipelineConfig(connectivity=scene.edges)
        corr = scene_correspondences(scene, cfg.temperature)
        a, _ = run_multiview_from_correspondences(corr, 5, cfg)
        b, _ = run_multiview_from_correspondences(corr, 5, cfg)
        for ma, mb in zip(a.absolute, b.absolute):
            assert np.array_equal(ma.matrix, mb.matrix)

    def test_global_motion_conjugates_result(self):
        # moving every input cloud by the same rigid motion G conjugates
        # each recovered absolute pose by G
        rng = np.random.default_rng(15)
        clouds, _ = shared_scene_clouds(rng, 4)
        cfg = PipelineConfig(temperature=1e-6)
        base, _ = run_multiview(clouds, cfg)
        g = random_motion(rng)
        moved = [
            PointCloud(transform_points(g, c.points), c.features) for c in clouds
        ]
        shifted, _ = run_multiview(moved, cfg)
        for a, b in zip(base.absolute, shifted.absolute):
            expected = g.matrix @ a.matrix @ invert(g).matrix
            assert np.linalg.norm(b.matrix - expected) < 1e-9

    def test_connectivity_order_is_canonicalized(self):
        rng = np.random.default_rng(16)
        clouds, _ = shared_scene_clouds(rng, 4)
        pairs = ((0, 1), (1, 2), (2, 3), (0, 3))
        swapped = ((1, 0), (2, 1), (3, 2), (3, 0))
        a, _ = run_multiview(clouds, PipelineConfig(temperature=1e-6, connectivity=pairs))
        b, _ = run_multiview(clouds, PipelineConfig(temperature=1e-6, connectivity=swapped))
        for ma, mb in zip(a.absolute, b.absolute):
            assert np.linalg.norm(ma.matrix - mb.matrix) < 1e-9


def test_all_lists_each_public_name_the_package_binds_once():
    # no linter runs on the package: this catches an __all__ entry left
    # behind by a deletion, and an import that __all__ does not export
    namespace = {}
    exec("from mvreg import *", namespace)
    assert len(mvreg.__all__) == len(set(mvreg.__all__))
    bound = {name for name, value in vars(mvreg).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(mvreg.__all__) == bound
