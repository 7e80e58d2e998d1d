import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import mvreg.sync
from mvreg import (
    DegenerateMatrix,
    DisconnectedGraph,
    EigenSolverFailure,
    PoseGraph,
    RigidMotion,
    Rotation3,
    invert,
    is_connected,
    rotation_sync,
    transf_sync,
    translation_objective,
    translation_sync,
)
from mvreg.geometry import relative_motions
from mvreg.sync import SyncResult
from mvreg.synthetic import random_motion, random_rotation, rotation_about_axis

from conftest import rebuilt, rotation_gap_deg


def noise_motion(rng, rot_sigma, trans_sigma):
    axis = rng.normal(size=3)
    angle = rot_sigma * rng.normal()
    return RigidMotion(
        rotation_about_axis(axis, angle), trans_sigma * rng.normal(size=3)
    )


def stack(motions):
    return np.stack([m.matrix for m in motions])


def graph_from_truth(truth, pairs, confidences=None, rng=None, rot_sigma=0.0, trans_sigma=0.0):
    """Pose graph whose edge (i, j) measures the i -> j relative motion."""
    motions = relative_motions(stack(truth), pairs)
    if rot_sigma or trans_sigma:
        motions = stack([noise_motion(rng, rot_sigma, trans_sigma) for _ in pairs]) @ motions
    c = [0.9] * len(pairs) if confidences is None else confidences
    return PoseGraph(len(truth), pairs, motions, c)


def subgraph(g, rows):
    """The graph of the given rows of g, every column kept."""
    columns = ("pairs", "motions", "c_local", "c_global", "c_fused", "active")
    return PoseGraph(g.node_count, *(getattr(g, name)[rows] for name in columns))


def gauge_fixed(truth):
    """Ground-truth absolutes re-expressed so node 0 carries the identity, (n, 4, 4)."""
    return invert(truth[0]).matrix @ stack(truth)


def all_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def random_truth(rng, n):
    return [random_motion(rng) for _ in range(n)]


def ring_pairs(n):
    return [(k, k + 1) for k in range(n - 1)] + [(0, n - 1)]


def ring_k_pairs(n, k):
    """Each node linked to the next k on a ring, as sorted pairs."""
    return sorted({tuple(sorted((a, (a + d) % n))) for a in range(n) for d in range(1, k + 1)})


def grid_pairs(side):
    return [(v, v + 1) for v in range(side * side) if (v + 1) % side] + [
        (v, v + side) for v in range(side * (side - 1))
    ]


def star_pairs(n):
    return [(0, k) for k in range(1, n)]


def sparse_pairs(n, extra, seed):
    """A random tree on n nodes (each node after 0 linked to an earlier one)
    plus `extra` random chords, as sorted pairs."""
    rng = np.random.default_rng(seed)
    pairs = {(int(rng.integers(v)), v) for v in range(1, n)}
    while len(pairs) < n - 1 + extra:
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        pairs.add((i, j))
    return sorted(pairs)


@pytest.fixture
def iterative(monkeypatch):
    """Force the subspace iteration for every Laplacian size; the list it
    returns records, per call, whether the iteration fell back to the full eigh."""
    fell_back = []
    solve = mvreg.sync._subspace_iteration

    def recording(lap, *args):
        found = solve(lap, *args)
        fell_back.append(found is None)
        return found

    monkeypatch.setattr(mvreg.sync, "DENSE_MAX_SIZE", 0)
    monkeypatch.setattr(mvreg.sync, "_subspace_iteration", recording)
    return fell_back


def normal_matrix_translations(g, rotations):
    """Reference translations from the 3n x 3n normal matrix kron(L, I3):
    its pseudoinverse applied to the stacked right-hand side, then shifted so
    that t_0 = 0."""
    n = g.node_count
    lap = np.zeros((n, n))
    rhs = np.zeros((n, 3))
    for (i, j), motion, c in zip(g.pairs[g.active], g.motions[g.active], g.c_fused[g.active]):
        lap[[i, j], [i, j]] += c
        lap[[i, j], [j, i]] -= c
        projected = c * (rotations[j] @ motion[:3, 3])
        rhs[i] += projected
        rhs[j] -= projected
    t = (np.linalg.pinv(np.kron(lap, np.eye(3))) @ rhs.ravel()).reshape(n, 3)
    return t - t[0]


class TestRotationSync:
    def test_two_nodes_identity_measurement(self):
        g = PoseGraph(2, [(0, 1)], [np.eye(4)], [0.9])
        rots = rotation_sync(g)
        assert rots.shape == (2, 3, 3)
        for r in rots:
            assert np.linalg.norm(r - np.eye(3)) < 1e-9

    def test_noise_free_complete_graph(self):
        rng = np.random.default_rng(0)
        truth = random_truth(rng, 5)
        g = graph_from_truth(truth, all_pairs(5))
        rots = rotation_sync(g)
        expected = gauge_fixed(truth)
        worst = max(
            rotation_gap_deg(r, e[:3, :3]) for r, e in zip(rots, expected)
        )
        assert worst < np.degrees(1e-6)

    def test_anchor_node_is_identity(self):
        rng = np.random.default_rng(1)
        truth = random_truth(rng, 6)
        g = graph_from_truth(truth, all_pairs(6), rng=rng, rot_sigma=0.02, trans_sigma=0.01)
        rots = rotation_sync(g)
        assert np.array_equal(rots[0], np.eye(3))

    def test_zero_confidence_edge_equals_removed_edge(self):
        rng = np.random.default_rng(2)
        truth = random_truth(rng, 5)
        pairs = all_pairs(5)
        noisy = graph_from_truth(truth, pairs, rng=rng, rot_sigma=0.05, trans_sigma=0.02)
        # the same graph, except the last edge carries zero confidence /
        # is absent entirely
        last = len(pairs) - 1
        zeroed = rebuilt(noisy, [last], c_local=[0.0], c_fused=[0.0])
        removed = subgraph(noisy, slice(last))
        rz, rr = rotation_sync(zeroed), rotation_sync(removed)
        for a, b in zip(rz, rr):
            assert np.linalg.norm(a - b) < 1e-9
        tz = translation_sync(zeroed, rz)
        tr = translation_sync(removed, rr)
        assert max(np.linalg.norm(a - b) for a, b in zip(tz, tr)) < 1e-9

    def test_null_space_dimension_of_consistent_laplacian(self):
        # for consistent measurements, the stacked true rotations annihilate
        # the quadratic form sum_e c |R_j x_j - R_ij R_i x_i|^2, so exactly
        # three eigenvalues vanish relative to the fourth
        rng = np.random.default_rng(3)
        truth = random_truth(rng, 8)
        g = graph_from_truth(truth, all_pairs(8))
        n = g.node_count
        lap = np.zeros((3 * n, 3 * n))
        for (i, j), motion, c in zip(g.pairs, g.motions, g.c_fused):
            rel = motion[:3, :3]
            si, sj = 3 * i, 3 * j
            lap[si:si + 3, sj:sj + 3] -= c * rel.T
            lap[sj:sj + 3, si:si + 3] -= c * rel
            lap[si:si + 3, si:si + 3] += c * np.eye(3)
            lap[sj:sj + 3, sj:sj + 3] += c * np.eye(3)
        vals = np.linalg.eigvalsh(lap)
        assert np.all(np.abs(vals[:3]) < 1e-9 * vals[3])
        # gauge basis: columns of stacked R_i^T lie in the null space
        stack = np.vstack([m.rotation.m.T for m in truth])
        for col in stack.T:
            assert col @ lap @ col < 1e-18 * vals[3] * (col @ col) + 1e-12

    def test_disconnected_graph_raises(self):
        rng = np.random.default_rng(4)
        m = random_motion(rng)
        g = PoseGraph(4, [(0, 1), (2, 3)], [m.matrix] * 2, [0.9, 0.9])
        with pytest.raises(DisconnectedGraph):
            rotation_sync(g)


@pytest.mark.usefixtures("iterative")
class TestRotationSyncIterative(TestRotationSync):
    """TestRotationSync with the subspace iteration forced."""


class TestTranslationSync:
    def test_identity_rotations_recover_offsets(self):
        offsets = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 2.0, 0.0], [0.0, 2.0, 3.0]])
        truth = [RigidMotion(Rotation3.identity(), t) for t in offsets]
        g = graph_from_truth(truth, [(0, 1), (1, 2), (2, 3), (0, 3)])
        rots = np.tile(np.eye(3), (4, 1, 1))
        t = translation_sync(g, rots)
        assert t.shape == (4, 3)
        assert np.allclose(np.array(t), offsets, atol=1e-9)

    def test_noise_free_objective_vanishes(self):
        rng = np.random.default_rng(5)
        truth = random_truth(rng, 6)
        g = graph_from_truth(truth, all_pairs(6))
        rots = rotation_sync(g)
        t = translation_sync(g, rots)
        assert translation_objective(g, rots, t) < 1e-12

    def test_anchor_translation_is_zero(self):
        rng = np.random.default_rng(6)
        truth = random_truth(rng, 5)
        g = graph_from_truth(truth, all_pairs(5), rng=rng, rot_sigma=0.03, trans_sigma=0.05)
        rots = rotation_sync(g)
        t = translation_sync(g, rots)
        assert np.linalg.norm(t[0]) == 0.0

    def test_solution_is_stationary_under_noise(self):
        rng = np.random.default_rng(7)
        truth = random_truth(rng, 6)
        g = graph_from_truth(truth, all_pairs(6), rng=rng, rot_sigma=0.05, trans_sigma=0.05)
        rots = rotation_sync(g)
        t = np.array(translation_sync(g, rots))
        base = translation_objective(g, rots, t)
        scale = max(base, 1.0)
        eps = 1e-6
        for k in range(t.size):
            d = np.zeros(t.size)
            d[k] = eps
            plus = translation_objective(g, rots, t.ravel() + d)
            minus = translation_objective(g, rots, t.ravel() - d)
            assert abs(plus - minus) / (2 * eps) < 1e-6 * scale

    def test_no_perturbation_improves_solution(self):
        rng = np.random.default_rng(8)
        truth = random_truth(rng, 5)
        g = graph_from_truth(truth, all_pairs(5), rng=rng, rot_sigma=0.05, trans_sigma=0.05)
        rots = rotation_sync(g)
        t = np.array(translation_sync(g, rots)).ravel()
        base = translation_objective(g, rots, t)
        for _ in range(20):
            delta = 1e-3 * rng.normal(size=t.size)
            assert translation_objective(g, rots, t + delta) >= base - 1e-12

    @pytest.mark.parametrize("n, pairs_of", [(7, all_pairs), (15, ring_pairs)])
    def test_matches_normal_matrix_pseudoinverse(self, n, pairs_of):
        rng = np.random.default_rng(n)
        truth = random_truth(rng, n)
        pairs = pairs_of(n)
        confidences = rng.uniform(0.05, 1.0, size=len(pairs))
        g = graph_from_truth(truth, pairs, confidences, rng=rng, rot_sigma=0.05, trans_sigma=0.05)
        rots = rotation_sync(g)
        t = np.array(translation_sync(g, rots))
        assert np.max(np.abs(t - normal_matrix_translations(g, rots))) < 1e-9

    def test_singular_anchored_laplacian_is_typed(self):
        # node 2 has no edge, so the anchored Laplacian is singular; the
        # public solvers reject such a graph before solving, hence the
        # direct call
        pairs = np.array([[0, 1]])
        rotations = np.tile(np.eye(3), (3, 1, 1))
        with pytest.raises(DegenerateMatrix, match="translation"):
            mvreg.sync._translations(3, pairs, np.ones((1, 3)), np.array([0.9]), rotations)

    def test_rotations_need_one_matrix_per_node(self):
        rng = np.random.default_rng(9)
        g = graph_from_truth(random_truth(rng, 3), all_pairs(3))
        for bad in (np.eye(3), np.tile(np.eye(3), (2, 1, 1))):
            with pytest.raises(ValueError, match="3 x 3 rotations"):
                translation_sync(g, bad)
            with pytest.raises(ValueError, match="3 x 3 rotations"):
                translation_objective(g, bad, np.zeros((3, 3)))

    def test_disconnected_graph_raises(self):
        rng = np.random.default_rng(9)
        m = random_motion(rng)
        g = PoseGraph(3, [(0, 1)], [m.matrix], [0.9])
        with pytest.raises(DisconnectedGraph):
            translation_sync(g, np.tile(np.eye(3), (3, 1, 1)))


class TestTransfSync:
    def test_inactive_rows_keep_their_confidences(self):
        # the refreshed confidences go to the active rows, in order; an
        # inactive row in the middle keeps its own
        rng = np.random.default_rng(16)
        truth = random_truth(rng, 5)
        g = graph_from_truth(truth, all_pairs(5), rng=rng, rot_sigma=0.04, trans_sigma=0.04)
        g = rebuilt(g, [2], active=[False], c_global=[0.7])
        result = transf_sync(g, rounds=2)
        alone = transf_sync(subgraph(g, g.active), rounds=2)
        assert result.graph.c_global[2] == 0.7 and result.graph.c_fused[2] == g.c_fused[2]
        kept = np.flatnonzero(g.active)
        assert np.array_equal(result.graph.c_global[kept], alone.graph.c_global)
        assert np.array_equal(result.graph.c_fused[kept], alone.graph.c_fused)
        for a, b in zip(result.absolute, alone.absolute):
            assert np.array_equal(a.matrix, b.matrix)

    def test_anchor_pose_is_exactly_the_identity(self):
        # R_0 R_0^T rounds to a few ulp off the identity on this ring
        rng = np.random.default_rng(17)
        truth = random_truth(rng, 160)
        g = graph_from_truth(truth, ring_k_pairs(160, 3), rng=rng, rot_sigma=0.03,
                             trans_sigma=0.03)
        for rounds in (1, 4):
            assert np.array_equal(transf_sync(g, rounds=rounds).poses[0], np.eye(4))

    def test_noise_free_poses_are_a_fixed_point(self):
        rng = np.random.default_rng(10)
        truth = random_truth(rng, 6)
        g = graph_from_truth(truth, all_pairs(6))
        one = transf_sync(g, rounds=1)
        four = transf_sync(g, rounds=4)
        assert four.rounds_completed == 4
        for a, b in zip(one.absolute, four.absolute):
            assert np.linalg.norm(a.matrix - b.matrix) < 1e-9
        expected = gauge_fixed(truth)
        for a, e in zip(four.absolute, expected):
            assert np.linalg.norm(a.matrix - e) < 1e-6

    # 3n = 15 takes the dense eigh; the 160-node ring (3n = 480 rows) the
    # band subspace iteration, in both transf_sync and rotation_sync
    @pytest.mark.parametrize("n, pairs, sigma", [(5, all_pairs(5), 0.05),
                                                 (160, ring_k_pairs(160, 3), 0.03)],
                             ids=["complete5", "ring160"])
    def test_single_round_matches_plain_syncs(self, monkeypatch, n, pairs, sigma):
        rng = np.random.default_rng(11)
        truth = random_truth(rng, n)
        g = graph_from_truth(truth, pairs, rng=rng, rot_sigma=sigma, trans_sigma=sigma)
        iterate, converged = mvreg.sync._subspace_iteration, []

        def recording(*args):
            found = iterate(*args)
            converged.append(found is not None)
            return found

        monkeypatch.setattr(mvreg.sync, "_subspace_iteration", recording)
        result = transf_sync(g, rounds=1)
        rots = rotation_sync(g)
        trans = translation_sync(g, rots)
        assert converged == ([True, True] if 3 * n > mvreg.sync.DENSE_MAX_SIZE else [])
        for a, r, t in zip(result.absolute, rots, trans):
            assert np.linalg.norm(a.rotation.m - r) == 0.0
            assert np.linalg.norm(a.translation - t) == 0.0

    def test_outlier_edges_lose_global_confidence(self):
        rng = np.random.default_rng(12)
        truth = random_truth(rng, 10)
        pairs = all_pairs(10)
        g = graph_from_truth(truth, pairs, rng=rng, rot_sigma=0.01, trans_sigma=0.01)
        n_out = len(pairs) // 5
        outliers = np.sort(rng.choice(len(pairs), size=n_out, replace=False))
        motions = [random_motion(rng, translation_scale=3.0).matrix for _ in outliers]
        result = transf_sync(rebuilt(g, outliers, motions=motions), rounds=4)
        c_global = result.graph.c_global
        inliers = np.setdiff1d(np.arange(len(pairs)), outliers)
        assert np.median(c_global[outliers]) < 0.5 * np.median(c_global[inliers])

    def test_local_confidences_held_fixed(self):
        rng = np.random.default_rng(13)
        truth = random_truth(rng, 5)
        g = graph_from_truth(truth, all_pairs(5), rng=rng, rot_sigma=0.05, trans_sigma=0.05)
        result = transf_sync(g, rounds=3)
        assert np.array_equal(result.graph.c_local, g.c_local)

    def test_gauge_invariance(self):
        # re-expressing the ground truth in a different world frame leaves
        # the anchored solution unchanged
        rng = np.random.default_rng(14)
        base_truth = random_truth(rng, 6)
        pairs = all_pairs(6)
        noise = [noise_motion(rng, 0.02, 0.02) for _ in pairs]

        def solve(truth):
            motions = stack(noise) @ relative_motions(stack(truth), pairs)
            return transf_sync(PoseGraph(6, pairs, motions, [0.9] * len(pairs)), rounds=2)

        reference = solve(base_truth)
        for _ in range(5):
            gauge = random_motion(rng)
            moved = [RigidMotion.from_matrix(gauge.matrix @ m.matrix) for m in base_truth]
            shifted = solve(moved)
            for a, b in zip(reference.absolute, shifted.absolute):
                assert np.linalg.norm(a.matrix - b.matrix) < 1e-9

    def test_confidence_scale_invariance(self):
        # multiplying every fused confidence by the same constant rescales
        # the quadratic forms without moving their minimizers
        rng = np.random.default_rng(15)
        truth = random_truth(rng, 5)
        g = graph_from_truth(truth, all_pairs(5), rng=rng, rot_sigma=0.04, trans_sigma=0.04)
        halved = replace(g, c_fused=0.5 * g.c_fused)
        ra, rb = rotation_sync(g), rotation_sync(halved)
        for a, b in zip(ra, rb):
            assert np.linalg.norm(a - b) < 1e-9
        ta, tb = translation_sync(g, ra), translation_sync(halved, ra)
        assert max(np.linalg.norm(a - b) for a, b in zip(ta, tb)) < 1e-9

    def test_diagnostics(self):
        rng = np.random.default_rng(16)
        truth = random_truth(rng, 7)
        g = graph_from_truth(truth, all_pairs(7))
        result = transf_sync(g, rounds=2)
        assert result.rotation_eigengap > 0.1
        assert result.translation_rank_deficiency == 3
        assert type(result.translation_rank_deficiency) is int
        assert not result.disconnected
        assert np.linalg.norm(result.absolute[0].matrix - np.eye(4)) < 1e-12

    def test_rank_deficiency_is_a_class_constant(self):
        # no constructor argument can set it to anything but 3
        assert SyncResult.translation_rank_deficiency == 3
        assert "translation_rank_deficiency" not in {f.name for f in fields(SyncResult)}
        rng = np.random.default_rng(16)
        g = graph_from_truth(random_truth(rng, 4), ring_pairs(4))
        with pytest.raises(TypeError):
            SyncResult(np.zeros((4, 4, 4)), 1.0, g, translation_rank_deficiency=2)

    def test_poses_are_a_read_only_array_behind_absolute(self):
        rng = np.random.default_rng(17)
        truth = random_truth(rng, 6)
        g = graph_from_truth(truth, ring_pairs(6), rng=rng, rot_sigma=0.02, trans_sigma=0.02)
        result = transf_sync(g, rounds=2)
        assert result.poses.shape == (6, 4, 4)
        assert not result.poses.flags.writeable
        with pytest.raises(ValueError):
            result.poses[1, 0, 3] = 0.0
        assert np.array_equal(result.poses, np.stack([m.matrix for m in result.absolute]))
        assert result.absolute is result.absolute

    def test_zero_confidence_bridge_is_disconnected(self):
        # two triangles joined only by an edge of zero confidence: the
        # Laplacians have a 6-dimensional null space, so no pose is defined
        rng = np.random.default_rng(21)
        truth = random_truth(rng, 6)
        pairs = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        g = graph_from_truth(truth, pairs, [0.9] * 6 + [0.0])
        with pytest.raises(DisconnectedGraph, match="positive confidence"):
            transf_sync(g)
        with pytest.raises(DisconnectedGraph):
            rotation_sync(g)

    def test_zero_local_confidence_bridge_is_disconnected_after_one_round(self):
        # from the second round on, an edge's weight is fused from c_local and
        # vanishes with it, whatever c_fused the input carries
        rng = np.random.default_rng(22)
        truth = random_truth(rng, 6)
        pairs = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        g = rebuilt(graph_from_truth(truth, pairs), [6], c_local=[0.0])
        assert g.c_fused[6] == 0.9
        assert transf_sync(g, rounds=1).rounds_completed == 1
        with pytest.raises(DisconnectedGraph):
            transf_sync(g, rounds=2)

    def test_rounds_must_be_positive(self):
        rng = np.random.default_rng(17)
        truth = random_truth(rng, 3)
        g = graph_from_truth(truth, all_pairs(3))
        # True is an int equal to 1, but no count
        for rounds in (0, 2.5, np.float64(2.0), True):
            with pytest.raises(ValueError, match="rounds"):
                transf_sync(g, rounds=rounds)
        completed = transf_sync(g, rounds=np.int64(2)).rounds_completed
        assert completed == 2 and type(completed) is int

    def test_default_is_four_rounds(self):
        # the count the pipeline's outer loop runs, once PipelineConfig.sync_rounds
        rng = np.random.default_rng(17)
        g = graph_from_truth(random_truth(rng, 3), all_pairs(3))
        default = transf_sync(g)
        assert default.rounds_completed == 4
        assert default.poses.tobytes() == transf_sync(g, rounds=4).poses.tobytes()

    def test_disconnected_input_raises(self):
        rng = np.random.default_rng(18)
        m = random_motion(rng)
        g = PoseGraph(4, [(0, 1), (2, 3)], [m.matrix] * 2, [0.9, 0.9])
        with pytest.raises(DisconnectedGraph):
            transf_sync(g)

    def test_connectivity_checked_once(self, monkeypatch):
        rng = np.random.default_rng(20)
        truth = random_truth(rng, 6)
        g = graph_from_truth(truth, all_pairs(6), rng=rng, rot_sigma=0.03, trans_sigma=0.03)
        checked = []

        def counting_is_connected(graph):
            checked.append(graph)
            return is_connected(graph)

        monkeypatch.setattr(mvreg.sync, "is_connected", counting_is_connected)
        transf_sync(g, rounds=4)
        assert len(checked) == 1

    def test_determinism(self):
        rng = np.random.default_rng(19)
        truth = random_truth(rng, 6)
        g = graph_from_truth(truth, all_pairs(6), rng=rng, rot_sigma=0.03, trans_sigma=0.03)
        a = transf_sync(g, rounds=3)
        b = transf_sync(g, rounds=3)
        for ma, mb in zip(a.absolute, b.absolute):
            assert np.array_equal(ma.matrix, mb.matrix)
        assert a.rotation_eigengap == b.rotation_eigengap


@pytest.mark.usefixtures("iterative")
class TestTransfSyncIterative(TestTransfSync):
    """TestTransfSync with the subspace iteration forced."""


def oracle_graph(kind, noisy, seed, uniform=False):
    """Graph of the given shape, with non-uniform confidences unless uniform."""
    n, pairs = {
        "ring1": (120, ring_pairs(120)),
        "ring3": (120, ring_k_pairs(120, 3)),
        # 14 band blocks of 9 nodes: the last one holds 8 and is padded
        "padded_ring": (125, ring_k_pairs(125, 3)),
        "grid": (400, grid_pairs(20)),
        "star": (60, star_pairs(60)),
        "complete": (30, all_pairs(30)),
        "sparse": (150, sparse_pairs(150, 150, seed=7)),
    }[kind]
    rng = np.random.default_rng(seed)
    truth = random_truth(rng, n)
    confidences = np.full(len(pairs), 0.9) if uniform else rng.uniform(0.05, 1.0, size=len(pairs))
    sigma = 0.03 if noisy else 0.0
    return graph_from_truth(truth, pairs, confidences, rng=rng, rot_sigma=sigma, trans_sigma=sigma)


BAND_KINDS = ["ring1", "ring3", "padded_ring", "grid", "star", "complete", "sparse"]


def dense_and_iterative(g, monkeypatch):
    """One transf_sync round on the full eigh, then one with the iteration forced."""
    monkeypatch.setattr(mvreg.sync, "DENSE_MAX_SIZE", 10**9)
    dense = transf_sync(g, rounds=1)
    monkeypatch.setattr(mvreg.sync, "DENSE_MAX_SIZE", 0)
    return dense, transf_sync(g, rounds=1)


def assert_same_solution(a, b, tol=1e-9):
    assert max(np.max(np.abs(x.matrix - y.matrix)) for x, y in zip(a.absolute, b.absolute)) <= tol
    assert abs(a.rotation_eigengap - b.rotation_eigengap) <= tol * a.rotation_eigengap


class TestPartialEigensolver:
    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("kind",
                             ["ring1", "ring3", "padded_ring", "grid", "star", "complete"])
    def test_matches_full_eigh(self, kind, noisy, iterative, monkeypatch):
        g = oracle_graph(kind, noisy, seed=len(kind) + noisy)
        dense, iter_result = dense_and_iterative(g, monkeypatch)
        assert_same_solution(dense, iter_result)
        # on rings and grids the eigenvalues below lambda_17 are spread enough
        # for the panel: the iteration itself must have converged
        if kind in ("ring1", "ring3", "padded_ring", "grid"):
            assert iterative == [False]

    @pytest.mark.parametrize("kind", ["star", "complete"])
    def test_clustered_spectrum_falls_back(self, kind, iterative, monkeypatch):
        # at equal confidences, a star's or a complete graph's eigenvalues
        # above the null space form one cluster wider than the panel, which
        # noise splits slightly, so the iteration cannot isolate lambda_4; it
        # must notice within a few sweeps and hand over to the full eigh
        g = oracle_graph(kind, noisy=True, seed=30, uniform=True)
        calls = []
        solve = mvreg.sync._shift_invert

        def counting(lap, shift, *args):
            inverse = solve(lap, shift, *args)

            def counted(x):
                calls.append(1)
                return inverse(x)

            return counted

        monkeypatch.setattr(mvreg.sync, "_shift_invert", counting)
        dense, iter_result = dense_and_iterative(g, monkeypatch)
        assert iterative == [True]
        assert len(calls) <= 3
        assert_same_solution(dense, iter_result, tol=0.0)

    def test_repeated_calls_are_bit_identical(self, iterative):
        g = oracle_graph("ring3", noisy=True, seed=31)
        a = transf_sync(g, rounds=3)
        b = transf_sync(g, rounds=3)
        assert iterative == [False] * 6
        for ma, mb in zip(a.absolute, b.absolute):
            assert np.array_equal(ma.matrix, mb.matrix)
        assert a.rotation_eigengap == b.rotation_eigengap

    def test_finds_smallest_eigenpairs_and_leaves_laplacian_unchanged(self, monkeypatch):
        checked = []
        solve = mvreg.sync._subspace_iteration

        def checking(lap, *args):
            blocks = lap.diagonal.copy(), lap.lower.copy()
            before = dense_from_blocks(lap)
            values, vectors, panel = solve(lap, *args)
            assert np.array_equal(lap.diagonal, blocks[0]) and np.array_equal(lap.lower, blocks[1])
            tol = 1e-12 * np.linalg.norm(before, np.inf)
            assert np.allclose(values, np.linalg.eigvalsh(before)[:4], rtol=0.0, atol=tol)
            assert np.allclose(vectors.T @ vectors, np.eye(4), rtol=0.0, atol=1e-12)
            checked.append(before.shape)
            return values, vectors, panel

        monkeypatch.setattr(mvreg.sync, "DENSE_MAX_SIZE", 0)
        monkeypatch.setattr(mvreg.sync, "_subspace_iteration", checking)
        transf_sync(oracle_graph("ring3", noisy=True, seed=32), rounds=1)
        assert checked == [(360, 360)]

    def test_cholesky_failure_is_typed(self):
        lap = mvreg.sync._BandLaplacian(np.arange(60), -np.eye(60)[None], np.zeros((0, 60, 60)))
        with pytest.raises(EigenSolverFailure, match="Cholesky"):
            mvreg.sync._subspace_iteration(lap)

    def test_corrupted_ring_falls_back_to_eigh(self, monkeypatch):
        # with a fifth of the edges measuring random rotations, lambda_4 sits
        # in a crowded spectrum and the band iteration cannot reach the
        # tolerance: it must factor once, give up and hand over to the full
        # eigh, which then gives exactly the forced-eigh solution
        g = noisy_ring(200, seed=0, corrupted=0.2)
        assert 3 * g.node_count > mvreg.sync.DENSE_MAX_SIZE
        _, block = mvreg.sync._band(g.node_count, g.pairs)
        fell_back, shapes = [], []
        iterate = mvreg.sync._subspace_iteration
        cholesky = np.linalg.cholesky

        def recording(lap, *args):
            found = iterate(lap, *args)
            fell_back.append(found is None)
            return found

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(mvreg.sync, "_subspace_iteration", recording)
        monkeypatch.setattr(np.linalg, "cholesky", counting)
        band = transf_sync(g, rounds=1)
        assert fell_back == [True]
        assert shapes == [(block, block)] * (3 * g.node_count // block)
        monkeypatch.setattr(mvreg.sync, "DENSE_MAX_SIZE", 10**9)
        shapes.clear()
        dense = transf_sync(g, rounds=1)
        assert fell_back == [True] and shapes == []
        assert_same_solution(dense, band, tol=0.0)

    @pytest.mark.xfail(raises=DegenerateMatrix,
                       reason="a node's block of the bottom eigenvectors is near rank one")
    def test_corrupted_ring_of_400_returns_finite_poses(self):
        result = transf_sync(noisy_ring(400, seed=2, corrupted=0.2), rounds=1)
        assert np.isfinite(result.poses).all()


def band_laplacian(kind, shuffled):
    """The band, the block Laplacian and its edge arrays for a noisy graph of
    the given kind whose node labels are shuffled when `shuffled` is set, and
    the random generator that shuffled them."""
    g = oracle_graph(kind, noisy=True, seed=40)
    n = g.node_count
    pairs, motions, c = mvreg.sync._active_arrays(g)
    rng = np.random.default_rng(41)
    if shuffled:
        pairs = rng.permutation(n)[pairs]
    band = mvreg.sync._band(n, pairs)
    lap = mvreg.sync._rotation_laplacian(n, pairs, motions[:, :3, :3], c, band)
    return band, lap, (n, pairs, motions[:, :3, :3], c), rng


def dense_from_blocks(lap):
    """The 3n x 3n Laplacian in node order, put together block by block from
    the band blocks of lap."""
    count, block, _ = lap.diagonal.shape
    band = np.zeros((count * block, count * block))
    for k in range(count):
        rows = slice(k * block, (k + 1) * block)
        band[rows, rows] = lap.diagonal[k]
        if k:
            above = slice((k - 1) * block, k * block)
            band[rows, above] = lap.lower[k - 1]
            band[above, rows] = lap.lower[k - 1].T
    position = np.argsort(lap.rows)
    return band[np.ix_(position, position)]


def edgewise_laplacian(n, pairs, rot, c):
    """The 3n x 3n rotation Laplacian in node order, filled edge by edge."""
    lap = np.zeros((3 * n, 3 * n))
    degrees = np.zeros(n)
    for (i, j), r, w in zip(pairs, rot, c):
        lap[3 * i : 3 * i + 3, 3 * j : 3 * j + 3] = -(w * r).T
        lap[3 * j : 3 * j + 3, 3 * i : 3 * i + 3] = -(w * r)
        degrees[i] += w
        degrees[j] += w
    lap[np.diag_indices(3 * n)] = np.repeat(degrees, 3)
    return lap


def band_solve_and_reference(kind, shuffled, shift_rel):
    """The band shift-invert solve of a 16-column panel and the same solve
    through a dense Cholesky factor, on a noisy graph of the given kind whose
    node labels are shuffled when `shuffled` is set."""
    band, lap, (n, *_), rng = band_laplacian(kind, shuffled)
    dense = dense_from_blocks(lap)
    shift = shift_rel * np.linalg.norm(dense, np.inf)
    x = rng.standard_normal((3 * n, 16))
    y = lap.from_band(mvreg.sync._shift_invert(lap, shift)(lap.to_band(x)))
    shifted = dense + shift * np.eye(3 * n)
    low = np.linalg.cholesky(shifted)
    return band, shifted, x, y, np.linalg.solve(low.T, np.linalg.solve(low, x))


def noisy_ring(n, seed, corrupted=0.0):
    """A ring of n nodes, each linked to the next 3, with random truth, 0.01
    noise and random confidences; the given share of its edges measures a
    random rotation instead."""
    pairs = ring_k_pairs(n, 3)
    rng = np.random.default_rng(seed)
    confidences = rng.uniform(0.05, 1.0, size=len(pairs))
    g = graph_from_truth(random_truth(rng, n), pairs, confidences, rng=rng,
                         rot_sigma=0.01, trans_sigma=0.01)
    motions = g.motions.copy()
    for e in rng.choice(len(pairs), size=int(corrupted * len(pairs)), replace=False):
        motions[e, :3, :3] = random_rotation(rng).m
    return PoseGraph(n, pairs, motions, confidences)


class TestBandLaplacian:
    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("kind", BAND_KINDS)
    def test_blocks_hold_the_edgewise_laplacian(self, kind, shuffled):
        # the eigh path sees exactly the matrix an edge-by-edge fill gives
        _, lap, edges, _ = band_laplacian(kind, shuffled)
        expected = edgewise_laplacian(*edges)
        assert np.array_equal(lap.dense(), expected)
        assert np.array_equal(dense_from_blocks(lap), expected)

    @pytest.mark.parametrize("kind", BAND_KINDS)
    def test_product_and_norm_match_the_dense_matrix(self, kind):
        _, lap, (n, *_), rng = band_laplacian(kind, True)
        dense = lap.dense()
        norm = np.linalg.norm(dense, np.inf)
        assert abs(lap.norm() - norm) <= 1e-15 * norm
        x = rng.standard_normal((3 * n, 16))
        product = lap @ lap.to_band(x)
        assert not product[lap.size :].any()
        assert np.allclose(lap.from_band(product), dense @ x, rtol=0.0, atol=1e-13 * norm)
        assert np.array_equal(lap.from_band(lap.to_band(x)), x)


class TestBandFactor:
    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("kind", BAND_KINDS)
    def test_matches_dense_cholesky_solve(self, kind, shuffled):
        # at the solver's own shift of 1e-10 |L| the near-null directions are
        # amplified ~1e10 times, and any two correct factorizations differ
        # there by ~1e-8 relative; a shift of 1e-3 |L| compares the band
        # factor and its substitutions at 1e-9
        band, _, _, y, expected = band_solve_and_reference(kind, shuffled, 1e-3)
        assert np.linalg.norm(y - expected) <= 1e-9 * np.linalg.norm(expected)
        # shuffled labels leave reverse Cuthill-McKee the same band to find
        rows, block = band
        assert np.array_equal(np.sort(rows), np.arange(len(rows)))
        expected_block = {"ring1": 6, "ring3": 24, "padded_ring": 27, "grid": 60, "star": 180,
                          "complete": 90}
        if kind in expected_block:
            assert block == expected_block[kind]

    @pytest.mark.parametrize("kind", BAND_KINDS)
    def test_backward_error_at_solver_shift(self, kind):
        _, shifted, x, y, _ = band_solve_and_reference(kind, True, mvreg.sync.SHIFT)
        residual = np.linalg.norm(shifted @ y - x)
        assert residual <= 1e-14 * np.linalg.norm(shifted, np.inf) * np.linalg.norm(y)

    def test_ring_factor_never_exceeds_one_band_block(self, monkeypatch):
        n = 400
        pairs = ring_k_pairs(n, 3)
        rng = np.random.default_rng(42)
        confidences = rng.uniform(0.05, 1.0, size=len(pairs))
        g = graph_from_truth(random_truth(rng, n), pairs, confidences, rng=rng,
                             rot_sigma=0.01, trans_sigma=0.01)
        shapes = []
        cholesky = np.linalg.cholesky

        def recording(a, *args, **kwargs):
            shapes.append(a.shape)
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", recording)
        transf_sync(g, rounds=2)
        _, block = mvreg.sync._band(n, np.array(pairs))
        assert block == 24
        assert len(shapes) == 2 * 50
        assert max(max(shape) for shape in shapes) <= block

    def test_ring_sync_builds_no_dense_laplacian(self):
        # the dense 1200 x 1200 Laplacian alone would take 11.5 MB
        g = noisy_ring(400, seed=42)
        transf_sync(g, rounds=1)
        tracemalloc.start()
        try:
            transf_sync(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_warm_start_saves_sweeps(self, iterative, monkeypatch):
        g = oracle_graph("ring3", noisy=True, seed=33)
        sweeps = []
        solve = mvreg.sync._shift_invert

        def counting(lap, shift, *args):
            inverse = solve(lap, shift, *args)
            sweeps.append(0)

            def counted(x):
                sweeps[-1] += 1
                return inverse(x)

            return counted

        monkeypatch.setattr(mvreg.sync, "_shift_invert", counting)
        warm = transf_sync(g, rounds=3)
        assert iterative == [False] * 3
        assert sweeps[1] < sweeps[0] and sweeps[2] < sweeps[0]
        again = transf_sync(g, rounds=3)
        for ma, mb in zip(warm.absolute, again.absolute):
            assert np.array_equal(ma.matrix, mb.matrix)
        assert warm.rotation_eigengap == again.rotation_eigengap

        iterate = mvreg.sync._subspace_iteration

        def cold_start(lap, start=None):
            return iterate(lap)

        monkeypatch.setattr(mvreg.sync, "_subspace_iteration", cold_start)
        sweeps.clear()
        cold = transf_sync(g, rounds=3)
        assert sweeps[1] >= sweeps[0] - 1 and sweeps[2] >= sweeps[0] - 1
        assert_same_solution(warm, cold)


def test_sync_does_not_import_scipy():
    # scipy would add ~28 MB of resident memory to every run; numpy is the
    # only runtime dependency, also on the iterative eigensolver path
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import mvreg, mvreg.sync\n"
        "mvreg.sync.DENSE_MAX_SIZE = 0\n"
        "m = np.eye(4)\n"
        "m[:3, 3] = 1.0\n"
        "pairs = [(i, i + 1) for i in range(7)]\n"
        "mvreg.transf_sync(mvreg.PoseGraph(8, pairs, [m] * 7, [0.9] * 7))\n"
        "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))\n"
    )
    src = str(Path(mvreg.sync.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
