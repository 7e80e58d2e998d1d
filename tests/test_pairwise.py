import copy
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvreg import (
    CorrespondenceSet,
    DegenerateConfiguration,
    DimensionMismatch,
    MissingFeatures,
    PipelineConfig,
    PointCloud,
    RigidMotion,
    ZeroWeightSum,
    build_correspondences,
    invert,
    local_confidence,
    register_batch,
    register_correspondences,
    register_pair,
    residuals,
    robust_reweight,
    transform_points,
    wls_transform,
)
import mvreg.pairwise as pairwise_mod
from mvreg.geometry import relative_motions
from mvreg.graph import build_graph
from mvreg.pairwise import CONF_MIDPOINT
from mvreg.sync import transf_sync
from mvreg.synthetic import generate_scene, random_motion, rotation_about_axis

from conftest import make_feature_cloud, rotation_gap_deg


def one_step(sets, weights, cfg=None):
    """register_batch's fits after one IRLS step, each set rebuilt to start
    from its weights in `weights`."""
    rebuilt = [CorrespondenceSet(c.source_pts, c.target_pts, w) for c, w in zip(sets, weights, strict=True)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairwise_mod, "IRLS_ITERATIONS", 1)
        return register_batch(rebuilt, cfg)


def make_set(rng, n=50, motion=None, weights=None):
    pts = rng.uniform(-1.0, 1.0, size=(n, 3))
    motion = motion or random_motion(rng)
    target = transform_points(motion, pts)
    w = np.ones(n) if weights is None else weights
    return CorrespondenceSet(pts, target, w, np.zeros(n)), motion


class TestCorrespondenceSet:
    def test_validates_weight_range(self):
        with pytest.raises(ValueError):
            CorrespondenceSet(np.zeros((3, 3)), np.zeros((3, 3)), np.array([0.5, 1.5, 0.5]), np.zeros(3))

    def test_validates_negative_residuals(self):
        with pytest.raises(ValueError):
            CorrespondenceSet(np.zeros((3, 3)), np.zeros((3, 3)), np.ones(3), np.array([0.0, -1.0, 0.0]))

    def test_lengths_must_agree(self):
        with pytest.raises(ValueError):
            CorrespondenceSet(np.zeros((3, 3)), np.zeros((4, 3)), np.ones(3), np.zeros(3))

    # the constructor's arguments; the set stores all but residuals
    FIELDS = ("source_pts", "target_pts", "weights", "residuals")
    STORED = FIELDS[:3]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", FIELDS)
    def test_non_finite_entry_names_its_array(self, field, bad):
        arrays = [np.zeros((4, 3)), np.zeros((4, 3)), np.ones(4), np.zeros(4)]
        arrays[self.FIELDS.index(field)].flat[-1] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            CorrespondenceSet(*arrays)

    def test_range_messages(self):
        pts = np.zeros((2, 3))
        with pytest.raises(ValueError, match=r"weights must lie in \[0, 1\]"):
            CorrespondenceSet(pts, pts, np.array([1.0, -1e-300]), np.zeros(2))
        with pytest.raises(ValueError, match="residuals must be non-negative"):
            CorrespondenceSet(pts, pts, np.ones(2), np.array([0.0, -1e-300]))
        # the interval is closed
        CorrespondenceSet(pts, pts, np.array([0.0, 1.0]), np.zeros(2))

    def test_stores_read_only_copies(self):
        rng = np.random.default_rng(3)
        given = [rng.normal(size=(5, 3)), rng.normal(size=(5, 3)),
                 rng.uniform(size=5), rng.uniform(size=5)]
        before = [a.copy() for a in given]
        c = CorrespondenceSet(*given)
        for name, arg, old in zip(self.STORED, given, before):
            stored = getattr(c, name)
            assert arg.flags.writeable
            assert not stored.flags.writeable
            assert not np.shares_memory(stored, arg)
            assert np.array_equal(stored, old)
            arg[...] = 0.5
            assert np.array_equal(stored, old)

    def test_constant_weights_store_one_element(self):
        c = CorrespondenceSet(np.zeros((6, 3)), np.zeros((6, 3)), np.ones(6), np.zeros(6))
        assert c.weights.shape == (6,) and c.weights.strides == (0,)
        assert not c.weights.flags.writeable
        assert np.array_equal(c.weights, np.ones(6))
        with pytest.raises(AttributeError):
            c.residuals

    def test_varying_weights_are_copied(self):
        w = np.linspace(0.0, 1.0, 6)
        c = CorrespondenceSet(np.zeros((6, 3)), np.zeros((6, 3)), w, np.zeros(6))
        assert c.weights.strides == (8,)
        assert not c.weights.flags.writeable
        assert not np.shares_memory(c.weights, w)
        assert np.array_equal(c.weights, w)

    def test_unit_weight_sets_stay_small(self):
        # 1200 sets of 128 correspondences, the posegraph-ring400 shape: the
        # points take 6144 bytes a set, full weights and residuals 2048 more
        rng = np.random.default_rng(4)
        src, dst = rng.normal(size=(128, 3)), rng.normal(size=(128, 3))
        tracemalloc.start()
        try:
            sets = [CorrespondenceSet(src, dst, np.ones(128), np.zeros(128)) for _ in range(1200)]
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held / len(sets) <= 7200

    def test_compact_weights_fit_as_full_ones(self):
        # fits read the stored one-element weights as they read N-element
        # copies, bit for bit: the IRLS, one IRLS step, and the closed form
        rng = np.random.default_rng(6)
        sets = []
        for n, w in ((40, 1.0), (40, 1.0), (25, 0.7)):
            c, _ = make_set(rng, n)
            dst = c.target_pts + 0.01 * rng.normal(size=(n, 3))
            dst[: n // 5] = rng.uniform(-1.0, 1.0, size=(n // 5, 3))
            sets.append(CorrespondenceSet(c.source_pts, dst, np.full(n, w)))
        assert all(c.weights.strides == (0,) for c in sets)
        full = [np.full(len(c), c.weights[0]) for c in sets]
        # the constructor would store the constant copies as one element again
        full_sets = [copy.copy(c) for c in sets]
        for c, w in zip(full_sets, full):
            object.__setattr__(c, "weights", w)
        runs = []
        for variant in (sets, full_sets):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pairwise_mod, "IRLS_ITERATIONS", 1)
                step = register_batch(variant)
            runs.append((register_batch(variant), step))
        (fits, refit), (fits_full, refit_full) = runs
        for got, want in ((fits, fits_full), (refit, refit_full)):
            assert np.array_equal(got.motions, want.motions)
            assert np.array_equal(got.inlier_ratio, want.inlier_ratio)
            assert np.array_equal(got.local_confidence, want.local_confidence)
            for wg, ww in zip(got.weights, want.weights, strict=True):
                assert np.array_equal(wg, ww)
        for c, w in zip(sets, full):
            rot, trans, _ = pairwise_mod._fit_stack(
                c.source_pts.T[None], c.target_pts.T[None], w[None]
            )
            got = wls_transform(c).matrix
            assert np.array_equal(got[:3, :3], rot[0]) and np.array_equal(got[:3, 3], trans[0])


def soft_target(query, feats, pts, temperature):
    """build_correspondences' target for a one-point source cloud whose
    descriptor is query: the softmax-weighted point of (pts, feats)."""
    source = PointCloud(np.zeros((1, 3)), np.asarray(query, dtype=np.float64)[None, :])
    return build_correspondences(source, PointCloud(pts, feats), temperature).target_pts[0]


class TestOnePointKernel:
    def test_hard_nearest_neighbor_limit(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(40, 4))
        pts = rng.normal(size=(40, 3))
        for _ in range(20):
            q = feats[rng.integers(40)] + 1e-3 * rng.normal(size=4)
            nn = int(np.argmin(np.linalg.norm(feats - q, axis=1)))
            out = soft_target(q, feats, pts, temperature=1e-6)
            assert np.linalg.norm(out - pts[nn]) < 1e-9

    def test_equidistant_targets_give_midpoint(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
        pts = np.array([[1.0, 1.0, 0.0], [3.0, -1.0, 2.0]])
        query = np.array([0.0, 5.0])
        for t in (1e-3, 0.1, 1.0, 100.0):
            out = soft_target(query, feats, pts, temperature=t)
            assert np.allclose(out, pts.mean(axis=0), atol=1e-9)

    def test_hand_computed_softmax(self):
        # weights for distances (0, 1, 2) at t=1: softmax(0, -1, -2)
        feats = np.array([[0.0], [1.0], [2.0]])
        pts = np.eye(3)
        expected_weights = np.exp([0.0, -1.0, -2.0])
        expected_weights /= expected_weights.sum()
        assert np.allclose(expected_weights, [0.6652, 0.2447, 0.0900], atol=5e-5)
        out = soft_target(np.array([0.0]), feats, pts, temperature=1.0)
        assert np.allclose(out, expected_weights @ pts, atol=1e-12)

    def test_output_in_convex_hull(self):
        # the result is a convex combination, so each coordinate lies inside
        # the axis-aligned bounding box of the targets
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(30, 5))
        pts = rng.normal(size=(30, 3))
        for t in (0.01, 0.3, 3.0):
            out = soft_target(rng.normal(size=5), feats, pts, t)
            assert np.all(out >= pts.min(axis=0) - 1e-12)
            assert np.all(out <= pts.max(axis=0) + 1e-12)


class TestBuildCorrespondences:
    def test_self_pairing_with_distinct_features(self):
        rng = np.random.default_rng(2)
        cloud = make_feature_cloud(rng, 30)
        corr = build_correspondences(cloud, cloud, temperature=1e-6)
        assert np.allclose(corr.target_pts, cloud.points, atol=1e-9)

    def test_single_source_point(self):
        target = make_feature_cloud(np.random.default_rng(3), 10)
        src = PointCloud(np.zeros((1, 3)), target.features[:1])
        corr = build_correspondences(src, target, temperature=0.1)
        assert len(corr) == 1

    def test_targets_inside_bounding_box(self):
        rng = np.random.default_rng(4)
        p, q = make_feature_cloud(rng, 50), make_feature_cloud(rng, 50)
        corr = build_correspondences(p, q, temperature=0.5)
        assert np.all(corr.target_pts >= q.points.min(axis=0) - 1e-12)
        assert np.all(corr.target_pts <= q.points.max(axis=0) + 1e-12)

    def test_missing_features(self):
        rng = np.random.default_rng(5)
        bare = PointCloud(rng.normal(size=(5, 3)))
        featured = make_feature_cloud(rng, 5)
        with pytest.raises(MissingFeatures):
            build_correspondences(bare, featured, 0.1)
        with pytest.raises(MissingFeatures):
            build_correspondences(featured, bare, 0.1)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(6)
        a = PointCloud(rng.normal(size=(5, 3)), rng.normal(size=(5, 4)))
        b = PointCloud(rng.normal(size=(5, 3)), rng.normal(size=(5, 7)))
        with pytest.raises(DimensionMismatch):
            build_correspondences(a, b, 0.1)

    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan"), float("inf")])
    def test_temperature_must_be_positive(self, temperature):
        rng = np.random.default_rng(8)
        p, q = make_feature_cloud(rng, 5), make_feature_cloud(rng, 5)
        with pytest.raises(ValueError, match="temperature must be positive"):
            build_correspondences(p, q, temperature)

    def test_initial_weights_and_residuals(self):
        rng = np.random.default_rng(7)
        p, q = make_feature_cloud(rng, 20), make_feature_cloud(rng, 20)
        corr = build_correspondences(p, q, temperature=0.1)
        assert np.all(corr.weights == 1.0)
        assert not hasattr(corr, "residuals")


def dense_soft_targets(query_features, target_features, target_points, t):
    """The dense N x M formula the blocked kernel must reproduce."""
    sq = (
        np.sum(query_features**2, axis=1)[:, None]
        + np.sum(target_features**2, axis=1)[None, :]
        - 2.0 * query_features @ target_features.T
    )
    z = -np.sqrt(np.maximum(sq, 0.0)) / t
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)) @ target_points


def explicit_soft_targets(query_features, target_features, target_points, t):
    """The softmax from explicit feature differences, free of the cancellation
    in |q|^2 + |t|^2 - 2 q.t; 64 query rows at a time."""
    out = np.empty((len(query_features), 3))
    for s in range(0, len(query_features), 64):
        diff = query_features[s : s + 64, None, :] - target_features[None, :, :]
        dist = np.sqrt(np.sum(diff**2, axis=2))
        e = np.exp((dist.min(axis=1, keepdims=True) - dist) / t)
        out[s : s + 64] = (e @ target_points) / e.sum(axis=1, keepdims=True)
    return out


class TestCorrespondenceKernel:
    @pytest.mark.parametrize("n", [1, 7, 300])
    @pytest.mark.parametrize("m", [1, 5, 300])
    @pytest.mark.parametrize("d", [1, 3, 32])
    def test_matches_dense_formula_in_every_block_layout(self, monkeypatch, n, m, d):
        # features on a 1/8 lattice make every squared distance exact in both
        # formulas, so the comparison measures the blocked softmax, not the
        # cancellation error of the dense formula
        rng = np.random.default_rng([n, m, d])
        p = PointCloud(rng.normal(size=(n, 3)), rng.integers(-16, 17, size=(n, d)) / 8.0)
        q = PointCloud(rng.normal(size=(m, 3)), rng.integers(-16, 17, size=(m, d)) / 8.0)
        # one-row blocks, a ragged last block, a single block
        for rows in (1, n // 2 + 1, n):
            monkeypatch.setattr(pairwise_mod, "BLOCK_CELLS", rows * m)
            for t in (1e-6, 0.02, 1.0, 100.0):
                expected = dense_soft_targets(p.features, q.features, q.points, t)
                got = build_correspondences(p, q, t).target_pts
                assert np.abs(got - expected).max() <= 1e-12, (rows, t)
                assert np.array_equal(got, build_correspondences(p, q, t).target_pts)

    @pytest.mark.parametrize("d", [1, 3, 32])
    def test_far_queries_stay_finite_at_tiny_temperature(self, d):
        rng = np.random.default_rng(d)
        q = PointCloud(rng.normal(size=(300, 3)), rng.normal(size=(300, d)))
        p = PointCloud(rng.normal(size=(7, 3)), rng.normal(size=(7, d)) + 1e3)
        targets = build_correspondences(p, q, 1e-6).target_pts
        assert np.all(np.isfinite(targets))
        assert np.all(targets >= q.points.min(axis=0) - 1e-12)
        assert np.all(targets <= q.points.max(axis=0) + 1e-12)

    def test_negative_squared_distance_is_clamped(self, monkeypatch):
        # coincident descriptors off the lattice: the GEMM's |q|^2 + |t|^2 -
        # 2 q.t rounds to a few ulp either side of 0
        rng = np.random.default_rng(5)
        points, feats = rng.normal(size=(200, 3)), 10.0 * rng.normal(size=(200, 3))
        cloud = PointCloud(points, feats)
        minima, clamped = [], []
        tiles, maximum = pairwise_mod._matmul_tiles, np.maximum

        def recording_tiles(a, b, out):
            tiles(a, b, out)
            minima.append(out.min())

        def recording_maximum(a, b, *args, **kwargs):
            if kwargs.get("out") is a:
                clamped.append(a.shape)
            return maximum(a, b, *args, **kwargs)

        monkeypatch.setattr(pairwise_mod, "_matmul_tiles", recording_tiles)
        monkeypatch.setattr(np, "maximum", recording_maximum)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            targets = {t: build_correspondences(cloud, cloud, t).target_pts for t in (1e-3, 0.02)}
        monkeypatch.undo()
        # one block, whose rounded squared distances include a negative one
        assert len(minima) == 2 and max(minima) < 0.0
        assert clamped.count((200, 200)) == 2
        for got in targets.values():
            assert np.all(np.isfinite(got))
        # at small t each query's coincident target takes all the weight
        assert np.abs(targets[1e-3] - points).max() <= 1e-12

    @pytest.mark.parametrize("t, shifts", [(1e-3, True), (0.05, True), (0.1, False), (1.0, False)])
    def test_block_of_near_and_far_rows_matches_dense_formula(self, t, shifts):
        # on a 1/8 lattice every distance is exact. The first 32 query rows
        # coincide with a target (nearest distance 0); the last 32 sit 4 away
        # from their target along an axis no target uses, so the block shifts
        # exactly when 4 > SHIFT_FREE * t
        rng = np.random.default_rng(9)
        target_feats = np.zeros((64, 4))
        target_feats[:, :3] = rng.integers(-16, 17, size=(64, 3)) / 8.0
        query_feats = np.vstack((target_feats[:32], target_feats[32:] + (0.0, 0.0, 0.0, 4.0)))
        p = PointCloud(rng.normal(size=(64, 3)), query_feats)
        q = PointCloud(rng.normal(size=(64, 3)), target_feats)
        nearest = np.sqrt(((query_feats[:, None] - target_feats[None]) ** 2).sum(axis=2)).min(axis=1)
        assert np.array_equal(nearest, np.repeat([0.0, 4.0], 32))
        assert (nearest.max() > pairwise_mod.SHIFT_FREE * t) == shifts
        got = build_correspondences(p, q, t).target_pts
        expected = dense_soft_targets(p.features, q.features, q.points, t)
        assert np.abs(got - expected).max() <= 1e-12

    @pytest.mark.parametrize("n, m, d", [(512, 2048, 3), (256, 1024, 32)])
    def test_scene_descriptors_match_explicit_differences(self, n, m, d):
        # descriptors as generate_scene makes them: world coordinates plus
        # 1 cm noise, lifted to 32 dimensions by an orthonormal map with the
        # noise spread over every axis, as the d = 32 benchmark does
        scene = generate_scene(3, m, 0.01, 0.0, seed=d)
        source, target = scene.clouds[0], scene.clouds[1]
        feats = [source.features[:n], target.features]
        if d > 3:
            rng = np.random.default_rng(d)
            basis, _ = np.linalg.qr(rng.normal(size=(d, 3)))
            feats = [f @ basis.T + 0.01 * np.sqrt(3.0 / d) * rng.normal(size=(len(f), d))
                     for f in feats]
        p = PointCloud(source.points[:n], feats[0])
        q = PointCloud(target.points, feats[1])
        t = PipelineConfig().temperature
        got = build_correspondences(p, q, t).target_pts
        expected = explicit_soft_targets(p.features, q.features, q.points, t)
        assert np.abs(got - expected).max() <= 1e-9

    def test_peak_memory_is_bounded(self):
        # the dense formula holds several 4096 x 4096 float64 arrays, 128 MB each
        rng = np.random.default_rng(11)
        p, q = make_feature_cloud(rng, 4096), make_feature_cloud(rng, 4096)
        tracemalloc.start()
        try:
            build_correspondences(p, q, 0.02)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @staticmethod
    def lattice_clouds(n, m, d, seed):
        rng = np.random.default_rng(seed)
        p = PointCloud(rng.normal(size=(n, 3)), rng.integers(-16, 17, size=(n, d)) / 8.0)
        q = PointCloud(rng.normal(size=(m, 3)), rng.integers(-16, 17, size=(m, d)) / 8.0)
        return p, q

    def targets_per_thread_count(self, monkeypatch, p, q, t=0.02):
        """Targets at temperature t for 1, 2 and 3 kernel threads, and the
        threads each used.

        Each thread's first block waits until every thread that can get a
        block has one, so all of them take part.
        """
        idents = set()
        tiles = pairwise_mod._matmul_tiles
        results = {}

        def recording(a, b, out):
            if threading.get_ident() not in idents:
                idents.add(threading.get_ident())
                start.wait()
            tiles(a, b, out)

        blocks = -(-len(p) // max(1, pairwise_mod.BLOCK_CELLS // len(q)))
        with monkeypatch.context() as patch:
            patch.setattr(pairwise_mod, "_matmul_tiles", recording)
            for threads in (1, 2, 3):
                patch.setattr(pairwise_mod, "_THREADS", threads)
                idents.clear()
                start = threading.Barrier(min(threads, blocks), timeout=10)
                results[threads] = (build_correspondences(p, q, t).target_pts, len(idents))
        return results

    @pytest.mark.parametrize("n", [1, 7, 300])
    @pytest.mark.parametrize("m", [1, 5, 300])
    @pytest.mark.parametrize("d", [1, 3, 32])
    def test_targets_are_bit_equal_for_any_thread_count(self, monkeypatch, n, m, d):
        p, q = self.lattice_clouds(n, m, d, [n, m, d])
        # one-row blocks, a ragged last block, a single block
        for rows in (1, n // 2 + 1, n):
            monkeypatch.setattr(pairwise_mod, "BLOCK_CELLS", rows * m)
            results = self.targets_per_thread_count(monkeypatch, p, q)
            blocks = -(-n // rows)
            for threads, (got, used) in results.items():
                assert np.array_equal(got, results[1][0]), (rows, threads)
                assert used == min(threads, blocks), (rows, threads)

    # default blocks, at GEMM depth d + 2: 64 x 2048 x 34 tiles into 180
    # columns, 52 x 2500 x 66 into 114 and 32 x 4096 x 34 into 361, each with
    # a ragged last tile and a ragged last block
    @pytest.mark.parametrize("n, m, d", [(150, 2048, 32), (161, 2500, 64), (40, 4096, 32)])
    def test_tiled_shapes_are_bit_equal_for_any_thread_count(self, monkeypatch, n, m, d):
        p, q = self.lattice_clouds(n, m, d, [n, m, d])
        results = self.targets_per_thread_count(monkeypatch, p, q)
        expected = dense_soft_targets(p.features, q.features, q.points, 0.02)
        assert np.abs(results[1][0] - expected).max() <= 1e-12
        for threads, (got, _) in results.items():
            assert np.array_equal(got, results[1][0]), threads

    @staticmethod
    def blas_calls(monkeypatch, n, m, d):
        """(depth, multiply-adds) of every np.matmul call of one kernel call."""
        rng = np.random.default_rng(d)
        p = PointCloud(rng.normal(size=(n, 3)), rng.normal(size=(n, d)))
        q = PointCloud(rng.normal(size=(m, 3)), rng.normal(size=(m, d)))
        if m == 5:
            # 151-row blocks of 5 columns split along rows
            monkeypatch.setattr(pairwise_mod, "BLOCK_CELLS", 151 * m)
        calls = []
        matmul = np.matmul

        def spy(a, b, **kwargs):
            calls.append((a.shape[1], a.shape[0] * a.shape[1] * b.shape[1]))
            return matmul(a, b, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "matmul", spy)
            build_correspondences(p, q, 0.02)
        return calls

    # the distance GEMM has depth d + 2; calls: 128 blocks of 12 column
    # tiles; 3 blocks of 22 and a 5-row block of 3; 32 blocks of 2; and two
    # 151- and 149-row blocks of 12 row tiles each
    @pytest.mark.parametrize("n, m, d, calls", [(4096, 4096, 32, 1536), (161, 2500, 64, 69),
                                                (2048, 2048, 3, 64), (300, 5, 32, 24)])
    def test_distance_gemm_calls_stay_below_blas_threading(self, monkeypatch, n, m, d, calls):
        macs = [k for depth, k in self.blas_calls(monkeypatch, n, m, d) if depth == d + 2]
        assert sum(macs) == n * m * (d + 2)
        assert max(macs) <= 3 * pairwise_mod.BLOCK_CELLS
        assert len(macs) == calls

    # the tail GEMM [weights] [P, 1] has depth m and 4 columns, one call per
    # block: 128 blocks of 32 rows; 3 of 52 and one of 5; 32 of 64; and the
    # 151- and 149-row blocks. At most 4 * BLOCK_CELLS = 2^19 multiply-adds,
    # which OpenBLAS runs on the calling thread
    @pytest.mark.parametrize("n, m, d, blocks", [(4096, 4096, 32, 128), (161, 2500, 64, 4),
                                                 (2048, 2048, 3, 32), (300, 5, 32, 2)])
    def test_tail_gemm_is_one_call_per_block_below_blas_threading(self, monkeypatch, n, m, d,
                                                                  blocks):
        calls = self.blas_calls(monkeypatch, n, m, d)
        macs = [k for depth, k in calls if depth == m]
        # every call is a distance tile or a tail product
        assert len(macs) + sum(depth == d + 2 for depth, _ in calls) == len(calls)
        assert sum(macs) == n * m * 4
        assert max(macs) <= 4 * pairwise_mod.BLOCK_CELLS <= 1 << 19
        assert len(macs) == blocks

    @pytest.mark.parametrize("d", [3, 32])
    @pytest.mark.parametrize("t", [100.0, 1e-3])
    def test_long_rows_match_exactly_summed_softmax(self, monkeypatch, d, t):
        # 16384 targets per row, 8-row blocks: the weight sum comes from the
        # tail GEMM's ones column, summed over 16384 terms. The reference
        # takes explicit differences, shifts each row by its minimum and sums
        # with math.fsum. The bound, 1.6e-12 m for targets within [0, 30] m,
        # is 5e-14 relative to the farthest target, about 240 ulp of the
        # weight sum. t = 100 spreads the
        # weight over every target; t = 1e-3 puts nearly all of it on the
        # nearest one or two. Features on a 1/8 lattice make every squared
        # distance exact, so the bound measures the softmax and its
        # normalizer, not the cancellation in |q|^2 + |t|^2 - 2 q.t
        rng = np.random.default_rng([d, 16384])
        p, q = (PointCloud(rng.uniform(0.0, 30.0, size=(k, 3)),
                           rng.integers(-16, 17, size=(k, d)) / 8.0) for k in (24, 16384))
        expected = np.empty((24, 3))
        for k, feature in enumerate(p.features):
            dist = np.sqrt(np.sum((q.features - feature) ** 2, axis=1))
            e = np.exp((dist.min() - dist) / t)
            total = math.fsum(e)
            expected[k] = [math.fsum(e * column) / total for column in q.points.T]
        results = self.targets_per_thread_count(monkeypatch, p, q, t)
        got = results[1][0]
        assert np.abs(got - expected).max() <= 1.6e-12
        for threads, (targets, used) in results.items():
            assert np.array_equal(targets, got), threads
            assert used == threads

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_block_error_is_raised_after_every_thread_stopped(self, monkeypatch, failing):
        # 6 one-row blocks on 2 threads; feature 0 of a query row is its block
        p = PointCloud(np.zeros((6, 3)), np.arange(6.0)[:, None] * np.ones((1, 3)))
        q = PointCloud(np.zeros((4, 3)), np.ones((4, 3)))
        monkeypatch.setattr(pairwise_mod, "BLOCK_CELLS", 4)
        monkeypatch.setattr(pairwise_mod, "_THREADS", 2)
        tiles = pairwise_mod._matmul_tiles
        caller = threading.get_ident()
        worker_started = threading.Event()
        done, failed = [], []

        def failing_tiles(a, b, out):
            on_caller = threading.get_ident() == caller
            if on_caller:
                worker_started.wait(10)
            else:
                worker_started.set()
            block = int(a[0, 0])
            if on_caller == (failing == "caller"):
                failed.append(block)
                raise ZeroDivisionError(f"block {block}")
            # the other thread lags, so a call that did not wait for it
            # would return while it still writes
            time.sleep(0.05)
            tiles(a, b, out)
            done.append(block)

        monkeypatch.setattr(pairwise_mod, "_matmul_tiles", failing_tiles)
        with pytest.raises(ZeroDivisionError) as info:
            build_correspondences(p, q, 0.02)
        stopped = list(done)
        assert len(failed) == 1 and str(info.value) == f"block {failed[0]}"
        assert sorted(stopped + failed) == list(range(6))
        time.sleep(0.2)
        assert done == stopped
        monkeypatch.setattr(pairwise_mod, "_matmul_tiles", tiles)
        assert np.all(np.isfinite(build_correspondences(p, q, 0.02).target_pts))

    def test_concurrent_callers_share_the_workers(self, monkeypatch):
        monkeypatch.setattr(pairwise_mod, "_THREADS", 3)
        monkeypatch.setattr(pairwise_mod, "BLOCK_CELLS", 64)
        clouds = [self.lattice_clouds(40, 16, 3, seed) for seed in range(4)]
        expected = [build_correspondences(p, q, 0.02).target_pts for p, q in clouds]
        equal = {}

        def call(k):
            equal[k] = all(
                np.array_equal(build_correspondences(*clouds[k], 0.02).target_pts, expected[k])
                for _ in range(20)
            )

        callers = [threading.Thread(target=call, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert equal == {k: True for k in range(4)}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    # Python 3.12+ warns on every fork of a process that has threads
    @pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
    def test_kernel_runs_in_a_forked_child(self, monkeypatch):
        monkeypatch.setattr(pairwise_mod, "_THREADS", 2)
        monkeypatch.setattr(pairwise_mod, "BLOCK_CELLS", 64)
        p, q = self.lattice_clouds(32, 16, 3, 4)
        expected = build_correspondences(p, q, 0.02).target_pts
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(build_correspondences(p, q, 0.02).target_pts, expected) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("kernel call in the forked child did not finish in 30 s")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_threaded_blas_keeps_bit_identity_and_solves_start_no_thread(self):
        # a pose-graph solve makes no kernel call, so it starts no worker; a
        # D = 32 kernel call gives the same targets on 1 and 2 threads while
        # OpenBLAS may run 2 threads of its own
        script = (
            "import json, sys, threading\n"
            "import numpy as np\n"
            "import mvreg, mvreg.pairwise as pw\n"
            "rng = np.random.default_rng(3)\n"
            "pts = rng.normal(size=(64, 3))\n"
            "poses = [mvreg.random_motion(rng) for _ in range(8)]\n"
            "corr = {}\n"
            "for i in range(8):\n"
            "    for j in sorted({(i + 1) % 8, (i + 2) % 8}):\n"
            "        a, b = min(i, j), max(i, j)\n"
            "        src = mvreg.transform_points(mvreg.invert(poses[a]), pts)\n"
            "        dst = mvreg.transform_points(mvreg.invert(poses[b]), pts)\n"
            "        corr[(a, b)] = mvreg.CorrespondenceSet(src, dst, np.ones(64), np.zeros(64))\n"
            "mvreg.run_multiview_from_correspondences(corr, 8)\n"
            "idle = [threading.active_count(), 'concurrent.futures' in sys.modules]\n"
            "p = mvreg.PointCloud(rng.normal(size=(300, 3)), rng.normal(size=(300, 32)))\n"
            "q = mvreg.PointCloud(rng.normal(size=(2048, 3)), rng.normal(size=(2048, 32)))\n"
            "out = {}\n"
            "for threads in (1, 2):\n"
            "    pw._THREADS = threads\n"
            "    out[threads] = mvreg.build_correspondences(p, q, 0.02).target_pts\n"
            "print(json.dumps(idle + [bool(np.array_equal(out[1], out[2])), threading.active_count()]))\n"
        )
        src = str(Path(pairwise_mod.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2"}, timeout=120,
        )
        assert json.loads(out.stdout) == [1, False, True, 2]


def bit_equal(a, b) -> bool:
    """Same type, shape, dtype and bytes: NaN payloads and signed zeros count."""
    return (type(a) is type(b) and np.shape(a) == np.shape(b)
            and np.asarray(a).dtype == np.asarray(b).dtype
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


class TestRobustStatistics:
    """The sort-based row median and the column-sum residual norm are exact
    rewrites of np.median and np.linalg.norm."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 127, 128, 2047, 2048])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_row_median_is_bit_equal_to_np_median(self, n, keepdims):
        rng = np.random.default_rng(n)
        # distinct, tied and constant rows; 1-d input as cauchy_scale passes it
        # gives a scalar, or a length-1 axis with keepdims
        for rows in (rng.random((5, n)), np.round(4.0 * rng.random((5, n))), np.full((2, n), 3.0),
                     rng.random((2, 3, n)), rng.random(n)):
            expected = np.median(rows, axis=-1, keepdims=keepdims)
            assert bit_equal(pairwise_mod._row_median(rows, keepdims=keepdims), expected)

    @pytest.mark.parametrize("n", [5, 6])
    def test_row_holding_nan_gives_nan(self, n):
        rows = np.random.default_rng(52).random((3, n))
        rows[1, 0] = np.nan
        got = pairwise_mod._row_median(rows)
        assert np.isnan(got[1]) and not np.isnan(got[[0, 2]]).any()
        assert bit_equal(got, np.median(rows, axis=-1))
        assert bit_equal(pairwise_mod._row_median(rows[1]), np.median(rows[1], axis=-1))

    # (1200, 128): the posegraph-ring400 shape, every edge in one stack
    @pytest.mark.parametrize("m, n", [(32, 128), (2, 2048), (3, 127), (1200, 128)])
    def test_residual_norm_is_bit_equal_to_linalg_norm(self, m, n):
        rng = np.random.default_rng(m * n)
        motions = np.stack([random_motion(rng).matrix for _ in range(m)])
        rot, trans = motions[:, :3, :3], motions[:, :3, 3]
        # coordinate-major (m, 3, n) stacks, as the IRLS kernel holds them
        src, dst = rng.normal(size=(m, 3, n)), rng.normal(size=(m, 3, n))
        moved = rot @ src + trans[:, :, None] - dst
        expected = np.linalg.norm(moved, axis=1)
        assert bit_equal(pairwise_mod._residual_stack(rot, trans, src, dst), expected)

    def test_ring_solve_calls_no_np_median(self, monkeypatch):
        # a ring of 8 scans, each linked to the next 2, 64 noisy correspondences an edge
        rng = np.random.default_rng(53)
        n = 8
        poses = np.stack([np.eye(4)] + [random_motion(rng).matrix for _ in range(n - 1)])
        pairs = tuple(sorted((min(k, (k + d) % n), max(k, (k + d) % n)) for k in range(n) for d in (1, 2)))
        truth = relative_motions(poses, pairs)
        sets = []
        for m in truth:
            src = rng.uniform(-1.0, 1.0, size=(64, 3))
            dst = src @ m[:3, :3].T + m[:3, 3] + 0.01 * rng.normal(size=src.shape)
            sets.append(CorrespondenceSet(src, dst, np.ones(64), np.zeros(64)))
        calls = []
        median = np.median

        def spy(*args, **kwargs):
            calls.append(args)
            return median(*args, **kwargs)

        monkeypatch.setattr(np, "median", spy)
        fits = register_batch(sets)
        transf_sync(build_graph(n, pairs, fits))
        assert len(one_step(sets, fits.weights)) == len(sets)
        assert calls == []


class TestWlsTransform:
    def test_identity_on_equal_clouds(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(20, 3))
        c = CorrespondenceSet(pts, pts, np.ones(20), np.zeros(20))
        assert np.linalg.norm(wls_transform(c).matrix - np.eye(4)) < 1e-12

    def test_pure_translation(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(20, 3))
        c = CorrespondenceSet(pts, pts + [1.0, 2.0, 3.0], np.ones(20), np.zeros(20))
        m = wls_transform(c)
        assert np.linalg.norm(m.rotation.m - np.eye(3)) < 1e-12
        assert np.allclose(m.translation, [1.0, 2.0, 3.0], atol=1e-12)

    def test_recovers_generator(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(-1, 1, size=(100, 3))
        gen = RigidMotion(rotation_about_axis((0, 0, 1), np.radians(30)), np.array([0.1, -0.2, 0.3]))
        c = CorrespondenceSet(pts, transform_points(gen, pts), np.ones(100), np.zeros(100))
        m = wls_transform(c)
        assert rotation_gap_deg(m.rotation, gen.rotation) < 1e-6
        assert np.linalg.norm(m.translation - gen.translation) < 1e-9

    def test_zero_weight_outliers_match_subset_solution(self):
        rng = np.random.default_rng(11)
        gen = random_motion(rng)
        inliers = rng.uniform(-1, 1, size=(80, 3))
        outliers = rng.uniform(-5, 5, size=(20, 3))
        src = np.vstack([inliers, outliers])
        dst = np.vstack([transform_points(gen, inliers), rng.uniform(-5, 5, size=(20, 3))])
        w = np.concatenate([np.ones(80), np.zeros(20)])
        full = wls_transform(CorrespondenceSet(src, dst, w, np.zeros(100)))
        subset = wls_transform(
            CorrespondenceSet(src[:80], dst[:80], np.ones(80), np.zeros(80))
        )
        assert np.linalg.norm(full.matrix - subset.matrix) < 1e-12

    def test_collinear_points_degenerate(self):
        t = np.linspace(0, 1, 10)
        pts = np.outer(t, [1.0, 1.0, 0.0])
        c = CorrespondenceSet(pts, pts + 0.1, np.ones(10), np.zeros(10))
        with pytest.raises(DegenerateConfiguration):
            wls_transform(c)

    def test_effective_collinearity_via_weights(self):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(10, 3))
        w = np.zeros(10)
        w[:2] = 1.0  # two points can never fix a rotation
        c = CorrespondenceSet(pts, pts, w, np.zeros(10))
        with pytest.raises(DegenerateConfiguration):
            wls_transform(c)

    def test_zero_weight_sum(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(10, 3))
        c = CorrespondenceSet(pts, pts, np.zeros(10), np.zeros(10))
        with pytest.raises(ZeroWeightSum):
            wls_transform(c)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(14)
        c, _ = make_set(rng, 40)
        noisy = CorrespondenceSet(
            c.source_pts,
            c.target_pts + 0.01 * rng.normal(size=(40, 3)),
            rng.uniform(0.2, 1.0, 40),
            np.zeros(40),
        )
        perm = rng.permutation(40)
        shuffled = CorrespondenceSet(
            noisy.source_pts[perm], noisy.target_pts[perm], noisy.weights[perm]
        )
        a, b = wls_transform(noisy), wls_transform(shuffled)
        # compare matrices directly: arccos is ill conditioned near zero angle
        assert np.linalg.norm(a.matrix - b.matrix) < 1e-9

    def test_source_equivariance(self):
        # moving the source by G turns the fit into fit . G^-1
        rng = np.random.default_rng(15)
        c, _ = make_set(rng, 30)
        noisy_targets = c.target_pts + 0.01 * rng.normal(size=(30, 3))
        g = random_motion(rng)
        base = wls_transform(CorrespondenceSet(c.source_pts, noisy_targets, c.weights))
        moved = wls_transform(
            CorrespondenceSet(
                transform_points(g, c.source_pts), noisy_targets, c.weights
            )
        )
        expected = base.matrix @ invert(g).matrix
        assert np.linalg.norm(moved.matrix - expected) < 1e-9

    def test_closed_form_optimality(self):
        # oracle: no random motion achieves a lower weighted objective
        rng = np.random.default_rng(16)
        pts = rng.normal(size=(40, 3))
        target = rng.normal(size=(40, 3))
        w = rng.uniform(0.1, 1.0, 40)
        c = CorrespondenceSet(pts, target, w, np.zeros(40))
        best = wls_transform(c)

        def objective(m):
            return float(np.sum(w * np.sum((transform_points(m, pts) - target) ** 2, axis=1)))

        base = objective(best)
        for _ in range(50):
            assert objective(random_motion(rng)) >= base - 1e-12


class TestResiduals:
    def test_zero_at_perfect_alignment(self):
        rng = np.random.default_rng(17)
        c, gen = make_set(rng, 25)
        assert np.all(residuals(c, gen) < 1e-12)

    def test_unit_offset(self):
        rng = np.random.default_rng(18)
        pts = rng.normal(size=(12, 3))
        c = CorrespondenceSet(pts, pts + [0.0, 0.0, 1.0], np.ones(12), np.zeros(12))
        assert np.allclose(residuals(c, RigidMotion.identity()), 1.0, atol=1e-12)

    def test_matches_homogeneous_evaluation(self):
        rng = np.random.default_rng(19)
        c, _ = make_set(rng, 30)
        m = random_motion(rng)
        hom = np.column_stack([c.source_pts, np.ones(30)]) @ m.matrix.T
        expected = np.linalg.norm(hom[:, :3] - c.target_pts, axis=1)
        assert np.allclose(residuals(c, m), expected, atol=1e-12)


class TestRobustReweight:
    def test_zero_residuals_give_unit_weights(self):
        out = robust_reweight(np.zeros(5), np.full(5, 0.3), blend=1.0)
        assert np.allclose(out, 1.0)

    def test_single_outlier_nullified(self):
        out = robust_reweight(np.array([0.0, 0.0, 0.0, 0.0, 10.0]), np.ones(5), blend=1.0)
        assert np.all(out[:4] == 1.0)
        assert out[4] < 0.01

    def test_blend_zero_returns_previous(self):
        rng = np.random.default_rng(20)
        prev = rng.uniform(0, 1, 10)
        out = robust_reweight(rng.uniform(0, 2, 10), prev, blend=0.0)
        assert np.array_equal(out, prev)

    def test_equal_residuals_equal_weights(self):
        out = robust_reweight(np.full(6, 0.7), np.ones(6), blend=1.0)
        assert np.all(out == out[0])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 100.0), min_size=2, max_size=40), st.integers(0, 2**16))
    def test_monotone_in_residual(self, res, seed):
        rng = np.random.default_rng(seed)
        r = np.array(res)
        w = robust_reweight(r, rng.uniform(0, 1, r.size), blend=1.0)
        order = np.argsort(r)
        assert np.all(np.diff(w[order]) <= 1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**16), st.floats(0.0, 1.0))
    def test_output_clipped_to_unit_interval(self, seed, blend):
        rng = np.random.default_rng(seed)
        out = robust_reweight(rng.uniform(0, 5, 20), rng.uniform(0, 1, 20), blend)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


class TestLocalConfidence:
    def test_logistic_midpoint(self):
        assert abs(local_confidence(CONF_MIDPOINT, 0.0) - 0.5) < 1e-12

    def test_perfect_pair(self):
        expected = 1.0 / (1.0 + np.exp(-7.0))
        assert abs(local_confidence(1.0, 0.0) - expected) < 1e-12
        assert abs(expected - 0.9991) < 1e-4

    def test_zero_inlier_ratio(self):
        assert local_confidence(0.0, 0.0) <= 1.0 / (1.0 + np.exp(3.0)) + 1e-12
        assert abs(1.0 / (1.0 + np.exp(3.0)) - 0.0474) < 1e-4

    def test_monotone(self):
        deltas = np.linspace(0, 1, 11)
        vals = [local_confidence(d, 0.02) for d in deltas]
        assert np.all(np.diff(vals) > 0)
        meds = np.linspace(0, 0.5, 11)
        vals = [local_confidence(0.8, m) for m in meds]
        assert np.all(np.diff(vals) < 0)

    def test_range(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            v = local_confidence(rng.uniform(0, 1), rng.uniform(0, 1))
            assert 0.0 <= v <= 1.0


class TestRegisterPair:
    def test_exact_copy_registers_to_identity(self):
        rng = np.random.default_rng(22)
        cloud = make_feature_cloud(rng, 40)
        result = register_pair(cloud, cloud, PipelineConfig(temperature=1e-6))
        assert np.linalg.norm(result.motion.matrix - np.eye(4)) < 1e-9
        assert result.inlier_ratio == 1.0

    def test_noise_free_pair_recovers_generator(self):
        rng = np.random.default_rng(23)
        cloud = make_feature_cloud(rng, 60)
        gen = random_motion(rng)
        moved = PointCloud(transform_points(gen, cloud.points), cloud.features)
        # fit maps source into target frame, so registering (cloud -> moved)
        # recovers gen itself
        result = register_pair(cloud, moved, PipelineConfig(temperature=1e-6))
        assert rotation_gap_deg(result.motion.rotation, gen.rotation) < 1e-6
        assert np.linalg.norm(result.motion.translation - gen.translation) < 1e-9

    def test_seventy_thirty_contamination(self):
        rng = np.random.default_rng(24)
        n_in, n_out = 70, 30
        pts = rng.uniform(-1, 1, size=(n_in + n_out, 3))
        gen = random_motion(rng)
        targets = transform_points(gen, pts)
        targets[n_in:] = rng.uniform(-1, 1, size=(n_out, 3))
        targets[:n_in] += 0.005 * rng.normal(size=(n_in, 3))
        corr = CorrespondenceSet(pts, targets, np.ones(n_in + n_out), np.zeros(n_in + n_out))
        result = register_correspondences(corr)
        assert rotation_gap_deg(result.motion.rotation, gen.rotation) < 0.5

    def test_pure_outlier_pair_scores_low(self):
        rng = np.random.default_rng(25)
        pts = rng.uniform(-1, 1, size=(100, 3))
        targets = rng.uniform(-1, 1, size=(100, 3))
        corr = CorrespondenceSet(pts, targets, np.ones(100), np.zeros(100))
        result = register_correspondences(corr)
        assert result.inlier_ratio < 0.3
        assert result.local_confidence < 0.5

    def test_objective_descent_across_irls(self):
        # with the weights of any iteration held fixed, the following wls
        # step cannot increase the weighted objective (closed form optimum)
        rng = np.random.default_rng(26)
        pts = rng.uniform(-1, 1, size=(80, 3))
        gen = random_motion(rng)
        targets = transform_points(gen, pts) + 0.02 * rng.normal(size=(80, 3))
        targets[60:] = rng.uniform(-1, 1, size=(20, 3))
        corr = CorrespondenceSet(pts, targets, np.ones(80), np.zeros(80))

        motion = wls_transform(corr)
        weights = corr.weights
        for _ in range(4):
            r = residuals(corr, motion)
            weights = robust_reweight(r, weights, blend=0.7)
            weighted = CorrespondenceSet(corr.source_pts, corr.target_pts, weights)
            before = float(np.sum(weights * residuals(corr, motion) ** 2))
            motion = wls_transform(weighted)
            after = float(np.sum(weights * residuals(corr, motion) ** 2))
            assert after <= before + 1e-12

    def test_inner_irls_zero_skips_refinement(self, monkeypatch):
        rng = np.random.default_rng(27)
        cloud = make_feature_cloud(rng, 30)
        corr = build_correspondences(cloud, cloud, temperature=1e-6)
        monkeypatch.setattr(pairwise_mod, "IRLS_ITERATIONS", 0)
        result = register_correspondences(corr, PipelineConfig())
        assert np.linalg.norm(result.motion.matrix - np.eye(4)) < 1e-9


def reference_register(corr, cfg, iterations):
    """The per-edge IRLS loop of `iterations` steps, inlined: the oracle for
    the batched kernel.

    Returns (motion 4x4, weights), or the error class its fit raises.
    """
    src, dst = corr.source_pts, corr.target_pts

    def fit(w):
        if len(w) < 3:
            return DegenerateConfiguration
        sw = w.sum()
        if sw <= 0.0:
            return ZeroWeightSum
        p_bar = w @ src / sw
        q_bar = w @ dst / sw
        cov = (src - p_bar).T @ (w[:, None] * (dst - q_bar))
        u, s, vt = np.linalg.svd(cov)
        if s[0] == 0.0 or s[1] <= 1e-12 * s[0]:
            return DegenerateConfiguration
        v = vt.T
        rot = v @ np.diag([1.0, 1.0, np.sign(np.linalg.det(v @ u.T))]) @ u.T
        mat = np.eye(4)
        mat[:3, :3] = rot
        mat[:3, 3] = q_bar - rot @ p_bar
        return mat

    def reweight(r, prev):
        s = max(1.4826 * float(np.median(np.abs(r - np.median(r)))), 1e-9)
        kernel = 1.0 / (1.0 + (r / s) ** 2)
        return np.clip(cfg.blend * kernel + (1.0 - cfg.blend) * prev, 0.0, 1.0)

    weights = corr.weights
    motion = fit(weights)
    if not isinstance(motion, np.ndarray):
        return motion
    for _ in range(iterations):
        r = np.linalg.norm(src @ motion[:3, :3].T + motion[:3, 3] - dst, axis=1)
        weights = reweight(r, weights)
        new = fit(weights)
        if not isinstance(new, np.ndarray):
            return new
        motion = new
    return motion, weights


def mixed_sets(rng, counts=(3, 4, 128, 2048), per_count=5):
    """Correspondence sets of mixed sizes, in shuffled order.

    Per size: noise-free sets, and sets with noise and 30 % outliers.
    """
    sets = []
    for n in counts:
        for k in range(per_count):
            src = rng.uniform(-1.0, 1.0, size=(n, 3))
            dst = transform_points(random_motion(rng), src)
            if k % 2:
                dst += 0.01 * rng.normal(size=dst.shape)
                bad = rng.random(n) < 0.3
                dst[bad] = rng.uniform(-1.0, 1.0, size=(int(bad.sum()), 3))
            sets.append(CorrespondenceSet(src, dst, rng.uniform(0.5, 1.0, n), np.zeros(n)))
    return [sets[k] for k in rng.permutation(len(sets))]


class TestBatchedIrls:
    # one set per batch; the 2048 group in batches of 3, 2 (ragged last);
    # the 128 group in batches of 2, 2, 1 and the 2048 group one per batch;
    # every group in a single batch
    BATCHES = (1, 3 * 2048, 2 * 128, 10**9)

    @pytest.mark.parametrize("iterations", [0, 1, 5])
    @pytest.mark.parametrize("blend", [0.0, 0.7, 1.0])
    def test_matches_per_edge_reference_in_every_batch_layout(self, monkeypatch, iterations, blend):
        sets = mixed_sets(np.random.default_rng(40))
        cfg = PipelineConfig(blend=blend)
        monkeypatch.setattr(pairwise_mod, "IRLS_ITERATIONS", iterations)
        expected = [reference_register(c, cfg, iterations) for c in sets]
        for batch in self.BATCHES:
            monkeypatch.setattr(pairwise_mod, "BATCH_CORRESPONDENCES", batch)
            got = register_batch(sets, cfg)
            assert len(got) == len(sets)
            for k, (c, (motion, weights)) in enumerate(zip(sets, expected)):
                assert np.abs(got.motions[k] - motion).max() <= 1e-12, (batch, len(c))
                assert np.abs(got.weights[k] - weights).max() <= 1e-12, (batch, len(c))
                assert got.inlier_ratio[k] == float(np.mean(weights > pairwise_mod.INLIER_WEIGHT))
        # the single-set record carries the residuals under the final motion
        for c, (motion, _) in zip(sets, expected):
            final = np.linalg.norm(
                c.source_pts @ motion[:3, :3].T + motion[:3, 3] - c.target_pts, axis=1
            )
            assert np.abs(register_correspondences(c, cfg).residuals - final).max() <= 1e-12

    def test_single_set_matches_its_batched_result(self):
        sets = mixed_sets(np.random.default_rng(41), counts=(64,), per_count=6)
        batched = register_batch(sets)
        for k, c in enumerate(sets):
            alone = register_correspondences(c)
            assert np.abs(alone.motion.matrix - batched.motions[k]).max() <= 1e-12
            assert abs(alone.local_confidence - batched.local_confidence[k]) <= 1e-12

    def test_repeated_calls_are_bit_identical(self):
        sets = mixed_sets(np.random.default_rng(42), counts=(4, 128))
        a, b = register_batch(sets), register_batch(sets)
        assert np.array_equal(a.motions, b.motions)
        for wa, wb in zip(a.weights, b.weights, strict=True):
            assert np.array_equal(wa, wb)

    def test_empty_input(self):
        for fits in (register_batch([]), one_step([], [])):
            assert len(fits) == 0 and fits.weights == ()
            assert fits.motions.shape == (0, 4, 4)

    @pytest.mark.parametrize(
        "order, error",
        [
            (("good", "collinear", "zero", "few"), DegenerateConfiguration),
            (("good", "zero", "collinear", "few"), ZeroWeightSum),
            (("good", "few", "zero", "collinear"), DegenerateConfiguration),
        ],
    )
    def test_first_failing_set_decides_the_error(self, monkeypatch, order, error):
        rng = np.random.default_rng(43)
        pts = rng.normal(size=(10, 3))
        line = np.outer(np.linspace(0.0, 1.0, 10), [1.0, 1.0, 0.0])
        kinds = {
            "good": CorrespondenceSet(pts, pts + 0.1, np.ones(10), np.zeros(10)),
            "collinear": CorrespondenceSet(line, line + 0.1, np.ones(10), np.zeros(10)),
            "zero": CorrespondenceSet(pts, pts, np.zeros(10), np.zeros(10)),
            "few": CorrespondenceSet(pts[:2], pts[:2], np.ones(2), np.zeros(2)),
        }
        sets = [kinds[k] for k in order]
        # the loop it replaces: the first failing set raises
        for c in sets:
            try:
                register_correspondences(c)
            except (DegenerateConfiguration, ZeroWeightSum) as exc:
                assert type(exc) is error
                break
        for batch in (1, 10**9):
            monkeypatch.setattr(pairwise_mod, "BATCH_CORRESPONDENCES", batch)
            with pytest.raises(error) as info:
                register_batch(sets)
            assert type(info.value) is error

    def test_batch_layout_does_not_change_bits(self, monkeypatch):
        # a set's fit depends on its own rows only, not on which sets share
        # its batch: register, and one step from the fitted weights
        sets = mixed_sets(np.random.default_rng(48))
        fits = register_batch(sets)
        calls = {
            "register": lambda: register_batch(sets),
            "step": lambda: one_step(sets, fits.weights),
        }
        results = {}
        for batch in self.BATCHES:
            monkeypatch.setattr(pairwise_mod, "BATCH_CORRESPONDENCES", batch)
            results[batch] = {name: call() for name, call in calls.items()}
        first = results[self.BATCHES[0]]
        for batch in self.BATCHES[1:]:
            for name, got in results[batch].items():
                want = first[name]
                assert np.array_equal(got.motions, want.motions), (batch, name)
                assert np.array_equal(got.inlier_ratio, want.inlier_ratio), (batch, name)
                assert np.array_equal(got.local_confidence, want.local_confidence), (batch, name)
                for wg, ww in zip(got.weights, want.weights, strict=True):
                    assert np.array_equal(wg, ww), (batch, name)

    def test_peak_memory_is_bounded(self):
        # 96 sets of 2048 correspondences, the synthetic-30x2048 shape: the
        # output weights take 1.6 MB; one stack of all sets at once peaked at
        # ~36 MB
        rng = np.random.default_rng(44)
        sets = []
        for _ in range(96):
            src = rng.uniform(-1.0, 1.0, size=(2048, 3))
            dst = src + 0.01 * rng.normal(size=src.shape)
            sets.append(CorrespondenceSet(src, dst, np.ones(2048), np.zeros(2048)))
        tracemalloc.start()
        try:
            results = register_batch(sets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(results) == 96
        assert peak < 8e6
