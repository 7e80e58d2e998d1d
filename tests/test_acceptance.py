"""Acceptance checks for the full registration stack.

Each test covers one numbered criterion and is written to run standalone;
`pytest -v tests/test_acceptance.py` prints one pass/fail line per criterion.
"""

import struct
import time

import numpy as np
import pytest

import mvreg.graph as graph_mod
import mvreg.pairwise as pairwise_mod
import mvreg.pipeline as pipeline_mod
from mvreg import (
    CorrespondenceSet,
    MalformedConfig,
    MalformedEntry,
    MalformedHeader,
    PipelineConfig,
    PointCloud,
    PoseGraph,
    TruncatedPayload,
    UnsupportedFormat,
    cauchy_scale,
    build_correspondences,
    ecdf,
    harmonic_fuse,
    invert,
    read_config,
    read_features,
    read_ply,
    read_trajectory,
    rotation_sync,
    run_multiview,
    run_multiview_from_correspondences,
    transf_sync,
    transform_points,
    translation_objective,
    translation_sync,
    trajectory_from_motions,
    wls_transform,
    write_features,
    write_ply,
    write_trajectory,
)
from mvreg.geometry import relative_motions
from mvreg.metrics import motion_errors
from mvreg.synthetic import (
    generate_scene,
    random_motion,
    scene_correspondences,
)

from conftest import rotation_gap_deg


def complete_noisy_graph(rng, n, rot_sigma=0.05, trans_sigma=0.05, confidences=None):
    from mvreg.synthetic import rotation_about_axis
    from mvreg import RigidMotion

    truth = [random_motion(rng) for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    relative = relative_motions(np.stack([m.matrix for m in truth]), pairs)
    motions, c = [], []
    for rel in relative:
        noise = RigidMotion(
            rotation_about_axis(rng.normal(size=3), rot_sigma * rng.normal()),
            trans_sigma * rng.normal(size=3),
        )
        motions.append(noise.matrix @ rel)
        c.append(rng.uniform(0.1, 1.0) if confidences is None else confidences)
    return PoseGraph(n, pairs, motions, c), truth


def test_01_procrustes_exactness_1000_noise_free_trials():
    rng = np.random.default_rng(101)
    worst_angle = 0.0
    worst_trans = 0.0
    start = time.perf_counter()
    for _ in range(1000):
        pts = rng.uniform(-1.0, 1.0, size=(100, 3))
        gen = random_motion(rng)
        corr = CorrespondenceSet(
            pts, transform_points(gen, pts), np.ones(100), np.zeros(100)
        )
        fit = wls_transform(corr)
        # angle via the arcsin identity: the arccos form cannot resolve
        # below ~1.2e-6 degrees, which sits above this tolerance
        worst_angle = max(worst_angle, rotation_gap_deg(fit.rotation, gen.rotation))
        worst_trans = max(worst_trans, float(np.linalg.norm(fit.translation - gen.translation)))
    elapsed = time.perf_counter() - start
    print(f"criterion 1: max angle {worst_angle:.3e} deg, max |dt| {worst_trans:.3e} m, {elapsed:.2f} s")
    assert worst_angle < 1e-6
    assert worst_trans < 1e-9
    assert elapsed < 5.0


def test_02_zero_weight_outliers_do_not_move_the_fit():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        n_in, n_out = 60, 20
        gen = random_motion(rng)
        inlier_src = rng.uniform(-1, 1, size=(n_in, 3))
        outlier_src = rng.uniform(-3, 3, size=(n_out, 3))
        src = np.vstack([inlier_src, outlier_src])
        dst = np.vstack(
            [transform_points(gen, inlier_src), rng.uniform(-3, 3, size=(n_out, 3))]
        )
        w = np.concatenate([rng.uniform(0.2, 1.0, n_in), np.zeros(n_out)])
        full = wls_transform(CorrespondenceSet(src, dst, w, np.zeros(n_in + n_out)))
        subset = wls_transform(
            CorrespondenceSet(src[:n_in], dst[:n_in], w[:n_in], np.zeros(n_in))
        )
        worst = max(worst, float(np.linalg.norm(full.matrix - subset.matrix)))
    print(f"criterion 2: max |full - subset| {worst:.3e}")
    assert worst < 1e-12


def test_03_rotation_sync_exactness_and_eigengap():
    rng = np.random.default_rng(103)
    n = 10
    truth = [random_motion(rng) for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    motions = relative_motions(np.stack([m.matrix for m in truth]), pairs)
    g = PoseGraph(n, pairs, motions, [0.9] * len(pairs))
    rotations = rotation_sync(g)
    worst = 0.0
    for (i, j), motion in zip(g.pairs, g.motions):
        rebuilt = rotations[j].T @ rotations[i]
        worst = max(worst, np.radians(rotation_gap_deg(motion[:3, :3], rebuilt)))
    lap = np.zeros((3 * n, 3 * n))
    for (i, j), motion, c in zip(g.pairs, g.motions, g.c_fused):
        si, sj = 3 * i, 3 * j
        rel = motion[:3, :3]
        lap[si:si + 3, sj:sj + 3] -= c * rel.T
        lap[sj:sj + 3, si:si + 3] -= c * rel
        lap[si:si + 3, si:si + 3] += c * np.eye(3)
        lap[sj:sj + 3, sj:sj + 3] += c * np.eye(3)
    vals = np.linalg.eigvalsh(lap)
    print(f"criterion 3: max relative-rotation error {worst:.3e} rad, "
          f"eigs {vals[:3]} vs {vals[3]:.3e}")
    assert worst < 1e-6
    assert np.all(np.abs(vals[:3]) < 1e-9 * vals[3])


def test_04_translation_sync_stationarity_100_noisy_graphs():
    rng = np.random.default_rng(104)
    eps = 1e-6
    for trial in range(100):
        n = int(rng.integers(4, 8))
        g, _ = complete_noisy_graph(rng, n)
        rotations = rotation_sync(g)
        t_star = np.array(translation_sync(g, rotations)).ravel()
        base = translation_objective(g, rotations, t_star)
        scale = max(base, 1e-9)
        grad = np.empty(t_star.size)
        for k in range(t_star.size):
            d = np.zeros(t_star.size)
            d[k] = eps
            grad[k] = (
                translation_objective(g, rotations, t_star + d)
                - translation_objective(g, rotations, t_star - d)
            ) / (2 * eps)
        assert np.linalg.norm(grad) < 1e-6 * scale, f"trial {trial}"
        for _ in range(20):
            delta = rng.normal(size=t_star.size)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert translation_objective(g, rotations, t_star + delta) >= base - 1e-15
    print("criterion 4: gradient and descent checks held on 100 graphs")


def test_05_gauge_invariance_of_recovered_relative_motions():
    from mvreg import RigidMotion
    from mvreg.synthetic import rotation_about_axis

    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(20):
        n = 6
        truth = [random_motion(rng) for _ in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        noise = [
            RigidMotion(
                rotation_about_axis(rng.normal(size=3), 0.02 * rng.normal()),
                0.02 * rng.normal(size=3),
            )
            for _ in pairs
        ]
        gauge = random_motion(rng)

        noise = np.stack([m.matrix for m in noise])

        def solve(poses):
            motions = noise @ relative_motions(poses, pairs)
            return transf_sync(PoseGraph(n, pairs, motions, [0.9] * len(pairs)), rounds=2).poses

        truth = np.stack([m.matrix for m in truth])
        rel_a = relative_motions(solve(truth), pairs)
        rel_b = relative_motions(solve(gauge.matrix @ truth), pairs)
        worst = max(worst, float(np.linalg.norm(rel_a - rel_b, axis=(1, 2)).max()))
    print(f"criterion 5: max relative-motion change under re-gauging {worst:.3e}")
    assert worst < 1e-9


def test_06_soft_assignment_hard_limit_1000_queries():
    rng = np.random.default_rng(106)
    feats = rng.normal(size=(100, 16))
    pts = rng.normal(size=(100, 3))
    queries = rng.normal(size=(1000, 16))
    dist = np.linalg.norm(feats[None] - queries[:, None], axis=2)
    nn = np.argmin(dist, axis=1)
    out = pairwise_mod._soft_targets(queries, feats, pts, 1e-6)
    worst = float(np.linalg.norm(out - pts[nn], axis=1).max())
    print(f"criterion 6: max deviation from hard nearest neighbour {worst:.3e}")
    assert worst < 1e-9
    # build_correspondences keeps the rows that are their nearest target's
    # nearest query, with those rows' targets
    kept = np.flatnonzero(dist[np.arange(1000), nn] <= dist.min(axis=0)[nn])
    source = PointCloud(np.arange(3000.0).reshape(1000, 3), queries)
    corr = build_correspondences(source, PointCloud(pts, feats), temperature=1e-6)
    assert np.array_equal(corr.source_pts, source.points[kept])
    assert float(np.linalg.norm(corr.target_pts - out[kept], axis=1).max()) < 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_07_multiview_refinement_beats_pairwise_baseline(seed):
    start = time.perf_counter()
    scene = generate_scene(
        n_scans=30, pts_per_scan=2048, noise_sigma=0.01,
        outlier_edge_fraction=0.2, seed=seed,
    )
    cfg = PipelineConfig(connectivity=scene.edges)
    corr = scene_correspondences(scene, cfg.temperature)
    result, trace = run_multiview_from_correspondences(corr, 30, cfg)
    elapsed = time.perf_counter() - start
    pairs = result.graph.pairs
    truth = relative_motions(np.stack([m.matrix for m in scene.ground_truth]), pairs)
    pairwise, _ = motion_errors(result.graph.motions, truth)
    final, _ = motion_errors(relative_motions(trace.iterations[-1].poses, pairs), truth)
    pw_mean = float(np.mean(pairwise))
    fin_mean = float(np.mean(final))
    pw_ecdf = ecdf(pairwise, [10.0])[0]
    fin_ecdf = ecdf(final, [10.0])[0]
    print(
        f"criterion 7 seed {seed}: mean {pw_mean:.2f} -> {fin_mean:.2f} deg, "
        f"ECDF@10deg {pw_ecdf:.3f} -> {fin_ecdf:.3f}, {elapsed:.1f} s"
    )
    assert fin_mean <= pw_mean
    assert fin_ecdf >= pw_ecdf
    assert elapsed < 60.0


def test_08_cauchy_scale_hand_computed_value():
    value = cauchy_scale(np.array([1.0, 2.0, 3.0, 4.0, 100.0]))
    print(f"criterion 8: cauchy_scale = {value!r}")
    assert value == 4.446


def test_09_harmonic_fusion_bounded_by_inputs():
    rng = np.random.default_rng(109)
    c_local = rng.uniform(0.0, 1.0, 100_000)
    c_global = rng.uniform(0.0, 1.0, 100_000)
    lo = np.minimum(c_local, c_global)
    hi = np.maximum(c_local, c_global)
    fused = np.array([harmonic_fuse(a, b) for a, b in zip(c_local, c_global)])
    print(f"criterion 9: fused range [{fused.min():.4f}, {fused.max():.4f}] over 1e5 samples")
    assert np.all(fused >= lo)
    assert np.all(fused <= hi)


def test_10_pruning_collapse_returns_last_connected_poses(monkeypatch):
    rng = np.random.default_rng(110)
    base = rng.uniform(-1.0, 1.0, size=(60, 3))
    truth = [random_motion(rng) for _ in range(6)]
    clouds = []
    for m in truth:
        # express the shared points in each scan frame, with mild noise so
        # the edges' global confidences differ
        local = transform_points(invert(m), base) + 5e-3 * rng.normal(size=base.shape)
        clouds.append(PointCloud(local, base.copy()))
    ring = tuple((k, (k + 1) % 6) for k in range(6))
    # a ratio of 1 prunes the edges below the median, half the ring's six,
    # which disconnects it
    monkeypatch.setattr(graph_mod, "PRUNE_RATIO", 1.0)
    cfg = PipelineConfig(temperature=1e-6, connectivity=ring)
    result, trace = run_multiview(clouds, cfg)
    result2, _ = run_multiview(clouds, cfg)
    monkeypatch.setattr(pipeline_mod, "OUTER_ITERATIONS", 1)
    one_iteration, _ = run_multiview(clouds, cfg)
    print(
        f"criterion 10: disconnected={result.disconnected}, "
        f"iterations={len(trace.iterations)}, active={trace.iterations[-1].active_edges}"
    )
    assert result.disconnected
    assert trace.stop_reason == "pruning_collapse"
    # deterministic, and identical to the poses of the last connected sync
    for a, b, c in zip(result.absolute, result2.absolute, one_iteration.absolute):
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.matrix, c.matrix)


def test_11_io_round_trips_and_malformed_corpus(tmp_path):
    rng = np.random.default_rng(111)

    pts = rng.uniform(-5, 5, size=(50, 3))
    write_ply(PointCloud(pts), tmp_path / "a.ply", binary=False)
    assert np.array_equal(read_ply(tmp_path / "a.ply").points, pts)
    write_ply(PointCloud(pts), tmp_path / "b.ply", binary=True)
    assert np.array_equal(read_ply(tmp_path / "b.ply").points, pts)

    feats = rng.normal(size=(20, 33)).astype(np.float32)
    write_features(feats, tmp_path / "a.feat")
    assert np.array_equal(read_features(tmp_path / "a.feat").astype(np.float32), feats)

    motions = [random_motion(rng) for _ in range(7)]
    write_trajectory(trajectory_from_motions(motions), tmp_path / "a.log")
    for entry, motion in zip(read_trajectory(tmp_path / "a.log"), motions):
        assert np.array_equal(entry.matrix, motion.matrix)

    corpus = [
        ("bad_magic.ply", b"plx\nformat ascii 1.0\nend_header\n", read_ply, MalformedHeader),
        (
            "big_endian.ply",
            b"ply\nformat binary_big_endian 1.0\nelement vertex 1\n"
            b"property double x\nproperty double y\nproperty double z\nend_header\n",
            read_ply,
            UnsupportedFormat,
        ),
        ("no_end.ply", b"ply\nformat ascii 1.0\nelement vertex 1\n", read_ply, MalformedHeader),
        (
            "bad_count.ply",
            b"ply\nformat ascii 1.0\nelement vertex two\nend_header\n",
            read_ply,
            MalformedHeader,
        ),
        (
            "missing_z.ply",
            b"ply\nformat ascii 1.0\nelement vertex 1\n"
            b"property double x\nproperty double y\nend_header\n0 0\n",
            read_ply,
            MalformedHeader,
        ),
        (
            "short_payload.ply",
            b"ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
            b"property double x\nproperty double y\nproperty double z\nend_header\n"
            + b"\x00" * 24,
            read_ply,
            TruncatedPayload,
        ),
        (
            "long_payload.ply",
            b"ply\nformat ascii 1.0\nelement vertex 1\n"
            b"property double x\nproperty double y\nproperty double z\nend_header\n"
            b"0 0 0\n1 1 1\n",
            read_ply,
            TruncatedPayload,
        ),
        (
            "bad_row.ply",
            b"ply\nformat ascii 1.0\nelement vertex 1\n"
            b"property double x\nproperty double y\nproperty double z\nend_header\n"
            b"0 zero 0\n",
            read_ply,
            TruncatedPayload,
        ),
        ("bad_magic.feat", b"FETA" + struct.pack("<III", 1, 1, 0) + b"\x00" * 4, read_features, MalformedHeader),
        ("bad_reserved.feat", b"FEAT" + struct.pack("<III", 1, 1, 9) + b"\x00" * 4, read_features, MalformedHeader),
        ("short.feat", b"FEAT" + struct.pack("<III", 4, 4, 0) + b"\x00" * 8, read_features, TruncatedPayload),
        ("bad_meta.log", b"0 0\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n", read_trajectory, MalformedEntry),
        ("missing_rows.log", b"0 0 1\n1 0 0 0\n0 1 0 0\n", read_trajectory, MalformedEntry),
        ("bad_bottom.log", b"0 0 1\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 1 1\n", read_trajectory, MalformedEntry),
        ("nan.log", b"0 0 1\nnan 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n", read_trajectory, MalformedEntry),
        ("unknown_key.cfg", b"not_a_field=3\n", read_config, MalformedConfig),
        ("no_equals.cfg", b"blend 0.5\n", read_config, MalformedConfig),
        ("bad_value.cfg", b"blend=high\n", read_config, MalformedConfig),
    ]
    assert len(corpus) >= 10
    for name, payload, reader, expected in corpus:
        path = tmp_path / name
        path.write_bytes(payload)
        with pytest.raises(expected):
            reader(path)
    print(f"criterion 11: round-trips exact; {len(corpus)} malformed files rejected")


def test_12_ecdf_matches_hand_computed_fractions():
    values = ecdf([1.0, 4.0, 20.0], [3.0, 5.0, 10.0, 30.0, 45.0])
    print(f"criterion 12: ecdf = {values}")
    assert values == [1 / 3, 2 / 3, 2 / 3, 1.0, 1.0]
