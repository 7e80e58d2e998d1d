#!/usr/bin/env python3
"""Seed sweep on synthetic scenes: per-edge errors of the measured pairwise
motions vs. the synchronized estimates, with rotation/translation ECDFs.

Per seed, iters is the number of outer iterations run, stop is why the
loop stopped (the trace's stop_reason), and pruned counts the edges left
inactive as corrupted/clean, by the scene's edge labels. solve(s) is the
wall time of scene_correspondences (the correspondence kernel) plus
run_multiview_from_correspondences, the span the benchmark times as
solve_s; gen(s) is the wall time of generate_scene.

Usage:
  python3 scripts/run_synthetic_experiment.py --scans 30 --pts 2048 \
      --noise 0.01 --outliers 0.2 --seeds 5
"""

import argparse
import time

import numpy as np

from mvreg import (
    ROTATION_ECDF_THRESHOLDS_DEG,
    TRANSLATION_ECDF_THRESHOLDS_M,
    ecdf,
    generate_scene,
    run_multiview_from_correspondences,
    scene_correspondences,
)
from mvreg.geometry import relative_motions
from mvreg.metrics import motion_errors


def run_seed(seed, args):
    t0 = time.perf_counter()
    scene = generate_scene(
        n_scans=args.scans,
        pts_per_scan=args.pts,
        noise_sigma=args.noise,
        outlier_edge_fraction=args.outliers,
        seed=seed,
    )
    t1 = time.perf_counter()
    correspondences = scene_correspondences(scene, temperature=args.temperature)
    result, trace = run_multiview_from_correspondences(correspondences, args.scans)
    t2 = time.perf_counter()
    # per-edge errors against the true relative motions: of the measured
    # pairwise motions, and of those the last synchronization implies
    truth = relative_motions(np.stack([m.matrix for m in scene.ground_truth]), trace.pairs)
    pairwise_rot, pairwise_trans = motion_errors(trace.motions, truth)
    final_rot, final_trans = motion_errors(
        relative_motions(trace.iterations[-1].poses, trace.pairs), truth
    )
    inactive = [scene.edge_labels[pair] for pair, active in zip(trace.pairs, result.graph.active)
                if not active]
    return {
        "seed": seed,
        "edges": len(scene.edges),
        "iterations": len(trace.iterations),
        "stop": trace.stop_reason,
        "pruned": "%d/%d" % (inactive.count("outlier"), inactive.count("inlier")),
        "gen_s": t1 - t0,
        "solve_s": t2 - t1,
        "pairwise_rot": pairwise_rot,
        "pairwise_trans": pairwise_trans,
        "final_rot": final_rot,
        "final_trans": final_trans,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scans", type=int, default=30)
    parser.add_argument("--pts", type=int, default=2048)
    parser.add_argument("--noise", type=float, default=0.01)
    parser.add_argument("--outliers", type=float, default=0.2)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--temperature", type=float, default=0.02)
    args = parser.parse_args()

    rows = [run_seed(seed, args) for seed in range(args.seeds)]

    print(
        "%-5s %-6s %-5s %-16s %-7s %-11s %-11s %-11s %-11s %-8s %-8s"
        % ("seed", "edges", "iters", "stop", "pruned", "pw rot(deg)", "fin rot", "pw trans(m)",
           "fin trans", "solve(s)", "gen(s)")
    )
    for row in rows:
        print(
            "%-5d %-6d %-5d %-16s %-7s %-11.3f %-11.3f %-11.4f %-11.4f %-8.2f %-8.3f"
            % (
                row["seed"], row["edges"], row["iterations"], row["stop"], row["pruned"],
                float(np.mean(row["pairwise_rot"])), float(np.mean(row["final_rot"])),
                float(np.mean(row["pairwise_trans"])), float(np.mean(row["final_trans"])),
                row["solve_s"], row["gen_s"],
            )
        )

    pw_rot = np.concatenate([row["pairwise_rot"] for row in rows])
    fin_rot = np.concatenate([row["final_rot"] for row in rows])
    pw_trans = np.concatenate([row["pairwise_trans"] for row in rows])
    fin_trans = np.concatenate([row["final_trans"] for row in rows])
    print("\nrotation ECDF at", ROTATION_ECDF_THRESHOLDS_DEG, "degrees")
    print("  pairwise ", ["%.3f" % v for v in ecdf(pw_rot, ROTATION_ECDF_THRESHOLDS_DEG)])
    print("  final    ", ["%.3f" % v for v in ecdf(fin_rot, ROTATION_ECDF_THRESHOLDS_DEG)])
    print("translation ECDF at", TRANSLATION_ECDF_THRESHOLDS_M, "meters")
    print("  pairwise ", ["%.3f" % v for v in ecdf(pw_trans, TRANSLATION_ECDF_THRESHOLDS_M)])
    print("  final    ", ["%.3f" % v for v in ecdf(fin_trans, TRANSLATION_ECDF_THRESHOLDS_M)])


if __name__ == "__main__":
    main()
