#!/usr/bin/env python3
"""Seed sweep on synthetic scenes: per-edge errors of the measured pairwise
motions vs. the synchronized estimates, with rotation/translation ECDFs.

Per seed, iters is the number of outer iterations run, stop is why the
loop stopped (the trace's stop_reason), and pruned counts the edges left
inactive as corrupted/clean, by the scene's corruptions. solve(s) is the
wall time of scene_correspondences (the correspondence kernel) plus
run_multiview_from_correspondences, the span the benchmark times as
solve_s; gen(s) is the wall time of generate_scene.

Seeds run from --first-seed, 200 by default: the tests, the benchmark and
earlier probes use seeds 0-14 and 100-105.

--budget adds an error budget: the mean rotation and translation error on
the scene's clean edges of each stage that can lose accuracy. oracle
fits the points each pair truly shares (the scans' common base points),
kernel fits the correspondence kernel's sets, both by register_batch as
the loop does; first sync and final are the relative motions the loop's
first and last synchronizations imply. Per seed, then over the clean
edges of all seeds.

Usage:
  python3 scripts/run_synthetic_experiment.py --scans 30 --pts 2048 \
      --noise 0.01 --outliers 0.2 --seeds 5 --budget
"""

import argparse
import time

import numpy as np

from mvreg import (
    ROTATION_ECDF_THRESHOLDS_DEG,
    TRANSLATION_ECDF_THRESHOLDS_M,
    CorrespondenceSet,
    ecdf,
    generate_scene,
    register_batch,
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
    pairs = list(map(tuple, result.graph.pairs.tolist()))
    truth = relative_motions(np.stack([m.matrix for m in scene.ground_truth]), pairs)
    pairwise_rot, pairwise_trans = motion_errors(result.graph.motions, truth)
    final_rot, final_trans = motion_errors(
        relative_motions(trace.iterations[-1].poses, pairs), truth
    )
    inactive = [pair in scene.corruptions
                for pair, active in zip(pairs, result.graph.active) if not active]
    budget = error_budget(scene, correspondences, pairs, trace) if args.budget else None
    return {
        "seed": seed,
        "edges": len(scene.edges),
        "iterations": len(trace.iterations),
        "stop": trace.stop_reason,
        "pruned": "%d/%d" % (inactive.count(True), inactive.count(False)),
        "gen_s": t1 - t0,
        "solve_s": t2 - t1,
        "pairwise_rot": pairwise_rot,
        "pairwise_trans": pairwise_trans,
        "final_rot": final_rot,
        "final_trans": final_trans,
        "budget": budget,
    }


def oracle_correspondences(scene, i, j):
    """The points scans i and j share, in each scan's frame, weight 1."""
    _, rows_i, rows_j = np.intersect1d(scene.base_indices[i], scene.base_indices[j],
                                       assume_unique=True, return_indices=True)
    return CorrespondenceSet(scene.clouds[i].points[rows_i], scene.clouds[j].points[rows_j],
                             np.ones(len(rows_i)))


def error_budget(scene, correspondences, pairs, trace):
    """(rotation, translation) errors on the clean edges of each stage."""
    clean = [pair for pair in pairs if pair not in scene.corruptions]
    truth = relative_motions(np.stack([m.matrix for m in scene.ground_truth]), clean)
    stages = {
        "oracle": register_batch([oracle_correspondences(scene, *pair) for pair in clean]).motions,
        "kernel": register_batch([correspondences[pair] for pair in clean]).motions,
        "first sync": relative_motions(trace.iterations[0].poses, clean),
        "final": relative_motions(trace.iterations[-1].poses, clean),
    }
    return {name: motion_errors(motions, truth) for name, motions in stages.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scans", type=int, default=30)
    parser.add_argument("--pts", type=int, default=2048)
    parser.add_argument("--noise", type=float, default=0.01)
    parser.add_argument("--outliers", type=float, default=0.2)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=200)
    parser.add_argument("--temperature", type=float, default=0.02)
    parser.add_argument("--budget", action="store_true",
                        help="print the error of each stage on the clean edges")
    args = parser.parse_args()

    rows = [run_seed(seed, args) for seed in range(args.first_seed, args.first_seed + args.seeds)]

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

    if args.budget:
        stages = list(rows[0]["budget"])
        pooled = {k: [np.concatenate([row["budget"][k][axis] for row in rows]) for axis in (0, 1)]
                  for k in stages}
        print("\nerror budget on clean edges: mean rotation (deg) / translation (m)")
        print("%-5s" % "seed" + "".join(" %-16s" % k for k in stages))
        for label, errors in [(str(row["seed"]), row["budget"]) for row in rows] + [("all", pooled)]:
            print("%-5s" % label + "".join(
                " %-16s" % ("%.3f/%.4f" % (np.mean(errors[k][0]), np.mean(errors[k][1])))
                for k in stages))

if __name__ == "__main__":
    main()
