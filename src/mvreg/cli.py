"""Command line front end.

Subcommands:
  pairwise   register one scan onto another
  multiview  register a directory of scans into a shared frame
  synth      generate a synthetic scene on disk
  eval       score an estimated trajectory against a reference

Exit codes: 0 success, 1 operational failure (bad file, degenerate data),
2 usage error. Output rows are 'name value value ...' so they can be parsed
with split().
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .errors import LengthMismatch, MalformedEntry, RegistrationError
from .geometry import PointCloud
from .graph import build_graph
from .io_formats import (
    TrajectoryEntry,
    parse_index_pair,
    read_config,
    read_features,
    read_ply,
    read_trajectory,
    trajectory_from_motions,
    voxel_downsample,
    write_features,
    write_ply,
    write_trajectory,
)
from .metrics import (
    ROTATION_ECDF_THRESHOLDS_DEG,
    TRANSLATION_ECDF_THRESHOLDS_M,
    ecdf,
    motion_errors,
)
from .pairwise import build_correspondences, register_batch, register_pair
from .pipeline import canonical_pairs, pairwise_chain_absolute, run_multiview
from .synthetic import generate_scene


def _fmt(values) -> str:
    return " ".join("%.17g" % float(v) for v in np.atleast_1d(values))


def _load_cloud(ply_path: Path, feat_path: Path | None, voxel: float | None) -> PointCloud:
    cloud = read_ply(ply_path)
    if feat_path is not None:
        features = read_features(feat_path)
        if features.shape[0] != len(cloud):
            raise LengthMismatch(
                f"{feat_path} holds {features.shape[0]} descriptors for {len(cloud)} points"
            )
        cloud = PointCloud(cloud.points, features)
    else:
        # fall back to raw coordinates as descriptors
        cloud = PointCloud(cloud.points, cloud.points)
    if voxel is not None:
        cloud = voxel_downsample(cloud, voxel)
    return cloud


def _cmd_pairwise(args) -> int:
    feats = [Path(p) for p in args.features] if args.features else [None, None]
    src = _load_cloud(Path(args.source), feats[0], None)
    dst = _load_cloud(Path(args.target), feats[1], None)
    cfg = replace(PipelineConfig(), temperature=args.temperature)
    result = register_pair(src, dst, cfg)
    print("motion", _fmt(result.motion.matrix.ravel()))
    print("inlier_ratio", _fmt(result.inlier_ratio))
    print("local_confidence", _fmt(result.local_confidence))
    return 0


def _read_edge_list(path: Path):
    lines = [raw.strip() for raw in path.read_text(encoding="utf-8").splitlines()]
    return tuple(parse_index_pair(s, "edge line") for s in lines if s and not s.startswith("#"))


def _scan_paths(directory: Path):
    paths = sorted(directory.glob("scan_*.ply"))
    if not paths:
        raise FileNotFoundError(f"no scan_*.ply files in {directory}")
    return paths


def _cmd_multiview(args) -> int:
    directory = Path(args.directory)
    cfg = read_config(args.config) if args.config else PipelineConfig()
    if args.edges:
        cfg = replace(cfg, connectivity=_read_edge_list(Path(args.edges)))
    clouds = []
    for ply_path in _scan_paths(directory):
        feat_path = ply_path.with_suffix(".feat")
        clouds.append(
            _load_cloud(ply_path, feat_path if feat_path.exists() else None, args.voxel)
        )
    if args.pairwise_only:
        pairs = canonical_pairs(cfg.connectivity, len(clouds))
        sets = [build_correspondences(clouds[i], clouds[j], cfg.temperature) for i, j in pairs]
        graph = build_graph(len(clouds), pairs, register_batch(sets, cfg))
        absolute = pairwise_chain_absolute(graph)
        print("mode pairwise_chain")
        print("active_edges", int(graph.active.sum()))
    else:
        result, trace = run_multiview(clouds, cfg)
        absolute = result.absolute
        print("mode multiview")
        print("rotation_eigengap", _fmt(result.rotation_eigengap))
        print("active_edges", int(result.graph.active.sum()))
        print("disconnected", int(result.disconnected))
        print("stop_reason", trace.stop_reason)
    entries = trajectory_from_motions(absolute)
    if args.out:
        write_trajectory(entries, args.out)
        print("trajectory", args.out)
    else:
        for entry in entries:
            print(entry.i, entry.j, entry.n)
            for row in entry.matrix:
                print(_fmt(row))
    return 0


def _cmd_synth(args) -> int:
    scene = generate_scene(
        n_scans=args.scans,
        pts_per_scan=args.pts,
        noise_sigma=args.noise,
        outlier_edge_fraction=args.outliers,
        seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for idx, cloud in enumerate(scene.clouds):
        write_ply(cloud, out / f"scan_{idx:03d}.ply", binary=True)
        write_features(cloud.features, out / f"scan_{idx:03d}.feat")
    write_trajectory(trajectory_from_motions(scene.ground_truth), out / "gt.log")
    with open(out / "edges.txt", "w", encoding="utf-8") as handle:
        for i, j in scene.edges:
            handle.write(f"{i} {j}\n")
    if scene.corruptions:
        with open(out / "labels.txt", "w", encoding="utf-8") as handle:
            for i, j in scene.edges:
                handle.write(f"{i} {j} {scene.edge_labels[(i, j)]}\n")
        n = len(scene.clouds)
        corruption_entries = [
            TrajectoryEntry(i, j, n, m.matrix) for (i, j), m in scene.corruptions.items()
        ]
        write_trajectory(corruption_entries, out / "corruptions.log")
    print("scans", len(scene.clouds))
    print("edges", len(scene.edges))
    print("outlier_edges", sum(1 for label in scene.edge_labels.values() if label == "outlier"))
    print("directory", out)
    return 0


def _parse_thresholds(text: str | None, default):
    if text is None:
        return default
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _read_poses(path) -> np.ndarray:
    """The absolute poses of a trajectory file, (n, 4, 4); entry k must read 'k k n'."""
    entries = read_trajectory(path)
    n = len(entries)
    for k, e in enumerate(entries):
        if (e.i, e.j, e.n) != (k, k, n):
            raise MalformedEntry(f"{path}: entry {k} is ({e.i}, {e.j}, {e.n}), not the pose ({k}, {k}, {n})")
    return np.array([e.matrix for e in entries]).reshape(-1, 4, 4)


def _cmd_eval(args) -> int:
    est_m = _read_poses(args.est)
    gt_m = _read_poses(args.gt)
    if len(est_m) != len(gt_m):
        raise LengthMismatch(f"{len(est_m)} estimated motions vs {len(gt_m)} reference motions")
    rot_thresholds = _parse_thresholds(args.rot_thresholds, ROTATION_ECDF_THRESHOLDS_DEG)
    trans_thresholds = _parse_thresholds(args.trans_thresholds, TRANSLATION_ECDF_THRESHOLDS_M)
    # relatives M_j^-1 M_i of every pair i < j; trajectory files may hold
    # slightly non-rigid matrices, so invert them in general
    j, i = np.tril_indices(len(est_m), -1)
    rot_errors, trans_errors = motion_errors(
        np.linalg.solve(est_m[j], est_m[i]), np.linalg.solve(gt_m[j], gt_m[i])
    )
    # both curves before the first row, so a bad threshold list prints nothing
    rot_ecdf = ecdf(rot_errors, rot_thresholds)
    trans_ecdf = ecdf(trans_errors, trans_thresholds)
    print("pairs", rot_errors.size)
    print("rot_thresholds_deg", _fmt(rot_thresholds))
    print("rot_ecdf", _fmt(rot_ecdf))
    print("trans_thresholds_m", _fmt(trans_thresholds))
    print("trans_ecdf", _fmt(trans_ecdf))
    print("rot_mean_deg", _fmt(np.mean(rot_errors)))
    print("rot_median_deg", _fmt(np.median(rot_errors)))
    print("trans_mean_m", _fmt(np.mean(trans_errors)))
    print("trans_median_m", _fmt(np.median(trans_errors)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvreg", description="Multi-scan rigid registration toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pairwise", help="register a source scan onto a target scan")
    p.add_argument("source", help="source PLY file")
    p.add_argument("target", help="target PLY file")
    p.add_argument("--features", nargs=2, metavar=("SRC", "DST"),
                   help="descriptor files for source and target")
    p.add_argument("--temperature", type=float, default=PipelineConfig().temperature,
                   help="softmax temperature for correspondence weighting")
    p.set_defaults(func=_cmd_pairwise)

    p = sub.add_parser("multiview", help="register scan_*.ply files in a directory")
    p.add_argument("directory", help="directory holding scan_*.ply (+ optional .feat) files")
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--edges", help="file with one 'i j' scan pair per line")
    p.add_argument("--out", help="write the absolute trajectory to this file")
    p.add_argument("--voxel", type=float, default=None,
                   help="voxel size for downsampling before registration")
    p.add_argument("--pairwise-only", action="store_true",
                   help="chain pairwise estimates along a spanning tree instead of synchronizing")
    p.set_defaults(func=_cmd_multiview)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--scans", type=int, default=10)
    p.add_argument("--pts", type=int, default=512)
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--outliers", type=float, default=0.0,
                   help="fraction of scan pairs labelled as corrupted; only labels.txt and "
                        "corruptions.log record them, the scan files stay clean")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("eval", help="compare two trajectories")
    p.add_argument("--est", required=True, help="estimated trajectory file")
    p.add_argument("--gt", required=True, help="reference trajectory file")
    p.add_argument("--rot-thresholds", help="comma separated degree thresholds")
    p.add_argument("--trans-thresholds", help="comma separated metre thresholds")
    p.set_defaults(func=_cmd_eval)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (RegistrationError, OSError, ValueError) as exc:
        print(f"mvreg: error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
