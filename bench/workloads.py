"""The benchmark's workloads: seeded input generation (set-up) and one solve.

A solve turns a workload's inputs into absolute poses and is the only part
that is timed as ``solve_s``. Everything a solve reads was made by ``setup``
from the seed alone. Calls into mvreg go through module attributes
(``synthetic.scene_correspondences``, ``pipeline.run_multiview_from_correspondences``,
``cli.cli_main``) so the tracer in ``spans.py`` sees them when it is installed.

The workload names and the reason each was chosen live in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from mvreg import cli, io_formats, pipeline, synthetic
from mvreg.config import PipelineConfig
from mvreg.geometry import PointCloud, RigidMotion
from mvreg.pairwise import CorrespondenceSet

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))

NOISE_M = 0.01
OUTLIER_EDGE_FRACTION = 0.2  # synthetic-30x2048 only
DESCRIPTOR_NOISE = 0.01  # per axis of the 3-d descriptors, as in generate_scene

# Input sizes: FULL is what the benchmark runs, TOY is for its self-test.
# ``instances`` is how many inputs one untraced run sets up and solves in turn.
FULL = {
    "synthetic-30x2048": {"instances": 4, "scans": 30, "points": 2048},
    "posegraph-ring400": {"instances": 2, "scans": 400, "neighbours": 3,
                          "correspondences": 128},
    "cli-10x4096-d32": {"instances": 4, "scans": 10, "points": 4096, "neighbours": 1,
                        "descriptor_dim": 32},
}
TOY = {
    "synthetic-30x2048": {"instances": 2, "scans": 8, "points": 96},
    "posegraph-ring400": {"instances": 2, "scans": 12, "neighbours": 3, "correspondences": 16},
    "cli-10x4096-d32": {"instances": 2, "scans": 6, "points": 96, "neighbours": 1,
                        "descriptor_dim": 8},
}


@dataclass
class Inputs:
    """What set-up produced: ground truth, measured pairs and solve inputs."""

    n: int
    edges: tuple[tuple[int, int], ...]
    ground_truth: np.ndarray  # n x 4 x 4 absolute poses
    payload: dict = field(default_factory=dict)


@dataclass
class Solved:
    poses: np.ndarray  # n x 4 x 4 absolute poses
    disconnected: bool


@dataclass(frozen=True)
class Workload:
    name: str
    # setup(seed, sizes, work_dir): work_dir is where a workload may write files
    setup: Callable[[int, dict, Path], Inputs]
    solve: Callable[[Inputs], Solved]

    @property
    def why(self) -> str:
        return next(w["why"] for w in SPEC["workloads"] if w["name"] == self.name)


def stack_poses(motions) -> np.ndarray:
    return np.stack([m.matrix for m in motions])


def _solved(result) -> Solved:
    sync_result, _trace = result
    return Solved(stack_poses(sync_result.absolute), bool(sync_result.disconnected))


def _ring_edges(n: int, k: int) -> tuple[tuple[int, int], ...]:
    """Each scan linked to the next k on a ring, as sorted (i < j) pairs."""
    return tuple(sorted({tuple(sorted((i, (i + d) % n))) for i in range(n) for d in range(1, k + 1)}))


# --- synthetic-30x2048: the paper protocol -------------------------------

def _synthetic_setup(seed: int, sizes: dict, work_dir: Path) -> Inputs:
    scene = synthetic.generate_scene(
        sizes["scans"], sizes["points"], NOISE_M, OUTLIER_EDGE_FRACTION, seed
    )
    cfg = PipelineConfig(connectivity=scene.edges)
    return Inputs(len(scene.clouds), scene.edges, stack_poses(scene.ground_truth),
                  {"scene": scene, "cfg": cfg})


def _synthetic_solve(inputs: Inputs) -> Solved:
    scene, cfg = inputs.payload["scene"], inputs.payload["cfg"]
    corr = synthetic.scene_correspondences(scene, cfg.temperature)
    return _solved(pipeline.run_multiview_from_correspondences(corr, inputs.n, cfg))


# --- posegraph-ring400: sync-bound, no correspondence kernel ---------------
# The ring's edges are clean: with 20% corrupted edges its mean rotation error
# moved between 1.9 and 3.6 deg from seed to seed (the ring's few low-frequency
# modes absorb the outliers' pull), too wide for a bounded metric. Outlier
# robustness is measured on synthetic-30x2048.

def _ring_setup(seed: int, sizes: dict, work_dir: Path) -> Inputs:
    rng = np.random.default_rng(seed)
    n, k, m = sizes["scans"], sizes["neighbours"], sizes["correspondences"]
    truth = [RigidMotion.identity()] + [synthetic.random_motion(rng) for _ in range(n - 1)]
    gt = stack_poses(truth)
    edges = _ring_edges(n, k)
    correspondences = {}
    for i, j in edges:
        relative = np.linalg.solve(gt[j], gt[i])  # frame i -> frame j
        src = rng.uniform(-1.0, 1.0, size=(m, 3))
        dst = src @ relative[:3, :3].T + relative[:3, 3] + NOISE_M * rng.normal(size=(m, 3))
        correspondences[(i, j)] = CorrespondenceSet(src, dst, np.ones(m), np.zeros(m))
    return Inputs(n, edges, gt, {"correspondences": correspondences})


def _ring_solve(inputs: Inputs) -> Solved:
    return _solved(pipeline.run_multiview_from_correspondences(
        inputs.payload["correspondences"], inputs.n, PipelineConfig()
    ))


# --- cli-10x4096-d32: files on disk, 32-d descriptors, the CLI ---------------

def _lift_descriptors(rng: np.random.Generator, clouds, world, dim: int):
    """Map the 3-d world-coordinate descriptors into ``dim`` dimensions.

    A seeded orthonormal 3 -> dim map keeps the descriptor distances; the
    noise is spread over all ``dim`` axes with the same total variance as
    generate_scene's 3-d descriptor noise.
    """
    basis, _ = np.linalg.qr(rng.normal(size=(dim, 3)))  # dim x 3, orthonormal columns
    sigma = DESCRIPTOR_NOISE * np.sqrt(3.0 / dim)
    return [PointCloud(c.points, w @ basis.T + sigma * rng.normal(size=(len(w), dim)))
            for c, w in zip(clouds, world)]


def _cli_setup(seed: int, sizes: dict, work_dir: Path) -> Inputs:
    scene = synthetic.generate_scene(sizes["scans"], sizes["points"], NOISE_M, 0.0, seed,
                                     descriptor_noise=0.0)
    world = [scene.base_points[idx] for idx in scene.base_indices]
    clouds = _lift_descriptors(np.random.default_rng([seed, 32]), scene.clouds, world,
                               sizes["descriptor_dim"])
    edges = _ring_edges(len(clouds), sizes["neighbours"])
    directory = work_dir / f"cli-seed{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    for idx, cloud in enumerate(clouds):
        io_formats.write_ply(cloud, directory / f"scan_{idx:03d}.ply", binary=True)
        io_formats.write_features(cloud.features, directory / f"scan_{idx:03d}.feat")
    io_formats.write_trajectory(io_formats.trajectory_from_motions(scene.ground_truth),
                                directory / "gt.log")
    (directory / "edges.txt").write_text("".join(f"{i} {j}\n" for i, j in edges),
                                         encoding="utf-8")
    return Inputs(len(clouds), edges, stack_poses(scene.ground_truth), {"dir": directory})


def _cli_solve(inputs: Inputs) -> Solved:
    directory = inputs.payload["dir"]
    out = directory / "est.log"
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = cli.cli_main(["multiview", str(directory), "--edges", str(directory / "edges.txt"),
                             "--out", str(out)])
        if code == 0:
            code = cli.cli_main(["eval", "--est", str(out), "--gt", str(directory / "gt.log")])
    if code != 0:
        raise RuntimeError(f"mvreg cli exited with {code}")
    rows = dict(line.split(" ", 1) for line in text.getvalue().splitlines() if " " in line)
    poses = np.stack([e.matrix for e in io_formats.read_trajectory(out)])
    return Solved(poses, rows.get("disconnected") == "1")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synthetic-30x2048", _synthetic_setup, _synthetic_solve),
        Workload("posegraph-ring400", _ring_setup, _ring_solve),
        Workload("cli-10x4096-d32", _cli_setup, _cli_solve),
    )
}
