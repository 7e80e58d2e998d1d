"""Closed-loop measurement of one workload: set-up, solves, output checks,
end-to-end metrics (untraced run) or per-layer metrics (traced run).

One process, one solve at a time. An untraced run sets up the workload's
``instances`` inputs from the seed, solves them in turn (the first solve is a
warm-up) until the time window is used, and reports the median solve time and
the mean accuracy over the instances. A traced run solves instance 0 three
times: warm-up, untraced, traced.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mvreg import pairwise, sync
from mvreg.metrics import ErrorReport
from spans import Tracer, layer_totals
from workloads import SPEC, WORKLOADS

# set-up is short, so it is repeated: SETUP_REPEATS times before the first
# solve and once more after every solve, and the median is reported
SETUP_REPEATS = 5
POSE_TOL = 1e-9
# A solve is correct only if its poses put the median measured edge within
# these gaps of the truth; every workload clears them by a wide margin.
GATE_ROT_MEDIAN_DEG = 10.0
GATE_TRANS_MEDIAN_M = 0.1
ECDF_ROT_DEG = 10.0
ECDF_TRANS_M = 0.1

END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass
class SolveRecord:
    seconds: float
    instance: int
    digest: str | None = None
    disconnected: bool | None = None
    problem: str | None = None  # why the solve counts as failed


def pose_problem(poses: np.ndarray, n: int) -> str | None:
    """Reason the poses are invalid, or None: finite, anchored, proper rotations."""
    if poses.shape != (n, 4, 4):
        return f"pose array has shape {poses.shape}, expected {(n, 4, 4)}"
    if not np.all(np.isfinite(poses)):
        return "poses hold non-finite values"
    if np.abs(poses[:, 3] - np.array([0.0, 0.0, 0.0, 1.0])).max() > 0.0:
        return "a pose's bottom row is not (0, 0, 0, 1)"
    if np.abs(poses[0] - np.eye(4)).max() > POSE_TOL:
        return "pose 0 is not the identity"
    rot = poses[:, :3, :3]
    gram = np.einsum("kji,kjl->kil", rot, rot) - np.eye(3)
    if np.abs(gram).max() > POSE_TOL:
        return "a rotation block is not orthonormal"
    if np.abs(np.linalg.det(rot) - 1.0).max() > POSE_TOL:
        return "a rotation block is not proper"
    return None


def pose_digest(poses: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(poses, dtype="<f8").tobytes()).hexdigest()


def solve_once(workload, inputs, instance: int, first_digest, tracer=None):
    """One timed solve, then checks outside the timed region.

    Returns the record and the poses (None when the solve raised).
    """
    start = time.perf_counter()
    try:
        if tracer is None:
            solved = workload.solve(inputs)
        else:
            with tracer.span("bench.solve"):
                solved = workload.solve(inputs)
    except Exception as exc:  # a raising solve is a counted failure, not a crash
        return SolveRecord(time.perf_counter() - start, instance, problem=f"raised {exc!r}"), None
    record = SolveRecord(time.perf_counter() - start, instance)
    poses = solved.poses
    record.disconnected = solved.disconnected
    record.problem = pose_problem(poses, inputs.n)
    if record.problem is None:
        record.digest = pose_digest(poses)
        if first_digest is not None and record.digest != first_digest:
            record.problem = "pose digest differs from the run's first solve of this input"
    return record, poses


def relative_errors(rel_est: np.ndarray, rel_gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation (deg) and translation (m) gaps between stacks of 4x4 motions."""
    r = np.einsum("kji,kjl->kil", rel_est[:, :3, :3], rel_gt[:, :3, :3])
    cos = np.clip((np.trace(r, axis1=1, axis2=2) - 1.0) / 2.0, -1.0, 1.0)
    return np.degrees(np.arccos(cos)), np.linalg.norm(rel_est[:, :3, 3] - rel_gt[:, :3, 3], axis=1)


def edge_relatives(poses: np.ndarray, edges) -> np.ndarray:
    """Motions frame i -> frame j, inv(P_j) P_i, for every edge (i, j)."""
    i, j = np.array(edges).T
    return np.linalg.solve(poses[j], poses[i])


def accuracy(poses: np.ndarray, inputs) -> dict[str, float]:
    """Relative-motion errors of the solve on the measured edges."""
    report = ErrorReport.from_errors(*relative_errors(
        edge_relatives(poses, inputs.edges), edge_relatives(inputs.ground_truth, inputs.edges)))
    return {
        "rot_err_mean_deg": report.mean_rotation_deg,
        "rot_err_median_deg": report.median_rotation_deg,
        "trans_err_mean_m": report.mean_translation_m,
        "trans_err_median_m": report.median_translation_m,
        "ecdf_rot_10deg":
            report.ecdf_rotation[report.rotation_thresholds_deg.index(ECDF_ROT_DEG)],
        "ecdf_trans_0.1m":
            report.ecdf_translation[report.translation_thresholds_m.index(ECDF_TRANS_M)],
    }


class _Observations:
    """Values the traced solve's wrappers hand out through observer callbacks."""

    def __init__(self):
        self.cells = 0
        self.corr_args = None
        self.converged = 0
        self.initial_graph = None
        self.rounds = 0
        self.pipeline_result = None
        self.bytes_read = 0

    def callbacks(self):
        def read(args, kwargs, result):
            self.bytes_read += os.path.getsize(args[0])

        def corr(args, kwargs, result):
            self.cells += len(args[0]) * len(args[1])
            if self.corr_args is None:
                self.corr_args = args

        def irls(args, kwargs, result):
            self.converged += int(result.converged)

        def graph(args, kwargs, result):
            if self.initial_graph is None:
                self.initial_graph = result

        def transf(args, kwargs, result):
            self.rounds += result.rounds_completed

        def pipe(args, kwargs, result):
            self.pipeline_result = result

        return {
            "io_formats.read_ply": read,
            "io_formats.read_features": read,
            "io_formats.read_trajectory": read,
            "pairwise.build_correspondences": corr,
            "pairwise.register_correspondences": irls,
            "graph.build_graph": graph,
            "sync.transf_sync": transf,
            "pipeline.run_multiview_from_correspondences": pipe,
        }


def _timed(func, *args):
    start = time.perf_counter()
    value = func(*args)
    return time.perf_counter() - start, value


def layer_metrics(tracer: Tracer, obs: _Observations, inputs, untraced: SolveRecord,
                  usage: dict, records) -> dict:
    """Per-layer metrics of the traced solve (solve id 1) plus side probes."""
    spans = [s for s in tracer.spans if s.solve_id == 1]
    self_s, inclusive, names = layer_totals(tracer.spans, 1)

    def stat(name, key):
        return names.get(name, {}).get(key, 0.0 if key == "s" else 0)

    traced_s = next(s.duration for s in spans if s.name == "bench.solve")
    corr_s = stat("pairwise.build_correspondences", "s")
    irls_calls = stat("pairwise.register_correspondences", "calls")
    result, trace = obs.pipeline_result
    active = len(result.graph.active_edges())
    g0 = obs.initial_graph
    measured = np.stack([e.motion.matrix for e in g0.edges])
    rot, _ = relative_errors(measured, edge_relatives(inputs.ground_truth,
                                                      [(e.i, e.j) for e in g0.edges]))
    m = {
        "pairwise.corr_calls": stat("pairwise.build_correspondences", "calls"),
        "pairwise.corr_s": corr_s,
        "pairwise.corr_mcells": obs.cells / 1e6,
        "pairwise.corr_mcells_per_s": obs.cells / 1e6 / corr_s if corr_s else 0.0,
        "pairwise.corr_peak_alloc_mb": 0.0,
        "pairwise.irls_calls": irls_calls,
        "pairwise.irls_s": stat("pairwise.register_correspondences", "s"),
        "pairwise.irls_converged_frac": obs.converged / irls_calls if irls_calls else 0.0,
        "pairwise.wls_calls": stat("pairwise.wls_transform", "calls"),
        "pairwise.wls_failed": stat("pairwise.wls_transform", "raised"),
        "pairwise.rot_err_mean_deg": float(rot.mean()),
        "pairwise.self_s": self_s.get("pairwise", 0.0),
        "graph.s": inclusive.get("graph", 0.0),
        "graph.connectivity_checks": stat("graph.is_connected", "calls"),
        "graph.active_edges_final": active,
        "graph.pruned_edges": len(result.graph.edges) - active,
        "sync.transf_calls": stat("sync.transf_sync", "calls"),
        "sync.transf_s": stat("sync.transf_sync", "s"),
        "sync.self_s": self_s.get("sync", 0.0),
        "sync.rounds": obs.rounds,
        "sync.eigengap": result.rotation_eigengap,
        "sync.rank_deficiency": result.translation_rank_deficiency,
        "pipeline.s": inclusive.get("pipeline", 0.0),
        "pipeline.self_s": self_s.get("pipeline", 0.0),
        "pipeline.outer_iters": len(trace.iterations),
        "pipeline.disconnected_frac": float(np.mean([bool(r.disconnected) for r in records])),
        "synthetic.self_s": self_s.get("synthetic", 0.0),
        "io_formats.read_s": sum(stat(f"io_formats.{f}", "s")
                                 for f in ("read_ply", "read_features", "read_trajectory")),
        "io_formats.mb_read": obs.bytes_read / 1e6,
        "io_formats.write_s": stat("io_formats.write_trajectory", "s"),
        "cli.self_s": self_s.get("cli", 0.0),
        "metrics.s": inclusive.get("metrics", 0.0),
        "bench.self_s": self_s.get("bench", 0.0),
        "os.sys_s": usage["sys_s"],
        "os.minor_faults": usage["minor_faults"],
        "trace.solve_s": traced_s,
        "trace.untraced_solve_s": untraced.seconds,
        "trace.overhead_frac": (traced_s - untraced.seconds) / untraced.seconds,
        "trace.spans": len(spans),
    }
    # side probes, untraced and outside the solve
    m["sync.rotation_s"], rotations = _timed(sync.rotation_sync, g0)
    m["sync.translation_s"], _ = _timed(sync.translation_sync, g0, rotations)
    if obs.corr_args is not None:
        tracemalloc.start()
        try:
            pairwise.build_correspondences(*obs.corr_args)
            m["pairwise.corr_peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    return m


def environment(blas_threads: int | None) -> dict:
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "machine": platform.machine(),
    }


def instance_seeds(seed: int, count: int) -> list[int]:
    """Instance 0 uses the run's seed; the others derive from it."""
    return [seed] + [int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
                     for k in range(1, count)]


def run(name: str, seed: int, seconds: float, trace: bool, sizes: dict,
        work_dir: Path, spans_path: Path | None = None):
    """Measure one workload. Returns (result line dict, info dict).

    Set-up may write files under ``work_dir``, which is removed at the end.
    """
    try:
        return _run(WORKLOADS[name], seed, seconds, trace, sizes, work_dir, spans_path)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(workload, seed, seconds, trace, sizes, work_dir, spans_path):
    seeds = instance_seeds(seed, 1 if trace else sizes["instances"])
    setup_times = []

    def set_up():
        gc.collect()  # each set-up starts from the same collector state
        elapsed, made = _timed(lambda: [workload.setup(s, sizes, work_dir) for s in seeds])
        setup_times.append(elapsed)
        return made

    for _ in range(1 if trace else SETUP_REPEATS):
        inputs = set_up()

    records: list[SolveRecord] = []
    digests: list[str | None] = [None] * len(seeds)
    poses: list[np.ndarray | None] = [None] * len(seeds)

    def solve(k, tracer=None):
        record, p = solve_once(workload, inputs[k], k, digests[k], tracer)
        records.append(record)
        if digests[k] is None and record.digest is not None:
            digests[k], poses[k] = record.digest, p
        return record

    info = {}
    if trace:
        solve(0)  # warm-up
        before = resource.getrusage(resource.RUSAGE_SELF)
        untraced = solve(0)
        after = resource.getrusage(resource.RUSAGE_SELF)
        usage = {"sys_s": after.ru_stime - before.ru_stime,
                 "minor_faults": after.ru_minflt - before.ru_minflt}
        obs = _Observations()
        with Tracer(obs.callbacks()) as tracer:
            tracer.solve_id = 1
            traced = solve(0, tracer)
        ok = untraced.problem is None and traced.problem is None
        metrics = layer_metrics(tracer, obs, inputs[0], untraced, usage, records) if ok else {}
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps(
                [[s.name, s.start, s.end, s.parent, s.solve_id, s.raised] for s in tracer.spans]))
            info["spans_file"] = str(spans_path)
        units = PER_LAYER_UNITS
    else:
        start = time.perf_counter()
        while True:
            record = solve(len(records) % len(seeds))
            # set-up repeats between solves see the same host state as the
            # solves; the inputs they make are identical and not used
            set_up()
            # every instance is solved once, and one solve more than the
            # warm-up; then stop before a solve that would end past the window
            done = len(records) >= max(2, len(seeds))
            if done and time.perf_counter() - start + record.seconds + setup_times[-1] > seconds:
                break
        metrics = {
            "setup_s": statistics.median(setup_times),
            "solve_s": statistics.median(r.seconds for r in records[1:]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        info["solve_samples"] = len(records) - 1

    solved = [accuracy(p, x) for p, x in zip(poses, inputs) if p is not None]
    if not trace and solved:
        metrics.update({k: float(np.mean([a[k] for a in solved])) for k in solved[0]})
    failed = sum(r.problem is not None for r in records)
    gate_ok = all(a["rot_err_median_deg"] <= GATE_ROT_MEDIAN_DEG
                  and a["trans_err_median_m"] <= GATE_TRANS_MEDIAN_M for a in solved)
    info.update({
        "workload": workload.name,
        "seed": seed,
        "instance_seeds": seeds,
        "sizes": sizes,
        "edges": [len(x.edges) for x in inputs],
        "why": workload.why,
        "trace": int(trace),
        "pose_sha256": digests,
        "accuracy_gate": "pass" if gate_ok else "fail",
        "accuracy_per_instance": solved,
        "setup_seconds": setup_times,
        "solve_seconds": [r.seconds for r in records],
        "solve_instances": [r.instance for r in records],
        "failed_frac": failed / len(records),
        "disconnected_frac": float(np.mean([bool(r.disconnected) for r in records])),
        "problems": [r.problem for r in records if r.problem is not None],
    })
    result = {
        "correct": failed == 0 and len(solved) == len(seeds) and gate_ok,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in units.items()},
    }
    return result, info
