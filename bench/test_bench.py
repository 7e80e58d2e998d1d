"""Toy-size self-test of the benchmark.

    python3 -m pytest bench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted for every workload
in both modes, that traced spans nest and that self times add up to the
solve, that the output check rejects bad poses, and that the benchmark fails
cleanly where the mvreg sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
sys.path.insert(0, str(REPO / "src"))

import harness  # noqa: E402
from spans import ROOT, Span, self_times  # noqa: E402
from workloads import FULL, TOY, WORKLOADS  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_every_named_workload_is_implemented():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(FULL) == set(TOY) == set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    work_dir = tmp_path / "work"
    result, info = harness.run(name, 7, 0.0, False, TOY[name], work_dir)
    instances = TOY[name]["instances"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # each instance solved once; the first solve is the warm-up
    assert result["attempted"] == instances
    assert info["solve_instances"] == list(range(instances))
    assert len(info["setup_seconds"]) == harness.SETUP_REPEATS + instances
    assert [m["name"] for m in SPEC["end_to_end"]] == list(result["metrics"])
    for key, metric in result["metrics"].items():
        assert metric["unit"] == harness.END_TO_END_UNITS[key]
        assert isinstance(metric["value"], float) and np.isfinite(metric["value"]), key
        assert metric["value"] > 0.0, key
    assert len(set(info["pose_sha256"])) == instances
    assert all(len(d) == 64 for d in info["pose_sha256"])
    assert not work_dir.exists()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_layer_metric_and_spans_add_up(name, tmp_path):
    spans_path = tmp_path / "spans.json"
    result, _ = harness.run(name, 7, 0.0, True, TOY[name], tmp_path / "work", spans_path)
    assert result["correct"] and result["attempted"] == 3
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics)
    assert all(isinstance(v, (int, float)) and np.isfinite(v) for v in metrics.values())

    spans = [Span(*row) for row in json.loads(spans_path.read_text())]
    assert spans and all(s.solve_id == 1 for s in spans)
    roots = [k for k, s in enumerate(spans) if s.parent == ROOT]
    assert [spans[k].name for k in roots] == ["bench.solve"]
    for s in spans:
        if s.parent != ROOT:
            parent = spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
    own = self_times(spans)
    assert min(own) >= 0.0
    root = spans[roots[0]]
    assert sum(own) == pytest.approx(root.duration, rel=1e-9, abs=1e-12)
    layer_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    # these layers' wrapped functions call no other wrapped function
    layer_self += sum(metrics[k] for k in ("graph.s", "io_formats.read_s", "io_formats.write_s",
                                           "metrics.s"))
    assert layer_self == pytest.approx(metrics["trace.solve_s"], rel=1e-9, abs=1e-12)
    if name == "posegraph-ring400":
        assert metrics["pairwise.corr_calls"] == 0
    cli_layers = ("io_formats.read_s", "io_formats.mb_read", "io_formats.write_s", "cli.self_s",
                  "metrics.s")
    if name == "cli-10x4096-d32":
        assert all(metrics[k] > 0.0 for k in cli_layers)
        assert metrics["pairwise.corr_calls"] > 0
    else:
        assert all(metrics[k] == 0.0 for k in cli_layers)


def test_pose_check_rejects_bad_poses():
    good = np.stack([np.eye(4)] * 3)
    assert harness.pose_problem(good, 3) is None
    assert "shape" in harness.pose_problem(good, 4)
    bad = good.copy()
    bad[1, 0, 0] = np.nan
    assert "non-finite" in harness.pose_problem(bad, 3)
    bad = good.copy()
    bad[0, 0, 3] = 1.0
    assert "pose 0" in harness.pose_problem(bad, 3)
    bad = good.copy()
    bad[2, 2, 2] = -1.0
    assert "proper" in harness.pose_problem(bad, 3)
    bad = good.copy()
    bad[1, 0, 1] = 0.1
    assert "orthonormal" in harness.pose_problem(bad, 3)


def test_fails_without_the_mvreg_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "synthetic-30x2048", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
