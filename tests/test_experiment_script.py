"""Smoke test of scripts/run_synthetic_experiment.py, run as a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_small_sweep_prints_both_ecdf_blocks():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "scripts" / "run_synthetic_experiment.py"),
         "--scans", "6", "--pts", "64", "--seeds", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[:3] == ["seed", "edges", "iters"]
    # the solve column times the correspondence kernel too, and scene
    # generation has its own column
    assert lines[0].split()[-2:] == ["solve(s)", "gen(s)"]
    assert "time(s)" not in lines[0]
    assert lines[0].split()[3:5] == ["stop", "pruned"]
    row = lines[1].split()
    assert len(row) == len(lines[0].split()) - 4  # four headers hold a space
    assert row[3] in ("converged", "pruning_collapse", "completed")
    # pruned edges as corrupted/clean
    assert all(part.isdigit() for part in row[4].split("/")) and row[4].count("/") == 1
    assert float(row[-2]) >= 0.0 and float(row[-1]) >= 0.0
    for block in ("rotation ECDF at", "translation ECDF at"):
        starts = [k for k, line in enumerate(lines) if line.startswith(block)]
        assert len(starts) == 1, proc.stdout
        start = starts[0]
        assert lines[start + 1].split()[0] == "pairwise"
        assert lines[start + 2].split()[0] == "final"
