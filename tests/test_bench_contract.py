"""What the benchmark under bench/ relies on in mvreg.

bench/spans.py rebinds the functions named in its WRAPPED_NAMES inside
mvreg's modules, and bench/harness.py reads attributes of the initial graph
and of the result a solve returns. bench/test_bench.py runs the benchmark
itself, in the same test run (pyproject's testpaths name both tests/ and
bench/); these checks name each attribute it relies on, so a rename or a
dropped attribute fails here with the name that went missing.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from mvreg import (
    PipelineConfig,
    rotation_sync,
    run_multiview_from_correspondences,
    translation_sync,
)
from mvreg.synthetic import generate_scene, scene_correspondences


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "module_name, name",
    [(module, name) for module, names in spans.WRAPPED_NAMES for name in names],
)
def test_wrapped_name_resolves(module_name, name):
    value = getattr(importlib.import_module(module_name), name)
    assert callable(value)
    # the tracer names a span's layer after the module defining the function
    assert value.__module__.startswith("mvreg.")


def test_toy_solve_has_what_the_harness_reads():
    scene = generate_scene(6, 64, 0.01, 0.0, seed=0)
    cfg = PipelineConfig(connectivity=scene.edges)
    correspondences = scene_correspondences(scene, cfg.temperature)
    graphs, rounds = [], []
    observers = {
        "graph.build_graph": lambda args, kwargs, result: graphs.append(result),
        "sync.transf_sync": lambda args, kwargs, result: rounds.append(result.rounds_completed),
    }
    with spans.Tracer(observers) as tracer:
        result, trace = run_multiview_from_correspondences(correspondences, 6, cfg)
    names = {s.name for s in tracer.spans}
    assert {"graph.build_graph", "graph.is_connected", "sync.transf_sync"} <= names
    # the harness reads single-set results off these spans; a solve makes none
    assert "pairwise.register_correspondences" not in names
    assert len(graphs) == 1 and rounds and all(r >= 1 for r in rounds)

    g0 = graphs[0]
    assert len(g0.edges) == len(scene.edges)
    for e, pair in zip(g0.edges, sorted(scene.edges)):
        assert (e.i, e.j) == pair
        assert e.motion.matrix.shape == (4, 4)
    graph = result.graph
    assert len(graph.edges) == len(g0.edges)
    assert len(graph.active_edges()) == int(graph.active.sum())
    # the record views are the graph's rows, value for value
    for g in (g0, graph):
        for k, e in enumerate(g.edges):
            assert (e.i, e.j) == tuple(g.pairs[k])
            assert np.array_equal(e.motion.matrix, g.motions[k])
            assert (e.c_local, e.c_global, e.c_fused, e.active) == (
                g.c_local[k], g.c_global[k], g.c_fused[k], g.active[k])
    assert isinstance(result.translation_rank_deficiency, int)
    assert isinstance(result.rounds_completed, int)
    assert np.isfinite(result.rotation_eigengap)
    assert len(trace.iterations) >= 1
    assert isinstance(result.disconnected, bool)
    rotations = rotation_sync(g0)
    assert rotations.shape == (6, 3, 3)
    assert translation_sync(g0, rotations).shape == (6, 3)
