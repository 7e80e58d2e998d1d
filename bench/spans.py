"""In-memory span tracer that times calls into mvreg's modules from outside.

The tracer rebinds names inside mvreg's module namespaces (for example
``mvreg.pipeline.transf_sync``) to thin wrappers, so every call the package
makes through those names records a span. Nothing inside ``src/mvreg`` is
edited; ``Tracer.uninstall`` restores the original bindings.

A span is (name, start, end, parent, solve_id, raised). Its layer is the
module that defines the wrapped function, so ``pipeline.transf_sync`` spans
belong to the ``sync`` layer no matter which module made the call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass

# (module whose global name is rebound, names rebound there). Calls inside
# one module reach its own helpers through these globals, so the IRLS inner
# calls and the sync-internal graph calls are covered too.
WRAPPED_NAMES = (
    ("mvreg.cli", ("cli_main", "read_ply", "read_features", "read_trajectory",
                   "write_trajectory", "run_multiview", "ecdf")),
    ("mvreg.synthetic", ("scene_correspondences", "build_correspondences")),
    ("mvreg.pipeline", ("run_multiview_from_correspondences", "build_correspondences",
                        "register_correspondences",
                        "wls_transform", "residuals", "robust_reweight", "local_confidence",
                        "build_graph", "is_connected", "prune_edges", "harmonic_fuse",
                        "transf_sync")),
    ("mvreg.pairwise", ("wls_transform", "residuals", "robust_reweight", "local_confidence")),
    ("mvreg.sync", ("is_connected", "cauchy_scale", "cauchy_global_confidence",
                    "harmonic_fuse")),
)

ROOT = -1


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    solve_id: int
    raised: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``observers`` map a span name to f(args, kwargs, result)."""

    def __init__(self, observers=None):
        self.spans: list[Span] = []
        self.observers = dict(observers or {})
        self.solve_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> tuple[int, float]:
        index = len(self.spans)
        # placeholder keeps the index stable while children append after it
        self.spans.append(None)
        self._stack.append(index)
        return index, time.perf_counter()

    def _close(self, index: int, name: str, start: float, raised: bool):
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else ROOT
        self.spans[index] = Span(name, start, end, parent, self.solve_id, raised)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (used for the per-solve root)."""
        index, start = self._open(name)
        raised = True
        try:
            yield
            raised = False
        finally:
            self._close(index, name, start, raised)

    def wrap(self, func, name: str):
        observer = self.observers.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index, start = self._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self._close(index, name, start, True)
                raise
            self._close(index, name, start, False)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced

    def install(self):
        for module_name, names in WRAPPED_NAMES:
            module = importlib.import_module(module_name)
            for attr in names:
                original = getattr(module, attr)
                layer = original.__module__.rsplit(".", 1)[-1]
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, f"{layer}.{attr}"))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent != ROOT:
            own[s.parent] -= s.duration
    return own


def layer_totals(spans: list[Span], solve_id: int) -> tuple[dict, dict, dict]:
    """Per-layer self and inclusive time, and per-name calls / time / raised.

    A layer's inclusive time sums the spans that enter it from another layer
    (or from nothing), so nested calls within one layer count once. No
    wrapped function calls itself, so a name's time is the plain sum of its
    spans' durations.
    """
    own = self_times(spans)
    self_s: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    names: dict[str, dict] = {}
    for k, s in enumerate(spans):
        if s.solve_id != solve_id:
            continue
        self_s[s.layer] = self_s.get(s.layer, 0.0) + own[k]
        if s.parent == ROOT or spans[s.parent].layer != s.layer:
            inclusive[s.layer] = inclusive.get(s.layer, 0.0) + s.duration
        entry = names.setdefault(s.name, {"calls": 0, "s": 0.0, "raised": 0})
        entry["calls"] += 1
        entry["s"] += s.duration
        entry["raised"] += int(s.raised)
    return self_s, inclusive, names
