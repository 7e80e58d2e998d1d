"""Pipeline configuration shared by the library, scripts, and CLI."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def is_integer(value) -> bool:
    """Whether value is a Python or numpy integer; a bool, though an int, is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for pairwise registration, synchronization, and the outer loop.

    Defaults follow the reference operating point: four outer iterations,
    four synchronization rounds per iteration, pruning threshold 0.85.
    temperature and connectivity say which correspondences to build. Of the
    two pipelines only run_multiview reads them: run_multiview_from_correspondences
    takes built sets and ignores both.
    """

    outer_iterations: int = 4
    sync_rounds: int = 4
    tau_p: float = 0.85
    temperature: float = 0.02
    blend: float = 0.7
    connectivity: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        # a float count would fail later in range(), a float scan index be truncated
        for name in ("outer_iterations", "sync_rounds"):
            value = getattr(self, name)
            if not is_integer(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
            object.__setattr__(self, name, int(value))
        # chained comparisons also reject NaN
        if not 0.0 < self.temperature < np.inf:
            raise ValueError("temperature must be positive and finite")
        for name in ("tau_p", "blend"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.connectivity is not None:
            if not all(np.shape(pair) == (2,) and all(map(is_integer, pair))
                       for pair in self.connectivity):
                raise ValueError(f"connectivity must hold pairs of integer scan indices, got {self.connectivity!r}")
            canon = tuple(tuple(int(v) for v in pair) for pair in self.connectivity)
            object.__setattr__(self, "connectivity", canon)
