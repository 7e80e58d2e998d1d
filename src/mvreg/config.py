"""Pipeline configuration shared by the library, scripts, and CLI."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for pairwise registration, synchronization, and the outer loop.

    Defaults follow the reference operating point: four outer iterations,
    four synchronization rounds per iteration, pruning threshold 0.85.
    """

    outer_iterations: int = 4
    sync_rounds: int = 4
    tau_p: float = 0.85
    temperature: float = 0.02
    gamma: float = 3.0
    beta: float = 1.0
    w_thresh: float = 0.5
    inner_irls: int = 5
    blend: float = 0.7
    connectivity: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        # a float count would fail later in range(), a float scan index be truncated
        for name, low in (("outer_iterations", 1), ("sync_rounds", 1), ("inner_irls", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
            object.__setattr__(self, name, int(value))
        # `not x > 0` and chained comparisons also reject NaN
        for name in ("temperature", "gamma", "beta"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("tau_p", "w_thresh", "blend"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.connectivity is not None:
            if not all(isinstance(v, (int, np.integer)) for pair in self.connectivity for v in pair):
                raise ValueError(f"connectivity must hold integer scan indices, got {self.connectivity!r}")
            canon = tuple(tuple(int(v) for v in pair) for pair in self.connectivity)
            object.__setattr__(self, "connectivity", canon)


CONFIG_FIELD_NAMES = tuple(f.name for f in fields(PipelineConfig))
