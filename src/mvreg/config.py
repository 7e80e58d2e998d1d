"""Pipeline configuration shared by the library, scripts, and CLI."""

from __future__ import annotations

from dataclasses import dataclass, fields


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
        if self.outer_iterations < 1:
            raise ValueError("outer_iterations must be >= 1")
        if self.sync_rounds < 1:
            raise ValueError("sync_rounds must be >= 1")
        if not 0.0 <= self.tau_p <= 1.0:
            raise ValueError("tau_p must lie in [0, 1]")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")
        if not 0.0 <= self.blend <= 1.0:
            raise ValueError("blend must lie in [0, 1]")
        if self.connectivity is not None:
            canon = tuple(tuple(int(v) for v in pair) for pair in self.connectivity)
            object.__setattr__(self, "connectivity", canon)


CONFIG_FIELD_NAMES = tuple(f.name for f in fields(PipelineConfig))
