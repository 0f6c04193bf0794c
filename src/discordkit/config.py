"""Budget and seeding shared by the measurement optimizer and the convex roof."""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["OptimizerConfig"]


@dataclass(frozen=True)
class OptimizerConfig:
    """Budget and seeding for measurement optimization and the convex roof.

    ``grid_resolution`` is the number of coarse-grid points per mixing angle
    (qubit subsystems scan a theta x phi Bloch grid of
    ``grid_resolution x 2*grid_resolution``); larger subsystems start from
    the canonical basis and seeded random bases only.  ``max_iter`` caps the
    Riemannian descent iterations (accepted steps) of each restart, and
    ``tol`` bounds the restart spread of a converged result (10x ``tol``);
    ``eof_upper`` uses ``tol`` as its sweep tolerance.
    """

    restarts: int = 16
    grid_resolution: int = 12
    tol: float = 1e-8
    max_iter: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be >= 2")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")

    def to_json(self) -> dict:
        return asdict(self)
