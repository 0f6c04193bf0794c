"""Budget and seeding shared by the measurement optimizer and the convex roof."""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["OptimizerConfig"]


@dataclass(frozen=True)
class OptimizerConfig:
    """Budget and seeding for measurement optimization and the convex roof.

    Both searches run ``restarts`` restarts of Riemannian descent, seeded
    from ``seed``.  ``max_iter`` caps the descent iterations (accepted
    steps) of each restart, in the measurement search and in
    ``eof_upper`` alike, and ``tol`` bounds the restart spread of a
    converged result (10x ``tol``).
    """

    restarts: int = 16
    tol: float = 1e-8
    max_iter: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")

    def to_json(self) -> dict:
        return asdict(self)
