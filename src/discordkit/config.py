"""Budget and seeding shared by the measurement optimizer and the convex roof."""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass

__all__ = ["OptimizerConfig"]


@dataclass(frozen=True)
class OptimizerConfig:
    """Budget and seeding for measurement optimization and the convex roof.

    Both searches run ``restarts`` restarts of Riemannian descent, seeded from
    ``seed``, each of at most ``max_iter`` accepted steps; ``tol`` bounds the
    restart spread of a converged result (``_descent.summary``).
    """

    restarts: int = 16
    tol: float = 1e-8
    max_iter: int = 2000
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "max_iter", "seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")

    def to_json(self) -> dict:
        return asdict(self)
