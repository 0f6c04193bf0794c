"""Budget and seeding shared by the measurement optimizer and the convex roof."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

__all__ = ["OptimizerConfig"]


def _integer(name: str, value, least: int | None = None) -> int:
    """``operator.index(value)``; a bool, a non-integer or one below ``least`` is a ``ValueError`` naming ``name``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _uint64(name: str, value) -> int:
    """``_integer(name, value, 0)``, refused at 2^64 too: a seed or a stream index keys Philox as a 64-bit word."""
    if (value := _integer(name, value, 0)) >= 1 << 64:
        raise ValueError(f"{name} must be < 2**64, got {value}")
    return value


@dataclass(frozen=True)
class OptimizerConfig:
    """Budget and seeding for measurement optimization and the convex roof.

    Both searches run ``restarts`` restarts of Riemannian descent in
    lockstep, seeded from ``seed``, each of at most ``max_iter`` accepted
    steps; at most ``restarts`` restarts run to their own stop, as the rest
    end once the lowest stopped ones agree (``_descent.descend``).  ``tol``
    bounds the restart spread of a converged result (``_descent.summary``).
    """

    restarts: int = 16
    tol: float = 1e-8
    max_iter: int = 2000
    seed: int = 0

    def __post_init__(self):
        for name, read in (("restarts", _integer), ("max_iter", _integer), ("seed", _uint64)):
            object.__setattr__(self, name, read(name, getattr(self, name)))
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")

    def to_json(self) -> dict:
        """The four fields by name, in order: ``dataclasses.fields``, not ``asdict``'s recursive copy."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
