"""Deterministic state generators and seeded random-state families.

Random sampling uses counter-based Philox streams keyed by ``(seed, index)``,
so batches are reproducible and independent of scheduling order: sample ``i``
of a family always comes from stream ``(seed, i)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import _integer
from .qstate import PureStateVector, QState, _as_dims

__all__ = [
    "StateFamilySpec",
    "FAMILIES",
    "classical_quantum",
    "example3_state",
    "flip_operator",
    "haar_random_pure",
    "random_mixed",
    "stream",
    "werner_2qubit_example4",
    "werner_qudit",
]

_MASK64 = (1 << 64) - 1


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Philox-backed generator for stream ``index`` of ``seed``."""
    key = np.array([_integer("seed", seed) & _MASK64, _integer("index", index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def flip_operator(d: int) -> np.ndarray:
    """The swap operator F = sum_ij |ij><ji| on a d x d bipartite space."""
    return np.eye(d * d)[np.arange(d * d).reshape(d, d).T.ravel()]


def werner_qudit(d: int, x: float) -> QState:
    """Werner state on two d-level systems with flip expectation x.

    rho = (d - x)/(d^3 - d) * I + (d*x - 1)/(d^3 - d) * F, where F is the
    flip (swap) operator, so Tr(rho F) = x.  Requires d >= 2 and x in [-1, 1].
    """
    d = _integer("d", d, 2)
    x = float(x)
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"werner_qudit needs x in [-1, 1], got {x}")
    denom = d**3 - d
    m = ((d - x) / denom) * np.eye(d * d) + ((d * x - 1.0) / denom) * flip_operator(d)
    return QState((d, d), m)


def werner_2qubit_example4() -> QState:
    """Two-qubit Werner state I/6 + (1/3)|psi-><psi-|: spectrum {1/6, 1/6, 1/6, 1/2}, marginals I/2."""
    psi_minus = np.zeros(4, dtype=complex)
    psi_minus[1] = 1.0 / np.sqrt(2.0)
    psi_minus[2] = -1.0 / np.sqrt(2.0)
    m = np.eye(4, dtype=complex) / 6.0 + np.outer(psi_minus, psi_minus.conj()) / 3.0
    return QState((2, 2), m)


def example3_state() -> QState:
    """Rank-2 mixed state on dims (4, 2) used by the bundled worked example.

    Equal mixture of the orthogonal vectors
    ``(|00>|0> + |10>|1>)/sqrt(2)`` and ``(|01>|0> + |11>|1>)/sqrt(2)``
    (first factor two qubits merged into one 4-level subsystem).  Its
    marginals are I/4 and I/2, and Tr(rho^2) = 1/2.
    """
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = psi0[5] = 1.0 / np.sqrt(2.0)
    psi1 = np.zeros(8, dtype=complex)
    psi1[2] = psi1[7] = 1.0 / np.sqrt(2.0)
    m = 0.5 * (np.outer(psi0, psi0.conj()) + np.outer(psi1, psi1.conj()))
    return QState((4, 2), m)


def classical_quantum(probs: Sequence[float], states: Sequence[QState]) -> QState:
    """Classical-quantum state sum_k p_k |k><k| (x) sigma_k.

    The classical register is the first subsystem, in the computational
    basis.  All ``states`` must share the same dims and ``probs`` must lie on
    the simplex within 1e-9.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or len(states) != p.size:
        raise ValueError("probs and states must have matching lengths")
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("probs must be nonnegative and sum to 1 within 1e-9")
    qdims = states[0].dims
    if any(s.dims != qdims for s in states):
        raise ValueError("all component states must share the same dims")
    d = int(np.prod(qdims))
    k = p.size
    m = np.zeros((k * d, k * d), dtype=complex)
    for i, (w, s) in enumerate(zip(p, states)):
        m[i * d : (i + 1) * d, i * d : (i + 1) * d] = w * s.matrix
    return QState((k,) + qdims, m)


def haar_random_pure(dims, seed: int, index: int = 0) -> PureStateVector:
    """Haar-random pure state (a normalized complex Gaussian vector), deterministic per ``(seed, index)``."""
    dims, g = _as_dims(dims), stream(seed, index)
    z = g.normal(size=math.prod(dims)) + 1j * g.normal(size=math.prod(dims))
    return PureStateVector(dims, z / np.linalg.norm(z))


def random_mixed(dims, rank: int, seed: int, index: int = 0) -> QState:
    """Induced-measure (Ginibre) random mixed state of the requested rank.

    rho = G G^dag / Tr(G G^dag) with G a (prod(dims) x rank) complex
    Gaussian matrix; deterministic per ``(seed, index)``.
    """
    dims = _as_dims(dims)
    total = math.prod(dims)
    rank = _integer("rank", rank)
    if not 1 <= rank <= total:
        raise ValueError(f"rank must be in [1, {total}], got {rank}")
    return _ginibre(stream(seed, index), dims, rank)


def _ginibre(g: np.random.Generator, dims: tuple, rank: int) -> QState:
    total = math.prod(dims)
    gin = g.normal(size=(total, rank)) + 1j * g.normal(size=(total, rank))
    m = gin @ gin.conj().T
    return QState(dims, m / np.real(np.trace(m)))


FAMILIES = (
    "werner_qudit",
    "werner_2qubit",
    "example3",
    "classical_quantum",
    "haar_pure",
    "random_mixed",
)


@dataclass(frozen=True)
class StateFamilySpec:
    """Serializable recipe for regenerating a (possibly random) state.

    ``params`` carries the family-specific parameters; random families draw
    sample ``i`` from ``stream(seed, i)``.  Deterministic families ignore the
    sample index.  Construction reads ``seed`` and the ``d``, ``k``, ``rank``
    and ``dims`` of ``params`` (``config._integer``), checks their ranges,
    and keeps a copy of ``params`` holding the values read.
    """

    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        p = dict(self.params)
        for key, least in (("d", None), ("k", 1), ("rank", None)):
            if key in p:
                p[key] = _integer(f"{self.family} {key}", p[key], least)
        if self.family == "werner_qudit":
            if p.get("d", 0) < 2:
                raise ValueError("werner_qudit requires d >= 2")
            if not -1.0 <= float(p.get("x", 2.0)) <= 1.0:
                raise ValueError("werner_qudit requires x in [-1, 1]")
        if self.family in ("haar_pure", "random_mixed", "classical_quantum"):
            if not p.get("dims"):
                raise ValueError(f"{self.family} requires a 'dims' parameter")
            p["dims"] = _as_dims(p["dims"])
        if self.family in ("random_mixed", "classical_quantum"):
            total = math.prod(p["dims"])
            rank = p.get("rank", 1 if self.family == "classical_quantum" else 0)
            if not 1 <= rank <= total:
                raise ValueError(f"{self.family} rank must be in [1, {total}]")
        object.__setattr__(self, "params", p)
        object.__setattr__(self, "seed", _integer("seed", self.seed))

    def sample(self, index: int = 0):
        """Generate sample ``index``; returns a QState or PureStateVector."""
        p = self.params
        if self.family == "werner_qudit":
            return werner_qudit(p["d"], float(p["x"]))
        if self.family == "werner_2qubit":
            return werner_2qubit_example4()
        if self.family == "example3":
            return example3_state()
        if self.family == "haar_pure":
            return haar_random_pure(p["dims"], self.seed, index)
        if self.family == "random_mixed":
            return random_mixed(p["dims"], p["rank"], self.seed, index)
        # classical_quantum: random weights plus random component states.
        # With orthogonal=True the components are a common Haar-rotated
        # computational basis, making the state classical-classical.
        qdims, k = p["dims"], p.get("k", 2)
        g = stream(self.seed, index)
        probs = g.dirichlet(np.ones(k))
        if not p.get("orthogonal"):
            return classical_quantum(probs, [_ginibre(g, qdims, p.get("rank", 1)) for _ in range(k)])
        total = math.prod(qdims)
        if k > total:
            raise ValueError("orthogonal components need k <= prod(dims)")
        u, _ = np.linalg.qr(g.normal(size=(total, total)) + 1j * g.normal(size=(total, total)))
        return classical_quantum(probs, [QState(qdims, np.outer(u[:, i], u[:, i].conj())) for i in range(k)])

    def to_json(self) -> dict:
        params = {
            key: (list(val) if isinstance(val, (tuple, list, np.ndarray)) else val)
            for key, val in self.params.items()
        }
        return {"family": self.family, "params": params, "seed": self.seed}

    @staticmethod
    def from_json(obj: dict) -> "StateFamilySpec":
        return StateFamilySpec(obj["family"], obj.get("params", {}), obj.get("seed", 0))
