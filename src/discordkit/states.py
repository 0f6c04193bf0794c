"""Deterministic state generators and seeded random-state families.

Random sampling uses counter-based Philox streams keyed by ``(seed, index)``,
so batches are reproducible and independent of scheduling order: sample ``i``
of a family always comes from stream ``(seed, i)``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import _integer, _uint64
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


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Philox-backed generator for stream ``index`` of ``seed``, both in [0, 2^64)."""
    key = np.array([_uint64("seed", seed), _uint64("index", index)], dtype=np.uint64)
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
    d = math.prod(qdims)
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


def _classical_quantum_sample(seed: int, index: int, dims: tuple, k: int, rank: int, orthogonal: bool) -> QState:
    """Random weights and k random components of ``rank``; ``orthogonal`` ones are a
    common Haar-rotated computational basis, making the state classical-classical."""
    g = stream(seed, index)
    probs = g.dirichlet(np.ones(k))
    if not orthogonal:
        return classical_quantum(probs, [_ginibre(g, dims, rank) for _ in range(k)])
    total = math.prod(dims)
    u, _ = np.linalg.qr(g.normal(size=(total, total)) + 1j * g.normal(size=(total, total)))
    return classical_quantum(probs, [QState(dims, np.outer(u[:, i], u[:, i].conj())) for i in range(k)])


# family -> (parameters it requires, the others it takes with their defaults, sampler(seed, index, **params))
_FAMILIES = {
    "werner_qudit": (("d", "x"), {}, lambda seed, index, d, x: werner_qudit(d, x)),
    "werner_2qubit": ((), {}, lambda seed, index: werner_2qubit_example4()),
    "example3": ((), {}, lambda seed, index: example3_state()),
    "classical_quantum": (("dims",), {"k": 2, "rank": 1, "orthogonal": False}, _classical_quantum_sample),
    "haar_pure": (("dims",), {}, lambda seed, index, dims: haar_random_pure(dims, seed, index)),
    "random_mixed": (("dims", "rank"), {}, lambda seed, index, dims, rank: random_mixed(dims, rank, seed, index)),
}
FAMILIES = tuple(_FAMILIES)


def _read_params(family: str, params: dict) -> dict:
    """``params`` read against ``family``'s row of ``_FAMILIES``: an unknown or a missing one is refused by name."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    required, optional, _sampler = _FAMILIES[family]
    takes = (*required, *optional)
    for key in params:
        if key not in takes:
            raise ValueError(f"{family} takes no {key!r} parameter (it takes {', '.join(takes) or 'none'})")
    for key in required:
        if key not in params:
            raise ValueError(f"{family} requires a {key!r} parameter")
    p = dict(params)
    for key, least in (("d", 2), ("k", 1), ("rank", None)):
        if key in p:
            p[key] = _integer(f"{family} {key}", p[key], least)
    if "x" in p:
        if isinstance(p["x"], bool) or not isinstance(p["x"], numbers.Real):
            raise ValueError(f"{family} x must be a real number, got {p['x']!r}")
        if not -1.0 <= float(p["x"]) <= 1.0:
            raise ValueError(f"{family} requires x in [-1, 1]")
    if "dims" in p:
        p["dims"] = _as_dims(p["dims"])
    total = math.prod(p.get("dims", ()))
    if "rank" in p and not 1 <= p["rank"] <= total:
        raise ValueError(f"{family} rank must be in [1, {total}]")
    if not isinstance(p.get("orthogonal", False), bool):
        raise ValueError(f"{family} orthogonal must be a bool, got {p['orthogonal']!r}")
    if p.get("orthogonal") and {**optional, **p}["k"] > total:
        raise ValueError("orthogonal components need k <= prod(dims)")
    return p


@dataclass(frozen=True)
class StateFamilySpec:
    """Serializable recipe for regenerating a (possibly random) state.

    ``params`` holds the parameters ``_FAMILIES`` lists for ``family``; random
    families draw sample ``i`` from ``stream(seed, i)``.  Construction reads
    ``params`` (``_read_params``) and ``seed`` (``config._uint64``).
    """

    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "params", _read_params(self.family, self.params))
        object.__setattr__(self, "seed", _uint64("seed", self.seed))

    def sample(self, index: int = 0):
        """Generate sample ``index``; returns a QState or PureStateVector."""
        _required, optional, sampler = _FAMILIES[self.family]
        return sampler(self.seed, index, **{**optional, **self.params})

    def to_json(self) -> dict:
        params = {
            key: (list(val) if isinstance(val, (tuple, list, np.ndarray)) else val)
            for key, val in self.params.items()
        }
        return {"family": self.family, "params": params, "seed": self.seed}

    @staticmethod
    def from_json(obj: dict) -> "StateFamilySpec":
        return StateFamilySpec(obj["family"], obj.get("params", {}), obj.get("seed", 0))
