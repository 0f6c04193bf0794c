"""Complete projective measurements and POVMs on a chosen subsystem.

The measurement optimizer in ``correlations`` searches bases U on U(d)
itself, on the rows of ``_measurement_factor``.  Givens products only
parametrize bases for ``projective_from_params``: ``unitary_from_params``
multiplies two-level rotations over the d(d-1)/2 index pairs in
lexicographic order, each with a mixing angle and a relative phase (d^2 - d
parameters, angles first), which reach every basis up to outcome relabeling
and per-vector phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Union

import numpy as np

from .config import _integer
from .qstate import QState, _decomposition, _derived_state, _kept_eigh, _subsystems, von_neumann_entropy

__all__ = [
    "OUTCOME_FLOOR",
    "OutcomeEnsemble",
    "POVM",
    "ProjectiveMeasurement",
    "apply_measurement",
    "avg_conditional_entropy",
    "dephase",
    "n_measurement_params",
    "projective_from_params",
    "unitary_from_params",
]

UNITARITY_TOL = 1e-10
ELEMENT_PSD_TOL = 1e-10
COMPLETENESS_TOL = 1e-9

# Outcomes with probability below this floor are dropped to avoid 0/0 in
# conditional-state normalization.
OUTCOME_FLOOR = 1e-12

# Eigenvalues of rho at or below this floor are rounding noise: the factor
# rho = L L^H keeps only the others.
_RANK_FLOOR = 1e-14


def n_measurement_params(d: int) -> int:
    """Number of real parameters for a rank-1 projective basis on d levels."""
    return d * d - d


def unitary_from_params(d: int, params) -> np.ndarray:
    """Unitary built as an ordered product of two-level rotations.

    ``params`` holds the d(d-1)/2 Givens angles followed by the d(d-1)/2
    phases, with pairs (i, j) visited in lexicographic order.  Leading axes
    broadcast: ``params`` of shape (..., d^2 - d) gives unitaries of shape
    (..., d, d), and a 1-D vector gives one (d, d) unitary.
    """
    d = _integer("d", d, 1)
    params = np.asarray(params, dtype=float)
    n_pairs = d * (d - 1) // 2
    if params.ndim == 0 or params.shape[-1] != 2 * n_pairs:
        raise ValueError(f"expected {2 * n_pairs} parameters for d={d}, got shape {params.shape}")
    lead = params.shape[:-1]
    n = math.prod(lead)
    # Angles and phases with the pair index leading, one row per basis.
    p = params.reshape(n, 2 * n_pairs).T[..., None]
    theta, phi = p[:n_pairs], p[n_pairs:]
    c, s = np.cos(theta), np.sin(theta)
    ph = np.cos(phi) + 1j * np.sin(phi)
    b, e = ph.conj() * s, -ph * s
    # cols[i] holds column i of every unitary.
    cols = np.repeat(np.eye(d, dtype=complex)[:, None, :], n, axis=1)
    for k, (i, j) in enumerate(combinations(range(d), 2)):
        cols[i], cols[j] = c[k] * cols[i] + b[k] * cols[j], e[k] * cols[i] + c[k] * cols[j]
    return cols.transpose(1, 2, 0).reshape(lead + (d, d))


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement:
    """Complete rank-1 projective measurement on one subsystem; ``basis`` columns are the measurement vectors."""

    subsystem: int
    basis: np.ndarray

    def __post_init__(self):
        b = np.array(self.basis, dtype=np.complex128)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError(f"basis must be square, got shape {b.shape}")
        residual = float(np.max(np.abs(b.conj().T @ b - np.eye(b.shape[0]))))
        if not residual <= UNITARITY_TOL:  # a NaN residual fails too
            raise ValueError(f"basis unitarity residual {residual:.3g} exceeds {UNITARITY_TOL}")
        b.setflags(write=False)
        object.__setattr__(self, "subsystem", _integer("subsystem", self.subsystem, 0))
        object.__setattr__(self, "basis", b)

    @property
    def d(self) -> int:
        return self.basis.shape[0]


def _computed_measurement(subsystem: int, basis: np.ndarray) -> ProjectiveMeasurement:
    """A ``ProjectiveMeasurement`` of a basis this package computed unitary, not checked again.

    For the bases that ``correlations`` reports: an ``eigh``, a certificate's
    candidate, a search iterate on its retraction, or a Kronecker product of
    those.  ``subsystem`` must already be an int.  The basis is stored as a
    read-only complex copy, as the checked constructor stores it.
    """
    b = np.array(basis, dtype=np.complex128)
    b.setflags(write=False)
    m = object.__new__(ProjectiveMeasurement)
    object.__setattr__(m, "subsystem", subsystem)
    object.__setattr__(m, "basis", b)
    return m


@dataclass(frozen=True, eq=False)
class POVM:
    """General measurement given by PSD elements summing to the identity."""

    subsystem: int
    elements: tuple

    def __post_init__(self):
        elems = tuple(np.array(e, dtype=np.complex128) for e in self.elements)
        if not elems:
            raise ValueError("a POVM needs at least one element")
        d = elems[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for e in elems:
            if e.shape != (d, d):
                raise ValueError("POVM elements must be square and share one dimension")
            # Each test is negated, so that a NaN residual fails it too.
            if not float(np.max(np.abs(e - e.conj().T))) <= ELEMENT_PSD_TOL:
                raise ValueError("POVM element is not Hermitian")
            if not float(_kept_eigh(e)[0][0]) >= -ELEMENT_PSD_TOL:
                raise ValueError("POVM element is not positive semidefinite")
            e.setflags(write=False)
            total += e
        if not float(np.max(np.abs(total - np.eye(d)))) <= COMPLETENESS_TOL:
            raise ValueError("POVM elements do not sum to the identity")
        object.__setattr__(self, "subsystem", _integer("subsystem", self.subsystem, 0))
        object.__setattr__(self, "elements", elems)

    @property
    def d(self) -> int:
        return self.elements[0].shape[0]


Measurement = Union[ProjectiveMeasurement, POVM]


@dataclass(frozen=True, eq=False)
class OutcomeEnsemble:
    """Outcomes above ``OUTCOME_FLOOR``: probabilities summing to 1 within 1e-9, and conditional states."""

    probabilities: np.ndarray
    states: tuple

    def __post_init__(self):
        p = np.array(self.probabilities, dtype=float)
        if p.ndim != 1 or p.size != len(self.states):
            raise ValueError("probabilities and states must have matching lengths")
        if p.size == 0:
            raise ValueError("ensemble must contain at least one outcome")
        if np.any(p <= 0.0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must be positive and sum to 1 within 1e-9")
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def n_outcomes(self) -> int:
        return self.probabilities.size


def projective_from_params(d: int, params, subsystem: int = 0) -> ProjectiveMeasurement:
    """Projective measurement whose basis is ``unitary_from_params(d, params)``."""
    return ProjectiveMeasurement(subsystem, unitary_from_params(d, np.asarray(params, dtype=float).ravel()))


def _measured_axes(n: int, subsystem: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    order = (subsystem,) + tuple(i for i in range(n) if i != subsystem)
    return order, order + tuple(n + i for i in order)


def _measured_index(state: QState, subsystem) -> int:
    """``subsystem``, one index or a one-element set, read as one index of ``state`` (``qstate._subsystems``)."""
    subsystem, *more = _subsystems("measured subsystem", subsystem, state.n_subsystems)
    if more:
        raise ValueError(f"measured subsystem must be one index, got {(subsystem, *more)}")
    return subsystem


def _measured_view(state: QState, subsystem: int):
    """``state`` as a (d_m, R, d_m, R) tensor, measured factor first; also d_m and the other dims in order."""
    subsystem = _measured_index(state, subsystem)
    dims = state.dims
    order, axes = _measured_axes(state.n_subsystems, subsystem)
    rest = tuple(dims[i] for i in order[1:])
    r = math.prod(rest)
    t = state.matrix.reshape(dims + dims).transpose(axes).reshape(dims[subsystem], r, dims[subsystem], r)
    return t, dims[subsystem], rest


def _conditional_blocks(t: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Blocks <b_k| rho |b_k> of every outcome; a (..., d_m, d_m) stack of bases gives (..., d_m, R, R)."""
    dm, r = t.shape[:2]
    u = np.swapaxes(basis.conj(), -1, -2) @ t.reshape(dm, -1)
    return np.einsum("...krbs,...bk->...krs", u.reshape(u.shape[:-1] + (r, dm, r)), basis)


def _outcomes(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kept outcomes' probabilities, the (..., K) kept mask, and their conditional states.

    ``blocks`` is a (..., K, R, R) stack of unnormalized conditional blocks.
    Outcomes with probability below ``OUTCOME_FLOOR`` are dropped.  The
    states are the kept blocks over their probabilities, made Hermitian, as
    one (kept, R, R) stack.
    """
    probs = np.einsum("...krr->...k", blocks).real
    kept = probs >= OUTCOME_FLOOR
    p = probs[kept]
    c = blocks[kept] / p[:, None, None]
    return p, kept, (c + np.swapaxes(c.conj(), -1, -2)) / 2.0


def _povm_blocks(t: np.ndarray, elements) -> np.ndarray:
    e = np.stack([np.asarray(el) for el in elements])
    return np.einsum("kab,bras->krs", e, t, optimize=True)


def _measurement_factor(state: QState, measured: int) -> tuple[np.ndarray, int]:
    """A factor rho = L L^H with the measured index first, and the rest dimension R.

    L keeps the s eigenvalues of rho above ``_RANK_FLOOR`` as a (d_m, R s)
    matrix: row x, reshaped to (R, s), is the amplitude block phi_x of the
    purification sum_x |x> (x) phi_x over (rest, purifier), so measuring in a
    basis U is the ensemble of the rows of V L, V = U^H.  Subsystem 0 reads
    the state's kept decomposition (``qstate``); another takes one
    ``qstate._kept_eigh`` of the permuted matrix.
    """
    t, dm, _rest = _measured_view(state, measured)
    r = t.shape[1]
    lam, vec = _decomposition(state) if measured == 0 else _kept_eigh(t.reshape(dm * r, dm * r))
    keep = lam > _RANK_FLOOR
    return (vec[:, keep] * np.sqrt(lam[keep])).reshape(dm, r * int(keep.sum())), r


def apply_measurement(state: QState, m: Measurement) -> OutcomeEnsemble:
    """Measure one subsystem: outcome probabilities and conditional states.

    p_k = Tr(E_k rho) and rho_k = Tr_measured(E_k rho) / p_k, a derived state
    (``qstate``); the unmeasured subsystems keep their original order.
    Outcomes with p_k below ``OUTCOME_FLOOR`` are dropped.
    """
    t, dm, rest = _measured_view(state, m.subsystem)
    if isinstance(m, ProjectiveMeasurement):
        if m.d != dm:
            raise ValueError(f"measurement dimension {m.d} does not match subsystem dimension {dm}")
        blocks = _conditional_blocks(t, m.basis)
    elif isinstance(m, POVM):
        if m.d != dm:
            raise ValueError(f"POVM dimension {m.d} does not match subsystem dimension {dm}")
        blocks = _povm_blocks(t, m.elements)
    else:
        raise TypeError(f"unsupported measurement type {type(m).__name__}")
    p, _kept, states = _outcomes(blocks)
    rest_dims = rest if rest else (1,)
    return OutcomeEnsemble(p, tuple(_derived_state(rest_dims, c) for c in states))


def avg_conditional_entropy(ensemble: OutcomeEnsemble) -> float:
    """Average conditional entropy sum_k p_k S(rho_k) in bits, summed exactly, so relabeling keeps it."""
    return math.fsum(
        p * von_neumann_entropy(s)
        for p, s in zip(ensemble.probabilities, ensemble.states)
    )


def dephase(state: QState, m: ProjectiveMeasurement) -> QState:
    """Nonselective projective measurement: sum_k (P_k (x) I) rho (P_k (x) I), a derived state (``qstate``).

    Idempotent and trace preserving; entropy never decreases.  POVM input is
    rejected because dephasing requires orthogonal projectors.  The result is
    made Hermitian.
    """
    if not isinstance(m, ProjectiveMeasurement):
        raise TypeError("dephasing requires a complete projective measurement")
    n = state.n_subsystems
    t, dm, rest = _measured_view(state, m.subsystem)
    if m.d != dm:
        raise ValueError(f"measurement dimension {m.d} does not match subsystem dimension {dm}")
    blocks = _conditional_blocks(t, m.basis)
    deph = np.einsum("ak,bk,krs->arbs", m.basis, m.basis.conj(), blocks, optimize=True)
    order, axes = _measured_axes(n, m.subsystem)
    deph = deph.reshape((dm,) + rest + (dm,) + rest)
    deph = deph.transpose(np.argsort(axes))
    side = state.dim
    out = deph.reshape(side, side)
    return _derived_state(state.dims, (out + out.conj().T) / 2.0)

