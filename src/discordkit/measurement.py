"""Complete projective measurements and POVMs on a chosen subsystem.

A measurement basis on a d-level subsystem is parameterized by an ordered
product of two-level (Givens) rotations over the d(d-1)/2 index pairs in
lexicographic order, each carrying one mixing angle and one relative phase:
d^2 - d real parameters in total (angles first, then phases).  Every basis
is reachable up to outcome relabeling and per-vector phase, which is all a
projective measurement can distinguish.

``_measurement_objective`` scores stacks of bases at once, with analytic
gradients, for the measurement optimizer in ``correlations``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Union

import numpy as np

from .qstate import EIG_CLIP, QState, _entropy_bits, von_neumann_entropy

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
    d = int(d)
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
    """Complete rank-1 projective measurement on one subsystem.

    ``basis`` columns are the measurement vectors.
    """

    subsystem: int
    basis: np.ndarray

    def __post_init__(self):
        b = np.array(self.basis, dtype=np.complex128)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError(f"basis must be square, got shape {b.shape}")
        residual = float(np.max(np.abs(b.conj().T @ b - np.eye(b.shape[0]))))
        if residual > UNITARITY_TOL:
            raise ValueError(f"basis unitarity residual {residual:.3g} exceeds {UNITARITY_TOL}")
        b.setflags(write=False)
        object.__setattr__(self, "subsystem", int(self.subsystem))
        object.__setattr__(self, "basis", b)

    @property
    def d(self) -> int:
        return self.basis.shape[0]


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
            if float(np.max(np.abs(e - e.conj().T))) > ELEMENT_PSD_TOL:
                raise ValueError("POVM element is not Hermitian")
            if float(np.linalg.eigvalsh(e)[0]) < -ELEMENT_PSD_TOL:
                raise ValueError("POVM element is not positive semidefinite")
            e.setflags(write=False)
            total += e
        if float(np.max(np.abs(total - np.eye(d)))) > COMPLETENESS_TOL:
            raise ValueError("POVM elements do not sum to the identity")
        object.__setattr__(self, "subsystem", int(self.subsystem))
        object.__setattr__(self, "elements", elems)

    @property
    def d(self) -> int:
        return self.elements[0].shape[0]


Measurement = Union[ProjectiveMeasurement, POVM]


@dataclass(frozen=True, eq=False)
class OutcomeEnsemble:
    """Measurement outcomes: probabilities with conditional states.

    Outcomes below ``OUTCOME_FLOOR`` have already been dropped; probabilities
    of the survivors sum to 1 within 1e-9.
    """

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


def _measured_view(state: QState, subsystem: int):
    """Reshape ``state`` to (d_m, R, d_m, R) with the measured factor first.

    Returns the tensor, the measured dimension, and the remaining dims in
    their original order.
    """
    n = state.n_subsystems
    if not 0 <= subsystem < n:
        raise ValueError(f"subsystem {subsystem} out of range for {n} subsystems")
    dims = state.dims
    order, axes = _measured_axes(n, subsystem)
    rest = tuple(dims[i] for i in order[1:])
    r = int(np.prod(rest)) if rest else 1
    t = state.matrix.reshape(dims + dims).transpose(axes).reshape(dims[subsystem], r, dims[subsystem], r)
    return t, dims[subsystem], rest


def _conditional_blocks(t: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Blocks <b_k| rho |b_k> of every outcome; a (..., d_m, d_m) stack of bases gives (..., d_m, R, R)."""
    dm, r = t.shape[:2]
    u = np.swapaxes(basis.conj(), -1, -2) @ t.reshape(dm, -1)
    return np.einsum("...krbs,...bk->...krs", u.reshape(u.shape[:-1] + (r, dm, r)), basis)


def _povm_blocks(t: np.ndarray, elements) -> np.ndarray:
    e = np.stack([np.asarray(el) for el in elements])
    return np.einsum("kab,bras->krs", e, t, optimize=True)


def _measurement_objective(state: QState, measured: int, dephasing: bool) -> tuple[Callable, int]:
    """Batched objective over bases on ``measured``, with its Euclidean gradient.

    Both objectives are sums over the conditional blocks B_k = <u_k|rho|u_k>
    of a basis U: sum_k p_k S(B_k / p_k) (``dephasing`` false), or the
    entropy S(dephased) - S(rho) of the dephased state, whose spectrum is the
    union of the block spectra.  With rho = L L^H, B_k = N_k N_k^H for
    N_k = (u_k^H (x) I) L, and each block's spectrum comes from the smaller
    of its two Gram sides.  The derivative of either sum is
    tr[W_k dB_k] with W_k = -log2(B_k / p_k), or -(log2 B_k + S) for the
    dephasing entropy S, taken on the support of B_k, where N_k lives, so
    rank-deficient blocks need no clipping.  The objective maps an (R, d, d)
    stack of bases to R values and the R gradients G = 2 L (W N)^H, with
    df = Re tr(G^H dU); called with ``gradient=False`` it returns the values
    and ``None``, from eigenvalues alone.
    """
    t, dm, _rest = _measured_view(state, measured)
    r = t.shape[1]
    lam, vec = np.linalg.eigh(t.reshape(dm * r, dm * r))
    keep = lam > _RANK_FLOOR
    s = int(keep.sum())
    factor = (vec[:, keep] * np.sqrt(lam[keep])).reshape(dm, r * s)
    base_entropy = _entropy_bits(lam)
    small = r <= s

    def spectral_terms(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values, and the eigenvalues of each W_k, from the block spectra ``w``."""
        if dephasing:
            kept = np.where(w < EIG_CLIP, 0.0, w)
            total = kept.sum(axis=(-2, -1))[..., None, None]
            mu = kept / total
            logs = np.log2(np.where(kept > 0.0, mu, 1.0))
            entropy = -(mu * logs).sum(axis=(-2, -1))
            weights = np.where(kept > 0.0, -(logs + entropy[..., None, None]) / total, 0.0)
            return entropy - base_entropy, weights
        probs = w.sum(axis=-1)
        # An outcome below OUTCOME_FLOOR gets all-zero weights: entropy 0.
        mu = w / np.where(probs > OUTCOME_FLOOR, probs, np.inf)[..., None]
        weights = np.where(mu >= EIG_CLIP, -np.log2(np.where(mu >= EIG_CLIP, mu, 1.0)), 0.0)
        return (probs * _entropy_bits(mu)).sum(axis=-1), weights

    def objective(u: np.ndarray, gradient: bool = True):
        n = (np.swapaxes(u.conj(), -1, -2) @ factor).reshape(u.shape[:-2] + (dm, r, s))
        nh = np.swapaxes(n.conj(), -1, -2)
        gram = n @ nh if small else nh @ n
        if not gradient:
            return spectral_terms(np.linalg.eigvalsh(gram))[0], None
        w, v = np.linalg.eigh(gram)
        values, weights = spectral_terms(w)
        wm = (v * weights[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
        y = (wm @ n if small else n @ wm).reshape(u.shape[:-1] + (r * s,))
        return values, 2.0 * factor @ np.swapaxes(y.conj(), -1, -2)

    return objective, dm


def apply_measurement(state: QState, m: Measurement) -> OutcomeEnsemble:
    """Measure one subsystem: outcome probabilities and conditional states.

    p_k = Tr(E_k rho) and rho_k = Tr_measured(E_k rho) / p_k; the unmeasured
    subsystems keep their original order.  Outcomes with p_k below
    ``OUTCOME_FLOOR`` are dropped.
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
    probs = np.einsum("krr->k", blocks).real
    rest_dims = rest if rest else (1,)
    kept_p = []
    kept_states = []
    for k in range(probs.size):
        if probs[k] < OUTCOME_FLOOR:
            continue
        c = blocks[k] / probs[k]
        kept_p.append(probs[k])
        kept_states.append(QState(rest_dims, (c + c.conj().T) / 2.0))
    return OutcomeEnsemble(np.array(kept_p), tuple(kept_states))


def avg_conditional_entropy(ensemble: OutcomeEnsemble) -> float:
    """Average conditional entropy sum_k p_k S(rho_k), in bits.

    Uses exactly rounded summation so the result is invariant under outcome
    relabeling.
    """
    return math.fsum(
        p * von_neumann_entropy(s)
        for p, s in zip(ensemble.probabilities, ensemble.states)
    )


def dephase(state: QState, m: ProjectiveMeasurement) -> QState:
    """Nonselective projective measurement: sum_k (P_k (x) I) rho (P_k (x) I).

    Idempotent and trace preserving; entropy never decreases.  POVM input is
    rejected because dephasing requires orthogonal projectors.
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
    rest_dims = rest if rest else ()
    deph = deph.reshape((dm,) + rest_dims + (dm,) + rest_dims)
    deph = deph.transpose(np.argsort(axes))
    side = state.dim
    out = deph.reshape(side, side)
    return QState(state.dims, (out + out.conj().T) / 2.0)

