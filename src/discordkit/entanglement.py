"""Entanglement of formation.

Exact for pure states (marginal entropy) and for two-qubit mixed states
(Wootters concurrence).  ``eof_upper`` gives a convex-roof upper bound with
a decomposition witness, from one ``_descent.Problem`` (``_roof``) on the
measurement search's objective, ``qstate._ensemble_objective``.  Results
carry an exactness tag and upper bounds are never reported as exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._descent import Descent, Problem, solve, summary
from .config import OptimizerConfig
from .qstate import (
    InvalidStateError,
    PureStateVector,
    QState,
    _decomposition,
    _ensemble_objective,
    _kept_eigh,
    _state,
    is_pure,
    normalize_partition,
    partial_trace,
    purify,
    spectrum,
    von_neumann_entropy,
)

__all__ = [
    "EOF_DEFAULT_CONFIG",
    "EnsembleDecomposition",
    "EofResult",
    "binary_entropy",
    "concurrence_2qubit",
    "eof_2qubit",
    "eof_pure",
    "eof_upper",
]

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SYSY = np.kron(_SIGMA_Y, _SIGMA_Y)

EXACT_PURE = "exact_pure"
EXACT_WOOTTERS = "exact_wootters"
UPPER_BOUND = "upper_bound"

# Convex-roof default budget: the rotated eigen-ensemble start plus two
# random isometry restarts.
EOF_DEFAULT_CONFIG = OptimizerConfig(restarts=3)


@dataclass(frozen=True, eq=False)
class EnsembleDecomposition:
    """Pure-state ensemble of a target state: normalized ``vectors``, ``isometry`` applied to the canonical rows."""

    weights: np.ndarray
    vectors: np.ndarray
    isometry: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors.T * self.weights) @ self.vectors.conj()


@dataclass(frozen=True, eq=False)
class EofResult:
    """Entanglement-of-formation value with its exactness tag.

    ``tag`` is one of ``exact_pure``, ``exact_wootters``, ``upper_bound``;
    only ``upper_bound`` results carry a decomposition witness and the
    convex-roof diagnostics, ``_descent.summary``'s spread
    (``restart_spread``) and ``fields``, which follow
    ``correlations.OptimizedValue`` (an exact result ran no restart, so its
    two counts are 0): a roof restart's ``evaluations`` count its re-seed
    call too, on the dense roofs of rank 3 (``_descent.descend``), and
    ``certified`` means that Wootters' decomposition of a
    two-qubit state met the exact value and no search ran.
    """

    value: float
    tag: str
    decomposition: EnsembleDecomposition | None = None
    crosscheck_gap: float | None = None
    converged: bool = True
    restart_spread: float = 0.0
    restarts_stopped: int = 0
    restarts_at_best: int = 0
    iterations: tuple[int, ...] = ()
    evaluations: tuple[int, ...] = ()
    stop_reasons: tuple[str, ...] = ()

    @property
    def exact(self) -> bool:
        return self.tag in (EXACT_PURE, EXACT_WOOTTERS)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), in bits."""
    x = min(max(float(x), 0.0), 1.0)
    out = 0.0
    if x > 0.0:
        out -= x * math.log2(x)
    if x < 1.0:
        out -= (1.0 - x) * math.log2(1.0 - x)
    return out


def eof_pure(state, partition=None) -> EofResult:
    """Entanglement of a pure ``PureStateVector`` or ``QState`` (rank 1, ``qstate.is_pure``): either side's entropy."""
    if isinstance(state, PureStateVector):
        dims = state.dims
        amps = state.amplitudes
    elif isinstance(state, QState):
        if not is_pure(state):
            raise InvalidStateError("eof_pure needs a state of rank 1")
        sp = spectrum(state)
        dims = state.dims
        amps = sp.eigenvectors[:, 0]
    else:
        raise TypeError(f"unsupported state type {type(state).__name__}")
    part_a, part_b = normalize_partition(len(dims), partition)
    values, _ = _roof_objective(amps[None, :], dims, part_a, part_b)(np.ones((1, 1, 1)), (1,), gradient=False)
    value = values[0] / np.vdot(amps, amps).real
    return EofResult(float(value), EXACT_PURE)


def _require_two_qubits(state: QState, name: str):
    if state.dims != (2, 2):
        raise ValueError(f"{name} needs dims (2, 2), got {state.dims}")


def concurrence_2qubit(state: QState) -> float:
    """Wootters concurrence of a two-qubit state, in [0, 1].

    From the singular values of L^T (sigma_y x sigma_y) L, rho = L L^dag
    from the state's kept decomposition (``qstate``): the descending
    square-rooted eigenvalues of rho (sigma_y x sigma_y) rho* (sigma_y x
    sigma_y), without the direct route's square-root noise amplification.
    """
    _require_two_qubits(state := _state(state), "concurrence_2qubit")
    w, v = _decomposition(state)
    factor = v * np.sqrt(np.maximum(w, 0.0))
    tau = factor.T @ _SYSY @ factor
    lam = np.linalg.svd(tau, compute_uv=False)
    combo = lam[0] - lam[1] - lam[2] - lam[3]
    # Below the noise floor the concurrence is exactly zero.
    if combo < 1e-12:
        return 0.0
    return float(combo)


def _eof_of_concurrence(c: float) -> float:
    """Wootters' E = h((1 + sqrt(1 - C^2)) / 2), C capped at 1."""
    c = min(c, 1.0)
    return binary_entropy((1.0 + math.sqrt(1.0 - c * c)) / 2.0)


def eof_2qubit(state: QState) -> EofResult:
    """Exact two-qubit entanglement of formation via the concurrence."""
    _require_two_qubits(state := _state(state), "eof_2qubit")
    return EofResult(_eof_of_concurrence(concurrence_2qubit(state)), EXACT_WOOTTERS)


def _takagi(tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A unitary U and s >= 0 with U^H tau conj(U) = diag(s) to rounding, for a complex symmetric tau.

    The real symmetric embedding [[Re tau, Im tau], [Im tau, -Re tau]] has
    the eigenvalues +-s_i; an eigenvector (a, b) of +s_i gives a column u =
    a + i b with tau conj(u) = s_i u, and those of s_i > 0 are orthonormal.
    The top r eigenvectors, in descending order, give U when their columns
    are orthonormal to 1e-13; otherwise a QR factorization orthonormalizes
    them in that order, so that U is unitary: among zero values (tau
    singular to rounding) an eigenvector may be a complex multiple of an
    earlier one, and Q then completes the columns with unit vectors
    orthogonal to the s_i > 0 columns, which span the null space of tau
    conj(.).  Each column is phased so that u_i^H tau conj(u_i) = s_i >= 0,
    and the columns are sorted by descending s_i, so that s1 >= s2 holds
    exactly even where rounding swaps two equal values.
    """
    r = tau.shape[0]
    embedding = np.empty((2 * r, 2 * r))
    embedding[:r, :r], embedding[:r, r:] = tau.real, tau.imag
    embedding[r:, :r], embedding[r:, r:] = tau.imag, -tau.real
    _w, v = _kept_eigh(embedding)
    top = v[:, ::-1][:, :r]
    cols = top[:r] + 1j * top[r:]
    if not np.abs(cols.conj().T @ cols - np.eye(r)).max() <= 1e-13:
        cols = np.linalg.qr(cols)[0]
    uh = cols.conj().T
    z = ((uh @ tau) * uh).sum(axis=1)
    order = np.argsort(-np.abs(z), kind="stable")
    return (cols * np.exp(0.5j * np.angle(z)))[:, order], np.abs(z)[order]


# The 4 x 4 Hadamard matrix over 2: real orthogonal, with entries that all
# square to 1/4.
_HADAMARD = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]) / 2.0


def _wootters_rows(phi: np.ndarray) -> tuple[np.ndarray, float]:
    """An isometry W (k x r) whose members (W phi)_k all have concurrence C, and C.

    ``phi`` holds r <= 4 unnormalized two-qubit vectors of total norm 1 as
    rows (an r x 4 matrix), so sigma = sum_x phi_x phi_x^H is a state of
    rank at most r.  Wootters' construction (PRL 80, 2245, 1998) on tau =
    phi (s_y x s_y) phi^T, a complex symmetric matrix: its Takagi
    factorization tau = U diag(s) U^T (``_takagi``, s descending) gives the
    concurrence C = max(0, s1 - s2 - ... - sr) of sigma, and the rows x = U^H
    phi have x (s_y x s_y) x^T = diag(s).  A member z_k with z_k (s_y x s_y)
    z_k^T = c |z_k|^2, c real, has concurrence |c|.

    Entangled branch, s1 >= s2 + ... + sr (k = r): y = diag(1, i, ..., i) x
    has y (s_y x s_y) y^T = diag(s1, -s2, ...), and the real form F =
    diag(s1, -s2, ...) - C Re(y y^H) has trace C - C |phi|^2 = 0.  At most
    r - 1 Givens rotations, each zeroing the largest diagonal entry of F
    against the smallest, zero its diagonal, and a real rotation O of the
    rows carries F to O F O^T, so every member of O y has concurrence C.
    W = O diag(1, i, ..., i) U^H.  Every r = 2 input takes this branch.

    Separable branch, s1 < s2 + ... + sr (r >= 3, C = 0): x is padded with
    zero rows to 4, and row j is phased by exp(i t_j / 2) with s1 + s2
    exp(i t2) + (s3 + s4) exp(i t3) = 0, a triangle that closes because no
    side exceeds the sum of the other two (t4 = t3).  The Hadamard rows then
    give members with z_k (s_y x s_y) z_k^T = sum_j s_j exp(i t_j) / 4 = 0:
    product states.  W = H diag(exp(i t / 2)) [U^H; 0], k = 4.
    """
    u, s = _takagi(phi @ _SYSY @ phi.T)
    r = len(s)
    c = float(s[0] - s[1:].sum())
    if c < 0.0:
        s1, s2, side = s[0], s[1], s[2:].sum()
        t2 = math.acos(min(max((side * side - s1 * s1 - s2 * s2) / (2.0 * s1 * s2), -1.0), 1.0))
        t3 = np.angle(-(s1 + s2 * np.exp(1j * t2)) / side)
        uh = np.zeros((4, r), dtype=complex)
        uh[:r] = u.conj().T
        return _HADAMARD @ (np.exp(0.5j * np.array([0.0, t2, t3, t3]))[:, None] * uh), 0.0
    phases = np.full(r, 1j)
    phases[0] = 1.0
    uh = phases[:, None] * u.conj().T
    y = uh @ phi
    # The rotations run on Python floats: the matrices are at most 4 x 4,
    # where a NumPy call costs more than the arithmetic.
    form = (np.diag((phases * phases).real * s) - c * (y @ y.conj().T).real).tolist()
    rot = np.eye(r).tolist()
    for _ in range(r - 1):
        diag = [form[k][k] for k in range(r)]
        a, b = max(diag), min(diag)
        if not a > 0.0 > b:
            break
        i, j = diag.index(a), diag.index(b)
        # Row i becomes cos row_i + sin row_j: its diagonal entry is
        # (a + b) / 2 + R cos(2 theta - phase), zero at this theta.
        half, f = (a - b) / 2.0, form[i][j]
        theta = 0.5 * (math.atan2(f, half) + math.acos(min(max(-(a + b) / (2.0 * math.hypot(half, f)), -1.0), 1.0)))
        cos, sin = math.cos(theta), math.sin(theta)
        for m in (form, rot):
            m[i], m[j] = ([cos * p + sin * q for p, q in zip(m[i], m[j])],
                          [cos * q - sin * p for p, q in zip(m[i], m[j])])
        for row in form:
            row[i], row[j] = cos * row[i] + sin * row[j], cos * row[j] - sin * row[i]
    return np.array(rot) @ uh, c


def _roof_rows(e0: np.ndarray, dims, part_a, part_b) -> tuple[np.ndarray, int]:
    """e0's r amplitude rows permuted to the (A, B) order of the member blocks (d_A x d_B), and d_A."""
    r = e0.shape[0]
    da = math.prod([dims[i] for i in part_a])
    order = (0,) + tuple(1 + i for i in part_a) + tuple(1 + i for i in part_b)
    return e0.reshape((r,) + tuple(dims)).transpose(order).reshape(r, -1), da


def _roof_objective(e0: np.ndarray, dims, part_a, part_b) -> Callable:
    """The convex-roof objective of ensembles psi = V e0: ``_ensemble_objective`` on ``_roof_rows``."""
    rows, da = _roof_rows(e0, dims, part_a, part_b)
    return _ensemble_objective(rows[None], da, rows.shape[1] // da)


@functools.lru_cache(maxsize=16)
def _dft_isometry(m: int, r: int) -> np.ndarray:
    """The first r columns of the unitary m-point DFT, read-only: every row has norm sqrt(r / m)."""
    jk = np.outer(np.arange(m), np.arange(r)) % m
    out = np.exp(-2j * np.pi * jk / m) / math.sqrt(m)
    out.setflags(write=False)
    return out


def _roof(state: QState, partition, cfg: OptimizerConfig | None) -> tuple[Problem, np.ndarray, float | None]:
    """The convex roof of ``state``, built once: its ``_descent.Problem``, e0 and the oracle.

    e0 holds the r amplitude rows of the canonical purification
    (``qstate.purify``), and the problem's rows and d_A are their
    ``_roof_rows``.  Restart 0 is the m x r ``_dft_isometry``, m = r^2 (a
    sufficient ensemble size), whose shape every isometry of the roof takes:
    the eigen-ensemble rotated so that all m members have weight 1/m, since
    the unrotated start [I_r; 0] has m - r zero members, where the gradient
    vanishes, and would only search ensembles of r members.  The budget is
    ``cfg`` (``EOF_DEFAULT_CONFIG`` when None).  On dims (2, 2), either
    partition, the oracle is the exact ``eof_2qubit`` value (None elsewhere),
    and the candidate is Wootters' optimal decomposition [W; 0]
    (``_wootters_rows`` on e0), with the oracle as its bound; elsewhere a pure
    state's start is its one ensemble, with its S(A) as the bound.
    """
    part_a, part_b = normalize_partition(state.n_subsystems, partition)
    pure = purify(state)
    r = pure.dims[-1]
    e0 = pure.amplitudes.reshape(-1, r).T
    rows, da = _roof_rows(e0, state.dims, part_a, part_b)
    first, cfg = _dft_isometry(r * r, r), cfg or EOF_DEFAULT_CONFIG
    candidate, bound, oracle = None, 0.0, None
    if state.dims == (2, 2):
        oracle = eof_2qubit(state).value
        w, _c = _wootters_rows(e0)
        candidate, bound = np.zeros_like(first), oracle
        candidate[: w.shape[0]] = w
    elif r == 1:
        candidate, bound = first, von_neumann_entropy(partial_trace(state, part_a))
    return Problem(rows, da, first, cfg, candidate, bound), e0, oracle


def _upper_bound(run: Descent, e0: np.ndarray, oracle: float | None, tol: float) -> EofResult:
    """The ``upper_bound`` result of a searched or certified run, with its best restart's ensemble as witness.

    The witness is the ensemble iso @ e0 of the best restart's isometry
    (``_descent.summary``), less its members of weight at most 1e-12.  The
    gap to ``oracle`` (the Wootters value, None off dims (2, 2)) is its
    ``crosscheck_gap`` on either partition, since E_F does not depend on the
    side.
    """
    b, spread, diagnostics = summary(run, tol)
    value, iso = float(run.values[b]), run.x[b]
    psi = iso @ e0
    weights = np.real(np.einsum("id,id->i", psi, psi.conj()))
    keep = weights > 1e-12
    vectors = psi[keep] / np.sqrt(weights[keep])[:, None]
    return EofResult(value, UPPER_BOUND, EnsembleDecomposition(weights[keep], vectors, iso),
                     None if oracle is None else value - oracle, restart_spread=spread, **diagnostics)


def eof_upper(state: QState, partition=None, cfg: OptimizerConfig | None = None) -> EofResult:
    """Convex-roof upper bound on the entanglement of formation.

    The roof is built once (``_roof``) and solved (``_descent.solve``): on
    dims (2, 2), either partition, its Wootters candidate, and on any other
    state of rank 1 its one ensemble, is scored first and certified within
    ``CERTIFY_TOL`` of the exact value.  Otherwise the search
    minimizes sum_i p_i S_A(psi_i) over ensembles psi = V e0 generated from
    the canonical purification e0 by an isometry V: a point of the Stiefel
    manifold (Rothlisberger, Rehacek & Loss, PRA 80, 042301, 2009).  Every
    isometry gives a valid ensemble, so the value is an upper bound by
    construction; ties go to the lowest restart.
    """
    problem, e0, oracle = _roof(_state(state), partition, cfg)
    return _upper_bound(solve([problem])[0], e0, oracle, problem.cfg.tol)
