"""Entanglement of formation.

Exact for pure states (marginal entropy) and for two-qubit mixed states
(Wootters concurrence); a convex-roof upper bound everywhere else.  The roof
searches pure-state ensembles of size rank^2 generated from the canonical
purification by an isometry, which is known to be a sufficient ensemble
size, by Riemannian L-BFGS on the Stiefel manifold: the same
``_descent`` optimizer as the measurement search, on one batched objective
with an analytic gradient that also gives the pure-state value:
``qstate._ensemble_objective``, the kernel the measurement objective uses
too, which gets the member Grams of every restart from one product with a
kernel built once per state.  Restart 0 starts from the eigen-ensemble
rotated by the m-point DFT, so that no member is zero.  Results carry an
exactness tag and upper bounds are never reported as exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._descent import descend, random_starts, summary
from .config import OptimizerConfig
from .qstate import (
    InvalidStateError,
    PureStateVector,
    QState,
    _ensemble_objective,
    is_pure,
    normalize_partition,
    spectrum,
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
    """Pure-state ensemble reproducing a target state.

    ``vectors`` rows are normalized; ``isometry`` is the frame that generated
    the ensemble from the canonical spectral amplitudes.
    """

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
    convex-roof diagnostics.  Those follow ``OptimizedValue``:
    ``restart_spread`` is max - min over the restarts that stopped before
    the ``max_iter`` cap (infinite when none did), ``converged`` means
    that more than half of the restarts did and ``restart_spread <= 10 *
    tol``, and the per-restart tuples hold the
    accepted descent steps (``iterations``), the objective calls the
    restart was live for (``evaluations``) and why it stopped
    (``stop_reasons``: ``gradient``, ``no_decrease`` or ``cap``).
    """

    value: float
    tag: str
    decomposition: EnsembleDecomposition | None = None
    crosscheck_gap: float | None = None
    converged: bool = True
    restart_spread: float = 0.0
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
    """Entanglement of a pure state: the entropy of either reduced side.

    Accepts a ``PureStateVector`` or a pure ``QState`` (purity within 1e-9
    of 1; mixed density matrices are rejected).
    """
    if isinstance(state, PureStateVector):
        dims = state.dims
        amps = state.amplitudes
    elif isinstance(state, QState):
        if not is_pure(state):
            raise InvalidStateError("eof_pure needs a pure state (purity < 1 - 1e-9)")
        sp = spectrum(state)
        dims = state.dims
        amps = sp.eigenvectors[:, 0]
    else:
        raise TypeError(f"unsupported state type {type(state).__name__}")
    part_a, part_b = normalize_partition(len(dims), partition)
    values, _ = _roof_objective(amps[None, :], dims, part_a, part_b)(np.ones((1, 1, 1)))
    value = values[0] / np.vdot(amps, amps).real
    return EofResult(float(value), EXACT_PURE)


def _require_two_qubits(state: QState, name: str):
    if state.dims != (2, 2):
        raise ValueError(f"{name} needs dims (2, 2), got {state.dims}")


def concurrence_2qubit(state: QState) -> float:
    """Wootters concurrence of a two-qubit state, in [0, 1].

    Uses the singular values of L^T (sigma_y x sigma_y) L with rho = L L^dag,
    which are the descending square-rooted eigenvalues of
    rho (sigma_y x sigma_y) rho* (sigma_y x sigma_y) without the square-root
    noise amplification of the direct route.
    """
    _require_two_qubits(state, "concurrence_2qubit")
    w, v = np.linalg.eigh(state.matrix)
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
    _require_two_qubits(state, "eof_2qubit")
    return EofResult(_eof_of_concurrence(concurrence_2qubit(state)), EXACT_WOOTTERS)


def _wootters_rows(phi: np.ndarray) -> tuple[np.ndarray, float]:
    """A unitary W whose two members (W phi)_k have one concurrence C, and C.

    ``phi`` holds two unnormalized two-qubit vectors as rows (a 2 x 4
    matrix), so sigma = sum_x phi_x phi_x^H has rank at most 2.  Wootters'
    construction (PRL 80, 2245, 1998) on tau = phi (s_y x s_y) phi^T, a
    complex symmetric matrix: its Takagi factorization tau = U diag(s1, s2)
    U^T gives C = s1 - s2, the concurrence of sigma.  U comes from the real
    symmetric embedding [[Re tau, Im tau], [Im tau, -Re tau]], whose top
    eigenvector (a, b) makes u1 = a + i b with tau conj(u1) = s1 u1; u2 is
    the unit vector orthogonal to u1, phased so that u2^H tau conj(u2) = s2
    >= 0.  (The embedding's second eigenvector would do as well unless
    tau is zero to rounding, where its eigenvectors need not give a
    unitary U.)  The members y = diag(1, i) U^H phi have
    y (s_y x s_y) y^T = diag(s1, -s2), and the real rotation O(theta) that
    zeroes the diagonal of the trace-free form diag(s1, -s2) - C Re(y y^H)
    leaves member k with y_k^T (s_y x s_y) y_k = C |y_k|^2, so each has
    concurrence C, for any s1 >= s2, including s1 = s2.  W = O(theta)
    diag(1, i) U^H.
    """
    tau = phi @ _SYSY @ phi.T
    w, v = np.linalg.eigh(np.block([[tau.real, tau.imag], [tau.imag, -tau.real]]))
    u1 = v[:2, -1] + 1j * v[2:, -1]
    u2 = np.array([-u1[1].conj(), u1[0].conj()])
    z = u2.conj() @ tau @ u2.conj()
    u2 = u2 * np.exp(0.5j * np.angle(z))
    s1, s2 = float(w[-1]), float(abs(z))
    c = s1 - s2
    uh = np.stack([u1.conj(), 1j * u2.conj()])
    y = uh @ phi
    form = np.diag([s1, -s2]) - c * (y @ y.conj().T).real
    theta = 0.5 * math.atan2(-(form[0, 0] - form[1, 1]) / 2.0, form[0, 1])
    cos, sin = math.cos(theta), math.sin(theta)
    return np.array([[cos, sin], [-sin, cos]]) @ uh, c


def _roof_objective(e0: np.ndarray, dims, part_a, part_b) -> Callable:
    """Batched convex-roof objective over the ensembles psi = V e0, with its gradient.

    ``e0`` holds the r unnormalized amplitude rows of the canonical
    ensemble.  Its rows are permuted to the (A, B) order, so that member
    psi_i = (V e0)_i reshapes to its d_A x d_B amplitude block and
    ``qstate._ensemble_objective`` maps an (R, m, r) stack of isometries V
    to the R values sum_i p_i S(rho_i / p_i), rho_i the member's reduced
    state on A, and the R Euclidean gradients G_V (df = Re tr(G^H dV)).
    """
    r = e0.shape[0]
    da = int(np.prod([dims[i] for i in part_a]))
    order = (0,) + tuple(1 + i for i in part_a) + tuple(1 + i for i in part_b)
    basis = e0.reshape((r,) + tuple(dims)).transpose(order).reshape(r, -1)
    return _ensemble_objective(basis, da, basis.shape[1] // da)


def _dft_isometry(m: int, r: int) -> np.ndarray:
    """The first r columns of the unitary m-point DFT: every row has norm sqrt(r / m)."""
    jk = np.outer(np.arange(m), np.arange(r)) % m
    return np.exp(-2j * np.pi * jk / m) / math.sqrt(m)


def eof_upper(state: QState, partition=None, cfg: OptimizerConfig | None = None) -> EofResult:
    """Convex-roof upper bound on the entanglement of formation.

    Minimizes sum_i p_i S_A(psi_i) over ensembles psi = V e0 of size rank^2,
    generated from the canonical purification e0 by an isometry V: a point
    of the Stiefel manifold (Rothlisberger, Rehacek & Loss, PRA 80, 042301,
    2009).  Restart 0 starts from the eigen-ensemble rotated by the unitary
    m-point DFT, V = F_m[:, :r] (``_dft_isometry``), whose m members all
    have weight 1/m: the unrotated start [I_r; 0] has m - r zero members,
    where the gradient vanishes, so it would only search ensembles of r
    members.  The rest start from seeded random isometries, cached per
    (m, r, seed, restarts) and shared with the measurement search
    (``_descent.random_starts``); all descend in lockstep by the
    Riemannian L-BFGS of ``_descent`` (the measurement search's optimizer),
    each for at most ``cfg.max_iter`` iterations, on ``_roof_objective``.
    Every isometry gives a valid ensemble, so the value is an upper bound by
    construction; ties go to the lowest restart.
    ``restart_spread`` and ``converged`` follow the measurement search's
    rule, and ``iterations``, ``evaluations`` and ``stop_reasons`` report
    each restart.  On dims (2, 2) the result carries its gap to the exact
    Wootters value.
    """
    cfg = cfg or EOF_DEFAULT_CONFIG
    part_a, part_b = normalize_partition(state.n_subsystems, partition)
    sp = spectrum(state)
    r = sp.rank
    m = r * r
    e0 = (sp.eigenvectors[:, :r] * np.sqrt(sp.eigenvalues[:r])).T  # r x D rows
    objective = _roof_objective(e0, state.dims, part_a, part_b)
    starts = np.concatenate([_dft_isometry(m, r)[None], random_starts(m, r, cfg.seed, cfg.restarts)])
    run = descend(objective, starts, *objective(starts), cfg.max_iter)
    b, spread, converged = summary(run, cfg.tol)
    iso = run.x[b]
    psi = iso @ e0
    weights = np.real(np.einsum("id,id->i", psi, psi.conj()))
    keep = weights > 1e-12
    vectors = psi[keep] / np.sqrt(weights[keep])[:, None]
    value = float(run.values[b])

    gap = None
    if state.dims == (2, 2) and part_a == (0,):
        gap = value - eof_2qubit(state).value
    return EofResult(
        value=value,
        tag=UPPER_BOUND,
        decomposition=EnsembleDecomposition(weights[keep], vectors, iso),
        crosscheck_gap=gap,
        converged=converged,
        restart_spread=spread,
        iterations=run.iterations,
        evaluations=run.evaluations,
        stop_reasons=run.reasons,
    )
