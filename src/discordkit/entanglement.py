"""Entanglement of formation.

Exact for pure states (marginal entropy) and for two-qubit mixed states
(Wootters concurrence); a convex-roof upper bound everywhere else.  The roof
searches pure-state ensembles of size rank^2 generated from the canonical
purification by an isometry, which is known to be a sufficient ensemble
size, by Riemannian conjugate gradient on the Stiefel manifold: the same
``_descent`` optimizer as the measurement search, on one batched objective
with an analytic gradient that also gives the pure-state value.  Results
carry an exactness tag and upper bounds are never reported as exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._descent import descend, summary
from .config import OptimizerConfig
from .qstate import (
    InvalidStateError,
    PureStateVector,
    QState,
    is_pure,
    normalize_partition,
    spectrum,
)
from .states import stream

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

# Convex-roof default budget: eigen-ensemble start plus two random
# isometry restarts.
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
    ``restart_spread <= 10 * tol``, and the per-restart tuples hold the
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


def eof_2qubit(state: QState) -> EofResult:
    """Exact two-qubit entanglement of formation via the concurrence."""
    _require_two_qubits(state, "eof_2qubit")
    c = min(concurrence_2qubit(state), 1.0)
    value = binary_entropy((1.0 + math.sqrt(1.0 - c * c)) / 2.0)
    return EofResult(value, EXACT_WOOTTERS)


def _roof_objective(e0: np.ndarray, dims, part_a, part_b) -> Callable:
    """Batched convex-roof objective over the ensembles psi = V e0, with its gradient.

    ``e0`` holds the r unnormalized amplitude rows of the canonical
    ensemble.  The objective maps an (R, m, r) stack of isometries V to the
    R values sum_i p_i S(rho_i / p_i) over the members psi_i = (V e0)_i and
    the R Euclidean gradients G_V = G_psi e0^H (df = Re tr(G^H dV)).  Each
    member, reshaped to its d_A x d_B amplitude block M_i, gives rho_i =
    M_i M_i^H, taken on the smaller Gram side (M_i M_i^H or M_i^H M_i, whose
    nonzero eigenvalues agree).  From one batched ``eigh``, the gradient of
    the member's term is G_M = 2 W M_i (or 2 M_i W on the other side) with
    W = -(log2 rho_i - log2 p_i) on the support of rho_i, where M_i lives,
    so zero eigenvalues need no clipping.
    """
    r = e0.shape[0]
    da = int(np.prod([dims[i] for i in part_a]))
    order = (0,) + tuple(1 + i for i in part_a) + tuple(1 + i for i in part_b)
    basis = e0.reshape((r,) + tuple(dims)).transpose(order).reshape(r, -1)
    db = basis.shape[1] // da
    left = da <= db

    def objective(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        blocks = (v @ basis).reshape(v.shape[:-1] + (da, db))
        blocks_h = np.swapaxes(blocks.conj(), -1, -2)
        w, u = np.linalg.eigh(blocks @ blocks_h if left else blocks_h @ blocks)
        w = np.maximum(w, 0.0)
        p = w.sum(axis=-1, keepdims=True)
        mu = w / np.where(p > 0.0, p, 1.0)
        logs = np.log2(np.where(mu > 0.0, mu, 1.0))
        log_ratio = (u * logs[..., None, :]) @ np.swapaxes(u.conj(), -1, -2)  # -W
        grad = -2.0 * (log_ratio @ blocks if left else blocks @ log_ratio)
        return -(w * logs).sum(axis=(-2, -1)), grad.reshape(v.shape[:-1] + (-1,)) @ basis.conj().T

    return objective


def _random_isometry(g: np.random.Generator, m: int, r: int) -> np.ndarray:
    z = g.normal(size=(m, r)) + 1j * g.normal(size=(m, r))
    q, _ = np.linalg.qr(z)
    return q[:, :r] if q.shape[1] >= r else q


def eof_upper(state: QState, partition=None, cfg: OptimizerConfig | None = None) -> EofResult:
    """Convex-roof upper bound on the entanglement of formation.

    Minimizes sum_i p_i S_A(psi_i) over ensembles psi = V e0 of size rank^2,
    generated from the canonical purification e0 by an isometry V: a point
    of the Stiefel manifold (Rothlisberger, Rehacek & Loss, PRA 80, 042301,
    2009).  Restart 0 starts from the eigen-ensemble, the rest from seeded
    random isometries; all descend in lockstep by the Riemannian conjugate
    gradient of ``_descent`` (the measurement search's optimizer), each for
    at most ``cfg.max_iter`` iterations, on ``_roof_objective``.  Every
    isometry gives a valid ensemble, so the value is an upper bound by
    construction; ties go to the lowest restart.  ``restart_spread`` and
    ``converged`` follow the measurement search's rule, and ``iterations``,
    ``evaluations`` and ``stop_reasons`` report each restart.  On dims
    (2, 2) the result carries its gap to the exact Wootters value.
    """
    cfg = cfg or EOF_DEFAULT_CONFIG
    part_a, part_b = normalize_partition(state.n_subsystems, partition)
    sp = spectrum(state)
    r = sp.rank
    m = r * r
    e0 = (sp.eigenvectors[:, :r] * np.sqrt(sp.eigenvalues[:r])).T  # r x D rows
    objective = _roof_objective(e0, state.dims, part_a, part_b)
    starts = np.stack(
        [np.eye(m, dtype=complex)[:, :r]]
        + [_random_isometry(stream(cfg.seed, k), m, r) for k in range(1, cfg.restarts)]
    )
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
