"""Entanglement of formation.

Exact for pure states (marginal entropy) and for two-qubit mixed states
(Wootters concurrence); a convex-roof upper bound everywhere else.  The roof
searches pure-state ensembles of size rank^2 generated from the canonical
purification by an isometry, which is known to be a sufficient ensemble
size.  Results carry an exactness tag and upper bounds are never reported
as exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    convex-roof diagnostics ``converged`` and ``sweeps`` (per restart).
    """

    value: float
    tag: str
    decomposition: EnsembleDecomposition | None = None
    crosscheck_gap: float | None = None
    converged: bool = True
    restart_spread: float = 0.0
    sweeps: tuple[int, ...] = ()

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
    value = _batch_contributions(amps[None, :], dims, part_a, part_b)[0] / np.vdot(amps, amps).real
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


def _batch_contributions(vectors: np.ndarray, dims, part_a, part_b) -> np.ndarray:
    """p * S(marginal) for each unnormalized vector in the batch (rows).

    Each row is reshaped to its d_A x d_B amplitude block M; the spectrum is
    taken from the smaller Gram side (M M^dag or M^T M^*, whose nonzero
    eigenvalues agree), so any block with a qubit side takes the closed form.
    """
    da = int(np.prod([dims[i] for i in part_a]))
    g = vectors.shape[0]
    m = vectors.reshape((g,) + tuple(dims))
    m = m.transpose((0,) + tuple(1 + i for i in part_a) + tuple(1 + i for i in part_b))
    m = m.reshape(g, da, -1)
    if m.shape[2] < da:
        m = m.transpose(0, 2, 1)
    if m.shape[1] == 2:
        # Closed-form 2x2 Hermitian eigenvalues; avoids LAPACK per pair.
        m0, m1 = m[:, 0, :], m[:, 1, :]
        c1 = m1.conj()
        a = np.einsum("gj,gj->g", m0, m0.conj()).real
        d = np.einsum("gj,gj->g", m1, c1).real
        b = np.einsum("gj,gj->g", m0, c1)
        disc = np.sqrt(np.maximum((a - d) ** 2 + 4.0 * np.abs(b) ** 2, 0.0))
        mu = np.stack([(a + d + disc) / 2.0, np.maximum((a + d - disc) / 2.0, 0.0)])
    else:
        red = m @ m.conj().transpose(0, 2, 1)
        mu = np.linalg.eigvalsh(red).T
        mu = np.where(mu > 1e-18, mu, 0.0)
    # Eigenvalues run along axis 0: summing over a short last axis is slow.
    p = mu.sum(axis=0)
    logs = np.where(mu > 0.0, np.log2(np.where(mu > 0.0, mu, 1.0)), 0.0)
    terms = -(mu * logs).sum(axis=0)
    plog = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    return terms + plog


_PAIR_THETAS = np.linspace(-1.0, 1.0, 7)
_PAIR_PHIS = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
_MAX_SWEEPS = 40
_MIN_WINDOW = 2e-4


def _round_robin(m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Circle-method schedule of all pairs i < j of ``m`` members.

    Returns rounds of disjoint pairs as index arrays ``(ii, jj)``: m - 1 rounds
    of m / 2 pairs, or m rounds with one member sitting out when m is odd
    (Brent & Luk, SIAM J. Sci. Stat. Comput. 6(1), 1985).
    """
    n = m + m % 2
    ring = list(range(n))
    rounds = []
    for _ in range(n - 1):
        pairs = sorted(
            (min(a, b), max(a, b)) for a, b in zip(ring[: n // 2], ring[::-1]) if max(a, b) < m
        )
        if pairs:
            ii, jj = np.array(pairs).T
            rounds.append((ii, jj))
        ring = ring[:1] + ring[-1:] + ring[1:-1]
    return rounds


def _roof_round(psi, iso, contrib, ii, jj, grid, dims, part_a, part_b) -> np.ndarray:
    """Re-mix the disjoint member pairs ``(ii[k], jj[k])`` of one round in place.

    ``psi``, ``iso`` and ``contrib`` are stacks over restarts, and each restart
    has its own grid row.  All candidates of all live (restart, pair) cases are
    scored in one kernel call; as the pairs share no member, this equals
    visiting them one after another.  Returns the improvement of each restart.
    """
    cos_t, sin_t, phase = grid
    weights = np.real(np.einsum("rid,rid->ri", psi, psi.conj()))
    gain = np.zeros(psi.shape[0])
    rr, pp = np.nonzero(weights[:, ii] + weights[:, jj] >= 1e-14)
    if rr.size == 0:
        return gain
    ii, jj = ii[pp], jj[pp]
    psi_i, psi_j = psi[rr, ii][:, None, :], psi[rr, jj][:, None, :]
    cos_r, sin_r = cos_t[rr][:, :, None], sin_t[rr]
    cand_i = cos_r * psi_i - (phase * sin_r)[:, :, None] * psi_j
    cand_j = (phase.conj() * sin_r)[:, :, None] * psi_i + cos_r * psi_j
    n_pairs, n_cand, dim = cand_i.shape
    both = _batch_contributions(
        np.concatenate([cand_i, cand_j]).reshape(-1, dim), dims, part_a, part_b
    ).reshape(2, n_pairs, n_cand)
    tot = both[0] + both[1]
    rows = np.arange(n_pairs)
    k = tot.argmin(axis=1)
    best = tot[rows, k]
    current = contrib[rr, ii] + contrib[rr, jj]
    accept = best < current - 1e-14
    rr, ii, jj, k, rows = rr[accept], ii[accept], jj[accept], k[accept], rows[accept]
    c, s, f = cos_t[rr, k][:, None], sin_t[rr, k][:, None], phase[k][:, None]
    psi[rr, ii], psi[rr, jj] = cand_i[rows, k], cand_j[rows, k]
    row_i = iso[rr, ii]
    iso[rr, ii] = c * row_i - f * s * iso[rr, jj]
    iso[rr, jj] = f.conjugate() * s * row_i + c * iso[rr, jj]
    contrib[rr, ii], contrib[rr, jj] = both[0, rows, k], both[1, rows, k]
    np.add.at(gain, rr, (current - best)[accept])
    return gain


def _roof_sweeps(psi, iso, contrib, dims, part_a, part_b, tol) -> tuple[np.ndarray, np.ndarray]:
    """Two-level (Givens) coordinate descent over ensemble members, in place.

    Each sweep re-mixes every pair of members once by its best rotation on a
    theta/phi grid, in round-robin rounds of disjoint pairs.  The theta window
    cools geometrically, skipping ahead whenever a full sweep stops improving.
    All restarts of the (R, m, .) stacks run in lockstep, each with its own
    window; a restart leaves the stack once its window reaches its floor
    without improvement or its value reaches zero (converged), or at
    ``_MAX_SWEEPS``.  Returns the sweeps and the convergence flag of each.
    """
    n_restarts, m = contrib.shape
    sweeps = np.full(n_restarts, _MAX_SWEEPS if m > 1 else 0)
    converged = np.full(n_restarts, m == 1)
    rounds = _round_robin(m)
    act = np.flatnonzero(~converged)
    cool = np.zeros(act.size, dtype=int)
    for sweep in range(1, _MAX_SWEEPS + 1):
        if act.size == 0:
            break
        p, q, c = psi[act], iso[act], contrib[act]
        window = np.maximum(np.pi / 2.0 * 0.6**cool, _MIN_WINDOW)
        th = np.repeat(_PAIR_THETAS * window[:, None], _PAIR_PHIS.size, axis=1)
        grid = (np.cos(th), np.sin(th), np.tile(np.exp(1j * _PAIR_PHIS), _PAIR_THETAS.size))
        improvement = sum(_roof_round(p, q, c, ii, jj, grid, dims, part_a, part_b) for ii, jj in rounds)
        psi[act], iso[act], contrib[act] = p, q, c
        flat = improvement < max(tol, 1e-11)
        done = (c.sum(axis=1) < 1e-12) | (flat & (window <= _MIN_WINDOW * 1.01))
        sweeps[act[done]], converged[act[done]] = sweep, True
        act, cool = act[~done], (cool + np.where(flat, 3, 1))[~done]
    return sweeps, converged


def _random_isometry(g: np.random.Generator, m: int, r: int) -> np.ndarray:
    z = g.normal(size=(m, r)) + 1j * g.normal(size=(m, r))
    q, _ = np.linalg.qr(z)
    return q[:, :r] if q.shape[1] >= r else q


def eof_upper(state: QState, partition=None, cfg: OptimizerConfig | None = None) -> EofResult:
    """Convex-roof upper bound on the entanglement of formation.

    Minimizes sum_i p_i S_A(psi_i) over ensembles of size rank^2 generated
    from the canonical purification by an isometry, using two-level (Givens)
    coordinate descent in round-robin rounds of disjoint pairs with a
    shrinking angle window; each member's entropy comes from the spectrum of
    the smaller side of its bipartition.  Restart 0 starts from the
    eigen-ensemble, the rest from seeded random isometries; all restarts run
    in lockstep, one kernel call per round for every restart still running,
    each with its own window and exit, as if run alone.  ``converged`` is
    true when no restart stopped at the sweep cap, and ``sweeps`` lists the
    sweeps each restart used.  On dims (2, 2) the result carries its gap to
    the exact Wootters value.
    """
    cfg = cfg or EOF_DEFAULT_CONFIG
    part_a, part_b = normalize_partition(state.n_subsystems, partition)
    dims = state.dims
    sp = spectrum(state)
    r = sp.rank
    m = r * r
    e0 = (sp.eigenvectors[:, :r] * np.sqrt(sp.eigenvalues[:r])).T  # r x D rows

    iso = np.stack(
        [np.eye(m, dtype=complex)[:, :r]]
        + [_random_isometry(stream(cfg.seed, k), m, r) for k in range(1, cfg.restarts)]
    )
    psi = iso @ e0
    contrib = _batch_contributions(psi.reshape(-1, e0.shape[1]), dims, part_a, part_b).reshape(-1, m)
    sweeps, converged = _roof_sweeps(psi, iso, contrib, dims, part_a, part_b, cfg.tol)
    finals = contrib.sum(axis=1)
    b = int(np.argmin(finals))  # ties go to the lowest restart
    value, psi, iso = float(finals[b]), psi[b], iso[b]
    weights = np.real(np.einsum("id,id->i", psi, psi.conj()))
    keep = weights > 1e-12
    vectors = psi[keep] / np.sqrt(weights[keep])[:, None]
    witness = EnsembleDecomposition(weights[keep], vectors, iso)
    spread = float(finals.max() - finals.min())

    gap = None
    if dims == (2, 2) and part_a == (0,):
        gap = value - eof_2qubit(state).value
    return EofResult(
        value=value,
        tag=UPPER_BOUND,
        decomposition=witness,
        crosscheck_gap=gap,
        converged=bool(converged.all()),
        restart_spread=spread,
        sweeps=tuple(int(n) for n in sweeps),
    )
