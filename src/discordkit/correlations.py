"""Correlation measures built on measurement optimization.

Quantum mutual information, classical correlation, quantum discord, discord
distance, and the relative-entropy (projective, global-dephasing) discord.

The optimization domain is rank-1 complete projective measurements; every
report is labeled "projective-optimal" to keep the gap to the POVM
definition explicit.  The estimator bias is one sided: discord estimates are
upper bounds (the minimization is truncated) and classical-correlation
estimates are lower bounds.

``minimize_over_measurements`` scores a coarse scan, then runs multistart
L-BFGS-B on the Givens parameters; the objective is batched, so each scan
and each central-difference gradient is one objective call.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .config import OptimizerConfig
from .measurement import (
    OUTCOME_FLOOR,
    ProjectiveMeasurement,
    _conditional_blocks,
    _measured_view,
    dephase,
    n_measurement_params,
    projective_from_params,
    unitary_from_params,
)
from .qstate import (
    QState,
    _entropy_bits,
    normalize_partition,
    partial_trace,
    permute_subsystems,
    von_neumann_entropy,
)
from .states import stream

__all__ = [
    "CONJECTURE_I_SLACK",
    "CorrelationReport",
    "DiscordBoundError",
    "MEASUREMENT_CLASS_LABEL",
    "OptimizedValue",
    "OptimizerConfig",
    "classical_correlation",
    "correlation_report",
    "discord",
    "discord_distance",
    "min_conditional_entropy",
    "minimize_over_measurements",
    "mutual_information",
    "re_discord",
]

MEASUREMENT_CLASS_LABEL = "projective-optimal"
ESTIMATOR_BIAS_NOTE = (
    "discord estimates are upper bounds; classical-correlation estimates are lower bounds"
)

# Proved bound used as a regression guard: an estimate above the measured
# subsystem's entropy by more than this slack indicates an optimizer or
# code defect, not physics.
CONJECTURE_I_SLACK = 1e-4

# L-BFGS-B: the central-difference step (near eps^(1/3), which balances
# truncation and rounding error), the stops on relative decrease and on the
# gradient, and a memory of 30 corrections (full BFGS up to d = 6).
_FD_STEP = 1e-5
_LBFGS_OPTIONS = {"ftol": 1e-15, "gtol": 1e-9, "maxcor": 30}


class DiscordBoundError(RuntimeError):
    """A discord estimate exceeded the measured subsystem's entropy bound."""


DEFAULT_CONFIG = OptimizerConfig()


@dataclass(frozen=True, eq=False)
class OptimizedValue:
    """Result of a measurement optimization.

    ``value`` equals the optimized quantity at ``argbasis``.  A restart
    counts toward ``spread`` when it stopped before the ``max_iter`` cap;
    ``spread`` is max - min over those restarts (infinite when none did),
    and ``converged`` means ``spread <= 10 * tol``.  A flat objective thus
    converges with a spread near zero.  ``restart_values`` holds the
    per-restart minima of the underlying objective, in restart order (the
    running minimum is the convergence trajectory).
    """

    value: float
    argbasis: ProjectiveMeasurement
    spread: float
    converged: bool
    restart_values: tuple = ()

    def diagnostics(self) -> dict:
        return {
            "spread": self.spread,
            "converged": self.converged,
            "restart_values": list(self.restart_values),
        }


def _avg_conditional_entropy_objective(state: QState, measured: int) -> Callable:
    t, dm, _rest = _measured_view(state, measured)

    def objective(params: np.ndarray) -> np.ndarray:
        w = np.linalg.eigvalsh(_conditional_blocks(t, unitary_from_params(dm, params)))
        probs = w.sum(axis=-1)
        # An outcome below OUTCOME_FLOOR gets all-zero weights: entropy 0.
        scale = np.where(probs > OUTCOME_FLOOR, probs, np.inf)[..., None]
        return (probs * _entropy_bits(w / scale)).sum(axis=-1)

    return objective, dm


def _dephasing_objective(state: QState, measured: int) -> Callable:
    """Entropy increase S(dephased) - S(rho) as a function of basis params.

    The dephased state is block diagonal in the measurement basis, so its
    spectrum is the union of the unnormalized conditional-block spectra.
    """
    t, dm, _rest = _measured_view(state, measured)
    base_entropy = von_neumann_entropy(state)

    def objective(params: np.ndarray) -> np.ndarray:
        w = np.linalg.eigvalsh(_conditional_blocks(t, unitary_from_params(dm, params)))
        return _entropy_bits(w.reshape(w.shape[:-2] + (-1,))) - base_entropy

    return objective, dm


def _random_start(g: np.random.Generator, n_params: int) -> np.ndarray:
    half = n_params // 2
    thetas = g.uniform(0.0, np.pi / 2.0, size=half)
    phis = g.uniform(0.0, 2.0 * np.pi, size=half)
    return np.concatenate([thetas, phis])


def _local_search(objective: Callable, x0: np.ndarray, max_iter: int) -> tuple[float, np.ndarray, bool]:
    """One L-BFGS-B run: (lowest value at an iterate, its params, stopped before the cap)."""
    n = x0.size
    steps = _FD_STEP * np.eye(n)
    best_value, best_x = math.inf, x0

    def value_and_gradient(x):
        nonlocal best_value, best_x
        f = objective(np.concatenate([x[None], x + steps, x - steps]))
        if f[0] < best_value:
            best_value, best_x = float(f[0]), x.copy()
        return f[0], (f[1 : n + 1] - f[n + 1 :]) / (2.0 * _FD_STEP)

    res = _scipy_minimize(
        value_and_gradient, x0, jac=True, method="L-BFGS-B", options={"maxiter": max_iter, **_LBFGS_OPTIONS}
    )
    return best_value, best_x, res.nit < max_iter


def minimize_over_measurements(
    objective: Callable, d: int, cfg: OptimizerConfig | None = None, subsystem: int = 0
) -> OptimizedValue:
    """Minimize ``objective`` over projective-basis parameters.

    ``objective`` is batched: it takes parameters of shape (n, d^2 - d) and
    returns n values.  Takes the best of a coarse scan (the Bloch-sphere
    grid, scored in one call, for d = 2; the canonical zero point otherwise)
    and ``cfg.restarts`` L-BFGS-B refinements: restart 0 starts from the best
    scan point, the rest from seeded random parameter vectors.  Deterministic
    given ``cfg.seed``; restart ties break toward the lowest restart index.
    Non-convergence is flagged, never raised.
    """
    cfg = cfg or DEFAULT_CONFIG
    d = int(d)
    n_params = n_measurement_params(d)

    if d == 2:
        thetas = np.linspace(0.0, np.pi / 2.0, cfg.grid_resolution)
        phis = np.linspace(0.0, 2.0 * np.pi, 2 * cfg.grid_resolution, endpoint=False)
        scan = np.stack(np.meshgrid(thetas, phis, indexing="ij"), axis=-1).reshape(-1, 2)
    else:
        scan = np.zeros((1, n_params))
    scan_values = objective(scan)
    i = int(np.argmin(scan_values))
    best_value, best_params = float(scan_values[i]), scan[i]

    restart_values: list[float] = []
    converged_values: list[float] = []
    for k in range(cfg.restarts):
        x0 = scan[i] if k == 0 else _random_start(stream(cfg.seed, k), n_params)
        value, params, stopped = _local_search(objective, x0, cfg.max_iter)
        restart_values.append(value)
        if stopped:
            converged_values.append(value)
        if value < best_value:
            best_value, best_params = value, params

    spread = max(converged_values) - min(converged_values) if converged_values else math.inf
    return OptimizedValue(
        value=best_value,
        argbasis=projective_from_params(d, best_params, subsystem),
        spread=spread,
        converged=spread <= 10.0 * cfg.tol,
        restart_values=tuple(restart_values),
    )


def mutual_information(state: QState, partition=None) -> float:
    """Quantum mutual information S(A) + S(B) - S(AB) across ``partition``.

    ``partition`` defaults to subsystem 0 versus the rest.
    """
    part_a, part_b = normalize_partition(state.n_subsystems, partition)
    s_a = von_neumann_entropy(partial_trace(state, part_a))
    s_b = von_neumann_entropy(partial_trace(state, part_b))
    return s_a + s_b - von_neumann_entropy(state)


def min_conditional_entropy(
    state: QState, measured: int, cfg: OptimizerConfig | None = None
) -> OptimizedValue:
    """Minimize sum_k p_k S(rho_k) over projective bases on ``measured``.

    This is the shared inner optimization behind classical correlation and
    discord; both derive from the same run, so they add up to the mutual
    information to rounding.
    """
    objective, dm = _avg_conditional_entropy_objective(state, measured)
    return minimize_over_measurements(objective, dm, cfg, subsystem=measured)


def _j_and_d(state: QState, measured: int, m: float) -> tuple[float, float]:
    """(J, D) with ``measured`` measured, from the conditional-entropy minimum ``m``.

    J = S(unmeasured) - m and D = m - S(unmeasured | measured).  A D above
    S(measured) + ``CONJECTURE_I_SLACK`` breaks a proved bound and raises
    ``DiscordBoundError``, since that indicates a defect.
    """
    others = tuple(i for i in range(state.n_subsystems) if i != measured)
    s_measured = von_neumann_entropy(partial_trace(state, (measured,)))
    j = von_neumann_entropy(partial_trace(state, others)) - m
    d = m - (von_neumann_entropy(state) - s_measured)
    if d > s_measured + CONJECTURE_I_SLACK:
        raise DiscordBoundError(
            f"discord estimate {d:.6g} on subsystem {measured} exceeds its entropy "
            f"{s_measured:.6g} + {CONJECTURE_I_SLACK:g}; this bound is proved, so the "
            "optimizer or state construction is defective"
        )
    return j, d


def classical_correlation(
    state: QState, measured: int, cfg: OptimizerConfig | None = None
) -> OptimizedValue:
    """Classical correlation J = S(unmeasured) - min_k sum p_k S(rho_k).

    The returned estimate is a lower bound on the projective-measurement
    optimum (the inner minimization is truncated).  Raises
    ``DiscordBoundError`` when the discord of the same run breaks its bound.
    """
    opt = min_conditional_entropy(state, measured, cfg)
    return replace(opt, value=_j_and_d(state, measured, opt.value)[0])


def discord(
    state: QState, measured: int, cfg: OptimizerConfig | None = None
) -> OptimizedValue:
    """Quantum discord D = min_k sum p_k S(rho_k) - S(rest | measured).

    Shares its optimizer run with ``classical_correlation``, so I = J + D
    holds to rounding.  The estimate upper-bounds the true discord; above
    S(measured marginal) + ``CONJECTURE_I_SLACK`` (a proved bound) a
    ``DiscordBoundError`` is raised, since that indicates a defect.
    """
    opt = min_conditional_entropy(state, measured, cfg)
    return replace(opt, value=_j_and_d(state, measured, opt.value)[1])


def discord_distance(state: QState, cfg: OptimizerConfig | None = None) -> float:
    """|D_A - D_B| from two optimizer runs on a bipartite state."""
    if state.n_subsystems != 2:
        raise ValueError("discord_distance needs a state with exactly two subsystems")
    d_a = discord(state, 0, cfg).value
    d_b = discord(state, 1, cfg).value
    return abs(d_a - d_b)


def _re_discord_single(state: QState, measured: int, cfg: OptimizerConfig | None) -> OptimizedValue:
    objective, dm = _dephasing_objective(state, measured)
    return minimize_over_measurements(objective, dm, cfg, subsystem=measured)


def _re_discord_multi_detailed(state: QState, measured: tuple[int, ...], cfg) -> dict:
    """Joint-basis and chained product-basis dephasing minimization.

    Works on the state permuted so the measured subsystems sit in front; the
    chain optimizes each measured subsystem in turn on the previously
    dephased state and its product basis is kept as a candidate, so the
    returned value never exceeds the chain value.
    """
    rest = tuple(i for i in range(state.n_subsystems) if i not in measured)
    sigma = permute_subsystems(state, measured + rest)
    measured_dims = tuple(state.dims[i] for i in measured)
    d_joint = int(np.prod(measured_dims))
    rest_dims = tuple(state.dims[i] for i in rest)

    # Chain route: optimize each measured factor on the running dephased state.
    tau = sigma
    chain_bases = []
    chain_converged = True
    for pos in range(len(measured)):
        step = _re_discord_single(tau, pos, cfg)
        chain_bases.append(step.argbasis.basis)
        chain_converged = chain_converged and step.converged
        tau = dephase(tau, step.argbasis)
    chain_value = von_neumann_entropy(tau) - von_neumann_entropy(sigma)
    product_basis = chain_bases[0]
    for b in chain_bases[1:]:
        product_basis = np.kron(product_basis, b)

    joint = _re_discord_single(QState((d_joint,) + rest_dims, sigma.matrix), 0, cfg)

    if chain_value < joint.value:
        value = chain_value
        argbasis = ProjectiveMeasurement(0, product_basis)
    else:
        value = joint.value
        argbasis = joint.argbasis
    return {
        "value": value,
        "argbasis": argbasis,
        "chain_value": chain_value,
        "joint_value": joint.value,
        "spread": joint.spread,
        "converged": joint.converged and chain_converged,
        "restart_values": joint.restart_values,
    }


def re_discord(
    state: QState, measured, cfg: OptimizerConfig | None = None
) -> OptimizedValue:
    """Relative-entropy (projective) discord: min over bases of S(Pi(rho)) - S(rho).

    ``measured`` is one subsystem index or a set of them.  For several
    measured subsystems the search covers full joint bases on the merged
    factor as well as chained per-subsystem product bases; the reported
    basis then refers to the merged measured block of the state permuted
    measured-subsystems-first.
    """
    if isinstance(measured, (int, np.integer)):
        measured_t = (int(measured),)
    else:
        measured_t = tuple(sorted({int(i) for i in measured}))
    n = state.n_subsystems
    if not measured_t:
        raise ValueError("measured must name at least one subsystem")
    if measured_t[0] < 0 or measured_t[-1] >= n:
        raise ValueError(f"measured indices {measured_t} out of range for {n} subsystems")
    if len(measured_t) == 1:
        return _re_discord_single(state, measured_t[0], cfg)
    detail = _re_discord_multi_detailed(state, measured_t, cfg)
    return OptimizedValue(
        value=detail["value"],
        argbasis=detail["argbasis"],
        spread=detail["spread"],
        converged=detail["converged"],
        restart_values=detail["restart_values"],
    )


REPORT_CSV_COLUMNS = (
    "s_a",
    "s_b",
    "s_ab",
    "mutual_information",
    "j_a",
    "j_b",
    "d_a",
    "d_b",
    "discord_distance",
    "j_a_spread",
    "j_b_spread",
    "a_converged",
    "b_converged",
)


@dataclass(frozen=True, eq=False)
class CorrelationReport:
    """All scalar correlation measures of one bipartite state.

    ``I = J + D`` holds to rounding on each side because both derive from
    one optimizer run.  ``measurement_class`` records that the optimization ran
    over rank-1 projective measurements only.
    """

    s_a: float
    s_b: float
    s_ab: float
    mutual_information: float
    j_a: float
    j_b: float
    d_a: float
    d_b: float
    discord_distance: float
    diagnostics: dict = field(default_factory=dict)
    measurement_class: str = MEASUREMENT_CLASS_LABEL
    estimator_bias: str = ESTIMATOR_BIAS_NOTE

    def to_json(self) -> dict:
        return asdict(self)

    def to_csv_row(self) -> list:
        diag = self.diagnostics
        return [
            self.s_a,
            self.s_b,
            self.s_ab,
            self.mutual_information,
            self.j_a,
            self.j_b,
            self.d_a,
            self.d_b,
            self.discord_distance,
            diag.get("measured_a", {}).get("spread"),
            diag.get("measured_b", {}).get("spread"),
            diag.get("measured_a", {}).get("converged"),
            diag.get("measured_b", {}).get("converged"),
        ]


def correlation_report(state: QState, cfg: OptimizerConfig | None = None) -> CorrelationReport:
    """Full correlation report for a two-subsystem state.

    Runs one conditional-entropy minimization per side and derives J and D
    from it, so I = J + D holds to rounding on both sides.
    """
    if state.n_subsystems != 2:
        raise ValueError("correlation_report needs a state with exactly two subsystems")
    s_a = von_neumann_entropy(partial_trace(state, (0,)))
    s_b = von_neumann_entropy(partial_trace(state, (1,)))
    s_ab = von_neumann_entropy(state)
    info = s_a + s_b - s_ab

    opt_a = min_conditional_entropy(state, 0, cfg)
    opt_b = min_conditional_entropy(state, 1, cfg)
    j_a, d_a = _j_and_d(state, 0, opt_a.value)
    j_b, d_b = _j_and_d(state, 1, opt_b.value)
    return CorrelationReport(
        s_a=s_a,
        s_b=s_b,
        s_ab=s_ab,
        mutual_information=info,
        j_a=j_a,
        j_b=j_b,
        d_a=d_a,
        d_b=d_b,
        discord_distance=abs(d_a - d_b),
        diagnostics={
            "measured_a": opt_a.diagnostics(),
            "measured_b": opt_b.diagnostics(),
        },
    )
