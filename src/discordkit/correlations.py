"""Correlation measures built on measurement optimization.

Quantum mutual information, classical correlation, quantum discord, discord
distance, and the relative-entropy (projective, global-dephasing) discord.

The optimization domain is rank-1 complete projective measurements; every
report is labeled "projective-optimal" to keep the gap to the POVM
definition explicit.  The estimator bias is one sided: discord estimates are
upper bounds (the minimization is truncated) and classical-correlation
estimates are lower bounds.

``minimize_over_measurements`` starts one restart from a coarse scan and
the others from seeded random bases, then runs them all in lockstep by
Riemannian conjugate-gradient descent on U(d) (``_descent``).  Both
objectives come with an analytic gradient, so each round of the descent is
one objective call for all live restarts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from ._descent import descend, summary
from .config import OptimizerConfig
from .measurement import (
    ProjectiveMeasurement,
    _measurement_objective,
    dephase,
    n_measurement_params,
    unitary_from_params,
)
from .qstate import (
    QState,
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
    "ReDiscordDetail",
    "classical_correlation",
    "correlation_report",
    "discord",
    "discord_distance",
    "min_conditional_entropy",
    "minimize_over_measurements",
    "mutual_information",
    "re_discord",
    "re_discord_detailed",
]

MEASUREMENT_CLASS_LABEL = "projective-optimal"
ESTIMATOR_BIAS_NOTE = (
    "discord estimates are upper bounds; classical-correlation estimates are lower bounds"
)

# Proved bound used as a regression guard: an estimate above the measured
# subsystem's entropy by more than this slack indicates an optimizer or
# code defect, not physics.
CONJECTURE_I_SLACK = 1e-4

class DiscordBoundError(RuntimeError):
    """A discord estimate exceeded the measured subsystem's entropy bound."""


DEFAULT_CONFIG = OptimizerConfig()

# Restart 0's candidates for d = 2: one basis per measurement of a 12 x 24
# theta x phi Bloch grid.  (theta, phi) and (pi/2 - theta, phi + pi) give the
# same measurement with its two vectors swapped, and theta = 0 gives the
# identity for every phi, so the identity and the rows 0 < theta < pi/4 hold
# each of the 121 measurements once, at its first place in grid order.
_BLOCH_THETAS = np.linspace(0.0, np.pi / 2.0, 12)[1:6]
_BLOCH_PHIS = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
_BLOCH_SCAN = unitary_from_params(
    2,
    np.concatenate(
        [np.zeros((1, 2)), np.stack(np.meshgrid(_BLOCH_THETAS, _BLOCH_PHIS, indexing="ij"), axis=-1).reshape(-1, 2)]
    ),
)


@dataclass(frozen=True, eq=False)
class OptimizedValue:
    """Result of a measurement optimization.

    ``value`` equals the optimized quantity at ``argbasis``.  A restart
    counts toward ``spread`` when it stopped before the ``max_iter`` cap;
    ``spread`` is max - min over those restarts (infinite when none did),
    and ``converged`` means ``spread <= 10 * tol``.  A flat objective thus
    converges with a spread near zero.  The per-restart tuples run in
    restart order: ``restart_values`` holds the minima of the underlying
    objective (the running minimum is the convergence trajectory),
    ``iterations`` the accepted descent steps, ``evaluations`` the objective
    calls the restart was live for, and ``stop_reasons`` why it stopped:
    ``gradient`` (Riemannian gradient norm), ``no_decrease`` (the next step
    could not measurably lower the value) or ``cap`` (``max_iter``).
    """

    value: float
    argbasis: ProjectiveMeasurement
    spread: float
    converged: bool
    restart_values: tuple = ()
    iterations: tuple = ()
    evaluations: tuple = ()
    stop_reasons: tuple = ()

    def diagnostics(self) -> dict:
        return {
            "spread": self.spread,
            "converged": self.converged,
            "restart_values": list(self.restart_values),
            "iterations": list(self.iterations),
            "evaluations": list(self.evaluations),
            "stop_reasons": list(self.stop_reasons),
        }


def _random_start(g: np.random.Generator, n_params: int) -> np.ndarray:
    half = n_params // 2
    thetas = g.uniform(0.0, np.pi / 2.0, size=half)
    phis = g.uniform(0.0, 2.0 * np.pi, size=half)
    return np.concatenate([thetas, phis])


def minimize_over_measurements(
    objective: Callable, d: int, cfg: OptimizerConfig | None = None, subsystem: int = 0
) -> OptimizedValue:
    """Minimize ``objective`` over projective bases on a d-level subsystem.

    ``objective`` is batched: it maps an (R, d, d) stack of bases (columns
    are the measurement vectors) to R values and R Euclidean gradients
    (values only, and ``None``, when called with ``gradient=False``).
    Restart 0 starts from the canonical basis, or for d = 2 from the best
    of the 121 measurements of a Bloch-sphere grid (``_BLOCH_SCAN``), scored
    in one values-only call; the others start from seeded random bases.
    All restarts descend in lockstep by Riemannian conjugate gradient on
    U(d), one objective call per round.
    Deterministic given ``cfg.seed``; restart ties break toward the lowest
    restart index.  Non-convergence is flagged, never raised.
    """
    cfg = cfg or DEFAULT_CONFIG
    d = int(d)
    n_params = n_measurement_params(d)

    first = np.eye(d, dtype=complex)[None]
    if d == 2:
        scan_values, _ = objective(_BLOCH_SCAN, gradient=False)
        first = _BLOCH_SCAN[int(np.argmin(scan_values))][None]
    randoms = [_random_start(stream(cfg.seed, k), n_params) for k in range(1, cfg.restarts)]
    randoms = np.reshape(randoms, (cfg.restarts - 1, n_params))
    starts = np.concatenate([first, unitary_from_params(d, randoms)])
    values, grads = objective(starts)
    run = descend(objective, starts, values, grads, cfg.max_iter)

    b, spread, converged = summary(run, cfg.tol)
    return OptimizedValue(
        value=float(run.values[b]),
        argbasis=ProjectiveMeasurement(subsystem, run.x[b]),
        spread=spread,
        converged=converged,
        restart_values=tuple(float(v) for v in run.values),
        iterations=run.iterations,
        evaluations=run.evaluations,
        stop_reasons=run.reasons,
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
    objective, dm = _measurement_objective(state, measured, dephasing=False)
    return minimize_over_measurements(objective, dm, cfg, subsystem=measured)


def _j_and_d(
    m: float, s_measured: float, s_unmeasured: float, s_total: float, measured: int
) -> tuple[float, float]:
    """(J, D) from the conditional-entropy minimum ``m`` and three entropies.

    The entropies are those of the measured subsystem, of the unmeasured
    rest and of the whole state: J = S(unmeasured) - m and
    D = m - S(unmeasured | measured).  A D above S(measured) +
    ``CONJECTURE_I_SLACK`` breaks a proved bound and raises
    ``DiscordBoundError``, since that indicates a defect.
    """
    j = s_unmeasured - m
    d = m - (s_total - s_measured)
    if d > s_measured + CONJECTURE_I_SLACK:
        raise DiscordBoundError(
            f"discord estimate {d:.6g} on subsystem {measured} exceeds its entropy "
            f"{s_measured:.6g} + {CONJECTURE_I_SLACK:g}; this bound is proved, so the "
            "optimizer or state construction is defective"
        )
    return j, d


def _measured_run(state: QState, measured: int, cfg: OptimizerConfig | None):
    """One conditional-entropy minimization and the (J, D) derived from it."""
    opt = min_conditional_entropy(state, measured, cfg)
    others = tuple(i for i in range(state.n_subsystems) if i != measured)
    j, d = _j_and_d(
        opt.value,
        von_neumann_entropy(partial_trace(state, (measured,))),
        von_neumann_entropy(partial_trace(state, others)),
        von_neumann_entropy(state),
        measured,
    )
    return opt, j, d


def classical_correlation(
    state: QState, measured: int, cfg: OptimizerConfig | None = None
) -> OptimizedValue:
    """Classical correlation J = S(unmeasured) - min_k sum p_k S(rho_k).

    The returned estimate is a lower bound on the projective-measurement
    optimum (the inner minimization is truncated).  Raises
    ``DiscordBoundError`` when the discord of the same run breaks its bound.
    """
    opt, j, _d = _measured_run(state, measured, cfg)
    return replace(opt, value=j)


def discord(
    state: QState, measured: int, cfg: OptimizerConfig | None = None
) -> OptimizedValue:
    """Quantum discord D = min_k sum p_k S(rho_k) - S(rest | measured).

    Shares its optimizer run with ``classical_correlation``, so I = J + D
    holds to rounding.  The estimate upper-bounds the true discord; above
    S(measured marginal) + ``CONJECTURE_I_SLACK`` (a proved bound) a
    ``DiscordBoundError`` is raised, since that indicates a defect.
    """
    opt, _j, d = _measured_run(state, measured, cfg)
    return replace(opt, value=d)


def discord_distance(state: QState, cfg: OptimizerConfig | None = None) -> float:
    """|D_A - D_B| from two optimizer runs on a bipartite state."""
    if state.n_subsystems != 2:
        raise ValueError("discord_distance needs a state with exactly two subsystems")
    d_a = discord(state, 0, cfg).value
    d_b = discord(state, 1, cfg).value
    return abs(d_a - d_b)


def _re_discord_single(state: QState, measured: int, cfg: OptimizerConfig | None) -> OptimizedValue:
    objective, dm = _measurement_objective(state, measured, dephasing=True)
    return minimize_over_measurements(objective, dm, cfg, subsystem=measured)


@dataclass(frozen=True, eq=False)
class ReDiscordDetail:
    """Dephasing discord over several measured subsystems, by two routes.

    ``chain_value`` comes from optimizing each measured factor in turn on the
    running dephased state (a product basis), ``joint_value`` from one
    search over full bases of the merged factor; ``value`` and ``argbasis``
    belong to the lower of the two, so ``value`` never exceeds either.
    ``spread`` and ``restart_values`` are the joint search's, and
    ``converged`` holds when every search converged.
    """

    value: float
    argbasis: ProjectiveMeasurement
    chain_value: float
    joint_value: float
    spread: float
    converged: bool
    restart_values: tuple


def re_discord_detailed(
    state: QState,
    measured: tuple[int, ...],
    cfg: OptimizerConfig | None = None,
    first: OptimizedValue | None = None,
) -> ReDiscordDetail:
    """Joint-basis and chained product-basis dephasing minimization.

    ``measured`` is a sorted tuple of subsystem indices.  Works on the state
    permuted so the measured subsystems sit in front; the reported basis
    refers to their merged factor.  ``first``, when given, is
    ``re_discord(state, measured[0], cfg)`` already computed, and stands in
    for the chain's first step, which is the same optimization.
    """
    rest = tuple(i for i in range(state.n_subsystems) if i not in measured)
    sigma = permute_subsystems(state, measured + rest)
    measured_dims = tuple(state.dims[i] for i in measured)
    d_joint = int(np.prod(measured_dims))
    rest_dims = tuple(state.dims[i] for i in rest)
    if first is not None and first.argbasis.subsystem != measured[0]:
        raise ValueError(f"first must measure subsystem {measured[0]}, not {first.argbasis.subsystem}")

    # Chain route: optimize each measured factor on the running dephased state.
    tau = sigma
    chain_bases = []
    chain_converged = True
    for pos in range(len(measured)):
        step = first if pos == 0 and first is not None else _re_discord_single(tau, pos, cfg)
        chain_bases.append(step.argbasis.basis)
        chain_converged = chain_converged and step.converged
        tau = dephase(tau, ProjectiveMeasurement(pos, step.argbasis.basis))
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
    return ReDiscordDetail(
        value=value,
        argbasis=argbasis,
        chain_value=chain_value,
        joint_value=joint.value,
        spread=joint.spread,
        converged=joint.converged and chain_converged,
        restart_values=joint.restart_values,
    )


def re_discord(
    state: QState, measured, cfg: OptimizerConfig | None = None
) -> OptimizedValue:
    """Relative-entropy (projective) discord: min over bases of S(Pi(rho)) - S(rho).

    ``measured`` is one subsystem index or a set of them.  For several
    measured subsystems the search covers full joint bases on the merged
    factor as well as chained per-subsystem product bases
    (``re_discord_detailed``); the reported basis then refers to the merged
    measured block of the state permuted measured-subsystems-first.
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
    detail = re_discord_detailed(state, measured_t, cfg)
    return OptimizedValue(
        value=detail.value,
        argbasis=detail.argbasis,
        spread=detail.spread,
        converged=detail.converged,
        restart_values=detail.restart_values,
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
    j_a, d_a = _j_and_d(opt_a.value, s_a, s_b, s_ab, 0)
    j_b, d_b = _j_and_d(opt_b.value, s_b, s_a, s_ab, 1)
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
