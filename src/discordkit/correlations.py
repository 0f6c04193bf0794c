"""Correlation measures built on measurement optimization.

Quantum mutual information, classical correlation, quantum discord, discord
distance, and the relative-entropy (projective, global-dephasing) discord.
The optimization domain is rank-1 complete projective measurements, and
every report is labeled "projective-optimal" to keep the gap to the POVM
definition explicit.  The estimator bias is one sided: discord estimates are
upper bounds (the minimization is truncated) and classical-correlation
estimates are lower bounds.  Each measured side is a ``_descent.Problem``
(``_measurement_problem``, which lists the certificates), solved by
``_descent.solve``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable

import numpy as np

from ._descent import CERTIFIED, Descent, Problem, restart_stack, search, solve, summary
from .config import OptimizerConfig, _integer
from .entanglement import EofResult, _eof_of_concurrence, _roof, _upper_bound, _wootters_rows
from .measurement import ProjectiveMeasurement, _computed_measurement, _measured_index, _measurement_factor, dephase
from .qstate import (
    QState,
    _decomposition,
    _derived_state,
    _entropy_bits,
    _subsystems,
    normalize_partition,
    partial_trace,
    permute_subsystems,
    von_neumann_entropy,
)
from .states import flip_operator

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

# A d x d state is a Werner state when its residual R = rho - (a I + b F)
# has d |R|_F at most this (``_werner_coefficients``).
WERNER_TOL = 2e-14

class DiscordBoundError(RuntimeError):
    """A discord estimate exceeded the measured subsystem's entropy bound."""


DEFAULT_CONFIG = OptimizerConfig()

@dataclass(frozen=True, eq=False)
class OptimizedValue:
    """Result of a measurement optimization.

    ``value`` equals the optimized quantity at ``argbasis``.  Every field
    after those two is a diagnostic (``diagnostics``), and all but
    ``restart_values`` come from ``_descent.summary``, the one reader of a
    finished run: ``spread``, ``converged``, and the counts of the restarts
    that stopped before the cap and of those within 10 tol of ``value``.
    The per-restart tuples run in restart order: ``restart_values`` holds the
    minima of the underlying objective (the running minimum is the
    convergence trajectory), ``iterations`` the accepted descent steps,
    ``evaluations`` the objective calls the restart was live for, and
    ``stop_reasons`` why it stopped: ``gradient`` (Riemannian gradient norm),
    ``no_decrease`` (the next step could not measurably lower the value),
    ``cap`` (``max_iter``), ``agreed`` (cut once the lowest restarts that
    stopped agreed, ``_descent.descend``) or ``certified`` (a candidate basis
    met a proved lower bound and no search ran: one restart,
    ``_descent.certify``), which ``certified`` alone reads.
    """

    value: float
    argbasis: ProjectiveMeasurement
    spread: float
    converged: bool
    restarts_stopped: int = 0
    restarts_at_best: int = 0
    restart_values: tuple = ()
    iterations: tuple = ()
    evaluations: tuple = ()
    stop_reasons: tuple = ()

    @property
    def certified(self) -> bool:
        """Whether a candidate basis met its proved bound, so that no search ran."""
        return self.stop_reasons == (CERTIFIED,)

    def diagnostics(self) -> dict:
        """Every ``OptimizedValue`` field after ``value`` and ``argbasis``, in order, tuples as lists."""
        return {f.name: list(v) if isinstance(v := getattr(self, f.name), tuple) else v
                for f in fields(OptimizedValue)[2:]}


def minimize_over_measurements(
    objective: Callable, d: int, cfg: OptimizerConfig | None = None, subsystem: int = 0
) -> OptimizedValue:
    """Minimize ``objective`` over projective bases on a d-level subsystem.

    ``objective`` is batched: it maps an (R, d, d) stack of bases U (columns
    are the measurement vectors) and the sizes of its blocks, here (R,), to
    R values and R Euclidean gradients G_U (df = Re tr(G^H dU)).  It must
    not change when a column of U takes a phase, as no function of the
    measurement does.  The search runs on V = U^H from the canonical basis,
    under the square-start rule (``_descent.descend``); ``subsystem`` labels
    the reported basis.  A ``d`` that is not an integer >= 1, or a
    ``subsystem`` that is not one >= 0, raises ``ValueError``.  Deterministic
    given ``cfg.seed``; restart ties break toward the lowest restart index.
    Non-convergence is flagged, never raised.
    """
    cfg = cfg or DEFAULT_CONFIG
    subsystem = _integer("subsystem", subsystem, 0)

    def in_v(v: np.ndarray, sizes):
        values, grad = objective(np.swapaxes(v.conj(), -1, -2), sizes)
        return values, np.swapaxes(grad.conj(), -1, -2)

    [run] = search(in_v, [restart_stack(np.eye(_integer("d", d, 1), dtype=complex), cfg)], cfg)
    return _optimized(run, cfg.tol, subsystem)


def _optimized(run: Descent, tol: float, subsystem: int) -> OptimizedValue:
    """The ``OptimizedValue`` of a searched or certified run on V: its best restart's V^H and ``summary``.

    V is unitary by construction, so the basis is not checked again
    (``measurement._computed_measurement``).
    """
    b, spread, diagnostics = summary(run, tol)
    return OptimizedValue(float(run.values[b]), _computed_measurement(subsystem, run.x[b].conj().T), spread,
                          restart_values=tuple(run.values.tolist()), **diagnostics)


def _measurement_problem(state: QState, k: int, cfg: OptimizerConfig, dephasing: bool) -> Problem:
    """The ``_descent.Problem`` of the least measurement objective on subsystem k, with its certificate.

    The rows are a factor rho = L L^H (``_measurement_factor``), searched on
    V = U^H from V = I (the square-start rule, ``_descent.descend``):
    outcome k's conditional block is N_k N_k^H, N_k row k of V L, and the
    value is sum_k p_k S(rho_k), or with ``dephasing`` S(dephased) - S(rho),
    S(rho) being the offset.  This is the one list of the certificates: the
    first case that applies gives a candidate basis U, scored as V = U^H
    against a proved lower bound; a side whose candidate misses, or that has
    none, is searched.

    - with ``dephasing``, the eigenbasis of rho_X against L = max(0,
      S(rho_X) - S(rho)), both read from ``qstate``'s kept facts.  Every
      basis scores at least L: dephasing never lowers entropy, and S(Pi_X
      rho) = H(p) + sum_k p_k S(rho_k) >= H(p) >= S(rho_X), as the outcome
      distribution p is majorized by rho_X's spectrum.  Every pure state,
      and every state classical on X in that eigenbasis, is certified;
    - without, when X and the rest B are qubits and rho has rank 2 (so the
      purifier C is a qubit), Wootters' basis against E_F(BC), the least
      sum_k p_k S(rho_B^k) over all POVMs on X by the Koashi-Winter relation
      (PRA 69, 022309, 2004).  Wootters gives E_F(BC) from the concurrence
      and an optimal decomposition W phi of the purifier rows phi_x
      (``entanglement._wootters_rows``): by HJW, the measurement of X in
      the basis W^H, which is V = W;
    - without, on a Werner state rho = a I + b F of two d-level systems (F
      the swap, ``_werner_coefficients``), the canonical basis V = I
      against the value every basis attains: rho commutes with every U (x)
      U, so each outcome k of a basis leaves the conditional state (a I + b
      |k><k|) / p of weight p = a d + b, and the value is d p H((a + b) /
      p, a / p, ..., a / p), d p = tr rho (Chitambar, PRA 86, 032110, 2012);
    - without, on a factor of rank 1, the canonical basis V = I against 0,
      the bound max(0, S(rho) - S(rho_X)), which holds as discord is never
      negative (Ollivier & Zurek, PRL 88, 017901, 2001): every basis leaves
      pure conditional states, whose Gram side is 1, so the value is exactly
      0 in every basis.
    """
    factor, r = _measurement_factor(state, k)
    first = np.eye(factor.shape[0], dtype=complex)
    candidate, bound = None, 0.0
    if dephasing:
        rho_x = partial_trace(state, (k,))
        candidate = _decomposition(rho_x)[1].conj().T
        bound = max(0.0, von_neumann_entropy(rho_x) - von_neumann_entropy(state))
    elif factor.shape == (2, 4) and r == 2:
        candidate, c = _wootters_rows(factor)
        bound = _eof_of_concurrence(c)
    elif (werner := _werner_coefficients(state)) is not None:
        a, b = werner
        d = len(first)
        candidate, bound = first, (a * d + b) * d * float(_entropy_bits(np.array([a + b] + [a] * (d - 1))))
    elif factor.shape[1] == r:  # rank 1
        candidate = first
    return Problem(factor, r, first, cfg, candidate, bound, dephasing,
                   von_neumann_entropy(state) if dephasing else 0.0)


def _werner_coefficients(state: QState) -> tuple[float, float] | None:
    """(a, b) with rho = a I + b F to rounding, F the swap of two d-level systems, or None.

    a and b solve tr rho = a d^2 + b d and tr(rho F) = a d + b d^2.  The
    state passes when its residual R = rho - (a I + b F) has d |R|_F <=
    ``WERNER_TOL``.  Then a I + b F is within trace distance eps = |R|_1 / 2
    <= d |R|_F / 2 <= 1e-14 of rho, and a measurement is a channel, so by
    the Alicki-Fannes-Winter bound the conditional entropy of every basis
    moves by at most eps log2 d + (1 + eps) h(eps / (1 + eps)) < 5e-13 +
    1e-14 log2 d: inside ``CERTIFY_TOL``.  ``states.werner_qudit`` leaves d
    |R|_F below 2e-15 up to d = 8.  Two entries that vanish on the family,
    (00, 01) and (00, 00) - (01, 01) - (01, 10), reject a generic state
    before any array work: on a state that passes, each is at most sqrt(3)
    |R|_F < ``WERNER_TOL``.
    """
    d = state.dims[0]
    if d < 2 or state.dims != (d, d):
        return None
    m = state.matrix
    if not (abs(m[0, 1]) <= WERNER_TOL and abs(m[0, 0] - m[1, 1] - m[1, d]) <= WERNER_TOL):
        return None
    f = flip_operator(d)
    trace, swap = m.trace().real, np.vdot(f, m).real
    a, b = (d * trace - swap) / (d**3 - d), (d * swap - trace) / (d**3 - d)
    residual = m - b * f
    residual.flat[:: d * d + 1] -= a
    return (a, b) if d * np.linalg.norm(residual) <= WERNER_TOL else None


def _measured_minima(
    state: QState, measured: tuple[int, ...], cfg: OptimizerConfig | None, dephasing: bool
) -> list[OptimizedValue]:
    """Each ``measured`` side's ``_measurement_problem``, solved at once: sides of one key search stacked.

    Each side is read once, as one index (``measurement._measured_index``),
    so ``(0,)`` measures as ``0`` does.
    """
    cfg = cfg or DEFAULT_CONFIG
    measured = [_measured_index(state, k) for k in measured]
    runs = solve([_measurement_problem(state, k, cfg, dephasing) for k in measured])
    return [_optimized(run, cfg.tol, k) for run, k in zip(runs, measured)]


def _minimum_with_roof(ab: QState, bc: QState, cfg: OptimizerConfig | None) -> tuple[OptimizedValue, EofResult]:
    """``min_conditional_entropy(ab, 0, cfg)`` and ``eof_upper(bc, cfg=cfg)``, as two problems of one ``solve``.

    ``bc`` is the BC reduction of a purification ABC of ``ab``.  This is the
    one statement of the HJW pairing: a rank-1 measurement on A of the pure
    ABC is a d_A-member ensemble of rho_BC (the step behind the Koashi-Winter
    relation), so both problems score d_A rows of d_B x rank(rho_AB) blocks.
    Where they share a ``_descent.solve`` key (rank(rho_BC) = d_A <= 3 and
    one ``cfg``) and neither is certified, they run as two blocks of one
    search, which costs little more than either, the measurement's V = U^H
    padded with zero rows to the roof's d_A^2 x d_A shape.  The roof is then
    ``eof_upper``'s bit for bit and the minimum ``min_conditional_entropy``'s
    to rounding; elsewhere each run is the one alone.
    """
    roof, e0, oracle = _roof(bc, None, cfg)
    minimum, run = solve([_measurement_problem(ab, 0, cfg or DEFAULT_CONFIG, False), roof])
    return _optimized(minimum, (cfg or DEFAULT_CONFIG).tol, 0), _upper_bound(run, e0, oracle, roof.cfg.tol)


def mutual_information(state: QState, partition=None) -> float:
    """Quantum mutual information S(A) + S(B) - S(AB) across ``partition`` (default: 0 versus the rest)."""
    part_a, part_b = normalize_partition(state.n_subsystems, partition)
    s_a = von_neumann_entropy(partial_trace(state, part_a))
    s_b = von_neumann_entropy(partial_trace(state, part_b))
    return s_a + s_b - von_neumann_entropy(state)


def min_conditional_entropy(
    state: QState, measured: int, cfg: OptimizerConfig | None = None
) -> OptimizedValue:
    """Minimize sum_k p_k S(rho_k) over projective bases on ``measured``: certified, or searched.

    The shared inner optimization behind classical correlation and discord;
    both derive from the same run, so they add up to the mutual information
    to rounding.  The value is always one that the objective reached.
    """
    return _measured_minima(state, (measured,), cfg, dephasing=False)[0]


def _j_and_d(state: QState, measured: int, m: float) -> tuple:
    """(J, D, S(measured), S(rest), S(state)) from the conditional-entropy minimum ``m`` of ``state``.

    The one place that turns a minimum into J and D and picks the entropies
    they need, each kept by ``qstate`` on ``state`` or its reduction, so
    that sides and callers read one value: J = S(rest) - m and D = m -
    S(rest | measured), the rest being every other subsystem.  A D above
    S(measured) + ``CONJECTURE_I_SLACK`` breaks a proved bound, so it raises
    ``DiscordBoundError``: it indicates a defect.
    """
    rest = tuple(i for i in range(state.n_subsystems) if i != measured)
    s_measured = von_neumann_entropy(partial_trace(state, (measured,)))
    s_rest = von_neumann_entropy(partial_trace(state, rest))
    s_total = von_neumann_entropy(state)
    j = s_rest - m
    d = m - (s_total - s_measured)
    if d > s_measured + CONJECTURE_I_SLACK:
        raise DiscordBoundError(
            f"discord estimate {d:.6g} on subsystem {measured} exceeds its entropy "
            f"{s_measured:.6g} + {CONJECTURE_I_SLACK:g}; this bound is proved, so the "
            "optimizer or state construction is defective"
        )
    return j, d, s_measured, s_rest, s_total


def _measured_run(state: QState, measured: int, cfg: OptimizerConfig | None):
    """One conditional-entropy minimization and its ``_j_and_d`` tuple: (minimum, (J, D, S(measured), ...))."""
    opt = min_conditional_entropy(state, measured, cfg)
    return opt, _j_and_d(state, opt.argbasis.subsystem, opt.value)


def classical_correlation(
    state: QState, measured: int, cfg: OptimizerConfig | None = None
) -> OptimizedValue:
    """Classical correlation J = S(unmeasured) - min_k sum p_k S(rho_k).

    A lower bound on the projective-measurement optimum (the inner
    minimization is truncated).  Raises ``DiscordBoundError`` when the
    discord of the same run breaks its bound.
    """
    opt, (j, *_) = _measured_run(state, measured, cfg)
    return replace(opt, value=j)


def discord(
    state: QState, measured: int, cfg: OptimizerConfig | None = None
) -> OptimizedValue:
    """Quantum discord D = min_k sum p_k S(rho_k) - S(rest | measured).

    Shares its optimizer run with ``classical_correlation``, so I = J + D
    holds to rounding.  The estimate upper-bounds the true discord, and
    raises ``DiscordBoundError`` above its proved bound (``_j_and_d``).
    """
    opt, (_j, d, *_) = _measured_run(state, measured, cfg)
    return replace(opt, value=d)


def discord_distance(state: QState, cfg: OptimizerConfig | None = None) -> float:
    """|D_A - D_B| of a bipartite state: the ``discord_distance`` of ``correlation_report``."""
    if state.n_subsystems != 2:
        raise ValueError("discord_distance needs a state with exactly two subsystems")
    return correlation_report(state, cfg).discord_distance


@dataclass(frozen=True, eq=False, kw_only=True)
class ReDiscordDetail(OptimizedValue):
    """Dephasing discord over several measured subsystems, by two routes.

    ``chain_value`` comes from optimizing each measured factor in turn on the
    running dephased state (a product basis), ``joint_value`` from one
    minimization over full bases of the merged factor; ``value`` and
    ``argbasis`` belong to the lower of the two.  ``spread``, the counts and the
    per-restart tuples are the joint step's, and ``converged`` holds when
    every search converged.  A certified joint value is the minimum over all
    bases of the merged factor, product bases included, so the chain is then
    skipped: ``chain_value`` is NaN and ``value`` is the joint value.
    """

    chain_value: float
    joint_value: float


def re_discord_detailed(
    state: QState,
    measured,
    cfg: OptimizerConfig | None = None,
    first: OptimizedValue | None = None,
) -> ReDiscordDetail:
    """Joint-basis and chained product-basis dephasing minimization (``ReDiscordDetail``).

    ``measured`` is one index or a set, read sorted (``qstate._subsystems``).
    Works on the state permuted so the measured subsystems sit in front; the
    reported basis refers to their merged factor.  The chain's first step is
    ``re_discord(state, measured[0], cfg)`` on the unpermuted state
    (``first``, when given, is that result already computed).
    """
    measured = _subsystems("measured", measured, state.n_subsystems)
    if first is not None and first.argbasis.subsystem != measured[0]:
        raise ValueError(f"first must measure subsystem {measured[0]}, not {first.argbasis.subsystem}")
    rest = tuple(i for i in range(state.n_subsystems) if i not in measured)
    sigma = permute_subsystems(state, measured + rest)
    d_joint = math.prod([state.dims[i] for i in measured])
    rest_dims = tuple(state.dims[i] for i in rest)
    [joint] = _measured_minima(_derived_state((d_joint,) + rest_dims, sigma.matrix), (0,), cfg, dephasing=True)
    detail = ReDiscordDetail(**vars(joint), chain_value=math.nan, joint_value=joint.value)
    if joint.certified:
        return detail

    # Chain route: optimize each measured factor on the running dephased state.
    if first is None:
        [first] = _measured_minima(state, measured[:1], cfg, dephasing=True)
    tau, bases, converged = sigma, [], joint.converged
    for pos in range(len(measured)):
        step = first if pos == 0 else _measured_minima(tau, (pos,), cfg, dephasing=True)[0]
        bases.append(step.argbasis.basis)
        converged = converged and step.converged
        tau = dephase(tau, _computed_measurement(pos, step.argbasis.basis))
    chain_value = von_neumann_entropy(tau) - von_neumann_entropy(sigma)
    detail = replace(detail, chain_value=chain_value, converged=converged)
    if chain_value < joint.value:
        product_basis = functools.reduce(np.kron, bases)
        detail = replace(detail, value=chain_value, argbasis=_computed_measurement(0, product_basis))
    return detail


def re_discord(
    state: QState, measured, cfg: OptimizerConfig | None = None
) -> OptimizedValue:
    """Relative-entropy (projective) discord: min over bases of S(Pi(rho)) - S(rho).

    ``measured`` is one subsystem index or a set of them; several give
    ``re_discord_detailed``'s result, on their merged block.
    """
    measured = _subsystems("measured", measured, state.n_subsystems)
    if len(measured) == 1:
        return _measured_minima(state, measured, cfg, dephasing=True)[0]
    return re_discord_detailed(state, measured, cfg)


@dataclass(frozen=True, eq=False)
class CorrelationReport:
    """All scalar correlation measures of one bipartite state.

    ``I = J + D`` holds to rounding on each side because both derive from one
    optimizer run.  ``measurement_class`` records that the optimization ran
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


def correlation_report(state: QState, cfg: OptimizerConfig | None = None) -> CorrelationReport:
    """Full report of a two-subsystem state: both minima solved at once, each entropy computed once."""
    if state.n_subsystems != 2:
        raise ValueError("correlation_report needs a state with exactly two subsystems")
    opt_a, opt_b = _measured_minima(state, (0, 1), cfg, dephasing=False)
    j_a, d_a, s_a, s_b, s_ab = _j_and_d(state, 0, opt_a.value)
    j_b, d_b, *_ = _j_and_d(state, 1, opt_b.value)
    return CorrelationReport(
        s_a=s_a,
        s_b=s_b,
        s_ab=s_ab,
        mutual_information=s_a + s_b - s_ab,
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
