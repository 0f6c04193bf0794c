"""Named, tolerance-aware checks for the toolkit's identities and bounds.

Each check returns a ``BoundCheck``.  Ten relations are rows of one table,
``_ROWS``, which ``_check`` evaluates: a ``_Relation`` holds the kind and
tolerance, the hypothesis (a skip reason or None, then E_F of each reduction
in ``vanishing`` at most ``EF_ZERO_TOL``), the sides (lhs, rhs), the
provenance, the ``equality`` flag and the name of a provenance ``residual``
that must also stay within the tolerance.  An unmet hypothesis skips the
row, with NaN sides, instead of failing it; a ``survey`` row whose E_F term
fails is still evaluated.  ``check_thm3`` and ``check_kw_pointwise`` are
written by hand.  ``run_suite`` aggregates checks over seeded state families
into reproducible ``SuiteReport`` objects, computing each quantity of a
sample once (``_StateAnalysis``, which also keeps each J and D).  Exact
entropy identities use a 1e-9 tolerance; optimizer-dependent checks use
1e-3 to 2e-3, sized around the one-sided estimator bias (discord estimates
high, classical correlation low).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterable

import numpy as np

from ._descent import seeded_isometries
from .config import OptimizerConfig, _integer
from .correlations import (
    CERTIFIED,
    DEFAULT_CONFIG,
    OptimizedValue,
    _j_and_d,
    _measured_minima,
    _minimum_with_roof,
    min_conditional_entropy,
    re_discord_detailed,
)
from .entanglement import eof_2qubit, eof_pure, eof_upper
from .measurement import ProjectiveMeasurement, _conditional_blocks, _measured_view, _outcomes
from .qstate import (
    PureStateVector,
    QState,
    _entropy_bits,
    _kept_eigh,
    is_pure,
    partial_trace,
    purify,
    von_neumann_entropy,
)
from .states import StateFamilySpec

__all__ = [
    "BoundCheck",
    "RELATIONS",
    "SuiteReport",
    "check_cor1",
    "check_cor2",
    "check_eq5",
    "check_eq8",
    "check_eq12",
    "check_koashi_winter",
    "check_kw_pointwise",
    "check_lindblad_lemma3",
    "check_monogamy",
    "check_thm1",
    "check_thm2",
    "check_thm3",
    "run_suite",
]

TOL_EXACT = 1e-9
TOL_OPT = 1e-3
TOL_OPT2 = 2e-3
EQUALITY_TOL = 1e-6
EF_ZERO_TOL = 1e-6

# Stream index salt for check-internal random measurements, clear of the
# per-restart optimizer streams.
_MEASUREMENT_SALT = 1_000_003


@dataclass(frozen=True)
class BoundCheck:
    """One verified relation.

    ``kind`` is ``identity`` (slack = |lhs - rhs|, holds when slack <= tol)
    or ``inequality`` (lhs <= rhs, slack = rhs - lhs, holds when
    slack >= -tol).  Skipped checks carry the reason and ``holds`` is then
    informational (or None when nothing was evaluated).
    """

    name: str
    kind: str
    lhs: float
    rhs: float
    slack: float
    tolerance: float
    holds: bool | None
    equality: bool | None = None
    skipped: str | None = None
    provenance: dict = field(default_factory=dict)


def _bound(name, kind, lhs, rhs, tol, equality=None, skipped=None, provenance=None, residual_ok=True) -> BoundCheck:
    """The ``BoundCheck`` of lhs against rhs by ``kind``; ``holds`` also needs ``residual_ok``."""
    slack = abs(lhs - rhs) if kind == "identity" else rhs - lhs
    holds = (slack <= tol if kind == "identity" else slack >= -tol) and residual_ok
    return BoundCheck(
        name, kind, float(lhs), float(rhs), float(slack), tol, holds, equality, skipped, provenance or {},
    )


def _skipped(name, kind, reason) -> BoundCheck:
    nan = float("nan")
    return BoundCheck(name, kind, nan, nan, nan, nan, None, None, reason)


def _eof_route(state: QState) -> str:
    """The route of ``_certified_eof`` on ``state``."""
    if 1 in state.dims:
        return "trivial"
    if is_pure(state):
        return "pure"
    return "wootters" if state.dims == (2, 2) else "upper"


def _certified_eof(state: QState, cfg: OptimizerConfig | None):
    """(value, certified_exact, route) for a bipartite entanglement of formation, by ``_eof_route``.

    The convex-roof route is an upper bound, not exact, but one at or below
    ``EF_ZERO_TOL`` still certifies a vanishing value.
    """
    route = _eof_route(state)
    if route == "upper":
        return eof_upper(state, cfg=cfg).value, False, route
    return 0.0 if route == "trivial" else (eof_pure if route == "pure" else eof_2qubit)(state).value, True, route


# Two-subsystem reductions of the pure tripartite form ABC.
_PAIRS = {"ab": (0, 1), "ac": (0, 2), "bc": (1, 2)}

# The relations that read E_F(BC), and those that read the D_A minimum of
# the input, on every bipartite input.
_READ_EF_BC = frozenset({"thm1", "cor1", "lindblad", "thm2", "cor2"})
_READ_D_A = frozenset({"thm1", "lindblad", "monogamy"})


class _StateAnalysis:
    """The sources, searches, roofs, J and D the relations read on one state, each computed once and kept here.

    A source is the input state (``"state"``), its pure tripartite form
    (``"abc"``, the purification of a bipartite input) or a reduction of
    ``"abc"`` named in ``_PAIRS``, which ``qstate.partial_trace`` keeps on
    ``"abc"``, as ``qstate`` keeps every entropy on its state.  The memo
    holds the input under its names and ``"abc"``, and every search, J and
    D under its source's object, not a name: ``__init__`` puts the input
    under ``"ab"`` too when it is bipartite, and under ``"abc"`` when it is
    pure tripartite, so each search runs once per distinct state.  Any other
    input has no ``"abc"``, and the rows that read it skip (``_pure_abc``).
    (``purify`` drops eigenvalues below ``EIG_CLIP``, so the AB reduction
    of the purification may differ from the input by that weight, far
    inside monogamy's 2e-3; the paper states its relations for the input.)
    When the ``relations`` that will read the analysis read both the D_A
    minimum and E_F(BC) of a bipartite input (``_READ_D_A``,
    ``_READ_EF_BC``) and E_F(BC) takes the convex roof, the first read of
    either solves the two together (``correlations._minimum_with_roof``);
    otherwise a suite that reads one of them never runs the other.
    """

    def __init__(self, state, cfg: OptimizerConfig | None, relations: tuple = ()):
        if isinstance(state, PureStateVector):
            state = state.to_density()
        self.state = state
        self.cfg = cfg
        n = state.n_subsystems
        names = ("state", "ab") if n == 2 else ("state", "abc") if n == 3 and is_pure(state) else ("state",)
        self._memo: dict = dict.fromkeys(names, state)
        self._paired = n == 2 and not _READ_D_A.isdisjoint(relations) and not _READ_EF_BC.isdisjoint(relations)

    def _memoized(self, key, compute: Callable, *args):
        """``compute(*args)``, run on the first call with ``key`` only; a paired key's first read runs ``_pair``."""
        if self._paired and key in (("minimum", self.state, 0), ("eof", "bc")):
            self._pair()
        if key not in self._memo:
            self._memo[key] = compute(*args)
        return self._memo[key]

    def source(self, name: str) -> QState:
        """The state ``name``; ``"abc"`` and its reductions exist where ``_pure_abc`` holds."""
        if name in _PAIRS and name not in self._memo:  # a reduction, which qstate keeps on "abc"
            return partial_trace(self.source("abc"), _PAIRS[name])
        return self._memoized(name, lambda: purify(self.state).to_density())  # the input, or "abc"

    def entropy(self, name: str, keep: tuple | None = None) -> float:
        """S of ``source(name)``, or of its reduction to ``keep``, as ``qstate`` keeps it."""
        rho = self.source(name)
        return von_neumann_entropy(rho if keep is None else partial_trace(rho, keep))

    def _pair(self) -> None:
        """Run the D_A minimum and E_F(BC) as one search, once, where they pair."""
        self._paired = False
        bc = self.source("bc")
        if _eof_route(bc) != "upper":
            return
        opt, roof = _minimum_with_roof(self.state, bc, self.cfg)
        self._memo[("minimum", self.state, 0)] = opt
        self._memo[("eof", "bc")] = roof.value, False, "upper"

    def eof(self, pair: str):
        """``_certified_eof`` of the reduction ``pair`` of ABC."""
        return self._memoized(("eof", pair), lambda: _certified_eof(self.source(pair), self.cfg))

    def minimum(self, name: str, measured: int) -> OptimizedValue:
        """The conditional-entropy minimization of ``source(name)`` measured on ``measured``.

        One run per distinct state, and ``("ac", 0)`` reads ``("ab", 0)``'s:
        ``"abc"`` is pure, so a rank-1 measurement on A leaves a pure BC
        state for each outcome k, S(rho_B^k) = S(rho_C^k), and the two
        objectives are one function of the basis.
        """
        if (name, measured) == ("ac", 0):
            return self.minimum("ab", 0)
        rho = self.source(name)
        return self._memoized(("minimum", rho, measured), min_conditional_entropy, rho, measured, self.cfg)

    def j_and_d(self, name: str, measured: int) -> tuple[float, float]:
        """(J, D) of ``source(name)`` measured on ``measured``: ``_j_and_d`` of ``minimum``, once per source."""
        rho = self.source(name)
        return self._memoized(
            ("j_and_d", rho, measured), lambda: _j_and_d(rho, measured, self.minimum(name, measured).value)[:2],
        )


def _analysis(state, cfg, relation: str) -> _StateAnalysis:
    """``state`` itself when it is an analysis, else a new one read by ``relation`` alone."""
    return state if isinstance(state, _StateAnalysis) else _StateAnalysis(state, cfg, (relation,))


def _measurement_route(a: _StateAnalysis, *minima: tuple[str, int]) -> dict:
    """``{"measurement_route": "certified"}`` when every minimum a row reads was certified, else {}.

    ``minima`` holds the (name, measured) pairs of ``_StateAnalysis.minimum``
    that the row reads.  Such a row tests a certificate of
    ``correlations._measurement_problem``, not the search.
    """
    if all(a.minimum(name, measured).certified for name, measured in minima):
        return {"measurement_route": CERTIFIED}
    return {}


def _bc_routes(a: _StateAnalysis, **extra) -> dict:
    """Provenance of a row that reads E_F(BC) and D_A: both routes, ``extra`` between them."""
    return {"entanglement_route": a.eof("bc")[2], **extra, **_measurement_route(a, ("state", 0))}


def _pair_routes(a: _StateAnalysis, **extra) -> dict:
    """Provenance of a row that reads E_F(AC), E_F(BC), D_A and D_B; ``extra`` goes before the measurement route."""
    routes = {"route_ac": a.eof("ac")[2], "route_bc": a.eof("bc")[2], **extra}
    return {**routes, **_measurement_route(a, ("state", 0), ("state", 1))}


def _saturated(a: _StateAnalysis) -> bool:
    """S(A) - S(B) = S(C) on ABC, the equality condition of Theorem 1."""
    s_a, s_b, s_c = (a.entropy("abc", (k,)) for k in range(3))
    return abs(s_a - s_b - s_c) <= EQUALITY_TOL


def _multipartite(a: _StateAnalysis) -> str | None:
    """The hypothesis of eq5, which splits the input into its first subsystem and the rest."""
    return None if a.state.n_subsystems > 1 else "needs at least two subsystems"


def _bipartite(a: _StateAnalysis) -> str | None:
    return None if a.state.n_subsystems == 2 else "needs a bipartite state"


def _pure_abc(a: _StateAnalysis) -> str | None:
    """The hypothesis of the rows that read ``"abc"``, which only a bipartite or a pure tripartite input has."""
    has_abc = a.state.n_subsystems == 2 or a._memo.get("abc") is a.state
    return None if has_abc else "needs a bipartite or a pure tripartite state"


def _kw_unmet(a: _StateAnalysis) -> str | None:
    """``_bipartite``, then a qubit B and a rank at most 2, where E_F(BC) is exact."""
    if _bipartite(a):
        return _bipartite(a)
    if a.state.dims[1] != 2:
        return f"unmeasured subsystem must be a qubit, got dimension {a.state.dims[1]}"
    rank = a.source("abc").dims[2]
    if rank > 2:
        return f"state rank {rank} > 2: exact entanglement route unavailable"
    return None


def _d(a: _StateAnalysis, measured: int) -> float:
    return a.j_and_d("state", measured)[1]


def _eq5_sides(a: _StateAnalysis) -> tuple[float, float]:
    s_a = a.entropy("state", (0,))
    s_b = a.entropy("state", tuple(range(1, a.state.n_subsystems)))
    return s_a + s_b - a.entropy("state"), 2.0 * min(s_a, s_b)


def _s_cond(a: _StateAnalysis, joint: tuple, given: tuple) -> float:
    """S(joint | given) on ABC."""
    return a.entropy("abc", joint) - a.entropy("abc", given)


def _thm2_residual(a: _StateAnalysis) -> float:
    return abs((_d(a, 0) - _d(a, 1)) - (a.entropy("state", (0,)) - a.entropy("state", (1,))))


@dataclass(frozen=True)
class _Relation:
    kind: str
    tol: float
    sides: Callable[[_StateAnalysis], tuple[float, float]]
    hypothesis: Callable[[_StateAnalysis], str | None]
    vanishing: tuple[str, ...] = ()
    survey: bool = False
    provenance: Callable[[_StateAnalysis], dict] = lambda a: {}
    equality: Callable[[_StateAnalysis], bool | None] = lambda a: None
    residual: str | None = None


_ROWS = {
    "eq5": _Relation("inequality", TOL_EXACT, _eq5_sides, _multipartite),
    "koashi_winter": _Relation(
        "identity", TOL_OPT, lambda a: (a.eof("bc")[0] + a.j_and_d("state", 0)[0], a.entropy("state", (1,))),
        _kw_unmet, provenance=_bc_routes,
    ),
    "eq8": _Relation(
        "identity", TOL_OPT,
        lambda a: (_d(a, 0) - a.eof("bc")[0], a.entropy("state", (0,)) - a.entropy("state")),
        _kw_unmet, provenance=_bc_routes,
    ),
    "monogamy": _Relation(
        "identity", TOL_OPT2, lambda a: (a.j_and_d("ab", 0)[1] + a.j_and_d("ac", 0)[0], a.entropy("abc", (0,))),
        _pure_abc, provenance=lambda a: _measurement_route(a, ("ab", 0)),
    ),
    "thm1": _Relation(
        "inequality", TOL_OPT, lambda a: (_d(a, 0), a.entropy("abc", (1,)) + a.eof("bc")[0]), _bipartite,
        provenance=_bc_routes, equality=lambda a: _saturated(a) if a.eof("bc")[1] else None,
    ),
    "cor1": _Relation(
        "inequality", TOL_OPT, lambda a: (_d(a, 0), a.entropy("abc", (1,))), _bipartite, ("bc",),
        provenance=_bc_routes, equality=_saturated,
    ),
    "lindblad": _Relation(
        "inequality", TOL_OPT2, lambda a: (_d(a, 0), a.j_and_d("state", 0)[0]), _bipartite, ("bc",), survey=True,
        provenance=lambda a: _bc_routes(a, ef_bc=a.eof("bc")[0]),
    ),
    "eq12": _Relation(
        "identity", TOL_EXACT, lambda a: (_s_cond(a, (0, 1), (0,)) + _s_cond(a, (1, 2), (2,)), 0.0), _pure_abc,
    ),
    "thm2": _Relation(
        "inequality", TOL_OPT2, lambda a: (abs(_d(a, 0) - _d(a, 1)), a.entropy("state")), _bipartite, ("bc", "ac"),
        provenance=lambda a: _pair_routes(a, identity_residual=_thm2_residual(a)), residual="identity_residual",
    ),
    "cor2": _Relation(
        "inequality", TOL_OPT2, lambda a: (_d(a, 1) - _d(a, 0), a.entropy("state")), _bipartite, ("bc", "ac"),
        provenance=_pair_routes, equality=lambda a: abs(_d(a, 1) - a.j_and_d("state", 1)[0]) <= TOL_OPT2,
    ),
}


def _check(name: str, state, cfg: OptimizerConfig | None) -> BoundCheck:
    """The row ``_ROWS[name]`` on ``state``: skipped, surveyed or evaluated.

    The first hypothesis term that fails names the skip.  E_F(BC) comes
    before E_F(AC), since ``thm1``, ``cor1`` and ``lindblad`` read it anyway,
    so a skip on E_F(BC) runs no second convex roof; one on E_F(AC) names both.
    """
    row, a = _ROWS[name], _analysis(state, cfg, name)
    reason = row.hypothesis(a)
    if reason:
        return _skipped(name, row.kind, reason)
    failed = next((k for k, pair in enumerate(row.vanishing) if a.eof(pair)[0] > EF_ZERO_TOL), None)
    if failed is not None:
        terms = ", ".join(f"E_F({pair.upper()}) = {a.eof(pair)[0]:.3g}" for pair in row.vanishing[failed::-1])
        if not row.survey:
            return _skipped(name, row.kind, f"hypothesis not met: {terms}")
        reason = f"survey: hypothesis not met ({terms})"
    lhs, rhs = row.sides(a)
    provenance = row.provenance(a)
    residual_ok = row.residual is None or not provenance[row.residual] > row.tol
    return _bound(name, row.kind, lhs, rhs, row.tol, row.equality(a), reason, provenance, residual_ok)


def check_eq5(state: QState, cfg: OptimizerConfig | None = None) -> BoundCheck:
    """Mutual-information bound I <= 2 min(S(A), S(B)); entropy exact."""
    return _check("eq5", state, cfg)


def check_koashi_winter(state: QState, cfg: OptimizerConfig | None = None) -> BoundCheck:
    """Tradeoff E_F(BC) + J_A(AB) = S(B) on states with a qubit environment.

    On a rank-2 two-qubit input J_A comes from the Koashi-Winter certificate,
    which scores Wootters' basis against this very relation, so the row tests
    the certificate, not the optimizer (``_measurement_route``).
    """
    return _check("koashi_winter", state, cfg)


def check_eq8(state: QState, cfg: OptimizerConfig | None = None) -> BoundCheck:
    """Tradeoff D_A(AB) - E_F(BC) = -S(B|A) on states with a qubit environment; see ``check_koashi_winter``."""
    return _check("eq8", state, cfg)


def check_monogamy(state: QState, cfg: OptimizerConfig | None = None) -> BoundCheck:
    """D_A(AB) + J_A(AC) = S(A) on tripartite pure states.

    Both terms read one conditional-entropy minimum m (``_StateAnalysis.minimum``),
    so lhs = (m - S(AB) + S(A)) + (S(C) - m): the row checks S(AB) = S(C) on
    the pure ABC, up to the weight ``purify`` clips from a bipartite input,
    and does not test the optimizer.
    """
    return _check("monogamy", state, cfg)


def check_thm1(state: QState, cfg: OptimizerConfig | None = None) -> BoundCheck:
    """Purified discord bound D_A <= S(B) + E_F(BC).

    With only the convex-roof route available the right side is
    overestimated, which keeps the inequality a valid sanity bound; the
    saturation flag S(A) - S(B) = S(C) is reported on exact routes only.
    """
    return _check("thm1", state, cfg)


def check_cor1(state: QState, cfg: OptimizerConfig | None = None) -> BoundCheck:
    """D_A <= S(B) whenever E_F(BC) vanishes."""
    return _check("cor1", state, cfg)


def check_lindblad_lemma3(state: QState, cfg: OptimizerConfig | None = None) -> BoundCheck:
    """D_A <= J_A whenever E_F(BC) vanishes; surveyed otherwise, where a violation is expected physics."""
    return _check("lindblad", state, cfg)


def check_eq12(state: QState, cfg: OptimizerConfig | None = None) -> BoundCheck:
    """Strong-subadditivity saturation S(B|A) + S(B|C) = 0 on pure states."""
    return _check("eq12", state, cfg)


def check_thm2(state: QState, cfg: OptimizerConfig | None = None) -> BoundCheck:
    """|D_A - D_B| <= S(AB) when both E_F(AC) and E_F(BC) vanish.

    The difference then also equals S(A) - S(B), and the row holds only when
    that identity does too (``identity_residual``).
    """
    return _check("thm2", state, cfg)


def check_cor2(state: QState, cfg: OptimizerConfig | None = None) -> BoundCheck:
    """D_B - D_A <= S(AB) under Theorem 2's hypothesis; ``equality`` when D_B = J_B."""
    return _check("cor2", state, cfg)


def check_thm3(state: QState, cfg: OptimizerConfig | None = None) -> BoundCheck:
    """Subadditivity of the dephasing discord: D_BC <= D_B + D_C.

    Two assertions: (a) ``chain_residual`` = ``joint_value`` - ``chain_value``
    is at most 1e-9, as the joint search over all bases should reach what
    the chained product basis reaches, and (b) the aggregate bound on
    ``value``, the lower of the two, against D_B and D_C, solved together,
    at 2e-3.  When the joint step is certified, the chain is skipped
    (``correlations.ReDiscordDetail``): (a) then holds by proof and is not
    evaluated, the provenance carries ``"joint_route": "certified"``, and
    ``chain_value`` and ``chain_residual`` are NaN (``null`` in the CLI's
    JSON).  Across code changes ``chain_value`` reproduces only to about
    1e-8: the chain dephases in its first step's argbasis, which a flat
    minimum fixes only to about the square root of rounding.
    """
    a = _analysis(state, cfg, "thm3")
    if a.state.n_subsystems != 3:
        return _skipped("thm3", "inequality", "needs a tripartite state")
    re_b, re_c = _measured_minima(a.state, (1, 2), a.cfg, dephasing=True)
    detail = re_discord_detailed(a.state, (1, 2), a.cfg, first=re_b)
    chain_residual = detail.joint_value - detail.chain_value
    provenance = {
        "chain_value": detail.chain_value,
        "joint_value": detail.joint_value,
        "chain_residual": chain_residual,
    }
    if detail.certified:
        provenance["joint_route"] = CERTIFIED
    return _bound(
        "thm3", "inequality", detail.value, re_b.value + re_c.value, TOL_OPT2,
        provenance=provenance, residual_ok=not chain_residual > TOL_EXACT,
    )


def check_kw_pointwise(
    state: QState,
    cfg: OptimizerConfig | None = None,
    measurement: ProjectiveMeasurement | None = None,
    n_measurements: int = 10,
) -> BoundCheck:
    """Per-measurement identity tying the two tradeoff relations together.

    For a pure tripartite state and any projective measurement on A,
    [S(B|{E}) - S(B|A)] + [S(C) - S(C|{E})] = S(A) exactly; no optimizer is
    involved.  Evaluates the worst residual, in one pass, over
    ``n_measurements`` seeded random unitary bases (streams
    ``_MEASUREMENT_SALT + j`` of the seed), or over a single supplied
    measurement, which must be projective (else ``TypeError``) and measure A
    (else ``ValueError``).  The outcomes and conditional states are
    ``apply_measurement``'s (``measurement._outcomes``).  An input without a
    pure tripartite form (``_pure_abc``) skips the row, supplied measurement
    or not.  Without a supplied measurement, a non-integral
    ``n_measurements`` or one below 1 raises ``ValueError``: a row that
    checked nothing must not pass.
    """
    a = _analysis(state, cfg, "kw_pointwise")
    if _pure_abc(a):
        return _skipped("kw_pointwise", "identity", _pure_abc(a))
    abc = a.source("abc")
    d_a = abc.dims[0]
    if measurement is None:
        count = _integer("n_measurements", n_measurements, 1)
        bases = seeded_isometries(d_a, d_a, (a.cfg or DEFAULT_CONFIG).seed, _MEASUREMENT_SALT, count)
    elif not isinstance(measurement, ProjectiveMeasurement):
        raise TypeError("the pointwise identity requires a complete projective measurement")
    elif measurement.subsystem != 0:
        raise ValueError(f"the measurement must be on subsystem 0 (A), not {measurement.subsystem}")
    elif measurement.d != d_a:
        raise ValueError(f"measurement dimension {measurement.d} does not match subsystem dimension {d_a}")
    else:
        bases = measurement.basis[None]
    rest = abc.dims[1:]
    p, kept, cond = _outcomes(_conditional_blocks(_measured_view(abc, 0)[0], bases))
    per_outcome = cond.reshape((-1,) + rest + rest)
    s_meas = []
    for subscripts in ("kbcdc->kbd", "kbcbd->kcd"):
        reduced = np.einsum(subscripts, per_outcome)
        terms = np.zeros(kept.shape)
        terms[kept] = p * _entropy_bits(_kept_eigh(reduced)[0])
        s_meas.append(np.array([math.fsum(row) for row in terms.tolist()]))
    s_a = a.entropy("abc", (0,))
    s_c = a.entropy("abc", (2,))
    s_b_given_a = _s_cond(a, (0, 1), (0,))
    residuals = np.abs((s_meas[0] - s_b_given_a) + (s_c - s_meas[1]) - s_a)
    return _bound(
        "kw_pointwise", "identity", max([0.0] + residuals.tolist()), 0.0, TOL_EXACT,
        provenance={"n_measurements": len(bases)},
    )


RELATIONS: dict[str, Callable] = {
    "eq5": check_eq5,
    "koashi_winter": check_koashi_winter,
    "monogamy": check_monogamy,
    "eq8": check_eq8,
    "thm1": check_thm1,
    "cor1": check_cor1,
    "lindblad": check_lindblad_lemma3,
    "eq12": check_eq12,
    "thm2": check_thm2,
    "cor2": check_cor2,
    "thm3": check_thm3,
    "kw_pointwise": check_kw_pointwise,
}


@dataclass(frozen=True)
class SuiteReport:
    """Aggregated check rows for one family/relations batch.

    Every row's provenance carries the family spec, sample index, seed, and
    optimizer configuration, so any failure can be regenerated exactly.
    """

    suite_id: str
    spec: StateFamilySpec
    relations: tuple
    samples: int
    rows: tuple

    @property
    def n_pass(self) -> int:
        return sum(1 for r in self.rows if r.skipped is None and r.holds)

    @property
    def n_fail(self) -> int:
        return sum(1 for r in self.rows if r.skipped is None and r.holds is False)

    @property
    def n_skip(self) -> int:
        return sum(1 for r in self.rows if r.skipped is not None)

    @property
    def recorded_violations(self) -> int:
        return sum(1 for r in self.rows if r.skipped is not None and r.holds is False)

    @property
    def all_pass(self) -> bool:
        return self.n_fail == 0

    def relation_summary(self) -> dict:
        out: dict[str, dict] = {}
        for name in self.relations:
            part = replace(self, rows=tuple(r for r in self.rows if r.name == name))
            out[name] = {
                "pass": part.n_pass,
                "fail": part.n_fail,
                "skip": part.n_skip,
                "recorded_violations": part.recorded_violations,
            }
        return out

    def to_json(self) -> dict:
        return {
            "suite_id": self.suite_id,
            "family": self.spec.to_json(),
            "relations": list(self.relations),
            "samples": self.samples,
            "summary": self.relation_summary(),
            "rows": [asdict(r) for r in self.rows],
        }


def run_suite(
    spec: StateFamilySpec,
    relations: Iterable[str],
    samples: int,
    cfg: OptimizerConfig | None = None,
) -> SuiteReport:
    """Run the named relations over ``samples`` draws of a state family.

    Deterministic given the family seed and optimizer seed; unknown or
    repeated relation names and a non-integral or nonpositive ``samples``
    raise ``ValueError``.  Skipped rows (unmet hypotheses) never fail.
    """
    relations = tuple(relations)
    if not relations:
        raise ValueError("relations must be nonempty")
    samples = _integer("samples", samples, 1)
    unknown = [r for r in relations if r not in RELATIONS]
    if unknown:
        raise ValueError(f"unknown relations {unknown}; known: {sorted(RELATIONS)}")
    repeated = sorted({r for r in relations if relations.count(r) > 1})
    if repeated:
        raise ValueError(f"repeated relations {repeated}")
    cfg = cfg or DEFAULT_CONFIG
    # Serialized once per suite; each row gets its own shallow copy.
    family, optimizer = spec.to_json(), cfg.to_json()
    rows = []
    for i in range(samples):
        analysis = _StateAnalysis(spec.sample(i), cfg, relations)
        for name in relations:
            row = RELATIONS[name](analysis, cfg)
            # Every check returns a fresh provenance dict, which no one else holds yet.
            row.provenance.update(family=dict(family), sample=i, seed=spec.seed, optimizer=dict(optimizer))
            rows.append(row)
    suite_id = f"{spec.family}:{'+'.join(relations)}"
    return SuiteReport(suite_id, spec, relations, samples, tuple(rows))
