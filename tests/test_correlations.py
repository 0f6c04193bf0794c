"""Correlation measures: mutual information, J, D, distances, dephasing discord."""

import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from discordkit import (
    OptimizerConfig,
    QState,
    apply_measurement,
    avg_conditional_entropy,
    classical_correlation,
    correlation_report,
    dephase,
    discord,
    discord_distance,
    eof_2qubit,
    eof_upper,
    min_conditional_entropy,
    minimize_over_measurements,
    mutual_information,
    partial_trace,
    permute_subsystems,
    projective_from_params,
    purify,
    re_discord,
    re_discord_detailed,
    tensor,
    von_neumann_entropy,
)
from discordkit import _descent, cli, correlations, verify
from discordkit._descent import (
    AGREED,
    ARMIJO,
    CAP,
    CERTIFIED,
    CERTIFY_TOL,
    DENSE_MAX,
    FIRST_ANGLE,
    GRADIENT,
    GROW,
    MAX_STEP,
    MEMORY,
    NO_DECREASE,
    SHRINK,
    Descent,
    certify,
    coordinates,
    descend,
    objective_of,
    random_isometries,
    restart_stack,
    retract,
    seeded_isometries,
    solve,
    tangent,
)
from discordkit.correlations import (
    MEASUREMENT_CLASS_LABEL,
    _measurement_problem,
    _minimum_with_roof,
    _werner_coefficients,
)
from discordkit.entanglement import _roof
from discordkit.measurement import UNITARITY_TOL, _measured_view, n_measurement_params, unitary_from_params
from discordkit.states import (
    classical_quantum,
    example3_state,
    haar_random_pure,
    random_mixed,
    stream,
    werner_2qubit_example4,
    werner_qudit,
)

from conftest import (
    bell_diagonal,
    bell_state,
    calls_on,
    haar_unitary,
    measurement_objective,
    measurement_search,
    record_descends,
    record_eigensolves,
)

CFG = OptimizerConfig(restarts=8, seed=1)


def summary(run, tol):
    """``_descent.summary``'s best restart, spread and ``converged``."""
    best, spread, diagnostics = _descent.summary(run, tol)
    return best, spread, diagnostics["converged"]


def counts(run, tol):
    """``_descent.summary``'s counts: the restarts that stopped before the cap, and those at the best."""
    diagnostics = _descent.summary(run, tol)[2]
    return diagnostics["restarts_stopped"], diagnostics["restarts_at_best"]


EX4_ENTROPY = 0.5 * math.log2(6.0) + 0.5
EX4_INFO = 2.0 - EX4_ENTROPY
EX4_J = 1.0 + (1 / 3) * math.log2(1 / 3) + (2 / 3) * math.log2(2 / 3)
EX4_D = EX4_INFO - EX4_J


def _random_start(g: np.random.Generator, n_params: int) -> np.ndarray:
    """Givens angles in [0, pi/2) then phases in [0, 2 pi): a random ``unitary_from_params`` input."""
    half = n_params // 2
    thetas = g.uniform(0.0, np.pi / 2.0, size=half)
    phis = g.uniform(0.0, 2.0 * np.pi, size=half)
    return np.concatenate([thetas, phis])


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iter=0)
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            OptimizerConfig(tol=tol)


@pytest.mark.parametrize("field", ["restarts", "max_iter", "seed"])
def test_optimizer_config_rejects_non_integral_counts(field):
    # A float count is refused at construction, not deep in a search; an
    # integral numpy scalar is taken as the int it holds.
    for value in (2.5, 3.0, "3", None):
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(**{field: value})
    cfg = OptimizerConfig(**{field: np.int64(3)})
    assert getattr(cfg, field) == 3 and type(getattr(cfg, field)) is int


def test_mutual_information_values():
    prod = tensor(random_mixed((2,), 2, 1), random_mixed((2,), 2, 2))
    assert mutual_information(prod) == pytest.approx(0.0, abs=1e-9)
    assert mutual_information(bell_state()) == pytest.approx(2.0, abs=1e-9)
    assert mutual_information(werner_2qubit_example4()) == pytest.approx(EX4_INFO, abs=1e-12)


def test_mutual_information_partition_validation():
    state = random_mixed((2, 2, 2), 4, 3)
    assert mutual_information(state, ((0, 1), (2,))) >= -1e-9
    with pytest.raises(ValueError):
        mutual_information(state, ((0,), (1,)))
    with pytest.raises(ValueError):
        mutual_information(state, ((0, 1), (1, 2)))


def _brockett(a: np.ndarray, c: np.ndarray):
    """sum_k c_k <u_k|A|u_k> over the columns u_k of U, with its gradient 2 A U C: no column phase moves it."""

    def objective(u, _sizes):
        return np.einsum("k,rik,ij,rjk->r", c, u.conj(), a, u).real, 2.0 * (a @ u) * c

    return objective


def test_minimize_brockett_objective():
    # The diagonal of U^H A U is majorized by A's spectrum, so the minimum
    # pairs the ascending c with the descending eigenvalues, each column an
    # eigenvector of A up to its phase.
    a = np.array([[1.0, 0.3j, 0.2], [-0.3j, 0.4, 0.5 - 0.1j], [0.2, 0.5 + 0.1j, -0.7]])
    c = np.array([1.0, 2.0, 3.0])
    lam, vec = np.linalg.eigh(a)
    opt = minimize_over_measurements(_brockett(a, c), 3, OptimizerConfig(restarts=4, seed=2))
    assert opt.value == pytest.approx(float(c @ lam[::-1]), abs=1e-9)
    overlaps = np.abs(vec[:, ::-1].conj().T @ opt.argbasis.basis)
    np.testing.assert_allclose(overlaps, np.eye(3), rtol=0, atol=1e-6)


def test_every_reported_basis_is_unitary():
    # Reported bases skip ProjectiveMeasurement's unitarity check
    # (measurement._computed_measurement), so every route that reports one
    # is checked here: each basis is unitary within UNITARITY_TOL, read-only,
    # and labeled with an int subsystem.
    cfg = OptimizerConfig(restarts=4, seed=2)
    ab = random_mixed((2, 2), 3, 1)
    paired, _roof_result = _minimum_with_roof(ab, partial_trace(purify(ab).to_density(), (1, 2)), cfg)
    routes = {
        "certified pure": min_conditional_entropy(haar_random_pure((2, 3), 1).to_density(), 1, cfg),
        "certified Werner": min_conditional_entropy(werner_qudit(3, 0.3), 0, cfg),
        "certified Koashi-Winter": min_conditional_entropy(random_mixed((2, 2), 2, 1), 0, cfg),
        "searched": min_conditional_entropy(random_mixed((2, 3), 6, 1), 1, cfg),
        "stacked": correlations._measured_minima(random_mixed((2, 2), 4, 1), (0, 1), cfg, False),
        "paired": paired,
        "minimize_over_measurements": minimize_over_measurements(
            _brockett(np.diag([1.0, 0.4, -0.7]), np.array([1.0, 2.0, 3.0])), 3, cfg, np.int64(1)),
    }
    certified = {name: name.startswith("certified") for name in routes}
    for name, opts in routes.items():
        for opt in opts if isinstance(opts, list) else [opts]:
            assert opt.certified == certified[name], name
            b = opt.argbasis.basis
            assert float(np.max(np.abs(b.conj().T @ b - np.eye(len(b))))) <= UNITARITY_TOL, name
            assert not b.flags.writeable and type(opt.argbasis.subsystem) is int, name


@pytest.mark.parametrize("d", [2.5, 0, -1, "3"])
def test_minimize_over_measurements_rejects_a_non_dimension(d):
    # No d but an integer >= 1 names a U(d): none may be rounded to one or fail inside the search.
    with pytest.raises(ValueError, match="d must be"):
        minimize_over_measurements(_brockett(np.eye(2), np.ones(2)), d, OptimizerConfig(restarts=2))


def test_minimize_constant_objective_has_zero_spread():
    opt = minimize_over_measurements(
        lambda u, _sizes: (np.full(len(u), 1.5), np.zeros_like(u)), 2, OptimizerConfig(restarts=4, seed=2)
    )
    assert opt.value == 1.5
    assert opt.spread == 0.0
    assert opt.converged
    assert opt.iterations == (0,) * 4 and opt.evaluations == (1,) * 4
    assert opt.stop_reasons == ("gradient",) * 4


def test_bell_conditional_entropy_landscape_is_flat_zero():
    opt = min_conditional_entropy(bell_state(), 0, OptimizerConfig(restarts=6, seed=3))
    assert opt.value == pytest.approx(0.0, abs=1e-9)
    assert all(v <= 1e-9 for v in opt.restart_values)


@pytest.mark.parametrize("dims, rank", [((2, 3), 4), ((3, 2), 5), ((6, 2), 7)])
def test_batched_objectives_match_per_point_references(dims, rank):
    state = random_mixed(dims, rank, 31)
    d = dims[0]
    g = stream(31, d)
    params = np.stack([_random_start(g, n_measurement_params(d)) for _ in range(20)])
    cond, _ = measurement_objective(state, 0, dephasing=False)
    deph, _ = measurement_objective(state, 0, dephasing=True)
    s_state = von_neumann_entropy(state)
    ref_cond = [avg_conditional_entropy(apply_measurement(state, projective_from_params(d, p)))
                for p in params]
    ref_deph = [von_neumann_entropy(dephase(state, projective_from_params(d, p))) - s_state
                for p in params]
    v = np.swapaxes(unitary_from_params(d, params).conj(), -1, -2)  # the search's coordinate V = U^H
    np.testing.assert_allclose(cond(v, (len(v),))[0], ref_cond, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(deph(v, (len(v),))[0], ref_deph, rtol=0.0, atol=1e-12)


def _gradient_case(dims, rank, seed):
    if rank == 1:
        return haar_random_pure(dims, seed).to_density()
    return random_mixed(dims, rank, seed)


@pytest.mark.parametrize("dephasing", [False, True], ids=["conditional", "dephasing"])
@pytest.mark.parametrize(
    "dims, rank, measured",
    [((2, 2), 2, 0), ((2, 3), 1, 0), ((3, 2), 4, 0), ((2, 3), 1, 1), ((4, 2), 8, 0),
     ((6, 2), 5, 0), ((6, 2), 1, 0)],
    ids=["d2", "d2-pure", "d3", "d3-pure", "d4", "d6", "d6-pure"],
)
def test_objective_gradient_matches_central_differences(dims, rank, measured, dephasing):
    # Off the manifold too: df = Re tr(G^H dV) for any direction dV.
    state = _gradient_case(dims, rank, 23)
    objective, d = measurement_objective(state, measured, dephasing)
    g = stream(23, d)
    bases = unitary_from_params(d, np.stack([_random_start(g, n_measurement_params(d)) for _ in range(3)]))
    sizes = (len(bases),)
    _values, grads = objective(bases, sizes)
    h = 1e-5
    for _ in range(4):
        e = g.normal(size=bases.shape) + 1j * g.normal(size=bases.shape)
        e /= np.linalg.norm(e, axis=(-2, -1), keepdims=True)
        central = (objective(bases + h * e, sizes)[0] - objective(bases - h * e, sizes)[0]) / (2.0 * h)
        analytic = np.einsum("rij,rij->r", grads.conj(), e).real
        np.testing.assert_allclose(analytic, central, rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("dephasing", [False, True], ids=["conditional", "dephasing"])
def test_werner_objective_is_certified_flat(dephasing):
    # A U (x) U-invariant state has a basis-independent objective, so its
    # Riemannian gradient vanishes at every basis: a certificate of flatness.
    objective, d = measurement_objective(werner_qudit(3, 0.3), 0, dephasing)
    u = np.eye(3, dtype=complex)[None]
    _value, grad = objective(u, (1,))
    assert np.linalg.norm(tangent(u, grad)) < 1e-10


def test_descend_stops_on_an_exact_zero_gradient_without_warnings():
    # The first trial lands where the value and the gradient are exactly zero,
    # as on an exactly separable roof ensemble: the next direction there is
    # zero, and neither its slope nor the step cap may divide by its norm.
    def objective(x, _sizes):
        return np.zeros(len(x)), np.zeros_like(x)

    start = np.eye(2, dtype=complex)[None]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run = descend(objective, start, np.ones(1), np.array([[[0.0, 1.0], [-1.0, 0.0]]]), 10)
    assert run.reasons == ("gradient",)
    assert run.iterations == (1,) and run.values[0] == 0.0


def _use_model(monkeypatch, model):
    # Every stack takes the dense model ("dense") or the L-BFGS one ("lbfgs").
    monkeypatch.setattr(_descent, "DENSE_MAX", math.inf if model == "dense" else 0)


def _on_both_models(cases, ids):
    # Each case on the dense model under its own id and on L-BFGS under
    # id-lbfgs; ``model`` is the last argument.
    return [pytest.param(*case, model, id=case_id if model == "dense" else f"{case_id}-lbfgs")
            for case, case_id in zip(cases, ids) for model in ("dense", "lbfgs")]


@pytest.mark.parametrize(
    "kind, level, pinned, model",
    _on_both_models(
        [("value", 0.5, {"dense": (CAP, 50, 414), "lbfgs": (CAP, 50, 364)}),
         ("value", 0.0, {"dense": (NO_DECREASE, 0, 1), "lbfgs": (NO_DECREASE, 0, 1)}),
         ("gradient", 0.5, {"dense": (NO_DECREASE, 2, 3), "lbfgs": (NO_DECREASE, 2, 3)}),
         ("gradient", 0.0, {"dense": (NO_DECREASE, 0, 1), "lbfgs": (NO_DECREASE, 0, 1)})],
        ["nan-value-later", "nan-value-at-start", "nan-gradient-later", "nan-gradient-at-start"],
    ),
)
def test_descend_confines_a_nan_to_its_restart(kind, level, pinned, model, monkeypatch):
    # The Rayleigh quotient of diag(1, 2, 0) on unit vectors of C^3, NaN
    # (in the value or the gradient) where |x_2|^2 > level.  Restart 1 heads
    # for e_2 and meets the NaN region after a few calls, or starts in it;
    # restarts 0 and 2 stay in span(e_0, e_1), where x_2 is exactly 0.
    diag = np.array([1.0, 2.0, 0.0])

    def objective(x, _sizes=None):
        values = np.einsum("rip,i,rip->r", x.conj(), diag, x).real
        grads = 2.0 * diag[:, None] * x
        bad = np.abs(x[:, 2, 0]) ** 2 > level
        if kind == "value":
            values[bad] = np.nan
        else:
            grads[bad] = np.nan
        return values, grads

    _use_model(monkeypatch, model)
    starts = np.array([[0.3, 1.0, 0.0], [0.2, 1.0, 0.3j], [0.6, 1.0j, 0.0]], dtype=complex)[:, :, None]
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run = descend(objective, starts, *objective(starts), 50)
        alone = [descend(objective, starts[k : k + 1], *(v[k : k + 1] for v in objective(starts)), 50)
                 for k in range(3)]
    assert (run.reasons[1], run.iterations[1], run.evaluations[1]) == pinned[model]
    for k in (0, 2):
        assert (run.reasons[k], run.iterations[k], run.evaluations[k]) == (
            alone[k].reasons[0], alone[k].iterations[0], alone[k].evaluations[0])
        assert run.values[k] == alone[k].values[0] and np.array_equal(run.x[k], alone[k].x[0])


@pytest.mark.parametrize("n, p", [(4, 1), (6, 2), (6, 3), (9, 4)])
def test_descend_reaches_the_rayleigh_minimum_on_the_stiefel_manifold(n, p):
    # The minimum of tr(X^H A X) over n x p isometries is the sum of the p
    # smallest eigenvalues of A (Ky Fan): an exact oracle for the optimizer.
    g = np.random.default_rng(10 * n + p)
    h = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
    a = (h + h.conj().T) / 2.0

    def objective(x, _sizes=None):
        return np.einsum("rip,ij,rjp->r", x.conj(), a, x).real, 2.0 * a @ x

    starts, _ = np.linalg.qr(g.normal(size=(4, n, p)) + 1j * g.normal(size=(4, n, p)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run = descend(objective, starts, *objective(starts), 500, (1,) * 4)  # each its own problem: never cut
    assert CAP not in run.reasons
    np.testing.assert_allclose(run.values, np.linalg.eigvalsh(a)[:p].sum(), rtol=0, atol=1e-12)


def _rayleigh_on_c3(x, _sizes=None):
    # tr(X^H A X) for A = diag(1, 2, 0) on unit vectors of C^3: e_0 is a
    # stationary point of value 1, and the minimum 0 lies at e_2.
    a = np.diag([1.0, 2.0, 0.0]).astype(complex)
    return np.einsum("rip,ij,rjp->r", x.conj(), a, x).real, 2.0 * a @ x


@pytest.mark.parametrize("last, cut", [((1.0, 0.0, 1.0), False), ((1.0, 1.0, 0.0), True)])
def test_the_agreement_cut_spares_a_live_restart_below_the_agreeing_values(last, cut):
    # Restarts 0-2 start at the stationary e_0 (up to a phase), so they stop
    # on the gradient at once with value 1, and agree.  Restart 3 is live:
    # at (e_0 + e_2) / sqrt(2), value 1/2, it is below them and runs on to
    # the minimum 0 as it would alone; at (e_0 + e_1) / sqrt(2), value 3/2,
    # it is cut at its start with the reason AGREED.
    x = np.zeros((4, 3, 1), dtype=complex)
    x[:3, 0, 0] = [1.0, 1j, -1.0]
    x[3, :, 0] = np.array(last) / np.sqrt(2.0)
    run = descend(_rayleigh_on_c3, x, *_rayleigh_on_c3(x), 500)
    alone = descend(_rayleigh_on_c3, x[3:], *_rayleigh_on_c3(x[3:]), 500)
    assert run.reasons[:3] == (GRADIENT,) * 3 and run.values[:3].tolist() == [1.0] * 3
    if cut:
        assert (run.reasons[3], run.iterations[3], run.evaluations[3]) == (AGREED, 0, 1)
        assert run.x[3].tobytes() == x[3].tobytes() and run.values[3] == _rayleigh_on_c3(x[3:])[0][0]
        # An agreed restart counts as stopped, but not in the spread.
        assert summary(run, 1e-9) == (0, 0.0, True) and counts(run, 1e-9) == (4, 3)
    else:
        assert run.reasons[3] != AGREED and run.values[3] < 1e-12
        assert run.x[3].tobytes() == alone.x[0].tobytes() and run.iterations[3] == alone.iterations[0]
        assert summary(run, 1e-9) == (3, 1.0 - run.values[3], False) and counts(run, 1e-9) == (4, 1)


def test_results_count_the_restarts_that_stopped_and_those_at_the_best():
    # Both sides of a (2,3) rank-6 report and a (3,2) rank-3 roof search and
    # are cut; the two counts read the per-restart reasons and values.
    cfg = OptimizerConfig(seed=1)
    report = correlation_report(random_mixed((2, 3), 6, 1), cfg)
    for side in (report.diagnostics[k] for k in ("measured_a", "measured_b")):
        values, reasons = side["restart_values"], side["stop_reasons"]
        assert AGREED in reasons and CAP not in reasons
        assert side["restarts_stopped"] == len(values)
        assert side["restarts_at_best"] == sum(v - min(values) <= 10.0 * cfg.tol for v in values) > 0
    roof = eof_upper(random_mixed((3, 2), 3, 1))
    assert AGREED in roof.stop_reasons
    assert roof.restarts_stopped == len(roof.stop_reasons) - roof.stop_reasons.count(CAP)
    assert 1 <= roof.restarts_at_best <= len(roof.stop_reasons)


def _x_states(count):
    """``count`` seeded two-qubit X states, with coherences at 0.3-1 of their positivity bound."""
    rng = np.random.default_rng(20100405)
    for _ in range(count):
        a, b, c, d = rng.dirichlet(np.ones(4))
        w = np.sqrt(a * d) * rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
        z = np.sqrt(b * c) * rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
        yield QState((2, 2), np.array([[a, 0, 0, w], [0, b, z, 0], [0, np.conj(z), c, 0], [np.conj(w), 0, 0, d]]))


@pytest.mark.parametrize("population", ["3x3-rank2", "x-states"])
def test_the_agreement_cut_never_misses_the_best_restart(population):
    # On (3,3) rank 2 a first wave of restarts missed the best value, and on
    # X states the identity start is a stationary point above it.  The cut
    # search's best value stays within 1e-9 of the best of its restarts each
    # run to its own stop: as one-restart problems of one stack, which the
    # cut never ends.
    states = ([random_mixed((3, 3), 2, 1, i) for i in range(24)] if population == "3x3-rank2"
              else list(_x_states(24)))
    cfg, cuts = OptimizerConfig(), 0
    for state in states:
        for measured in (0, 1):
            problem = replace(_measurement_problem(state, measured, cfg, False), candidate=None)
            x = restart_stack(problem.first, cfg)
            sizes = (1,) * cfg.restarts
            objective = objective_of([problem] * cfg.restarts)
            uncut = descend(objective, x, *objective(x, sizes), cfg.max_iter, sizes)
            assert AGREED not in uncut.reasons
            searched = measurement_search(state, measured, cfg, False)
            cuts += AGREED in searched.stop_reasons
            assert abs(searched.value - float(np.nanmin(uncut.values))) <= 1e-9
    assert cuts >= len(states)


def _plain_lbfgs(objective, x, n_calls):
    # One restart of ``descend`` written on the vectors themselves: the
    # two-loop recursion over the stored (s, y), which skips a pair with
    # s.y <= 0.  Returns its trial points, the number of pairs stored at each
    # skip, and the value at each accepted step.
    f, e = objective(x)
    g = tangent(x, e)
    d, step, pairs, trials, skips, values = -g, FIRST_ANGLE / np.linalg.norm(g), [], [], [], [f[0]]
    for _ in range(n_calls):
        slope = np.vdot(g, d).real
        trial = retract(x, step * d)
        trials.append(trial)
        f_t, e_t = objective(trial)
        if not f_t[0] <= f[0] + ARMIJO * step * slope:
            curv = f_t[0] - f[0] - step * slope
            fit = -slope * step**2 / (2.0 * curv) if curv > 0.0 else 0.0
            step = min(max(fit, SHRINK[0] * step), SHRINK[1] * step)
            continue
        g_t = tangent(trial, e_t)
        s, y = step * d, g_t - g
        if np.vdot(s, y).real > 0.0:
            pairs = (pairs + [(s, y)])[-MEMORY:]
        else:
            skips.append(len(pairs))
        x, f, g = trial, f_t, g_t
        values.append(f[0])
        q, alphas = g, []
        for s_i, y_i in reversed(pairs):
            alphas.append(np.vdot(s_i, q).real / np.vdot(s_i, y_i).real)
            q = q - alphas[-1] * y_i
        if pairs:
            s_n, y_n = pairs[-1]
            r = np.vdot(s_n, y_n).real / np.vdot(y_n, y_n).real * q
            for (s_i, y_i), alpha in zip(pairs, reversed(alphas)):
                r = r + (alpha - np.vdot(y_i, r).real / np.vdot(s_i, y_i).real) * s_i
            d, step = tangent(x, -r), 1.0
        if not pairs or not np.vdot(g, d).real < 0.0:
            d, step = -g, GROW * step
        step = min(step, MAX_STEP / np.linalg.norm(d))
    return trials, skips, values


def _plain_bfgs(objective, x, n_calls):
    # One restart of ``descend`` on the dense model, written on the vectors
    # themselves: H = (s.y / y.y) I at the first stored pair, then the BFGS
    # update in product form, skipping a pair with s.y <= 0.  Returns its
    # trial points, whether H had started at each skip, and the value at
    # each accepted step.
    f, e = objective(x)
    g = tangent(x, e)
    d, step, h, trials, skips, values = -g, FIRST_ANGLE / np.linalg.norm(g), None, [], [], [f[0]]
    for _ in range(n_calls):
        slope = np.vdot(g, d).real
        trial = retract(x, step * d)
        trials.append(trial)
        f_t, e_t = objective(trial)
        if not f_t[0] <= f[0] + ARMIJO * step * slope:
            curv = f_t[0] - f[0] - step * slope
            fit = -slope * step**2 / (2.0 * curv) if curv > 0.0 else 0.0
            step = min(max(fit, SHRINK[0] * step), SHRINK[1] * step)
            continue
        g_t = tangent(trial, e_t)
        s, y = (step * d).ravel().view(float), (g_t - g).ravel().view(float)
        if s @ y > 0.0:
            if h is None:
                h = s @ y / (y @ y) * np.eye(len(s))
            a = np.eye(len(s)) - np.outer(s, y) / (s @ y)
            h = a @ h @ a.T + np.outer(s, s) / (s @ y)
        else:
            skips.append(h is not None)
        x, f, g = trial, f_t, g_t
        values.append(f[0])
        if h is not None:
            d, step = tangent(x, -(h @ g.ravel().view(float)).view(complex).reshape(g.shape)), 1.0
        if h is None or not np.vdot(g, d).real < 0.0:
            d, step = -g, GROW * step
        step = min(step, MAX_STEP / np.linalg.norm(d))
    return trials, skips, values


def _quartic(x, _sizes=None):
    # -sum_j |x_j|^4 + x^H A x on unit vectors: non-convex, with saddles.
    a = np.diag(0.3 * np.arange(x.shape[1]))
    value = -np.sum(np.abs(x) ** 4, axis=(1, 2)) + np.einsum("rip,ij,rjp->r", x.conj(), a, x).real
    return value, -4.0 * np.abs(x) ** 2 * x + 2.0 * a @ x


def _quartic_start(seed, n):
    g = np.random.default_rng(seed)
    x0 = g.normal(size=(1, n, 1)) + 1j * g.normal(size=(1, n, 1))
    return x0 / np.linalg.norm(x0)


def _recorded_descent(x0, max_iter):
    calls = []

    def recording(x, sizes):
        calls.append(x.copy())
        return _quartic(x, sizes)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run = descend(recording, x0, *_quartic(x0), max_iter)
    return run, np.array(calls)


@pytest.mark.parametrize("seed, model", _on_both_models([(7,), (21,), (31,)], ["7", "21", "31"]))
def test_descend_skips_pairs_of_negative_curvature(seed, model, monkeypatch):
    # On these paths some accepted step has s.y <= 0 after a pair is stored.
    # Storing it would change the next direction, so the trial points of
    # ``descend`` must be those of the plain recursion of its model, which
    # skips it; every accepted step still lowers the value.
    _use_model(monkeypatch, model)
    x0 = _quartic_start(seed, 5)
    run, calls = _recorded_descent(x0, 200)
    plain = _plain_bfgs if model == "dense" else _plain_lbfgs
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trials, skips, values = plain(_quartic, x0, len(calls))
    assert run.reasons != (CAP,) and any(stored > 0 for stored in skips)
    np.testing.assert_allclose(calls, np.array(trials), rtol=0, atol=1e-12)
    assert len(values) == run.iterations[0] + 1
    assert values[-1] == pytest.approx(run.values[0], abs=1e-12)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_descend_keeps_a_dense_inverse_hessian_up_to_dense_max():
    # A (1, n, 1) stack has D = 2 n reals: n = DENSE_MAX / 2 follows the
    # plain dense BFGS, and the next size, D = DENSE_MAX + 2, plain L-BFGS.
    # The two part within a few steps, so each run matches one of them only.
    for n, plain, other in ((DENSE_MAX // 2, _plain_bfgs, _plain_lbfgs),
                            (DENSE_MAX // 2 + 1, _plain_lbfgs, _plain_bfgs)):
        x0 = _quartic_start(n, n)
        run, calls = _recorded_descent(x0, 30)
        np.testing.assert_allclose(calls, np.array(plain(_quartic, x0, len(calls))[0]), rtol=0, atol=1e-12)
        assert np.abs(calls - np.array(other(_quartic, x0, len(calls))[0])).max() > 1e-6


@pytest.mark.parametrize("shape", [(3, 16, 4), (3, 9, 3), (16, 2, 2), (16, 4, 4), (4, 6, 6)])
def test_retract_is_the_householder_q_factor(shape):
    # Cholesky QR gives the QR factor with a positive diagonal in R, which is
    # unique: Householder QR with its R diagonal turned positive.
    g = np.random.default_rng(sum(shape))
    x, _ = np.linalg.qr(g.normal(size=shape) + 1j * g.normal(size=shape))
    for norm in (1e-6, 0.1, 1.0, 3.0, 10.0):
        v = tangent(x, g.normal(size=shape) + 1j * g.normal(size=shape))
        v *= norm / np.linalg.norm(v, axis=(-2, -1), keepdims=True)
        q = retract(x, v)
        q_ref, r_ref = np.linalg.qr(x + v)
        diag = np.diagonal(r_ref, axis1=-2, axis2=-1)
        np.testing.assert_allclose(q, q_ref * (diag / np.abs(diag))[..., None, :], rtol=0, atol=1e-13)
        np.testing.assert_allclose(np.swapaxes(q.conj(), -1, -2) @ q - np.eye(shape[-1]), 0.0, rtol=0, atol=1e-13)


@pytest.mark.parametrize("dephasing", [False, True], ids=["conditional", "dephasing"])
@pytest.mark.parametrize("d", [2, 3, 6])
def test_cayley_chart_slope_is_the_derivative_along_its_step(d, dephasing):
    # On U(d) a tangent vector at V is Omega V, Omega skew-Hermitian with a
    # zero diagonal, in d^2 - d coordinates u with |u| = |Omega|_F.  The
    # chart reads its gradient g with no projection, so <g, u> must be the
    # derivative of the measurement objective along the Cayley step V(t) =
    # Cay(t Omega) V, and |V(t) - V| / t must tend to |u|.
    objective, _d = measurement_objective(random_mixed((d, 2), 2 * d, 5), 0, dephasing)
    chart, g = _descent._Cayley(d), np.random.default_rng(d)
    v = haar_unitary(g, d)[None]
    u = g.normal(size=(1, d * d - d))
    slope = chart.gradient(v, objective(v, (1,))[1])[0] @ u[0]
    h = 1e-5
    ahead, behind = (chart.move(v, [t], u)[0] for t in (h, -h))
    central = (objective(ahead, (1,))[0][0] - objective(behind, (1,))[0][0]) / (2.0 * h)
    assert abs(central - slope) <= 1e-8 * max(1.0, abs(slope))
    assert np.linalg.norm(ahead - v) / h == pytest.approx(np.linalg.norm(u), rel=1e-4)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_cayley_steps_keep_every_restart_unitary(d):
    # Cayley steps never re-orthonormalize: each is unitary to rounding, so
    # the drift must stay at rounding, over a whole search and over 1000
    # further steps of norm up to MAX_STEP from where its restarts stopped.
    cfg = OptimizerConfig(seed=3, max_iter=3000)
    problem = replace(_measurement_problem(random_mixed((d, 2), 2 * d, 7), 0, cfg, False), candidate=None)
    [run] = solve([problem])
    chart, g, x = _descent._Cayley(d), np.random.default_rng(d), run.x

    def drift(v):
        return np.abs(np.swapaxes(v.conj(), 1, 2) @ v - np.eye(d)).max()

    assert drift(x) <= 1e-13
    for _ in range(1000):
        u = g.normal(size=(len(x), d * d - d))
        u *= g.uniform(0.0, MAX_STEP, size=(len(x), 1)) / np.linalg.norm(u, axis=1, keepdims=True)
        x = chart.move(x, [1.0] * len(x), u)[0]
    assert drift(x) <= 1e-13


@pytest.mark.parametrize("d", [2, 3, 6, 8])
def test_descend_reaches_the_brockett_minimum_on_u_d(d):
    # f(V) = tr(C V A V^H), C = diag(c): a weighted sum of <v_k|A|v_k> over
    # the rows of V, so row phases leave it unchanged, as the chart on U(d)
    # assumes.  The diagonal of V A V^H is majorized by A's spectrum, so
    # the minimum pairs the ascending c with the descending eigenvalues.
    g = np.random.default_rng(100 + d)
    h = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    a, c = (h + h.conj().T) / 2.0, np.arange(1.0, d + 1.0)

    def objective(v, _sizes=None):
        return np.einsum("k,rki,ij,rkj->r", c, v, a, v.conj()).real, 2.0 * c[:, None] * (v @ a)

    starts = np.stack([haar_unitary(g, d) for _ in range(4)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run = descend(objective, starts, *objective(starts), 1000, (1,) * 4)  # each its own problem: never cut
    assert CAP not in run.reasons
    np.testing.assert_allclose(run.values, c @ np.linalg.eigvalsh(a)[::-1], rtol=0, atol=1e-11)


def _run(values, reasons):
    n = len(values)
    return Descent(np.zeros((n, 1, 1)), np.array(values, dtype=float), (1,) * n, (2,) * n, tuple(reasons))


def test_summary_converges_only_when_most_restarts_stopped():
    tol = 1e-9
    # One stopped restart has spread 0, but 15 capped ones outvote it.
    assert summary(_run([0.1] * 16, [CAP] * 15 + [NO_DECREASE]), tol) == (0, 0.0, False)
    assert summary(_run([0.3], [GRADIENT]), tol) == (0, 0.0, True)
    agreeing = _run([0.2 + 1e-9, 0.2, 0.2 + 5e-9], [NO_DECREASE, GRADIENT, NO_DECREASE])
    best, spread, converged = summary(agreeing, tol)
    assert best == 1 and spread == pytest.approx(5e-9) and converged
    # Half is not a majority; all capped has no spread.
    assert summary(_run([0.2, 0.2], [CAP, GRADIENT]), tol)[2] is False
    assert summary(_run([0.2, 0.1], [CAP, CAP]), tol) == (1, math.inf, False)
    # Stopped restarts that disagree do not converge.
    assert summary(_run([0.2, 0.3, 0.2], [GRADIENT] * 3), tol)[2] is False


def test_summary_passes_over_nan_values():
    # A NaN restart is never the best, and wherever it sits a NaN stopped
    # value makes the spread NaN and the run unconverged; with every value
    # NaN, restart 0 stays the best.
    tol = 1e-9
    for values in ([0.7, math.nan, 0.5], [math.nan, 0.7, 0.5], [0.7, 0.5, math.nan]):
        best, spread, converged = summary(_run(values, [GRADIENT] * 3), tol)
        assert values[best] == 0.5 and math.isnan(spread) and converged is False
    assert summary(_run([0.5, math.nan, 0.5], [GRADIENT, CAP, GRADIENT]), tol) == (0, 0.0, True)
    best, spread, converged = summary(_run([math.nan] * 3, [NO_DECREASE] * 3), tol)
    assert best == 0 and math.isnan(spread) and converged is False
    assert summary(_run([math.nan, 0.2], [CAP, CAP]), tol) == (1, math.inf, False)


def test_certify_is_a_one_restart_run_only_at_the_bound():
    # One evaluation of the candidate: within CERTIFY_TOL of the bound it is
    # a finished run that summary scores as converged with spread 0; just
    # above the bound, or NaN, it is no run at all.
    x = np.eye(2, dtype=complex)
    calls = []

    def scoring(value):
        def objective(stack, sizes):
            calls.append((stack.shape, sizes))
            return np.full(len(stack), value), np.zeros_like(stack)
        return objective

    run = certify(scoring(0.25 + 0.5 * CERTIFY_TOL), x, 0.25)
    assert calls == [((1, 2, 2), (1,))]
    assert run.reasons == (CERTIFIED,) and run.iterations == (0,) and run.evaluations == (1,)
    assert run.x.shape == (1, 2, 2) and run.values.tolist() == [0.25 + 0.5 * CERTIFY_TOL]
    assert summary(run, 1e-9) == (0, 0.0, True)
    assert certify(scoring(0.25 + 2.0 * CERTIFY_TOL), x, 0.25) is None
    assert certify(scoring(math.nan), x, 0.25) is None


@pytest.mark.parametrize(
    "dims, rank, measured, dephasing, max_iter, model",
    _on_both_models(
        [((2, 2), 4, 0, False, 2000), ((2, 3), 6, 1, False, 2000), ((4, 2), 8, 0, True, 2000),
         ((2, 2), 4, 0, False, {"dense": 6, "lbfgs": 7})],
        ["2x2-rank4", "2x3-rank6-B", "4x2-rank8-dephasing", "2x2-rank4-capped"],
    ),
)
def test_lockstep_restarts_equal_restarts_run_alone(dims, rank, measured, dephasing, max_iter, model, monkeypatch):
    # Each restart of the measurement search, replayed alone in V = U^H
    # from the start the search scored, follows the same path bit for bit:
    # to its own stop, or, when the agreement cut ended it, to the iteration
    # it was cut at.  Every case is cut.  At 6 iterations (dense) 11 of the
    # 16 restarts stop at the cap, and at 7 (L-BFGS) 4 do; the rest stop
    # before it, so some rounds hold restarts that reach the cap beside
    # others that backtrack or take a step.
    _use_model(monkeypatch, model)
    max_iter = max_iter[model] if isinstance(max_iter, dict) else max_iter
    state = random_mixed(dims, rank, 11)
    objective, d = measurement_objective(state, measured, dephasing)
    cfg = OptimizerConfig(seed=2, max_iter=max_iter)
    calls = []

    def recording(v, sizes):
        calls.append(v.copy())
        return objective(v, sizes)

    monkeypatch.setattr(_descent, "objective_of", lambda problems: recording)
    runs, descend_alone = [], _descent.descend
    monkeypatch.setattr(_descent, "descend", lambda *args: runs.append(descend_alone(*args)) or runs[-1])
    opt = measurement_search(state, measured, cfg, dephasing)
    # The first call scores the starts, and every later call is one
    # lockstep round.
    starts = calls[0]
    assert starts.shape == (cfg.restarts, d, d) and starts[0].tobytes() == np.eye(d, dtype=complex).tobytes()
    assert len(calls) == max(opt.evaluations)
    values, grads = objective(starts, (len(starts),))
    cut = [why == AGREED for why in opt.stop_reasons]
    alone = [descend(objective, starts[k : k + 1], values[k : k + 1], grads[k : k + 1],
                     opt.iterations[k] if cut[k] else cfg.max_iter)
             for k in range(cfg.restarts)]
    kept = [k for k in range(cfg.restarts) if not cut[k]]
    assert [opt.iterations[k] for k in kept] == [alone[k].iterations[0] for k in kept]
    assert [opt.evaluations[k] for k in kept] == [alone[k].evaluations[0] for k in kept]
    assert [opt.stop_reasons[k] for k in kept] == [alone[k].reasons[0] for k in kept]
    assert opt.stop_reasons.count(CAP) == (0 if max_iter == 2000 else 11 if model == "dense" else 4)
    assert AGREED in opt.stop_reasons
    assert len(set(opt.iterations)) > 1
    assert opt.restart_values == tuple(float(run.values[0]) for run in alone)
    assert all(runs[0].x[k].tobytes() == alone[k].x[0].tobytes() for k in range(cfg.restarts))
    best = int(np.argmin([run.values[0] for run in alone]))
    assert opt.value == alone[best].values[0]
    assert opt.argbasis.basis.tobytes() == alone[best].x[0].conj().T.tobytes()


@pytest.mark.parametrize(
    "dims, rank, restarts, seeds, model",
    [((2, 2), 4, 16, (9, 10), "dense"), ((9, 2), 6, 4, (3, 4), "lbfgs")],
    ids=["d2-dense", "d9-lbfgs"],
)
def test_stacked_searches_equal_searches_run_alone(dims, rank, restarts, seeds, model, monkeypatch):
    # Two problems of one key, each with its own restart 0, in one descend:
    # every restart follows the path it takes alone, bit for bit.  The
    # problems stop in different rounds, so one block runs on after the
    # other has emptied.  U(9) has 72 coordinates, the least d above
    # DENSE_MAX.
    d = dims[0]
    assert (coordinates(d, d) <= DENSE_MAX) == (model == "dense")
    cfg = OptimizerConfig(seed=2, restarts=restarts)
    firsts = (np.eye(d, dtype=complex), random_isometries([stream(9, 0)], d, d)[0])
    problems = [replace(_measurement_problem(random_mixed(dims, rank, seed), 0, cfg, False), first=first)
                for seed, first in zip(seeds, firsts)]
    sizes, objective_of = [], _descent.objective_of

    def recording(stack):
        objective = objective_of(stack)
        return lambda v, live: sizes.append(live) or objective(v, live)

    monkeypatch.setattr(_descent, "objective_of", recording)
    stacked = solve(problems)
    assert sizes[0] == (restarts, restarts)
    assert any(0 in live and sum(live) > 0 for live in sizes)
    assert max(stacked[0].evaluations) != max(stacked[1].evaluations)
    for run, problem in zip(stacked, problems):
        [alone] = solve([problem])
        assert run.x.tobytes() == alone.x.tobytes()
        assert run.values.tobytes() == alone.values.tobytes()
        assert (run.iterations, run.evaluations, run.reasons) == (alone.iterations, alone.evaluations, alone.reasons)


def _bc_of(state):
    # The BC reduction of the canonical purification ABC of a bipartite state.
    return partial_trace(purify(state).to_density(), (1, 2))


@pytest.mark.parametrize("dims, rank", [((2, 2), 3), ((2, 3), 4), ((3, 2), 4)], ids=["2x2r3", "2x3r4", "3x2r4"])
def test_paired_problems_equal_their_padded_searches_run_alone(dims, rank, monkeypatch):
    # The D_A problem of AB, on V = U^H, and the convex roof of BC share one
    # key, so they run as two blocks of one descend, the D_A problem padded
    # with zero rows to the roof's height.  Each equals its search alone at
    # that height, bit for bit, and the padded rows of every D_A restart
    # stay exactly zero.  Some pairs stop in different rounds, so one block
    # runs on after the other has emptied.
    cfg, rounds_differ = OptimizerConfig(seed=1), False
    descends = record_descends(monkeypatch)
    for i in range(4):
        ab = random_mixed(dims, rank, 1, i)
        minimum, roof = _measurement_problem(ab, 0, cfg, False), _roof(_bc_of(ab), None, cfg)[0]
        assert minimum.candidate is None and roof.candidate is None
        assert minimum.rows.shape == roof.rows.shape and minimum.da == roof.da
        descends.clear()
        paired = solve([minimum, roof])
        assert descends == [(cfg.restarts, cfg.restarts)]
        # The D_A search alone on V, padded: restart 0 is the canonical basis
        # and restarts 1, 2, ... are its random unitaries.
        d, height = len(minimum.first), len(roof.first)
        x = np.zeros((cfg.restarts, height, d), dtype=complex)
        x[:, :d] = restart_stack(minimum.first, cfg)
        objective = objective_of([minimum])
        padded = descend(objective, x, *objective(x, (cfg.restarts,)), cfg.max_iter)
        assert not padded.x[:, d:].any()
        for run, solo in zip(paired, (replace(padded, x=padded.x[:, :d]), solve([roof])[0])):
            assert run.x.tobytes() == solo.x.tobytes()
            assert run.values.tobytes() == solo.values.tobytes()
            assert (run.iterations, run.evaluations, run.reasons) == (solo.iterations, solo.evaluations, solo.reasons)
        rounds_differ |= max(paired[0].evaluations) != max(paired[1].evaluations)
    assert rounds_differ


def _roof_fields(roof):
    witness = roof.decomposition
    return (roof.value, roof.tag, roof.crosscheck_gap, roof.converged, roof.restart_spread, roof.iterations,
            roof.evaluations, roof.stop_reasons, witness.weights.tobytes(), witness.vectors.tobytes(),
            witness.isometry.tobytes())


def _opt_fields(opt):
    return (opt.value, opt.argbasis.subsystem, opt.argbasis.basis.tobytes(), opt.diagnostics())


@pytest.mark.parametrize(
    "dims, rank", [((2, 2), 3), ((2, 2), 4), ((2, 3), 3), ((3, 2), 4)], ids=["2x2r3", "2x2r4", "2x3r3", "3x2r4"]
)
def test_minimum_with_roof_equals_each_computed_alone(dims, rank, monkeypatch):
    # One search, a descend of two blocks, gives eof_upper's roof of BC bit
    # for bit, witness and diagnostics included, and
    # min_conditional_entropy's D_A minimum of AB to rounding, with a basis
    # on A whose value is that minimum.
    descends = record_descends(monkeypatch)
    for i in range(3):
        ab, cfg = random_mixed(dims, rank, 1, i), OptimizerConfig(seed=i)
        bc = _bc_of(ab)
        descends.clear()
        opt, roof = _minimum_with_roof(ab, bc, cfg)
        assert descends == [(cfg.restarts, cfg.restarts)]
        assert _roof_fields(roof) == _roof_fields(eof_upper(bc, cfg=cfg))
        alone = min_conditional_entropy(ab, 0, cfg)
        assert abs(opt.value - alone.value) <= 1e-12
        assert opt.argbasis.subsystem == 0 and CERTIFIED not in opt.stop_reasons
        assert len(opt.restart_values) == cfg.restarts
        objective, _d = measurement_objective(ab, 0, False)
        assert objective(opt.argbasis.basis.conj().T[None], (1,))[0][0] == pytest.approx(opt.value, abs=1e-14)


def test_minimum_with_roof_runs_apart_where_the_problems_do_not_share_a_key(monkeypatch):
    # No descend holds both problems, and each result equals its computation
    # alone exactly: without a config (the two defaults differ), where the
    # Koashi-Winter certificate applies, where rank(BC) differs from d_A,
    # where the rows match but the roof's coordinates exceed DENSE_MAX and
    # the measurement's do not (d_A = 4, 6), and where both exceed it
    # (d_A = 9), so that the measurement would be padded in a limited-memory
    # search.
    cfg, short = OptimizerConfig(seed=1), OptimizerConfig(seed=1, restarts=2, max_iter=30)
    unentangled_a = QState((2, 3), np.kron(np.diag([1.0, 0.0]), np.eye(3) / 3.0))
    four, six, nine = random_mixed((4, 2), 3, 1, 0), random_mixed((6, 2), 4, 1, 0), random_mixed((9, 2), 5, 1, 0)
    for state, dense in ((four, (True, False)), (six, (True, False)), (nine, (False, False))):
        minimum, roof = _measurement_problem(state, 0, cfg, False), _roof(_bc_of(state), None, cfg)[0]
        assert (roof.rows.shape, roof.da) == (minimum.rows.shape, minimum.da)
        assert tuple(coordinates(*p.first.shape) <= DENSE_MAX for p in (minimum, roof)) == dense
    descends = record_descends(monkeypatch)
    for state, config in (
        (random_mixed((2, 2), 3, 1, 0), None),
        (random_mixed((2, 2), 2, 1, 0), cfg),
        (unentangled_a, cfg),
        (four, cfg),
        (six, short),
        (nine, short),
    ):
        descends.clear()
        opt, roof = _minimum_with_roof(state, _bc_of(state), config)
        assert all(len(sizes) == 1 for sizes in descends)
        assert _opt_fields(opt) == _opt_fields(min_conditional_entropy(state, 0, config))
        assert _roof_fields(roof) == _roof_fields(eof_upper(_bc_of(state), cfg=config))


def _two_search_report(state, cfg):
    # correlation_report built from two min_conditional_entropy runs, one a side.
    opt_a, opt_b = (min_conditional_entropy(state, k, cfg) for k in (0, 1))
    j_a, d_a, s_a, s_b, s_ab = correlations._j_and_d(state, 0, opt_a.value)
    j_b, d_b, *_ = correlations._j_and_d(state, 1, opt_b.value)
    diagnostics = {"measured_a": opt_a.diagnostics(), "measured_b": opt_b.diagnostics()}
    return correlations.CorrelationReport(s_a, s_b, s_ab, s_a + s_b - s_ab, j_a, j_b, d_a, d_b, abs(d_a - d_b),
                                          diagnostics)


@pytest.mark.parametrize(
    "dims, rank, stacked",
    [((2, 2), 3, True), ((2, 2), 4, True), ((2, 3), 4, False)],
    ids=["2x2-rank3", "2x2-rank4", "2x3-rank4-apart"],
)
def test_correlation_report_stacks_both_sides_of_a_square_state(dims, rank, stacked, monkeypatch):
    # Neither side of these states has a certificate.  On (2, 2) both
    # factors have one shape and the sides run as one stacked search; on
    # (2, 3) they run one search each.  Either way the report equals the one
    # built from two separate runs.
    descends = record_descends(monkeypatch)
    for i in range(4):
        state, cfg = random_mixed(dims, rank, 1, i), OptimizerConfig(seed=i)
        descends.clear()
        report = correlation_report(state, cfg).to_json()
        assert descends == ([(cfg.restarts,) * 2] if stacked else [(cfg.restarts,)] * 2)
        assert CERTIFIED not in report["diagnostics"]["measured_a"]["stop_reasons"]
        assert report == _two_search_report(state, cfg).to_json()


@pytest.mark.parametrize("dephasing", [False, True], ids=["conditional", "dephasing"])
@pytest.mark.parametrize("dims, rank, measured", [((2, 2), 4, 0), ((2, 3), 5, 1), ((3, 2), 4, 0)])
def test_minimize_over_measurements_on_bases_is_the_measurement_search(dims, rank, measured, dephasing):
    # The public search takes an objective of the basis U and searches V =
    # U^H: on the measurement objective read as a function of U it returns
    # the measurement search's result bit for bit.
    state, cfg = random_mixed(dims, rank, 5), OptimizerConfig(restarts=4, seed=3)
    objective, d = measurement_objective(state, measured, dephasing)

    def of_basis(u, sizes):
        values, grad = objective(np.swapaxes(u.conj(), -1, -2), sizes)
        return values, np.swapaxes(grad.conj(), -1, -2)

    opt = minimize_over_measurements(of_basis, d, cfg, measured)
    assert _opt_fields(opt) == _opt_fields(measurement_search(state, measured, cfg, dephasing))


@pytest.mark.parametrize("restarts", [1, 2, OptimizerConfig().restarts])
def test_min_conditional_entropy_meets_koashi_winter_oracle(restarts):
    # Rank-2 (2,2) states have a qubit purifier C, so Koashi-Winter makes the
    # minimum over measurements on A exactly E_F(BC), which Wootters gives.
    # min_conditional_entropy certifies these inputs without a search, so
    # the search itself runs here on their objective.  At one restart it
    # runs from the identity alone.
    cfg = OptimizerConfig(restarts=restarts)
    for i in range(20):
        state = random_mixed((2, 2), 2, 7000 + i)
        oracle = eof_2qubit(partial_trace(purify(state).to_density(), (1, 2))).value
        opt = measurement_search(state, 0, cfg, False)
        assert correlations.CERTIFIED not in opt.stop_reasons
        assert abs(opt.value - oracle) <= 1e-9
        assert opt.value >= oracle - 1e-12


# Unitary starts of the measurement search (d x d) and Stiefel starts of the
# convex roof (m x r, m = r^2).
@pytest.mark.parametrize(
    "n, p",
    [(2, 2), (3, 3), (4, 4), (6, 6), (4, 2), (16, 4), (9, 3), (36, 6)],
    ids=["2", "3", "4", "6", "4x2", "16x4", "9x3", "36x6"],
)
def test_cached_restart_bases_equal_a_fresh_build(n, p):
    # The starts come from one stacked QR; each equals the Q factor of its
    # own Gaussian matrix, factored alone.  A search stacks them behind its
    # restart 0, and a square start (a measurement on V = U^H) their
    # conjugate transposes, so that it measures in the bases Q.  The same
    # cache draws check_kw_pointwise's bases, on streams _MEASUREMENT_SALT + j.
    def gaussian(g):
        return g.normal(size=(n, p)) + 1j * g.normal(size=(n, p))

    def fresh_build(streams):
        return np.stack([np.linalg.qr(gaussian(stream(5, k)))[0] for k in streams])

    fresh = fresh_build(range(1, 16))
    first, cfg = np.eye(n, p, dtype=complex), OptimizerConfig(seed=5, restarts=16)
    draws = np.swapaxes(fresh.conj(), -1, -2) if n == p else fresh
    assert restart_stack(first, cfg).tobytes() == np.concatenate([first[None], draws]).tobytes()
    for start, count in ((1, 15), (verify._MEASUREMENT_SALT, 10)):
        expected = fresh_build(range(start, start + count))
        for _ in range(2):  # a first call and a repeat
            cached = seeded_isometries(n, p, 5, start, count)
            assert cached.shape == (count, n, p)
            assert cached.tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            cached[0, 0, 0] = 0.0
        assert seeded_isometries(n, p, 5, start, count).tobytes() == expected.tobytes()
        assert not np.array_equal(seeded_isometries(n, p, 6, start, count), cached)


def test_repeated_searches_are_identical_with_cached_starts():
    state = random_mixed((3, 2), 4, 23)
    runs = [min_conditional_entropy(state, 0, CFG) for _ in range(2)]
    assert runs[0].restart_values == runs[1].restart_values
    assert runs[0].iterations == runs[1].iterations
    assert runs[0].argbasis.basis.tobytes() == runs[1].argbasis.basis.tobytes()


def test_optimized_value_matches_objective_at_argbasis():
    state = random_mixed((2, 2), 2, 17)
    opt = min_conditional_entropy(state, 0, CFG)
    replay = avg_conditional_entropy(apply_measurement(state, opt.argbasis))
    assert replay == pytest.approx(opt.value, abs=1e-9)


def test_classical_correlation_values():
    prod = tensor(random_mixed((2,), 2, 4), random_mixed((2,), 2, 5))
    assert classical_correlation(prod, 0, CFG).value == pytest.approx(0.0, abs=1e-6)
    assert classical_correlation(bell_state(), 0, CFG).value == pytest.approx(1.0, abs=1e-6)
    assert classical_correlation(bell_state(), 1, CFG).value == pytest.approx(1.0, abs=1e-6)
    assert classical_correlation(werner_2qubit_example4(), 0, CFG).value == pytest.approx(
        EX4_J, abs=5e-7
    )


def test_discord_values():
    zero = QState((2,), np.diag([1.0, 0.0]))
    plus = QState((2,), np.full((2, 2), 0.5))
    cq = classical_quantum([0.5, 0.5], [zero, plus])
    assert classical_correlation(cq, 0, CFG).value > 0.1
    assert discord(cq, 0, CFG).value <= 1e-6

    vec = haar_random_pure((2, 2), 6)
    rho = vec.to_density()
    s_b = von_neumann_entropy(partial_trace(rho, (1,)))
    assert discord(rho, 0, CFG).value == pytest.approx(s_b, abs=1e-6)
    assert discord(rho, 1, CFG).value == pytest.approx(s_b, abs=1e-6)

    assert discord(werner_2qubit_example4(), 0, CFG).value == pytest.approx(EX4_D, abs=5e-7)


def test_discord_nonnegative_on_random_states():
    for i in range(10):
        state = random_mixed((2, 2), 1 + i % 4, 4000 + i)
        assert discord(state, 0, OptimizerConfig(restarts=4, seed=i)).value >= -1e-6


def test_decomposition_exactness():
    for i in range(5):
        state = random_mixed((2, 2), 2, 4100 + i)
        report = correlation_report(state, OptimizerConfig(restarts=4, seed=7))
        assert report.j_a + report.d_a == pytest.approx(report.mutual_information, abs=1e-9)
        assert report.j_b + report.d_b == pytest.approx(report.mutual_information, abs=1e-9)
        assert report.measurement_class == MEASUREMENT_CLASS_LABEL
        assert report.mutual_information <= 2 * min(report.s_a, report.s_b) + 1e-9


def test_discord_distance_symmetric_and_pure_states():
    assert discord_distance(werner_2qubit_example4(), CFG) <= 2e-6
    vec = haar_random_pure((2, 2), 8)
    assert discord_distance(vec.to_density(), CFG) <= 2e-6
    with pytest.raises(ValueError):
        discord_distance(random_mixed((2, 2, 2), 2, 1), CFG)


def test_discord_distance_example3_koashi_winter_route():
    # D_B should equal E_F(AC) - S(A|B); with S(A|B) = 0 the distance is |1 - D_B|
    ex3 = example3_state()
    d_a = discord(ex3, 0, CFG).value
    d_b = discord(ex3, 1, CFG).value
    assert d_a == pytest.approx(1.0, abs=1e-3)

    abc = purify(ex3).to_density()
    rho_ac = partial_trace(abc, (0, 2))
    ef_ac = eof_upper(rho_ac).value
    s_a_given_b = von_neumann_entropy(ex3) - von_neumann_entropy(partial_trace(ex3, (1,)))
    oracle_d_b = ef_ac - s_a_given_b
    assert d_b == pytest.approx(oracle_d_b, abs=2e-3)
    assert abs(d_a - d_b) == pytest.approx(abs(1.0 - d_b), abs=2e-3)


def test_estimator_monotonic_in_restarts():
    state = random_mixed((2, 3), 3, 42)
    values = [
        discord(state, 1, OptimizerConfig(restarts=r, seed=7)).value for r in (1, 2, 4, 8)
    ]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-12


def test_local_unitary_covariance(rng):
    cfg = OptimizerConfig(restarts=8, seed=4)
    for i in range(8):
        state = random_mixed((2, 2), 2, 3000 + i)
        u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
        rotated = QState(state.dims, u @ state.matrix @ u.conj().T)
        d1 = discord(state, 0, cfg).value
        d2 = discord(rotated, 0, cfg).value
        assert abs(d1 - d2) <= 2 * cfg.tol


def _no_search(monkeypatch):
    # Patch the solve step of correlations so that any search fails the
    # test: every problem must come back certified.
    solve_alone = correlations.solve

    def certified_only(problems):
        runs = solve_alone(problems)
        assert all(run.reasons == (CERTIFIED,) for run in runs), "a measurement search ran"
        return runs

    monkeypatch.setattr(correlations, "solve", certified_only)


def _assert_certified(opt, value):
    assert opt.stop_reasons == (correlations.CERTIFIED,)
    assert opt.iterations == (0,) and opt.evaluations == (1,)
    assert opt.restart_values == (opt.value,)
    assert opt.spread == 0.0 and opt.converged
    assert opt.value == pytest.approx(value, abs=1e-12)


def _rank2_two_qubit(kind: str, seed: int) -> QState:
    """A seeded rank-2 two-qubit state of the named kind."""
    if kind == "random_mixed":
        return random_mixed((2, 2), 2, seed)
    if kind == "haar_ab":
        return partial_trace(haar_random_pure((2, 2, 2), seed).to_density(), (0, 1))
    if kind == "classical_quantum":
        # E_F(BC) = 0 and s1 = s2: the Takagi values are degenerate.
        p = np.random.default_rng(seed).uniform(0.1, 0.9)
        return classical_quantum([p, 1.0 - p], [haar_random_pure((2,), seed, k).to_density() for k in (0, 1)])
    # pure A (x) rank-2 B: measured on B, the unmeasured A is pure and tau = 0
    return tensor(haar_random_pure((2,), seed).to_density(), random_mixed((2,), 2, seed))


@pytest.mark.parametrize("rotate", [False, True], ids=["plain", "rotated"])
@pytest.mark.parametrize("kind", ["random_mixed", "haar_ab", "classical_quantum", "pure_a"])
def test_kw_certificate_meets_wootters_on_rank2_two_qubit_states(kind, rotate, monkeypatch):
    # Koashi-Winter: the minimum over measurements on one qubit is E_F of the
    # other qubit and the purifier, which Wootters gives; the certificate
    # scores against exactly that bound and reaches it, on either side.
    bounds, solve_alone = [], correlations.solve

    def recording(problems):
        bounds.extend(problem.bound for problem in problems if problem.candidate is not None)
        return solve_alone(problems)

    monkeypatch.setattr(correlations, "solve", recording)
    cfg = OptimizerConfig(restarts=4, seed=3)
    for i in range(5):
        state = _rank2_two_qubit(kind, 300 + i)
        if rotate:
            g = np.random.default_rng(300 + i)
            u = np.kron(haar_unitary(g, 2), haar_unitary(g, 2))
            state = QState((2, 2), u @ state.matrix @ u.conj().T)
        abc = purify(state).to_density()
        for m, pair in ((0, (1, 2)), (1, (0, 2))):
            oracle = eof_2qubit(partial_trace(abc, pair)).value
            bounds.clear()
            opt = min_conditional_entropy(state, m, cfg)
            _assert_certified(opt, oracle)
            assert opt.argbasis.subsystem == m
            assert bounds == [pytest.approx(oracle, abs=1e-12)]
            forced = measurement_search(state, m, cfg, False)
            assert opt.value <= forced.value + 1e-12


def _record_candidates(monkeypatch):
    """Patch the solve step of correlations to log (candidate, bound) of every problem that has a candidate."""
    scored, solve_alone = [], correlations.solve

    def recording(problems):
        scored.extend((problem.candidate, problem.bound) for problem in problems if problem.candidate is not None)
        return solve_alone(problems)

    monkeypatch.setattr(correlations, "solve", recording)
    return scored


def _no_certificate(monkeypatch):
    # Patch the solve step of correlations so that a candidate basis to
    # score fails the test.
    solve_alone = correlations.solve

    def uncertified(problems):
        assert all(problem.candidate is None for problem in problems), "a candidate basis was scored"
        return solve_alone(problems)

    monkeypatch.setattr(correlations, "solve", uncertified)


@pytest.mark.parametrize(
    "dims, rank", [((2, 2), 1), ((2, 2), 3), ((2, 2), 4), ((2, 3), 2), ((2, 3), 3)],
    ids=["2x2r1", "2x2r3", "2x2r4", "2x3r2", "2x3r3"],
)
def test_kw_certificate_never_fires_off_rank2_two_qubit_states(dims, rank, monkeypatch):
    # No Koashi-Winter candidate is scored.  A pure state scores only the
    # zero-discord candidate, the canonical basis against 0; every other
    # state scores none, and its result is exactly the search's.
    scored = _record_candidates(monkeypatch)
    cfg = OptimizerConfig(restarts=2, seed=5)
    for i in range(2):
        state = random_mixed(dims, rank, 400 + i)
        for m in (0, 1):
            scored.clear()
            opt = min_conditional_entropy(state, m, cfg)
            if rank == 1:
                [(candidate, bound)] = scored
                assert bound == 0.0 and np.array_equal(candidate, np.eye(dims[m]))
                _assert_certified(opt, 0.0)
                continue
            assert scored == []
            forced = measurement_search(state, m, cfg, False)
            assert correlations.CERTIFIED not in opt.stop_reasons
            assert opt.value == forced.value
            assert opt.restart_values == forced.restart_values
            assert opt.argbasis.basis.tobytes() == forced.argbasis.basis.tobytes()


def _werner_minimum(d: int, x: float) -> float:
    # Chitambar's closed form: every outcome of every basis on one side of
    # werner_qudit(d, x) leaves the conditional spectrum d (a + b), d a, ...
    a, b = (d - x) / (d**3 - d), (d * x - 1.0) / (d**3 - d)
    mu = d * np.array([a + b] + [a] * (d - 1))
    mu = mu[mu > 0.0]
    return float(-(mu * np.log2(mu)).sum())


WERNER_XS = (-1.0, -0.7, -0.2, 0.0, 0.3, 0.8, 1.0)


@pytest.mark.parametrize("d", [2, 3, 6])
def test_werner_certificate_meets_the_closed_form(d, monkeypatch):
    # A U (x) U-invariant state scores the same in every basis, so the
    # canonical basis is scored against the closed form and no search runs,
    # on either side.
    bounds, solve_alone = [], correlations.solve

    def recording(problems):
        bounds.extend(problem.bound for problem in problems if problem.candidate is not None)
        runs = solve_alone(problems)
        assert all(run.reasons == (CERTIFIED,) for run in runs), "a measurement search ran"
        return runs

    monkeypatch.setattr(correlations, "solve", recording)
    cfg = OptimizerConfig(restarts=4, seed=3)
    for x in WERNER_XS:
        oracle = _werner_minimum(d, x)
        for m in (0, 1):
            bounds.clear()
            opt = min_conditional_entropy(werner_qudit(d, x), m, cfg)
            _assert_certified(opt, oracle)
            assert opt.argbasis.subsystem == m
            assert np.array_equal(opt.argbasis.basis, np.eye(d))
            assert bounds == [pytest.approx(oracle, abs=1e-12)]
    report = correlation_report(werner_2qubit_example4(), cfg)
    assert [report.diagnostics[k]["stop_reasons"] for k in ("measured_a", "measured_b")] == [[CERTIFIED]] * 2
    assert report.d_a == pytest.approx(EX4_D, abs=1e-12) and report.d_b == pytest.approx(EX4_D, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 6])
def test_werner_search_meets_the_closed_form(d):
    # The certificate replaces the search on this family, so the search
    # itself runs here, from the identity and three random bases.
    cfg = OptimizerConfig(restarts=4, seed=3)
    for x in WERNER_XS:
        opt = measurement_search(werner_qudit(d, x), 0, cfg, False)
        assert CERTIFIED not in opt.stop_reasons and len(opt.restart_values) == 4
        assert abs(opt.value - _werner_minimum(d, x)) <= 1e-9


def test_werner_coefficients_accept_the_family_to_rounding_only():
    for d in range(2, 9):
        for x in np.linspace(-1.0, 1.0, 21):
            a, b = _werner_coefficients(werner_qudit(d, float(x)))
            assert a == pytest.approx((d - x) / (d**3 - d), abs=1e-15)
            assert b == pytest.approx((d * x - 1.0) / (d**3 - d), abs=1e-15)
    assert _werner_coefficients(werner_2qubit_example4()) == pytest.approx((1 / 3, -1 / 6), abs=1e-15)
    # Entries the screen does not read: the residual test alone rejects this.
    m = werner_qudit(2, 0.3).matrix.copy()
    m[2, 2] -= 1e-9
    m[3, 3] += 1e-9
    assert _werner_coefficients(QState((2, 2), m)) is None
    # Only two subsystems of one dimension: I / 8 is U (x) U (x) U-invariant.
    for dims in ((2, 2, 2), (2, 4), (4, 2)):
        assert _werner_coefficients(QState(dims, np.eye(8) / 8.0)) is None


@pytest.mark.parametrize("d", [2, 3])
def test_werner_certificate_never_fires_off_the_family(d, monkeypatch):
    # A Werner state mixed with 1e-9 of a random state, and random states of
    # ranks that no other certificate takes: no candidate is scored, and the
    # result is exactly the search's.
    _no_certificate(monkeypatch)
    cfg = OptimizerConfig(restarts=2, seed=5)
    noise = random_mixed((d, d), d * d, 500).matrix
    states = [QState((d, d), (1.0 - 1e-9) * werner_qudit(d, x).matrix + 1e-9 * noise) for x in (-0.5, 0.4)]
    states += [random_mixed((d, d), rank, 400 + i) for rank in ((3, 4) if d == 2 else (2, 5, 9)) for i in range(2)]
    for state in states:
        assert _werner_coefficients(state) is None
        for m in (0, 1):
            opt = min_conditional_entropy(state, m, cfg)
            forced = measurement_search(state, m, cfg, False)
            assert CERTIFIED not in opt.stop_reasons
            assert opt.value == forced.value
            assert opt.restart_values == forced.restart_values


def _run_bits(opt) -> tuple:
    """Every field of a minimum's run, the basis as bytes: equal tuples are the same run bit for bit."""
    return (opt.value, opt.restart_values, opt.iterations, opt.evaluations, opt.stop_reasons,
            opt.argbasis.basis.tobytes())


ZERO_DISCORD_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]


@pytest.mark.parametrize("dims", ZERO_DISCORD_DIMS, ids=["2x2", "2x3", "3x2", "3x3"])
def test_zero_discord_certificate_on_pure_states(dims, monkeypatch):
    # Every basis leaves pure conditional states, so the canonical basis
    # meets the bound max(0, S(rho) - S(rho_X)) = 0 on either side, exactly
    # (a Gram side of 1), and no search runs: D_A = S(B) and D_B = S(A).
    # No marginal is decomposed for a candidate.  rho, a derived state, is
    # decomposed once, on side 0's first read, and keeps the pair; side 1
    # decomposes its permuted matrix, and the report adds one decomposition
    # per marginal, for S(A) and S(B).
    scored = _record_candidates(monkeypatch)
    calls = record_descends(monkeypatch)
    solved = record_eigensolves(monkeypatch)
    cfg = OptimizerConfig(restarts=4, seed=3)
    for i in range(3):
        state = haar_random_pure(dims, 60 + i).to_density()
        swapped = permute_subsystems(state, (1, 0)).matrix
        marginals = [partial_trace(state, (k,)).matrix for k in (0, 1)]
        solved.clear()
        for m in (0, 1):
            scored.clear()
            opt = min_conditional_entropy(state, m, cfg)
            [(candidate, bound)] = scored
            assert bound == 0.0 and np.array_equal(candidate, np.eye(dims[m]))
            _assert_certified(opt, bound)
            assert opt.value == 0.0
            assert opt.argbasis.subsystem == m
        assert len(solved) == 2 and [calls_on(solved, a) for a in (state.matrix, swapped)] == [1, 1]
        solved.clear()
        report = correlation_report(state, cfg)
        assert len(solved) == 3 and [calls_on(solved, a) for a in (state.matrix, swapped, *marginals)] == [0, 1, 1, 1]
        assert [report.diagnostics[k]["stop_reasons"] for k in ("measured_a", "measured_b")] == [[CERTIFIED]] * 2
        assert report.d_a == pytest.approx(report.s_b, abs=1e-12)
        assert report.d_b == pytest.approx(report.s_a, abs=1e-12)
    assert calls == []


def test_a_report_never_decomposes_a_validated_state_again(monkeypatch):
    # The constructor keeps validation's decomposition of rho, which serves
    # side 0's factor and S(AB): a report on a searched (2, 3) rank-6 state
    # makes no eigensolver call on rho itself, one on side 1's permuted
    # matrix and one on each marginal.  The searches' Gram stacks are
    # batched, so 2-D inputs are the states'.
    state = random_mixed((2, 3), 6, 1)
    swapped = permute_subsystems(state, (1, 0)).matrix
    marginals = [partial_trace(state, (k,)).matrix for k in (0, 1)]
    solved = record_eigensolves(monkeypatch)
    report = correlation_report(state, OptimizerConfig(seed=1))
    assert CERTIFIED not in report.diagnostics["measured_b"]["stop_reasons"]
    flat = [a for a in solved if a.ndim == 2]
    assert len(flat) == 3 and [calls_on(flat, a) for a in (state.matrix, swapped, *marginals)] == [0, 1, 1, 1]


@pytest.mark.parametrize("dims", ZERO_DISCORD_DIMS, ids=["2x2", "2x3", "3x2", "3x3"])
def test_zero_discord_search_meets_zero_on_pure_states(dims):
    # The certificate replaces the search on pure states, so the search
    # itself runs here, from the identity and three random bases.
    cfg = OptimizerConfig(restarts=4, seed=3)
    for i in range(3):
        state = haar_random_pure(dims, 60 + i).to_density()
        for m in (0, 1):
            opt = measurement_search(state, m, cfg, False)
            assert CERTIFIED not in opt.stop_reasons and len(opt.restart_values) == 4
            assert abs(opt.value) <= 1e-9


@pytest.mark.parametrize("qdims", [(2,), (3,)], ids=["qubit", "qutrit"])
def test_classical_quantum_registers_meet_their_oracle(qdims):
    # Classical on a 3-level register, in its computational basis and in a
    # Haar-rotated one: the register's eigenbasis leaves the components
    # sigma_k as conditional states, and the least value is sum_k p_k
    # S(sigma_k) (discord zero on the register), whatever route reaches it.
    cfg = OptimizerConfig(restarts=4, seed=3)
    eye = np.eye(math.prod(qdims))
    for i in range(2):
        g = stream(80, i)
        probs = g.dirichlet(np.ones(3))
        sigmas = [random_mixed(qdims, 2, 80 + i, k) for k in range(3)]
        oracle = sum(p * von_neumann_entropy(sigma) for p, sigma in zip(probs, sigmas))
        cq = classical_quantum(probs, sigmas)
        u = np.kron(haar_unitary(g, 3), eye)
        for state in (cq, QState(cq.dims, u @ cq.matrix @ u.conj().T)):
            assert min_conditional_entropy(state, 0, cfg).value == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("dims, ranks", [((2, 3), (2, 3, 6)), ((3, 3), (2, 5, 9))], ids=["2x3", "3x3"])
def test_zero_discord_candidate_never_scored_on_random_mixed_states(dims, ranks, monkeypatch):
    # A state of rank 2 or more that is neither a rank-2 two-qubit state nor
    # a Werner state scores no candidate, and each result is exactly the
    # search's.
    _no_certificate(monkeypatch)
    cfg = OptimizerConfig(restarts=2, seed=5)
    for rank in ranks:
        for i in range(2):
            state = random_mixed(dims, rank, 410 + i)
            for m in (0, 1):
                opt = min_conditional_entropy(state, m, cfg)
                assert CERTIFIED not in opt.stop_reasons
                assert _run_bits(opt) == _run_bits(measurement_search(state, m, cfg, False))
            report = correlation_report(state, cfg)
            assert CERTIFIED not in report.diagnostics["measured_a"]["stop_reasons"]


def test_zero_discord_candidate_on_degenerate_marginals(monkeypatch):
    # rho_X = I / d_X: a pure state is certified at 0 in whichever
    # eigenbasis eigh returns; a mixed one (Bell-diagonal, example3's rank
    # 2) scores no candidate, and its result, alone and in
    # correlation_report, is exactly the search's.
    scored = _record_candidates(monkeypatch)
    cfg = OptimizerConfig(restarts=4, seed=3)
    maximal = QState((3, 3), np.outer(np.eye(3).ravel(), np.eye(3).ravel()) / 3)
    for state in (bell_state(), maximal):
        for m in (0, 1):
            scored.clear()
            opt = min_conditional_entropy(state, m, cfg)
            assert [bound for _candidate, bound in scored] == [0.0]
            _assert_certified(opt, 0.0)
    for state in (bell_diagonal([0.4, 0.3, 0.2, 0.1]), bell_diagonal([0.4, 0.35, 0.25, 0.0]), example3_state()):
        scored.clear()
        for m in (0, 1):
            assert _run_bits(min_conditional_entropy(state, m, cfg)) == _run_bits(measurement_search(state, m, cfg, False))
        report = correlation_report(state, cfg).diagnostics
        assert scored == []
        assert all(CERTIFIED not in report[side]["stop_reasons"] for side in ("measured_a", "measured_b"))


def test_re_discord_zero_for_classical_states(monkeypatch):
    # Classical on A in A's eigenbasis: that basis scores 0, the lower bound
    # max(0, S(A) - S(AB)), so no search runs.  The second state has
    # S(AB) > S(A), where the bound's max(0, .) is what certifies it.
    zero = QState((2,), np.diag([1.0, 0.0]))
    one = QState((2,), np.diag([0.0, 1.0]))
    mixed = QState((2,), np.eye(2) / 2.0)
    cq_pure = classical_quantum([0.4, 0.6], [zero, one])
    cq_mixed = classical_quantum([0.3, 0.7], [zero, mixed])
    assert von_neumann_entropy(cq_mixed) > von_neumann_entropy(partial_trace(cq_mixed, (0,))) + 0.5
    _no_search(monkeypatch)
    for cq in (cq_pure, cq_mixed):
        _assert_certified(re_discord(cq, 0, CFG), 0.0)


def _merged_factor(state, measured):
    """``state`` with the ``measured`` subsystems merged into subsystem 0."""
    rest = tuple(i for i in range(state.n_subsystems) if i not in measured)
    sigma = permute_subsystems(state, measured + rest)
    d = math.prod(state.dims[i] for i in measured)
    return QState((d,) + tuple(state.dims[i] for i in rest), sigma.matrix)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2), (2, 2, 2)], ids=["2x2", "2x3x2", "2x2x2"])
def test_re_discord_certifies_pure_inputs(dims, monkeypatch):
    # On a pure state the eigenbasis of the measured marginal attains the
    # lower bound S(rho_X), so the value is certified without a search.
    cfg = OptimizerConfig(restarts=4, seed=3)
    _no_search(monkeypatch)
    for i in range(3):
        state = haar_random_pure(dims, 40 + i).to_density()
        cases = [(state, m) for m in range(len(dims))]
        if len(dims) == 3:
            cases.append((_merged_factor(state, (1, 2)), 0))
        for rho, m in cases:
            opt = re_discord(rho, m, cfg)
            _assert_certified(opt, von_neumann_entropy(partial_trace(rho, (m,))))
            assert opt.argbasis.subsystem == m
            forced = measurement_search(rho, m, cfg, True)
            assert opt.value <= forced.value + 1e-12


def test_re_discord_certificate_never_fires_on_mixed_inputs():
    # On these full-rank states S(rho) > S(rho_X), so the bound is 0, which
    # only a state classical on X attains: every call searches, and returns
    # exactly what the search alone returns.
    cfg = OptimizerConfig(restarts=2, seed=5)
    for i in range(4):
        state = random_mixed((2, 2, 2), 8, 200 + i)
        for rho, m in [(state, 0), (state, 1), (state, 2), (_merged_factor(state, (1, 2)), 0)]:
            assert von_neumann_entropy(rho) > von_neumann_entropy(partial_trace(rho, (m,)))
            opt = re_discord(rho, m, cfg)
            assert correlations.CERTIFIED not in opt.stop_reasons
            forced = measurement_search(rho, m, cfg, True)
            assert opt.value == forced.value
            assert opt.restart_values == forced.restart_values


def test_re_discord_pure_state_reaches_reduced_entropy():
    for i in range(5):
        rho = haar_random_pure((2, 2), 60 + i).to_density()
        s_a = von_neumann_entropy(partial_trace(rho, (0,)))
        est = re_discord(rho, 0, OptimizerConfig(restarts=6, seed=i)).value
        assert est == pytest.approx(s_a, abs=1e-4)
        assert est >= s_a - 1e-9  # one-sided: estimate never undercuts the optimum


def test_re_discord_matches_dense_grid_oracle():
    state = random_mixed((2, 2), 4, 1234)
    t, _dm, _rest = _measured_view(state, 0)
    s0 = von_neumann_entropy(state)
    best = np.inf
    phis = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    e = np.exp(1j * phis)
    for theta in np.linspace(0.0, np.pi / 2.0, 180):
        c, s = np.cos(theta), np.sin(theta)
        basis = np.zeros((360, 2, 2), dtype=complex)
        basis[:, 0, 0] = c
        basis[:, 0, 1] = -e * s
        basis[:, 1, 0] = e.conj() * s
        basis[:, 1, 1] = c
        blocks = np.einsum("gak,arbs,gbk->gkrs", basis.conj(), t, basis, optimize=True)
        w = np.linalg.eigvalsh(blocks.reshape(-1, 2, 2)).reshape(360, 4)
        w = np.where(w < 1e-10, 0.0, w)
        w = w / w.sum(axis=1, keepdims=True)
        logs = np.where(w > 0, np.log2(np.where(w > 0, w, 1.0)), 0.0)
        best = min(best, float((-(w * logs).sum(axis=1)).min()))
    grid_min = best - s0
    opt = re_discord(state, 0, CFG).value
    assert opt == pytest.approx(grid_min, abs=1e-3)


def test_re_discord_invariant_under_re_dephasing():
    state = random_mixed((2, 2), 4, 9)
    opt = re_discord(state, 0, OptimizerConfig(restarts=4, seed=2))
    dephased = dephase(state, opt.argbasis)
    np.testing.assert_allclose(
        dephase(dephased, opt.argbasis).matrix, dephased.matrix, atol=1e-12
    )
    assert von_neumann_entropy(dephased) - von_neumann_entropy(state) == pytest.approx(
        opt.value, abs=1e-9
    )


def test_re_discord_joint_includes_chain_candidate():
    state = random_mixed((2, 2, 2), 8, 77)
    cfg = OptimizerConfig(restarts=2, max_iter=300, seed=5)
    detail = re_discord_detailed(state, (1, 2), cfg)
    assert detail.value <= detail.chain_value + 1e-12
    assert detail.value <= detail.joint_value + 1e-12
    assert detail.value >= -1e-9
    # re_discord on several subsystems is that same result.
    opt = re_discord(state, (1, 2), cfg)
    assert isinstance(opt, correlations.ReDiscordDetail)
    assert (opt.value, opt.restart_values, opt.stop_reasons) == (
        detail.value, detail.restart_values, detail.stop_reasons)


def test_re_discord_chain_reuses_first_factor(monkeypatch):
    # The chain's first step is re_discord on the first measured subsystem;
    # passing that result in gives the same chain with one search fewer.
    state = random_mixed((2, 2, 2), 8, 78)
    cfg = OptimizerConfig(restarts=2, max_iter=300, seed=5)
    first = re_discord(state, 1, cfg)
    searches, solve_alone = [], correlations.solve

    def counting(problems):
        runs = solve_alone(problems)
        searches.extend(len(p.first) for p, run in zip(problems, runs) if run.reasons != (CERTIFIED,))
        return runs

    monkeypatch.setattr(correlations, "solve", counting)
    fresh = re_discord_detailed(state, (1, 2), cfg)
    assert searches == [4, 2, 2]
    reused = re_discord_detailed(state, (1, 2), cfg, first=first)
    assert searches == [4, 2, 2, 4, 2]
    assert reused.chain_value == fresh.chain_value
    assert reused.joint_value == fresh.joint_value
    with pytest.raises(ValueError):
        re_discord_detailed(state, (1, 2), cfg, first=re_discord(state, 2, cfg))


def test_re_discord_on_several_subsystems_keeps_restart_diagnostics(monkeypatch):
    # The joint step's per-restart tuples come through: one certified
    # candidate on a pure input, one entry per restart on a mixed one.
    cfg = OptimizerConfig(restarts=3, max_iter=300, seed=5)
    pure = haar_random_pure((2, 2, 2), 3).to_density()
    with monkeypatch.context() as m:
        _no_search(m)
        _assert_certified(re_discord(pure, (1, 2), cfg), von_neumann_entropy(partial_trace(pure, (1, 2))))
    mixed = re_discord(random_mixed((2, 2, 2), 8, 3), (1, 2), cfg).diagnostics()
    for key in ("restart_values", "iterations", "evaluations", "stop_reasons"):
        assert len(mixed[key]) == cfg.restarts


def test_diagnostics_are_the_fields_after_value_and_argbasis():
    # diagnostics() reads the dataclass's fields in order, the tuples as
    # lists; a ReDiscordDetail's chain fields are not diagnostics.
    names = [f.name for f in fields(correlations.OptimizedValue)][2:]
    assert names[:2] == ["spread", "converged"] and names[-1] == "stop_reasons"
    opt = min_conditional_entropy(random_mixed((2, 2), 4, 1), 0, CFG)
    diagnostics = opt.diagnostics()
    assert list(diagnostics) == names
    assert diagnostics == {name: getattr(opt, name) for name in names[:4]} | {
        name: list(getattr(opt, name)) for name in names[4:]}
    detail = re_discord_detailed(haar_random_pure((2, 2, 2), 3).to_density(), (1, 2), CFG)
    assert isinstance(detail, correlations.ReDiscordDetail) and list(detail.diagnostics()) == names


def test_certified_holds_on_a_certified_side_only():
    # A rank-2 two-qubit side is certified by Wootters' basis; a rank-4 one
    # searches.
    certified = min_conditional_entropy(random_mixed((2, 2), 2, 1), 0, CFG)
    searched = min_conditional_entropy(random_mixed((2, 2), 4, 1), 0, CFG)
    assert certified.certified is True and certified.stop_reasons == (CERTIFIED,)
    assert searched.certified is False and CERTIFIED not in searched.stop_reasons


def test_a_product_state_reports_positive_zero_correlations():
    # Both sides of a pure product state are certified at 0, and D and J
    # must come out as +0.0, which a report prints as "0", never "-0".
    for dims in ((2, 3), (3, 2)):
        product = tensor(haar_random_pure(dims[:1], 1).to_density(), haar_random_pure(dims[1:], 2).to_density())
        report = correlation_report(product, CFG)
        for value in (report.d_a, report.d_b, report.j_a, report.j_b):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0


def _binary_entropy(p):
    p = np.clip(p, 0.0, 1.0)
    return -sum(np.where(q > 0, q * np.log2(np.where(q > 0, q, 1.0)), 0.0) for q in (p, 1.0 - p))


def _x_state_discords(a, b, c, d, w, z):
    """(D_z, D_x) of the X state measured on its second qubit.

    Closed forms for the sigma_z and sigma_x measurements (Ali, Rau & Alber,
    PRA 81, 042105, 2010), for rho = [[a,0,0,w],[0,b,z,0],[0,z*,c,0],[w*,0,0,d]]
    in the basis |00>, |01>, |10>, |11>.  D = S(B) - S(AB) + sum_k p_k S(rho_A|k).
    """
    outer = np.array([(a + d + np.hypot(a - d, 2 * abs(w))) / 2, (a + d - np.hypot(a - d, 2 * abs(w))) / 2])
    inner = np.array([(b + c + np.hypot(b - c, 2 * abs(z))) / 2, (b + c - np.hypot(b - c, 2 * abs(z))) / 2])
    lam = np.concatenate([outer, inner])
    s_ab = -float(np.sum(np.where(lam > 0, lam * np.log2(np.where(lam > 0, lam, 1.0)), 0.0)))
    s_b = float(_binary_entropy(a + c))
    # sigma_z on B: outcome 0 leaves diag(a, c), outcome 1 leaves diag(b, d)
    cond_z = (a + c) * _binary_entropy(a / (a + c)) + (b + d) * _binary_entropy(b / (b + d))
    # sigma_x on B: both outcomes, each with weight 1/2, leave A with Bloch
    # length sqrt((a + b - c - d)^2 + 4 |w + z|^2)
    r = np.hypot(a + b - c - d, 2 * abs(w + z))
    cond_x = _binary_entropy((1 + r) / 2)
    return s_b - s_ab + float(cond_z), s_b - s_ab + float(cond_x)


def test_discord_on_x_states_meets_the_sigma_z_and_sigma_x_closed_forms():
    # The default-budget estimate is an upper bound on the projective
    # optimum, which is at most the better of the two closed forms.  The
    # identity start is stationary on X states, so a search from it alone
    # stops at D_z even where D_x is lower.
    below_z = 0
    for state in _x_states(50):
        swapped = permute_subsystems(state, (1, 0))
        for side, rho in ((1, state), (0, swapped)):
            x = rho.matrix
            d_z, d_x = _x_state_discords(
                x[0, 0].real, x[1, 1].real, x[2, 2].real, x[3, 3].real, x[0, 3], x[1, 2]
            )
            below_z += d_x < d_z - 1e-6
            assert discord(state, side).value <= min(d_z, d_x) + 1e-9
    assert below_z >= 10


def test_re_discord_index_validation():
    state = random_mixed((2, 2), 2, 1)
    with pytest.raises(ValueError):
        re_discord(state, 5, CFG)
    with pytest.raises(ValueError):
        re_discord(state, (), CFG)


def test_a_measured_side_names_one_subsystem():
    # A set of two or more indices is refused by name; a one-element set
    # reads as its index.
    state = random_mixed((2, 2, 2), 4, 1)
    for call in (discord, min_conditional_entropy):
        with pytest.raises(ValueError, match=r"^measured subsystem must be one index, got \(0, 1\)$"):
            call(state, (0, 1), CFG)
    for a, b in zip(_measured_view(state, (1,)), _measured_view(state, 1)):
        assert (a.tobytes() == b.tobytes()) if isinstance(a, np.ndarray) else a == b


def test_a_one_element_measured_set_measures_as_its_index():
    # Each side is read once, as one index, so (0,) runs the search of 0 bit
    # for bit, and the reported subsystem is the int 0.
    state = random_mixed((2, 2, 2), 4, 1)
    cfg = OptimizerConfig(restarts=2, max_iter=100, seed=5)
    for call in (discord, classical_correlation, min_conditional_entropy):
        as_set, as_index = call(state, (0,), cfg), call(state, 0, cfg)
        assert _run_bits(as_set) == _run_bits(as_index)
        assert type(as_set.argbasis.subsystem) is int and as_set.argbasis.subsystem == 0


def test_re_discord_detailed_reads_its_measured_set():
    # measured is read as a sorted set of distinct indices in range, as
    # re_discord reads it.
    state = random_mixed((2, 2, 2), 4, 1)
    cfg = OptimizerConfig(restarts=2, max_iter=100, seed=5)

    def fingerprint(detail):
        return (detail.value, detail.argbasis.basis.tobytes(), detail.chain_value, detail.joint_value,
                detail.restart_values, detail.stop_reasons)

    assert fingerprint(re_discord_detailed(state, (2, 0), cfg)) == fingerprint(re_discord_detailed(state, (0, 2), cfg))
    assert fingerprint(re_discord_detailed(state, (1, 1), cfg)) == fingerprint(re_discord_detailed(state, (1,), cfg))
    for bad in ((0, 3), (-1, 1), ()):
        with pytest.raises(ValueError, match=r"^measured "):
            re_discord_detailed(state, bad, cfg)
    # The first step measures the lowest index, whatever order names it.
    first = re_discord(state, 0, cfg)
    assert fingerprint(re_discord_detailed(state, (2, 0), cfg, first=first)) == fingerprint(
        re_discord_detailed(state, (0, 2), cfg))
    with pytest.raises(ValueError, match="first must measure subsystem 0"):
        re_discord_detailed(state, (2, 0), cfg, first=re_discord(state, 2, cfg))


def test_correlation_report_csv_and_json_shape():
    report = correlation_report(bell_state(), OptimizerConfig(restarts=2, seed=1))
    payload = report.to_json()
    assert payload["measurement_class"] == MEASUREMENT_CLASS_LABEL
    assert "upper bounds" in payload["estimator_bias"]
    header, row = cli._csv_rows(cli._REPORT_CSV, [(report,)])
    assert len(row) == 13 and header[6] == "d_a"
    assert row[6] == pytest.approx(1.0, abs=1e-6)  # d_a column
