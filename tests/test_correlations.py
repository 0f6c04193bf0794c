"""Correlation measures: mutual information, J, D, distances, dephasing discord."""

import math
import warnings

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
    projective_from_params,
    purify,
    re_discord,
    re_discord_detailed,
    tensor,
    von_neumann_entropy,
)
from discordkit import correlations
from discordkit._descent import CAP, descend, tangent
from discordkit.correlations import MEASUREMENT_CLASS_LABEL, _random_start
from discordkit.measurement import (
    _measured_view,
    _measurement_objective,
    n_measurement_params,
    unitary_from_params,
)
from discordkit.states import (
    classical_quantum,
    example3_state,
    haar_random_pure,
    random_mixed,
    stream,
    werner_2qubit_example4,
    werner_qudit,
)

from conftest import bell_state, haar_unitary

CFG = OptimizerConfig(restarts=8, seed=1)

EX4_ENTROPY = 0.5 * math.log2(6.0) + 0.5
EX4_INFO = 2.0 - EX4_ENTROPY
EX4_J = 1.0 + (1 / 3) * math.log2(1 / 3) + (2 / 3) * math.log2(2 / 3)
EX4_D = EX4_INFO - EX4_J


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(tol=0.0)


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


def test_minimize_quadratic_objective():
    # ||U - V||^2 + 0.25 over U(2): minimum 0.25 at U = V, gradient 2 (U - V).
    target = unitary_from_params(2, [0.4, 1.3])

    def objective(u, gradient=True):
        return np.sum(np.abs(u - target) ** 2, axis=(-2, -1)) + 0.25, 2.0 * (u - target)

    opt = minimize_over_measurements(objective, 2, OptimizerConfig(restarts=4, seed=2))
    assert opt.value == pytest.approx(0.25, abs=1e-7)
    np.testing.assert_allclose(opt.argbasis.basis, target, rtol=0, atol=1e-4)


def test_minimize_constant_objective_has_zero_spread():
    opt = minimize_over_measurements(
        lambda u, gradient=True: (np.full(len(u), 1.5), np.zeros_like(u)), 2, OptimizerConfig(restarts=4, seed=2)
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
    cond, _ = _measurement_objective(state, 0, dephasing=False)
    deph, _ = _measurement_objective(state, 0, dephasing=True)
    s_state = von_neumann_entropy(state)
    ref_cond = [avg_conditional_entropy(apply_measurement(state, projective_from_params(d, p)))
                for p in params]
    ref_deph = [von_neumann_entropy(dephase(state, projective_from_params(d, p))) - s_state
                for p in params]
    bases = unitary_from_params(d, params)
    np.testing.assert_allclose(cond(bases)[0], ref_cond, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(deph(bases)[0], ref_deph, rtol=0.0, atol=1e-12)


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
    # Off the manifold too: df = Re tr(G^H dU) for any direction dU.
    state = _gradient_case(dims, rank, 23)
    objective, d = _measurement_objective(state, measured, dephasing)
    g = stream(23, d)
    bases = unitary_from_params(d, np.stack([_random_start(g, n_measurement_params(d)) for _ in range(3)]))
    _values, grads = objective(bases)
    h = 1e-5
    for _ in range(4):
        e = g.normal(size=bases.shape) + 1j * g.normal(size=bases.shape)
        e /= np.linalg.norm(e, axis=(-2, -1), keepdims=True)
        central = (objective(bases + h * e)[0] - objective(bases - h * e)[0]) / (2.0 * h)
        analytic = np.einsum("rij,rij->r", grads.conj(), e).real
        np.testing.assert_allclose(analytic, central, rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("dephasing", [False, True], ids=["conditional", "dephasing"])
def test_werner_objective_is_certified_flat(dephasing):
    # A U (x) U-invariant state has a basis-independent objective, so its
    # Riemannian gradient vanishes at every basis: a certificate of flatness.
    objective, d = _measurement_objective(werner_qudit(3, 0.3), 0, dephasing)
    u = np.eye(3, dtype=complex)[None]
    _value, grad = objective(u)
    assert np.linalg.norm(tangent(u, grad)) < 1e-10


def test_descend_stops_on_an_exact_zero_gradient_without_warnings():
    # The first trial lands where the value and the gradient are exactly zero,
    # as on an exactly separable roof ensemble: the Newton step there has a
    # zero numerator and denominator and must not be formed.
    def objective(x):
        return np.zeros(len(x)), np.zeros_like(x)

    start = np.eye(2, dtype=complex)[None]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run = descend(objective, start, np.ones(1), np.array([[[0.0, 1.0], [-1.0, 0.0]]]), 10)
    assert run.reasons == ("gradient",)
    assert run.iterations == (1,) and run.values[0] == 0.0


@pytest.mark.parametrize(
    "dims, rank, measured, dephasing",
    [((2, 2), 4, 0, False), ((2, 3), 6, 1, False), ((4, 2), 8, 0, True)],
    ids=["2x2-rank4", "2x3-rank6-B", "4x2-rank8-dephasing"],
)
def test_lockstep_restarts_equal_restarts_run_alone(dims, rank, measured, dephasing):
    objective, d = _measurement_objective(random_mixed(dims, rank, 11), measured, dephasing)
    cfg = OptimizerConfig(seed=2)
    calls = []

    def recording(u, gradient=True):
        calls.append(u.copy())
        return objective(u, gradient)

    opt = minimize_over_measurements(recording, d, cfg, measured)
    # A qubit's Bloch-grid scan takes one values-only call; the next call
    # scores the starts, and every later call is one lockstep round.
    scanned = d == 2
    starts = calls[int(scanned)]
    assert len(starts) == cfg.restarts
    assert len(calls) == int(scanned) + max(opt.evaluations)
    values, grads = objective(starts)
    alone = [descend(objective, starts[k : k + 1], values[k : k + 1], grads[k : k + 1], cfg.max_iter)
             for k in range(cfg.restarts)]
    assert opt.iterations == tuple(run.iterations[0] for run in alone)
    assert opt.evaluations == tuple(run.evaluations[0] for run in alone)
    assert opt.stop_reasons == tuple(run.reasons[0] for run in alone)
    assert CAP not in opt.stop_reasons and len(set(opt.iterations)) > 1
    np.testing.assert_allclose(opt.restart_values, [run.values[0] for run in alone], rtol=0, atol=1e-12)
    best = int(np.argmin([run.values[0] for run in alone]))
    assert opt.value == pytest.approx(alone[best].values[0], abs=1e-12)
    np.testing.assert_allclose(opt.argbasis.basis, alone[best].x[0], rtol=0, atol=1e-12)


def test_min_conditional_entropy_meets_koashi_winter_oracle():
    # Rank-2 (2,2) states have a qubit purifier C, so Koashi-Winter makes the
    # minimum over measurements on A exactly E_F(BC), which Wootters gives.
    for i in range(20):
        state = random_mixed((2, 2), 2, 7000 + i)
        oracle = eof_2qubit(partial_trace(purify(state).to_density(), (1, 2))).value
        value = min_conditional_entropy(state, 0).value
        assert abs(value - oracle) <= 1e-9
        assert value >= oracle - 1e-12


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


def test_re_discord_zero_for_classical_states():
    zero = QState((2,), np.diag([1.0, 0.0]))
    one = QState((2,), np.diag([0.0, 1.0]))
    cc = classical_quantum([0.4, 0.6], [zero, one])
    assert abs(re_discord(cc, 0, CFG).value) <= 1e-9


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


def test_re_discord_chain_reuses_first_factor(monkeypatch):
    # The chain's first step is re_discord on the first measured subsystem;
    # passing that result in gives the same chain with one search fewer.
    state = random_mixed((2, 2, 2), 8, 78)
    cfg = OptimizerConfig(restarts=2, max_iter=300, seed=5)
    first = re_discord(state, 1, cfg)
    searches = []
    search = correlations.minimize_over_measurements
    monkeypatch.setattr(
        correlations, "minimize_over_measurements", lambda *a, **k: searches.append(a[1]) or search(*a, **k)
    )
    fresh = re_discord_detailed(state, (1, 2), cfg)
    assert searches == [2, 2, 4]
    reused = re_discord_detailed(state, (1, 2), cfg, first=first)
    assert searches == [2, 2, 4, 2, 4]
    # The two first-factor searches see the blocks in another order, so
    # their bases agree only to the optimizer's resolution.
    assert reused.chain_value == pytest.approx(fresh.chain_value, abs=1e-9)
    assert reused.joint_value == fresh.joint_value
    with pytest.raises(ValueError):
        re_discord_detailed(state, (1, 2), cfg, first=re_discord(state, 2, cfg))


def test_re_discord_index_validation():
    state = random_mixed((2, 2), 2, 1)
    with pytest.raises(ValueError):
        re_discord(state, 5, CFG)
    with pytest.raises(ValueError):
        re_discord(state, (), CFG)


def test_correlation_report_csv_and_json_shape():
    report = correlation_report(bell_state(), OptimizerConfig(restarts=2, seed=1))
    payload = report.to_json()
    assert payload["measurement_class"] == MEASUREMENT_CLASS_LABEL
    assert "upper bounds" in payload["estimator_bias"]
    row = report.to_csv_row()
    assert len(row) == 13
    assert row[6] == pytest.approx(1.0, abs=1e-6)  # d_a column
