"""Entanglement of formation: pure, Wootters, and convex-roof routes."""

import math

import numpy as np
import pytest

from discordkit import (
    InvalidStateError,
    OptimizerConfig,
    QState,
    concurrence_2qubit,
    eof_2qubit,
    eof_pure,
    eof_upper,
    min_conditional_entropy,
    partial_trace,
    purify,
    spectrum,
    tensor,
    von_neumann_entropy,
)
from discordkit import _descent, entanglement, qstate
from discordkit._descent import AGREED, CAP, CERTIFIED, DENSE_MAX, Descent, descend, random_isometries
from discordkit.entanglement import (
    EOF_DEFAULT_CONFIG,
    EXACT_PURE,
    EXACT_WOOTTERS,
    UPPER_BOUND,
    _dft_isometry,
    _roof_objective,
    binary_entropy,
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

from conftest import bell_diagonal, bell_state, bell_vector, haar_unitary, roof_search


def summary(run, tol):
    """``_descent.summary``'s best restart, spread and ``converged``."""
    best, spread, diagnostics = _descent.summary(run, tol)
    return best, spread, diagnostics["converged"]


def _werner_mix(p: float) -> QState:
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return QState((2, 2), p * np.outer(psi, psi) + (1 - p) * np.eye(4) / 4.0)


def test_eof_pure_values():
    assert eof_pure(bell_vector()).value == pytest.approx(1.0, abs=1e-12)
    assert eof_pure(bell_vector()).tag == EXACT_PURE

    product = np.kron(np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2))
    from discordkit import PureStateVector

    assert eof_pure(PureStateVector((2, 2), product)).value == pytest.approx(0.0, abs=1e-12)

    vec = haar_random_pure((2, 3), 5)
    marginal = partial_trace(vec.to_density(), (0,))
    assert eof_pure(vec).value == pytest.approx(von_neumann_entropy(marginal), abs=1e-10)


def test_eof_pure_rejects_mixed_density():
    with pytest.raises(InvalidStateError):
        eof_pure(random_mixed((2, 2), 2, 3))
    # a pure density matrix is accepted
    assert eof_pure(bell_state()).value == pytest.approx(1.0, abs=1e-9)


def test_concurrence_values():
    assert concurrence_2qubit(bell_state()) == pytest.approx(1.0, abs=1e-9)
    product = tensor(QState((2,), np.diag([1.0, 0.0])), QState((2,), np.eye(2) / 2.0))
    assert concurrence_2qubit(product) == 0.0
    with pytest.raises(ValueError):
        concurrence_2qubit(QState((4,), np.eye(4) / 4.0))


def test_concurrence_werner_closed_form():
    # mixing a singlet with weight p into white noise: C = max(0, (3p-1)/2)
    for p in (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0):
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert concurrence_2qubit(_werner_mix(p)) == pytest.approx(expected, abs=1e-10)


def test_example4_concurrence_exactly_zero():
    from discordkit.states import werner_2qubit_example4

    assert concurrence_2qubit(werner_2qubit_example4()) == 0.0


def test_eof_2qubit_scalar_oracle():
    assert eof_2qubit(bell_state()).value == pytest.approx(1.0, abs=1e-9)
    assert eof_2qubit(_werner_mix(0.0)).value == 0.0
    # C = 0.5 scalar cross-check
    c = 0.5
    expected = binary_entropy((1.0 + math.sqrt(1.0 - c * c)) / 2.0)
    found = None
    for p in np.linspace(1 / 3, 1.0, 2001):
        if abs(concurrence_2qubit(_werner_mix(p)) - 0.5) < 2e-4:
            found = eof_2qubit(_werner_mix(p)).value
            break
    assert found == pytest.approx(expected, abs=1e-3)
    assert eof_2qubit(bell_state()).tag == EXACT_WOOTTERS


def test_eof_2qubit_matches_eof_pure_on_pure_inputs():
    for i in range(10):
        rho = haar_random_pure((2, 2), 100 + i).to_density()
        assert eof_2qubit(rho).value == pytest.approx(eof_pure(rho).value, abs=1e-9)


def test_eof_upper_collapses_on_pure_input():
    # Every ensemble of a pure state is the state itself: its one member
    # meets the exact value, so no search runs.
    for dims in ((2, 2), (2, 3), (3, 2), (2, 2, 2)):
        rho = haar_random_pure(dims, 7).to_density()
        roof = eof_upper(rho)
        assert roof.tag == UPPER_BOUND
        assert roof.value == pytest.approx(eof_pure(rho).value, abs=1e-9)
        assert roof.stop_reasons == ("certified",) and roof.evaluations == (1,)


def test_eof_upper_separable_states():
    g = stream(321)
    for i in range(5):
        # random separable: mixture of four product states
        probs = g.dirichlet(np.ones(4))
        m = np.zeros((4, 4), dtype=complex)
        for w in probs:
            za = g.normal(size=2) + 1j * g.normal(size=2)
            zb = g.normal(size=2) + 1j * g.normal(size=2)
            v = np.kron(za / np.linalg.norm(za), zb / np.linalg.norm(zb))
            m += w * np.outer(v, v.conj())
        state = QState((2, 2), m)
        assert eof_2qubit(state).value <= 1e-9
        assert eof_upper(state).value <= 1e-3


def test_eof_upper_example3_environment_pair():
    rho_bc = partial_trace(purify(example3_state()).to_density(), (1, 2))
    roof = eof_upper(rho_bc)
    assert roof.value <= 1e-6
    assert eof_2qubit(rho_bc).value == 0.0


def test_eof_upper_never_undercuts_wootters():
    # The search alone: eof_upper certifies these states without one.
    for i in range(30):
        state = random_mixed((2, 2), 1 + i % 4, 5000 + i)
        roof = roof_search(state)
        assert CERTIFIED not in roof.stop_reasons
        assert roof.crosscheck_gap is not None
        assert roof.crosscheck_gap >= -1e-6
        assert roof.crosscheck_gap <= 5e-3


def _use_model(monkeypatch, model):
    # "dense" or "lbfgs" forces that curvature model on every stack; None
    # leaves the choice to D = 2 m r and ``DENSE_MAX``.
    if model is not None:
        monkeypatch.setattr(_descent, "DENSE_MAX", math.inf if model == "dense" else 0)


@pytest.mark.parametrize("model", ["dense", "lbfgs"])
def test_roof_search_meets_wootters_on_either_curvature_model(model, monkeypatch):
    # Criterion 8's band on the search, on each side, with the curvature
    # model forced: by ``DENSE_MAX`` the rank-2 and rank-3 roofs (D = 16, 54)
    # take the dense one and rank 4 (D = 128) L-BFGS.
    _use_model(monkeypatch, model)
    for rank in (2, 3, 4):
        for i in range(3):
            state = random_mixed((2, 2), rank, 8100 + 10 * rank + i)
            for partition in (None, ((1,), (0,))):
                roof = roof_search(state, partition)
                assert CERTIFIED not in roof.stop_reasons
                assert -1e-6 <= roof.crosscheck_gap <= 5e-3


@pytest.mark.parametrize(
    "rank, seed", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 7), (3, 8), (3, 10), (4, 0), (4, 13), (4, 21), (4, 23)]
)
def test_eof_upper_meets_wootters_to_rounding(rank, seed):
    # On these states member eigenvalues cross EIG_CLIP on the way to the
    # optimum, so a jump in the eigenvalue floor there would fail the line
    # searches' Armijo tests and stop the roof above Wootters (by up to
    # 8.5e-10 at rank 3, seed 7).  The search alone: eof_upper certifies
    # these states without one.
    roof = roof_search(random_mixed((2, 2), rank, seed))
    assert CERTIFIED not in roof.stop_reasons
    assert roof.crosscheck_gap <= 1e-12


def _isotropic(d: int, f: float) -> QState:
    """The isotropic state of fidelity f with |Phi+> = sum_i |ii> / sqrt(d) on two d-level systems."""
    phi = np.eye(d).reshape(-1) / math.sqrt(d)
    projector = np.outer(phi, phi)
    return QState((d, d), f * projector + (1.0 - f) / (d * d - 1) * (np.eye(d * d) - projector))


def _vollbrecht_werner(x: float) -> float:
    """E_F of a Werner state of flip expectation x, any d (Vollbrecht & Werner, PRA 64, 062307, 2001)."""
    return binary_entropy((1.0 - math.sqrt(1.0 - x * x)) / 2.0) if x < 0.0 else 0.0


def _terhal_vollbrecht(d: int, f: float) -> float:
    """E_F of the d x d isotropic state of fidelity f (Terhal & Vollbrecht, PRL 85, 2625, 2000).

    Zero up to f = 1/d; then R(f) = h(g) + (1 - g) log2(d - 1), g = (sqrt(f) +
    sqrt((d - 1)(1 - f)))^2 / d, up to f = 4 (d - 1) / d^2; above it the line
    to log2 d at f = 1.
    """
    if f <= 1.0 / d:
        return 0.0
    if f >= 4.0 * (d - 1) / d**2:
        return d * math.log2(d - 1) / (d - 2) * (f - 1.0) + math.log2(d)
    g = (math.sqrt(f) + math.sqrt((d - 1) * (1.0 - f))) ** 2 / d
    return binary_entropy(g) + (1.0 - g) * math.log2(d - 1)


_EXACT_ROOFS = [(werner_qudit(3, x), _vollbrecht_werner(x)) for x in (-0.9, -0.5, -0.2, 0.3)] + [
    (_isotropic(3, f), _terhal_vollbrecht(3, f)) for f in (0.4, 0.8, 0.95)]


@pytest.mark.parametrize(
    "index", range(len(_EXACT_ROOFS)),
    ids=[f"werner-x{x}" for x in (-0.9, -0.5, -0.2, 0.3)] + [f"isotropic-f{f}" for f in (0.4, 0.8, 0.95)],
)
def test_eof_upper_meets_exact_roofs_above_two_qubits(index):
    # Closed forms of E_F on 3 x 3 states of full rank 9, where no
    # certificate applies: the roof searches 81 x 9 isometries in the
    # L-BFGS model.  A seeded local rotation U (x) V keeps E_F and hides the
    # symmetry of the state from the search's start.
    assert _descent.coordinates(81, 9) > DENSE_MAX
    state, exact = _EXACT_ROOFS[index]
    g = stream(4100 + index)
    u = np.kron(haar_unitary(g, 3), haar_unitary(g, 3))
    roof = eof_upper(QState((3, 3), u @ state.matrix @ u.conj().T))
    assert CERTIFIED not in roof.stop_reasons
    assert -1e-12 <= roof.value - exact <= 1e-9


def test_eof_upper_witness_reconstructs_state():
    # A (2, 3) rank-4 roof searches 16 x 4 isometries in the L-BFGS model.
    assert _descent.coordinates(16, 4) > DENSE_MAX
    for state in (random_mixed((2, 2), 3, 31), random_mixed((2, 3), 4, 1, 0), random_mixed((2, 3), 4, 1, 1)):
        witness = eof_upper(state).decomposition
        assert witness is not None
        np.testing.assert_allclose(witness.reconstruct(), state.matrix, atol=1e-8)
        assert witness.weights.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "dims, rank", [((2, 2), 2), ((2, 3), 3), ((3, 2), 3)], ids=["2x2-rank2", "2x3-rank3", "3x2-rank3"]
)
def test_eof_invariant_under_local_unitaries(rng, dims, rank):
    for i in range(5):
        state = random_mixed(dims, rank, 6000 + i)
        u = np.kron(haar_unitary(rng, dims[0]), haar_unitary(rng, dims[1]))
        rotated = QState(dims, u @ state.matrix @ u.conj().T)
        if dims == (2, 2):
            # Wootters path: exact
            assert eof_2qubit(rotated).value == pytest.approx(eof_2qubit(state).value, abs=1e-9)
        # Roof path: two converged searches agree to rounding; a larger gap
        # must be flagged by at least one side, and never exceed the
        # estimator-level 1e-2.
        roofs = eof_upper(rotated), eof_upper(state)
        gap = abs(roofs[0].value - roofs[1].value)
        assert gap <= 1e-2
        if gap > 1e-9:
            assert not (roofs[0].converged and roofs[1].converged)


def test_eof_zero_for_product_states():
    prod = tensor(random_mixed((2,), 2, 8), random_mixed((2,), 2, 9))
    assert eof_2qubit(prod).value <= 1e-6
    assert eof_upper(prod).value <= 1e-6


def test_eof_upper_partition_validation():
    state = random_mixed((2, 2), 2, 10)
    with pytest.raises(ValueError):
        eof_upper(state, ((0,), (0, 1)))


def test_upper_bound_tag_never_exact():
    roof = eof_upper(random_mixed((2, 2), 2, 11))
    assert roof.tag == UPPER_BOUND
    assert not roof.exact


def _reference_contributions(vectors, da, db):
    out = []
    for v in vectors:
        m = v.reshape(da, db)
        mu = np.clip(np.linalg.eigvalsh(m @ m.conj().T), 0.0, None)
        p = mu.sum()
        pos = mu[mu > 0.0] / p
        out.append(-p * float((pos * np.log2(pos)).sum()))
    return np.array(out)


@pytest.mark.parametrize("dims", [(3, 2), (4, 2), (2, 3), (3, 4)])
def test_batch_contributions_smaller_gram_side(dims):
    # Stack k is the one-member ensemble whose member is row k of ``vectors``.
    g = stream(77, 10 * dims[0] + dims[1])
    d = dims[0] * dims[1]
    vectors = (g.normal(size=(40, d)) + 1j * g.normal(size=(40, d))) * g.uniform(0.05, 1.0, (40, 1))
    got, _ = _roof_objective(vectors, dims, (0,), (1,))(np.eye(40, dtype=complex)[:, None, :], (40,))
    np.testing.assert_allclose(got, _reference_contributions(vectors, *dims), rtol=0, atol=1e-12)


def _canonical_rows(state):
    sp = spectrum(state)
    return (sp.eigenvectors[:, : sp.rank] * np.sqrt(sp.eigenvalues[: sp.rank])).T


@pytest.mark.parametrize(
    "dims, rank", [((2, 2), 3), ((3, 2), 3), ((2, 3), 4), ((3, 3), 2)], ids=["2x2", "3x2", "2x3", "3x3"]
)
def test_roof_gradient_matches_central_differences(dims, rank):
    # Random isometries; the eigen-ensemble, whose members past the rank are
    # zero; product members (rank-one blocks); and points off the manifold,
    # probed along arbitrary directions: df = Re tr(G^H dV) for any dV.
    g = stream(24, 10 * dims[0] + dims[1])
    m = rank * rank
    eye = np.eye(m, dtype=complex)[:, :rank]
    isos = np.concatenate([random_isometries([g, g], m, rank), eye[None]])
    off = isos + 0.3 * (g.normal(size=isos.shape) + 1j * g.normal(size=isos.shape))
    product = np.stack(
        [np.kron(g.normal(size=dims[0]) + 1j * g.normal(size=dims[0]), g.normal(size=dims[1])) for _ in range(rank)]
    )
    cases = [
        (_roof_objective(_canonical_rows(random_mixed(dims, rank, 24)), dims, (0,), (1,)), np.concatenate([isos, off])),
        (_roof_objective(product, dims, (0,), (1,)), np.stack([eye, isos[0]])),
    ]
    h = 1e-5
    for objective, v in cases:
        _values, grads = objective(v, (len(v),))
        for _ in range(4):
            e = g.normal(size=v.shape) + 1j * g.normal(size=v.shape)
            e /= np.linalg.norm(e, axis=(-2, -1), keepdims=True)
            central = (objective(v + h * e, (len(v),))[0] - objective(v - h * e, (len(v),))[0]) / (2.0 * h)
            analytic = np.einsum("rij,rij->r", grads.conj(), e).real
            np.testing.assert_allclose(analytic, central, rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("restarts", [3, 16])
@pytest.mark.parametrize(
    "dims, rank, seed, index, max_iter, model",
    [((2, 2), 4, 1, 4, 2000, None), ((3, 2), 3, 2, 0, 2000, None), ((2, 3), 6, 3, 0, 150, None),
     ((3, 2), 3, 2, 0, 3, None), ((2, 2), 4, 1, 4, 2000, "dense"), ((3, 2), 3, 2, 0, 2000, "lbfgs"),
     ((3, 2), 3, 2, 0, 3, "lbfgs")],
    ids=["2x2-rank4", "3x2-rank3", "2x3-rank6", "3x2-rank3-capped", "2x2-rank4-dense", "3x2-rank3-lbfgs",
         "3x2-rank3-capped-lbfgs"],
)
def test_lockstep_restarts_equal_restarts_run_alone(dims, rank, seed, index, max_iter, model, restarts, monkeypatch):
    # Most rank-6 restarts run to the default 2,000-iteration cap, so a lower
    # cap keeps that case short; at 150 every restart reaches it.  At 3
    # iterations the rank-3 restarts reach the cap in rounds where others
    # backtrack or take a step.  The search alone: eof_upper certifies the
    # 2x2 state without one.  D = 2 r^3 is 128 at rank 4, 54 at rank 3 and
    # 432 at rank 6, so the plain cases cover both curvature models by
    # ``DENSE_MAX``, and the others force the model that D does not pick (a
    # dense rank-6 stack would hold 16 matrices of 432 x 432).
    assert 54 <= DENSE_MAX < 128
    # A restart that the agreement cut ended follows its run alone to the
    # iteration it was cut at, bit for bit.
    _use_model(monkeypatch, model)
    state = random_mixed(dims, rank, seed, index)
    cfg = OptimizerConfig(restarts=restarts, max_iter=max_iter)
    runs, descend_alone = [], _descent.descend
    monkeypatch.setattr(_descent, "descend", lambda *args: runs.append(descend_alone(*args)) or runs[-1])
    roof = roof_search(state, cfg=cfg)
    assert CERTIFIED not in roof.stop_reasons

    objective = _roof_objective(_canonical_rows(state), dims, (0,), (1,))
    m = rank * rank
    cut = [why == AGREED for why in roof.stop_reasons]
    alone = []
    for k in range(restarts):
        start = _dft_isometry(m, rank) if k == 0 else random_isometries([stream(0, k)], m, rank)[0]
        cap = roof.iterations[k] if cut[k] else max_iter
        alone.append(descend(objective, start[None], *objective(start[None], (1,)), cap))
    kept = [k for k in range(restarts) if not cut[k]]
    assert [roof.iterations[k] for k in kept] == [alone[k].iterations[0] for k in kept]
    assert [roof.evaluations[k] for k in kept] == [alone[k].evaluations[0] for k in kept]
    assert [roof.stop_reasons[k] for k in kept] == [alone[k].reasons[0] for k in kept]
    assert all(runs[0].x[k].tobytes() == alone[k].x[0].tobytes() for k in range(restarts))
    assert runs[0].values.tobytes() == np.array([run.values[0] for run in alone]).tobytes()
    if (dims, restarts) == ((2, 2), 3):
        # The restarts leave after different rounds, the last one cut.
        assert len(set(roof.evaluations)) == 2 and roof.stop_reasons.count(AGREED) == 1
    finals = [run.values[0] for run in alone]
    own = [f for f, why in zip(finals, roof.stop_reasons) if why not in (CAP, AGREED)]
    spread = max(own) - min(own) if own else math.inf
    stopped = restarts - roof.stop_reasons.count(CAP)
    best = int(np.argmin(finals))
    assert roof.value == pytest.approx(finals[best], abs=1e-12)
    assert roof.restart_spread == pytest.approx(spread, abs=1e-12)
    assert roof.converged == (2 * stopped > restarts and spread <= 10.0 * cfg.tol)
    np.testing.assert_allclose(roof.decomposition.isometry, alone[best].x[0], rtol=0, atol=1e-12)
    others = [k for k in range(restarts) if k != best]
    assert all(np.abs(alone[k].x[0] - alone[best].x[0]).max() > 1e-6 for k in others)


def test_eof_upper_restart_zero_is_never_the_lone_outlier(monkeypatch):
    # An eigen-ensemble start [I_r; 0] has zero gradient on its m - r zero
    # members, so it searches r-member ensembles only; on 8 of these states
    # it stops above two random restarts that agree.  The DFT-rotated start
    # has no zero member.  Restart 0 is the lone outlier when the result
    # did not converge but the other restarts, alone, would have.
    runs = []

    def recording(*args):
        runs.append(descend(*args))
        return runs[-1]

    monkeypatch.setattr(_descent, "descend", recording)
    lone = []
    for seed in range(8000, 8040):
        roof = eof_upper(random_mixed((3, 2), 3, seed))
        run = runs[-1]
        assert roof.value == float(run.values.min())
        rest = Descent(run.x[1:], run.values[1:], run.iterations[1:], run.evaluations[1:], run.reasons[1:])
        if not roof.converged and summary(rest, EOF_DEFAULT_CONFIG.tol)[2]:
            lone.append(seed)
    assert len(runs) == 40
    assert lone == []


def test_eof_upper_convergence_diagnostics():
    # The search alone: eof_upper certifies this state without one.
    state = random_mixed((2, 2), 4, 8001)
    roof = roof_search(state)
    assert CERTIFIED not in roof.stop_reasons
    assert roof.converged is True
    assert roof.restart_spread <= 10.0 * EOF_DEFAULT_CONFIG.tol
    assert len(roof.iterations) == len(roof.evaluations) == len(roof.stop_reasons) == 3
    assert CAP not in roof.stop_reasons
    assert all(1 <= n < e for n, e in zip(roof.iterations, roof.evaluations))
    capped = roof_search(state, cfg=OptimizerConfig(restarts=3, max_iter=1))
    assert capped.stop_reasons == (CAP, CAP, CAP)
    assert capped.iterations == (1, 1, 1)
    assert capped.converged is False
    assert capped.restart_spread == math.inf
    assert capped.value >= roof.value


def test_takagi_factor_is_unitary_on_singular_inputs():
    # Random complex symmetric tau of every rank from 0 to r: on a singular
    # tau the embedding's eigenvectors among the zero values need not give
    # independent columns, and U must still be unitary and diagonalize tau.
    for seed in range(60):
        g = stream(780, seed)
        r = 2 + seed % 3
        a = g.normal(size=(r, seed % (r + 1))) + 1j * g.normal(size=(r, seed % (r + 1)))
        tau = a @ a.T
        u, s = entanglement._takagi(tau)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(r), rtol=0, atol=1e-12)
        np.testing.assert_allclose(u.conj().T @ tau @ u.conj(), np.diag(s), rtol=0, atol=1e-12 * max(1.0, s[0]))
        assert np.all(np.diff(s) <= 0.0)


def _random_separable(seed: int) -> QState:
    g = stream(seed)
    m = np.zeros((4, 4), dtype=complex)
    for w in g.dirichlet(np.ones(4)):
        za = g.normal(size=2) + 1j * g.normal(size=2)
        zb = g.normal(size=2) + 1j * g.normal(size=2)
        v = np.kron(za / np.linalg.norm(za), zb / np.linalg.norm(zb))
        m += w * np.outer(v, v.conj())
    return QState((2, 2), m)


def _certificate_cases(kind: str) -> list:
    if kind.startswith("rank"):
        return [random_mixed((2, 2), int(kind[4:]), 700 + i) for i in range(3)]
    if kind == "separable":
        # Rank 4 with C = 0: Wootters' separable branch.
        return [_random_separable(710 + i) for i in range(3)]
    if kind == "maximally_mixed":
        return [QState((2, 2), np.eye(4) / 4.0)]
    if kind == "bell_diagonal":
        return [_werner_mix(p) for p in (1 / 3, 0.6, 1.0)] + [
            werner_2qubit_example4(),
            werner_qudit(2, -0.2),
            bell_diagonal([0.4, 0.3, 0.2, 0.1]),
            bell_diagonal([0.4, 0.35, 0.25, 0.0]),  # rank 3 with C = 0: padded to 4 members
            bell_diagonal([0.7, 0.3, 0.0, 0.0]),
        ]
    if kind == "classical_quantum":
        return [
            classical_quantum([0.3, 0.7], [haar_random_pure((2,), 720 + k).to_density() for k in (0, 1)]),
            classical_quantum([0.6, 0.4], [random_mixed((2,), 2, 730 + k) for k in (0, 1)]),
        ]
    # Products, including pure (x) mixed on either side.
    pure, mixed = haar_random_pure((2,), 740).to_density(), random_mixed((2,), 2, 741)
    return [tensor(mixed, random_mixed((2,), 2, 742)), tensor(pure, mixed), tensor(mixed, pure),
            tensor(pure, haar_random_pure((2,), 743).to_density())]


@pytest.mark.parametrize("rotate", [False, True], ids=["plain", "rotated"])
@pytest.mark.parametrize("partition", [None, ((1,), (0,))], ids=["A0", "A1"])
@pytest.mark.parametrize(
    "kind",
    ["rank1", "rank2", "rank3", "rank4", "separable", "maximally_mixed", "bell_diagonal", "classical_quantum",
     "product"],
)
def test_wootters_certificate_meets_wootters_on_two_qubit_states(kind, partition, rotate):
    # Every two-qubit state certifies: Wootters' decomposition meets the
    # exact value, on either side, and reproduces the state; no search does
    # better.
    g = stream(750)
    for state in _certificate_cases(kind):
        if rotate:
            u = np.kron(haar_unitary(g, 2), haar_unitary(g, 2))
            state = QState((2, 2), u @ state.matrix @ u.conj().T)
        oracle = eof_2qubit(state).value
        if kind == "separable":
            assert oracle == 0.0
        roof = eof_upper(state, partition)
        assert roof.stop_reasons == (CERTIFIED,)
        assert (roof.iterations, roof.evaluations, roof.restart_spread, roof.converged) == ((0,), (1,), 0.0, True)
        assert roof.tag == UPPER_BOUND
        assert abs(roof.value - oracle) <= 1e-12
        assert roof.crosscheck_gap == roof.value - oracle
        witness = roof.decomposition
        np.testing.assert_allclose(witness.reconstruct(), state.matrix, rtol=0, atol=1e-12)
        assert abs(witness.weights.sum() - 1.0) <= 1e-12
        assert roof.value <= roof_search(state, partition).value + 1e-12


def _fields(roof):
    witness = roof.decomposition
    return (roof.value, roof.crosscheck_gap, roof.converged, roof.restart_spread, roof.iterations,
            roof.evaluations, roof.stop_reasons, witness.weights.tobytes(), witness.vectors.tobytes(),
            witness.isometry.tobytes())


@pytest.mark.parametrize("dims, rank", [((3, 2), 3), ((2, 3), 2), ((2, 3), 4)], ids=["3x2r3", "2x3r2", "2x3r4"])
def test_wootters_certificate_never_fires_off_two_qubit_states(dims, rank, monkeypatch):
    # No candidate is built, and the result is exactly the search's.
    def no_candidate(*args):
        raise AssertionError("a Wootters candidate was built")

    monkeypatch.setattr(entanglement, "_wootters_rows", no_candidate)
    cfg = OptimizerConfig(restarts=2, seed=5, max_iter=200)
    for i in range(2):
        state = random_mixed(dims, rank, 760 + i)
        for partition in (None, ((1,), (0,))):
            roof = eof_upper(state, partition, cfg)
            assert CERTIFIED not in roof.stop_reasons
            assert _fields(roof) == _fields(roof_search(state, partition, cfg))


def _rotate_wootters_rows(monkeypatch):
    # Wootters' rows with their first two members rotated by 0.05 rad score
    # above the exact value (and below E of the largest Takagi value), so the
    # candidate fails the bound.
    rows = entanglement._wootters_rows

    def rotated(phi):
        w, c = rows(phi)
        turn = np.eye(w.shape[0])
        turn[:2, :2] = [[math.cos(0.05), math.sin(0.05)], [-math.sin(0.05), math.cos(0.05)]]
        return turn @ w, c

    monkeypatch.setattr(entanglement, "_wootters_rows", rotated)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_wootters_certificate_rejects_a_candidate_above_wootters(rank, monkeypatch):
    # The rotated candidate must fail the bound and the search must run unchanged.
    _rotate_wootters_rows(monkeypatch)
    cfg = OptimizerConfig(restarts=2, seed=5)
    for i in range(3):
        state = random_mixed((2, 2), rank, 770 + i)
        roof = eof_upper(state, cfg=cfg)
        assert CERTIFIED not in roof.stop_reasons
        assert _fields(roof) == _fields(roof_search(state, cfg=cfg))


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_eof_upper_builds_its_roof_once(rank, monkeypatch):
    # When the rotated candidate misses, the search runs on the build the
    # certificate scored: one spectrum (the purification's) and one exact
    # Wootters value per call.
    _rotate_wootters_rows(monkeypatch)
    calls = []
    for module, name in ((qstate, "spectrum"), (entanglement, "spectrum"), (entanglement, "eof_2qubit")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    cfg = OptimizerConfig(restarts=2, seed=5)
    for i in range(3):
        calls.clear()
        roof = eof_upper(random_mixed((2, 2), rank, 770 + i), cfg=cfg)
        assert CERTIFIED not in roof.stop_reasons
        assert sorted(calls) == ["eof_2qubit", "spectrum"]


@pytest.mark.parametrize("dims, rank", [((2, 2), 3), ((2, 3), 3), ((2, 3), 4)], ids=["2x2r3", "2x3r3", "2x3r4"])
def test_hjw_sandwich_roof_of_bc_below_the_measured_minimum_of_ab(dims, rank):
    # On the pure ABC a measurement on A is, by HJW, an ensemble of rho_BC,
    # and Koashi-Winter makes E_F(BC) the least sum_k p_k S(rho_B^k) over
    # all POVMs on A: the projective minimum of AB lies on or above the
    # roof.  On (2, 2) inputs the two agree to rounding; on (2, 3) a POVM
    # can beat every projective measurement, and the roof lies below.
    for i in range(6):
        ab, cfg = random_mixed(dims, rank, 1, i), OptimizerConfig(seed=1)
        bc = partial_trace(purify(ab).to_density(), (1, 2))
        assert eof_upper(bc, cfg=cfg).value <= min_conditional_entropy(ab, 0, cfg).value + 1e-12
