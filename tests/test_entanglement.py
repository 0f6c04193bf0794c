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
    partial_trace,
    purify,
    spectrum,
    tensor,
    von_neumann_entropy,
)
from discordkit._descent import CAP, descend
from discordkit.entanglement import (
    EOF_DEFAULT_CONFIG,
    EXACT_PURE,
    EXACT_WOOTTERS,
    UPPER_BOUND,
    _random_isometry,
    _roof_objective,
    binary_entropy,
)
from discordkit.states import (
    example3_state,
    haar_random_pure,
    random_mixed,
    stream,
)

from conftest import bell_state, bell_vector, haar_unitary


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
    rho = haar_random_pure((2, 2), 7).to_density()
    roof = eof_upper(rho)
    assert roof.tag == UPPER_BOUND
    assert roof.value == pytest.approx(eof_pure(rho).value, abs=1e-9)


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
    for i in range(30):
        state = random_mixed((2, 2), 1 + i % 4, 5000 + i)
        roof = eof_upper(state)
        assert roof.crosscheck_gap is not None
        assert roof.crosscheck_gap >= -1e-6
        assert roof.crosscheck_gap <= 5e-3


def test_eof_upper_witness_reconstructs_state():
    state = random_mixed((2, 2), 3, 31)
    roof = eof_upper(state)
    witness = roof.decomposition
    assert witness is not None
    np.testing.assert_allclose(witness.reconstruct(), state.matrix, atol=1e-8)
    assert witness.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_eof_invariant_under_local_unitaries(rng):
    for i in range(5):
        state = random_mixed((2, 2), 2, 6000 + i)
        u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
        rotated = QState((2, 2), u @ state.matrix @ u.conj().T)
        # Wootters path: exact
        assert eof_2qubit(rotated).value == pytest.approx(eof_2qubit(state).value, abs=1e-9)
        # roof path: estimator-level agreement (twice the roof accuracy budget)
        assert abs(eof_upper(rotated).value - eof_upper(state).value) <= 1e-2


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
    got, _ = _roof_objective(vectors, dims, (0,), (1,))(np.eye(40, dtype=complex)[:, None, :])
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
    isos = np.stack([_random_isometry(g, m, rank) for _ in range(2)] + [eye])
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
        _values, grads = objective(v)
        for _ in range(4):
            e = g.normal(size=v.shape) + 1j * g.normal(size=v.shape)
            e /= np.linalg.norm(e, axis=(-2, -1), keepdims=True)
            central = (objective(v + h * e)[0] - objective(v - h * e)[0]) / (2.0 * h)
            analytic = np.einsum("rij,rij->r", grads.conj(), e).real
            np.testing.assert_allclose(analytic, central, rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("restarts", [3, 16])
@pytest.mark.parametrize(
    "dims, rank, seed, index, max_iter",
    [((2, 2), 4, 1, 4, 2000), ((3, 2), 3, 2, 0, 2000), ((2, 3), 6, 3, 0, 150)],
    ids=["2x2-rank4", "3x2-rank3", "2x3-rank6"],
)
def test_lockstep_restarts_equal_restarts_run_alone(dims, rank, seed, index, max_iter, restarts):
    # Most rank-6 restarts run to the default 2,000-iteration cap, so a lower
    # cap keeps that case short; at 150 every restart reaches it.
    state = random_mixed(dims, rank, seed, index)
    cfg = OptimizerConfig(restarts=restarts, max_iter=max_iter)
    roof = eof_upper(state, cfg=cfg)

    objective = _roof_objective(_canonical_rows(state), dims, (0,), (1,))
    m = rank * rank
    alone = []
    for k in range(restarts):
        start = np.eye(m, dtype=complex)[:, :rank] if k == 0 else _random_isometry(stream(0, k), m, rank)
        alone.append(descend(objective, start[None], *objective(start[None]), max_iter))
    assert roof.iterations == tuple(run.iterations[0] for run in alone)
    assert roof.evaluations == tuple(run.evaluations[0] for run in alone)
    assert roof.stop_reasons == tuple(run.reasons[0] for run in alone)
    if (dims, restarts) == ((2, 2), 3):
        assert len(set(roof.iterations)) == 3  # the restarts leave after different rounds
    finals = [run.values[0] for run in alone]
    stopped = [f for f, run in zip(finals, alone) if run.reasons[0] != CAP]
    spread = max(stopped) - min(stopped) if stopped else math.inf
    best = int(np.argmin(finals))
    assert roof.value == pytest.approx(finals[best], abs=1e-12)
    assert roof.restart_spread == pytest.approx(spread, abs=1e-12)
    assert roof.converged == (spread <= 10.0 * cfg.tol)
    np.testing.assert_allclose(roof.decomposition.isometry, alone[best].x[0], rtol=0, atol=1e-12)
    others = [k for k in range(restarts) if k != best]
    assert all(np.abs(alone[k].x[0] - alone[best].x[0]).max() > 1e-6 for k in others)


def test_eof_upper_convergence_diagnostics():
    state = random_mixed((2, 2), 4, 8001)
    roof = eof_upper(state)
    assert roof.converged is True
    assert roof.restart_spread <= 10.0 * EOF_DEFAULT_CONFIG.tol
    assert len(roof.iterations) == len(roof.evaluations) == len(roof.stop_reasons) == 3
    assert CAP not in roof.stop_reasons
    assert all(1 <= n < e for n, e in zip(roof.iterations, roof.evaluations))
    capped = eof_upper(state, cfg=OptimizerConfig(restarts=3, max_iter=1))
    assert capped.stop_reasons == (CAP, CAP, CAP)
    assert capped.iterations == (1, 1, 1)
    assert capped.converged is False
    assert capped.restart_spread == math.inf
    assert capped.value >= roof.value
